"""Whole-program analysis over control-flow graphs with relation labels.

Summaries ``P+(q, q')`` are computed by state elimination: eliminating a
state composes its incoming edges, the closure of its self-loops, and its
outgoing edges; only the states on some path between the two ends are
eliminated.  A self-loop is accelerated through its octagonal hull
(exact for an octagonal loop, an over-approximation for an affine one)
and the periodic closure of that octagon; multi-loop states saturate by
extending members with the accelerated disjuncts up to a budget, falling
back to a single octagonal-hull closure only when the budget is exhausted.

All summary members are kept as linear-row systems over the program
variables, their primed copies, and nonnegative integer parameters (one
per accelerated loop on the path), plus divisibility atoms.  The
parameters are named ``_p0, _p1, ...`` by position, so equal relations are
equal members and the memo tables below serve every later call.  An
octagonal label and an accelerated loop's plain and parametric octagons
become members through one builder, ``_member_from_dbm``, which writes the
path-reduced rows of a closed tight dual matrix.  Members compose one way:
by exact integer elimination of the midpoint variables (Presburger
elimination, as in the paper), which loses nothing.  Each question about
members is asked one way: emptiness by the exact parameter elimination of
``member_cases`` (``compose_members`` says why that suffices), inclusion by
``conj_implies`` on those cases, and images by ``_image``, which takes
the image of each conjunct through each member by one exact elimination.

The non-termination precondition takes, per state of a cycle cover,
either the exact WNT of the unique cycle relation or the union of the WNTs
of the octagonalized transition-invariant disjuncts.  One backward pass
pulls them all back to the initial state: it solves
X_q = W_q | U_{q -> r} pre_label(X_r) over the strongly connected
components that the initial state reaches, sinks first, through the
labels of the edges between components and through the summaries from a
component's entries to its states, so it builds sets over x only.  The
initial state of a flat program needs no pull-back of its own WNT: its
one cycle is its only way back, and the cycle's WNT is closed under
pre-image.  An empty set is pulled back through no summary, and an
entry's set of more than ``max_disjuncts`` conjuncts becomes its
octagonal hull.  The summary from the initial state to q is computed only
as the reach of a transition-invariant state q other than the initial
one.  Each public question has one memo, keyed by its arguments: the
parse per text in ``parse_program``, the flatness verdict per program in
``is_flat``, each summary per (program, ends, budgets) in ``_summary``,
and the whole analysis, its flags included, per (program, budgets) in
``_analysis``, so a repeated program costs one memo lookup.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Iterable, NamedTuple

from .affine import AffineRel, compose_affine, finite_monoid_wnt, guard_rows, is_finite_monoid
from .closure import MAX_PERIOD, MAX_PREFIX, ParamOct, ParamOctUnion, reflexive_transitive_closure
from .dbm import INF, Dbm
from .grammar import Program, Transition, as_affine, parse_program_text
from .linarith import EQ, LE, LinSys, LinTerm, term_of_pair
from .octagon import (
    Octagon,
    bottom,
    oct_encode,
    oct_hull,
    oct_rows,
    relation_names,
    rows_to_atoms,
    tight_close,
)
from .presburger import Conj, Dnf, antichain_add, conj_implies, eliminate_all, eliminate_rows
from .term_oct import wnt as oct_wnt

# Entries per memo table.  One round of the `programs` benchmark fills at
# most 580 (member_subsumed, seeds 5-12, one fresh process each; the parse
# memo, `is_flat` and the analysis memo `_analysis` 6-7 distinct texts of
# 24 requests, the summary memo `_summary` 12-13, and after 100 rounds of
# seed 5 the parse, flatness and analysis memos 25, `_summary` 37), so a
# round evicts nothing while a long-lived process stays bounded.
_MEMO = 1024


def _param_names(n: int) -> tuple[str, ...]:
    """Canonical parameter names: a member's params are ``_p0 .. _p{n-1}``,
    so equal relations are equal members whatever the call history."""
    return tuple(f"_p{i}" for i in range(n))


# ---------------------------------------------------------------------------
# summary members
# ---------------------------------------------------------------------------


class LinRel(NamedTuple):
    """Relation {(x, x') | exists params >= 0 . conj} over named variables."""

    variables: tuple[str, ...]
    conj: Conj
    params: tuple[str, ...] = ()

    def system(self) -> LinSys:
        """The rows together with ``p >= 0`` for each parameter."""
        return LinSys(list(self.conj.rows) + [(LinTerm({p: -1}), LE) for p in self.params])


def _canonical(variables, conj: Conj, params) -> LinRel:
    """The member over the params that conj uses, renamed to positions."""
    used = [p for p in params if p in conj.variables()]
    names = _param_names(len(used))
    if used != list(names):
        conj = conj.rename(dict(zip(used, names)))
    return LinRel(tuple(variables), conj, names)


@lru_cache(maxsize=_MEMO)
def identity_member(variables: tuple[str, ...]) -> LinRel:
    """x' = x over ``variables``, one object per tuple."""
    rows = [(LinTerm({v + "'": 1, v: -1}), EQ) for v in variables]
    return LinRel(variables, Conj.make(rows))


def member_from_octagon(o: Octagon, variables: tuple[str, ...]) -> LinRel | None:
    t = tight_close(o)
    return None if t.is_bottom else _member_from_dbm(t.dbm, None, None, variables)


def member_from_param_oct(po: ParamOct, variables: tuple[str, ...]) -> LinRel:
    m = _member_from_dbm(po.base, po.rate, po.k_max, variables)
    assert m is not None
    return m


def _member_from_dbm(base: Dbm, rate: Dbm | None, k_max: int | None,
                     variables: tuple[str, ...]) -> LinRel | None:
    """The member of the closed tight dual matrix base + _p0*rate (a plain
    octagon when rate is None), led by the row _p0 <= k_max when k_max is
    set; None when a diagonal cell is a negative constant.

    Cell (p, q) is the line (c, r), u_p - u_q <= c + r*_p0, or nothing where
    the base is INF.  Path-implied lines give no row (Larsen, Larsson,
    Pettersson, Yi, RTSS 1997): an off-diagonal line goes when kept lines a
    of (p, k) and b of (k, q), k not in {p, q}, have a + b <= it in both
    components, so their rows imply it at every _p0 >= 0.  One line goes at
    a time, against the lines still kept, so a zero cycle (x = y) keeps one
    of two equivalent rows.  Diagonal lines all stay."""
    names = relation_names(variables)
    p0 = LinTerm.var("_p0")
    rates = rate.rows if rate is not None else [[0] * base.dim] * base.dim
    cells = [[None if c == INF else (c, 0 if r == INF else r) for c, r in zip(brow, rrow)]
             for brow, rrow in zip(base.rows, rates)]
    rows = [] if k_max is None else [(p0 - k_max, LE)]
    for p, row in enumerate(cells):
        for q, line in enumerate(row):
            if line is None:
                continue
            c, r = line
            if p == q:
                if r == 0:
                    if c < 0:
                        return None
                    continue
                rows.append((p0 * -r - c, LE))
            elif any(a[0] + b[0] <= c and a[1] + b[1] <= r
                     for k, a in enumerate(row) if a and k != p and k != q
                     for b in (cells[k][q],) if b):
                row[q] = None
            else:
                rows.append((term_of_pair(p, q, names, -c) - p0 * r, LE))
    conj = Conj.make(rows)
    return None if conj is None else _canonical(variables, conj, ("_p0",))


def member_from_affine_step(a: AffineRel, variables: tuple[str, ...]) -> LinRel | None:
    rows = []
    for i, v in enumerate(variables):
        upd = LinTerm({variables[j]: a.a[i][j] for j in range(a.n_vars)}, a.b[i])
        rows.append((LinTerm({v + "'": 1}) - upd, EQ))
    rows.extend(guard_rows(a.guard, variables))
    conj = Conj.make(rows)
    return None if conj is None else LinRel(variables, conj)


@lru_cache(maxsize=_MEMO)
def member_cases(m: LinRel) -> tuple[Conj, ...]:
    """Parameter-free cases of the member (exact elimination)."""
    if not m.params:
        return (m.conj,)
    return tuple(eliminate_all(m.conj, list(m.params), nonneg=list(m.params)))


@lru_cache(maxsize=_MEMO)
def member_subsumed(a: LinRel, b: LinRel) -> bool:
    """Sound check that a's relation is contained in b's: every
    parameter-free case of a must imply one case of b by ``conj_implies``.
    Two octagonal cases compare as tight octagons there, integer-exact.
    Other cases see row entailment and the divisibility atoms a's rows
    entail, such as the parities step-2 accelerations bring in, but not a
    case of a covered only by a union of b's cases."""
    cb = member_cases(b)
    return all(any(conj_implies(ca, c) for c in cb) for ca in member_cases(a))


def _normalize_member(m: LinRel) -> tuple[LinRel, ...]:
    """Trade the parametric form for parameter-free cases when every case
    is octagonal, so loop parameters do not pile up through compositions:
    composing a member with k parameters and one with l gives k + l.
    Members whose projection leaves the octagonal fragment (coupled loop
    counters) stay parametric."""
    if not m.params:
        return (m,)
    outs = []
    for c in member_cases(m):
        lr = LinRel(m.variables, c)
        if _exact_octagon(lr) is None:
            return (m,)
        outs.append(lr)
    return tuple(outs)


@lru_cache(maxsize=_MEMO)
def compose_members(a: LinRel, b: LinRel) -> tuple[LinRel, ...]:
    """Exact relational composition, by integer elimination of the
    midpoint variables, which may split into finitely many members.  The
    midpoints take the place of a's primed and b's unprimed names and b's
    parameters follow a's, renamed on the int rows (``Conj.irows``), and
    ``eliminate_rows`` normalizes the merged rows once.

    Every member returned has a rational point at p >= 0, and no separate
    emptiness test runs:
    - A parameter-free case passed ``Dnf.add`` in ``eliminate_rows``,
      which drops every case with no rational point.
    - A parametric member goes through ``_normalize_member``, so through
      ``member_cases``: exact elimination of its parameters at p >= 0.
      Each step maps a system with no rational point to systems with none
      (real and dark shadows, splinters with one more equality, residue
      splits by an affine substitution), and ``Dnf.add`` drops every case
      with no rational point.  So a member with no rational point at
      p >= 0 has no case and normalizes to nothing."""
    variables = a.variables
    # the midpoints are eliminated below, so their names never leave here
    mids = {v: f"_m_{v}" for v in variables}
    params = _param_names(len(a.params) + len(b.params))
    rows, divs = a.conj.irows({v + "'": mid for v, mid in mids.items()})
    b_rows, b_divs = b.conj.irows({**mids, **dict(zip(b.params, params[len(a.params):]))})
    cases = eliminate_rows(rows + b_rows, divs + b_divs, list(mids.values()))
    return tuple(n for conj in cases
                 for n in _normalize_member(_canonical(variables, conj, params)))


@lru_cache(maxsize=_MEMO)
def _exact_octagon(m: LinRel) -> Octagon | None:
    """The tight octagon of a member that converts exactly: no parameters,
    no divisibility atoms and only octagonal rows; None for any other."""
    if m.params or m.conj.divs:
        return None
    names = relation_names(m.variables)
    atoms = rows_to_atoms(m.conj.rows, {v: i for i, v in enumerate(names)})
    return None if atoms is None else tight_close(oct_encode(atoms, len(names)))


@lru_cache(maxsize=_MEMO)
def member_to_octagon(m: LinRel) -> tuple[Octagon, bool]:
    """Octagonal hull of a member (exact flag when nothing was lost).

    A member that ``_exact_octagon`` converts is exact; anything else is
    hulled by rational suprema of the octagonal terms over the lifted
    polyhedron (parameters kept nonnegative), floored, which equal the
    suprema over its projection.  Either way the result is the tight hull
    of the member's integer points.
    """
    o = _exact_octagon(m)
    if o is not None:
        return o, True
    return oct_hull([m.system()], relation_names(m.variables)), False


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------


@lru_cache(maxsize=_MEMO)
def parse_program(text: str) -> Program:
    """The program of a text, parsed once: a repeated text gives the same
    ``Program`` object, so its labels hit the memos below by identity.
    Nothing writes a program or its labels after the parse."""
    return parse_program_text(text)


@lru_cache(maxsize=_MEMO)
def _label_members(label: tuple, variables: tuple[str, ...]) -> tuple[LinRel, ...]:
    out = []
    for d in label:
        if isinstance(d, Octagon):
            m = member_from_octagon(d, variables)
        else:
            m = member_from_affine_step(d, variables)
        if m is not None and m.conj.rationally_feasible():
            out.append(m)
    return tuple(out)


# -- elementary cycles -------------------------------------------------------


def elementary_cycles(p: Program) -> list[list[Transition]]:
    """All elementary cycles, as edge sequences (parallel edges distinct)."""
    cycles = []
    order = {s: i for i, s in enumerate(p.states)}
    by_src: dict[str, list[Transition]] = {}
    for t in p.transitions:
        by_src.setdefault(t.source, []).append(t)

    def dfs(start: str, node: str, path: list[Transition], seen: set[str]):
        for t in by_src.get(node, []):
            if t.target == start:
                cycles.append(path + [t])
            elif t.target not in seen and order[t.target] > order[start]:
                seen.add(t.target)
                dfs(start, t.target, path + [t], seen)
                seen.remove(t.target)

    for s in p.states:
        dfs(s, s, [], {s})
    return cycles


class Flat(NamedTuple):
    def __bool__(self) -> bool:
        return True  # an empty tuple is falsy; a verdict is not


class NotFlat(NamedTuple):
    reason: str

    def __bool__(self) -> bool:
        return False  # a one-field tuple is truthy; a negative verdict is not


def _cycle_relation(p: Program, cycle: tuple[Transition, ...]) -> list[LinRel]:
    """Composition of the labels around a cycle, as summary members."""
    members = _label_members(cycle[0].label, p.variables)
    for t in cycle[1:]:
        nxt = []
        for a in members:
            for b in _label_members(t.label, p.variables):
                nxt.extend(compose_members(a, b))
        members = _dedupe(nxt)
    return members


def _dedupe(members: list[LinRel]) -> list[LinRel]:
    out: list[LinRel] = []
    for m in members:
        antichain_add(out, m, member_subsumed)
    return out


def _cycle_single_class(p: Program, cycle: tuple[Transition, ...]):
    """(kind, payload) when the composed cycle label is a single conjunctive
    octagonal or finite-monoid affine relation; None otherwise.  A cycle
    whose composed relation is empty is the empty octagon: no run goes
    round it, and its WNT is exactly empty.  In a cycle of one-disjunct
    labels with an affine one, each octagonal label that is a deterministic
    update (``as_affine`` of its rows) composes as an affine relation."""
    labels = [t.label[0] for t in cycle if len(t.label) == 1]
    if len(labels) == len(cycle) and any(isinstance(d, AffineRel) for d in labels):
        names = relation_names(p.variables)
        rels = [d if isinstance(d, AffineRel) else as_affine(oct_rows(d, names), p.variables)
                for d in labels]
        if None not in rels:
            a = reduce(compose_affine, rels)
            if is_finite_monoid(a.a):
                return ("affine", a)
    members = _cycle_relation(p, cycle)
    if not members:
        return ("octagon", bottom(2 * len(p.variables)))
    if len(members) == 1:
        o = _exact_octagon(members[0])
        if o is not None:
            return ("octagon", o)
    return None


@lru_cache(maxsize=_MEMO)
def is_flat(p: Program) -> Flat | NotFlat:
    """Whether no state lies on two elementary cycles and every cycle
    composes inside the octagonal or finite-monoid fragment, once per
    program."""
    cycles = [tuple(c) for c in elementary_cycles(p)]
    counts: dict[str, int] = {s: 0 for s in p.states}
    for cyc in cycles:
        for t in cyc:
            counts[t.source] += 1
    for s, n in counts.items():
        if n > 1:
            return NotFlat(f"state {s} lies on {n} elementary cycles")
    for cyc in cycles:
        if _cycle_single_class(p, cyc) is None:
            return NotFlat(
                "cycle through %s composes outside the octagonal/finite-monoid fragment"
                % cyc[0].source
            )
    return Flat()


def _cycle_cover(p: Program) -> list[tuple[str, list[tuple[Transition, ...]]]]:
    """The states of a greedy cycle cover, sorted, each with the elementary
    cycles through it.

    Every infinite run visits some analyzed state infinitely often as long
    as the analyzed set hits every elementary cycle, so a greedy cycle
    cover keeps both soundness and the flat-exactness argument."""
    cycles = [tuple(c) for c in elementary_cycles(p)]
    chosen: list[str] = []
    uncovered = list(range(len(cycles)))
    while uncovered:
        best = max(
            sorted(p.states),
            key=lambda s: sum(
                1 for i in uncovered if any(t.source == s for t in cycles[i])
            ),
        )
        hits = [i for i in uncovered if any(t.source == best for t in cycles[i])]
        if not hits:
            break
        chosen.append(best)
        uncovered = [i for i in uncovered if i not in hits]
    return [(q, [c for c in cycles if any(t.source == q for t in c)]) for q in sorted(chosen)]


# -- self-loop closure and state elimination ----------------------------------


class Budgets(NamedTuple):
    max_prefix: int = MAX_PREFIX
    max_period: int = MAX_PERIOD
    max_disjuncts: int = 256


def _accelerate_member(
    m: LinRel, budgets: Budgets
) -> tuple[list[LinRel], bool, bool]:
    """Members of m^+; exact flag; whether the closure was left uncertified
    when the period budget ran out."""
    variables = m.variables
    o, exact = member_to_octagon(m)
    if o.is_bottom:
        return [], True, False
    n = len(variables)
    rtc = reflexive_transitive_closure(
        o, n, budgets.max_prefix, budgets.max_period
    )
    out = [x for mem in _union_members(rtc, variables) for x in _normalize_member(mem)]
    return out, exact and rtc.exact, not rtc.exact


def _union_members(u: ParamOctUnion, variables: tuple[str, ...]) -> list[LinRel]:
    """Summary members of a closure's plain and parametric octagons (the
    identity of a reflexive closure left out)."""
    out = []
    for mem in u.members:
        if isinstance(mem, Octagon):
            m = member_from_octagon(mem, variables)
            if m is not None:
                out.append(m)
        else:
            out.append(member_from_param_oct(mem, variables))
    return out


def _star_members(
    loops: tuple[LinRel, ...], variables: tuple[str, ...], budgets: Budgets
) -> tuple[tuple[LinRel, ...], bool, bool]:
    """Members of (union of loops)^+ by saturation; exact flag; whether a
    budget ran out.

    The generators ``gens`` are the deduplicated members of the accelerated
    loops.  Each round extends every frontier member b by every generator g
    as ``compose_members(b, g)`` (semi-naive evaluation: Bancilhon,
    Ramakrishnan, SIGMOD 1986), and the candidates no member subsumes form
    the next frontier.  That is complete: every element of (union of
    loops)^+ is a word over ``gens``; every member that ever enters
    ``members`` enters the frontier once, and is then extended by every
    generator; and composition is monotone, so when o subsumes a dropped
    candidate, each extension of the candidate is subsumed by the same
    extension of o.  After r rounds the words of up to r + 1 generators are
    covered, so the 16-round cap bounds words at 17 generators (not at
    2^16, as composing members with members would).

    One loop whose acceleration is exact needs no round: its generators
    are R+ itself, and R+ composed with R+ adds nothing to R+."""
    exact = True
    exhausted = False
    base: list[LinRel] = []
    for m in loops:
        acc, ex, bx = _accelerate_member(m, budgets)
        exact = exact and ex
        exhausted = exhausted or bx
        base.extend(acc)
    gens = _dedupe(base)
    if len(loops) == 1 and exact:
        return tuple(gens), exact, exhausted
    members = list(gens)
    frontier = list(gens)
    rounds = 0
    while frontier and rounds < 16:
        rounds += 1
        new: list[LinRel] = []
        for g in gens:
            for b in frontier:
                for cand in compose_members(b, g):
                    if any(member_subsumed(cand, o) for o in members):
                        continue
                    if any(member_subsumed(cand, o) for o in new):
                        continue
                    new.append(cand)
        if not new:
            return tuple(_dedupe(members)), exact, exhausted
        members = _dedupe(members + new)
        frontier = new
        if len(members) > budgets.max_disjuncts:
            break
    # budget exhausted: sound fallback via one hulled closure
    hull = oct_hull([member_to_octagon(m)[0] for m in loops])
    closure = reflexive_transitive_closure(
        hull, len(variables), budgets.max_prefix, budgets.max_period
    )
    return tuple(_union_members(closure, variables)), False, True


def transitive_relation(
    p: Program, q_in: str, q_out: str, budgets: Budgets | None = None
) -> tuple[list[LinRel], bool]:
    """Members of an over-approximation of P+(q_in, q_out); exact flag.

    Exact whenever every self-loop closure certified and no budget fallback
    fired (always the case on flat programs within budget).
    """
    members, exact, _ = _summary(p, q_in, q_out, budgets or Budgets())
    return list(members), exact


def _reach(p: Program, start: str, forward: bool) -> set[str]:
    """The states some path from ``start`` visits (to it, when not
    ``forward``), ``start`` included."""
    seen, todo = {start}, [start]
    while todo:
        s = todo.pop()
        for t in p.transitions:
            a, b = (t.source, t.target) if forward else (t.target, t.source)
            if a == s and b not in seen:
                seen.add(b)
                todo.append(b)
    return seen


@lru_cache(maxsize=_MEMO)
def _summary(
    p: Program, q_in: str, q_out: str, budgets: Budgets
) -> tuple[tuple[LinRel, ...], bool, bool]:
    """transitive_relation's members and exact flag, and whether an
    acceleration or disjunct budget ran out on the way.  Only the states
    on some q_in -> q_out path are eliminated: a loop elsewhere adds no
    run, so it spends no budget and leaves ``exact`` alone."""
    missing = [s for s in dict.fromkeys((q_in, q_out)) if s not in p.states]
    if missing:
        raise ValueError("the program has no state " + ", ".join(map(repr, missing)))

    live = _reach(p, q_in, True) & _reach(p, q_out, False)
    variables = p.variables
    IN, OUT = "__in__", "__out__"
    edges: dict[tuple[str, str], list[LinRel]] = {}

    def add_edge(a: str, b: str, members: list[LinRel]):
        if not members:
            return
        cur = edges.setdefault((a, b), [])
        for m in members:
            antichain_add(cur, m, member_subsumed)

    for t in p.transitions:
        if t.source in live and t.target in live:
            add_edge(t.source, t.target, _label_members(t.label, variables))
    # the copy edges hold the one identity object, and no composition
    # returns it, so ``is`` tells a copy edge's member apart
    ident = identity_member(variables)
    add_edge(IN, q_in, [ident])
    add_edge(q_out, OUT, [ident])

    exact = True
    exhausted = False
    remaining = [s for s in p.states if s in live]
    while remaining:
        remaining.sort(
            key=lambda s: (
                sum(len(v) for (a, b), v in edges.items() if b == s and a != s)
                * sum(len(v) for (a, b), v in edges.items() if a == s and b != s),
                s,
            )
        )
        q = remaining.pop(0)
        loops = edges.pop((q, q), [])
        if loops:
            t_members, ex, bx = _star_members(tuple(loops), variables, budgets)
            exact = exact and ex
            exhausted = exhausted or bx
        else:
            t_members = []
        incoming = [(a, ms) for (a, b), ms in list(edges.items()) if b == q]
        outgoing = [(b, ms) for (a, b), ms in list(edges.items()) if a == q]
        for a, in_ms in incoming:
            del edges[(a, q)]
        for b, out_ms in outgoing:
            del edges[(q, b)]
        for a, in_ms in incoming:
            for b, out_ms in outgoing:
                combined: list[LinRel] = []
                for m1 in in_ms:
                    # the direct route stays separate from the loop routes:
                    # deduping them together could let a (possibly skipped)
                    # pass-through member swallow genuine loop compositions
                    mids = [m1]
                    if t_members:
                        through = []
                        for tm in t_members:
                            through.extend(compose_members(m1, tm))
                        mids = [m1] + _dedupe(through)
                    for m2 in out_ms:
                        for mm in mids:
                            if a == IN and b == OUT and mm is m1 is ident and m2 is ident:
                                # zero-length run q_in -> q_out through the
                                # copy edges only; the summary is the strict
                                # transitive relation
                                continue
                            combined.extend(compose_members(mm, m2))
                combined = _dedupe(combined)
                if len(combined) > budgets.max_disjuncts:
                    hulled = member_from_octagon(
                        oct_hull([member_to_octagon(m)[0] for m in combined]), variables
                    )
                    combined = [hulled] if hulled is not None else []
                    exact = False
                    exhausted = True
                add_edge(a, b, combined)
    return tuple(edges.get((IN, OUT), ())), exact, exhausted


class PrecondResult(NamedTuple):
    program: Program
    precondition: Dnf
    per_state: list  # (state, method, Dnf over x)
    flat: bool
    exact: bool
    # an acceleration or disjunct budget ran out, or a closure was left
    # uncertified: the result is still sound
    budget_exhausted: bool = False


def _image(members: tuple[LinRel, ...], target: Iterable[Conj], forward: bool,
           include_identity: bool, out: Dnf | None = None) -> Dnf:
    """Image of conjuncts over x through summary members, and through the
    identity when asked: the post-image when ``forward``, else the
    pre-image.  It is added to ``out`` (a new DNF when None), which is
    returned: only the DNF that keeps a conjunct prunes it."""
    out = Dnf() if out is None else out
    for conj in target:
        if include_identity:
            out.add(conj)
        for m in members:
            for c in _member_image(m, conj, forward):
                out.add(c)
    return out


def _member_image(m: LinRel, conj: Conj, forward: bool) -> tuple[Conj, ...]:
    """Cases of the image of one conjunct over x through one member: the
    member's rows, the conjunct's (over x' for a pre-image) and p >= 0 for
    each parameter go to ``eliminate_rows`` unnormalized, which eliminates
    the other side and the parameters; a post-image is renamed back to x."""
    primed = {v: v + "'" for v in m.variables}
    rows, divs = m.conj.irows()
    c_rows, c_divs = conj.irows(None if forward else primed)
    cases = eliminate_rows(rows + c_rows + [({p: -1}, 0, LE) for p in m.params], divs + c_divs,
                           [*(m.variables if forward else primed.values()), *m.params])
    unprimed = {v: u for u, v in primed.items()}
    return tuple(c.rename(unprimed) if forward else c for c in cases)


def nt_program(p: Program, budgets: Budgets | None = None) -> PrecondResult:
    """Over-approximate non-termination precondition (exact on flat inputs).

    The result comes from ``_analysis``, memoized per (program, budgets),
    with fresh ``Dnf``s and a fresh per-state list."""
    a = _analysis(p, budgets or Budgets())
    per_state = [(q, method, _copy(w)) for q, method, w in a.per_state]
    return PrecondResult(p, _copy(a.precondition), per_state, a.flat, a.exact,
                         a.budget_exhausted)


def _copy(d: Dnf) -> Dnf:
    """A fresh ``Dnf`` of the conjuncts of one: none is pruned again."""
    out = Dnf()
    out.conjs = list(d.conjs)
    return out


def _hull_conj(conjs: Iterable[Conj], variables: tuple[str, ...]) -> Conj | None:
    """The octagonal hull of conjuncts over x, as one conjunct."""
    return Conj.make(oct_rows(oct_hull([c.to_linsys() for c in conjs], variables), variables))


@lru_cache(maxsize=_MEMO)
def _analysis(p: Program, budgets: Budgets) -> PrecondResult:
    """The WNT of each state of the cycle cover, their pull-back to the
    initial state, and the flags.

    A state with one cycle whose composed relation is a single octagonal
    or finite-monoid affine relation takes that relation's exact WNT.  A
    transition-invariant state q takes the WNTs of the octagonalized
    members of P+(q, q), each met with the octagonal hull of q's reach,
    the post-image of P+(init, q) (everything at q = init).  ``_pull_back``
    then pulls every WNT back; the initial state of a flat program skips
    the pull-back of its own WNT, since there P+(q, q) = C+ for its one
    cycle C, and C+ pulls the exact WNT of C back into itself.

    The flags join those of the summaries the analysis used, as each is
    first used, and whether the pass hulled a set: a skipped summary
    spends no budget and leaves ``exact`` and ``budget_exhausted`` alone,
    like a loop off the paths of a summary.  The precision claim of the
    method only covers flat inputs with every closure certified, so
    ``exact`` under-approximates actual exactness."""
    variables = p.variables
    n = len(variables)
    flat = bool(is_flat(p))
    used: dict[tuple[str, str], tuple[LinRel, ...]] = {}
    exact, exhausted = True, False

    def summary(q_in: str, q_out: str) -> tuple[LinRel, ...]:
        nonlocal exact, exhausted
        if (q_in, q_out) not in used:
            used[q_in, q_out], ex, bx = _summary(p, q_in, q_out, budgets)
            exact, exhausted = exact and ex, exhausted or bx
        return used[q_in, q_out]

    per_state = []
    seeds: dict[str, tuple[Dnf, bool]] = {}
    for q, q_cycles in _cycle_cover(p):
        single = _cycle_single_class(p, _rotate_to(q, q_cycles[0])) if len(q_cycles) == 1 else None
        w_dnf = Dnf()
        if single is None:
            method = "tinv"
            members = summary(q, q)
            reach_dnf = Dnf([Conj.make([])])
            if q != p.init:
                reach_dnf = _image(summary(p.init, q), reach_dnf, forward=True,
                                   include_identity=False)
            reach = _hull_conj(reach_dnf, variables)
            for m in members if reach is not None else []:
                merged = Conj.make(m.conj.rows + reach.rows, m.conj.divs)
                if merged is None:
                    continue
                o, _ = member_to_octagon(LinRel(variables, merged, m.params))
                if not o.is_bottom:
                    w_dnf.add(Conj.make(oct_rows(oct_wnt(o, n).set, variables)))
        else:
            method = "single-cycle"
            kind, payload = single
            if kind == "octagon":
                w_dnf.add(Conj.make(oct_rows(oct_wnt(payload, n).set, variables)))
            else:
                for c in finite_monoid_wnt(payload, list(variables)):
                    w_dnf.add(c)
        per_state.append((q, method, w_dnf))
        seeds[q] = (w_dnf, not (flat and single is not None and q == p.init))
    x_init, hulled = _pull_back(p, seeds, summary, budgets.max_disjuncts)
    return PrecondResult(p, x_init, per_state, flat, exact and not hulled and flat,
                         exhausted or hulled)


def _pull_back(p: Program, seeds: dict[str, tuple[Dnf, bool]], summary,
               max_disjuncts: int) -> tuple[Dnf, bool]:
    """X_init in the least solution of X_q = W_q | U_{q -> r} pre_label(X_r),
    that is U_q pre_{P*(init, q)}(W_q) over the seeds (state: WNT,
    ``pull_back``), and whether a set was hulled.

    The states init reaches are solved one strongly connected component
    (SCC) at a time, sinks first, so only sets over x are built (Tarjan,
    JACM 1981; Bardin, Finkel, Leroux, Schnoebelen, ATVA 2005).  In an SCC
    C, Y_r is r's WNT with the pre-images of X_s through each edge r -> s
    that leaves C.  Only C's entries need X: init and the targets of edges
    into C.  An entry takes X_e = Y_e | U_r pre_{P+(e, r)}(Y_r) over the r
    in C, each P+(e, r) a summary within C, where an empty Y_r costs no
    summary; at r = e a WNT whose ``pull_back`` is False is left out of
    Y_r, being closed under that pre-image.  An X_e of more than
    ``max_disjuncts`` conjuncts becomes its octagonal hull."""
    variables = p.variables
    live = _reach(p, p.init, True)
    reach = {s: _reach(p, s, True) for s in p.states if s in live}
    sccs: dict[str, list[str]] = {}
    for s in reach:
        sccs.setdefault(next(h for h in reach if h in reach[s] and s in reach[h]), []).append(s)
    x: dict[str, Dnf] = {}
    hulled = False
    unseeded = (Dnf(), True)
    # a state reaches more states than any state of a later SCC does
    for scc in sorted(sccs.values(), key=lambda c: len(reach[c[0]])):
        looped = any(t.source in scc and t.target in scc for t in p.transitions)
        exits = {r: Dnf() for r in scc}
        for t in p.transitions:
            if t.source in exits and t.target not in scc and x[t.target]:
                _image(_label_members(t.label, variables), x[t.target], forward=False,
                       include_identity=False, out=exits[t.source])
        for e in scc:
            if e != p.init and not any(t.target == e and t.source in live and t.source not in scc
                                       for t in p.transitions):
                continue
            x_e = Dnf()
            for r in scc if looped else [e]:
                w, pull = seeds.get(r, unseeded)
                y = [*w, *exits[r]]
                if r == e and not pull:
                    for c in w:
                        x_e.add(c)
                    y = exits[r]
                if y:
                    _image(summary(e, r) if looped else (), y, forward=False,
                           include_identity=(r == e), out=x_e)
            if len(x_e) > max_disjuncts:
                x_e = Dnf([_hull_conj(x_e, variables)])
                hulled = True
            x[e] = x_e
    return x[p.init], hulled


def _rotate_to(q: str, cycle: tuple[Transition, ...]) -> tuple[Transition, ...]:
    idx = next(i for i, t in enumerate(cycle) if t.source == q)
    return cycle[idx:] + cycle[:idx]
