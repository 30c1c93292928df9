"""Whole-program analysis over control-flow graphs with relation labels.

Summaries ``P+(q, q')`` are computed by state elimination: eliminating a
state composes its incoming edges, the closure of its self-loops, and its
outgoing edges.  Self-loop closures are exact accelerations (periodic
octagons, finite-monoid affine relations); multi-loop states saturate the
compositions of the accelerated disjuncts up to a budget, falling back to
a single octagonal-hull closure only when the budget is exhausted.

All summary members are kept as linear-row systems over the program
variables, their primed copies, and nonnegative integer parameters (one
per accelerated loop on the path), plus divisibility atoms.  The
parameters are named ``_p0, _p1, ...`` by position, so equal relations are
equal members and the memo tables below serve every later call.  Tight
octagons are integer-hull exact, so composing members by exact integer
elimination of the midpoint variables loses nothing.

The non-termination precondition takes, per control state, either the
exact WNT of the unique cycle relation or the union of the WNTs of the
octagonalized transition-invariant disjuncts, and pulls the result back
through the reflexive-transitive summary from the initial state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .affine import AffineRel, Matrix, is_finite_monoid, mat_mul, mat_pow, mat_vec, power_cycle, trajectory_offsets
from .closure import ParamOct, ParamOctUnion, reflexive_transitive_closure
from .dbm import INF
from .grammar import (
    AffLabel,
    OctLabel,
    parse_formula,
    parse_program_text,
)
from .linarith import EQ, LE, Feasible, LinSys, LinTerm, lp_feasible
from .octagon import (
    Octagon,
    bottom,
    oct_compose,
    oct_decode,
    oct_encode,
    oct_hull,
    tight_close,
)
from .presburger import Conj, Dnf, conj_implies, eliminate_all
from .term_oct import wnt as oct_wnt

# Entries per memo table.  One round of the `programs` benchmark fills at
# most about 440 (member_subsumed), so a round evicts nothing while a
# long-lived process stays bounded.
_MEMO = 1024


def _param_names(n: int) -> tuple[str, ...]:
    """Canonical parameter names: a member's params are ``_p0 .. _p{n-1}``,
    so equal relations are equal members whatever the call history."""
    return tuple(f"_p{i}" for i in range(n))


# ---------------------------------------------------------------------------
# summary members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinRel:
    """Relation {(x, x') | exists params >= 0 . conj} over named variables."""

    variables: tuple[str, ...]
    conj: Conj
    params: tuple[str, ...] = ()

    def rationally_feasible(self) -> bool:
        rows = list(self.conj.rows) + [
            (LinTerm({p: -1}), LE) for p in self.params
        ]
        return isinstance(lp_feasible(LinSys(rows)), Feasible)


def _canonical(variables, conj: Conj, params) -> LinRel:
    """The member over the params that conj uses, renamed to positions."""
    used = [p for p in params if p in conj.variables()]
    names = _param_names(len(used))
    if used != list(names):
        conj = conj.subst({p: LinTerm({q: 1}) for p, q in zip(used, names)})
    return LinRel(tuple(variables), conj, names)


def identity_member(variables: tuple[str, ...]) -> LinRel:
    rows = [(LinTerm({v + "'": 1, v: -1}), EQ) for v in variables]
    return LinRel(variables, Conj.make(rows))


def member_from_octagon(o: Octagon, variables: tuple[str, ...]) -> LinRel | None:
    o = tight_close(o)
    if o.is_bottom:
        return None
    names = list(variables) + [v + "'" for v in variables]
    rows = []
    for si, i, sj, j, c in oct_decode(o):
        t = LinTerm({}, -c) + LinTerm({names[i]: si}) + LinTerm({names[j]: sj})
        rows.append((t, LE))
    conj = Conj.make(rows)
    return None if conj is None else LinRel(variables, conj)


def member_from_param_oct(po: ParamOct, variables: tuple[str, ...]) -> LinRel:
    from .pdbm import ParamTerm

    names = list(variables) + [v + "'" for v in variables]
    dim = po.base.dim
    entries = []
    for p in range(dim):
        row = []
        for q in range(dim):
            b = po.base.rows[p][q]
            if b == INF:
                row.append(())
            else:
                r = po.rate.rows[p][q]
                row.append((ParamTerm((r,), b),))
        entries.append(row)
    m = _member_from_entries(entries, 1, variables, names)
    assert m is not None
    return m


def member_from_affine_step(a: AffineRel, variables: tuple[str, ...]) -> LinRel | None:
    rows = []
    for i, v in enumerate(variables):
        upd = LinTerm({variables[j]: a.a[i][j] for j in range(a.n_vars)}, a.b[i])
        rows.append((LinTerm({v + "'": 1}) - upd, EQ))
    for c, d in a.guard:
        t = LinTerm({variables[j]: -c[j] for j in range(a.n_vars)}, d)
        rows.append((t, LE))
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
    """Sound check that a's relation is contained in b's."""
    if not a.params and not b.params:
        return conj_implies(a.conj, b.conj)
    cb = member_cases(b)
    return all(any(conj_implies(ca, c) for c in cb) for ca in member_cases(a))


@lru_cache(maxsize=_MEMO)
def _normalize_member(m: LinRel) -> tuple[LinRel, ...]:
    """Trade the parametric form for parameter-free cases when every case
    is octagonal: those compose and compare through the DBM fast paths.
    Members whose projection leaves the octagonal fragment (coupled loop
    counters) stay parametric."""
    if not m.params:
        return (m,)
    outs = []
    for c in member_cases(m):
        lr = LinRel(m.variables, c)
        _, exact = member_to_octagon(lr, exact_only=True)
        if not exact:
            return (m,)
        outs.append(lr)
    return tuple(outs)


@lru_cache(maxsize=_MEMO)
def compose_members(a: LinRel, b: LinRel) -> tuple[LinRel, ...]:
    """Exact relational composition; several members because integer
    elimination of the midpoint variables may split into finitely many
    cases."""
    out = _compose_param_oct(a, b)
    if out is None:
        out = _compose_members(a, b)
    return tuple(n for m in out for n in _normalize_member(m))


# -- parametric-octagonal composition via the parametric closure ------------


@lru_cache(maxsize=_MEMO)
def _member_param_matrix(m: LinRel):
    """Dual 4N matrix of ParamTerm tuples, one rate per parameter of m,
    when every row is octagonal with parameters only in the bounds; None
    otherwise."""
    from .pdbm import ParamTerm, min_terms

    if m.conj.divs:
        return None
    variables = m.variables
    names = list(variables) + [v + "'" for v in variables]
    index = {v: i for i, v in enumerate(names)}
    pidx = {p: i for i, p in enumerate(m.params)}
    np_ = len(m.params)
    dim = 2 * len(names)
    cells: list[list[list]] = [[[] for _ in range(dim)] for _ in range(dim)]

    def bar(p):
        return p ^ 1

    def add(p, q, term):
        cells[p][q].append(term)
        cells[bar(q)][bar(p)].append(term)

    for t, rel in m.conj.rows:
        forms = [(t,)] if rel == LE else [(t,), (-t,)]
        for (tt,) in forms:
            var_part = []
            rates = [0] * np_
            for v, c in tt.coeffs.items():
                if v in pidx:
                    rates[pidx[v]] = -c.numerator
                elif v in index:
                    var_part.append((v, c.numerator))
                else:
                    return None
            c0 = -tt.const.numerator
            if len(var_part) == 0:
                # pure parameter constraint 0 <= bound, kept on a diagonal
                cells[0][0].append(ParamTerm(tuple(rates), c0))
                continue
            if len(var_part) == 1 and abs(var_part[0][1]) == 1:
                v, c = var_part[0]
                p = 2 * index[v] + (0 if c > 0 else 1)
                add(p, bar(p), ParamTerm(tuple(r * 2 for r in rates), 2 * c0))
            elif len(var_part) == 1 and abs(var_part[0][1]) == 2:
                v, c = var_part[0]
                p = 2 * index[v] + (0 if c > 0 else 1)
                add(p, bar(p), ParamTerm(tuple(rates), c0))
            elif len(var_part) == 2 and all(abs(c) == 1 for _, c in var_part):
                (v1, c1), (v2, c2) = var_part
                p = 2 * index[v1] + (0 if c1 > 0 else 1)
                q = 2 * index[v2] + (1 if c2 > 0 else 0)
                add(p, q, ParamTerm(tuple(rates), c0))
            else:
                return None
    entries = []
    zero = ParamTerm((0,) * np_, 0)
    for p in range(dim):
        row = []
        for q in range(dim):
            terms = list(cells[p][q])
            if p == q:
                terms.append(zero)
            row.append(min_terms(terms))
        entries.append(tuple(row))
    return tuple(entries)  # shared by every caller of the memo


def _tighten_param_entries(entries, nparams: int, dim: int):
    """Parametric tight closure cases: [(substitution, tightened entries)].

    Halving a term with an odd rate needs the parameter's parity, so such
    parameters are split (k -> 2k+r), which keeps every floor exact.
    """
    from .pdbm import ParamTerm, min_terms

    # find a parameter with an odd rate on some (p, bar p) entry
    for p in range(dim):
        for t in entries[p][p ^ 1]:
            for pi, r in enumerate(t.rates):
                if r % 2 != 0:
                    cases = []
                    for residue in (0, 1):
                        sub = [
                            [
                                tuple(
                                    ParamTerm(
                                        tuple(
                                            rr * 2 if qi == pi else rr
                                            for qi, rr in enumerate(tt.rates)
                                        ),
                                        tt.const + tt.rates[pi] * residue,
                                    )
                                    for tt in cell
                                )
                                for cell in row
                            ]
                            for row in entries
                        ]
                        for subcase in _tighten_param_entries(sub, nparams, dim):
                            subst, tightened = subcase
                            cases.append(((pi, residue, subst), tightened))
                    return cases
    halves = []
    for p in range(dim):
        hs = []
        for t in entries[p][p ^ 1]:
            hs.append(
                ParamTerm(tuple(r // 2 for r in t.rates), t.const // 2)
                if all(r % 2 == 0 for r in t.rates)
                else None
            )
        assert all(h is not None for h in hs)
        halves.append(hs)
    tightened = []
    for p in range(dim):
        row = []
        for q in range(dim):
            terms = list(entries[p][q])
            for h1 in halves[p]:
                for h2 in halves[q ^ 1]:
                    terms.append(h1 + h2)
            row.append(min_terms(terms))
        tightened.append(row)
    return [(None, tightened)]


def _compose_param_oct(a: LinRel, b: LinRel):
    """Composition through the parametric closure; None when not eligible."""
    from .pdbm import ExtParamDbm, ParamTerm, min_terms, param_fw

    ea = _member_param_matrix(a)
    if ea is None:
        return None
    eb = _member_param_matrix(b)
    if eb is None:
        return None
    # a's parameters first, then b's: positions keep them apart
    na, nb = len(a.params), len(b.params)
    np_ = na + nb

    def lift_a(t: ParamTerm) -> ParamTerm:
        return ParamTerm(tuple(t.rates) + (0,) * nb, t.const)

    def lift_b(t: ParamTerm) -> ParamTerm:
        return ParamTerm((0,) * na + tuple(t.rates), t.const)

    # dual matrix dim is 4N over (x, x'); the unprimed block is 2N wide
    blk = 2 * len(a.variables)
    dim3 = 3 * blk
    glued = [[() for _ in range(dim3)] for _ in range(dim3)]
    for i in range(blk):
        for j in range(blk):
            glued[i][j] = tuple(lift_a(t) for t in ea[i][j])
            glued[i][blk + j] = tuple(lift_a(t) for t in ea[i][blk + j])
            glued[blk + i][j] = tuple(lift_a(t) for t in ea[blk + i][j])
            mid = [lift_a(t) for t in ea[blk + i][blk + j]] + [
                lift_b(t) for t in eb[i][j]
            ]
            glued[blk + i][blk + j] = min_terms(mid)
            glued[blk + i][2 * blk + j] = tuple(lift_b(t) for t in eb[i][blk + j])
            glued[2 * blk + i][blk + j] = tuple(lift_b(t) for t in eb[blk + i][j])
            glued[2 * blk + i][2 * blk + j] = tuple(
                lift_b(t) for t in eb[blk + i][blk + j]
            )
    pm = ExtParamDbm(dim3, np_, glued)
    closed = param_fw(pm)
    if closed.capped:
        return None
    cases = _tighten_param_entries(closed.entries, np_, dim3)
    keep = list(range(blk)) + list(range(2 * blk, dim3))
    out = []
    variables = a.variables
    names = list(variables) + [v + "'" for v in variables]
    for _, entries in cases:
        erased = [[entries[p][q] for q in keep] for p in keep]
        mem = _member_from_entries(erased, np_, variables, names)
        if mem is not None and mem.rationally_feasible():
            out.append(mem)
    return out


def _member_from_entries(entries, nparams, variables, names) -> LinRel | None:
    """Member rows from a closed tight parametric dual matrix (reduced)."""
    from .pdbm import reduce_closed_entries

    dim = len(entries)
    params = _param_names(nparams)
    entries = reduce_closed_entries(entries, dim, nparams)
    rows = []
    for p in range(dim):
        for q in range(dim):
            for t in entries[p][q]:
                bound = LinTerm({params[i]: r for i, r in enumerate(t.rates)}, t.const)
                if p == q:
                    row = -bound
                else:
                    sp = 1 if p % 2 == 0 else -1
                    sq = 1 if q % 2 == 0 else -1
                    lhs = LinTerm({names[p // 2]: sp}) - LinTerm({names[q // 2]: sq})
                    row = lhs - bound
                if row.is_constant():
                    if row.const > 0:
                        return None
                    continue
                rows.append((row, LE))
    conj = Conj.make(rows)
    return None if conj is None else _canonical(variables, conj, params)


def _compose_members(a: LinRel, b: LinRel) -> list[LinRel]:
    variables = a.variables
    # octagonal fast path: tight composition is integer-exact and avoids
    # the general integer elimination entirely
    if not a.params and not b.params and not a.conj.divs and not b.conj.divs:
        oa, ea = member_to_octagon(a, exact_only=True)
        if ea:
            ob, eb = member_to_octagon(b, exact_only=True)
            if eb:
                composed = oct_compose(oa, ob, len(variables))
                m = member_from_octagon(composed, variables)
                return [] if m is None else [m]
    # the midpoints are eliminated below, so their names never leave here
    mids = {v: f"_m_{v}" for v in variables}
    sub_a = {v + "'": LinTerm({mids[v]: 1}) for v in variables}
    sub_b = {v: LinTerm({mids[v]: 1}) for v in variables}
    ca = a.conj.subst(sub_a)
    # b's parameters follow a's: _p<i> becomes _p<len(a.params) + i>
    params = _param_names(len(a.params) + len(b.params))
    shifted = params[len(a.params):]
    sub_b.update({p: LinTerm({q: 1}) for p, q in zip(b.params, shifted)})
    cb = b.conj.subst(sub_b)
    if ca is None or cb is None:
        return []
    merged = Conj.make(ca.rows + cb.rows, ca.divs + cb.divs)
    if merged is None:
        return []
    dnf = eliminate_all(merged, list(mids.values()))
    out = []
    for conj in dnf:
        m = _canonical(variables, conj, params)
        if m.rationally_feasible():
            out.append(m)
    return out


def member_to_octagon(m: LinRel, exact_only: bool = False) -> tuple[Octagon, bool]:
    """Octagonal hull of a member (exact flag when nothing was lost).

    Parameter-free members whose rows are all octagonal convert exactly;
    anything else is hulled by rational suprema of the octagonal terms
    over the lifted polyhedron (parameters kept nonnegative), floored.
    """
    variables = m.variables
    names = list(variables) + [v + "'" for v in variables]
    index = {v: i for i, v in enumerate(names)}
    n2 = len(names)
    if not m.params and not m.conj.divs:
        atoms = []
        octagonal = True
        for t, rel in m.conj.rows:
            pairs = [(t, LE)] if rel == LE else [(t, LE), (-t, LE)]
            for tt, _ in pairs:
                ent = list(tt.coeffs.items())
                c0 = -tt.const.numerator
                if len(ent) == 1 and abs(ent[0][1]) == 1:
                    v, c = ent[0]
                    s = 1 if c > 0 else -1
                    atoms.append((s, index[v], s, index[v], 2 * c0))
                elif len(ent) == 1 and abs(ent[0][1]) == 2:
                    v, c = ent[0]
                    s = 1 if c > 0 else -1
                    atoms.append((s, index[v], s, index[v], c0))
                elif len(ent) == 2 and all(abs(c) == 1 for _, c in ent):
                    (v1, c1), (v2, c2) = ent
                    atoms.append((int(c1), index[v1], int(c2), index[v2], c0))
                else:
                    octagonal = False
                    break
            if not octagonal:
                break
        if octagonal:
            return tight_close(oct_encode(atoms, n2)), True
    if exact_only:
        return bottom(n2), False
    return _hull_member(m), False


def _hull_member(m: LinRel) -> Octagon:
    """Octagonal hull of a member: suprema of the dual terms over the
    lifted polyhedron (parameters nonnegative), floored.  Suprema over the
    lifted polyhedron equal suprema over its projection."""
    from .dbm import Dbm
    from .octagon import _sys_dual_sups

    variables = m.variables
    names = list(variables) + [v + "'" for v in variables]
    rows = list(m.conj.rows) + [(LinTerm({p: -1}), LE) for p in m.params]
    extra = [p for p in m.params if p not in names]
    sys = LinSys(rows, names + extra)
    dim = 2 * len(names)
    entry = _sys_dual_sups(sys, len(names), dim, names)
    if entry is None:
        return bottom(len(names))
    grid = [[0 if p == q else entry[p][q] for q in range(dim)] for p in range(dim)]
    return tight_close(Octagon(len(names), Dbm(grid), tight=False))


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    label: tuple


@dataclass(frozen=True)
class Program:
    variables: tuple[str, ...]
    states: tuple[str, ...]
    init: str
    transitions: tuple[Transition, ...]


def parse_program(text: str) -> Program:
    pt = parse_program_text(text)
    variables = pt.variables
    states = []
    transitions = []
    for src, dst, formula in pt.transitions:
        label = tuple(parse_formula(formula, list(variables)))
        for s in (src, dst):
            if s not in states:
                states.append(s)
        transitions.append(Transition(src, dst, label))
    init = pt.init
    if init not in states:
        states.append(init)
    return Program(variables, tuple(states), init, tuple(transitions))


@lru_cache(maxsize=_MEMO)
def _label_members(label: tuple, variables: tuple[str, ...]) -> tuple[LinRel, ...]:
    out = []
    for d in label:
        if isinstance(d, OctLabel):
            m = member_from_octagon(d.relation, variables)
        else:
            m = member_from_affine_step(d.relation, variables)
        if m is not None and m.rationally_feasible():
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


@dataclass(frozen=True)
class Flat:
    pass


@dataclass(frozen=True)
class NotFlat:
    reason: str


def _cycle_relation(p: Program, cycle: list[Transition]) -> list[LinRel]:
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
        if any(member_subsumed(m, o) for o in out):
            continue
        out = [o for o in out if not member_subsumed(o, m)]
        out.append(m)
    return out


def _cycle_single_class(p: Program, cycle: list[Transition]):
    """(kind, payload) when the composed cycle label is a single conjunctive
    octagonal or finite-monoid affine relation; None otherwise."""
    if all(len(t.label) == 1 for t in cycle) and all(
        isinstance(t.label[0], AffLabel) for t in cycle
    ):
        a = None
        for t in cycle:
            r = t.label[0].relation
            a = r if a is None else _compose_affine(a, r)
        if a is not None and is_finite_monoid(a.a):
            return ("affine", a)
    members = _cycle_relation(p, cycle)
    if len(members) == 1:
        o, exact = member_to_octagon(members[0], exact_only=True)
        if exact:
            return ("octagon", o)
    return None


def _compose_affine(a: AffineRel, b: AffineRel) -> AffineRel:
    # (x -> Ax+b with guard Ga) then (x -> A'x+b' with guard Gb):
    # composite update A'A x + (A'b + b'), guard Ga(x) and Gb(Ax+b)
    a2 = mat_mul(b.a, a.a)
    b2 = tuple(x + y for x, y in zip(mat_vec(b.a, a.b), b.b))
    guard = list(a.guard)
    for c, d in b.guard:
        row = tuple(sum(c[i] * a.a[i][j] for i in range(a.n_vars)) for j in range(a.n_vars))
        shift = sum(ci * bi for ci, bi in zip(c, a.b))
        guard.append((row, d - shift))
    return AffineRel(a.n_vars, a2, b2, tuple(guard))


def is_flat(p: Program):
    cycles = elementary_cycles(p)
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


# -- affine exact closure members --------------------------------------------


def _affine_closure_members(rel: AffineRel, variables) -> list[LinRel]:
    """Exact members of R^+ for a finite-monoid affine relation."""
    B, C = power_cycle(rel.a)
    s = trajectory_offsets(rel, B + 2 * C + 1)
    names = list(variables)
    members: list[LinRel] = []

    def guard_rows_at(power: Matrix, offset, extra: LinTerm | None = None):
        rows = []
        for c, d in rel.guard:
            coeffs = {}
            for j in range(rel.n_vars):
                coeffs[names[j]] = sum(c[i] * power[i][j] for i in range(rel.n_vars))
            base = LinTerm(coeffs, sum(ci * oi for ci, oi in zip(c, offset)) - d)
            if extra is not None:
                base = base + extra
            rows.append((-base, LE))  # value >= 0
        return rows

    def update_rows(power: Matrix, offset, extra_per_var=None):
        rows = []
        for i, v in enumerate(variables):
            t = LinTerm({names[j]: power[i][j] for j in range(rel.n_vars)}, offset[i])
            if extra_per_var is not None:
                t = t + extra_per_var[i]
            rows.append((LinTerm({v + "'": 1}) - t, EQ))
        return rows

    # explicit powers n = 1 .. B+C-1
    for n in range(1, B + C):
        rows = update_rows(mat_pow(rel.a, n), s[n])
        for k in range(n):
            rows.extend(guard_rows_at(mat_pow(rel.a, k), s[k]))
        conj = Conj.make(rows)
        if conj is not None:
            m = LinRel(tuple(variables), conj)
            if m.rationally_feasible():
                members.append(m)
    # families n = B + i + (1+m)C for m >= 0, one parameter each
    (par,) = _param_names(1)
    for i in range(C):
        power = mat_pow(rel.a, B + i)
        drift = mat_vec(power, s[C])
        extra = [LinTerm({par: drift[j]}, drift[j]) for j in range(rel.n_vars)]
        rows = update_rows(power, s[B + i], extra)
        for k in range(B):
            rows.extend(guard_rows_at(mat_pow(rel.a, k), s[k]))
        for i2 in range(C):
            p2 = mat_pow(rel.a, B + i2)
            d2 = mat_vec(p2, s[C])
            # guard along the tail is affine per residue: endpoints
            # m' = 0 and m' = m + (1 if i2 < i else 0) suffice
            base_rows = guard_rows_at(p2, s[B + i2])
            rows.extend(base_rows)
            hi_shift = 1 if i2 < i else 0
            for (c, d), (t, _) in zip(rel.guard, base_rows):
                step = sum(cc * dd for cc, dd in zip(c, d2))
                slope = LinTerm({par: step}, hi_shift * step)
                rows.append((t - slope, LE))
        conj = Conj.make(rows)
        if conj is not None:
            m = LinRel(tuple(variables), conj, (par,))
            if m.rationally_feasible():
                members.append(m)
    return members


# -- self-loop closure and state elimination ----------------------------------


@dataclass(frozen=True)
class Budgets:
    max_prefix: int = 64
    max_period: int = 64
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
    out = []
    for mem in rtc.members:
        if isinstance(mem, Octagon):
            conv = member_from_octagon(mem, variables)
            if conv is not None:
                out.append(conv)
        else:
            out.extend(_normalize_member(member_from_param_oct(mem, variables)))
    return out, exact and rtc.exact, not rtc.exact


@lru_cache(maxsize=_MEMO)
def _star_members(
    loops: tuple[LinRel, ...], variables: tuple[str, ...], budgets: Budgets
) -> tuple[tuple[LinRel, ...], bool, bool]:
    """Members of (union of loops)^+ by saturation; exact flag; whether a
    budget ran out."""
    exact = True
    exhausted = False
    base: list[LinRel] = []
    for m in loops:
        acc, ex, bx = _accelerate_member(m, budgets)
        exact = exact and ex
        exhausted = exhausted or bx
        for a in acc:
            if a.rationally_feasible():
                base.append(a)
    members = _dedupe(base)
    frontier = list(members)
    rounds = 0
    while frontier and rounds < 16:
        rounds += 1
        new: list[LinRel] = []
        for a in members:
            for b in frontier:
                for pair in ((a, b), (b, a)):
                    for cand in compose_members(*pair):
                        if not cand.rationally_feasible():
                            continue
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
    hull = oct_hull([_hull_member(m) for m in loops])
    closure = reflexive_transitive_closure(
        hull, len(variables), budgets.max_prefix, budgets.max_period
    )
    out = []
    for mem in closure.members:
        if isinstance(mem, Octagon):
            conv = member_from_octagon(mem, variables)
            if conv is not None:
                out.append(conv)
        else:
            out.append(member_from_param_oct(mem, variables))
    return tuple(out), False, True


def transitive_relation(
    p: Program, q_in: str, q_out: str, budgets: Budgets | None = None
) -> tuple[list[LinRel], bool]:
    """Members of an over-approximation of P+(q_in, q_out); exact flag.

    Exact whenever every self-loop closure certified and no budget fallback
    fired (always the case on flat programs within budget).
    """
    members, exact, _ = _summary(p, q_in, q_out, budgets or Budgets())
    return members, exact


def _summary(
    p: Program, q_in: str, q_out: str, budgets: Budgets
) -> tuple[list[LinRel], bool, bool]:
    """transitive_relation's members and exact flag, and whether an
    acceleration or disjunct budget ran out on the way."""
    variables = p.variables
    IN, OUT = "__in__", "__out__"
    edges: dict[tuple[str, str], list[LinRel]] = {}

    def add_edge(a: str, b: str, members: list[LinRel]):
        if not members:
            return
        cur = edges.setdefault((a, b), [])
        for m in members:
            if any(member_subsumed(m, o) for o in cur):
                continue
            cur[:] = [o for o in cur if not member_subsumed(o, m)]
            cur.append(m)

    for t in p.transitions:
        add_edge(t.source, t.target, _label_members(t.label, variables))
    ident_in = identity_member(variables)
    ident_out = identity_member(variables)
    add_edge(IN, q_in, [ident_in])
    add_edge(q_out, OUT, [ident_out])

    exact = True
    exhausted = False
    remaining = [s for s in p.states]
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
                            if (
                                a == IN
                                and b == OUT
                                and mm is m1
                                and m1 is ident_in
                                and m2 is ident_out
                            ):
                                # zero-length run q_in -> q_out through the
                                # copy edges only; the summary is the strict
                                # transitive relation
                                continue
                            combined.extend(compose_members(mm, m2))
                combined = _dedupe(combined)
                if len(combined) > budgets.max_disjuncts:
                    hulled = member_from_octagon(
                        oct_hull([_hull_member(m) for m in combined]), variables
                    )
                    combined = [hulled] if hulled is not None else []
                    exact = False
                    exhausted = True
                add_edge(a, b, combined)
    return edges.get((IN, OUT), []), exact, exhausted


def reach_set(p: Program, q: str, budgets: Budgets | None = None) -> tuple[Dnf, bool]:
    """Post-image of the universal set under P*(init, q), as a DNF over x."""
    members, exact = transitive_relation(p, p.init, q, budgets)
    return _post_image(p, q, members), exact


def _post_image(p: Program, q: str, members: list[LinRel]) -> Dnf:
    """Post-image of the universal set under the members of P+(init, q),
    plus the identity when q is the initial state."""
    out = Dnf()
    if q == p.init:
        out.add(Conj.make([]))
        return out
    for m in members:
        dnf = eliminate_all(m.conj, list(p.variables) + list(m.params),
                            nonneg=list(m.params))
        for conj in dnf:
            renamed = conj.subst({v + "'": LinTerm({v: 1}) for v in p.variables})
            out.add(renamed)
    return out


@dataclass
class PrecondResult:
    program: Program
    precondition: Dnf
    per_state: list  # (state, method, Dnf over x)
    flat: bool
    exact: bool
    # an acceleration or disjunct budget ran out, or a closure was left
    # uncertified: the result is still sound
    budget_exhausted: bool = False


def _set_to_conjs(o: Octagon, variables) -> list[Conj]:
    if o.is_bottom:
        return []
    rows = []
    names = list(variables)
    for si, i, sj, j, c in oct_decode(o):
        rows.append((LinTerm({}, -c) + LinTerm({names[i]: si}) + LinTerm({names[j]: sj}), LE))
    conj = Conj.make(rows)
    return [] if conj is None else [conj]


def _preimage_dnf(members: list[LinRel], target: Dnf, variables, include_identity: bool) -> Dnf:
    """Pre-image of a DNF over x through summary members (and identity)."""
    out = Dnf()
    post_sub = {v: LinTerm({v + "'": 1}) for v in variables}
    for conj in target:
        if include_identity:
            out.add(conj)
        shifted = conj.subst(post_sub)
        for m in members:
            merged = Conj.make(m.conj.rows + shifted.rows, m.conj.divs + shifted.divs)
            if merged is None:
                continue
            dnf = eliminate_all(
                merged,
                [v + "'" for v in variables] + list(m.params),
                nonneg=list(m.params),
            )
            for c in dnf:
                out.add(c)
    return out


def nt_program(p: Program, budgets: Budgets | None = None) -> PrecondResult:
    """Over-approximate non-termination precondition (exact on flat inputs)."""
    budgets = budgets or Budgets()
    variables = p.variables
    n = len(variables)
    cycles = elementary_cycles(p)
    flatness = is_flat(p)
    result = Dnf()
    per_state = []
    exact = True
    exhausted = False
    # Every infinite run visits some analyzed state infinitely often as
    # long as the analyzed set hits every elementary cycle, so a greedy
    # cycle cover keeps both soundness and the flat-exactness argument.
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
    for q in sorted(chosen):
        q_cycles = [c for c in cycles if any(t.source == q for t in c)]
        if not q_cycles:
            continue
        members_star, ex, bx = _summary(p, p.init, q, budgets)
        exact = exact and ex
        exhausted = exhausted or bx
        w_dnf = Dnf()
        method = "tinv"
        single = _cycle_single_class(p, _rotate_to(q, q_cycles[0])) if len(q_cycles) == 1 else None
        if single is not None:
            method = "single-cycle"
            kind, payload = single
            if kind == "octagon":
                w = oct_wnt(payload, n).set
                for c in _set_to_conjs(w, variables):
                    w_dnf.add(c)
            else:
                from .affine import finite_monoid_wnt

                for c in finite_monoid_wnt(payload):
                    w_dnf.add(c)
        else:
            members, ex, bx = _summary(p, q, q, budgets)
            exact = exact and ex
            exhausted = exhausted or bx
            reach_oct = _dnf_hull(_post_image(p, q, members_star), variables)
            restricted = []
            for m in members:
                rsys = _set_to_conjs(reach_oct, variables)
                if not rsys:
                    continue
                merged = Conj.make(m.conj.rows + rsys[0].rows, m.conj.divs)
                if merged is not None:
                    restricted.append(LinRel(variables, merged, m.params))
            for m in restricted:
                o = _hull_member(m)
                if o.is_bottom:
                    continue
                w = oct_wnt(o, n).set
                for c in _set_to_conjs(w, variables):
                    w_dnf.add(c)
        contrib = _preimage_dnf(members_star, w_dnf, variables, include_identity=(q == p.init))
        per_state.append((q, method, w_dnf))
        for c in contrib:
            result.add(c)
    # the precision claim of the method only covers flat inputs with every
    # closure certified; the flag under-approximates actual exactness
    flat = isinstance(flatness, Flat)
    return PrecondResult(p, result, per_state, flat, exact and flat, exhausted)


def _rotate_to(q: str, cycle: list[Transition]) -> list[Transition]:
    idx = next(i for i, t in enumerate(cycle) if t.source == q)
    return cycle[idx:] + cycle[:idx]


def _dnf_hull(dnf: Dnf, variables) -> Octagon:
    """Octagonal hull of a DNF of conjuncts over the program variables."""
    from .dbm import Dbm
    from .octagon import _sys_dual_sups

    dim = 2 * len(variables)
    sups = []
    for conj in dnf:
        extra = [v for v in conj.variables() if v not in variables]
        sys = LinSys(conj.rows, list(variables) + extra)
        entry = _sys_dual_sups(sys, len(variables), dim, list(variables))
        if entry is not None:
            sups.append(entry)
    if not sups:
        return bottom(len(variables))
    rows = []
    for a in range(dim):
        row = []
        for b in range(dim):
            if a == b:
                row.append(0)
            else:
                vals = [e[a][b] for e in sups]
                row.append(INF if any(v == INF for v in vals) else max(vals))
        rows.append(row)
    return tight_close(Octagon(len(variables), Dbm(rows), tight=False))


def eliminate_params(u: ParamOctUnion, variables) -> Dnf:
    """Quantifier-free DNF equivalent to the union of a closure's members."""
    out = Dnf()
    if u.reflexive:
        ident = identity_member(tuple(variables))
        out.add(ident.conj)
    for mem in u.members:
        if isinstance(mem, Octagon):
            m = member_from_octagon(mem, tuple(variables))
            if m is not None:
                out.add(m.conj)
        else:
            m = member_from_param_oct(mem, tuple(variables))
            for conj in eliminate_all(m.conj, list(m.params), nonneg=list(m.params)):
                out.add(conj)
    return out
