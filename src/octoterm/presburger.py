"""Quantifier-free integer linear formulas with divisibility, in DNF.

A conjunct is a set of integer-coefficient rows ``t <= 0`` / ``t == 0``
plus divisibility atoms ``m | t``.  Existential quantification over an
integer variable is exact (Omega-test style): the normalizer pairs
opposite inequalities that meet into an equality, equalities substitute,
divisibility atoms split the variable by residue, and inequality pairs
use the real shadow when some coefficient is 1, otherwise the dark
shadow plus finitely many splinter cases.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

from .linarith import (
    EQ,
    LE,
    LT,
    LinSys,
    LinTerm,
    PolyhedronLP,
)
from .octagon import oct_encode, oct_exists, oct_leq, rows_to_atoms, tight_close

def _int_term(t: LinTerm) -> LinTerm:
    """t when it is over ints; else t times the positive lcm of its
    denominators, which has the same integer points as a row."""
    if type(t.const) is int and all(type(c) is int for c in t.coeffs.values()):
        return t
    return t.scale_to_integers()


class DivAtom(NamedTuple):
    """modulus | term, with integer-coefficient term and modulus >= 2."""

    modulus: int
    term: LinTerm

    def eval(self, valuation: Mapping[str, int]) -> bool:
        return self.term.eval(valuation) % self.modulus == 0

    def __repr__(self):
        return f"{self.modulus} | ({self.term})"


class Conj(NamedTuple):
    """Conjunction of integer rows (LE/EQ over <= | ==) and divisibilities."""

    rows: tuple[tuple[LinTerm, str], ...]
    divs: tuple[DivAtom, ...] = ()

    @classmethod
    def make(cls, rows: Iterable, divs: Iterable = ()) -> "Conj | None":
        """Normalize with ``_inorm``; returns None when syntactically
        unsatisfiable.  A term holding a rational is scaled to integers
        first, and ``t < 0`` becomes ``t + 1 <= 0``."""
        irows = []
        for t, rel in rows:
            t = _int_term(t)
            if rel == LT:
                irows.append((t.coeffs, t.const + 1, LE))
            else:
                irows.append((t.coeffs, t.const, rel))
        idivs = []
        for d in divs:
            t = _int_term(d.term)
            idivs.append((d.modulus, t.coeffs, t.const))
        norm = _inorm(irows, idivs)
        return None if norm is None else _conj(*norm)

    def variables(self) -> set[str]:
        vs = set()
        for t, _ in self.rows:
            vs.update(t.coeffs)
        for d in self.divs:
            vs.update(d.term.coeffs)
        return vs

    def eval(self, valuation: Mapping[str, int]) -> bool:
        for t, rel in self.rows:
            v = t.eval(valuation)
            if rel == LE and v > 0:
                return False
            if rel == EQ and v != 0:
                return False
        return all(d.eval(valuation) for d in self.divs)

    def to_linsys(self) -> LinSys:
        return LinSys(self.rows)

    def rationally_feasible(self) -> bool:
        """Row feasibility (divisibility ignored): integer-exact on
        octagonal conjuncts, rational otherwise.  Used only for pruning,
        where both readings are sound."""
        o = _conj_octagon(self)
        if o is not None:
            return not o[1].is_bottom
        return conj_poly(self).feasible

    def irows(self, mapping: Mapping[str, str] | None = None) -> tuple[list[IRow], list[IDiv]]:
        """The rows and atoms as the int rows of ``eliminate_rows``, each
        variable v written ``mapping.get(v, v)``.  Without a mapping the
        coefficient dicts are handed on as they are."""
        def cs(t: LinTerm) -> dict:
            return (t.coeffs if mapping is None
                    else {mapping.get(v, v): c for v, c in t.coeffs.items()})

        return ([(cs(t), t.const, rel) for t, rel in self.rows],
                [(d.modulus, cs(d.term), d.term.const) for d in self.divs])

    def rename(self, mapping: Mapping[str, str]) -> "Conj":
        """The conjunct with each variable v written ``mapping.get(v, v)``, for
        a renaming injective on its variables (else ValueError), which keeps
        a normalized conjunct normalized: nothing is normalized again."""
        names = self.variables()
        if len({mapping.get(v, v) for v in names}) != len(names):
            raise ValueError(f"renaming {sorted(names)} by {mapping} is not injective")
        return _conj(*self.irows(mapping))

    def __repr__(self):
        bits = [f"{t} {rel} 0" for t, rel in self.rows]
        bits += [repr(d) for d in self.divs]
        return " & ".join(bits) if bits else "true"


# Entries per memo table, as in ``program``.  Three rounds of the `programs`
# benchmark (seed 5, one process) fill at most 374 (the octagon memo; 278
# after one round), so they evict nothing while a long-lived process stays
# bounded.
_MEMO = 1024


@lru_cache(maxsize=_MEMO)
def _conj_octagon(c: Conj):
    """(variable order, tight octagon) when every row is octagonal; None
    otherwise.  Cached per conjunct; integer-exact via tight closure."""
    names = tuple(sorted(c.variables()))
    atoms = rows_to_atoms(c.rows, {v: i for i, v in enumerate(names)})
    if atoms is None:
        return None
    return names, tight_close(oct_encode(atoms, len(names)))


@lru_cache(maxsize=_MEMO)
def _integer_witness(c: Conj) -> tuple[int, dict[str, int]] | None:
    """A cached rational model of the rows (None when infeasible), read off
    the conjunct's cached LP, as its least common denominator den and the
    integer numerators den * v.  Callers only prune with it or read a value
    the rows fix, so any model serves."""
    model = conj_poly(c).model()
    if model is None:
        return None
    den = lcm(*(q.denominator for q in model.values()))
    return den, {v: q.numerator * (den // q.denominator) for v, q in model.items()}


def _scaled_eval(t: LinTerm, den: int, nums: Mapping[str, int]) -> int:
    """den * t, in ints and of t's sign, at the point nums / den (a variable
    nums lacks read as 0)."""
    return t.const * den + sum(c * nums.get(v, 0) for v, c in t.coeffs.items())


@lru_cache(maxsize=_MEMO)
def conj_poly(c: Conj) -> PolyhedronLP:
    """Cached warm-start LP over the conjunct's rows."""
    return PolyhedronLP(c.to_linsys())


def _div_implied(a: Conj, d: DivAtom) -> bool:
    """Sound: a implies m | t when, for s = 0 or the term of an atom m' | s
    of a with m | m', a's rows fix t - s (less the coefficients m divides,
    which are multiples of m at every integer point) to a constant c with
    m | c.  Then t = s + c (mod m) at every integer point of a."""
    w = _integer_witness(a)
    if w is None:
        return True  # no rational point, so no integer point
    den, nums = w
    m = d.modulus
    for s in [LinTerm()] + [e.term for e in a.divs if e.modulus % m == 0]:
        diff = d.term - s
        diff = LinTerm({v: c for v, c in diff.coeffs.items() if c % m}, diff.const)
        if any(v not in nums for v in diff.coeffs):
            continue  # a's rows leave the variable free
        c, rest = divmod(_scaled_eval(diff, den, nums), den)
        if rest or c % m:
            continue
        poly = conj_poly(a)
        if poly.entails_le(diff - c) and poly.entails_le(c - diff):
            return True
    return False


def conj_implies(a: Conj, b: Conj) -> bool:
    """Sound, incomplete: integer octagonal entailment when both conjuncts
    are octagonal, rational row entailment otherwise.  A divisibility atom
    of b holds when a has it syntactically or a's rows entail it
    (``_div_implied``).

    Two octagonal conjuncts compare their cached tight octagons: a's,
    projected onto b's variables (both name lists are sorted), against
    b's.  That is integer-exact, since projecting a tight octagon is.  A
    nonempty a that leaves one of b's variables free is not included."""
    adivs = set(a.divs)
    if not all(d in adivs or _div_implied(a, d) for d in b.divs):
        return False
    oa, ob = _conj_octagon(a), _conj_octagon(b)
    if oa is not None and ob is not None:
        (names_a, oct_a), (names_b, oct_b) = oa, ob
        if oct_a.is_bottom:
            return True
        if not set(names_b) <= set(names_a):
            return False
        drop = [i for i, v in enumerate(names_a) if v not in names_b]
        return oct_leq(oct_exists(oct_a, drop) if drop else oct_a, oct_b)
    # cheap rejection: a rational point of a must satisfy b's rows
    w = _integer_witness(a)
    if w is not None:
        for t, rel in b.rows:
            val = _scaled_eval(t, *w)
            if (rel == LE and val > 0) or (rel == EQ and val != 0):
                return False
    poly = conj_poly(a)
    avars = a.variables()
    for t, rel in b.rows:
        if any(v not in avars for v in t.coeffs):
            return False  # a leaves the variable unconstrained
        if not poly.entails_le(t):
            return False
        if rel == EQ and not poly.entails_le(-t):
            return False
    return True


def antichain_add(out: list, x, leq) -> None:
    """Add x to the antichain ``out``, in place: nothing changes when a kept
    y has ``leq(x, y)``; otherwise every kept y with ``leq(y, x)`` is
    dropped and x is appended."""
    if any(leq(x, y) for y in out):
        return
    out[:] = [y for y in out if not leq(y, x)]
    out.append(x)


class Dnf:
    """Disjunction of conjuncts with light pruning on insertion."""

    def __init__(self, conjs: Iterable[Conj] = ()):
        self.conjs: list[Conj] = []
        for c in conjs:
            self.add(c)

    def add(self, c: Conj | None) -> None:
        if c is None:
            return
        if c.rationally_feasible():
            antichain_add(self.conjs, c, conj_implies)

    def eval(self, valuation: Mapping[str, int]) -> bool:
        return any(c.eval(valuation) for c in self.conjs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dnf) and self.conjs == other.conjs

    @property
    def is_false(self) -> bool:
        return not self.conjs

    def __iter__(self):
        return iter(self.conjs)

    def __len__(self):
        return len(self.conjs)

    def __repr__(self):
        return " | ".join(f"({c})" for c in self.conjs) if self.conjs else "false"


# ---------------------------------------------------------------------------
# exact integer elimination
#
# The core works on int rows ({var: coef}, const, rel) and div atoms
# (modulus, {var: coef}, const).  ``_inorm`` is the one normalizer of a
# conjunct: ``Conj.make`` and every elimination case end in it.  ``_ielim``
# takes a case ``_inorm`` has normalized and normalizes each case it builds
# once: ``eliminate_rows`` normalizes its input, a residue split or a
# splinter normalizes the case it recurses on, and ``_finish`` every case
# it returns.  ``program`` renames the conjuncts it merges by
# ``Conj.irows`` and hands the merged rows in unnormalized, so each is
# normalized once, on entry, as in the Omega test.  The coefficient dicts
# of a conjunct's LinTerms are handed in as they are, so the core builds
# new dicts and never writes to one it was given (LinTerms are memo keys).
# ---------------------------------------------------------------------------

IRow = tuple[dict, int, str]
IDiv = tuple[int, dict, int]


def _conj(rows: list[IRow], divs: list[IDiv]) -> Conj:
    """The conjunct of rows and atoms that ``_inorm`` has normalized."""
    return Conj(
        tuple((LinTerm(cs, c0), rel) for cs, c0, rel in rows),
        tuple(DivAtom(m, LinTerm(cs, c0)) for m, cs, c0 in divs),
    )


def _inorm(rows: list[IRow], divs: list[IDiv]):
    """Normal form of a conjunct; None if it is syntactically unsat.

    A row is divided by the gcd of its coefficients (an inequality rounds
    its constant up, an equality the gcd does not divide is unsat).  The
    tightest ``<=`` row per coefficient vector is kept; a kept row and the
    kept row of the negated vector are unsat when their bounds cross, and
    become one equality, in the first row's orientation, when they meet.
    Equalities come first, once each, the given ones before the paired
    ones; then the ``<=`` rows, in first-seen order.  An atom m | t is divided
    by gcd(m, t), its coefficients and constant are reduced mod m, and
    atoms that always hold (m in (0, 1), or t = 0 mod m) are dropped.
    """
    best_le: dict = {}
    eqs = []
    for cs, c0, rel in rows:
        cs = {v: c for v, c in cs.items() if c}
        if not cs:
            if (rel == LE and c0 > 0) or (rel == EQ and c0 != 0):
                return None
            continue
        g = gcd(*cs.values())
        if rel == LE:
            if g > 1:
                cs = {v: c // g for v, c in cs.items()}
                c0 = -((-c0) // g)
            key = tuple(sorted(cs.items()))
            prev = best_le.get(key)
            if prev is None or c0 > prev[0]:
                best_le[key] = (c0, cs)
        else:
            if g > 1:
                if c0 % g != 0:
                    return None
                cs = {v: c // g for v, c in cs.items()}
                c0 //= g
            eqs.append((cs, c0))
    # opposite rows t + c <= 0 and -t + d <= 0 cross when c + d > 0 and
    # meet in t + c == 0 when c + d == 0 (the Omega test's pairing)
    for key in list(best_le):
        opp = tuple((v, -c) for v, c in key)
        if key not in best_le or opp not in best_le:
            continue
        (c0, cs), (d0, _) = best_le[key], best_le[opp]
        if c0 + d0 > 0:
            return None
        if c0 + d0 == 0:
            del best_le[key], best_le[opp]
            eqs.append((cs, c0))
    out_rows: list[IRow] = []
    seen = set()
    for cs, c0 in eqs:
        key = (tuple(sorted(cs.items())), c0)
        if key not in seen:
            seen.add(key)
            out_rows.append((cs, c0, EQ))
    for c0, cs in best_le.values():
        out_rows.append((cs, c0, LE))
    out_divs: list[IDiv] = []
    dseen = set()
    for m, cs, c0 in divs:
        m = abs(m)
        if m in (0, 1):
            continue
        g = gcd(m, c0, *cs.values())
        if g > 1:
            m //= g
            if m == 1:
                continue
            cs = {v: c // g for v, c in cs.items()}
            c0 //= g
        cs = {v: c % m for v, c in cs.items() if c % m}
        c0 %= m
        if not cs:
            if c0 != 0:
                return None
            continue
        key = (m, tuple(sorted(cs.items())), c0)
        if key not in dseen:
            dseen.add(key)
            out_divs.append((m, cs, c0))
    return out_rows, out_divs


def _isubst(rows, divs, v, expr_cs: dict, expr_c0: int, scale: int = 1):
    """Substitute scale*v = expr (requires coef(v) divisible when scale>1)."""
    nrows = []
    for cs, c0, rel in rows:
        c = cs.get(v, 0)
        if not c:
            nrows.append((cs, c0, rel))
            continue
        assert c % scale == 0 or scale == 1
        f = c // scale if scale != 1 else c
        ncs = {w: cc for w, cc in cs.items() if w != v}
        for w, cc in expr_cs.items():
            ncs[w] = ncs.get(w, 0) + f * cc
        nrows.append((ncs, c0 + f * expr_c0, rel))
    ndivs = []
    for m, cs, c0 in divs:
        c = cs.get(v, 0)
        if not c:
            ndivs.append((m, cs, c0))
            continue
        f = c // scale if scale != 1 else c
        ncs = {w: cc for w, cc in cs.items() if w != v}
        for w, cc in expr_cs.items():
            ncs[w] = ncs.get(w, 0) + f * cc
        ndivs.append((m, ncs, c0 + f * expr_c0))
    return nrows, ndivs


def _ielim(rows: list[IRow], divs: list[IDiv], v: str, depth: int = 0):
    """Exact integer elimination of v from a case ``_inorm`` has
    normalized; yields normalized (rows, divs) cases."""
    if depth > 12:
        raise RecursionError("integer elimination did not converge")
    if not any(v in cs for cs, _, _ in rows) and not any(v in cs for _, cs, _ in divs):
        return [(rows, divs)]

    div_mods = [m for m, cs, _ in divs if v in cs]
    if div_mods:
        m = lcm(*div_mods)
        out = []
        # v = m*w + r; the calls below eliminate w before they return, so
        # one name per depth never meets another split's variable
        w = f"_q{depth}"
        for r in range(m):
            case = _inorm(*_isubst(rows, divs, v, {w: m}, r))
            if case is not None:
                out.extend(_ielim(*case, w, depth + 1))
        return out

    eq_idx = [i for i, (cs, c0, rel) in enumerate(rows) if rel == EQ and cs.get(v)]
    if eq_idx:
        pick = min(eq_idx, key=lambda i: abs(rows[i][0][v]))
        cs, c0, _ = rows[pick]
        c = cs[v]
        if c < 0:
            cs = {w: -cc for w, cc in cs.items()}
            c0 = -c0
            c = -c
        # c*v + s == 0 with s = rest
        rest_cs = {w: -cc for w, cc in cs.items() if w != v}
        rest_c0 = -c0
        base_rows = [r for i, r in enumerate(rows) if i != pick]
        if c == 1:
            nrows, ndivs = _isubst(base_rows, divs, v, rest_cs, rest_c0)
            return _finish(nrows, ndivs)
        # scale rows so the coefficient of v becomes divisible by c
        nrows = []
        for rcs, rc0, rel in base_rows:
            cv = rcs.get(v, 0)
            if not cv:
                nrows.append((rcs, rc0, rel))
            else:
                scaled = ({w: c * cc for w, cc in rcs.items()}, c * rc0, rel)
                nrows.append(scaled)
        ndivs = []
        for m, dcs, dc0 in divs:
            cv = dcs.get(v, 0)
            if not cv:
                ndivs.append((m, dcs, dc0))
            else:
                ndivs.append((m * c, {w: c * cc for w, cc in dcs.items()}, c * dc0))
        nrows, ndivs = _isubst(nrows, ndivs, v, rest_cs, rest_c0, scale=c)
        ndivs.append((c, rest_cs, rest_c0))
        return _finish(nrows, ndivs)

    lowers = []  # (b, cs, c0): b*v >= cs.x + c0
    uppers = []  # (a, cs, c0): a*v <= cs.x + c0
    rest = []
    for cs, c0, rel in rows:
        c = cs.get(v, 0)
        if not c:
            rest.append((cs, c0, rel))
        elif c > 0:
            uppers.append((c, {w: -cc for w, cc in cs.items() if w != v}, -c0))
        else:
            lowers.append((-c, {w: cc for w, cc in cs.items() if w != v}, c0))

    if not lowers or not uppers:
        return _finish(rest, divs)

    def shadow(extra: int):
        srows = list(rest)
        for b, lcs, lc0 in lowers:
            for a, ucs, uc0 in uppers:
                cs2: dict = {}
                for w, cc in lcs.items():
                    cs2[w] = cs2.get(w, 0) + a * cc
                for w, cc in ucs.items():
                    cs2[w] = cs2.get(w, 0) - b * cc
                bonus = extra * (a - 1) * (b - 1)
                srows.append((cs2, a * lc0 - b * uc0 + bonus, LE))
        return srows

    if all(a == 1 or b == 1 for b, _, _ in lowers for a, _, _ in uppers):
        return _finish(shadow(0), divs)

    out = _finish(shadow(1), divs)  # the dark shadow
    seen = {_case_key(piece) for piece in out}
    a_max = max(a for a, _, _ in uppers)
    for b, lcs, lc0 in lowers:
        top = (a_max * b - a_max - b) // a_max
        for r in range(top + 1):
            eq_cs = dict(lcs)
            eq_cs[v] = -b  # b*v == lcs.x + lc0 + r  ->  lcs.x + lc0 + r - b*v == 0
            case = _inorm(rows + [(eq_cs, lc0 + r, EQ)], divs)
            if case is not None:
                _add_new_cases(out, seen, _ielim(*case, v, depth + 1))
    return out


def _finish(rows, divs):
    norm = _inorm(rows, divs)
    return [] if norm is None else [norm]


def _case_key(case) -> tuple:
    """A hashable form of a (rows, divs) case, equal exactly when the cases
    are equal as lists: rows and divs in order, coefficient dicts order-free."""
    rows, divs = case
    return (tuple((frozenset(cs.items()), c0, rel) for cs, c0, rel in rows),
            tuple((m, frozenset(cs.items()), c0) for m, cs, c0 in divs))


def _add_new_cases(out: list, seen: set, cases) -> None:
    """Append to ``out`` each case not seen before, in first-seen order."""
    for case in cases:
        key = _case_key(case)
        if key not in seen:
            seen.add(key)
            out.append(case)


def eliminate_rows(rows: list[IRow], divs: list[IDiv], targets: Sequence[str]) -> Dnf:
    """Eliminate every target variable from the conjunct of int rows and
    atoms.  The rows are normalized once here; ``_ielim`` hands back
    normalized cases, which the next target takes as they are."""
    case = _inorm(rows, divs)
    work = [] if case is None else [case]
    for v in targets:
        nxt: list = []
        seen: set = set()
        for rs, ds in work:
            _add_new_cases(nxt, seen, _ielim(rs, ds, v))
        work = nxt
    out = Dnf()
    for rs, ds in work:
        out.add(_conj(rs, ds))
    return out


def eliminate_all(conj: Conj, targets: Sequence[str], nonneg: Sequence[str] = ()) -> Dnf:
    """Eliminate every target variable, adding v >= 0 rows for nonneg ones."""
    rows, divs = conj.irows()
    return eliminate_rows(rows + [({v: -1}, 0, LE) for v in nonneg], divs, targets)
