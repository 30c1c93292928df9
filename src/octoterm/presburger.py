"""Quantifier-free integer linear formulas with divisibility, in DNF.

A conjunct is a set of integer-coefficient rows ``t <= 0`` / ``t == 0``
plus divisibility atoms ``m | t``.  Existential quantification over an
integer variable is exact (Omega-test style): equalities substitute,
divisibility atoms split the variable by residue, and inequality pairs
use the real shadow when some coefficient is 1, otherwise the dark
shadow plus finitely many splinter cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .linarith import (
    EQ,
    LE,
    LT,
    Feasible,
    LinSys,
    LinTerm,
    PolyhedronLP,
    lp_feasible,
)

def _int_term(t: LinTerm) -> LinTerm:
    """Scale a row term to integer coefficients (positive multiplier)."""
    t = t.scale_to_integers()
    for c in list(t.coeffs.values()) + [t.const]:
        if c.denominator != 1:
            raise AssertionError("integer scaling failed")
    return t


def _content(t: LinTerm, include_const: bool) -> int:
    g = 0
    for c in t.coeffs.values():
        g = gcd(g, abs(c.numerator))
    if include_const:
        g = gcd(g, abs(t.const.numerator))
    return g


@dataclass(frozen=True)
class DivAtom:
    """modulus | term, with integer-coefficient term and modulus >= 2."""

    modulus: int
    term: LinTerm

    def normalized(self) -> "DivAtom | bool":
        m = self.modulus
        t = _int_term(self.term)
        if m < 0:
            m = -m
        if m in (0, 1):
            return True
        d = gcd(m, _content(t, include_const=True))
        if d > 1:
            m //= d
            t = t * Fraction(1, d)
            if m == 1:
                return True
        coeffs = {v: Fraction(c.numerator % m) for v, c in t.coeffs.items()}
        t = LinTerm(coeffs, t.const.numerator % m)
        if t.is_constant():
            return t.const == 0
        return DivAtom(m, t)

    def eval(self, valuation: Mapping[str, int]) -> bool:
        v = self.term.eval(valuation)
        return v.denominator == 1 and v.numerator % self.modulus == 0

    def __repr__(self):
        return f"{self.modulus} | ({self.term})"


@dataclass(frozen=True)
class Conj:
    """Conjunction of integer rows (LE/EQ over <= | ==) and divisibilities."""

    rows: tuple[tuple[LinTerm, str], ...]
    divs: tuple[DivAtom, ...] = ()

    @classmethod
    def make(cls, rows: Iterable, divs: Iterable = ()) -> "Conj | None":
        """Normalize; returns None when syntactically unsatisfiable.

        Inequality rows with identical coefficient vectors collapse to the
        tightest constant (Fourier-Motzkin output is full of such pairs).
        """
        out_rows = []
        seen = set()
        best_le: dict = {}
        for t, rel in rows:
            t = _int_term(t)
            if rel == LT:
                t = t + 1
                rel = LE
            if rel == LE:
                g = _content(t, include_const=False)
                if g > 1:
                    # g*s + c <= 0  <=>  s <= floor(-c/g) over the integers
                    c = t.const.numerator
                    coeffs = {v: cc / g for v, cc in t.coeffs.items()}
                    t = LinTerm(coeffs, -((-c) // g))
            if t.is_constant():
                if rel == LE and t.const > 0:
                    return None
                if rel == EQ and t.const != 0:
                    return None
                continue
            if rel == EQ:
                g = _content(t, include_const=False)
                if g > 1:
                    c = t.const.numerator
                    if c % g != 0:
                        return None
                    t = t * Fraction(1, g)
            if rel == LE:
                coef_key = frozenset(t.coeffs.items())
                prev = best_le.get(coef_key)
                if prev is None or t.const > prev.const:
                    best_le[coef_key] = t
                continue
            key = (frozenset(t.coeffs.items()), t.const, rel)
            if key not in seen:
                seen.add(key)
                out_rows.append((t, rel))
        out_rows.extend((t, LE) for t in best_le.values())
        out_divs = []
        dseen = set()
        for d in divs:
            nd = d.normalized()
            if nd is True:
                continue
            if nd is False:
                return None
            key = (nd.modulus, frozenset(nd.term.coeffs.items()), nd.term.const)
            if key not in dseen:
                dseen.add(key)
                out_divs.append(nd)
        return cls(tuple(out_rows), tuple(out_divs))

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
        return isinstance(lp_feasible(self.to_linsys()), Feasible)

    def subst(self, assignment: Mapping[str, LinTerm]) -> "Conj | None":
        rows = [(t.subst(assignment), rel) for t, rel in self.rows]
        divs = [DivAtom(d.modulus, d.term.subst(assignment)) for d in self.divs]
        return Conj.make(rows, divs)

    def __repr__(self):
        bits = [f"{t} {rel} 0" for t, rel in self.rows]
        bits += [repr(d) for d in self.divs]
        return " & ".join(bits) if bits else "true"


TRUE_CONJ = Conj((), ())


_oct_cache: dict = {}


def _conj_octagon(c: Conj):
    """(variable order, tight octagon) when every row is octagonal; None
    otherwise.  Cached per conjunct; integer-exact via tight closure."""
    hit = _oct_cache.get(c)
    if hit is not None:
        return hit if hit != "no" else None
    from .octagon import oct_encode, tight_close

    names = sorted(c.variables())
    index = {v: i for i, v in enumerate(names)}
    atoms = []
    ok = True
    for t, rel in c.rows:
        pairs = [(t,)] if rel == LE else [(t,), (-t,)]
        for (tt,) in pairs:
            ent = list(tt.coeffs.items())
            c0 = -tt.const.numerator
            if len(ent) == 1 and abs(ent[0][1]) == 1:
                v, cc = ent[0]
                s = 1 if cc > 0 else -1
                atoms.append((s, index[v], s, index[v], 2 * c0))
            elif len(ent) == 1 and abs(ent[0][1]) == 2:
                v, cc = ent[0]
                s = 1 if cc > 0 else -1
                atoms.append((s, index[v], s, index[v], c0))
            elif len(ent) == 2 and all(abs(cc) == 1 for _, cc in ent):
                (v1, c1), (v2, c2) = ent
                atoms.append((int(c1), index[v1], int(c2), index[v2], c0))
            else:
                ok = False
                break
        if not ok:
            break
    if not ok:
        _oct_cache[c] = "no"
        return None
    res = (tuple(names), tight_close(oct_encode(atoms, len(names))))
    _oct_cache[c] = res
    return res


_witness_cache: dict = {}
_poly_cache: dict = {}


def _rational_witness(c: Conj):
    """A cached rational model of the rows (None when infeasible)."""
    if c in _witness_cache:
        return _witness_cache[c]
    res = lp_feasible(c.to_linsys())
    w = res.model if isinstance(res, Feasible) else None
    _witness_cache[c] = w
    return w


def conj_poly(c: Conj) -> PolyhedronLP:
    """Cached warm-start LP over the conjunct's rows."""
    p = _poly_cache.get(c)
    if p is None:
        p = PolyhedronLP(c.to_linsys())
        _poly_cache[c] = p
    return p


def conj_implies(a: Conj, b: Conj) -> bool:
    """Sound, incomplete: integer octagonal entailment when both conjuncts
    are octagonal, rational row entailment otherwise; divisibility atoms
    must match syntactically."""
    adivs = set(a.divs)
    if not all(d in adivs for d in b.divs):
        return False
    oa = _conj_octagon(a)
    ob = _conj_octagon(b)
    if oa is not None and ob is not None:
        from .octagon import oct_leq

        names_a, oct_a = oa
        names_b, oct_b = ob
        if oct_a.is_bottom:
            return True
        if set(names_b) <= set(names_a):
            # align b onto a's variable order by re-encoding
            from .octagon import oct_decode, oct_encode, tight_close

            if oct_b.is_bottom:
                return False
            idx = {v: i for i, v in enumerate(names_a)}
            atoms = []
            fits = True
            for si, i, sj, j, cc in oct_decode(oct_b):
                if names_b[i] not in idx or names_b[j] not in idx:
                    fits = False
                    break
                atoms.append((si, idx[names_b[i]], sj, idx[names_b[j]], cc))
            if fits:
                lifted = tight_close(oct_encode(atoms, len(names_a)))
                return oct_leq(oct_a, lifted)
    # cheap rejection: a rational point of a must satisfy b's rows
    w = _rational_witness(a)
    if w is not None:
        for t, rel in b.rows:
            val = t.const + sum(c * w.get(v, 0) for v, c in t.coeffs.items())
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


class Dnf:
    """Disjunction of conjuncts with light pruning on insertion."""

    def __init__(self, conjs: Iterable[Conj] = ()):
        self.conjs: list[Conj] = []
        for c in conjs:
            self.add(c)

    def add(self, c: Conj | None) -> None:
        if c is None:
            return
        if not c.rationally_feasible():
            return
        for other in self.conjs:
            if conj_implies(c, other):
                return
        self.conjs = [o for o in self.conjs if not conj_implies(o, c)]
        self.conjs.append(c)

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
# The core works on plain-int rows ({var: coef}, const, rel) and div atoms
# (modulus, {var: coef}, const); LinTerms only appear at the boundary.
# ---------------------------------------------------------------------------

IRow = tuple[dict, int, str]
IDiv = tuple[int, dict, int]


def _to_irows(conj: Conj) -> tuple[list[IRow], list[IDiv]]:
    rows = [
        ({v: c.numerator for v, c in t.coeffs.items()}, t.const.numerator, rel)
        for t, rel in conj.rows
    ]
    divs = [
        (d.modulus, {v: c.numerator for v, c in d.term.coeffs.items()}, d.term.const.numerator)
        for d in conj.divs
    ]
    return rows, divs


def _from_irows(rows: list[IRow], divs: list[IDiv]) -> Conj | None:
    return Conj.make(
        [(LinTerm(cs, c0), rel) for cs, c0, rel in rows],
        [DivAtom(m, LinTerm(cs, c0)) for m, cs, c0 in divs],
    )


def _inorm(rows: list[IRow], divs: list[IDiv]):
    """int-level normalization mirroring Conj.make; None if unsat."""
    best_le: dict = {}
    eqs = []
    for cs, c0, rel in rows:
        cs = {v: c for v, c in cs.items() if c}
        if not cs:
            if (rel == LE and c0 > 0) or (rel == EQ and c0 != 0):
                return None
            continue
        g = 0
        for c in cs.values():
            g = gcd(g, abs(c))
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
    out_rows: list[IRow] = []
    seen = set()
    for cs, c0 in eqs:
        key = (tuple(sorted(cs.items())), c0)
        if key not in seen:
            seen.add(key)
            out_rows.append((cs, c0, EQ))
    for key, (c0, cs) in best_le.items():
        out_rows.append((cs, c0, LE))
    out_divs: list[IDiv] = []
    dseen = set()
    for m, cs, c0 in divs:
        m = abs(m)
        cs = {v: c for v, c in cs.items() if c % m}
        c0 %= m if m else 1
        if m in (0, 1):
            continue
        g = m
        for c in cs.values():
            g = gcd(g, abs(c))
        g = gcd(g, c0)
        if g > 1:
            m //= g
            cs = {v: c // g for v, c in cs.items()}
            c0 //= g
            if m == 1:
                continue
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
    """Exact integer elimination of v; yields normalized (rows, divs) cases."""
    if depth > 12:
        raise RecursionError("integer elimination did not converge")
    norm = _inorm(rows, divs)
    if norm is None:
        return []
    rows, divs = norm
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
            srows, sdivs = _isubst(rows, divs, v, {w: m}, r)
            out.extend(_ielim(srows, sdivs, w, depth + 1))
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

    out = []
    dark = _finish(shadow(1), divs)
    out.extend(dark)
    a_max = max(a for a, _, _ in uppers)
    for b, lcs, lc0 in lowers:
        top = (a_max * b - a_max - b) // a_max
        for r in range(top + 1):
            eq_cs = dict(lcs)
            eq_cs[v] = -b  # b*v == lcs.x + lc0 + r  ->  lcs.x + lc0 + r - b*v == 0
            case_rows = rows + [(eq_cs, lc0 + r, EQ)]
            for piece in _ielim(case_rows, divs, v, depth + 1):
                if piece not in out:
                    out.append(piece)
    return out


def _finish(rows, divs):
    norm = _inorm(rows, divs)
    return [] if norm is None else [norm]


def eliminate_int_var(conj: Conj, v: str) -> list[Conj]:
    """Exact: returns a DNF such that (exists v in Z . conj) <=> the DNF."""
    rows, divs = _to_irows(conj)
    out = []
    for nrows, ndivs in _ielim(rows, divs, v):
        c = _from_irows(nrows, ndivs)
        if c is not None:
            out.append(c)
    return out


def eliminate_all(conj: Conj, targets: Sequence[str], nonneg: Sequence[str] = ()) -> Dnf:
    """Eliminate every target variable, adding v >= 0 rows for nonneg ones."""
    rows, divs = _to_irows(conj)
    for v in nonneg:
        rows.append(({v: -1}, 0, LE))
    work = [(rows, divs)]
    for v in targets:
        nxt = []
        for rs, ds in work:
            for piece in _ielim(rs, ds, v):
                if piece not in nxt:
                    nxt.append(piece)
        work = nxt
    out = Dnf()
    for rs, ds in work:
        out.add(_from_irows(rs, ds))
    return out
