"""Exact rational linear arithmetic: terms, systems, LP, and the
Podelski-Rybalchenko LP for linear ranking functions.

There is no floating point.  A term keeps the coefficients it is given:
the rows that programs, octagons and summary members produce are integer
rows and stay ints, while the simplex's outputs (models, optima, and the
ranking coefficients read off them) are ``fractions.Fraction``s.  The
solver is a two-phase primal simplex with Bland's rule, so it always
terminates.  Its tableau keeps each row as
integers over one positive row denominator, reduced to lowest terms (the
fraction-free idea of Bareiss elimination), so no ``Fraction`` is built
inside the pivot loop; the results are still exact rationals.  An
``==`` row is one tableau row whose slack is an artificial variable:
phase 1 drives the artificials to zero and then drops their columns
(Chvátal, *Linear Programming*, ch. 8), so an equality costs no more
rows than an inequality.

A system's rows are ``t <= 0`` and ``t == 0`` only.  The analyses decide
termination over integer states, where ``t < 0`` is ``t + 1 <= 0``
(``presburger.Conj.make`` writes it so).  Entailment needs no strict row
either: ``sys && t > 0`` has no rational point exactly when
``sup t <= 0`` over ``sys``, which ``PolyhedronLP.entails_le`` asks of
one tableau.
``LT`` names the strict relation for the readers that rewrite it and for
the Fourier-Motzkin oracle of the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

LE = "<="
LT = "<"
EQ = "=="

_REL_SET = (LE, EQ)


class LinTerm:
    """Linear term ``const + sum coeffs[v] * v`` with exact coefficients.

    Coefficients and the constant are stored as given: ints stay ints and
    ``Fraction``s stay exact.  Both hash and compare alike
    (``hash(Fraction(n)) == hash(n)``), so a term is the same memo key and
    prints the same whichever it holds.  Never divide a coefficient with
    ``/``: on ints that gives a float.

    A term is immutable: nothing writes ``coeffs`` or ``const`` after
    construction, so its hash is computed on first use and kept in a slot.
    The hash of a str key varies with ``PYTHONHASHSEED``, so a pickled term
    leaves the kept hash behind.
    """

    __slots__ = ("coeffs", "const", "_hash")

    def __init__(self, coeffs: Mapping[str, object] | None = None, const=0):
        self.coeffs = {v: c for v, c in coeffs.items() if c} if coeffs else {}
        self.const = const
        self._hash = None

    @classmethod
    def var(cls, name: str, coef=1) -> "LinTerm":
        return cls({name: coef})

    @classmethod
    def of(cls, const) -> "LinTerm":
        return cls({}, const)

    def variables(self):
        return self.coeffs.keys()

    def coef(self, v: str):
        return self.coeffs.get(v, 0)

    def eval(self, valuation: Mapping[str, object]):
        total = self.const
        for v, c in self.coeffs.items():
            total += c * valuation[v]
        return total

    def scale_to_integers(self) -> "LinTerm":
        """The term times the positive lcm of its denominators, over ints."""
        den = lcm(self.const.denominator, *(c.denominator for c in self.coeffs.values()))
        return LinTerm(
            {v: c.numerator * (den // c.denominator) for v, c in self.coeffs.items()},
            self.const.numerator * (den // self.const.denominator),
        )

    def __add__(self, other):
        if isinstance(other, LinTerm):
            cs = dict(self.coeffs)
            for v, c in other.coeffs.items():
                cs[v] = cs.get(v, 0) + c
            return LinTerm(cs, self.const + other.const)
        return LinTerm(self.coeffs, self.const + other)

    __radd__ = __add__

    def __neg__(self):
        return LinTerm({v: -c for v, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other):
        return self + (-other if isinstance(other, LinTerm) else LinTerm({}, -other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, k):
        return LinTerm({v: c * k for v, c in self.coeffs.items()}, self.const * k)

    __rmul__ = __mul__

    def is_constant(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, LinTerm)
            and self.coeffs == other.coeffs
            and self.const == other.const
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((frozenset(self.coeffs.items()), self.const))
        return h

    def __reduce__(self):
        return LinTerm, (self.coeffs, self.const)

    def __repr__(self):
        parts = []
        for v in sorted(self.coeffs):
            parts.append(f"{self.coeffs[v]}*{v}")
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


Row = tuple[LinTerm, str]


class LinSys:
    """Conjunction of rows ``term rel 0`` over a declared variable universe."""

    __slots__ = ("rows", "variables")

    def __init__(self, rows: Iterable[Row], variables: Sequence[str] | None = None):
        self.rows = tuple((t, r) for t, r in rows)
        for t, r in self.rows:
            if r not in _REL_SET:
                raise ValueError(f"bad relation {r!r}: rows are <= or ==")
        if variables is None:
            variables = sorted(set().union(*(t.coeffs for t, _ in self.rows)))
        else:
            declared = set(variables)
            for t, _ in self.rows:
                missing = set(t.coeffs) - declared
                if missing:
                    raise ValueError(f"undeclared variables {sorted(missing)}")
        self.variables = tuple(variables)

    def __repr__(self):
        return "LinSys[%s]" % "; ".join(f"{t} {r} 0" for t, r in self.rows)


# ---------------------------------------------------------------------------
# simplex core: maximize c.x subject to A x <= b, x >= 0
# ---------------------------------------------------------------------------


def _int_row(coeffs: Mapping[int, Fraction], a) -> tuple[dict[int, int], int, int]:
    """``coeffs`` and the bound ``a`` as integers over their least common
    denominator, which leaves them in lowest terms."""
    den = lcm(a.denominator, *(v.denominator for v in coeffs.values()))
    row = {j: v.numerator * (den // v.denominator) for j, v in coeffs.items() if v}
    return row, den, a.numerator * (den // a.denominator)


class _Tableau:
    """Primal simplex over sparse integer rows.

    Row ``i`` stands for ``sum a[i][j]/den[i] * x_j = ra[i]/den[i]``
    with ``den[i] > 0``, kept in lowest terms; the basic column of a row holds
    ``den[i]``.  Row ``m`` is the objective: its entries are the reduced
    costs and its right-hand side is ``-objval``.

    Column ``n + i`` is the slack of row ``i``.  For the ``==`` rows listed
    in ``eqs`` it is an artificial instead: ``phase1`` drives it to zero and
    drops it, so an equality is one row of the tableau.
    """

    def __init__(self, ncols: int, rows_a: list[dict[int, Fraction]], rhs: list,
                 eqs: Sequence[int]):
        self.n = ncols
        self.m = len(rows_a)
        # columns: 0..n-1 structural, n..n+m-1 slacks and artificials, n+m auxiliary
        self.width = self.n + self.m + 1
        rows = [_int_row(row, bound) for row, bound in zip(rows_a, rhs)]
        rows.append(({}, 1, 0))  # the objective row
        self.a, self.den, self.ra = map(list, zip(*rows))
        for i in range(self.m):
            self.a[i][self.n + i] = self.den[i]
        self.basis = [self.n + i for i in range(self.m)]
        self.eqs = eqs

    def _reduce(self, i: int) -> None:
        """Divide row ``i`` by the gcd of its entries, rhs and denominator."""
        den = self.den[i]
        if den == 1:
            return
        g = gcd(den, self.ra[i], *self.a[i].values())
        if g != 1:
            row = self.a[i]
            for j in row:
                row[j] //= g
            self.den[i] = den // g
            self.ra[i] //= g

    def _eliminate(self, i: int, r: int, c: int) -> None:
        """Clear column ``c`` of row ``i`` with row ``r``, whose basic column is ``c``."""
        row = self.a[i]
        t = row.pop(c)
        p = self.den[r]
        g = gcd(p, t)
        if g != 1:
            p //= g
            t //= g
        if p != 1:
            for j in row:
                row[j] *= p
            self.den[i] *= p
            self.ra[i] *= p
        for j, v in self.a[r].items():
            if j == c:
                continue
            nv = row.get(j, 0) - t * v
            if nv:
                row[j] = nv
            else:
                row.pop(j, None)
        self.ra[i] -= t * self.ra[r]
        self._reduce(i)

    def set_objective(self, coefs: dict[int, Fraction]) -> None:
        row, den, _ = _int_row(coefs, 0)
        m = self.m
        self.a[m], self.den[m], self.ra[m] = row, den, 0
        for i, bv in enumerate(self.basis):
            if bv in row:
                self._eliminate(m, i, bv)

    @property
    def objval(self) -> Fraction:
        return Fraction(-self.ra[self.m], self.den[self.m])

    def pivot(self, r: int, c: int) -> None:
        row = self.a[r]
        p = row[c]
        if p < 0:
            for j in row:
                row[j] = -row[j]
            self.ra[r] = -self.ra[r]
            p = -p
        # dividing row r by its pivot value p/den[r] leaves denominator p
        self.den[r] = p
        self._reduce(r)
        for i in range(self.m + 1):
            if i != r and c in self.a[i]:
                self._eliminate(i, r, c)
        self.basis[r] = c

    def _leave_for(self, c: int) -> int | None:
        # ratio ra[i] / a[i][c]: the row denominators cancel
        a, ra, basis = self.a, self.ra, self.basis
        best = None
        for i in range(self.m):
            aic = a[i].get(c)
            if aic is None or aic <= 0:
                continue
            if best is None:
                best, abc = i, aic
                continue
            d = ra[i] * abc - ra[best] * aic
            if d == 0 and basis[i] < basis[best]:
                d = -1
            if d < 0:
                best, abc = i, aic
        return best

    def maximize(self, allowed_width: int) -> str:
        while True:
            enter = None
            for j, v in self.a[self.m].items():
                if j < allowed_width and v > 0 and (enter is None or j < enter):
                    enter = j  # Bland: smallest eligible index
            if enter is None:
                return "optimal"
            leave = self._leave_for(enter)
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)

    def phase1(self) -> bool:
        """Reach a feasible basis; False if the system is empty.

        The auxiliary column lifts every ``<=`` row that starts negative
        (``_build`` gives ``==`` rows a nonnegative bound), and phase 1
        maximizes -(aux + the artificials).  At a zero optimum, each of
        them still basic leaves by a degenerate pivot on the smallest other
        column of its row; a row with no other column is a redundant
        equality and keeps its artificial, at zero.  Then their columns are
        dropped, so they never enter again.  When no ``<=`` row is negative
        and every ``==`` row has bound 0, the start is feasible and only the
        degenerate pivots run.
        """
        m, ra, den = self.m, self.ra, self.den
        aux = self.n + m
        drop = {self.n + i for i in self.eqs}
        lifted = any(ra[i] < 0 for i in range(m))
        if lifted or any(ra[i] for i in self.eqs):
            goal = dict.fromkeys(drop, Fraction(-1))
            if lifted:
                for i in range(m):
                    if self.n + i not in drop:
                        self.a[i][aux] = -den[i]
                goal[aux] = Fraction(-1)
            self.set_objective(goal)
            if lifted:
                # the most negative row is a <= row: == rows are nonnegative
                worst = 0
                for i in range(1, m):
                    if ra[i] * den[worst] < ra[worst] * den[i]:
                        worst = i
                self.pivot(worst, aux)
            status = self.maximize(self.width)
            assert status == "optimal"
            if ra[m]:
                return False
        if lifted:
            drop.add(aux)
        basis = self.basis
        for r in range(m):
            if basis[r] in drop:
                c = min((j for j in self.a[r] if j not in drop), default=None)
                if c is not None:
                    self.pivot(r, c)
        for i in range(m):
            row, gone = self.a[i], False
            for j in drop:
                if j != basis[i] and row.pop(j, None) is not None:
                    gone = True
            if gone:
                self._reduce(i)
        return True

    def solution(self) -> dict[int, Fraction]:
        """Values of the basic columns; every other column is zero."""
        return {bv: Fraction(self.ra[i], self.den[i]) for i, bv in enumerate(self.basis)}


def _build(sys: LinSys, extra_nonneg: Sequence[str] = ()):
    """Normalize to (names, pm-split columns, A, b, eqs) standard form.

    Each system row is one row of ``A x <= b`` or, for the row indices in
    ``eqs``, of ``A x == b``; an ``==`` row with a negative bound is negated,
    so its artificial starts nonnegative.
    """
    names = list(sys.variables)
    nonneg = set(extra_nonneg)
    cols: list[tuple[str, int]] = []  # (var, sign)
    col_of: dict[str, list[int]] = {}
    for v in names:
        if v in nonneg:
            col_of[v] = [len(cols)]
            cols.append((v, 1))
        else:
            col_of[v] = [len(cols), len(cols) + 1]
            cols.append((v, 1))
            cols.append((v, -1))
    rows_a: list[dict[int, Fraction]] = []
    rhs: list = []
    eqs: list[int] = []
    for t, rel in sys.rows:
        sign = 1
        if rel == EQ:
            eqs.append(len(rows_a))
            if t.const > 0:
                sign = -1
        row: dict[int, object] = {}
        for v, c in t.coeffs.items():
            idx = col_of[v]
            row[idx[0]] = row.get(idx[0], 0) + sign * c
            if len(idx) == 2:
                row[idx[1]] = row.get(idx[1], 0) - sign * c
        rows_a.append(row)
        rhs.append(-sign * t.const)
    return names, cols, col_of, rows_a, rhs, eqs


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


class PolyhedronLP:
    """One phased tableau per system; each sup() warm-starts from the
    current feasible basis, which makes batched objective queries cheap."""

    def __init__(self, sys: LinSys, extra_nonneg: Sequence[str] = ()):
        self.sys = sys
        _, cols, col_of, rows_a, rhs, eqs = _build(sys, extra_nonneg)
        self.col_of = col_of
        self.tab = _Tableau(len(cols), rows_a, rhs, eqs)
        self.aux = self.tab.n + self.tab.m
        self.feasible = self.tab.phase1()

    def model(self) -> dict[str, Fraction] | None:
        """A rational point of the system (None when it is empty): the
        current basic solution."""
        if not self.feasible:
            return None
        vals = self.tab.solution()
        zero = Fraction(0)
        model: dict[str, Fraction] = {}
        for v, idx in self.col_of.items():
            val = vals.get(idx[0], zero)
            if len(idx) == 2:
                val = val - vals.get(idx[1], zero)
            elif val < 0:
                raise AssertionError("nonneg var went negative; solver bug")
            model[v] = val
        for t, rel in self.sys.rows:
            val = t.eval(model)
            if val > 0 or (rel == EQ and val != 0):
                raise AssertionError("LP model fails a row; solver bug")
        return model

    def sup(self, obj: LinTerm) -> Fraction | None:
        """The supremum of obj over the system; None when it is unbounded or
        the system is empty."""
        if not self.feasible or any(v not in self.col_of for v in obj.coeffs):
            return None
        coefs: dict[int, object] = {}
        for v, c in obj.coeffs.items():
            idx = self.col_of[v]
            coefs[idx[0]] = coefs.get(idx[0], 0) + c
            if len(idx) == 2:
                coefs[idx[1]] = coefs.get(idx[1], 0) - c
        self.tab.set_objective(coefs)
        if self.tab.maximize(self.aux) == "unbounded":
            return None
        return self.tab.objval + obj.const

    def entails_le(self, t: LinTerm) -> bool:
        """Every rational point satisfies t <= 0 (vacuous when empty)."""
        if not self.feasible:
            return True
        res = self.sup(t)
        return res is not None and res <= 0


def lp_feasible(sys: LinSys, nonneg: Sequence[str] = ()) -> dict[str, Fraction] | None:
    """Exact feasibility over the rationals: a model, or None."""
    return PolyhedronLP(sys, nonneg).model()


def term_of_pair(p: int, q: int, variables: Sequence[str], const=0) -> LinTerm:
    """Octagonal term u_p - u_q + const for dual indices over the given
    variables, built as one term."""
    vq = variables[q // 2]
    coeffs = {variables[p // 2]: 1 if p % 2 == 0 else -1}
    coeffs[vq] = coeffs.get(vq, 0) - (1 if q % 2 == 0 else -1)
    return LinTerm(coeffs, const)


# ---------------------------------------------------------------------------
# linear ranking functions (Podelski-Rybalchenko)
# ---------------------------------------------------------------------------


def farkas_template(sys: LinSys, pre: Sequence[str],
                    post: Sequence[str]) -> dict[str, Fraction] | None:
    """The coefficients over ``pre`` of a linear ranking function of sys, or None.

    Write the rows of sys as ``A x + A' x' <= b``, with x over ``pre`` and x'
    over ``post`` in the same order.  By Podelski and Rybalchenko (VMCAI
    2004), sys has a linear ranking function over its rational points
    exactly when nonnegative multipliers l1, l2 over the rows exist with
    ``l1 A' = 0``, ``(l1 - l2) A = 0``, ``l2 (A + A') = 0`` and
    ``l2 b <= -1``; an ``==`` row gets sign-free multipliers.  Then
    ``r = l2 A'`` decreases by at least 1 and is at least ``-l1 b`` on sys.
    One exact LP feasibility call decides it: 3N + 1 rows for N = len(pre),
    whose only columns are the multipliers.
    """
    n, rows = len(pre), sys.rows
    at = {v: i for i, v in enumerate(pre)} | {v: n + i for i, v in enumerate(post)}
    cols: list[dict[int, object]] = [{} for _ in range(2 * n)]  # A, then A', by row
    for k, (t, _) in enumerate(rows):
        for v, c in t.coeffs.items():
            cols[at[v]][k] = c
    l1 = [f"l1_{k}" for k in range(len(rows))]
    l2 = [f"l2_{k}" for k in range(len(rows))]

    def comb(lams, col, sign=1) -> LinTerm:
        return LinTerm({lams[k]: sign * c for k, c in col.items()})

    meta: list[Row] = []
    for a, ap in zip(cols[:n], cols[n:]):
        meta += [(comb(l1, ap), EQ), (comb(l1, a) + comb(l2, a, -1), EQ),
                 (comb(l2, a) + comb(l2, ap), EQ)]
    meta.append((LinTerm({l2[k]: -t.const for k, (t, _) in enumerate(rows)}, 1), LE))
    nonneg = [lam[k] for lam in (l1, l2) for k, (_, rel) in enumerate(rows) if rel == LE]
    model = lp_feasible(LinSys(meta, l1 + l2), nonneg)
    if model is None:
        return None
    return {v: sum(model[l2[k]] * c for k, c in ap.items()) for v, ap in zip(pre, cols[n:])}
