"""Deterministic affine loops: finite-monoid WNT and polynomial bounds.

An affine relation is x' = A x + b with a guard on x.  When the monoid of
powers of A is finite, the trajectory from any point is eventually
periodic in shape: A^(B+i+kC) = A^(B+i) and the offsets drift by a
constant vector per period, so "the guard holds forever" collapses to a
finite conjunction of linear conditions (the exact weakest
non-termination set).  When the nonzero eigenvalues of A are merely roots
of unity, entries of A^k are polynomials in k per residue class and
sign conditions on leading coefficients give sufficient termination
preconditions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul, sub
from typing import NamedTuple

from .linarith import EQ, LE, LT, LinTerm
from .presburger import Conj, Dnf

Matrix = tuple[tuple[int, ...], ...]


def mat(rows) -> Matrix:
    return tuple(tuple(int(v) for v in r) for r in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_pow(a: Matrix, e: int) -> Matrix:
    out = None
    base = a
    while e:
        if e & 1:
            out = base if out is None else mat_mul(out, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return identity(len(a)) if out is None else out


class AffineRel(NamedTuple):
    """x' = A x + b with a guard; the conjunctive case is C x >= d rows."""

    n_vars: int
    a: Matrix
    b: tuple[int, ...]
    guard: tuple[tuple[tuple[int, ...], int], ...]  # rows (c, d): c.x >= d

    def guard_holds(self, point) -> bool:
        return all(
            sum(ci * xi for ci, xi in zip(c, point)) >= d for c, d in self.guard
        )

    def apply(self, point):
        img = mat_vec(self.a, point)
        return tuple(x + y for x, y in zip(img, self.b))


def _totient(n: int) -> int:
    out = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _order_lcm(n: int) -> int:
    """lcm of all d with totient(d) <= n (d ranges up to 2n^2)."""
    out = 1
    for d in range(1, 2 * n * n + 1):
        if _totient(d) <= n:
            out = lcm(out, d)
    return out


def _kills(a: Matrix, L: int, k: int) -> bool:
    """Whether A^N (A^L - I)^k = 0, N the dimension of A.  When it holds,
    the trace of A^L counts the nonzero eigenvalues, all L-th roots of
    unity: a trace outside [0, N] fails before (A^L - I)^k multiplies the
    bits of a growing A^L by k."""
    n = len(a)
    step = mat_pow(a, L)
    if not 0 <= sum(step[i][i] for i in range(n)) <= n:
        return False
    out = mat_pow(a, n)  # times A^L - I, k times or until it is 0
    for _ in range(k):
        if not any(map(any, out)):
            break
        out = tuple(tuple(map(sub, x, y)) for x, y in zip(mat_mul(out, step), out))
    return not any(map(any, out))


def is_finite_monoid(a: Matrix) -> bool:
    """True iff the set of powers of A is finite: ``_kills`` with k = 1 at
    L = ``_order_lcm(N)``, that is A^(N+L) = A^N, which makes the powers
    repeat.  Conversely, if A^(B+C) = A^B, the minimal polynomial divides
    x^B (x^C - 1): its factor x^e has e <= N, and its nonzero roots are
    simple roots of unity whose orders divide L (see ``_unity_order``), so
    it divides x^N (x^L - 1).
    """
    return _kills(a, _order_lcm(len(a)), 1)


def pull_back(guard, a: Matrix, b: tuple[int, ...]):
    """The guard rows c.x' >= d pulled back through x' = A x + b: the rows
    (c.A, d - c.b) on x."""
    cols = tuple(zip(*a))
    return tuple(
        (tuple(sum(map(mul, c, col)) for col in cols), d - sum(map(mul, c, b)))
        for c, d in guard
    )


def guard_rows(guard, names) -> list[tuple[LinTerm, str]]:
    """The guard rows c.x >= d over ``names``, as d - c.x <= 0."""
    return [(LinTerm({v: -ci for v, ci in zip(names, c)}, d), LE) for c, d in guard]


def compose_affine(first: AffineRel, then: AffineRel) -> AffineRel:
    """``first`` then ``then``: x' = A'A x + (A'b + b'), guarded by the
    first guard and the second pulled back through the first update."""
    return AffineRel(
        first.n_vars,
        mat_mul(then.a, first.a),
        tuple(x + y for x, y in zip(mat_vec(then.a, first.b), then.b)),
        first.guard + pull_back(then.guard, first.a, first.b),
    )


def finite_monoid_wnt(rel: AffineRel, names: list[str] | None = None) -> Dnf:
    """Exact weakest non-termination set of a finite-monoid affine relation.

    With A^(B+C) = A^B the state at step B+i+mC is
    A^(B+i) x + s_(B+i) + m*D_i where D_i = A^(B+i) s_C; a guard row holds
    for all m >= 0 iff its drift against D_i is nonnegative and the base
    instance holds.  Steps before B contribute plain guard instances.
    """
    if not is_finite_monoid(rel.a):
        raise ValueError("matrix does not generate a finite monoid")
    n = rel.n_vars
    # one walk of the powers up to the first repeat A^(B+C) = A^B, which
    # A^(N+L) = A^N bounds; a dict keeps them in order, A^k at index k
    seen: dict[Matrix, int] = {}
    power = identity(n)
    while power not in seen:
        seen[power] = len(seen)
        power = mat_mul(power, rel.a)
    powers = list(seen)  # A^0 .. A^(B+C-1)
    B = seen[power]
    C = len(powers) - B
    s = [(0,) * n]  # s_(k+1) = s_k + A^k b, with A^k = A^(k-C) once k >= B + C
    for k in range(B + 2 * C):
        step = mat_vec(powers[k if k < B + C else k - C], rel.b)
        s.append(tuple(x + y for x, y in zip(s[-1], step)))
    # verify the derived offset identity  s_(k+C) = s_k + A^k s_C
    for k in range(B + C):
        lhs = s[k + C]
        rhs = tuple(
            x + y for x, y in zip(s[k], mat_vec(powers[k], s[C]))
        )
        if lhs != rhs:
            raise AssertionError("trajectory offset identity failed")
    if names is None:
        names = [f"x{i}" for i in range(n)]
    rows = []
    for k in range(B + C):
        pulled = pull_back(rel.guard, powers[k], s[k])
        if k >= B and any(sum(map(mul, c, s[C])) < 0 for c, _ in pulled):
            return Dnf()  # the row eventually fails from every state
        rows.extend(guard_rows(pulled, names))
    return Dnf([Conj.make(rows)])


def homogenize(rel: AffineRel) -> tuple[Matrix, tuple[tuple[int, ...], ...]]:
    """``(a_h, c_h)``: the update over x_h = (x, 1), and the guard as the
    rows of C_h x_h >= 0."""
    n = rel.n_vars
    a_h = tuple(
        tuple(list(rel.a[i]) + [rel.b[i]]) for i in range(n)
    ) + ((0,) * n + (1,),)
    c_h = tuple(tuple(list(c) + [-d]) for c, d in rel.guard)
    return a_h, c_h


# ---------------------------------------------------------------------------
# polynomially bounded matrices
# ---------------------------------------------------------------------------


def _unity_order(a: Matrix) -> int | None:
    """Smallest M with every nonzero eigenvalue an M-th root of unity: the
    least divisor M of L = ``_order_lcm(N)`` with A^N (A^M - I)^N = 0
    (``_kills`` with k = N); None when L fails.

    The identity is exact.  On the generalized eigenspace of a nonzero
    eigenvalue with lambda^M = 1, A^M - I is nilpotent of index at most N,
    and A^N kills the generalized eigenspace of 0.  Conversely, an
    eigenvector of eigenvalue lambda is sent to lambda^N (lambda^M - 1)^N
    times itself.  So the M that pass are the multiples of the order, the
    lcm of the orders d of the nonzero eigenvalues.  The d-th cyclotomic
    polynomial divides the characteristic one, so totient(d) <= N and the
    order divides L, unless some nonzero eigenvalue is no root of unity.
    """
    n = len(a)
    L = _order_lcm(n)
    if not _kills(a, L, n):
        return None
    return next(m for m in range(1, L + 1) if L % m == 0 and _kills(a, m, n))


def is_polynomially_bounded(a: Matrix) -> bool:
    """``_kills`` with k = N at L = ``_order_lcm(N)``: see ``_unity_order``."""
    return _kills(a, _order_lcm(len(a)), len(a))


class PolyClosedForm(NamedTuple):
    """Per residue r < L, polynomials p[r][i][j] with A^(kL+r) = p(k).

    Valid for every k with k*L + r >= valid_from; small exponents are the
    explicitly stored prefix powers.
    """

    n: int
    L: int
    valid_from: int
    polys: list  # polys[r][i][j] = list of Fraction coefficients in k
    prefix: list  # prefix[e] = A^e for e < valid_from + L

    def at(self, exponent: int) -> Matrix:
        if exponent < len(self.prefix):
            return self.prefix[exponent]
        r = exponent % self.L
        k = exponent // self.L
        return tuple(
            tuple(_poly_eval_int(self.polys[r][i][j], k) for j in range(self.n))
            for i in range(self.n)
        )


def _poly_eval(p: list, k: int):
    """p(k), an int on int coefficients and a Fraction on Fractions."""
    out = 0
    for c in reversed(p):
        out = out * k + c
    return out


def _poly_eval_int(p: list[Fraction], k: int) -> int:
    v = _poly_eval(p, k)
    if v.denominator != 1:
        raise AssertionError("polynomial closed form not integer-valued")
    return v.numerator


class NotPolynomiallyBounded(ValueError):
    pass


def _lagrange_basis(xs: list[int]) -> tuple[list[list[int]], int]:
    """The Lagrange basis polynomials of the nodes xs over one integer
    common denominator: ``(numerators, den)``, coefficients ascending, where
    numerators[idx] / den is 1 at xs[idx] and 0 at every other node."""
    polys, denoms = [], []
    for idx, xi in enumerate(xs):
        poly = [1]
        denom = 1
        for jdx, xj in enumerate(xs):
            if jdx == idx:
                continue
            # multiply poly by (x - xj)
            nxt = [0] * (len(poly) + 1)
            for d, c in enumerate(poly):
                nxt[d] -= c * xj
                nxt[d + 1] += c
            poly = nxt
            denom *= xi - xj
        polys.append(poly)
        denoms.append(denom)
    den = lcm(*denoms)
    return [[c * (den // dn) for c in poly] for poly, dn in zip(polys, denoms)], den


def poly_matrix_power(a: Matrix) -> PolyClosedForm:
    """Closed form of the powers of A when nonzero eigenvalues are roots of 1.

    Entries of A^(kL+r) are interpolated as polynomials of degree < N per
    residue r and re-verified at 3 extra sample points.  Per residue the
    first sample A^(k0*L+r) is a prefix power, each later one is the
    previous times A^L, and one Lagrange basis of the sample points serves
    every entry.  The interpolation and the checks run in integers, over
    the basis's common denominator den (p(k) == sample*den), and each
    coefficient becomes a ``Fraction`` once.
    """
    n = len(a)
    L = _unity_order(a)
    if L is None:
        raise NotPolynomiallyBounded(f"matrix {a} has a non-root-of-unity eigenvalue")
    valid_from = n
    prefix = [identity(n)]
    for _ in range(valid_from + L):
        prefix.append(mat_mul(prefix[-1], a))
    polys = []
    for r in range(L):
        k0 = -((r - valid_from) // L)  # least k0 >= 0 with k0*L + r >= valid_from
        # the samples A^(kL+r), k = k0 .. k0+n-1, then the 3 extra ones
        samples = [prefix[k0 * L + r]]
        for _ in range(n + 2):
            samples.append(mat_mul(samples[-1], prefix[L]))
        basis, den = _lagrange_basis(list(range(k0, k0 + n)))
        grid = []
        for i in range(n):
            row = []
            for j in range(n):
                p = [0] * n  # den * the interpolating polynomial
                for ell, sample in zip(basis, samples):
                    y = sample[i][j]
                    if y:
                        for d, c in enumerate(ell):
                            p[d] += c * y
                while len(p) > 1 and p[-1] == 0:
                    p.pop()
                for k, sample in enumerate(samples[n:], k0 + n):
                    if _poly_eval(p, k) != sample[i][j] * den:
                        raise AssertionError("degree bound violated in closed form")
                row.append([Fraction(c, den) for c in p])
            grid.append(row)
        polys.append(grid)
    return PolyClosedForm(n, L, valid_from, polys, prefix)


def sufficient_termination(rel: AffineRel, names: list[str] | None = None) -> Dnf:
    """A disjunction of linear systems disjoint from the recurrent set.

    For each guard row and residue, the row value after kL+r steps is a
    polynomial in k with coefficients linear in the start state; any state
    making the leading surviving coefficient negative (all higher ones
    zero) violates the guard eventually and therefore terminates.  An
    empty guard takes no step, so every state terminates.
    """
    a_h, c_h = homogenize(rel)
    closed = poly_matrix_power(a_h)
    n_h = rel.n_vars + 1
    if names is None:
        names = [f"x{i}" for i in range(rel.n_vars)]
    guard = Conj.make(guard_rows(rel.guard, names))
    if guard is None or not guard.rationally_feasible():
        return Dnf([Conj.make([])])
    dnf = Dnf()

    for c_row in c_h:
        for r in range(closed.L):
            # P(k) = c_row . A_h^(kL+r) . x_h, polynomial in k with
            # LinTerm coefficients over the start state (x_{N} = 1).
            degree = max(len(closed.polys[r][i][j]) for i in range(n_h) for j in range(n_h))
            coeffs = [LinTerm() for _ in range(degree)]
            for j in range(n_h):
                # coefficient of x_h[j] as a polynomial in k
                poly = [Fraction(0)] * degree
                for i in range(n_h):
                    ci = c_row[i]
                    if ci == 0:
                        continue
                    for d, v in enumerate(closed.polys[r][i][j]):
                        poly[d] += ci * v
                var_term = LinTerm({names[j]: 1}) if j < rel.n_vars else LinTerm({}, 1)
                for d in range(degree):
                    if poly[d] != 0:
                        coeffs[d] = coeffs[d] + poly[d] * var_term
            # drop identically-zero leading coefficients
            while coeffs and not coeffs[-1].coeffs and coeffs[-1].const == 0:
                coeffs.pop()
            for t in range(len(coeffs) - 1, -1, -1):
                rows = [(coeffs[d], EQ) for d in range(t + 1, len(coeffs))]
                rows.append((coeffs[t], LT))
                dnf.add(Conj.make(rows))
    return dnf
