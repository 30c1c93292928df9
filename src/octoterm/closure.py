"""Acceleration of octagonal relations through periodicity of their powers.

The tight dual matrices of the powers R^1, R^2, ... of an octagonal
relation form an (eventually) periodic matrix sequence: beyond a prefix b,
matrices a period c apart differ by constant rate matrices.  This module
guesses (b, c) from computed powers and then *certifies* the guess:

  * at the plain-DBM level, the one-period composition step is replayed on
    the parametric matrix ``base + k*rate`` with the parametric
    Floyd-Warshall closure; the certificate is accepted only if the result
    collapses back to ``base + (k+1)*rate`` for every k >= 0;
  * the tight sequence is then derived symbolically from the certified
    plain forms (halving an odd-rate entry splits the parameter by parity
    and doubles the period; min-of-affine crossovers raise the prefix),
    and finally (b, c) is minimized.

A verified certificate yields exact closed forms for the pre-image sets,
the weakest non-termination set, and the reflexive-transitive closure as a
finite union of plain and parametric octagons.  Budget exhaustion degrades
to an explicit NotFound -- never to an unsound answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .dbm import INF, Dbm, compose_closed
from .octagon import (
    Octagon,
    bottom,
    halving_consistent,
    oct_compose,
    pre_image_set,
    tight_close,
    tighten,
    top,
)
from .pdbm import ExtParamDbm, ParamTerm, entry_min_equals, param_fw
from . import pdbm as _pdbm


class OperationCancelled(Exception):
    pass


@dataclass(frozen=True)
class NotStarConsistent:
    power: int  # least n with R^n inconsistent


@dataclass(frozen=True)
class NotFound:
    reason: str = "budget exhausted"


@dataclass
class PeriodCertificate:
    """Verified description of the tight power sequence of a relation.

    bases[i] is the tight dual matrix of R^(b+i); for every k >= 0 the
    tight matrix of R^(b+i+k*c) equals bases[i] + k*rates[i] entrywise
    (INF entries stay INF and carry rate INF).
    """

    n_program_vars: int
    b: int
    c: int
    bases: list[Dbm]
    rates: list[Dbm]

    def predict(self, n: int) -> Dbm:
        if n < self.b:
            raise ValueError("certificate covers n >= prefix only")
        i = (n - self.b) % self.c
        k = (n - self.b) // self.c
        base = self.bases[i]
        rate = self.rates[i]
        rows = []
        for rb, rr in zip(base.rows, rate.rows):
            rows.append(
                [
                    INF if vb == INF else vb + k * vr
                    for vb, vr in zip(rb, rr)
                ]
            )
        return Dbm(rows)


@dataclass(frozen=True)
class ParamOct:
    """Family of octagons base + k*rate over one parameter k >= 0.

    Entries are tight for every instantiation (certified by construction);
    INF base entries stay INF.
    """

    n_program_vars: int
    base: Dbm
    rate: Dbm

    def instantiate(self, k: int) -> Octagon:
        rows = [
            [INF if vb == INF else vb + k * vr for vb, vr in zip(rb, rr)]
            for rb, rr in zip(self.base.rows, self.rate.rows)
        ]
        return Octagon(2 * self.n_program_vars, Dbm(rows), tight=True)


@dataclass
class ParamOctUnion:
    """Finite union of plain and parametric octagonal relations."""

    n_program_vars: int
    members: list
    reflexive: bool = False
    exact: bool = True


class _PowerCache:
    """Plain-closed dual matrices D_n of R^n, with octagonal consistency."""

    def __init__(self, rel: Octagon, n_program_vars: int, cancel=None):
        self.N = n_program_vars
        self.cancel = cancel
        t = tight_close(rel)
        self.d: dict[int, Dbm] = {}
        self.t: dict[int, Dbm] = {}
        self.dead: int | None = None  # least inconsistent power
        if t.is_bottom:
            self.dead = 1
        else:
            self.base = t.dbm
            self.d[1] = t.dbm
            self.t[1] = t.dbm  # already tight

    def ensure(self, n: int) -> bool:
        """Compute D/T up to n; False if some power <= n is inconsistent."""
        if self.dead is not None and self.dead <= n:
            return False
        top_n = max(self.d) if self.d else 0
        while top_n < n:
            if self.cancel is not None and self.cancel():
                raise OperationCancelled()
            nxt = compose_closed(self.d[top_n], self.base)
            top_n += 1
            if nxt is None or not halving_consistent(nxt):
                self.dead = top_n
                return False
            self.d[top_n] = nxt
            self.t[top_n] = tighten(nxt)
        return True

    def tight(self, n: int) -> Dbm:
        self.ensure(n)
        return self.t[n]

    def plain(self, n: int) -> Dbm:
        self.ensure(n)
        return self.d[n]


def _diff(a: Dbm, b: Dbm):
    """Rate matrix b - a; None on INF/finite mismatch (INF-INF rate is INF)."""
    rows = []
    for ra, rb in zip(a.rows, b.rows):
        row = []
        for va, vb in zip(ra, rb):
            if va == INF and vb == INF:
                row.append(INF)
            elif va == INF or vb == INF:
                return None
            else:
                row.append(vb - va)
        rows.append(row)
    return Dbm(rows)


def _scan_candidate(seq, b: int, c: int):
    """Rates when three consecutive period-spaced differences agree."""
    rates = []
    for i in range(c):
        d1 = _diff(seq(b + i), seq(b + i + c))
        if d1 is None:
            return None
        d2 = _diff(seq(b + i + c), seq(b + i + 2 * c))
        if d2 is None or d2.rows != d1.rows:
            return None
        d3 = _diff(seq(b + i + 2 * c), seq(b + i + 3 * c))
        if d3 is None or d3.rows != d1.rows:
            return None
        rates.append(d1)
    return rates


def _verify_dbm_certificate(cache: _PowerCache, b: int, c: int, rates: list[Dbm]) -> bool:
    """Replay one period on base + k*rate with the parametric closure.

    Accepts iff, for each residue, composing the parametric matrix with D_c
    yields exactly base + (k+1)*rate as the pointwise minimum for all k >= 0.
    """
    dc = cache.plain(c)
    half = dc.dim // 2
    for i in range(c):
        base = cache.plain(b + i)
        rate = rates[i]
        pm = ExtParamDbm.affine(base, [rate])
        const = ExtParamDbm.from_dbm(dc, 1)
        dim3 = 3 * half
        entries = [[() for _ in range(dim3)] for _ in range(dim3)]
        for x in range(half):
            for y in range(half):
                entries[x][y] = pm.entries[x][y]
                entries[x][half + y] = pm.entries[x][half + y]
                entries[half + x][y] = pm.entries[half + x][y]
                mid = _pdbm.min_terms(
                    pm.entries[half + x][half + y] + const.entries[x][y]
                )
                entries[half + x][half + y] = mid
                entries[half + x][2 * half + y] = const.entries[x][half + y]
                entries[2 * half + x][half + y] = const.entries[half + x][y]
                entries[2 * half + x][2 * half + y] = const.entries[half + x][half + y]
        glued = ExtParamDbm(dim3, 1, entries)
        closed = param_fw(glued)
        if closed.capped:
            return False
        target_base = cache.plain(b + i)
        keep = list(range(half)) + list(range(2 * half, dim3))
        for a_idx, p in enumerate(keep):
            for b_idx, q in enumerate(keep):
                terms = closed.entries[p][q]
                tb = target_base.rows[a_idx][b_idx]
                tr = rate.rows[a_idx][b_idx]
                if tb == INF:
                    if terms:
                        return False
                    continue
                target = ParamTerm((tr,), tb + tr)  # value at k+1
                if not terms or not entry_min_equals(terms, target):
                    return False
    return True


def _check_tail_consistency(cache: _PowerCache, b: int, c: int, rates: list[Dbm]):
    """Halving consistency of base + k*rate for all k; least failure or None.

    The parametric diagonal is zero by the certificate, so only the integer
    halving condition can break octagonal consistency in the tail.
    """
    worst = None
    for i in range(c):
        base = cache.plain(b + i)
        rate = rates[i]
        dim = base.dim
        for p in range(dim):
            a0 = base.rows[p][p ^ 1]
            b0 = base.rows[p ^ 1][p]
            if a0 == INF or b0 == INF:
                continue
            la = rate.rows[p][p ^ 1]
            lb = rate.rows[p ^ 1][p]

            def f(k: int) -> int:
                return (a0 + k * la) // 2 + (b0 + k * lb) // 2

            if la + lb >= 0:
                if f(0) < 0 or f(1) < 0:
                    k_bad = 0 if f(0) < 0 else 1
                    n_bad = b + i + k_bad * c
                    worst = n_bad if worst is None else min(worst, n_bad)
                continue
            k = 0
            while f(k) >= 0:
                k += 1
            n_bad = b + i + k * c
            worst = n_bad if worst is None else min(worst, n_bad)
    return worst


def _derive_tight_tail(cache: _PowerCache, b0: int, c0: int, rates: list[Dbm]):
    """Exact affine forms of the tight sequence from the plain certificate.

    Returns (b_t, c_t, forms) with forms[r][p][q] = (A, B) meaning the tight
    entry at power b_t + r + j*c_t equals A + j*B (or INF marker).
    """
    dim = cache.base.dim
    s = 1
    for i in range(c0):
        for p in range(dim):
            lam = rates[i].rows[p][p ^ 1]
            if lam != INF and lam % 2 != 0:
                s = 2
    c_t = s * c0

    def d_form(r: int, p: int, q: int):
        """Plain entry at power b0 + r + j*c_t as (A, B), or None for INF."""
        i0 = r % c0
        rho = r // c0
        base = cache.plain(b0 + i0).rows[p][q]
        if base == INF:
            return None
        lam = rates[i0].rows[p][q]
        return (base + rho * lam, s * lam)

    # crossover prefix: past J, the min of the two affine branches is fixed
    J = 0
    tight_forms = []
    for r in range(c_t):
        grid = [[None] * dim for _ in range(dim)]
        for p in range(dim):
            fp = d_form(r, p, p ^ 1)
            for q in range(dim):
                f1 = d_form(r, p, q)
                fq = d_form(r, q ^ 1, q)
                f2 = None
                if fp is not None and fq is not None:
                    # halves: rates even here by construction of s
                    a1, l1 = fp
                    a2, l2 = fq
                    assert l1 % 2 == 0 and l2 % 2 == 0
                    f2 = (a1 // 2 + a2 // 2, l1 // 2 + l2 // 2)
                if f1 is None and f2 is None:
                    grid[p][q] = None
                    continue
                if f1 is None or f2 is None:
                    grid[p][q] = f1 if f2 is None else f2
                    continue
                (A1, B1), (A2, B2) = f1, f2
                if B1 == B2:
                    grid[p][q] = (min(A1, A2), B1)
                    continue
                # min of two affine lines: settle past the crossover
                # g(j) = (A1 - A2) + j*(B1 - B2) sign fixed for j > j0
                dA, dB = A1 - A2, B1 - B2
                j0 = max(0, -(-(abs(dA)) // abs(dB)) + 1)  # ceil(|dA|/|dB|)+1
                J = max(J, j0)
                grid[p][q] = ("min", f1, f2)
        tight_forms.append(grid)
    # shift prefix past all crossovers and materialize single affine forms
    b_t = b0 + J * c_t
    forms = []
    for r in range(c_t):
        grid = [[None] * dim for _ in range(dim)]
        for p in range(dim):
            for q in range(dim):
                f = tight_forms[r][p][q]
                if f is None:
                    grid[p][q] = None
                    continue
                if f[0] == "min":
                    _, (A1, B1), (A2, B2) = f
                    v1 = A1 + J * B1
                    v2 = A2 + J * B2
                    if v1 < v2 or (v1 == v2 and B1 <= B2):
                        A, B = v1, B1
                    else:
                        A, B = v2, B2
                    grid[p][q] = (A, B)
                else:
                    A, B = f
                    grid[p][q] = (A + J * B, B)
        forms.append(grid)
    return b_t, c_t, forms


def _minimize(cache: _PowerCache, b_t: int, c_t: int, forms, max_n: int):
    """Smallest (b, c) consistent with the certified tail and the cache."""
    dim = cache.base.dim

    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    c_min = c_t
    for c in divisors(c_t):
        if c == c_t:
            break
        ok = True
        for r in range(c_t):
            r2 = (r + c) % c_t
            carry = (r + c) // c_t
            for p in range(dim):
                for q in range(dim):
                    f1 = forms[r][p][q]
                    f2 = forms[r2][p][q]
                    if (f1 is None) != (f2 is None):
                        ok = False
                        break
                    if f1 is None:
                        continue
                    if f1[1] != f2[1]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        # rate per orbit must be a single constant: delta(n) = v(n+c)-v(n)
        # with matching slopes is A_{r2} - A_r + carry*B, constant per r;
        # all r in the same orbit mod c must give the same delta matrix.
        orbits_ok = True
        for rho in range(c):
            delta0 = None
            r = rho
            seen = set()
            while r not in seen:
                seen.add(r)
                d_mat = []
                for p in range(dim):
                    row = []
                    for q in range(dim):
                        f1 = forms[r][p][q]
                        if f1 is None:
                            row.append(INF)
                        else:
                            r2 = (r + c) % c_t
                            carry = (r + c) // c_t
                            f2 = forms[r2][p][q]
                            row.append(f2[0] - f1[0] + carry * f1[1])
                    d_mat.append(row)
                if delta0 is None:
                    delta0 = d_mat
                elif d_mat != delta0:
                    orbits_ok = False
                    break
                r = (r + c) % c_t
            if not orbits_ok:
                break
        if orbits_ok:
            c_min = c
            break

    # smallest prefix: delta(n) must repeat with period c_min from b on
    def tval(n: int) -> Dbm:
        if n >= b_t:
            r = (n - b_t) % c_t
            j = (n - b_t) // c_t
            rows = []
            for p in range(dim):
                row = []
                for q in range(dim):
                    f = forms[r][p][q]
                    row.append(INF if f is None else f[0] + j * f[1])
                rows.append(row)
            return Dbm(rows)
        return cache.tight(n)

    def delta(n: int):
        return _diff(tval(n), tval(n + c_min))

    b = b_t
    while b > 1:
        d1 = delta(b - 1)
        d2 = delta(b - 1 + c_min)
        if d1 is None or d2 is None or d1.rows != d2.rows:
            break
        b -= 1
    bases = [tval(b + i) for i in range(c_min)]
    rates = [delta(b + i) for i in range(c_min)]
    if any(r is None for r in rates):
        return None
    return b, c_min, bases, rates


def detect_period(
    rel: Octagon,
    n_program_vars: int,
    max_b: int = 64,
    max_c: int = 64,
    cancel: Callable[[], bool] | None = None,
):
    """Certificate for the tight power sequence, or NotFound/NotStarConsistent.

    Scans computed powers for a (prefix, period) pair whose period-spaced
    differences agree three times in a row, certifies the plain-DBM level
    with the parametric closure, symbolically checks consistency of the
    whole tail, then derives and minimizes the tight certificate.
    """
    cache = _PowerCache(rel, n_program_vars, cancel)
    if cache.dead is not None:
        return NotStarConsistent(cache.dead)

    for c in range(1, max_c + 1):
        for b in range(1, max_b + 1):
            need = b + 3 * c
            if not cache.ensure(need):
                return NotStarConsistent(cache.dead)
            rates_d = _scan_candidate(cache.plain, b, c)
            if rates_d is None:
                continue
            if not _verify_dbm_certificate(cache, b, c, rates_d):
                continue
            bad = _check_tail_consistency(cache, b, c, rates_d)
            if bad is not None:
                if cache.ensure(bad):
                    # symbolic prediction disagreed with concrete powers
                    return NotFound("tail inconsistency prediction failed")
                return NotStarConsistent(cache.dead)
            b_t, c_t, forms = _derive_tight_tail(cache, b, c, rates_d)
            if not cache.ensure(b_t + 3 * c_t + 1):
                return NotStarConsistent(cache.dead)
            # cross-check derived forms against every cached tight power
            top_n = b_t + 3 * c_t + 1
            ok = True
            for n in range(b_t, top_n + 1):
                r = (n - b_t) % c_t
                j = (n - b_t) // c_t
                got = cache.tight(n)
                for p in range(got.dim):
                    for q in range(got.dim):
                        f = forms[r][p][q]
                        want = INF if f is None else f[0] + j * f[1]
                        if got.rows[p][q] != want:
                            ok = False
            if not ok:
                continue
            minimized = _minimize(cache, b_t, c_t, forms, top_n)
            if minimized is None:
                continue
            bm, cm, bases, rates = minimized
            return PeriodCertificate(n_program_vars, bm, cm, bases, rates)
    return NotFound()


def kleene_pre_sequence(rel: Octagon, n: int, n_program_vars: int) -> list[Octagon]:
    """[pre^1 .. pre^n] of the universal set, as octagons over the unprimed."""
    out = []
    rel = tight_close(rel)
    power = rel
    for _ in range(n):
        out.append(pre_image_set(power, n_program_vars) if not power.is_bottom
                   else bottom(n_program_vars))
        power = oct_compose(power, rel, n_program_vars)
    return out


@dataclass(frozen=True)
class ClosedForm:
    """Bounds u <= a_u + d_u*k on the pre-image subsequence pre^(b+kc)."""

    n_program_vars: int
    b: int
    c: int
    terms: dict  # (p, q) dual top-left index -> (a_u, d_u)


def pre_closed_form(rel: Octagon, n_program_vars: int, max_b: int = 64, max_c: int = 64):
    """Closed form of {pre^(b+kc)}; None when some power is inconsistent."""
    res = detect_period(rel, n_program_vars, max_b, max_c)
    if isinstance(res, NotStarConsistent):
        return None
    if isinstance(res, NotFound):
        return res
    half = 2 * n_program_vars
    base = res.bases[0]
    rate = res.rates[0]
    terms = {}
    for p in range(half):
        for q in range(half):
            if p == q or base.rows[p][q] == INF:
                continue
            d_u = rate.rows[p][q]
            if d_u > 0:
                raise AssertionError("pre-image bound increased along the chain")
            terms[(p, q)] = (base.rows[p][q], d_u)
    return ClosedForm(n_program_vars, res.b, res.c, terms)


def wnt_via_closed_form(rel: Octagon, n_program_vars: int, max_b: int = 64, max_c: int = 64):
    """Greatest fixpoint of the pre-image via the closed form (cross-check)."""
    cf = pre_closed_form(rel, n_program_vars, max_b, max_c)
    if cf is None:
        return bottom(n_program_vars)
    if isinstance(cf, NotFound):
        return cf
    if any(d < 0 for (_, d) in cf.terms.values()):
        return bottom(n_program_vars)
    seq = kleene_pre_sequence(rel, cf.b, n_program_vars)
    return seq[cf.b - 1]


def reflexive_transitive_closure(
    rel: Octagon,
    n_program_vars: int,
    max_b: int = 64,
    max_c: int = 64,
    cancel: Callable[[], bool] | None = None,
) -> ParamOctUnion:
    """R* as identity plus finitely many plain/parametric octagons.

    Exact whenever a certificate is found or the relation dies at a finite
    power; otherwise falls back to the universal relation with exact=False.
    """
    N = n_program_vars
    res = detect_period(rel, N, max_b, max_c, cancel)
    members: list = []
    rel = tight_close(rel)
    if isinstance(res, NotStarConsistent):
        power = rel
        for _ in range(1, res.power):
            if power.is_bottom:
                break
            members.append(power)
            power = oct_compose(power, rel, N)
        return ParamOctUnion(N, members, reflexive=True, exact=True)
    if isinstance(res, NotFound):
        return ParamOctUnion(N, [top(2 * N)], reflexive=True, exact=False)
    power = rel
    for _ in range(1, res.b):
        members.append(power)
        power = oct_compose(power, rel, N)
    for i in range(res.c):
        members.append(ParamOct(N, res.bases[i], res.rates[i]))
    return ParamOctUnion(N, members, reflexive=True, exact=True)
