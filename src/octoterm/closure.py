"""Acceleration of octagonal relations through periodicity of their powers.

The tight dual matrices of the powers R^1, R^2, ... of an octagonal
relation form an (eventually) periodic matrix sequence: beyond a prefix b,
matrices a period c apart differ by constant rate matrices.  This module
guesses (b, c) from computed powers, in the order of the highest power
each guess reads, and then *certifies* the guess:

  * at the plain-DBM level, the one-period composition step is replayed on
    base + k*rate with plain integer closures: one closure at a k large
    enough to stand for every k when the step never fails, and otherwise
    a doubling and bisection search for the first k at which it fails;
  * the tight sequence is then derived from the certified plain forms by
    tightening each entry's lines (an odd rate on a halved entry doubles
    the period first, so every halving is exact; crossovers of two lines
    in one entry raise the prefix), and finally (b, c) is minimized over
    the c-step differences of the tight forms.

Every relation falls on one side of a dichotomy.  Either R is
*-consistent, and the step is certified for every k >= 0; or R dies: some
power R^dead is empty, and so is every later one.  The replayed step fails
on an interval of k, and every power before its first failure is the true
one, so the death index is exact, and a death at power 10^7 costs
O(log 10^7) closures.  A failed integer halving of base + k*rate comes in
closed form.

A verified certificate yields the reflexive-transitive closure exactly, as
the identity and a finite union of plain and parametric octagons (a dying
relation's families stop at its last live power).  Budget exhaustion
degrades to None -- never to an unsound answer.
"""

from __future__ import annotations

from typing import NamedTuple

from .dbm import INF, Dbm, compose_closed, dbm_add_rate
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

# The default budgets of the period scan, the largest prefix b and period
# c it tries.  ``program.Budgets`` and so the CLI default to them too.
MAX_PREFIX = MAX_PERIOD = 64


class NotStarConsistent(NamedTuple):
    """R dies at ``power`` and no period certificate covers a live power:
    the scan met the death before it certified a candidate (every candidate
    that reads only live powers was rejected), or the certified tight form
    starts past it.  R* is then the identity and R^1 .. R^(power-1)."""

    power: int  # least n with R^n inconsistent


class PeriodCertificate(NamedTuple):
    """Verified description of the tight power sequence of a relation.

    bases[i] is the tight dual matrix of R^(b+i); for every k >= 0 with
    b+i+k*c < dead the tight matrix of R^(b+i+k*c) equals bases[i] +
    k*rates[i] entrywise (INF entries stay INF and carry rate INF).  dead
    is the least n with R^n empty, or None when R is *-consistent; every
    power from dead on is empty.
    """

    n_program_vars: int
    b: int
    c: int
    bases: list[Dbm]
    rates: list[Dbm]
    dead: int | None = None

    def predict(self, n: int) -> Dbm:
        if n < self.b:
            raise ValueError("certificate covers n >= prefix only")
        if self.dead is not None and n >= self.dead:
            raise ValueError("R^n is empty from the death power on")
        i = (n - self.b) % self.c
        return dbm_add_rate(self.bases[i], self.rates[i], (n - self.b) // self.c)


class ParamOct(NamedTuple):
    """Family of octagons base + k*rate over one parameter 0 <= k <= k_max.

    Entries are tight for every instantiation (certified by construction);
    INF base entries stay INF.  k_max is None for a relation that never
    dies; past k_max the instances are empty.
    """

    n_program_vars: int
    base: Dbm
    rate: Dbm
    k_max: int | None = None

    def __repr__(self) -> str:
        # k_max shows only on a bounded family
        bound = "" if self.k_max is None else f", k_max={self.k_max}"
        return (f"ParamOct(n_program_vars={self.n_program_vars}, base={self.base!r}, "
                f"rate={self.rate!r}{bound})")

    def instantiate(self, k: int) -> Octagon:
        if self.k_max is not None and k > self.k_max:
            return bottom(2 * self.n_program_vars)
        return Octagon(2 * self.n_program_vars, dbm_add_rate(self.base, self.rate, k),
                       tight=True)


class ParamOctUnion(NamedTuple):
    """The identity and a finite union of plain and parametric octagonal
    relations."""

    n_program_vars: int
    members: list
    exact: bool = True


class _PowerCache:
    """Plain-closed dual matrices D_n of R^n, with octagonal consistency."""

    def __init__(self, rel: Octagon, n_program_vars: int):
        self.N = n_program_vars
        t = tight_close(rel)
        self.d: dict[int, Dbm] = {}
        self.t: dict[int, Dbm] = {}
        self.steadies: dict[tuple[int, int], bool] = {}
        self.horizon = 0  # the highest power the scan reads
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

    def refute(self, n: int) -> None:
        """Some candidate's forms miss the live power R^n: compute the
        powers up to n, as far as the horizon, so that later candidates are
        filtered against them."""
        self.ensure(min(n, self.horizon))

    def steady(self, n: int, c: int) -> bool:
        """D(n + c) - D(n) == D(n + 2c) - D(n + c), each pair compared once."""
        key = (n, c)
        if key not in self.steadies:
            self.steadies[key] = _steady(self.d[n], self.d[n + c], self.d[n + 2 * c])
        return self.steadies[key]


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


def _steady(a: Dbm, m: Dbm, z: Dbm) -> bool:
    """Is m - a == z - m, with INF exactly where all three are INF?  That is
    ``_diff(a, m) == _diff(m, z)``, both defined, without building either."""
    for ra, rm, rz in zip(a.rows, m.rows, z.rows):
        if ra == rm == rz:
            continue
        for va, vm, vz in zip(ra, rm, rz):
            if vm == INF:
                if va != INF or vz != INF:
                    return False
            elif va == INF or vz == INF or vm - va != vz - vm:
                return False
    return True


def _scan_candidate(cache: _PowerCache, b: int, c: int):
    """Rates when the period-spaced differences agree over every computed
    power from b on: three times in a row at least, as the powers b .. b +
    4c - 1 must be computed.  A certificate predicts every live power, so
    no candidate dropped here would be accepted."""
    if not all(cache.steady(n, c) for n in range(b, max(cache.d) - 2 * c + 1)):
        return None
    return [_diff(cache.d[b + i], cache.d[b + i + c]) for i in range(c)]


def _first_negative(t0: int, t1: int) -> int | None:
    """Least k >= 0 with t0 + t1*k < 0, or None when there is none."""
    if t0 < 0:
        return 0
    if t1 >= 0:
        return None
    return t0 // -t1 + 1


def _halving_death(a0: int, b0: int, la: int, lb: int) -> int | None:
    """Least k >= 0 with floor((a0 + k*la)/2) + floor((b0 + k*lb)/2) < 0.

    Splitting k = 2j + r makes both floors exact: the sum is g_r + j*(la +
    lb), where g_r is its value at k = r, so the first negative j of each
    parity is ``_first_negative(g_r, la + lb)``.
    """
    best = None
    for r in (0, 1):
        j = _first_negative((a0 + r * la) // 2 + (b0 + r * lb) // 2, la + lb)
        if j is not None and (best is None or 2 * j + r < best):
            best = 2 * j + r
    return best


def _scaled(m: Dbm, s: int) -> Dbm:
    """Entrywise s*m; INF stays INF."""
    return Dbm([[v if v == INF else s * v for v in row] for row in m.rows])


def _first_failure(step, limit: int):
    """``(k, power)`` for the least k in [1, limit] at which the step fails,
    or None when it holds up to limit.  ``step(k)`` returns the closed
    power at k and whether the step fails there.  The step holds at k = 0,
    and when it holds at k = 1 it fails on an interval [k_f, oo); doubling
    from k = 1 and then bisection find k_f in 2*bit_length(k_f - 1) + 1
    steps at most."""
    lo, k = 0, 1
    while True:
        k = min(k, limit)
        if k <= lo:
            return None
        out, failed = step(k)
        if failed:
            break
        lo, k = k, 2 * k
    hi, hi_out = k, out
    while hi - lo > 1:
        mid = (lo + hi) // 2
        out, failed = step(mid)
        if failed:
            hi, hi_out = mid, out
        else:
            lo = mid
    return hi, hi_out


def _replay_residue(cache: _PowerCache, n: int, c: int, rate: Dbm):
    """``(accepted, dead)`` of the step D_n + k*rate -> D_(n+c) + k*rate.

    X(k) = D_n + k*rate stands for D_(n+k*c), and t(k) = D_(n+c) + k*rate
    for D_(n+(k+1)*c).  Each entry of the glued closure of X(k) with D_c
    is the least of finitely many lines a + k*l, one per path through the
    middle block (a middle edge is the lesser of two lines, so each path
    picks one), and every cycle is such a line too.  So the entries and
    the least cycle are concave in k, and the step holds where no cycle is
    negative and the outer blocks are t(k).  At k = 0 the closure is
    D_(n+c): ``compose_closed`` is exact on closed operands, and
    composition is associative.  So every path has a >= t(0), and every
    cycle has a >= 0.

    * The glued matrix has 3*dim/2 rows, so a sum of two paths has at
      most 3*dim edges and an |a| below M/2.  The integer order of codes
      l*M + a is then the order of (l, a) by slope first, the order at
      k -> oo, and the closure at k = M is the closure of those codes.
      When it has no negative cycle and its outer blocks are t(M), every
      path has l >= rate and a >= t(0), some path gives t(k) exactly, and
      every cycle has l >= 0 and a >= 0: the step holds at every k >= 0.
      By induction on k, every X(k) is then the closed power D_(n+k*c).
      R^(n+k*c) is empty from the first k at which the integer halving of
      X(k) fails (``_halving_death``), and the residue dies there, or
      never.
    * Otherwise the step fails at some k below M.  An entry minus t(k) is
      concave and 0 at k = 0: when it is above 0 at some k >= 1 it is
      above 0 at k = 1, and when it is 0 at k = 1 it is at most 0 from
      there on, and 0 on an interval.  The least cycle is concave and
      nonnegative at k = 0.  So the step fails at k = 1, or it holds
      exactly on an interval [0, k_f); ``_first_failure`` finds k_f with
      plain closures at integer k, below the first halving failure.
      X(k_f) is the true power, so a negative cycle or a failed halving at
      k_f empties R^(n+(k_f+1)*c); a live power that differs from t(k_f)
      refutes the candidate.
    """
    base, nxt, plain_c = cache.plain(n), cache.plain(n + c), cache.plain(c)
    last = None  # the least k at which the halving of X(k) fails
    for p in range(base.dim):
        a0, b0 = base.rows[p][p ^ 1], base.rows[p ^ 1][p]
        if a0 != INF and b0 != INF:
            k = _halving_death(a0, b0, rate.rows[p][p ^ 1], rate.rows[p ^ 1][p])
            if k is not None and (last is None or k < last):
                last = k
    big = max((abs(v) for m in (base, rate, plain_c) for row in m.rows for v in row
               if v != INF), default=0)
    M = 6 * base.dim * (big + 1) + 1

    def step(k: int):
        out = compose_closed(dbm_add_rate(base, rate, k), plain_c)
        return out, out is None or not _line_matches(nxt, rate, k, out)

    # a step that holds at k = M holds at every k >= 0
    fail = _first_failure(step, M if last is None else last - 1) if step(M)[1] else None
    if fail is None:
        return True, None if last is None else n + last * c
    k, out = fail
    if out is not None and halving_consistent(out):
        cache.refute(n + (k + 1) * c)
        return False, None
    return True, n + (k + 1) * c


def _verify_dbm_certificate(cache: _PowerCache, b: int, c: int, rates: list[Dbm]):
    """Replay one period on the plain powers, residue by residue.

    Returns ``(accepted, dead)``, with dead the least power the certificate
    makes empty, or None.  Residue i replays D_(b+i) + k*rates[i] for every
    k >= 0 with plain closures (``_replay_residue``): one closure when the
    step never fails, O(log k_f) when it first fails at k_f.  Every power a
    residue reaches is the true one, so each residue's death is exact, and
    the certificate's death is the least of them.
    """
    dead = None
    for i in range(c):
        ok, d = _replay_residue(cache, b + i, c, rates[i])
        if not ok:
            return False, None
        if d is not None and (dead is None or d < dead):
            dead = d
    return True, dead


def _tight_lines(base: Dbm, step: Dbm) -> list[list[tuple]]:
    """The tight closure of the closed matrix base + j*step, for every
    j >= 0, as lines (value at j = 0, slope) per entry.

    Tightening lowers entry (p, q) to the sum of the halved lines of
    (p, bar p) and (bar q, q); every halved slope is even, so each halving
    is exact.  An entry keeps the one of its two lines that is least at
    every j, or both, in order of value (and so of falling slope), when
    they cross; () where neither is finite.
    """
    halves = [None if row[p ^ 1] == INF else (row[p ^ 1] // 2, srow[p ^ 1] // 2)
              for p, (row, srow) in enumerate(zip(base.rows, step.rows))]
    grid = []
    for p, (row, srow) in enumerate(zip(base.rows, step.rows)):
        hp = halves[p]
        cells = []
        for q, line in enumerate(zip(row, srow)):
            hq = halves[q ^ 1]
            h = None if hp is None or hq is None else (hp[0] + hq[0], hp[1] + hq[1])
            if line[0] == INF:
                cells.append(() if h is None else (h,))
            elif h is None or (line[0] <= h[0] and line[1] <= h[1]):
                cells.append((line,))
            elif h[0] <= line[0] and h[1] <= line[1]:
                cells.append((h,))
            else:
                cells.append(tuple(sorted((line, h))))
        grid.append(cells)
    return grid


def _derive_tight_tail(cache: _PowerCache, b0: int, c0: int, rates: list[Dbm],
                       dead: int | None):
    """Exact affine forms of the tight sequence from the plain certificate.

    Returns (b_t, c_t, forms): for every power n = b_t + r + j*c_t below
    dead, the tight matrix is ``dbm_add_rate(*forms[r], j)``.  Residue r of
    c_t is the plain form base + (rho + s*j)*rate of residue i0 = r % c0
    (rho = r // c0), tightened entrywise by ``_tight_lines``; s = 2 when
    some halved rate is odd, so every halving is exact.  A tight
    entry is then one line or the minimum of two lines a1 + j*l1 and
    a2 + j*l2 with a1 < a2 and l1 > l2, which cross once.  When R dies and
    the first line is still least at the residue's last live power, it is
    least at every live power; otherwise the prefix is raised past the
    crossover, where the second line is least.
    """
    dim = cache.base.dim
    s = 2 if any(rate.rows[p][p ^ 1] != INF and rate.rows[p][p ^ 1] % 2
                 for rate in rates for p in range(dim)) else 1
    c_t = s * c0
    J = 0
    grids = []
    for r in range(c_t):
        i0, rho = r % c0, r // c0
        base = dbm_add_rate(cache.plain(b0 + i0), rates[i0], rho)
        grid = _tight_lines(base, _scaled(rates[i0], s))
        # the scan saw R^(b0 + 4*c0 - 1) live, so last >= 1
        last = None if dead is None else (dead - 1 - b0 - r) // c_t
        for row in grid:
            for q, terms in enumerate(row):
                if len(terms) == 2:
                    (a1, l1), (a2, l2) = terms
                    if last is not None and a1 + last * l1 <= a2 + last * l2:
                        row[q] = terms[:1]
                    else:
                        J = max(J, -(-(a2 - a1) // (l1 - l2)) + 1)  # past the crossover
                        row[q] = terms[1:]
        grids.append(grid)
    forms = [(Dbm([[INF if not t else t[0][0] + J * t[0][1] for t in row] for row in grid]),
              Dbm([[INF if not t else t[0][1] for t in row] for row in grid]))
             for grid in grids]
    return b0 + J * c_t, c_t, forms


def _form_at(forms, b_t: int, c_t: int, n: int) -> Dbm:
    """The tight matrix the forms give at power n >= b_t."""
    base, rate = forms[(n - b_t) % c_t]
    return dbm_add_rate(base, rate, (n - b_t) // c_t)


def _line_matches(base: Dbm, rate: Dbm, j: int, t: Dbm) -> bool:
    """Is ``dbm_add_rate(base, rate, j) == t``?  Compared entry by entry,
    without building the matrix."""
    for rb, rr, rt in zip(base.rows, rate.rows, t.rows):
        for vb, vr, vt in zip(rb, rr, rt):
            if vt != (INF if vb == INF or vr == INF else vb + j * vr):
                return False
    return True


def _form_matches(forms, b_t: int, c_t: int, n: int, t: Dbm) -> bool:
    """Is ``_form_at(forms, b_t, c_t, n) == t``?"""
    base, rate = forms[(n - b_t) % c_t]
    return _line_matches(base, rate, (n - b_t) // c_t, t)


def _minimize(cache: _PowerCache, b_t: int, c_t: int, forms):
    """Smallest (b, c) consistent with the certified tail and the cache.

    The c-step difference D(n) = T(n + c) - T(n) of the tight sequence T
    is affine in j on each residue r of n = b_t + r + j*c_t, and so is
    D(n + c) - D(n); it vanishes for all n >= b_t once it vanishes at j = 0
    and j = 1, that is, over [b_t, b_t + 2*c_t).  c = c_t always passes.
    """
    tvals: dict[int, Dbm] = {}

    def tval(n: int) -> Dbm:
        if n not in tvals:
            tvals[n] = _form_at(forms, b_t, c_t, n) if n >= b_t else cache.tight(n)
        return tvals[n]

    def repeats(n: int, c: int) -> bool:
        # ``_diff(T(n), T(n + c)) == _diff(T(n + c), T(n + 2c))``, both defined
        return _steady(tval(n), tval(n + c), tval(n + 2 * c))

    c = next((c for c in range(1, c_t)
              if c_t % c == 0 and all(repeats(n, c) for n in range(b_t, b_t + 2 * c_t))), c_t)
    b = b_t
    while b > 1 and repeats(b - 1, c):
        b -= 1
    if (b, c) == (b_t, c_t):
        return b, c, [base for base, _ in forms], [rate for _, rate in forms]
    bases = [tval(b + i) for i in range(c)]
    return b, c, bases, [_diff(tval(b + i), tval(b + i + c)) for i in range(c)]


def _certify(cache: _PowerCache, b: int, c: int):
    """The certificate that candidate (b, c) yields, or NotStarConsistent,
    or None when the candidate is rejected.  The powers up to b + 4c - 1
    must be computed.

    Certifies the plain-DBM level with plain closures, up to the death
    index when R dies, then derives the tight forms, cross-checks
    them against the computed live tight powers and minimizes them."""
    rates_d = _scan_candidate(cache, b, c)
    if rates_d is None:
        return None
    ok, dead = _verify_dbm_certificate(cache, b, c, rates_d)
    if not ok:
        return None
    b_t, c_t, forms = _derive_tight_tail(cache, b, c, rates_d, dead)
    top_n = b_t + 3 * c_t + 1
    if dead is not None:
        if b_t >= dead:
            # the tight form starts past the death: no live power needs
            # it, and the relation is its list of powers
            return NotStarConsistent(dead)
        top_n = min(top_n, dead - 1)
    if not cache.ensure(top_n):
        return NotStarConsistent(cache.dead)
    if not all(_form_matches(forms, b_t, c_t, n, cache.tight(n))
               for n in range(b_t, top_n + 1)):
        return None
    bm, cm, bases, rates = _minimize(cache, b_t, c_t, forms)
    return PeriodCertificate(cache.N, bm, cm, bases, rates, dead)


def detect_period(
    rel: Octagon,
    n_program_vars: int,
    max_b: int = MAX_PREFIX,
    max_c: int = MAX_PERIOD,
    cache: _PowerCache | None = None,
):
    """Certificate for the tight power sequence, or NotStarConsistent, or
    None when no candidate within the budget is certified.

    Tries the candidates (b, c), b <= max_b and c <= max_c, with
    ``_certify``.  A candidate reads the powers up to need = b + 4c - 1, so
    the candidates go by rising need, and by rising c within one need: a
    power is computed only once some candidate reads it, and a relation of
    period 5 builds about 20 powers, not the 67 that the b <= 64 of c = 1
    would read first.  When R dies at power d, every candidate that reads
    only live powers has been tried once the scan needs R^d.  A candidate
    whose replay fails at a live power has the powers up to it computed
    (``_PowerCache.refute``, as far as the highest need), and
    ``_scan_candidate`` compares the differences over every computed power,
    so one failure drops the later candidates that it refutes too.

    ``cache`` is the power cache of ``rel`` to scan with, by default a new
    one; a caller that passes its own can read the powers computed.
    """
    if cache is None:
        cache = _PowerCache(rel, n_program_vars)
    if cache.dead is not None:
        return NotStarConsistent(cache.dead)
    cache.horizon = max_b + 4 * max_c - 1
    for need in range(4, cache.horizon + 1):
        if not cache.ensure(need):
            return NotStarConsistent(cache.dead)
        for c in range(max(1, -(-(need + 1 - max_b) // 4)), min(max_c, need // 4) + 1):
            res = _certify(cache, need - 4 * c + 1, c)
            if res is not None:
                return res
    return None


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


def reflexive_transitive_closure(
    rel: Octagon,
    n_program_vars: int,
    max_b: int = MAX_PREFIX,
    max_c: int = MAX_PERIOD,
) -> ParamOctUnion:
    """R* as identity plus finitely many plain/parametric octagons.

    The members are the powers R^1 .. R^(p-1), p = min(b, dead), then one
    ParamOct per residue of the period that covers a live power; a family
    of a dying relation stops at the last live k.  A relation that dies
    before the scan certifies a candidate is its list of powers.  The
    powers are the tight ones the scan of ``detect_period`` computed, read
    from its cache (the scan reads every power below b, and below dead).
    Exact whenever a certificate is found or the relation dies; otherwise
    falls back to the universal relation with exact=False.
    """
    N = n_program_vars
    cache = _PowerCache(rel, N)
    res = detect_period(rel, N, max_b, max_c, cache)
    if res is None:
        return ParamOctUnion(N, [top(2 * N)], exact=False)
    families: list = []
    if isinstance(res, NotStarConsistent):
        b = dead = res.power
    else:
        b, dead = res.b, res.dead
        for i in range(res.c):
            k_max = None if dead is None else (dead - 1 - b - i) // res.c
            if k_max is None or k_max >= 0:
                families.append(ParamOct(N, res.bases[i], res.rates[i], k_max))
    last = b if dead is None else min(b, dead)
    members = [Octagon(2 * N, cache.tight(n), tight=True) for n in range(1, last)]
    return ParamOctUnion(N, members + families, exact=True)
