"""Acceleration of octagonal relations through periodicity of their powers.

The tight dual matrices of the powers R^1, R^2, ... of an octagonal
relation form an (eventually) periodic matrix sequence: beyond a prefix b,
matrices a period c apart differ by constant rate matrices.  This module
guesses (b, c) from computed powers, in the order of the highest power
each guess reads, and then *certifies* the guess:

  * at the plain-DBM level, the one-period composition step is replayed on
    the parametric matrix ``base + k*rate`` with the parametric
    Floyd-Warshall closure;
  * the tight sequence is then derived from the certified plain forms by
    the parametric tightening ``pdbm.param_tighten`` (an odd rate on a
    halved entry doubles the period first, so every halving is exact;
    crossovers of two lines in one entry raise the prefix), and finally
    (b, c) is minimized over the c-step differences of the tight forms.

Every relation falls on one side of a dichotomy.  Either R is
*-consistent, and the step is certified for every k >= 0; or R dies: some
power R^dead is empty, and so is every later one.  The death index comes in
closed form from the certified terms, which are affine in k (a negative
cycle of the replayed step, or a failed integer halving sum), so a death at
power 10^7 costs no more than one at power 10.  The step is then certified
on the live powers only, and one concrete composition confirms the death.

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
from .pdbm import ExtParamDbm, entry_min_equals, glue, param_fw, param_tighten
from .term_oct import fast_power


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
        self.rel = t
        self.live = 0  # R^n is non-empty for every n <= live
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

    def empty(self, n: int) -> bool:
        """Is R^n empty?  Past the powers known live, the product of the
        squares of R that ``term_oct`` shares among all powers of R."""
        if n <= max(self.live, max(self.d)):
            return False
        if fast_power(self.rel, n, self.N).is_bottom:
            return True
        self.live = n
        return False

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


def _first_failure(closed: ExtParamDbm, base: Dbm, rate: Dbm) -> int | None:
    """Least k >= 0 at which the replayed step fails, or None if it never does.

    The step at k closes base + k*rate glued to D_c; it holds when the
    glued matrix has no negative cycle and the result is base + (k+1)*rate
    as the pointwise minimum of each entry's terms.  An entry that passes
    ``entry_min_equals`` holds at every k; a target missing from its entry
    fails at once; otherwise each term is affine in k and fails from a
    closed-form k on.
    """
    ks = [_first_negative(*t) for p in range(closed.dim) for t in closed.entries[p][p]]
    half = base.dim // 2
    keep = list(range(half)) + list(range(2 * half, 3 * half))
    for a_idx, p in enumerate(keep):
        for b_idx, q in enumerate(keep):
            terms = closed.entries[p][q]
            tb = base.rows[a_idx][b_idx]
            tr = rate.rows[a_idx][b_idx]
            if tb == INF:
                if terms:
                    return 0
                continue
            target = (tb + tr, tr)  # value at k+1
            if entry_min_equals(terms, target):
                continue  # the minimum is the target at every k
            if target not in terms:
                return 0
            ks += [_first_negative(t0 - target[0], t1 - tr) for t0, t1 in terms]
    return min((k for k in ks if k is not None), default=None)


def _death(closed: ExtParamDbm, base: Dbm, rate: Dbm) -> int | None:
    """Least power, as its k, that the residue predicts empty: a negative
    cycle of the closure at k empties R^(n + (k+1)*c), and a failed halving
    sum of base + k*rate empties R^(n + k*c), with n = b + i."""
    deaths = [k + 1 for p in range(closed.dim) for t in closed.entries[p][p]
              if (k := _first_negative(*t)) is not None]
    for p in range(base.dim):
        a0 = base.rows[p][p ^ 1]
        b0 = base.rows[p ^ 1][p]
        if a0 != INF and b0 != INF:
            k = _halving_death(a0, b0, rate.rows[p][p ^ 1], rate.rows[p ^ 1][p])
            if k is not None:
                deaths.append(k)
    return min(deaths, default=None)


def _verify_dbm_certificate(cache: _PowerCache, b: int, c: int, rates: list[Dbm]):
    """Replay one period on base + k*rate with the parametric closure.

    Returns ``(accepted, dead)``, with dead the least power the certificate
    makes empty, or None.  For each residue i, base + k*rate stands for
    R^(b+i+k*c); it is glued to D_c and closed once.  Without a death, the
    step must hold for every k >= 0.  A step may fail only past the death,
    so R^(b+i+(k+1)*c) must be empty when it fails at k; the death is then
    read off every residue in closed form, each step must hold up to the
    last live power of its residue, and composing the predicted last live
    power with D_c must give an empty power.

    The glued matrix is closed through its 2N middle pivots only, which is
    exact for a composition of two closed operands (see ``param_fw``).
    D_c is closed, and by induction on k so is X(k) = base + k*rate:
    X(0) = D_(b+i) is a closed power; if the replayed steps hold up to k,
    X(k) is the true closed power D_(b+i+k*c), so the closure at k is
    exact.  The first failing k, and the diagonal terms that go negative up
    to it, are therefore those of the closure through every pivot, and so
    are ``_first_failure`` and ``_death`` at every k they read.  The middle
    closure also keeps fewer terms, so it hits ``MAX_ANTICHAIN`` less often
    than the closure through every pivot, which then rejects blindly.
    """
    plain_c = cache.plain(c)
    const = ExtParamDbm.from_dbm(plain_c, 1)
    blk = cache.base.dim // 2  # 2N: the glued matrix has three blocks of 2N
    steps = []
    for i in range(c):
        base, rate = cache.plain(b + i), rates[i]
        closed = param_fw(glue(ExtParamDbm.affine(base, [rate]), const),
                          range(blk, 2 * blk))
        if closed.capped:
            return False, None
        fail = _first_failure(closed, base, rate)
        if fail is not None and not cache.empty(b + i + (fail + 1) * c):
            cache.refute(b + i + (fail + 1) * c)
            return False, None
        steps.append((closed, fail))
    dead = None
    for i, (closed, _) in enumerate(steps):
        k = _death(closed, cache.plain(b + i), rates[i])
        if k is not None and (dead is None or b + i + k * c < dead):
            dead = b + i + k * c
    if dead is None:
        return all(fail is None for _, fail in steps), None
    for i, (_, fail) in enumerate(steps):
        # the steps 0 .. K-1 reach the live powers of the residue
        if fail is not None and fail < (dead - 1 - b - i) // c:
            return False, None
    i, k = (dead - c - b) % c, (dead - c - b) // c
    if k < 0:
        return False, None
    nxt = compose_closed(dbm_add_rate(cache.plain(b + i), rates[i], k), plain_c)
    if nxt is not None and halving_consistent(nxt):
        cache.refute(dead)
        return False, None
    return True, dead


def _derive_tight_tail(cache: _PowerCache, b0: int, c0: int, rates: list[Dbm],
                       dead: int | None):
    """Exact affine forms of the tight sequence from the plain certificate.

    Returns (b_t, c_t, forms): for every power n = b_t + r + j*c_t below
    dead, the tight matrix is ``dbm_add_rate(*forms[r], j)``.  Residue r of
    c_t is the plain form base + (rho + s*j)*rate of residue i0 = r % c0
    (rho = r // c0), tightened by ``param_tighten``; s = 2 when some halved
    rate is odd, so every halving is exact and no case splits.  A tight
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
        step = Dbm([[v if v == INF else s * v for v in row] for row in rates[i0].rows])
        [grid] = param_tighten(ExtParamDbm.affine(base, [step]).entries, dim)
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


def _form_matches(forms, b_t: int, c_t: int, n: int, t: Dbm) -> bool:
    """Is ``_form_at(forms, b_t, c_t, n) == t``?  Compared entry by entry,
    without building the matrix."""
    base, rate = forms[(n - b_t) % c_t]
    j = (n - b_t) // c_t
    for rb, rr, rt in zip(base.rows, rate.rows, t.rows):
        for vb, vr, vt in zip(rb, rr, rt):
            if vt != (INF if vb == INF or vr == INF else vb + j * vr):
                return False
    return True


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

    Certifies the plain-DBM level with the parametric closure, up to the
    death index when R dies, then derives the tight forms, cross-checks
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
    max_b: int = 64,
    max_c: int = 64,
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
    max_b: int = 64,
    max_c: int = 64,
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
