import random

import pytest

from octoterm import closure as closure_module
from octoterm import pdbm
from octoterm.closure import (
    NotStarConsistent,
    ParamOct,
    PeriodCertificate,
    detect_period,
    kleene_pre_sequence,
    reflexive_transitive_closure,
)
from octoterm.dbm import INF, Dbm, compose_closed, dbm_add_rate
from octoterm.octagon import (
    Octagon,
    bottom,
    oct_compose,
    oct_encode,
    oct_eq,
    oct_leq,
    tight_close,
)
from octoterm.pdbm import ExtParamDbm
from octoterm.term_oct import wnt

import helpers
from helpers import (
    flip_decrement_relation,
    param_tighten,
    periodic_relation,
    random_guarded_relation,
    random_oct_relation,
    reference_verify_dbm_certificate,
)


def guarded_decrement():
    # x >= 0 and x' = x - 1
    return oct_encode([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2)


def test_detect_period_periodic_example():
    cert = detect_period(periodic_relation(), 4)
    assert isinstance(cert, PeriodCertificate)
    assert cert.b == 3 and cert.c == 3
    lam = [[cert.rates[0].rows[2 * i][2 * j] for j in range(4)] for i in range(4)]
    want = [
        [0, INF, INF, -1],
        [INF, 0, INF, -1],
        [INF, INF, 0, -1],
        [INF, INF, INF, 0],
    ]
    assert lam == want
    for i in range(1, cert.c):
        lam_i = [[cert.rates[i].rows[2 * a][2 * b] for b in range(4)] for a in range(4)]
        assert lam_i == want


def test_detect_period_decrement_no_guard():
    r = oct_encode([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1)], 2)
    cert = detect_period(r, 1)
    assert isinstance(cert, PeriodCertificate)
    assert cert.b == 1 and cert.c == 1
    # bound pair (x, x') decreases at rate -1, (x', x) grows at rate +1
    assert cert.rates[0].rows[2][0] == -1
    assert cert.rates[0].rows[0][2] == 1


def test_detect_period_guarded_decrement_star_consistent():
    cert = detect_period(guarded_decrement(), 1)
    assert isinstance(cert, PeriodCertificate)


def test_detect_period_reports_death():
    # x >= 0, x' = x-1, x <= 1: third power is empty
    r = oct_encode(
        [(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0), (1, 0, 1, 0, 2)], 2
    )
    res = detect_period(r, 1)
    assert res == NotStarConsistent(power=3)


def test_certificate_predicts_iterated_powers():
    rng = random.Random(31)
    checked = 0
    for _ in range(25):
        r = random_guarded_relation(rng, 2)
        cert = detect_period(r, 2, max_b=24, max_c=8)
        if not isinstance(cert, PeriodCertificate):
            continue
        checked += 1
        power = tight_close(r)
        n = 1
        while n <= 25:
            if not power.is_bottom and n >= cert.b:
                assert cert.predict(n).rows == power.dbm.rows, f"n={n}"
            power = oct_compose(power, r, 2)
            n += 1
    assert checked >= 5


def predicts(powers, b: int, c: int, top: int) -> bool:
    """Do the bases T(b+i) and rates T(b+i+c) - T(b+i), i < c, give every
    tight power T(n) for n in [b, top]?  INF must meet INF."""
    for n in range(b, top + 1):
        i, k = (n - b) % c, (n - b) // c
        base, nxt = powers[b + i], powers[b + i + c]
        for rb, rn, rt in zip(base.rows, nxt.rows, powers[n].rows):
            for vb, vn, vt in zip(rb, rn, rt):
                if INF in (vb, vn, vt):
                    if not vb == vn == vt:
                        return False
                elif vb + k * (vn - vb) != vt:
                    return False
    return True


def test_tight_forms_predict_the_powers_and_are_minimal(monkeypatch):
    """Random guarded and unstructured relations over N <= 2 (odd rates,
    dying relations and a period below the derived one among them) and the
    periodic example: every certificate predicts the iterated tight powers,
    and where all of [b - 1, b + 4c] is live, neither (b - 1, c) nor (b, c')
    for a proper divisor c' of c does.  Both ways of settling an entry that
    is the minimum of two crossing lines run: past the crossover (the line
    of lesser slope, the prefix raised) and, when R dies first, on the line
    that is least at every live power."""
    derive, tighten = closure_module._derive_tight_tail, closure_module._tight_lines
    grids, last = [], {}

    def spy_tighten(base, step):
        grid = tighten(base, step)
        grids.append([list(row) for row in grid])
        return grid

    def spy_derive(cache, b0, c0, rates, dead):
        grids.clear()
        b_t, c_t, forms = derive(cache, b0, c0, rates, dead)
        last.update(b0=b0, c0=c0, b_t=b_t, c_t=c_t, forms=forms, grids=list(grids))
        return b_t, c_t, forms

    monkeypatch.setattr(closure_module, "_tight_lines", spy_tighten)
    monkeypatch.setattr(closure_module, "_derive_tight_tail", spy_derive)
    rng = random.Random(41)
    cases = [(periodic_relation(), 4)]
    for _ in range(200):
        n_vars = rng.choice((1, 2))
        cases.append((random_guarded_relation(rng, n_vars, max_coef=rng.choice((4, 20, 40))),
                      n_vars))
    for _ in range(300):
        n_vars = rng.choice((1, 2))
        cases.append((random_oct_relation(rng, n_vars), n_vars))
    seen = {"cert": 0, "minimal": 0, "odd": 0, "dying": 0, "period_cut": 0,
            "crossover": 0, "death": 0}
    for r, n_vars in cases:
        cert = detect_period(r, n_vars, max_b=24, max_c=8)
        if not isinstance(cert, PeriodCertificate):
            continue
        seen["cert"] += 1
        seen["odd"] += last["c_t"] == 2 * last["c0"]
        seen["dying"] += cert.dead is not None
        seen["period_cut"] += cert.c < last["c_t"]
        for res, grid in enumerate(last["grids"]):
            for p, row in enumerate(grid):
                for q, terms in enumerate(row):
                    if len(terms) == 2:  # (a1, l1), (a2, l2) with l1 > l2
                        kept = last["forms"][res][1].rows[p][q]
                        if kept == terms[0][1]:
                            assert cert.dead is not None  # only a death keeps l1
                            seen["death"] += 1
                        else:
                            assert kept == terms[1][1] and last["b_t"] > last["b0"]
                            seen["crossover"] += 1
        top = cert.b + 4 * cert.c
        powers = {}
        power = tight_close(r)
        for n in range(1, top + 1):
            assert power.is_bottom == (cert.dead is not None and n >= cert.dead)
            if not power.is_bottom:
                powers[n] = power.dbm
                if n >= cert.b:
                    assert cert.predict(n).rows == power.dbm.rows, n
            power = oct_compose(power, r, n_vars)
        if cert.dead is not None and cert.dead <= top:
            continue
        seen["minimal"] += 1
        assert predicts(powers, cert.b, cert.c, top)
        if cert.b > 1:
            assert not predicts(powers, cert.b - 1, cert.c, top)
        for c in range(1, cert.c):
            if cert.c % c == 0:
                assert not predicts(powers, cert.b, c, top)
    assert seen["cert"] >= 300 and seen["minimal"] >= 300
    assert all(seen.values()), seen


def test_kleene_chain_descending_and_golden():
    seq = kleene_pre_sequence(guarded_decrement(), 6, 1)
    for i in range(5):
        assert oct_leq(seq[i + 1], seq[i])
    # pre^n is x >= n-1
    for n, s in enumerate(seq, start=1):
        assert s.dbm.rows[1][0] == -2 * (n - 1)


def test_rtc_members_guarded_decrement():
    u = reflexive_transitive_closure(guarded_decrement(), 1)
    assert u.exact
    # single parametric family: x >= k, x' = x-1-k
    assert len(u.members) == 1
    fam = u.members[0]
    assert isinstance(fam, ParamOct)
    inst0 = fam.instantiate(0)
    assert oct_eq(inst0, tight_close(guarded_decrement()))
    inst3 = fam.instantiate(3)
    r4 = tight_close(guarded_decrement())
    for _ in range(3):
        r4 = oct_compose(r4, guarded_decrement(), 1)
    assert oct_eq(inst3, r4)


def test_rtc_finite_union_when_powers_die():
    r = oct_encode(
        [(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0), (1, 0, 1, 0, 2)], 2
    )
    u = reflexive_transitive_closure(r, 1)
    assert u.exact and len(u.members) == 2  # R^1 and R^2
    assert all(isinstance(m, Octagon) for m in u.members)


def dying_counter(bound):
    # 0 <= x <= bound and x' == x - 1: R^n is non-empty up to n = bound + 1
    return oct_encode(
        [(-1, 0, -1, 0, 0), (1, 0, 1, 0, 2 * bound), (1, 1, -1, 0, -1), (-1, 1, 1, 0, 1)], 2
    )


def assert_closure_is_the_powers(r, n_vars, horizon=80):
    """R* of a relation that dies within the horizon denotes its powers
    instance by instance: the plain members are R^1 .. R^(p-1), instance j
    of family i is R^(b+i+j*c) up to k_max, k_max + 1 is empty, and every
    live power is covered."""
    base = tight_close(r)
    powers = [None]
    power = base
    while not power.is_bottom:
        assert len(powers) <= horizon
        powers.append(power)
        power = oct_compose(power, base, n_vars)
    dead = len(powers)
    res = detect_period(r, n_vars)
    if isinstance(res, NotStarConsistent):
        assert res.power == dead
        b, c = dead, 1
    else:
        assert isinstance(res, PeriodCertificate) and res.dead == dead
        b, c = res.b, res.c
    u = reflexive_transitive_closure(r, n_vars)
    assert u.exact
    plain = [m for m in u.members if isinstance(m, Octagon)]
    families = [m for m in u.members if isinstance(m, ParamOct)]
    assert len(plain) == min(b, dead) - 1
    for n, m in enumerate(plain, 1):
        assert oct_eq(m, powers[n])
    covered = set(range(1, len(plain) + 1))
    for i, fam in enumerate(families):
        assert fam.k_max == (dead - 1 - b - i) // c >= 0
        for j in range(fam.k_max + 1):
            assert oct_eq(fam.instantiate(j), powers[b + i + j * c]), (i, j)
            covered.add(b + i + j * c)
        assert fam.instantiate(fam.k_max + 1).is_bottom
    assert covered == set(range(1, dead))
    return res


@pytest.mark.parametrize("bound", [66, 70])
def test_rtc_dying_counter_past_the_prefix_budget(bound):
    # the death at bound + 2 lies past the prefix budget of 64, so the
    # closure needs the certified family up to k_max = bound
    res = assert_closure_is_the_powers(dying_counter(bound), 1)
    assert isinstance(res, PeriodCertificate) and res.dead == bound + 2
    (fam,) = reflexive_transitive_closure(dying_counter(bound), 1).members
    assert fam.k_max == bound


def test_rtc_dying_counters_against_enumeration():
    for bound in range(71):
        assert_closure_is_the_powers(dying_counter(bound), 1)


def test_rtc_random_dying_relations_against_enumeration():
    rng = random.Random(37)
    certified = 0
    checked = 0
    while certified < 8:
        n_vars = rng.choice((1, 2))
        r = random_guarded_relation(rng, n_vars, max_coef=rng.choice((4, 20, 40)))
        base = tight_close(r)
        power = base
        for _ in range(80):
            if power.is_bottom:
                break
            power = oct_compose(power, base, n_vars)
        if not power.is_bottom:
            continue  # lives past the horizon
        checked += 1
        res = assert_closure_is_the_powers(r, n_vars)
        certified += isinstance(res, PeriodCertificate)
    assert checked >= 20


def test_death_index_closed_form_matches_the_linear_scan():
    from octoterm.closure import _halving_death

    def scan(a0, b0, la, lb):
        for k in range(400):
            if (a0 + k * la) // 2 + (b0 + k * lb) // 2 < 0:
                return k
        return None

    rng = random.Random(39)
    for _ in range(3000):
        a0, b0 = rng.randint(-20, 60), rng.randint(-20, 60)
        la, lb = rng.randint(-5, 5), rng.randint(-5, 5)
        assert _halving_death(a0, b0, la, lb) == scan(a0, b0, la, lb), (a0, b0, la, lb)


def run_within(limit, fn, *args):
    """fn(*args), failing instead of hanging when it runs past limit seconds."""
    import signal

    def expire(signum, frame):
        raise AssertionError(f"did not finish within {limit}s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("bound", [10**3, 10**5, 10**7])
def test_rtc_dying_counter_large_bound_in_closed_form(bound):
    r = dying_counter(bound)
    u = run_within(1.0, reflexive_transitive_closure, r, 1)
    assert u.exact and len(u.members) == 1
    (fam,) = u.members
    assert isinstance(fam, ParamOct) and fam.k_max == bound
    # instance j is R^(1+j): x' == x - 1 - j and j <= x <= bound
    for j in (0, 1, bound // 2, bound):
        inst = fam.instantiate(j)
        want = oct_encode([(-1, 0, -1, 0, -2 * j), (1, 0, 1, 0, 2 * bound),
                           (1, 1, -1, 0, -1 - j), (-1, 1, 1, 0, 1 + j)], 2)
        assert oct_eq(inst, tight_close(want))
    assert fam.instantiate(bound + 1).is_bottom
    assert wnt(r, 1).set.is_bottom


def test_rtc_budget_fallback_is_sound():
    u = reflexive_transitive_closure(periodic_relation(), 4, max_b=1, max_c=1)
    assert not u.exact
    assert len(u.members) == 1


def test_strictly_descending_for_wf_star_consistent():
    rng = random.Random(35)
    count = 0
    for _ in range(40):
        r = random_guarded_relation(rng, 2)
        res = wnt(r, 2)
        if not res.set.is_bottom:
            continue
        seq = kleene_pre_sequence(r, 25, 2)
        if seq[-1].is_bottom or any(s.is_bottom for s in seq):
            continue  # not *-consistent up to the horizon
        count += 1
        for i in range(len(seq) - 1):
            assert oct_leq(seq[i + 1], seq[i])
            assert not oct_eq(seq[i + 1], seq[i])
    assert count >= 3


# x' == 1 - x && y' == y - 1 && y + x' <= 26 && x' - y <= 45 && 2x >= -7:
# every candidate with c = 2 and b < 57 is rejected
REJECTING = oct_encode([(1, 2, 1, 0, 1), (-1, 2, -1, 0, -1), (1, 3, -1, 1, -1),
                        (-1, 3, 1, 1, 1), (1, 1, 1, 2, 26), (1, 2, -1, 1, 45),
                        (-1, 0, -1, 0, 7)], 4)


def flip_decrement_draws(seed: int, ns=None):
    """The flip-and-decrement relations of one seed: one per N of ``ns``,
    or 400 with N drawn from 1..3 before each."""
    rng = random.Random(seed)
    out = []
    for j in range(400 if ns is None else len(ns)):
        n = rng.choice((1, 2, 3)) if ns is None else ns[j]
        out.append((flip_decrement_relation(rng, n), n))
    return out


def test_plain_replay_matches_the_parametric_replay(monkeypatch):
    """Every candidate the scan replays on REJECTING and on the
    flip-and-decrement relations of seeds 7, 12 and 55 gets the
    ``(accepted, dead)`` of the parametric replay it replaced
    (``helpers.reference_verify_dbm_certificate``).  Where the reference
    hits its antichain cap it has no verdict; the plain replay has no cap,
    and an acceptance must then predict the powers.  A cap of one pair per
    cell makes the reference give up on x >= 0 && x' == x - 1."""
    verify = closure_module._verify_dbm_certificate
    seen = {"compared": 0, "rejected": 0, "dying": 0, "capped_accepted": 0}

    def spy(cache, b, c, rates):
        want = reference_verify_dbm_certificate(cache, b, c, rates)
        got = verify(cache, b, c, rates)
        if want is not None:
            assert got == want, (b, c)
            seen["compared"] += 1
            seen["rejected"] += not got[0]
            seen["dying"] += got[1] is not None
        elif got[0]:
            seen["capped_accepted"] += 1
            dead = got[1]
            top = 100 if dead is None else dead - 1
            fresh = closure_module._PowerCache(Octagon(2 * cache.N, cache.base, tight=True),
                                               cache.N)
            assert fresh.ensure(top) and (dead is None or not fresh.ensure(dead))
            for m in range(b, top + 1):
                k, i = divmod(m - b, c)
                assert fresh.plain(m) == dbm_add_rate(fresh.plain(b + i), rates[i], k), (b, c, m)
        return got

    monkeypatch.setattr(closure_module, "_verify_dbm_certificate", spy)
    rels = [(REJECTING, 2)] + flip_decrement_draws(7)[:150] + flip_decrement_draws(12)
    rels += flip_decrement_draws(55, [1] * 15 + [2] * 25 + [3] * 3)
    for rel, n in rels:
        detect_period(rel, n)
    with monkeypatch.context() as mp:
        mp.setattr(pdbm, "MAX_ANTICHAIN", 1)
        assert isinstance(detect_period(guarded_decrement(), 1), PeriodCertificate)
    assert seen["compared"] >= 200 and seen["rejected"] >= 5 and seen["dying"] >= 40, seen
    assert seen["capped_accepted"] >= 1, seen


def test_middle_block_replay_matches_every_pivot(monkeypatch):
    """The parametric replay closes the glued matrix through the 2N middle
    pivots, as ``dbm.closed_glued_rows`` closes a glued composition; the
    closure through every pivot must give the same (accepted, dead) on
    every candidate where neither is capped.  Where the closure through
    every pivot hits the antichain cap and the middle block does not, the
    middle block's acceptance must predict the powers."""
    real = helpers.param_fw
    seen = []

    def spy(m, pivots=None):
        seen.append((m.dim, list(pivots)))
        return real(m, pivots)

    def every_pivot(cache, b, c, rates):
        with monkeypatch.context() as mp:
            mp.setattr(helpers, "param_fw", lambda m, pivots=None: real(m))
            return reference_verify_dbm_certificate(cache, b, c, rates)

    monkeypatch.setattr(helpers, "param_fw", spy)
    # the reference through every pivot is slow (up to 11 s on one N = 2
    # draw of seed 45), so the set stays small
    rels = [(REJECTING, 2)] + flip_decrement_draws(55, [1] * 15 + [2] * 25 + [3] * 3)
    compared = rejected = dying = capped_accepted = 0
    for rel, n in rels:
        cache = closure_module._PowerCache(rel, n)
        if cache.dead is not None:
            continue
        for c in (1, 2):
            for b in range(1, 9):
                if not cache.ensure(b + 4 * c - 1):
                    break
                rates = closure_module._scan_candidate(cache, b, c)
                if rates is None:
                    continue
                seen.clear()
                got = reference_verify_dbm_certificate(cache, b, c, rates)
                assert seen and all(s == (6 * n, list(range(2 * n, 4 * n))) for s in seen)
                if got is None:
                    continue
                assert got == closure_module._verify_dbm_certificate(cache, b, c, rates)
                want = every_pivot(cache, b, c, rates)
                if want is not None:
                    assert got == want, (rel, b, c)
                    compared += 1
                    rejected += not got[0]
                    dying += got[1] is not None
                elif got[0]:
                    capped_accepted += 1
                    dead = got[1]
                    top = 100 if dead is None else dead - 1
                    assert cache.ensure(top) and (dead is None or not cache.ensure(dead))
                    for m in range(b, top + 1):
                        k, i = divmod(m - b, c)
                        assert cache.plain(m) == dbm_add_rate(cache.plain(b + i), rates[i], k)
    assert compared >= 150 and rejected >= 10 and dying >= 20 and capped_accepted >= 1


def replay_closures(monkeypatch, rel, n):
    """detect_period(rel, n), and (n, c, dead, closures) for each residue of
    its last replay: the residue's first power, the period, its death (or
    None) and the number of plain closures it made."""
    closures, residues = [], []
    compose, replay, verify = (closure_module.compose_closed, closure_module._replay_residue,
                               closure_module._verify_dbm_certificate)

    def count_compose(a, b):
        closures.append(1)
        return compose(a, b)

    def count_replay(cache, m, c, rate):
        closures.clear()
        ok, dead = replay(cache, m, c, rate)
        residues.append((m, c, dead, len(closures)))
        return ok, dead

    def fresh_verify(cache, b, c, rates):
        residues.clear()
        return verify(cache, b, c, rates)

    monkeypatch.setattr(closure_module, "compose_closed", count_compose)
    monkeypatch.setattr(closure_module, "_replay_residue", count_replay)
    monkeypatch.setattr(closure_module, "_verify_dbm_certificate", fresh_verify)
    return detect_period(rel, n), residues


@pytest.mark.parametrize("draw, want", [(146, (5, 2, 26)), (262, (2, 2, 22))])
def test_replay_finds_a_death_in_log_many_closures(monkeypatch, draw, want):
    """Seed-12 draws 146 and 262 of the flip-and-decrement relations die
    soon after the certified prefix.  Each residue of the accepted replay
    makes at most 2 + 2*bit_length(k_f + 1) plain closures, where its step
    first fails at k_f, so its power n + (k_f + 1)*c is its first empty
    one."""
    cert, residues = replay_closures(monkeypatch, *flip_decrement_draws(12)[draw - 1])
    assert isinstance(cert, PeriodCertificate) and (cert.b, cert.c, cert.dead) == want
    assert len(residues) == cert.c
    for m, c, dead, count in residues:
        assert dead is not None and dead >= cert.dead
        k_f = (dead - m) // c - 1
        assert count <= 2 + 2 * (k_f + 1).bit_length(), (m, dead, count)


def test_replay_accepts_a_step_that_never_fails_in_one_closure(monkeypatch):
    # x >= 0 && x' == x - 1 never dies: one closure, at a k that stands
    # for every k, accepts its residue
    cert, residues = replay_closures(monkeypatch, guarded_decrement(), 1)
    assert isinstance(cert, PeriodCertificate) and cert.dead is None
    assert residues == [(cert.b, 1, None, 1)]


def test_powers_compose_by_their_exponents():
    """compose_closed(D_n, D_c) == D_(n+c) over the live plain powers of
    seeded random, guarded and flip-and-decrement relations: the closure
    the replay makes at k = 0 is D_(n+c), which the one-closure acceptance
    rests on."""
    rng = random.Random(43)
    rels = []
    for _ in range(20):
        n = rng.choice((1, 2))
        rels += [(random_oct_relation(rng, n), n), (random_guarded_relation(rng, n), n)]
    rels += flip_decrement_draws(12)[:40]
    checked = 0
    for rel, n in rels:
        cache = closure_module._PowerCache(rel, n)
        if cache.dead is not None:
            continue
        cache.ensure(10)
        top = max(cache.d)
        for a in range(1, top):
            for c in range(1, top - a + 1):
                assert compose_closed(cache.plain(a), cache.plain(c)) == cache.plain(a + c)
                checked += 1
    assert checked >= 1000, checked


def test_tight_lines_match_the_parametric_tightening():
    """``_tight_lines`` gives the cells of ``helpers.param_tighten`` on base +
    j*step with even halved slopes: one line where one is least at every
    j, both in order where they cross, () where neither is finite."""
    rng = random.Random(47)
    kinds = {"one": 0, "halved": 0, "crossing": 0, "none": 0}
    for _ in range(300):
        dim = 2 * rng.choice((1, 2, 3))
        base, step = [], []
        for p in range(dim):
            brow, srow = [], []
            for q in range(dim):
                if p != q and rng.random() < 0.3:
                    brow.append(INF)
                    srow.append(INF)
                    continue
                brow.append(0 if p == q else rng.randint(-8, 12))
                slope = 0 if p == q else rng.randint(-3, 3)
                srow.append(2 * slope if q == p ^ 1 else slope)
            base.append(brow)
            step.append(srow)
        base, step = Dbm(base), Dbm(step)
        grid = closure_module._tight_lines(base, step)
        assert param_tighten(ExtParamDbm.affine(base, [step]).entries, dim) == [grid]
        for row in grid:
            for p, cell in enumerate(row):
                kinds["none"] += not cell
                kinds["crossing"] += len(cell) == 2
                kinds["one"] += len(cell) == 1
        kinds["halved"] += any(cell and cell[0][0] != base.rows[p][q]
                               for p, row in enumerate(grid) for q, cell in enumerate(row))
    assert all(kinds.values()), kinds


# ---------------------------------------------------------------------------
# the need-ordered scan against the nested (c, b) scan it replaced
# ---------------------------------------------------------------------------


def nested_scan(rel, n_vars, max_b=64, max_c=64, cache=None):
    """The scan that tried c = 1 at every b <= max_b, then c = 2, and so on;
    each candidate is certified as ``detect_period`` certifies it."""
    if cache is None:
        cache = closure_module._PowerCache(rel, n_vars)
    if cache.dead is not None:
        return NotStarConsistent(cache.dead)
    for c in range(1, max_c + 1):
        for b in range(1, max_b + 1):
            if not cache.ensure(b + 4 * c - 1):
                return NotStarConsistent(cache.dead)
            res = closure_module._certify(cache, b, c)
            if res is not None:
                return res
    return None


def diff_scan_candidate(cache, b, c):
    """The rates test with ``_diff``: the first c period-spaced differences
    from b on, when every later one over the computed powers repeats them."""
    rates = [closure_module._diff(cache.plain(b + i), cache.plain(b + i + c))
             for i in range(c)]
    if None in rates:
        return None
    for n in range(b + c, max(cache.d) - c + 1):
        d = closure_module._diff(cache.plain(n), cache.plain(n + c))
        if d is None or d.rows != rates[(n - b) % c].rows:
            return None
    return rates


def union_is_the_powers(u, powers):
    """Do the instances of u, identity aside, enumerate exactly the
    given powers, each once?"""
    instances = [m for m in u.members if isinstance(m, Octagon)]
    for fam in u.members:
        if isinstance(fam, ParamOct):
            instances += [fam.instantiate(j) for j in range(fam.k_max + 1)]
    return len(instances) == len(powers) and all(
        sum(oct_eq(m, p) for m in instances) == 1 for p in powers)


def test_scan_candidate_matches_the_period_spaced_differences():
    rng = random.Random(5)
    checked = passed = 0
    for _ in range(40):
        n = rng.choice((1, 2))
        cache = closure_module._PowerCache(flip_decrement_relation(rng, n), n)
        if cache.dead is not None:
            continue
        for c in (1, 2, 3):
            for b in range(1, 10):
                if not cache.ensure(b + 4 * c - 1):
                    break
                got = closure_module._scan_candidate(cache, b, c)
                want = diff_scan_candidate(cache, b, c)
                assert got == want, (b, c)
                checked += 1
                passed += got is not None
    assert checked >= 300 and passed >= 50


def test_need_ordered_scan_matches_the_nested_scan(monkeypatch):
    """Equal results on 150 flip-and-decrement relations, but for one
    allowed change: the nested scan met the death at d while it still tried
    c = 1, and the need-ordered scan certified a larger period first, so a
    certificate with dead == d stands where NotStarConsistent(d) stood.
    Both closures are then exactly the powers R^1 .. R^(d-1)."""
    rng = random.Random(7)
    rels = []
    for _ in range(150):
        n = rng.choice((1, 2, 3))
        rels.append((flip_decrement_relation(rng, n), n))
    died_certified = []
    for rel, n in rels:
        want, got = nested_scan(rel, n), detect_period(rel, n)
        if got == want:
            continue
        assert isinstance(want, NotStarConsistent), (rel, want, got)
        assert isinstance(got, PeriodCertificate) and got.dead == want.power
        died_certified.append((rel, n, want.power))
    assert len(died_certified) == 5
    for rel, n, dead in died_certified:
        power, powers = tight_close(rel), []
        for _ in range(1, dead):
            powers.append(power)
            power = oct_compose(power, rel, n)
        assert power.is_bottom
        assert union_is_the_powers(reflexive_transitive_closure(rel, n), powers)
        with monkeypatch.context() as mp:
            mp.setattr(closure_module, "detect_period", nested_scan)
            assert union_is_the_powers(reflexive_transitive_closure(rel, n), powers)


def test_scan_reads_powers_only_as_far_as_the_period_needs(monkeypatch):
    """x_i' == x_(i+1 mod 5) and y' == y - 1 with y >= 0: period 5.  The
    nested scan built every power up to 67 for c = 1 alone; the need-ordered
    scan stops at the accepted candidate's b + 4c - 1 and the cross-check."""
    atoms = []
    for i in range(5):
        atoms += [(1, 6 + i, -1, (i + 1) % 5, 0), (-1, 6 + i, 1, (i + 1) % 5, 0)]
    atoms += [(1, 11, -1, 5, -1), (-1, 11, 1, 5, 1), (-1, 5, -1, 5, 0)]
    rel = oct_encode(atoms, 12)
    derived = []
    derive = closure_module._derive_tight_tail

    def spy(*args):
        derived.append(derive(*args))
        return derived[-1]

    monkeypatch.setattr(closure_module, "_derive_tight_tail", spy)
    cache = closure_module._PowerCache(rel, 6)
    cert = detect_period(rel, 6, cache=cache)
    assert isinstance(cert, PeriodCertificate) and (cert.b, cert.c) == (1, 5)
    c_t = derived[-1][1]
    assert max(cache.d) <= cert.b + 4 * cert.c + 3 * c_t + 1


def test_rejected_candidate_filters_the_later_ones(monkeypatch):
    """REJECTING dies at power 72.  Its first candidate to reach the replay
    fails at a live power; the scan computes the powers up to it, and every
    later candidate's differences then disagree over them: one replay in
    all, where the scan that read only b .. b + 4c - 1 made 56 (c = 2,
    b = 2 .. 57) and the need order alone 224."""
    replays = []
    verify = closure_module._verify_dbm_certificate

    def spy(cache, b, c, rates):
        replays.append((b, c))
        return verify(cache, b, c, rates)

    monkeypatch.setattr(closure_module, "_verify_dbm_certificate", spy)
    assert detect_period(REJECTING, 2) == NotStarConsistent(72)
    assert len(replays) == 1
