import random

import pytest

from octoterm.closure import (
    NotFound,
    NotStarConsistent,
    ParamOct,
    PeriodCertificate,
    detect_period,
    kleene_pre_sequence,
    pre_closed_form,
    reflexive_transitive_closure,
    wnt_via_closed_form,
    OperationCancelled,
)
from octoterm.dbm import INF
from octoterm.octagon import (
    Octagon,
    bottom,
    oct_compose,
    oct_encode,
    oct_eq,
    oct_leq,
    tight_close,
)
from octoterm.term_oct import wnt

from helpers import periodic_relation, random_guarded_relation, random_oct_relation


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


def test_kleene_chain_descending_and_golden():
    seq = kleene_pre_sequence(guarded_decrement(), 6, 1)
    for i in range(5):
        assert oct_leq(seq[i + 1], seq[i])
    # pre^n is x >= n-1
    for n, s in enumerate(seq, start=1):
        assert s.dbm.rows[1][0] == -2 * (n - 1)


def test_closed_form_guarded_decrement():
    cf = pre_closed_form(guarded_decrement(), 1)
    assert cf.b == 1 and cf.c == 1
    # single bounded term -2x <= -2k i.e. x >= k (at power 1+k)
    assert cf.terms == {(1, 0): (0, -2)}


def test_closed_form_unguarded_identity():
    r = oct_encode([(1, 0, -1, 1, 0), (-1, 0, 1, 1, 0)], 2)
    cf = pre_closed_form(r, 1)
    assert cf.terms == {}


def test_wnt_via_closed_form_matches_wnt():
    assert wnt_via_closed_form(guarded_decrement(), 1).is_bottom
    r = oct_encode([(1, 0, -1, 1, 0), (-1, 0, 1, 1, 0)], 2)
    w = wnt_via_closed_form(r, 1)
    assert not w.is_bottom and oct_eq(w, tight_close(oct_encode([], 1)))
    rng = random.Random(33)
    for _ in range(30):
        rel = random_guarded_relation(rng, 2)
        res = wnt_via_closed_form(rel, 2, max_b=24, max_c=8)
        if isinstance(res, NotFound):
            continue
        assert oct_eq(res, wnt(rel, 2).set)


def test_rtc_members_guarded_decrement():
    u = reflexive_transitive_closure(guarded_decrement(), 1)
    assert u.reflexive and u.exact
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


@pytest.mark.parametrize("bound", [66, 70])
def test_rtc_dying_counter_past_the_prefix_budget(bound):
    # 0 <= x <= bound and x' == x - 1: R^n is non-empty up to n = bound + 1,
    # which the period scan meets only past the prefix budget of 64
    r = oct_encode(
        [(-1, 0, -1, 0, 0), (1, 0, 1, 0, 2 * bound), (1, 1, -1, 0, -1), (-1, 1, 1, 0, 1)], 2
    )
    u = reflexive_transitive_closure(r, 1)
    assert u.exact and len(u.members) == bound + 1
    power = tight_close(r)
    for m in u.members:
        assert oct_eq(m, power)
        power = oct_compose(power, r, 1)
    assert power.is_bottom


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


def test_cancellation_token():
    calls = [0]

    def cancel():
        calls[0] += 1
        return calls[0] > 3

    with pytest.raises(OperationCancelled):
        detect_period(periodic_relation(), 4, cancel=cancel)
