import random

import pytest

from octoterm import octagon, presburger, program, term_oct
from octoterm.closure import reflexive_transitive_closure
from octoterm.octagon import (
    bottom,
    oct_compose,
    oct_decode,
    oct_encode,
    oct_eq,
    oct_leq,
    pre_image_set,
    tight_close,
    top,
)
from octoterm.program import nt_program, parse_program, transitive_relation
from octoterm.ranking import WellFounded, prove_termination
from octoterm.term_oct import (
    WntResult,
    fast_power,
    is_well_founded,
    wnt,
)

from helpers import (
    BRANCHING_PROGRAM,
    STEP_2_BRANCHING_PROGRAM,
    TWO_PHASE_PROGRAM,
    flip_decrement_relation,
    local_recurrence_holds,
    one_phase_ramp,
    periodic_relation,
    random_guarded_relation,
    random_oct_relation,
    reference_wnt,
    seven_branch_relations,
    strengthen_check,
)


def enc(atoms, n):
    return oct_encode(atoms, n)


def test_fast_power_one_is_tight_close():
    rng = random.Random(1)
    for _ in range(15):
        r = random_oct_relation(rng, 2)
        assert oct_eq(fast_power(r, 1, 2), tight_close(r))


def test_fast_power_powers_of_two_decrement():
    r = enc([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1)], 2)  # x' = x - 1
    for k in range(0, 11):
        p = fast_power(r, 1 << k, 1)
        want = enc([(1, 0, -1, 1, 1 << k), (-1, 0, 1, 1, -(1 << k))], 2)
        assert oct_eq(p, want)


def test_fast_power_matches_iterated_compose():
    rng = random.Random(5)
    for _ in range(25):
        r = random_oct_relation(rng, rng.choice((1, 2)))
        n = 2 * (r.num_vars // 2)
        N = r.num_vars // 2
        power = tight_close(r)
        for exp in range(2, 33):
            power = oct_compose(power, r, N)
            got = fast_power(r, exp, N)
            assert oct_eq(got, power), f"exp {exp}"


def test_wnt_guarded_decrement_false():
    r = enc([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2)
    res = wnt(r, 1)
    assert res.set.is_bottom


def test_wnt_seven_relations_golden():
    r1, r2, r3, r4, r5, r6, r7 = seven_branch_relations()
    # wnt(R1) = x <= -1
    w1 = wnt(r1, 2).set
    assert oct_eq(w1, tight_close(enc([(1, 0, 1, 0, -2)], 2)))
    for r in (r2, r3, r4, r7):
        assert wnt(r, 2).set.is_bottom
    w5 = wnt(r5, 2).set
    assert oct_eq(w5, tight_close(enc([(1, 0, 1, 0, -2), (1, 1, 1, 1, 0)], 2)))
    w6 = wnt(r6, 2).set
    assert oct_eq(w6, tight_close(enc([(-1, 0, -1, 0, -2), (1, 1, 1, 1, 0)], 2)))


def test_wnt_identity_is_universe():
    r = enc([(1, 0, -1, 1, 0), (-1, 0, 1, 1, 0)], 2)
    res = wnt(r, 1)
    assert not res.set.is_bottom
    assert oct_eq(res.set, top(1))


def test_is_well_founded_examples():
    assert is_well_founded(periodic_relation(), 4)
    r6 = seven_branch_relations()[5]
    assert not is_well_founded(r6, 2)
    ident = enc([(1, 0, -1, 1, 0), (-1, 0, 1, 1, 0)], 2)
    assert not is_well_founded(ident, 1)


def test_wnt_inconsistent_relation():
    r = enc([(1, 0, 1, 0, -1), (-1, 0, -1, 0, -1)], 2)
    assert wnt(r, 1).set.is_bottom


def test_strengthen_checks():
    dec = enc([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2)
    ident = enc([(1, 0, -1, 1, 0), (-1, 0, 1, 1, 0)], 2)
    for m in (1, 2, 3, 4):
        assert strengthen_check(dec, m, 1)
        assert strengthen_check(ident, m, 1)
    for r in seven_branch_relations():
        for m in (1, 2, 3, 4):
            assert strengthen_check(r, m, 2)


def test_wnt_is_locally_recurrent():
    rng = random.Random(9)
    for _ in range(40):
        r = random_oct_relation(rng, 2)
        assert local_recurrence_holds(r, 2)


def test_wnt_fixpoint_property_pre_containment():
    # wnt subseteq pre(wnt) checked via a direct pre-image computation
    rng = random.Random(11)
    from octoterm.octagon import lift_set_to_relation, oct_meet_raw

    for _ in range(30):
        r = random_guarded_relation(rng, 2)
        w = wnt(r, 2).set
        if w.is_bottom:
            continue
        step = oct_meet_raw(tight_close(r), lift_set_to_relation(w, 2, primed=True))
        pre = pre_image_set(tight_close(step), 2)
        assert oct_leq(w, pre)


def _clear_memos():
    for module in (octagon, term_oct, program, presburger):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def test_one_request_closes_its_raw_input_once(monkeypatch):
    # wnt, prove_termination and the closure each tight-close the raw input;
    # the tight-closure memo makes that one fw_close.  The relation settles
    # at R^2 (x >= 3 and x' = x + 7, y' = y), so no witness meet is closed.
    closes = []
    real = octagon.fw_close

    def counting(m):
        closes.append(m)
        return real(m)

    monkeypatch.setattr(octagon, "fw_close", counting)
    _clear_memos()
    r = enc([(1, 2, -1, 0, 7), (-1, 2, 1, 0, -7), (1, 3, -1, 1, 0), (-1, 3, 1, 1, 0),
             (-1, 0, -1, 0, -6)], 4)
    assert not r.tight
    assert not wnt(r, 2).set.is_bottom
    prove_termination(r, 2)
    assert reflexive_transitive_closure(r, 2).exact
    assert len(closes) == 1
    # an equal raw relation built anew hits the same entry
    wnt(enc(oct_decode(r), 4), 2)
    assert len(closes) == 1
    assert octagon._tight_closed.cache_info().maxsize == octagon._TIGHT_MEMO


def test_wnt_memo_is_bounded():
    assert term_oct._wnt_tight.cache_info().maxsize == term_oct._MEMO


def test_prove_termination_reuses_the_wnt(monkeypatch):
    # wnt draws the K = 3 squares R, R^2, R^4 of the witness power 4N^2 = 4
    # (the pass would go on to R^64) and decides by the witness there;
    # prove_termination reads the witness from the memo and draws none
    reads = []
    real = term_oct._squares

    def spy(rel, N):
        reads.append(rel)
        return real(rel, N)

    monkeypatch.setattr(term_oct, "_squares", spy)
    _clear_memos()
    r = enc([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2)  # x >= 0, x' = x - 1
    wnt(r, 1)
    store = term_oct._square_store(tight_close(r), 1)
    assert len(store) == 3
    before = len(reads)
    assert isinstance(prove_termination(r, 1), WellFounded)
    assert len(reads) == before and len(store) == 3
    # an equal relation in another syntax hits the same entry
    wnt(tight_close(r), 1)
    assert len(store) == 3 and term_oct._wnt_tight.cache_info().hits == 2


def test_prove_termination_composes_no_square_that_wnt_drew(monkeypatch):
    # wnt decides a well-founded relation by its witness, or sooner by an
    # empty square; prove_termination then reads the witness from the memo,
    # or finds it empty among the stored squares (for N <= 3 an empty square
    # below R^(4N^2) comes before its second set bit), and composes nothing
    pairs = []
    real = term_oct.oct_compose

    def spy(a, b, N):
        pairs.append((a, b))
        return real(a, b, N)

    monkeypatch.setattr(term_oct, "oct_compose", spy)
    rng = random.Random(31)
    rels = [(enc([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2), 1)]
    rels += [(random_guarded_relation(rng, 1 + t % 3), 1 + t % 3) for t in range(40)]
    seen = ranked = 0
    for r, N in rels:
        _clear_memos()
        if not wnt(r, N).set.is_bottom:
            continue
        pairs.clear()
        res = prove_termination(r, N)
        assert pairs == []
        ranked += not res.proof.witness_relation.is_bottom
        seen += 1
    assert seen > 10 and ranked > 5


def test_a_well_founded_relation_costs_one_ranking_lp(monkeypatch):
    # wnt runs the LP on the witness at most once, and prove_termination
    # takes its solution from the memo: one call when the witness is not
    # empty, none when it is
    calls = []
    real = term_oct.farkas_template

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(term_oct, "farkas_template", spy)
    rng = random.Random(37)
    rels = [(enc([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2), 1)]
    for t in range(60):
        N = 1 + t % 3
        make = (random_guarded_relation, flip_decrement_relation)[t % 2]
        rels.append((make(rng, N), N))
    ranked = 0
    for r, N in rels:
        _clear_memos()
        calls.clear()
        wnt(r, N)
        assert len(calls) <= 1
        if isinstance(prove_termination(r, N), WellFounded):
            want = 0 if term_oct.witness(r, N).relation.is_bottom else 1
            assert len(calls) == want
            ranked += want
    assert ranked > 10


def _wnt_inputs():
    """At least 400 random, guarded and flip-and-decrement relations, N = 1..3."""
    rng = random.Random(41)
    makers = (random_oct_relation, random_guarded_relation, flip_decrement_relation)
    return [(makers[t % 3](rng, 1 + t // 3 % 3), 1 + t // 3 % 3) for t in range(405)]


def test_wnt_equals_the_reference_without_the_witness_exit():
    inputs = _wnt_inputs()
    _clear_memos()
    wf = 0
    for r, N in inputs:
        got = wnt(r, N)
        assert got == reference_wnt(r, N)
        wf += got.set.is_bottom
    assert 50 < wf < len(inputs) - 50
    assert term_oct._witness_tight.cache_info().misses > 20  # exits taken


def test_wnt_without_the_lp_decides_by_its_squares_alone(monkeypatch):
    # with an LP that never finds a ranking function, only an empty witness
    # exits early, and the pass over the squares R^(2^k), k <= L + 1 with
    # L = bit_length(5^(2N)), decides the rest as the probe powers do; the
    # pass draws at most L + 2 squares
    tried = []

    def no_ranking(v, N):
        tried.append(v)
        return None

    monkeypatch.setattr(term_oct, "rank_lp", no_ranking)
    _clear_memos()
    try:
        for r, N in _wnt_inputs():
            got = wnt(r, N)
            drawn = len(term_oct._square_store(tight_close(r), N))
            assert drawn <= (5 ** (2 * N)).bit_length() + 2
            assert got == reference_wnt(r, N)
        assert len(tried) > 10
    finally:
        _clear_memos()  # the witness memo holds the failed LPs


def _count_compositions(monkeypatch):
    calls = []
    real = term_oct.oct_compose

    def counting(a, b, N):
        calls.append(N)
        return real(a, b, N)

    monkeypatch.setattr(term_oct, "oct_compose", counting)
    return calls


def test_wnt_stops_at_the_first_equal_pre_images(monkeypatch):
    calls = _count_compositions(monkeypatch)
    _clear_memos()
    up = enc([(1, 1, -1, 0, 1), (-1, 1, 1, 0, -1), (-1, 0, -1, 0, 0)], 2)  # x >= 0, x' = x + 1
    res = wnt(up, 1)
    # pre(R) = pre(R^2) = x >= 0 after one squaring
    assert len(calls) == 1
    assert res == WntResult(tight_close(enc([(-1, 0, -1, 0, 0)], 1)))


def test_without_the_lp_a_live_well_founded_wnt_squares_to_the_last(monkeypatch):
    # x0 >= 0, x0' = x0 - 1 at N = 1 neither dies nor settles: L = 5, and
    # the pass squares R up to R^(2^(L+1)) = R^64, 6 compositions
    monkeypatch.setattr(term_oct, "rank_lp", lambda v, N: None)
    calls = _count_compositions(monkeypatch)
    _clear_memos()
    try:
        r = enc([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2)
        assert wnt(r, 1).set.is_bottom
        assert len(calls) == 6
        assert len(term_oct._square_store(tight_close(r), 1)) == 7
    finally:
        _clear_memos()  # the witness memo holds the failed LP


def test_well_founded_wnt_composes_no_more_than_the_probe_powers(monkeypatch):
    # at most the compositions of R^(5^(2N)) and one more, the cost of
    # computing both probe powers; when nothing dies early, only the K - 1
    # squarings to R^(2^(K-1)), K = bit_length(4N^2), and the product of
    # the witness power R^(4N^2)
    calls = _count_compositions(monkeypatch)
    rng = random.Random(27)
    rels = [(enc([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2), 1, True)]
    # x0 >= 0, x0' = x0 - 1, x1' = x1, x2' = x2
    rels.append((enc([(1, 0, -1, 3, 1), (-1, 0, 1, 3, -1), (-1, 0, -1, 0, 0),
                      (1, 1, -1, 4, 0), (-1, 1, 1, 4, 0),
                      (1, 2, -1, 5, 0), (-1, 2, 1, 5, 0)], 6), 3, True))
    for trial in range(40):
        N = 1 + trial % 3
        rels.append((random_guarded_relation(rng, N), N, False))
    seen = 0
    for r, N, full in rels:
        _clear_memos()
        calls.clear()
        if not wnt(r, N).set.is_bottom:
            continue
        used = len(calls)
        _clear_memos()  # the reference is a cold power, not one over stored squares
        calls.clear()
        fast_power(r, 5 ** (2 * N), N)
        assert used <= len(calls) + 1
        if full:
            m = 4 * N * N
            assert used == m.bit_length() - 1 + bin(m).count("1") - 1
        seen += 1
    assert seen > 10


def test_results_do_not_depend_on_process_history():
    # every result, computed cold, equals the one computed after all the
    # other inputs (forward, then in reverse order), with the memos and the
    # square store warm
    rng = random.Random(47)
    rels = [(random_guarded_relation(rng, n), n) for n in (1, 1, 2, 2, 3)]
    rels += [(r, 2) for r in seven_branch_relations()[:3]]
    rels.append((tight_close(rels[2][0]), rels[2][1]))  # the same WNT entry
    programs = [BRANCHING_PROGRAM, TWO_PHASE_PROGRAM, one_phase_ramp("+"),
                one_phase_ramp("-"), STEP_2_BRANCHING_PROGRAM]
    items = [("oct", r) for r in rels] + [("prog", text) for text in programs]

    def result(item):
        kind, x = item
        if kind == "prog":
            p = parse_program(x)
            res = nt_program(p)
            summaries = [transitive_relation(p, p.init, q) for q, _, _ in res.per_state]
            return repr((res.precondition, res.per_state, res.exact,
                         res.budget_exhausted, summaries))
        rel, n = x
        return repr((wnt(rel, n), prove_termination(rel, n),
                     reflexive_transitive_closure(rel, n),
                     [fast_power(rel, k, n) for k in (3, 4 * n * n, 5 ** (2 * n) + 1)]))

    cold = []
    for item in items:
        _clear_memos()
        cold.append(result(item))
    _clear_memos()
    for item in items:
        result(item)
    warm = [result(item) for item in reversed(items)]
    assert warm[::-1] == cold
