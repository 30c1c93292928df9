import random
from math import ceil

import pytest

from octoterm import linarith
from octoterm.linarith import LE, LinTerm
from octoterm.octagon import bottom, oct_encode, oct_eq, tight_close
from octoterm.ranking import (
    NotWellFounded,
    RankingWitness,
    WellFounded,
    oct_to_linsys,
    prove_termination,
    synthesize_lrf,
    var_names,
    verify_lrf,
    witness_relation,
)
from octoterm.term_oct import is_well_founded, wnt

from helpers import (
    domain_sup,
    entails,
    is_bounded_below,
    periodic_relation,
    random_guarded_relation,
    seven_branch_relations,
)


def guarded_decrement():
    return oct_encode([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2)


def identity_rel():
    return oct_encode([(1, 0, -1, 1, 0), (-1, 0, 1, 1, 0)], 2)


def test_witness_relation_trivial_cases():
    # relation whose square is empty: x >= 0, x' = x-1, x <= 0
    r = oct_encode(
        [(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0), (1, 0, 1, 0, 0)], 2
    )
    assert witness_relation(r, 1).is_bottom
    # unguarded decrement is unchanged by strengthening
    d = oct_encode([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1)], 2)
    assert oct_eq(witness_relation(d, 1), tight_close(d))


def test_synthesize_on_guarded_decrement():
    w = synthesize_lrf(tight_close(guarded_decrement()), 1)
    assert isinstance(w, RankingWitness)
    assert w.function.coef("x0") == 1
    assert w.lower_bound == 0
    assert w.decrease >= 1


def test_synthesize_identity_fails():
    assert synthesize_lrf(tight_close(identity_rel()), 1) is None


def test_synthesize_bottom_trivially_wf():
    # the vacuous witness: the empty relation, ranked by the zero function
    w = synthesize_lrf(bottom(2), 1)
    assert w == RankingWitness(bottom(2), LinTerm(), 1, 0)
    assert verify_lrf(w.witness_relation, w.function, w.decrease, w.lower_bound, 1)


def test_stated_function_on_periodic_relation():
    r = periodic_relation()
    names = var_names(4)
    f = LinTerm({names[0]: -1, names[1]: -1, names[2]: -1, names[3]: 3})
    # decreasing on the relation itself with decrease 1
    sys = oct_to_linsys(tight_close(r), names)
    primed = LinTerm({names[4 + i]: f.coef(names[i]) for i in range(4)})
    assert entails(sys, (primed - f + 1, LE))
    # not bounded below without strengthening
    assert not is_bounded_below(tight_close(r), f, 4)
    wit = witness_relation(r, 4)
    assert not wit.is_bottom
    assert is_bounded_below(wit, f, 4)
    assert verify_lrf(wit, f, 1, -1000, 4)
    assert not verify_lrf(tight_close(r), f, 1, -1000, 4)


def test_prove_termination_seven_relations():
    r1, r2, r3, r4, r5, r6, r7 = seven_branch_relations()
    for r in (r2, r3, r4, r7):
        res = prove_termination(r, 2)
        assert isinstance(res, WellFounded)
        if isinstance(res.proof, RankingWitness):
            assert verify_lrf(
                res.proof.witness_relation,
                res.proof.function,
                res.proof.decrease,
                res.proof.lower_bound,
                2,
            )
    res1 = prove_termination(r1, 2)
    assert isinstance(res1, NotWellFounded)
    assert oct_eq(res1.wnt_set, tight_close(oct_encode([(1, 0, 1, 0, -2)], 2)))
    ident = prove_termination(identity_rel(), 1)
    assert isinstance(ident, NotWellFounded)


def test_prove_termination_with_an_empty_witness_relation():
    # x >= 0 && x <= 2 && x' == x - 1: R^4 is empty, so the witness
    # relation is too, and its vacuous witness passes verify_lrf
    r = oct_encode([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0),
                    (1, 0, 1, 0, 4)], 2)
    res = prove_termination(r, 1)
    assert isinstance(res, WellFounded)
    w = res.proof
    assert w.witness_relation.is_bottom
    assert verify_lrf(w.witness_relation, w.function, w.decrease, w.lower_bound, 1)


def test_relations_over_zero_variables():
    # R^0 is the identity, so the witness of a relation over no variable is
    # the relation itself: the empty one ranks vacuously, the full one (the
    # identity on the single state) does not terminate
    res = prove_termination(bottom(0), 0)
    assert res == WellFounded(RankingWitness(bottom(0), LinTerm(), 1, 0))
    assert witness_relation(bottom(0), 0).is_bottom
    full = tight_close(oct_encode([], 0))
    assert prove_termination(full, 0) == NotWellFounded(tight_close(oct_encode([], 0)))
    assert oct_eq(witness_relation(full, 0), full)


def test_verify_lrf_examples():
    v = tight_close(guarded_decrement())
    f = LinTerm({"x0": 1})
    assert verify_lrf(v, f, 1, 0, 1)
    assert not verify_lrf(v, -f, 1, 0, 1)


def test_completeness_on_samples():
    # well-founded iff the strengthened witness admits a linear ranking
    # function (empty witness counts as trivially ranked)
    rng = random.Random(77)
    found_wf = 0
    for _ in range(60):
        r = random_guarded_relation(rng, 2)
        wf = is_well_founded(r, 2)
        wit = witness_relation(r, 2)
        if wit.is_bottom:
            synth_ok = True
        else:
            synth_ok = isinstance(synthesize_lrf(wit, 2), RankingWitness)
        assert wf == synth_ok
        if wf:
            found_wf += 1
    assert found_wf >= 3


def test_wrs_preserved_by_witness():
    rng = random.Random(79)
    for _ in range(25):
        r = random_guarded_relation(rng, 2)
        wit = witness_relation(r, 2)
        assert oct_eq(wnt(r, 2).set, wnt(wit, 2).set)


def _ranked_witnesses(seed: int, count: int):
    """(W, N) for the seeded well-founded relations with a non-empty W."""
    rng = random.Random(seed)
    rels = [(guarded_decrement(), 1)]
    rels += [(random_guarded_relation(rng, 1 + t % 3), 1 + t % 3) for t in range(count)]
    for r, N in rels:
        if is_well_founded(r, N):
            v = witness_relation(r, N)
            if not v.is_bottom:
                yield v, N


def test_synthesize_lrf_builds_one_tableau_per_system(monkeypatch):
    # Farkas's tableau, then one over the witness rows, which the
    # decrease, the bound and the check all share; verify_lrf builds one
    built = []
    real = linarith.PolyhedronLP.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(linarith.PolyhedronLP, "__init__", spy)
    found = 0
    for v, N in _ranked_witnesses(23, 30):
        built.clear()
        w = synthesize_lrf(v, N)
        if isinstance(w, RankingWitness):
            assert len(built) == 2
            built.clear()
            assert verify_lrf(v, w.function, w.decrease, w.lower_bound, N)
            assert len(built) == 1
            found += 1
    assert found > 5


def test_lower_bound_is_the_bound_over_the_projection():
    # f is over the unprimed variables, so its infimum over the tight rows
    # of W is its infimum over the tight rows of W's domain
    rng = random.Random(31)
    found = 0
    for v, N in _ranked_witnesses(37, 40):
        w = synthesize_lrf(v, N)
        if not isinstance(w, RankingWitness):
            continue
        found += 1
        assert w.lower_bound == ceil(-domain_sup(v, -w.function, N))
        lp = linarith.PolyhedronLP(oct_to_linsys(v, var_names(N)))
        for _ in range(5):
            g = LinTerm({f"x{i}": rng.randint(-3, 3) for i in range(N)})
            assert lp.sup(g) == domain_sup(v, g, N)
    assert found > 5


def test_farkas_tableau_has_one_row_per_equality(monkeypatch):
    # N = 3: x0 counts down to 0 while x1 and x2 stay.  The
    # Podelski-Rybalchenko LP has one equality per variable for each of
    # l1 A' = 0, (l1 - l2) A = 0 and l2 (A + A') = 0, and one bound row
    # l2 b <= -1, so its tableau, the first one built, has 3N + 1 rows
    rel = oct_encode([(1, 0, -1, 3, 1), (-1, 0, 1, 3, -1), (-1, 0, -1, 0, 0),
                      (1, 1, -1, 4, 0), (-1, 1, 1, 4, 0),
                      (1, 2, -1, 5, 0), (-1, 2, 1, 5, 0)], 6)
    assert is_well_founded(rel, 3)
    v = witness_relation(rel, 3)
    rows = []
    real = linarith._Tableau.__init__

    def spy(self, ncols, rows_a, *args):
        rows.append(len(rows_a))
        real(self, ncols, rows_a, *args)

    monkeypatch.setattr(linarith._Tableau, "__init__", spy)
    assert isinstance(synthesize_lrf(v, 3), RankingWitness)
    assert rows[0] == 3 * 3 + 1


def test_prove_termination_prints_a_small_function():
    # loops-5-2-17 of the benchmark, a guarded N = 3 relation:
    # 35*x0 - 2*x1 + 33*x2 also ranks its witness relation, and the
    # Podelski-Rybalchenko LP finds x0 - x1
    rel = oct_encode([(1, 3, -1, 0, -2), (-1, 4, 1, 1, 0), (1, 5, -1, 2, 2),
                      (-1, 0, -1, 2, 4), (1, 1, -1, 0, 4), (1, 0, 1, 0, 3),
                      (1, 0, 1, 0, 4)], 6)
    res = prove_termination(rel, 3)
    assert isinstance(res, WellFounded)
    w = res.proof
    assert w.function == LinTerm({"x0": 1, "x1": -1})
    assert verify_lrf(w.witness_relation, w.function, w.decrease, w.lower_bound, 3)
