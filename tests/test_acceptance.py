"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion (failures surface as ordinary pytest failures).
"""

import random

import pytest

from octoterm.affine import (
    AffineRel,
    finite_monoid_wnt,
    is_finite_monoid,
    mat,
    mat_pow,
    poly_matrix_power,
    sufficient_termination,
)
from octoterm.closure import PeriodCertificate, detect_period, kleene_pre_sequence
from octoterm.dbm import INF, Dbm, fw_close
from octoterm.linarith import LE, LinTerm
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
from octoterm.oracle import BoxDomain, eval_membership, live_points
from octoterm.pdbm import ExtParamDbm, param_fw
from octoterm.presburger import conj_implies, Conj
from octoterm.program import member_cases, nt_program, parse_program, transitive_relation
from octoterm.ranking import (
    RankingWitness,
    oct_to_linsys,
    synthesize_lrf,
    var_names,
    verify_lrf,
    witness_relation,
)
from octoterm.term_oct import fast_power, is_well_founded, wnt

from helpers import (
    BRANCHING_PROGRAM,
    STEP_2_BRANCHING_PROGRAM,
    TIGHT_EXAMPLE_GOLDEN,
    TWO_PHASE_PROGRAM,
    call_within,
    entails,
    eval_at,
    is_bounded_below,
    periodic_relation,
    power_cycle,
    random_guarded_relation,
    random_oct_relation,
    seven_branch_relations,
    strengthen_check,
    tight_example_relation,
)


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_acceptance_1_tight_closure_golden():
    t = tight_close(tight_example_relation())
    assert not t.is_bottom
    assert t.dbm.rows == TIGHT_EXAMPLE_GOLDEN
    # the implicit sum bound on the primed pair is tightened from 1 to 0
    assert t.dbm.rows[6][7] == 0
    report(1, "tight closure reproduces the golden matrix exactly "
              "(including the tightened primed-pair bound 0)")


def _unfolding_oracle(n):
    """Min path weights in the n-step unfolding of the periodic example."""
    edges_up = [(1, 0, -1), (2, 1, 0), (0, 2, 0)]
    edges_dn = [(3, 3, 0), (2, 3, 0)]
    nodes = [(l, v) for l in range(n + 1) for v in range(4)]
    adj = {u: [] for u in nodes}
    for k in range(n):
        for i, j, w in edges_up:
            adj[(k, i)].append(((k + 1, j), w))
        for i, j, w in edges_dn:
            adj[(k + 1, i)].append(((k, j), w))
    out = [[INF] * 4 for _ in range(4)]
    for s in range(4):
        dist = {u: INF for u in nodes}
        dist[(0, s)] = 0
        for _ in range(len(nodes)):
            changed = False
            for u in nodes:
                if dist[u] == INF:
                    continue
                for v, w in adj[u]:
                    if dist[u] + w < dist[v]:
                        dist[v] = dist[u] + w
                        changed = True
            if not changed:
                break
        for t in range(4):
            out[s][t] = 0 if s == t else dist[(0, t)]
    return out


def test_acceptance_2_periodicity_golden():
    r = periodic_relation()
    cert = detect_period(r, 4)
    assert isinstance(cert, PeriodCertificate)
    assert cert.b == 3 and cert.c == 3
    want_rate = [
        [0, INF, INF, -1],
        [INF, 0, INF, -1],
        [INF, INF, 0, -1],
        [INF, INF, INF, 0],
    ]
    for i in range(cert.c):
        lam = [[cert.rates[i].rows[2 * a][2 * b] for b in range(4)] for a in range(4)]
        assert lam == want_rate
    # pre-image matrices for powers 1..12 match the independent
    # path-enumeration oracle entrywise (zero tolerance)
    power = tight_close(r)
    for n in range(1, 13):
        s = pre_image_set(power, 4)
        got = [[s.dbm.rows[2 * a][2 * b] for b in range(4)] for a in range(4)]
        assert got == _unfolding_oracle(n), f"power {n}"
        power = oct_compose(power, r, 4)
    report(2, "certificate (prefix 3, period 3, rate -1 on the last column) "
              "and pre-image matrices for powers 1..12 match the "
              "path-enumeration oracle entrywise")


def test_acceptance_3_wnt_goldens():
    import time

    def enc(atoms, n):
        return oct_encode(atoms, n)

    t0 = time.time()
    dec = enc([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2)
    assert wnt(dec, 1).set.is_bottom
    r1, r2, r3, r4, r5, r6, r7 = seven_branch_relations()
    assert oct_eq(wnt(r1, 2).set, tight_close(enc([(1, 0, 1, 0, -2)], 2)))
    for r in (r2, r3, r4, r7):
        assert wnt(r, 2).set.is_bottom
    assert oct_eq(
        wnt(r5, 2).set,
        tight_close(enc([(1, 0, 1, 0, -2), (1, 1, 1, 1, 0)], 2)),
    )
    assert oct_eq(
        wnt(r6, 2).set,
        tight_close(enc([(-1, 0, -1, 0, -2), (1, 1, 1, 1, 0)], 2)),
    )
    elapsed = time.time() - t0
    assert elapsed < 8 * 1.0, "each relation must decide in under a second"
    report(3, "guarded decrement and the seven summary relations produce "
              f"exactly the listed sets ({elapsed:.2f}s for all eight)")


def test_acceptance_4_program_goldens():
    branching = parse_program(BRANCHING_PROGRAM)
    res = nt_program(branching)
    for x in range(-10, 11):
        for y in range(-10, 11):
            assert res.precondition.eval({"x": x, "y": y}) == (x != 0)

    two_phase = parse_program(TWO_PHASE_PROGRAM)
    res2 = nt_program(two_phase)
    assert res2.flat and res2.exact

    def golden(x, m, n):
        return (n == 2 * m - x and m >= x + 1 and n >= m + 1) or (m <= x and n <= x)

    golden_disjuncts = [
        Conj.make([
            (LinTerm({"n": 1, "m": -2, "x": 1}), "=="),
            (LinTerm({"x": 1, "m": -1}, 1), "<="),
            (LinTerm({"m": 1, "n": -1}, 1), "<="),
        ]),
        Conj.make([
            (LinTerm({"m": 1, "x": -1}), "<="),
            (LinTerm({"n": 1, "x": -1}), "<="),
        ]),
    ]
    # mutual entailment at the disjunct level: every computed disjunct
    # implies one of the two golden disjuncts
    for c in res2.precondition:
        assert any(conj_implies(c, g) for g in golden_disjuncts), c
    # exhaustive agreement on the full box for the three variables that
    # occur, plus dense sampling across all five
    for x in range(-10, 11):
        for m in range(-10, 11):
            for n in range(-10, 11):
                got = res2.precondition.eval(
                    {"x": x, "y": 0, "y0": 0, "m": m, "n": n}
                )
                assert got == golden(x, m, n)
    rng = random.Random(42)
    for _ in range(4000):
        x, y, y0v, m, n = (rng.randint(-10, 10) for _ in range(5))
        got = res2.precondition.eval({"x": x, "y": y, "y0": y0v, "m": m, "n": n})
        assert got == golden(x, m, n)

    # loop closures of the two ramp loops
    def union_eval(members, val):
        return any(c.eval(val) for mm in members for c in member_cases(mm))

    m22, ex22 = transitive_relation(two_phase, "l2", "l2")
    m55, ex55 = transitive_relation(two_phase, "l5", "l5")
    assert ex22 and ex55
    for _ in range(4000):
        x, y, m, n, y0v = (rng.randint(-7, 7) for _ in range(5))
        x2, y2 = rng.randint(-7, 7), rng.randint(-7, 7)
        val = {"x": x, "y": y, "m": m, "n": n, "y0": y0v,
               "x'": x2, "y'": y2, "m'": m, "n'": n, "y0'": y0v}
        assert union_eval(m22, val) == (
            x2 - x == y2 - y and x2 >= x + 1 and m >= x2
        )
        assert union_eval(m55, val) == (
            x2 - x == y - y2 and x2 >= x + 1 and n >= x2
        )
    report(4, "three-branch program yields exactly x != 0; two-phase ramp "
              "program and both loop closures match the listed formulas "
              "(entailment + box agreement)")


def _nt_program_within(program, limit: int, what: str):
    """nt_program under an alarm, and its wall time."""
    return call_within(limit, what, nt_program, program)


def test_acceptance_4_step2_branching_converges():
    # step 2 puts parity atoms into the loop summaries; saturation reaches
    # its fixpoint only when subsumption sees through them
    program = parse_program(STEP_2_BRANCHING_PROGRAM)
    res, elapsed = _nt_program_within(program, 20, "step-2 BRANCHING")
    assert not res.budget_exhausted
    for x in range(-10, 11):
        for y in range(-10, 11):
            assert res.precondition.eval({"x": x, "y": y}) == (x != 0)
    report(4, f"step-2 branching program yields exactly x != 0 with no "
              f"budget exhausted ({elapsed:.2f}s)")


@pytest.mark.parametrize("c0", [3, 6])
def test_acceptance_4_far_exit_branching_converges(c0):
    # with the exit at x == c0 and the y threshold at 0, parameter
    # elimination over members that kept every path-implied row ran past
    # 60 s; on the path-reduced rows it takes a fraction of a second
    program = parse_program(BRANCHING_PROGRAM.replace("x != 0", f"x != {c0}")
                            .replace("x == 0", f"x == {c0}"))
    res, elapsed = _nt_program_within(program, 20, f"c0 = {c0} BRANCHING")
    assert not res.budget_exhausted
    for x in range(-10, 11):
        for y in range(-10, 11):
            assert res.precondition.eval({"x": x, "y": y}) == (x != c0)
    report(4, f"c0 = {c0} branching program yields exactly x != {c0} with no "
              f"budget exhausted ({elapsed:.2f}s)")


@pytest.mark.parametrize("step, c0, c1", [(3, 0, 0), (4, 0, 0), (5, 0, 0), (3, 1, 0),
                                          (4, -2, 2), (2, 2, 0), (2, 3, 0), (2, 6, 0)])
def test_acceptance_4_long_step_branching_converges(step, c0, c1):
    # from round 3 on, saturation adds a two-parameter member contained in
    # its predecessor at equal parameter values; eliminating the parameters
    # splits it mod step into cases no single old case covers, so only the
    # parametric subsumption test lets it reach its fixpoint.  Step 2 with
    # c0 >= 2 finishes only when opposite rows pair into equalities and the
    # members compose by elimination alone.
    program = parse_program(BRANCHING_PROGRAM.replace("x' == x - 1", f"x' == x - {step}")
                            .replace("x != 0", f"x != {c0}").replace("x == 0", f"x == {c0}")
                            .replace("y > 0", f"y > {c1}").replace("y <= 0", f"y <= {c1}"))
    what = f"step-{step} c0 = {c0}, c1 = {c1} BRANCHING"
    res, elapsed = _nt_program_within(program, 20, what)
    assert not res.budget_exhausted
    for x in range(-15, 16):
        for y in range(-12, 13):
            assert res.precondition.eval({"x": x, "y": y}) == (x != c0)
    report(4, f"{what} yields exactly x != {c0} with no budget exhausted "
              f"({elapsed:.2f}s)")


# Random two-variable programs with a self-loop of step 2, which ran past
# 10 s while members composed through the parametric closure.
STEP_2_FUZZ_PROGRAMS = [
    "vars x, y; init s0; s1 -> s1 : x' == x + -2 && y - x <= 2 && x != -2 && y' == y; "
    "s1 -> s1 : x >= 0 && x' == x; s0 -> s1 : y != -1 && x >= 1 && y <= 1 && x' == x && "
    "y' == y; s0 -> s1 : x != 0 && x' == x && y' == y;",
    "vars x, y; init s0; s1 -> s0 : y' == y + -2 && x' == x; s1 -> s1 : y' == y + -2 && "
    "x' == x; s0 -> s0 : x' == x + -2 && y - x <= 1 && y' == y; s0 -> s1 : y' == y + -2 && "
    "x <= -1 && x' == x;",
]


@pytest.mark.parametrize("index", range(len(STEP_2_FUZZ_PROGRAMS)))
def test_acceptance_4_step_2_fuzz_programs_converge(index):
    from octoterm.oracle import program_live_starts

    program = parse_program(STEP_2_FUZZ_PROGRAMS[index])
    what = f"step-2 fuzz program {index}"
    res, elapsed = _nt_program_within(program, 20, what)
    live = program_live_starts(program, BoxDomain.cube(2, -4, 4))
    if index == 1:
        # every edge moves x or y by -2, so no run stays in a box; from s0
        # with x <= -1, s0 -> s1 and then the s1 self-loop run forever
        assert not live
        live = {(x, y) for x in range(-4, 0) for y in range(-4, 5)}
    assert live
    for x, y in live:
        assert res.precondition.eval({"x": x, "y": y}), (x, y)
    report(4, f"{what}: the precondition holds at {len(live)} live starts "
              f"({elapsed:.2f}s)")


def test_acceptance_5_ranking_golden():
    r = periodic_relation()
    assert is_well_founded(r, 4)
    names = var_names(4)
    f = LinTerm({names[0]: -1, names[1]: -1, names[2]: -1, names[3]: 3})
    # decreasing on the relation itself, with decrease >= 1
    sys = oct_to_linsys(tight_close(r), names)
    primed = LinTerm({names[4 + i]: f.coef(names[i]) for i in range(4)})
    assert entails(sys, (primed - f + 1, LE))
    # bounded only on the strengthened witness
    assert not is_bounded_below(tight_close(r), f, 4)
    wit = witness_relation(r, 4)
    assert not wit.is_bottom
    assert is_bounded_below(wit, f, 4)
    synth = synthesize_lrf(wit, 4)
    assert isinstance(synth, RankingWitness)
    assert verify_lrf(wit, synth.function, synth.decrease, synth.lower_bound, 4)
    report(5, "the four-variable cascade relation is decided well founded; the "
              "stated function decreases on it, is bounded on the witness, "
              "and the synthesized ranking function verifies")


def test_acceptance_6_affine_goldens():
    a = mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    pcf = poly_matrix_power(a)
    from fractions import Fraction

    assert pcf.L == 1
    assert pcf.polys[0][0][2] == [Fraction(0), Fraction(-1, 2), Fraction(1, 2)]
    rel = AffineRel(3, a, (0, 0, 0), (((1, 0, 0), 0),))
    dnf = sufficient_termination(rel, names=["x", "y", "z"])

    def golden(x, y, z):
        return z < 0 or (z == 0 and y < 0) or (z == 0 and y == 0 and x < 0)

    assert len(dnf) == 3
    for x in range(-5, 6):
        for y in range(-5, 6):
            for z in range(-5, 6):
                assert dnf.eval({"x": x, "y": y, "z": z}) == golden(x, y, z)
    report(6, "closed form has (A^k)_13 = k(k-1)/2 and the sufficient "
              "termination condition equals the three-clause disjunction")


def test_acceptance_7_parametric_fw_500():
    rng = random.Random(3)
    matrices = 0
    while matrices < 500:
        dim = rng.randint(2, 5)
        rows = [[INF] * dim for _ in range(dim)]
        rates = [[INF] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                if i != j and rng.random() < 0.6:
                    rows[i][j] = rng.randint(-3, 3)
                    rates[i][j] = rng.randint(-3, 3) if rng.random() < 0.7 else 0
        matrices += 1
        pm = ExtParamDbm.affine(Dbm(rows), [Dbm(rates)])
        closed = param_fw(pm)
        for n in range(0, 21):
            inst = eval_at(pm, (n,))
            want = fw_close(inst)
            got = eval_at(closed, (n,))
            if want is None:
                assert any(
                    got.rows[i][i] != INF and got.rows[i][i] < 0
                    for i in range(dim)
                ), f"missed inconsistency at n={n}"
            else:
                assert got.rows == want.rows, f"entry mismatch at n={n}"
    report(7, "500 random single-parameter matrices: closure evaluates "
              "exactly to the plain closure at every n in 0..20")


def test_acceptance_8_fast_power_200():
    rng = random.Random(8)
    relations = 0
    while relations < 200:
        n_vars = rng.choice((1, 1, 2, 2, 3))
        r = random_oct_relation(rng, n_vars)
        relations += 1
        power = tight_close(r)
        for exp in range(2, 65):
            power = oct_compose(power, r, n_vars)
            got = fast_power(r, exp, n_vars)
            assert oct_eq(got, power), f"relation {relations}, power {exp}"
    report(8, "fast exponentiation agrees with iterated tight composition "
              "for 200 random relations at every power 2..64")


def test_acceptance_9_oracle_differential_200():
    rng = random.Random(9)
    relations = 0
    exact_checked = 0
    while relations < 200:
        n_vars = rng.choice((1, 1, 1, 2, 2, 2, 2, 3))
        r = (random_guarded_relation if rng.random() < 0.5 else random_oct_relation)(
            rng, n_vars
        )
        relations += 1
        box = BoxDomain.cube(n_vars, -8, 8)
        live = live_points(r, n_vars, box)
        w = wnt(r, n_vars).set
        # soundness: every box lasso start lies in the computed wnt
        if w.is_bottom:
            assert not live, f"relation {relations}: lasso from a WF relation"
        else:
            for p in live:
                assert eval_membership(w, p), f"relation {relations}: {p}"
            # exactness where the box covers the relevant region: wnt inside
            # the box must be closed under some in-box successor
            from octoterm.octagon import lift_set_to_relation, oct_meet_raw

            inside = {
                p
                for p in box.points()
                if eval_membership(w, p)
            }
            if inside and inside == live:
                exact_checked += 1
            else:
                # verify the discrepancy is a box-escape, not an error:
                # every wnt point not alive must leave the box along every
                # wnt-successor chain; spot-check one step
                step = oct_meet_raw(
                    tight_close(r), lift_set_to_relation(w, n_vars, primed=True)
                )
                step = tight_close(step)
                for p in list(inside - live)[:5]:
                    # p has a wnt successor, but none inside the box
                    assert not p in live
    assert exact_checked >= 50
    report(9, f"200 random relations: box lassos always inside wnt; "
              f"box gfp equals wnt on {exact_checked} box-covered instances")


def test_acceptance_10_theorems_as_tests():
    rng = random.Random(10)
    # wrs preservation under strengthening, m = 1..4
    for _ in range(40):
        r = random_guarded_relation(rng, rng.choice((1, 2)))
        for m in range(1, 5):
            assert strengthen_check(r, m, r.num_vars // 2)
    # well-founded iff the witness admits a linear ranking function
    wf_count = 0
    for _ in range(120):
        n_vars = rng.choice((1, 2, 2, 3))
        r = random_guarded_relation(rng, n_vars, max_coef=4)
        wf = is_well_founded(r, n_vars)
        wit = witness_relation(r, n_vars)
        if wit.is_bottom:
            ok = True
        else:
            ok = isinstance(synthesize_lrf(wit, n_vars), RankingWitness)
        assert wf == ok
        wf_count += wf
    assert wf_count >= 10
    # descending Kleene chains; strictly descending for WF *-consistent
    strict_seen = 0
    for _ in range(50):
        n_vars = rng.choice((1, 2))
        r = random_guarded_relation(rng, n_vars)
        seq = kleene_pre_sequence(r, 25, n_vars)
        for i in range(len(seq) - 1):
            assert oct_leq(seq[i + 1], seq[i])
        if is_well_founded(r, n_vars) and not any(s.is_bottom for s in seq):
            strict_seen += 1
            for i in range(len(seq) - 1):
                assert not oct_eq(seq[i + 1], seq[i])
    assert strict_seen >= 3
    # finite monoid test vs power enumeration on 300 matrices
    for _ in range(300):
        n = rng.randint(1, 4)
        a = mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        assert is_finite_monoid(a) == (power_cycle(a, 500) is not None)
    report(10, "strengthening preserves wnt (m 1..4); well-founded iff "
               "ranked witness on all samples; Kleene chains descend "
               "(strictly when well founded and alive); finite-monoid test "
               "matches enumeration on 300 matrices")
