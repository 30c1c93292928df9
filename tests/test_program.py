import random

import pytest

from octoterm import program as program_module
from octoterm.grammar import FragmentError, ParseError
from octoterm.program import (
    Budgets,
    Flat,
    LinRel,
    NotFlat,
    compose_members,
    elementary_cycles,
    identity_member,
    is_flat,
    member_cases,
    member_from_octagon,
    member_subsumed,
    nt_program,
    parse_program,
    reach_set,
    transitive_relation,
)

from helpers import BRANCHING_PROGRAM, TWO_PHASE_PROGRAM, seven_branch_relations


def member_eval(m: LinRel, valuation) -> bool:
    return any(c.eval(valuation) for c in member_cases(m))


def union_eval(members, valuation) -> bool:
    return any(member_eval(m, valuation) for m in members)


@pytest.fixture(scope="module")
def branching():
    return parse_program(BRANCHING_PROGRAM)


@pytest.fixture(scope="module")
def two_phase():
    return parse_program(TWO_PHASE_PROGRAM)


def test_parse_program_shapes(branching):
    assert branching.variables == ("x", "y")
    assert branching.init == "l1"
    assert len(branching.transitions) == 10
    # x != 0 splits into two octagonal disjuncts
    assert len(branching.transitions[0].label) == 2


def test_parse_empty_program():
    p = parse_program("vars x;\ninit l0;\n")
    assert p.states == ("l0",)
    assert nt_program(p).precondition.is_false


def test_parse_affine_label():
    p = parse_program("vars x;\ninit a;\na -> b : x' == 2x + 1 && x >= 0;\n")
    from octoterm.grammar import AffLabel

    assert isinstance(p.transitions[0].label[0], AffLabel)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_program("vars x;\ninit a;\na -> b : x >= ;\n")
    with pytest.raises(FragmentError):
        parse_program("vars x, y;\ninit a;\na -> b : x + 2*y <= 1 && x' >= y';\n")


def test_flatness(branching, two_phase):
    res = is_flat(branching)
    assert isinstance(res, NotFlat)
    assert "3 elementary cycles" in res.reason
    assert isinstance(is_flat(two_phase), Flat)
    single = parse_program("vars x;\ninit a;\na -> a : x >= 0 && x' == x - 1;\n")
    assert isinstance(is_flat(single), Flat)


def test_elementary_cycles(branching):
    cycles = elementary_cycles(branching)
    assert len(cycles) == 3
    assert all(any(t.source == "l1" for t in c) for c in cycles)


def test_branching_summary_matches_listed_relations(branching):
    members, exact = transitive_relation(branching, "l1", "l1")
    assert exact
    listed = seven_branch_relations()
    listed_members = [member_from_octagon(r, ("x", "y")) for r in listed]
    rng = random.Random(0)
    for _ in range(4000):
        pt = {n: rng.randint(-7, 7) for n in ("x", "y", "x'", "y'")}
        want = union_eval(listed_members, pt)
        got = union_eval(members, pt)
        assert want == got, pt


def test_straight_line_composition():
    p = parse_program(
        "vars x;\ninit a;\na -> b : x' == x + 1;\nb -> c : x' == 2x;\n"
    )
    members, exact = transitive_relation(p, "a", "c")
    assert exact and len(members) == 1
    assert member_eval(members[0], {"x": 3, "x'": 8})
    assert not member_eval(members[0], {"x": 3, "x'": 7})


def test_summary_excludes_zero_length_path(branching):
    members, _ = transitive_relation(branching, "l1", "l1")
    # identity pairs with x = 0 are unreachable by any positive-length run
    assert not union_eval(members, {"x": 0, "y": 3, "x'": 0, "y'": 3})


def test_random_flat_programs_vs_path_enumeration():
    rng = random.Random(23)
    for _ in range(12):
        # 3-state line with one self-loop in the middle
        d = rng.randint(-2, 2)
        g = rng.randint(-2, 2)
        text = (
            "vars x, y;\n"
            "init a;\n"
            f"a -> b : x' == x + {rng.randint(-2, 2)} && y' == y;\n"
            f"b -> b : x <= {g} && x' == x + 1 && y' == y + {d};\n"
            f"b -> c : x' == x && y' == y + {rng.randint(-2, 2)};\n"
        )
        p = parse_program(text)
        members, exact = transitive_relation(p, "a", "c")
        assert exact

        def step_all(pt, label):
            outs = []
            from octoterm.grammar import OctLabel
            from octoterm.octagon import oct_decode, tight_close

            for dd in label:
                rel = tight_close(dd.relation)
                if rel.is_bottom:
                    continue
                atoms = oct_decode(rel)
                for xv in range(-10, 11):
                    for yv in range(-10, 11):
                        full = (pt[0], pt[1], xv, yv)
                        if all(si * full[i] + sj * full[j] <= c
                               for si, i, sj, j, c in atoms):
                            outs.append((xv, yv))
            return outs

        by_name = {}
        for t in p.transitions:
            by_name.setdefault(t.source, []).append(t)
        for _ in range(30):
            start = (rng.randint(-4, 4), rng.randint(-4, 4))
            reachable = set()
            frontier = {("a", start)}
            seen = set()
            for _ in range(14):
                nxt = set()
                for st, pt in frontier:
                    for t in by_name.get(st, []):
                        for out in step_all(pt, t.label):
                            cfg = (t.target, out)
                            if cfg not in seen:
                                seen.add(cfg)
                                nxt.add(cfg)
                            if t.target == "c":
                                reachable.add(out)
                frontier = nxt
            for out in reachable:
                val = {"x": start[0], "y": start[1], "x'": out[0], "y'": out[1]}
                assert union_eval(members, val), (text, start, out)


def test_reach_set_examples(branching):
    reach, exact = reach_set(branching, "l1")
    assert reach.eval({"x": 123, "y": -5})
    reach2, _ = reach_set(branching, "l8")
    assert reach2.eval({"x": 0, "y": 7})
    assert not reach2.eval({"x": 1, "y": 7})


def test_nt_program_branching_golden(branching):
    res = nt_program(branching)
    assert not res.flat
    for x in range(-10, 11):
        for y in range(-10, 11):
            assert res.precondition.eval({"x": x, "y": y}) == (x != 0)


def test_nt_program_two_phase_golden(two_phase):
    res = nt_program(two_phase)
    assert res.flat and res.exact
    rng = random.Random(3)
    def golden(x, m, n):
        return (n == 2 * m - x and m >= x + 1 and n >= m + 1) or (m <= x and n <= x)
    for x in range(-6, 7):
        for m in range(-6, 7):
            for n in range(-6, 7):
                got = res.precondition.eval({"x": x, "y": 0, "y0": 0, "m": m, "n": n})
                assert got == golden(x, m, n)
    for _ in range(2000):
        x, y, y0v, m, n = (rng.randint(-9, 9) for _ in range(5))
        got = res.precondition.eval({"x": x, "y": y, "y0": y0v, "m": m, "n": n})
        assert got == golden(x, m, n)


def test_two_phase_loop_closures(two_phase):
    # R*_{2,2} is the identity or x'-x = y'-y, x' >= x+1, m >= x', frame fixed
    members, exact = transitive_relation(two_phase, "l2", "l2")
    assert exact
    rng = random.Random(9)
    def golden_plus(x, y, m, x2, y2):
        return x2 - x == y2 - y and x2 >= x + 1 and m >= x2
    for _ in range(3000):
        x, y, m, n, y0v = (rng.randint(-6, 6) for _ in range(5))
        x2, y2 = rng.randint(-6, 6), rng.randint(-6, 6)
        val = {"x": x, "y": y, "m": m, "n": n, "y0": y0v,
               "x'": x2, "y'": y2, "m'": m, "n'": n, "y0'": y0v}
        assert union_eval(members, val) == golden_plus(x, y, m, x2, y2)
    # frame must be preserved
    val = {"x": 0, "y": 0, "m": 5, "n": 0, "y0": 0,
           "x'": 1, "y'": 1, "m'": 4, "n'": 0, "y0'": 0}
    assert not union_eval(members, val)
    members5, exact5 = transitive_relation(two_phase, "l5", "l5")
    assert exact5
    def golden5(x, y, n, x2, y2):
        return x2 - x == y - y2 and x2 >= x + 1 and n >= x2
    for _ in range(3000):
        x, y, m, n, y0v = (rng.randint(-6, 6) for _ in range(5))
        x2, y2 = rng.randint(-6, 6), rng.randint(-6, 6)
        val = {"x": x, "y": y, "m": m, "n": n, "y0": y0v,
               "x'": x2, "y'": y2, "m'": m, "n'": n, "y0'": y0v}
        assert union_eval(members5, val) == golden5(x, y, n, x2, y2)


def test_member_subsumption_and_compose():
    ident = identity_member(("x",))
    assert member_subsumed(ident, ident)
    from octoterm.octagon import oct_encode

    dec = member_from_octagon(
        oct_encode([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1)], 2), ("x",)
    )
    two = compose_members(dec, dec)
    assert len(two) == 1
    assert member_eval(two[0], {"x": 5, "x'": 3})
    assert not member_eval(two[0], {"x": 5, "x'": 4})
    assert member_subsumed(two[0], two[0])
    assert not member_subsumed(dec, two[0])


def test_elimination_order_invariance(branching):
    # summary precision does not depend on hitting-set choices: contribution
    # through l2 equals contribution through l1 for this program
    m1, _ = transitive_relation(branching, "l2", "l2")
    rng = random.Random(5)
    r5_like = 0
    for _ in range(500):
        pt = {n: rng.randint(-5, 5) for n in ("x", "y", "x'", "y'")}
        if union_eval(m1, pt):
            r5_like += 1
    assert r5_like > 0


def test_eliminate_params_of_closure_union():
    from octoterm.closure import reflexive_transitive_closure
    from octoterm.octagon import oct_encode
    from octoterm.program import eliminate_params

    dec = oct_encode([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2)
    u = reflexive_transitive_closure(dec, 1)
    dnf = eliminate_params(u, ["x"])
    # reflexive-transitive closure: identity or x >= k >= 0 steps down
    for x in range(-4, 6):
        for x2 in range(-4, 6):
            want = (x2 == x) or (x >= 0 and x2 < x and x2 >= -1)
            # k steps from x: x' = x-1-k with x >= k: x' ranges x-1 down to -1
            assert dnf.eval({"x": x, "x'": x2}) == want, (x, x2)


def _ramp(step: str) -> str:
    """A one-phase ramp: x climbs to m0 while y moves by step 1."""
    return (
        "vars x, y, y0, m0;\n"
        "init l0;\n"
        "l0 -> l1 : y0' == y && id(x, y, m0);\n"
        f"l1 -> l1 : x < m0 && x' == x + 1 && y' == y {step} 1 && id(y0, m0);\n"
        "l1 -> l2 : x >= m0 && id(x, y, y0, m0);\n"
        "l2 -> l2 : y == y0 && id(x, y, y0, m0);\n"
        "l2 -> l3 : y != y0 && id(x, y, y0, m0);\n"
    )


# two loops with coupled counters: their members keep loop parameters
COUPLED_PROGRAM = """
vars x, y;
init l0;
l0 -> l0 : x < 10 && x' == x + 1 && y' == y + 2;
l0 -> l1 : x >= 10 && id(x, y);
l1 -> l1 : y > 0 && y' == y - 3 && x' == x + 2;
l1 -> l2 : y <= 0 && id(x, y);
l2 -> l2 : x' == x;
"""

# the swap has period 2: a period budget of 1 leaves its closure uncertified
SWAP_PROGRAM = """
vars x, y;
init l0;
l0 -> l1 : id(x, y);
l1 -> l1 : x >= 0 && x' == y && y' == x;
l1 -> l2 : x < 0 && id(x, y);
"""


def _clear_memos():
    for fn in vars(program_module).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


@pytest.mark.parametrize(
    "text, head",
    [
        (BRANCHING_PROGRAM, "l1"),
        (TWO_PHASE_PROGRAM, "l2"),
        (_ramp("+"), "l1"),
        (_ramp("-"), "l1"),
        (COUPLED_PROGRAM, "l2"),
        (SWAP_PROGRAM, "l1"),
    ],
    ids=["branching", "two-phase", "ramp-up", "ramp-down", "coupled", "swap"],
)
def test_memo_tables_do_not_change_results(text, head):
    p = parse_program(text)
    budgets = [Budgets(), Budgets(max_period=1), Budgets(max_disjuncts=1)]

    def analyze(b):
        return (
            nt_program(p, b),
            transitive_relation(p, head, head, b),
            transitive_relation(p, p.init, head, b),
        )

    # each run meets the tables the runs before it filled: a key that left
    # out the budgets would hand it their summaries
    warm = [analyze(b) for b in budgets]
    for b, want in zip(budgets, warm):
        _clear_memos()
        assert analyze(b) == want
    for _, *summaries in warm:
        for members, _ in summaries:
            for m in members:
                assert m.params == tuple(f"_p{i}" for i in range(len(m.params)))
    assert not warm[0][0].budget_exhausted
    assert warm[2][0].budget_exhausted


def test_swap_period_budget_is_exhausted():
    p = parse_program(SWAP_PROGRAM)
    assert not nt_program(p).budget_exhausted
    res = nt_program(p, Budgets(max_period=1))
    assert res.budget_exhausted and not res.exact


def test_members_are_named_by_position():
    from octoterm.closure import ParamOct, reflexive_transitive_closure
    from octoterm.octagon import oct_encode
    from octoterm.program import member_from_param_oct

    dec = oct_encode([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2)
    fams = [
        m for m in reflexive_transitive_closure(dec, 1).members
        if isinstance(m, ParamOct)
    ]
    assert fams
    for f in fams:
        assert member_from_param_oct(f, ("x",)).params == ("_p0",)
    p = parse_program(COUPLED_PROGRAM)
    members, exact = transitive_relation(p, "l0", "l2")
    assert exact
    assert sorted(m.params for m in members) == [(), ("_p0",), ("_p0",), ("_p0", "_p1")]
    # a second call builds equal members, not renamed copies
    assert transitive_relation(p, "l0", "l2") == (members, exact)


@pytest.mark.parametrize("divisible", [False, True], ids=["param-oct", "elimination"])
def test_composed_parameters_stay_apart(divisible):
    # x' = x + 2k then x' = x + 3j: every step but 1 is reachable.  A
    # divisibility atom sends the composition through integer elimination
    # instead of the parametric closure.
    from octoterm.linarith import EQ, LinTerm
    from octoterm.presburger import Conj, DivAtom

    x, x1, p0 = LinTerm.var("x"), LinTerm.var("x'"), LinTerm.var("_p0")
    divs = [DivAtom(3, x)] if divisible else []
    a = LinRel(("x",), Conj.make([(x1 - x - 2 * p0, EQ)], divs), ("_p0",))
    b = LinRel(("x",), Conj.make([(x1 - x - 3 * p0, EQ)]), ("_p0",))
    out = compose_members(a, b)
    assert [m.params for m in out] == [("_p0", "_p1")] * len(out)
    for start in range(-3, 4):
        for step in range(-2, 12):
            want = step != 1 and step >= 0 and (start % 3 == 0 or not divisible)
            assert union_eval(out, {"x": start, "x'": start + step}) == want
