import copy
import itertools
import random

import pytest

from octoterm import program as program_module
from octoterm import presburger as presburger_module
from octoterm.grammar import FragmentError, ParseError, parse_program_text
from octoterm.linarith import EQ, LE, LinTerm
from octoterm.octagon import Octagon
from octoterm.presburger import Conj
from octoterm.program import (
    Budgets,
    Flat,
    LinRel,
    NotFlat,
    compose_members,
    identity_member,
    is_flat,
    member_cases,
    member_from_octagon,
    member_subsumed,
    member_to_octagon,
    nt_program,
    parse_program,
    transitive_relation,
)

from helpers import (
    BRANCHING_PROGRAM,
    ORDER_840_PROGRAM,
    STEP_2_BRANCHING_PROGRAM,
    TWO_PHASE_PROGRAM,
    call_within,
    clear_memos,
    elementary_cycles,
    eliminate_params,
    is_acyclic,
    one_phase_ramp,
    perfbench_check,
    perfbench_gen,
    reach_set,
    reference_cycle_cover,
    reference_dedupe_star_members,
    reference_is_flat,
    reference_star_members,
    seven_branch_relations,
)


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
    from octoterm.affine import AffineRel

    assert isinstance(p.transitions[0].label[0], AffineRel)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_program("vars x;\ninit a;\na -> b : x >= ;\n")
    with pytest.raises(FragmentError):
        parse_program("vars x, y;\ninit a;\na -> b : x + 2*y <= 1 && x' >= y';\n")


def test_flatness(branching, two_phase):
    res = is_flat(branching)
    assert isinstance(res, NotFlat)
    assert res.reason == ("state l2 lies on two or more cycles of the strongly connected "
                          "component {l1, l2, l3, l4, l5, l6, l7}")
    assert isinstance(is_flat(two_phase), Flat)
    single = parse_program("vars x;\ninit a;\na -> a : x >= 0 && x' == x - 1;\n")
    assert isinstance(is_flat(single), Flat)
    # a cycle no run goes round composes to the empty relation: it is the
    # empty octagon, with an exactly empty WNT, and keeps the program flat
    for text, precondition in [
        ("vars x;\ninit a;\na -> a : false;\n", "false"),
        ("vars x;\ninit a;\na -> b : x >= 1 && x' == x;\nb -> a : x <= 0 && x' == x;\n"
         "a -> c : x' == x;\nc -> c : x' == x - 1;\n", "(true)"),
    ]:
        p = parse_program(text)
        assert isinstance(is_flat(p), Flat)
        res = nt_program(p)
        assert res.flat and res.exact
        assert repr(res.precondition) == precondition


def test_flat_verdict_truth_value(branching, two_phase):
    # a one-field NotFlat tuple was truthy: ``if is_flat(p)`` held for all p
    assert not is_flat(branching)
    assert is_flat(two_phase)


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


def test_summary_leaves_out_states_off_the_paths():
    # the doubling loop at l2 is hulled, which makes a summary through l2
    # inexact; no l0 -> l1 run reaches l2, so the l0 -> l1 summary stays exact
    p = parse_program("vars x; init l0; l0 -> l1 : x' == x - 1 && x >= 0; "
                      "l1 -> l0 : id(x); l1 -> l2 : id(x); "
                      "l2 -> l2 : x' == 2x && x >= 1 && x <= 10;")
    members, exact = transitive_relation(p, "l0", "l1")
    assert exact and len(members) == 2
    for x in range(-3, 8):
        for x1 in range(-5, 8):
            # x' = x - k for some k >= 1 with every decremented value >= 0
            want = x1 < x and x1 >= -1
            assert union_eval(members, {"x": x, "x'": x1}) == want, (x, x1)
    assert not transitive_relation(p, "l0", "l2")[1]


def test_summary_rejects_unknown_states():
    p = parse_program("vars x; init a; a -> a : x >= 0 && x' == x - 1;")
    with pytest.raises(ValueError, match="no state 'zz'$"):
        transitive_relation(p, "zz", "zz")
    with pytest.raises(ValueError, match="no state 'b'$"):
        transitive_relation(p, "a", "b")


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
            from octoterm.octagon import oct_decode, tight_close

            for dd in label:
                rel = tight_close(dd)
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


def one_param_member(entries) -> LinRel | None:
    """{x | exists _p0 >= 0 . a - b <= c + r*_p0 for every term (c, r) of
    entry (a, b)} over the index terms [x, 0]; None when a constant row
    fails."""
    index = [LinTerm.var("x"), LinTerm()]
    rows = []
    for a in range(2):
        for b in range(2):
            for c, r in entries[a][b]:
                row = index[a] - index[b] - LinTerm({"_p0": r}, c)
                if not (row.is_constant() and row.const <= 0):
                    rows.append((row, LE))
    conj = Conj.make(rows)
    return None if conj is None else LinRel(("x",), conj, ("_p0",))


def test_member_cases_examples():
    # x - 0 <= k and 0 - x <= -k encode x = k
    m = one_param_member([[((0, 0),), ((0, 1),)], [((0, -1),), ((0, 0),)]])
    assert member_eval(m, {"x": 0}) and member_eval(m, {"x": 7})
    assert not member_eval(m, {"x": -1})
    # x <= -k with k >= 0: x <= 0
    m2 = one_param_member([[((0, 0),), ((0, -1),)], [(), ((0, 0),)]])
    assert member_eval(m2, {"x": 0}) and member_eval(m2, {"x": -5})
    assert not member_eval(m2, {"x": 1})


def test_member_cases_membership_vs_search():
    rng = random.Random(17)
    for _ in range(60):
        entries = [[(), ()], [(), ()]]
        for i in range(2):
            for j in range(2):
                ts = []
                for _ in range(rng.randint(0, 2)):
                    ts.append((rng.randint(-4, 4), rng.randint(-2, 2)))
                if i == j:
                    ts.append((0, 0))
                entries[i][j] = tuple(ts)
        m = one_param_member(entries)
        for xv in range(-10, 11):
            # oracle: every term holds for some k >= 0.  Each term (c, r)
            # of entry (a, b) asks d <= c + r*k, where d = val[a] - val[b]
            # lies in [-10, 10] and c >= -4: a lower bound k >= (d - c)/r
            # <= 14 when r >= 1, an upper bound or nothing when r <= 0.  So
            # the feasible k-set is an interval whose left end is at most
            # 14, and searching 0..60 is complete; the tail check below
            # asserts it.
            def consistent_at(kv):
                val = (xv, 0)
                return all(val[a] - val[b] <= c + r * kv
                           for a in range(2) for b in range(2) for c, r in entries[a][b])

            exists = any(consistent_at(kv) for kv in range(0, 61))
            if not exists:
                assert not any(consistent_at(kv) for kv in range(61, 201))
            assert (m is not None and member_eval(m, {"x": xv})) == exists


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

    dec = oct_encode([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2)
    u = reflexive_transitive_closure(dec, 1)
    dnf = eliminate_params(u, ["x"])
    # reflexive-transitive closure: identity or x >= k >= 0 steps down
    for x in range(-4, 6):
        for x2 in range(-4, 6):
            want = (x2 == x) or (x >= 0 and x2 < x and x2 >= -1)
            # k steps from x: x' = x-1-k with x >= k: x' ranges x-1 down to -1
            assert dnf.eval({"x": x, "x'": x2}) == want, (x, x2)


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


@pytest.mark.parametrize(
    "text, head",
    [
        (BRANCHING_PROGRAM, "l1"),
        (TWO_PHASE_PROGRAM, "l2"),
        (one_phase_ramp("+"), "l1"),
        (one_phase_ramp("-"), "l1"),
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
        clear_memos()
        assert analyze(b) == want
    for _, *summaries in warm:
        for members, _ in summaries:
            for m in members:
                assert m.params == tuple(f"_p{i}" for i in range(len(m.params)))
    assert not warm[0][0].budget_exhausted
    assert warm[2][0].budget_exhausted


def test_a_repeated_program_runs_no_elimination(monkeypatch):
    # the image of each conjunct through each summary member is memoized, so
    # a second analysis of the same text eliminates nothing
    calls = []
    real = presburger_module.eliminate_rows

    def spy(*args):
        calls.append(args)
        return real(*args)

    # the row-level entry of every elimination: member_cases (through
    # eliminate_all), compose_members and _member_image
    monkeypatch.setattr(presburger_module, "eliminate_rows", spy)
    monkeypatch.setattr(program_module, "eliminate_rows", spy)
    for text in (one_phase_ramp("+"), TWO_PHASE_PROGRAM, STEP_2_BRANCHING_PROGRAM):
        clear_memos()
        first = repr(nt_program(parse_program(text)))
        assert calls
        calls.clear()
        assert repr(nt_program(parse_program(text))) == first
        assert calls == []


def _round(programs) -> list[str]:
    """repr of is_flat, nt_program and the head summary of each program."""
    return [repr((is_flat(p), nt_program(p), transitive_relation(p, head, head)))
            for p, head in programs]


def test_a_repeated_program_reads_its_plan_and_summaries(monkeypatch):
    # the flatness verdict and the structure are memoized per program, the
    # analysis per (program, budgets) and each summary per (program, ends,
    # budgets): a second round builds no structure, saturates no loop and
    # eliminates nothing
    programs = [(parse_program(BRANCHING_PROGRAM), "l1"),
                (parse_program(one_phase_ramp("+")), "l1")]
    clear_memos()
    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for module, name in [(program_module, "_structure"),
                         (program_module, "_star_members"),
                         (program_module, "eliminate_rows"),
                         (presburger_module, "eliminate_rows")]:
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    first = _round(programs)
    assert {"_structure", "_star_members", "eliminate_rows"} <= set(calls)
    calls.clear()
    assert _round(programs) == first
    assert calls == []


def test_a_warm_analysis_reads_no_summary(monkeypatch):
    # the analysis memo holds the flags with the sets: a warm call asks no
    # summary and builds no structure, and a summary evicted from its memo
    # is not rebuilt to read its flags again
    calls = []

    def spy(name, real):
        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    summary_memo = program_module._summary
    for text in (BRANCHING_PROGRAM, one_phase_ramp("+")):
        p = parse_program(text)
        want = nt_program(p)
        with monkeypatch.context() as mp:
            for name in ("_summary", "_structure", "_star_members"):
                mp.setattr(program_module, name, spy(name, getattr(program_module, name)))
            assert repr(nt_program(p)) == repr(want)
            summary_memo.cache_clear()
            res = nt_program(p)
        assert repr(res) == repr(want)
        assert (res.flat, res.exact, res.budget_exhausted) == (
            want.flat, want.exact, want.budget_exhausted)
        assert calls == []


def test_a_memo_hands_out_nothing_to_write(branching):
    # each call gets its own precondition, per-state list and member list,
    # so writing into them leaves the next call's result alone
    x_le_7 = Conj.make([(LinTerm({"x": 1}, -7), LE)])
    for p, head in [(branching, "l1"), (parse_program(one_phase_ramp("+")), "l1")]:
        res = nt_program(p)
        members, _ = transitive_relation(p, head, head)
        want = repr((res, members))
        res.precondition.add(x_le_7)
        for _, _, w in res.per_state:
            w.add(x_le_7)
        res.per_state.append(res.per_state[0])
        members.append(identity_member(p.variables))
        assert repr((res, members)) != want
        assert repr((nt_program(p), transitive_relation(p, head, head)[0])) == want


def test_budgets_are_part_of_the_memo_keys():
    # the default run fills the analysis and summary memos first; the
    # budget-limited run still gets its own summary flags
    p = parse_program(EX1_PROGRAM)
    budgets = Budgets(max_prefix=2, max_period=1)
    nt_program(p)
    assert transitive_relation(p, "s0", "a")[1]
    res = nt_program(p, budgets)
    assert not transitive_relation(p, "s0", "a", budgets)[1]
    assert [(q, method, w.is_false) for q, method, w in res.per_state] == [
        ("a", "single-cycle", True), ("b", "single-cycle", False)]
    assert res.exact and not res.budget_exhausted
    assert transitive_relation(p, "s0", "a")[1]


# an octagonal edge into the rotation's affine self-loop
AFFINE_LABEL_PROGRAM = ("vars x, y; init a; a -> b : x >= 0 && id(x, y);"
                        " b -> b : x' == y && y' == -x - y && x >= 0;")


def _label_contents(p):
    """A deep copy of what every label holds: each octagon's tight flag and
    DBM rows, and each affine step as it is."""
    return [[(d.tight, copy.deepcopy(d.dbm and d.dbm.rows)) if isinstance(d, Octagon)
             else copy.deepcopy(d) for d in t.label] for t in p.transitions]


def _analysis(p):
    """nt_program, then transitive_relation from init to each analysed state."""
    res = nt_program(p)
    summaries = [transitive_relation(p, p.init, q) for q, _, _ in res.per_state]
    return repr(is_flat(p)), repr(res), repr(summaries)


@pytest.mark.parametrize("text", [BRANCHING_PROGRAM, TWO_PHASE_PROGRAM, one_phase_ramp("+"),
                                  one_phase_ramp("-"), STEP_2_BRANCHING_PROGRAM,
                                  AFFINE_LABEL_PROGRAM],
                         ids=["branching", "two_phase", "ramp_up", "ramp_down",
                              "step_2_branching", "affine_label"])
def test_the_shared_program_is_never_written(text):
    # a repeated text is one Program object, so an analysis that wrote into
    # a label would change every later analysis of the text
    p = parse_program(text)
    before = _label_contents(p)
    first = _analysis(p)
    assert _label_contents(p) == before
    assert parse_program(text) is p
    clear_memos()
    fresh = parse_program(text)
    assert fresh == p and fresh is not p
    assert _analysis(fresh) == first


def test_a_repeated_text_is_parsed_once(monkeypatch):
    calls = []

    def spy(text):
        calls.append(text)
        return parse_program_text(text)

    monkeypatch.setattr(program_module, "parse_program_text", spy)
    clear_memos()
    text = one_phase_ramp("+")
    p = parse_program(text)
    assert parse_program(text) is p and calls == [text]


def test_image_memo_keeps_the_direction_apart():
    # q's reach is the post-image of true through the a -> q member, and
    # q's WNT, also true, is pulled back through the same member: the two
    # images of one (member, conjunct) pair are its range and its domain
    p = parse_program("vars x;\ninit a;\na -> q : x >= 5;\nq -> q : x' == x;\n"
                      "q -> q : x' == x + 1;\n")
    res = nt_program(p)
    assert repr(res.per_state) == "[('q', 'tinv', (true))]"
    assert repr(res.precondition) == "(-1*x + 5 <= 0)"


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
    # x' = x + 2k then x' = x + 3j: every step but 1 is reachable, with and
    # without a divisibility atom; both pairs compose by integer elimination
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


DYING_LOOP_PROGRAM = """
vars x, y;
init l1;
l1 -> l1 : x >= 0 && x <= 1000 && x' == x - 1 && y' == y;
l1 -> l2 : x < 0 && id(x, y);
l2 -> l2 : y >= 0 && id(x, y);
"""


def test_nt_program_dying_self_loop_matches_the_oracle():
    from octoterm.closure import ParamOct, reflexive_transitive_closure
    from octoterm.octagon import oct_encode
    from octoterm.oracle import BoxDomain, program_live_starts
    from octoterm.program import member_from_param_oct

    # the self-loop dies at power 1002: one family bounded by _p0 <= 1000
    loop = oct_encode([(-1, 0, -1, 0, 0), (1, 0, 1, 0, 2000), (1, 1, -1, 0, -1),
                       (-1, 1, 1, 0, 1)], 2)
    (fam,) = reflexive_transitive_closure(loop, 1).members
    assert isinstance(fam, ParamOct) and fam.k_max == 1000
    m = member_from_param_oct(fam, ("x",))
    assert member_eval(m, {"x": 1000, "x'": -1, "_p0": 1000})
    assert not member_eval(m, {"x": 1001, "x'": -1, "_p0": 1001})
    p = parse_program(DYING_LOOP_PROGRAM)
    res = nt_program(p)
    assert res.exact and not res.budget_exhausted
    box = BoxDomain(((-3, 1003), (-1, 1)))
    starts = program_live_starts(p, box)
    for pt in box.points():
        assert res.precondition.eval({"x": pt[0], "y": pt[1]}) == (pt in starts), pt


# x' = y, y' = -x - y has order 3, so the single cycle takes the finite-monoid WNT
ROTATION_PROGRAM = "vars x, y; init a; a -> a : x' == y && y' == -x - y && x >= 0;"


def test_nt_program_single_affine_cycle_keeps_the_program_names():
    from octoterm.oracle import BoxDomain, program_live_starts

    p = parse_program(ROTATION_PROGRAM)
    res = nt_program(p)
    ((state, method, w_dnf),) = res.per_state
    assert (state, method) == ("a", "single-cycle")
    for dnf in (res.precondition, w_dnf):
        assert list(dnf) and all(c.variables() <= {"x", "y"} for c in dnf)
    box = BoxDomain.cube(2, -4, 4)
    starts = program_live_starts(p, box)
    assert (0, 0) in starts
    for x, y in starts:
        assert res.precondition.eval({"x": x, "y": y})
        assert w_dnf.eval({"x": x, "y": y})


def test_nt_program_single_affine_cycle_past_a_power_cycle_of_512():
    # the cycle's finite monoid has order 840: the single-cycle WNT scans
    # its powers past 512 instead of failing an assertion
    res, _ = call_within(30, "nt_program", nt_program, parse_program(ORDER_840_PROGRAM))
    ((state, method, w_dnf),) = res.per_state
    assert (state, method) == ("a", "single-cycle") and res.exact
    # x0 = x1 = 0 is the one fixed point of the rotation inside x0 >= 0
    for x0, x1 in itertools.product(range(-3, 4), repeat=2):
        point = {f"x{i}": 0 for i in range(22)} | {"x0": x0, "x1": x1}
        assert w_dnf.eval(point) == (x0 == x1 == 0)


def test_nt_program_cycle_at_the_initial_state_needs_no_pull_back():
    # the exact WNT x = y = 0 of the one cycle is the precondition; pulled
    # back through the octagonal hull of the affine star it also held at
    # the starts (x, 0), x > 0, which die after two steps
    from octoterm.oracle import BoxDomain, program_live_starts

    p = parse_program(ROTATION_PROGRAM)
    res = nt_program(p)
    assert res.exact and not res.budget_exhausted
    box = BoxDomain.cube(2, -4, 4)
    starts = program_live_starts(p, box)
    assert starts == {(0, 0)}
    for pt in box.points():
        assert res.precondition.eval(dict(zip(p.variables, pt))) == (pt in starts), pt


# the affine edge and the guarded identity, a deterministic octagonal
# update, compose into x' = x, y' = y guarded by x >= 0 and x + y >= 0
MIXED_CYCLE_PROGRAM = """
vars x, y; init a;
a -> b : x' == x + y && y' == -y;
b -> a : x >= 0 && x' == x && y' == y;
"""


def test_cycle_of_an_affine_and_an_octagonal_label_is_flat_and_exact():
    from octoterm.oracle import BoxDomain, program_live_starts

    p = parse_program(MIXED_CYCLE_PROGRAM)
    assert is_flat(p)
    res = nt_program(p)
    assert res.flat and res.exact and not res.budget_exhausted
    ((conj,),) = [list(res.precondition)]
    x, y = LinTerm.var("x"), LinTerm.var("y")
    assert set(conj.rows) == {(-x, LE), (-x - y, LE)} and not conj.divs
    box = BoxDomain.cube(2, -3, 3)
    starts = program_live_starts(p, box)
    for pt in box.points():
        if abs(sum(pt)) <= 3:  # the run stays in the box
            assert res.precondition.eval(dict(zip(p.variables, pt))) == (pt in starts), pt


# q -> r -> q is q's one cycle, but r -> m -> r climbs to x = 5 before
# it, and m -> n -> m takes m first in the cycle cover: P+(q, q) is more
# than the cycle's powers, so q's WNT x >= 5 must still be pulled back
MEETING_CYCLES_PROGRAM = """
vars x; init q;
q -> r : x' == x;
r -> q : x' == x && x >= 5;
r -> m : x' == x + 1 && x <= 4;
m -> r : x' == x;
m -> n : x' == x - 1 && x >= 100;
n -> m : x' == x - 1;
"""


def test_nt_program_pulls_back_a_cycle_at_the_initial_state_that_meets_others():
    from octoterm.oracle import BoxDomain, program_live_starts

    p = parse_program(MEETING_CYCLES_PROGRAM)
    res = nt_program(p)
    assert ("q", "single-cycle") in [(q, method) for q, method, _ in res.per_state]
    box = BoxDomain.cube(1, -6, 8)
    starts = program_live_starts(p, box)
    assert (0,) in starts
    for (x,) in starts:
        assert res.precondition.eval({"x": x}), x


# a's loop terminates, so a's WNT is empty and nothing is pulled back
# through P+(s0, a); with these budgets that summary would be inexact
EX1_PROGRAM = """
vars x; init s0;
s0 -> a : x' == x;
a -> a : x >= -100 && x' >= x + 1 && x' <= x + 2 && x' <= 100;
s0 -> b : x' == x;
b -> b : x >= 1 && x' == x;
"""


def test_nt_program_skips_the_summary_of_an_empty_wnt():
    from octoterm.oracle import BoxDomain, program_live_starts

    p = parse_program(EX1_PROGRAM)
    budgets = Budgets(max_prefix=2, max_period=1)
    assert not transitive_relation(p, "s0", "a", budgets)[1]
    res = nt_program(p, budgets)
    assert [(q, method, w.is_false) for q, method, w in res.per_state] == [
        ("a", "single-cycle", True), ("b", "single-cycle", False)]
    assert res.exact and not res.budget_exhausted
    box = BoxDomain.cube(1, -8, 8)
    starts = program_live_starts(p, box)
    assert starts == {(x,) for x in range(1, 9)}
    for (x,) in box.points():
        assert res.precondition.eval({"x": x}) == ((x,) in starts), x


def _summary_calls(p, monkeypatch) -> list[tuple[str, str]]:
    """The (source, target) of each ``_summary`` call of ``nt_program(p)``
    once its analysis memo is cleared, with the summaries memoized."""
    nt_program(p)
    program_module._analysis.cache_clear()
    calls = []
    real = program_module._summary

    def spy(program, q_in, q_out, budgets):
        calls.append((q_in, q_out))
        return real(program, q_in, q_out, budgets)

    with monkeypatch.context() as mp:
        mp.setattr(program_module, "_summary", spy)
        nt_program(p)
    return calls


def test_nt_program_pulls_back_only_a_nonempty_wnt(monkeypatch):
    # the one-phase ramp's loop at l1 terminates: only l2's WNT y == y0 is
    # pulled back, through l2's loop closure and then through l1's; the
    # edges l0 -> l1 and l1 -> l2 take label pre-images, and nothing builds
    # a summary from the initial state
    p = parse_program(perfbench_gen().ramp_program(random.Random(7), 1)["text"])
    assert _summary_calls(p, monkeypatch) == [("l2", "l2"), ("l1", "l1")]


def test_nt_program_computes_each_summary_once(monkeypatch, branching):
    # at the initial state the transition invariant P+(l1, l1) is also the
    # summary the WNT is pulled back through
    assert _summary_calls(branching, monkeypatch) == [("l1", "l1")]


# z, which init does not reach, has an edge into the component {b, c} at
# c, which no other edge enters from outside the component
STRAY_EDGE_PROGRAM = """
vars x;
init a;
a -> b : x' == x + 1;
b -> c : id(x);
c -> b : id(x);
z -> c : x' == x - 1;
"""


def test_an_edge_from_a_state_init_does_not_reach_makes_no_entry(monkeypatch):
    # the backward pass solves X only at init and the targets of edges
    # between the components init reaches: c stays no entry, so no summary
    # starts there, and the stray edge changes neither the calls nor the result
    p = parse_program(STRAY_EDGE_PROGRAM)
    q = parse_program(STRAY_EDGE_PROGRAM.replace("z -> c : x' == x - 1;\n", ""))
    assert "z" in p.states and "z" not in q.states
    calls = _summary_calls(p, monkeypatch)
    assert calls == _summary_calls(q, monkeypatch) == [("b", "b")]
    res, ref = nt_program(p), nt_program(q)
    assert (res.flat, res.exact, res.budget_exhausted) == (ref.flat, ref.exact,
                                                           ref.budget_exhausted)
    assert repr(res.precondition) == repr(ref.precondition) == "(true)"


def _reference_requests():
    """Benchmark requests with a reference precondition: the ramps with one
    to five phases, golden BRANCHING at x steps 1-3, and TWO_PHASE."""
    gen = perfbench_gen()
    reqs = [gen.ramp_program(random.Random(k), k) for k in range(1, 6)]
    reqs += [gen.branching_program(None, step) for step in (1, 2, 3)]
    return reqs + [gen.golden_two_phase()]


@pytest.mark.parametrize("req", _reference_requests(),
                         ids=[f"ramp-{k}" for k in range(1, 6)]
                         + [f"branching-step-{s}" for s in (1, 2, 3)] + ["two-phase"])
def test_backward_pass_matches_the_references(req):
    # the pass pulls each WNT back through the labels between components
    # and the closures within them: the precondition is the reference set
    check = perfbench_check()
    props = req["props"]
    res = nt_program(parse_program(req["text"]))
    pre = res.precondition
    if req["family"] == "ramp":
        k = props["phases"]
        for x, *bounds in itertools.product(range(-2, 3), repeat=k + 1):
            vals = dict(zip([f"m{i}" for i in range(k)], bounds), x=x, y=x % 3, y0=-1)
            assert pre.eval(vals) == check.ramp_nonterminating(props["dirs"], x, bounds), vals
    elif req["family"] == "branching":
        for x, y in itertools.product(range(-6, 7), repeat=2):
            assert pre.eval({"x": x, "y": y}) == (x != props["c0"]), (x, y)
    else:
        for x, m, n in itertools.product(range(-5, 6), repeat=3):
            vals = {"x": x, "y": 0, "y0": 0, "m": m, "n": n}
            assert pre.eval(vals) == check.two_phase_golden(x, m, n), vals
    # the branching family is not flat, so its result is never marked exact
    flat = props["flat"]
    assert (res.flat, res.exact, res.budget_exhausted) == (flat, flat, False)


RANDOM_BOX = 3


def _random_label(rng: random.Random, boxed: bool) -> str:
    """An octagonal label over x, y: an update row per variable and up to
    two guards; ``boxed`` keeps x, y, x' and y' in [-RANDOM_BOX, RANDOM_BOX]."""
    parts = []
    for v, w in (("x", "y"), ("y", "x")):
        c = rng.randint(-2, 2)
        parts.append(rng.choice([f"{v}' == {v}", f"{v}' == {v} + {c}", f"{v}' == {w}",
                                 f"{v}' == {w} + {c}", f"{v}' <= {v} + {c}",
                                 f"{v}' >= {v} + {c}", f"{v}' + {v} == {c}"]))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(("x", "y"), 2)
        c = rng.randint(-2, 2)
        parts.append(rng.choice([f"{a} >= {c}", f"{a} <= {c}", f"{a} - {b} <= {c}",
                                 f"{a} + {b} >= {c}", f"{a} != {c}"]))
    if boxed:
        parts += [f"{v} >= -{RANDOM_BOX} && {v} <= {RANDOM_BOX}" for v in ("x", "y", "x'", "y'")]
    return " && ".join(parts)


def _random_program(rng: random.Random, boxed: bool) -> str:
    """One to three states in a chain s0 -> s1 -> s2, each with a self-loop
    four times in five and each chain edge with a back edge one time in four."""
    n = rng.randint(1, 3)
    lines = ["vars x, y;", "init s0;"]
    for i in range(n):
        if rng.random() < 0.8:
            lines.append(f"s{i} -> s{i} : {_random_label(rng, boxed)};")
        if i + 1 < n:
            lines.append(f"s{i} -> s{i + 1} : {_random_label(rng, boxed)};")
            if rng.random() < 0.25:
                lines.append(f"s{i + 1} -> s{i} : {_random_label(rng, boxed)};")
    return "\n".join(lines)


def test_random_programs_against_the_box_oracle():
    # an in-box infinite run is a real one, so every start the oracle finds
    # live satisfies the precondition.  Box guards on both sides of every
    # label keep every run in the box, where the oracle is exact: there an
    # exact result equals the oracle's live starts
    from octoterm.oracle import BoxDomain, program_live_starts

    rng = random.Random(0)
    box = BoxDomain.cube(2, -RANDOM_BOX, RANDOM_BOX)
    compared = 0
    for i in range(40):
        boxed = i % 2 == 0
        text = _random_program(rng, boxed)
        p = parse_program(text)
        res, _ = call_within(20, f"nt_program on draw {i}", nt_program, p)
        starts = program_live_starts(p, box)
        for pt in box.points():
            holds = res.precondition.eval(dict(zip(p.variables, pt)))
            assert holds or pt not in starts, (text, pt)
            if boxed and res.exact:
                assert holds == (pt in starts), (text, pt)
        compared += boxed and res.exact and 0 < len(starts) < len(box.points())
    assert compared >= 5



# -- the structure pass -------------------------------------------------------


def test_elementary_cycles(branching):
    # the listing that the structure pass replaced, kept as its reference
    cycles = elementary_cycles(branching)
    assert len(cycles) == 3
    assert all(any(t.source == "l1" for t in c) for c in cycles)


def _structure_texts() -> list[str]:
    """The named programs of these tests, the ``programs`` requests of
    seeds 5-100 and the 40 draws of seeds 0 and 1 of ``_random_program``."""
    texts = [BRANCHING_PROGRAM, STEP_2_BRANCHING_PROGRAM, TWO_PHASE_PROGRAM, ORDER_840_PROGRAM,
             one_phase_ramp("+"), one_phase_ramp("-"), COUPLED_PROGRAM, SWAP_PROGRAM,
             AFFINE_LABEL_PROGRAM, DYING_LOOP_PROGRAM, ROTATION_PROGRAM, MIXED_CYCLE_PROGRAM,
             MEETING_CYCLES_PROGRAM, EX1_PROGRAM]
    gen = perfbench_gen()
    texts += [r["text"] for seed in range(5, 101) for r in gen.make_requests("programs", seed, 1)]
    for seed in (0, 1):
        rng = random.Random(seed)
        texts += [_random_program(rng, i % 2 == 0) for i in range(40)]
    return list(dict.fromkeys(texts))


def test_the_structure_agrees_with_the_listed_cycles():
    # the verdict is the one of the listed elementary cycles; every cycle
    # meets the cover, which is the greedy one on a flat program; and a
    # cover state takes its cycle's class exactly when one cycle passes it
    texts = _structure_texts()
    assert len(texts) >= 100
    for text in texts:
        p = parse_program(text)
        flat = bool(is_flat(p))
        assert flat == reference_is_flat(p), text
        cover = program_module._structure(p).cover
        states = [q for q, _ in cover]
        cycles = [tuple(c) for c in elementary_cycles(p)]
        assert all(any(t.source in states for t in c) for c in cycles), text
        if flat:
            assert states == [q for q, _ in reference_cycle_cover(p)], text
        for q, single in cover:
            through = [c for c in cycles if any(t.source == q for t in c)]
            if len(through) != 1:
                assert single is None, text
                continue
            i = next(i for i, t in enumerate(through[0]) if t.source == q)
            want = program_module._cycle_single_class(p, through[0][i:] + through[0][:i])
            assert repr(single) == repr(want), text


@pytest.mark.parametrize("n", [9, 30])
def test_a_complete_program_gets_its_structure_without_listing_cycles(n):
    # n states, one edge per ordered pair: 125,664 elementary cycles at
    # n = 9, which the greedy cover over the listed cycles took 79 s over
    text = "vars x; init s0;\n" + "".join(
        f"s{a} -> s{b} : x' == x + 1;\n" for a in range(n) for b in range(n) if a != b)
    p = parse_program(text)
    structure, _ = call_within(2, f"the structure of {n} states", program_module._structure, p)
    assert isinstance(structure.verdict, NotFlat)
    cover = {q for q, _ in structure.cover}
    assert all(single is None for _, single in structure.cover)
    assert not is_acyclic(p.states, p.transitions)
    assert is_acyclic([s for s in p.states if s not in cover], p.transitions)



@pytest.mark.parametrize("k, one", [(3, True), (7, False)])
def test_the_search_for_a_second_cycle_stops_at_its_cap(k, one):
    # q lies on one cycle, q -> a -> u -> q, but the search from q also
    # walks every simple path of the k complete states hung on a: at k = 7
    # those are more than the cap, so q takes the transition-invariant path
    ks = [f"k{i}" for i in range(k)]
    text = "vars x; init q;\nq -> a : x' == x;\na -> u : x' == x;\nu -> q : x' == x;\n" + "".join(
        f"{a} -> {b} : x' == x;\n" for a in ["a", *ks] for b in ["a", *ks] if a != b)
    p = parse_program(text)
    through = [tuple(c) for c in elementary_cycles(p) if any(t.source == "q" for t in c)]
    assert len(through) == 1
    out = program_module._out_edges(p)
    assert program_module._only_cycle("q", set(p.states), out) == (through[0] if one else None)


def _chain(k: int) -> str:
    """s0 -> s1 -> ... -> sk, each edge x' == x + 1."""
    return "vars x; init s0;\n" + "".join(f"s{i} -> s{i + 1} : x' == x + 1;\n" for i in range(k))


def test_a_summary_along_an_800_state_chain_reads_each_state_s_edges():
    # each elimination step reads the edges of its state and their ends,
    # where it scanned every edge of the program per remaining state
    p = parse_program(_chain(800))
    (members, exact), _ = call_within(3, "the summary of an 800-state chain",
                                      transitive_relation, p, "s0", "s800")
    want = LinRel(("x",), Conj.make([(LinTerm({"x'": 1, "x": -1}, -800), EQ)]))
    assert exact and len(members) == 1
    assert member_subsumed(members[0], want) and member_subsumed(want, members[0])
    assert [member_eval(members[0], {"x": 3, "x'": x1}) for x1 in (802, 803, 804)] == [
        False, True, False]


def test_the_backward_pass_over_an_8000_state_chain_reads_each_state_s_edges():
    # 7,999 chain edges into a self-loop x' == x at s7999: every run is
    # infinite, and the pass pulls true back through each edge once, where
    # it scanned every edge per component and per state
    p = parse_program(_chain(7999) + "s7999 -> s7999 : id(x);\n")
    assert len(p.states) == 8000
    res, _ = call_within(3, "nt_program on an 8000-state chain", nt_program, p)
    assert [repr(c) for c in res.precondition] == ["true"]
    assert (res.flat, res.exact, res.budget_exhausted) == (True, True, False)


def test_a_cold_analysis_classifies_each_cycle_once(monkeypatch):
    # is_flat and the analysis read one classification per cycle, where
    # each classified the cycles of the cover again
    p = parse_program(TWO_PHASE_PROGRAM)
    calls = []
    real = program_module._cycle_single_class

    def spy(p, cycle):
        calls.append(cycle)
        return real(p, cycle)

    clear_memos()
    monkeypatch.setattr(program_module, "_cycle_single_class", spy)
    assert nt_program(p).exact
    assert sorted(c[0].source for c in calls) == sorted(
        c[0].source for c in elementary_cycles(p)) == ["l2", "l5", "l8"]


def test_an_incremental_round_keeps_the_members_of_a_full_dedupe(monkeypatch):
    # a round keeps the old members no new one subsumes, then the new ones,
    # where the full re-dedupe sorted all of them again; member_subsumed is
    # not transitive, so the two antichains are compared, not assumed equal
    saturations = []
    real = program_module._star_members

    def spy(*args):
        saturations.append(args)
        return real(*args)

    rng = random.Random(0)
    clear_memos()
    monkeypatch.setattr(program_module, "_star_members", spy)
    for i in range(40):
        p = parse_program(_random_program(rng, i % 2 == 0))
        call_within(20, f"nt_program on draw {i}", nt_program, p)
    assert len(saturations) >= 20
    for args in saturations:
        assert real(*args) == reference_dedupe_star_members(*args), args

# -- composition by elimination of the midpoints ------------------------------


def _random_members(rng, n):
    """Octagonal members, some of them empty in the middle when composed,
    and the members of the accelerated random loops."""
    from octoterm.closure import ParamOct, reflexive_transitive_closure
    from octoterm.program import member_from_param_oct

    from helpers import random_guarded_relation, random_oct_relation

    variables = ("x", "y")[:n]
    plain, accelerated = [], []
    while len(plain) < 8:
        rel = random_oct_relation(rng, n, 3, rng.randint(1, 3))
        m = member_from_octagon(rel, variables)
        if m is not None:
            plain.append(m)
    while len(accelerated) < 4:
        loop = random_guarded_relation(rng, n, 3)
        for fam in reflexive_transitive_closure(loop, n, 8, 4).members:
            if isinstance(fam, ParamOct):
                accelerated.append(member_from_param_oct(fam, variables))
    return plain + accelerated


@pytest.mark.parametrize("n", [1, 2])
def test_parameter_free_octagons_compose_as_the_octagon_algebra(n):
    # the reference for the one composition path: on parameter-free
    # octagonal members, eliminating the midpoints gives at most one
    # member, exactly octagonal and equal to oct_compose of the two tight
    # octagons, which is integer-exact
    from octoterm.octagon import oct_compose, oct_leq, tight_close

    rng = random.Random(71 + n)
    free = [m for m in _random_members(rng, n) + _random_members(rng, n) if not m.params]
    nonempty = empty = 0
    for a in free:
        for b in free:
            got = compose_members(a, b)
            want = tight_close(oct_compose(member_to_octagon(a)[0], member_to_octagon(b)[0], n))
            assert len(got) <= 1, (a, b, got)
            if not got:
                assert want.is_bottom, (a, b)
                empty += 1
                continue
            o, exact = member_to_octagon(got[0])
            assert exact and oct_leq(o, want) and oct_leq(want, o), (a, b, got)
            nonempty += 1
    assert nonempty >= 15 and empty >= 3, (nonempty, empty)


def test_parameter_free_octagons_compose_and_compare_as_octagons(monkeypatch):
    # two parameter-free octagonal members compose to a parameter-free
    # octagonal member and compare as tight octagons in conj_implies: no
    # elimination, no LP, no row entailment
    from octoterm import linarith
    from octoterm.linarith import LE, LinTerm
    from octoterm.presburger import Conj

    x, y, x1, y1 = (LinTerm.var(v) for v in ("x", "y", "x'", "y'"))
    b = LinRel(("x", "y"), Conj.make([(x - y, LE), (x1 - x, LE), (y1 - y - 1, LE)]))
    c = LinRel(("x", "y"), Conj.make([(y - 3, LE), (x1 - y, LE), (y1 - x1, LE)]))
    # bc is x <= y, x' <= min(y + 1, 3), y' <= x'; cb is y <= 3, x' <= y,
    # y' <= y + 1
    bc = LinRel(("x", "y"), Conj.make([(x - y, LE), (x1 - y - 1, LE), (x1 - 3, LE),
                                       (y1 - x1, LE)]))
    cb = LinRel(("x", "y"), Conj.make([(y - 3, LE), (x1 - y, LE), (y1 - y - 1, LE)]))
    for got, want in ((compose_members(b, c), bc), (compose_members(c, b), cb)):
        (m,) = got
        assert not m.params and member_to_octagon(m) == member_to_octagon(want)
    calls = []

    def spy(name, real):
        def wrapped(*args):
            calls.append(name)
            return real(*args)
        return wrapped

    for module in (program_module, presburger_module):
        monkeypatch.setattr(module, "eliminate_rows",
                            spy("eliminate_rows", presburger_module.eliminate_rows))
    monkeypatch.setattr(presburger_module, "conj_poly",
                        spy("conj_poly", presburger_module.conj_poly))
    monkeypatch.setattr(linarith.PolyhedronLP, "__init__",
                        spy("PolyhedronLP", linarith.PolyhedronLP.__init__))
    clear_memos()
    assert member_subsumed(bc, bc) and not member_subsumed(bc, cb)
    assert calls == []
    # the midpoint searched over a box agrees with bc
    names = ("x", "y", "x'", "y'")
    for x0, y0, x2, y2 in itertools.product(range(-4, 5), repeat=4):
        via = any(x0 <= y0 and mx <= x0 and my <= y0 + 1 and my <= 3 and x2 <= my
                  and y2 <= x2 for mx in range(-9, 10) for my in range(-9, 10))
        assert bc.conj.eval(dict(zip(names, (x0, y0, x2, y2)))) == via


@pytest.mark.parametrize("n", [1, 2])
def test_member_subsumed_agrees_with_conj_implies(n):
    # over parameter-free members and their compositions, member_subsumed
    # is conj_implies on the rows, and both are oct_leq on the members'
    # tight octagons, which is integer-exact: the box confirms each
    # inclusion
    from octoterm.octagon import oct_leq
    from octoterm.presburger import conj_implies

    rng = random.Random(91 + n)
    members = _random_members(rng, n) + _random_members(rng, n)
    free = [m for m in members if not m.params]
    free = list(dict.fromkeys(free + [c for a in free for b in free
                                      for c in compose_members(a, b)]))
    names = ["x", "y"][:n]
    names += [v + "'" for v in names]
    box = [dict(zip(names, pt)) for pt in itertools.product(range(-4, 5), repeat=2 * n)]
    included = 0
    for a in free:
        for b in free:
            got = member_subsumed(a, b)
            included += got
            octs = (member_to_octagon(a), member_to_octagon(b))
            assert all(exact for _, exact in octs)
            assert got == conj_implies(a.conj, b.conj) == oct_leq(*(o for o, _ in octs)), (a, b)
            if got:
                assert all(b.conj.eval(pt) for pt in box if a.conj.eval(pt)), (a, b)
    assert len(free) >= 100 and included >= 500, (len(free), included)


def _branching(step: int) -> str:
    return BRANCHING_PROGRAM.replace("x' == x - 1", f"x' == x - {step}")


def _loop_sets(programs) -> list[tuple]:
    """The arguments of every ``_star_members`` call that ``nt_program``
    and the head summary of each (text, head) make, from cold memos: a
    memoized summary calls no ``_star_members``."""
    clear_memos()
    seen = []
    real = program_module._star_members

    def spy(*args):
        seen.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(program_module, "_star_members", spy)
        for text, head in programs:
            p = parse_program(text)
            nt_program(p)
            transitive_relation(p, head, head)
    return list(dict.fromkeys(seen))


def test_generator_saturation_matches_all_pairs():
    programs = [(_branching(step), "l1") for step in (1, 2, 3, 4)]
    programs += [(TWO_PHASE_PROGRAM, "l2"),
                 (perfbench_gen().ramp_program(random.Random(3), 3)["text"], "l1")]
    loop_sets = _loop_sets(programs)
    assert len(loop_sets) >= 8 and max(len(loops) for loops, *_ in loop_sets) == 6
    for args in loop_sets:
        assert repr(program_module._star_members(*args)) == repr(reference_star_members(*args))


def test_one_exactly_accelerated_loop_makes_no_saturation_round(monkeypatch):
    # ex1's loop at a is octagonal and its closure certifies, so its
    # accelerated members are R+ and _star_members composes nothing
    p = parse_program(EX1_PROGRAM)
    (loop,) = [t for t in p.transitions if t.source == t.target == "a"]
    loops = program_module._label_members(loop.label, p.variables)
    calls = []
    real = program_module.compose_members

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    clear_memos()
    monkeypatch.setattr(program_module, "compose_members", spy)
    members, exact, exhausted = program_module._star_members(loops, p.variables, Budgets())
    assert len(loops) == 1 and members and exact and not exhausted
    assert calls == []
    # an inexact closure still saturates
    budgets = Budgets(max_prefix=2, max_period=1)
    assert not program_module._star_members(loops, p.variables, budgets)[1]
    assert calls


def test_step_2_branching_saturation_extends_by_generators(monkeypatch):
    # the six loops converge in two rounds; composing members with frontier
    # members in both orders took 126 calls (81 distinct pairs)
    args = max(_loop_sets([(_branching(2), "l1")]), key=lambda a: len(a[0]))
    calls = []
    real = program_module.compose_members

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(program_module, "compose_members", spy)
    program_module._star_members(*args)
    assert len(calls) <= 54, len(calls)


def test_composed_members_pass_the_member_lp():
    # the reference for the emptiness argument of compose_members: every
    # member it returns has a rational point with its parameters >= 0,
    # by a full simplex over its rows and p >= 0
    checked = []
    real = program_module.compose_members

    def spy(a, b):
        out = real(a, b)
        checked.extend(out)
        return out

    for n in (1, 2):
        members = _random_members(random.Random(81 + n), n)
        for a in members:
            for b in members:
                spy(a, b)
    gen = perfbench_gen()
    clear_memos()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(program_module, "compose_members", spy)
        for seed in (5, 6):
            for r in gen.make_requests("programs", seed, 1):
                nt_program(parse_program(r["text"]))
    clear_memos()
    checked = list(dict.fromkeys(checked))
    for m in checked:
        conj = Conj.make(m.system().rows)
        assert conj is not None and conj.rationally_feasible(), m
    assert len(checked) >= 200 and sum(bool(m.params) for m in checked) >= 20, (
        len(checked), sum(bool(m.params) for m in checked))


def test_empty_parametric_composition_is_dropped():
    # _p0 <= 1 and y' - y == _p0 >= 3 hold together at no parameter: the
    # elimination of the midpoints leaves no case with a rational point
    from octoterm.linarith import EQ, LE, LinTerm
    from octoterm.presburger import Conj

    y, y1, p = LinTerm.var("y"), LinTerm.var("y'"), LinTerm.var("_p0")
    a = LinRel(("x", "y"), Conj.make([(y1 - y - p, EQ), (p - 1, LE), (y - y1 + 3, LE)]),
               ("_p0",))
    ident = identity_member(("x", "y"))
    assert compose_members(a, ident) == ()


# -- path-reduced member rows -------------------------------------------------


def _cells(base, rate, k_max):
    """The builder's matrix as cells of terms (c, r), c + r*_p0, one per
    finite base entry (rate None gives r = 0), with _p0 <= k_max as the
    term (k_max, -1) of cell (0, 0)."""
    from octoterm.dbm import INF

    rates = rate.rows if rate is not None else [[0] * base.dim] * base.dim
    cells = [[() if c == INF else ((c, 0 if r == INF else r),) for c, r in zip(brow, rrow)]
             for brow, rrow in zip(base.rows, rates)]
    if k_max is not None:
        cells[0][0] += ((k_max, -1),)
    return cells


def _all_term_conj(cells, nparams, variables):
    """The rows of every term of a dual matrix, none left out: the
    reference for the path reduction.  None when a diagonal term is a
    negative constant."""
    from octoterm.linarith import term_of_pair

    names = list(variables) + [v + "'" for v in variables]
    params = [f"_p{i}" for i in range(nparams)]
    rows = []
    for p, row in enumerate(cells):
        for q, cell in enumerate(row):
            for t in cell:
                bound = LinTerm(dict(zip(params, t[1:])), t[0])
                lin = -bound if p == q else term_of_pair(p, q, names) - bound
                if lin.is_constant():
                    if lin.const > 0:
                        return None
                    continue
                rows.append((lin, LE))
    return Conj.make(rows)


def _record_builds(monkeypatch):
    """Spy on the member builder: the list of (cells, nparams, variables,
    member) of each build from now on, memos cleared."""
    calls = []
    real = program_module._member_from_dbm

    def spy(base, rate, k_max, variables):
        m = real(base, rate, k_max, variables)
        calls.append((_cells(base, rate, k_max), int(rate is not None), variables, m))
        return m

    monkeypatch.setattr(program_module, "_member_from_dbm", spy)
    clear_memos()
    return calls


def _member_of_oct_compose(a, b):
    """The member of the tight composition of two exact octagonal members."""
    from octoterm.octagon import oct_compose

    o = oct_compose(member_to_octagon(a)[0], member_to_octagon(b)[0], len(a.variables))
    return member_from_octagon(o, a.variables)


def test_path_reduction_keeps_one_row_of_a_zero_cycle():
    # x == y, x <= z, y <= z: each z row follows from the other one and
    # x == y, so dropping every path-implied term at once would lose z.
    # Conj.make pairs x - y <= 0 and y - x <= 0 into one == row.
    from octoterm.linarith import EQ
    from octoterm.octagon import oct_encode, tight_close
    from octoterm.program import _member_from_dbm

    variables = ("x", "y", "z")
    o = oct_encode([(1, 0, -1, 1, 0), (-1, 0, 1, 1, 0), (1, 0, -1, 2, 0),
                    (1, 1, -1, 2, 0)], 6)
    base = tight_close(o).dbm
    cells = _cells(base, None, None)

    def path_implied(cells, p, q):
        return any(a[0] + b[0] <= cells[p][q][0][0]
                   for k in range(len(cells)) if k not in (p, q)
                   for a in cells[p][k] for b in cells[k][q])

    # cell (p, q) bounds u_p - u_q, with u_0 = x, u_2 = y, u_4 = z and
    # u_5 = -z: x - z sits in (0, 4) and (5, 1), y - z in (2, 4) and (5, 3)
    assert path_implied(cells, 0, 4) and path_implied(cells, 2, 4)
    member = _member_from_dbm(base, None, None, variables)
    rows = member.conj.rows
    assert ((LinTerm({"x": 1, "z": -1}), LE) in rows) != ((LinTerm({"y": 1, "z": -1}), LE) in rows)
    full = _all_term_conj(cells, 0, variables)
    assert len(member.conj.rows) == 2 < len(full.rows) == 3
    assert member.conj.rows[0] == (LinTerm({"x": 1, "y": -1}), EQ)
    assert [rel for _, rel in full.rows] == [EQ, LE, LE]
    for pt in itertools.product(range(-3, 4), repeat=3):
        val = dict(zip(variables, pt), **{"x'": 0, "y'": 0, "z'": 0})
        assert member.conj.eval(val) == full.eval(val), val


def test_identity_composes_to_each_octagonal_label_member():
    # a label member and a composed member come from one builder, so the
    # identity composed with a label member gives that member back
    gen = perfbench_gen()
    checked = set()
    for seed in range(5, 13):
        for r in gen.make_requests("programs", seed, 1):
            p = parse_program(r["text"])
            ident = identity_member(p.variables)
            for d in (d for t in p.transitions for d in t.label if isinstance(d, Octagon)):
                m = member_from_octagon(d, p.variables)
                if m is not None and m not in checked:
                    assert compose_members(ident, m) == (m,), (r["id"], m)
                    checked.add(m)
    assert len(checked) >= 40, len(checked)


@pytest.mark.parametrize("n, width, bound", [(1, 4, 4), (2, 2, 2)])
def test_path_reduced_rows_equal_all_rows_on_a_box(monkeypatch, n, width, bound):
    # members of random closures, and of the octagon compositions of
    # parameter-free members, whose closed matrices are wide: the rows of
    # every term and the path-reduced rows agree at every point of the box,
    # the parameters included
    calls = _record_builds(monkeypatch)
    rng = random.Random(83 + n)
    members = _random_members(rng, n) + _random_members(rng, n)
    free = [m for m in members if not m.params]
    for a, b in rng.sample([(a, b) for a in free for b in free], 80):
        _member_of_oct_compose(a, b)
    variables = ("x", "y")[:n]
    names = list(variables) + [v + "'" for v in variables]
    full_rows = reduced_rows = 0
    for cells, nparams, _, member in calls:
        full = _all_term_conj(cells, nparams, variables)
        reduced = None if member is None else member.conj
        assert (full is None) == (reduced is None) == (member is None)
        if full is None:
            continue
        full_rows += len(full.rows)
        reduced_rows += len(reduced.rows)
        params = [f"_p{i}" for i in range(nparams)]
        for xs in itertools.product(range(-width, width + 1), repeat=2 * n):
            for ks in itertools.product(range(bound + 1), repeat=nparams):
                val = {**dict(zip(names, xs)), **dict(zip(params, ks))}
                assert full.eval(val) == reduced.eval(val), (cells, val)
    assert len(calls) >= 60 and reduced_rows < full_rows, (len(calls), reduced_rows, full_rows)


def test_path_reduction_shrinks_the_widest_two_phase_member(monkeypatch):
    # the analysis builds the members of labels and closures, and the
    # octagon compositions of the parameter-free pairs it composes
    pairs = []
    real = program_module.compose_members

    def spy(a, b):
        pairs.append((a, b))
        return real(a, b)

    monkeypatch.setattr(program_module, "compose_members", spy)
    calls = _record_builds(monkeypatch)
    nt_program(parse_program(TWO_PHASE_PROGRAM))
    for a, b in dict.fromkeys(pairs):
        if member_to_octagon(a)[1] and member_to_octagon(b)[1]:
            _member_of_oct_compose(a, b)
    counts = [(len(_all_term_conj(e, k, v).rows), len(m.conj.rows))
              for e, k, v, m in calls if m is not None]
    assert max(counts) == (9, 6)
    assert all(reduced <= full for full, reduced in counts)
