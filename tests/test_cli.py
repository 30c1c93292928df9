import json
import os
import random
import subprocess
import sys
from inspect import signature
from pathlib import Path

import pytest

import octoterm
from octoterm import closure
from octoterm.cli import build_parser, main
from octoterm.grammar import parse_condition
from octoterm.program import Budgets

from helpers import (
    BRANCHING_PROGRAM,
    ORDER_840_LOOP,
    STEP_2_BRANCHING_PROGRAM,
    TWO_PHASE_PROGRAM,
    call_within,
    clear_memos,
    perfbench_gen,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_rel_wnt_false(capsys):
    code, out, _ = run(capsys, "rel", "wnt", "x >= 0 && x' <= x - 1")
    assert code == 0 and out == "false"


def test_rel_wnt_true(capsys):
    code, out, _ = run(capsys, "rel", "wnt", "x' == x")
    assert code == 0 and out == "true"


def test_rel_wnt_box_check(capsys):
    code, out, _ = run(capsys, "rel", "wnt", "--box", "4", "x' == x && x <= -1")
    assert code == 0 and "agree" in out


@pytest.mark.parametrize("box", ["-2", "-1", "two"])
def test_rel_wnt_rejects_a_negative_box(capsys, box):
    # an empty box would "agree" with any wnt: a usage error, exit 2
    with pytest.raises(SystemExit) as exc:
        main(["rel", "wnt", "--box", box, "x' == x && x <= -1"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == "" and "expected an integer >= 0" in out.err


def test_rel_wnt_box_zero_is_off(capsys):
    code, out, _ = run(capsys, "rel", "wnt", "--box", "0", "x' == x && x <= -1")
    assert code == 0 and out == "x <= -1"


def test_rel_wnt_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "rel", "wnt", "x' == x && x <= -1")
    assert code == 0
    data = json.loads(out)
    assert data["wnt"] == "x <= -1"


def test_rel_rank_prints_verified_function(capsys):
    code, out, _ = run(
        capsys,
        "rel",
        "rank",
        "x2 - x1' <= -1 && x3 - x2' <= 0 && x1 - x3' <= 0 && x4' - x4 <= 0 && x3' - x4 <= 0",
    )
    assert code == 0
    assert "well founded" in out
    assert "ranking function" in out


def test_rel_rank_with_an_empty_witness_relation(capsys):
    # R^4 is empty: the witness relation is too, and ranks vacuously
    code, out, _ = run(capsys, "rel", "rank", "x >= 0 && x <= 2 && x' == x - 1")
    assert code == 0 and out == "well founded (witness relation is empty)"
    code, out, _ = run(capsys, "--format", "json", "rel", "rank",
                       "x >= 0 && x <= 2 && x' == x - 1")
    assert code == 0 and json.loads(out) == {"status": "well-founded", "witness": "false"}


def test_rel_power_and_pre(capsys):
    code, out, _ = run(capsys, "rel", "power", "x' == x - 1", "8")
    assert code == 0 and "x - x' <= 8" in out
    code, out, _ = run(capsys, "rel", "pre", "x >= 0 && x' == x - 1", "3")
    assert code == 0 and "pre^3: x >= 2" in out


@pytest.mark.parametrize("cmd", ["power", "pre", "--max-prefix", "--max-period",
                                 "--max-disjuncts"])
@pytest.mark.parametrize("n", ["0", "-1", "two"])
def test_rel_power_and_pre_reject_n_below_one(capsys, cmd, n):
    # a usage error, exit 2, before any analysis: no traceback, no output;
    # the budget flags take the same integers >= 1
    argv = [cmd, n, "rel", "closure", "x' == x + 1"] if cmd.startswith("--") else \
        ["rel", cmd, "x' == x + 1", n]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == "" and "expected an integer >= 1" in out.err


def test_rel_closure(capsys):
    code, out, _ = run(capsys, "rel", "closure", "x >= 0 && x' == x - 1")
    assert code == 0
    assert out.splitlines()[0] == "identity"


def test_rel_closure_dying_counter_in_closed_form(capsys):
    # R^1 .. R^1001 are live and R^1002 is empty: one family k <= 1000
    code, out, _ = run(capsys, "--format", "json", "rel", "closure",
                       "x >= 0 && x <= 1000 && x' == x - 1")
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is True
    assert data["members"][0] == "identity" and len(data["members"]) == 2
    assert data["members"][1].startswith("exists _p0 >= 0 . ")
    assert "_p0 <= 1000" in data["members"][1]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "rel", "wnt", "x >= ")
    assert code == 2
    assert "parse error" in err


def test_fragment_exit_code(capsys):
    code, _, err = run(capsys, "rel", "wnt", "x' == 2x + 1")
    assert code == 3


def test_budget_exit_code(capsys):
    code, out, _ = run(
        capsys, "--max-prefix", "1", "--max-period", "1",
        "rel", "closure",
        "x2 - x1' <= -1 && x3 - x2' <= 0 && x1 - x3' <= 0 && x4' - x4 <= 0 && x3' - x4 <= 0",
    )
    assert code == 4


def test_budget_flags_default_to_the_budgets():
    args = build_parser().parse_args(["prog", "analyze", "vars x; init a; a -> a : x' == x;"])
    assert Budgets(args.max_prefix, args.max_period, args.max_disjuncts) == Budgets()
    # and those are the closure's own defaults, which a library caller gets
    assert (Budgets().max_prefix, Budgets().max_period) == (closure.MAX_PREFIX, closure.MAX_PERIOD)
    for fn in (closure.detect_period, closure.reflexive_transitive_closure):
        params = signature(fn).parameters
        assert (params["max_b"].default, params["max_c"].default) == \
            (closure.MAX_PREFIX, closure.MAX_PERIOD)


def test_affine_commands(capsys):
    code, out, _ = run(capsys, "affine", "check",
                       "x' == x + y && y' == y + z && z' == z && x >= 0")
    assert code == 0 and "finite monoid: no" in out and "polynomially bounded: yes" in out
    code, out, _ = run(capsys, "affine", "wnt", "x' == -x && x >= -5")
    assert code == 0 and out == "-x <= 5 && x <= 5"
    code, out, _ = run(capsys, "affine", "terminate",
                       "x' == x + y && y' == y + z && z' == z && x >= 0")
    assert code == 0
    assert "(z <= -1)" in out
    # an unsatisfiable guard: the body is empty, every start terminates
    loop = "x' == -x && y' == y && x >= 1 && x <= 0"
    code, out, _ = run(capsys, "affine", "check", loop)
    assert code == 0 and "finite monoid: yes" in out and "polynomially bounded: yes" in out
    code, out, _ = run(capsys, "affine", "wnt", loop)
    assert code == 0 and out == "false"
    code, out, _ = run(capsys, "rel", "wnt", loop)
    assert code == 0 and out == "false"
    code, out, _ = run(capsys, "--format", "json", "affine", "terminate", loop)
    assert code == 0
    assert json.loads(out)["sufficient_termination"] == [{"atoms": [], "divisibility": []}]
    # a constant-false row empties the guard the same way
    loop = "x' == -x && 1 <= 0"
    code, out, _ = run(capsys, "affine", "check", loop)
    assert code == 0 and "finite monoid: yes" in out and "polynomially bounded: yes" in out
    code, out, _ = run(capsys, "affine", "wnt", loop)
    assert code == 0 and out == "false"
    code, out, _ = run(capsys, "rel", "wnt", loop)
    assert code == 0 and out == "false"
    code, out, _ = run(capsys, "affine", "terminate", loop)
    assert code == 0 and out == "true"


def test_affine_wnt_past_a_power_cycle_of_512(capsys):
    # a finite monoid of order 840: exit 0 with the exact WNT, not a
    # traceback from a power-cycle scan that gave up at 512
    (code, out, _), _ = call_within(30, "affine wnt", run, capsys, "affine", "wnt",
                                    ORDER_840_LOOP)
    assert code == 0 and out == "-x0 <= 0 && -x1 <= 0 && -x2 <= 0"


def _child_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this octoterm."""
    src = str(Path(octoterm.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _modules_loaded_at_startup() -> set[str]:
    """The modules a fresh interpreter holds after ``import octoterm.cli``."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys, octoterm, octoterm.cli; print(*sys.modules)"],
        env=_child_env(), check=True, capture_output=True, text=True,
    ).stdout
    return set(out.split())


@pytest.mark.parametrize("argv", [["prog", "analyze", BRANCHING_PROGRAM],
                                  ["prog", "analyze", TWO_PHASE_PROGRAM],
                                  ["prog", "analyze",
                                   perfbench_gen().ramp_program(random.Random(2), 2)["text"]],
                                  ["rel", "closure", "x >= 0 && x' == x - 1"]],
                         ids=["prog_analyze_branching", "prog_analyze_two_phase",
                              "prog_analyze_two_phase_ramp", "rel_closure_readme_loop"])
def test_output_does_not_depend_on_the_hash_seed(argv):
    outs = {subprocess.run([sys.executable, "-m", "octoterm.cli", *argv],
                           env=_child_env(PYTHONHASHSEED=seed), check=True,
                           capture_output=True).stdout
            for seed in ("0", "1", "12345")}
    assert len(outs) == 1


def test_startup_does_not_import_numpy():
    assert "numpy" not in _modules_loaded_at_startup()


def test_startup_generates_no_classes():
    # value types are NamedTuples: no dataclass generation, and none of the
    # modules it pulls in (inspect, ast, dis, tokenize, ...)
    loaded = _modules_loaded_at_startup()
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_affine_fragment_error(capsys):
    code, _, err = run(capsys, "affine", "wnt", "x' == 2x && x >= 0")
    assert code == 3


def test_prog_commands(tmp_path, capsys):
    f = tmp_path / "branching.prog"
    f.write_text(BRANCHING_PROGRAM)
    code, out, _ = run(capsys, "prog", "flat", str(f))
    assert code == 0 and "not flat" in out
    code, out, _ = run(capsys, "--format", "json", "prog", "analyze", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["flat"] is False
    dnf = data["precondition"]["dnf"]
    assert dnf, "expected nonempty precondition"
    # round-trip: parse the rendered atoms back and compare on a box
    from octoterm.presburger import Conj, DivAtom, Dnf
    from octoterm.linarith import LinTerm

    parsed = Dnf()
    for disj in dnf:
        text = " && ".join(disj["atoms"] + disj["divisibility"])
        cases = parse_condition(text, ["x", "y"])
        assert len(cases) == 1
        rows, divs = cases[0]
        parsed.add(Conj.make(rows, [DivAtom(m, t) for m, t in divs]))
    for x in range(-8, 9):
        for y in range(-3, 4):
            assert parsed.eval({"x": x, "y": y}) == (x != 0)


def test_prog_summary(tmp_path, capsys):
    f = tmp_path / "two_phase.prog"
    f.write_text(TWO_PHASE_PROGRAM)
    code, out, _ = run(capsys, "prog", "summary", "--from", "l2", "--to", "l2", str(f))
    assert code == 0
    assert out


def test_prog_summary_of_step_2_branching_into_l2_is_fast(capsys):
    # P+(l1, l2) of step-2 BRANCHING ran past 15 s while members composed
    # through the parametric closure; by elimination, with opposite rows
    # paired, it takes a fraction of a second, cold
    text = STEP_2_BRANCHING_PROGRAM
    argv = ["--format", "json", "prog", "summary", "--from", "l1", "--to", "l2", text]
    clear_memos()
    code, elapsed = call_within(10, "prog summary --from l1 --to l2", main, argv)
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["exact"] is True and data["members"]
    assert elapsed < 1, elapsed


def test_prog_analyze_two_phase_json_roundtrip(tmp_path, capsys):
    f = tmp_path / "two_phase.prog"
    f.write_text(TWO_PHASE_PROGRAM)
    code, out, _ = run(capsys, "--format", "json", "prog", "analyze", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["flat"] is True and data["exact"] is True
    from octoterm.presburger import Conj, DivAtom, Dnf

    parsed = Dnf()
    for disj in data["precondition"]["dnf"]:
        text = " && ".join(disj["atoms"] + disj["divisibility"])
        cases = parse_condition(text, ["x", "y", "y0", "m", "n"])
        rows, divs = cases[0]
        parsed.add(Conj.make(rows, [DivAtom(m, t) for m, t in divs]))
    def golden(x, m, n):
        return (n == 2 * m - x and m >= x + 1 and n >= m + 1) or (m <= x and n <= x)
    for x in range(-5, 6):
        for m in range(-5, 6):
            for n in range(-5, 6):
                got = parsed.eval({"x": x, "y": 0, "y0": 0, "m": m, "n": n})
                assert got == golden(x, m, n)


COUPLED = """
vars x, y;
init l0;
l0 -> l0 : x < 10 && x' == x + 1 && y' == y + 2;
l0 -> l1 : x >= 10 && id(x, y);
"""


def test_json_output_does_not_depend_on_process_history(capsys):
    # the coupled counters keep their loop parameter in the summary
    summary = ["--format", "json", "prog", "summary", "--from", "l0", "--to", "l1", COUPLED]
    closure = ["--format", "json", "rel", "closure", "x >= 0 && x' == x - 1"]
    first = [run(capsys, *summary), run(capsys, *closure)]
    second = [run(capsys, *summary), run(capsys, *closure)]
    assert first == second
    assert any("exists _p0 >= 0" in m for m in json.loads(first[0][1])["members"])
    assert any("exists _p0 >= 0" in m for m in json.loads(first[1][1])["members"])


def test_reserved_variable_name_is_a_parse_error(capsys):
    code, _, err = run(capsys, "prog", "analyze", COUPLED.replace("x", "_p1"))
    assert code == 2 and "reserved" in err
    code, _, err = run(capsys, "rel", "wnt", "_p1' == _p1 + 1 && _p1 <= 9")
    assert code == 2 and "reserved" in err


# an affine loop: its summary hulls it, which is inexact, and accelerates
# the hull
DOUBLING = (
    "vars x; init l0; l0 -> l0 : x' == 2x && x >= 1 && x <= {b}; "
    "l0 -> l1 : x > {b} && id(x);"
)


def test_prog_summary_exit_code_reports_exhausted_budgets(capsys):
    summary = ["prog", "summary", "--from", "l0", "--to", "l1", DOUBLING.format(b=10)]
    code, out, _ = run(capsys, "--format", "json", *summary)
    assert code == 0 and json.loads(out)["exact"] is False
    for tiny in (["--max-prefix", "1", "--max-period", "1"], ["--max-disjuncts", "1"]):
        code, out, _ = run(capsys, "--format", "json", *tiny, *summary)
        assert code == 4 and json.loads(out)["exact"] is False


def test_prog_hull_that_dies_past_the_prefix_budget(capsys):
    text = DOUBLING.format(b=100)
    for cmd in (["prog", "summary", "--from", "l0", "--to", "l1", text], ["prog", "analyze", text]):
        code, out, _ = run(capsys, "--format", "json", *cmd)
        assert code in (0, 4) and json.loads(out)["status"] == "ok"


def test_prog_analyze_exit_codes(capsys):
    code, out, _ = run(capsys, "--format", "json", "prog", "analyze", TWO_PHASE_PROGRAM)
    assert code == 0 and json.loads(out)["exact"] is True
    # one disjunct is not enough for the saturation: the hull fallback is
    # sound, inexact, and says a budget ran out
    code, out, _ = run(capsys, "--format", "json", "--max-disjuncts", "1",
                       "prog", "analyze", TWO_PHASE_PROGRAM)
    assert code == 4 and json.loads(out)["exact"] is False
    # (test_prog_commands pins exit 0 for BRANCHING, inexact only because
    # it is not flat)


# compositions that are empty only through their middle variables: over the
# rationals (x' >= y' + 1, then x < y) and over the integers (2x' = 1)
EMPTY_MIDDLE = [
    "vars x, y; init l0; l0 -> l1 : x' >= y' + 1; l1 -> l2 : x < y; l2 -> l2 : id(x,y);",
    "vars x, y; init l0; l0 -> l1 : x' + y' == 1; l1 -> l2 : x == y; l2 -> l2 : id(x,y);",
]


@pytest.mark.parametrize("text", EMPTY_MIDDLE, ids=["rational", "integer"])
def test_prog_empty_middle_composition(text, capsys):
    code, out, _ = run(capsys, "prog", "analyze", text)
    assert code == 0 and "non-termination precondition: false" in out
    code, out, _ = run(capsys, "--format", "json", "prog", "analyze", text)
    data = json.loads(out)
    assert code == 0 and data["exact"] is True and data["precondition"]["dnf"] == []
    code, out, _ = run(capsys, "--format", "json", "prog", "summary", "--from", "l0",
                       "--to", "l2", text)
    assert code == 0 and json.loads(out)["members"] == []


def test_prog_analyze_single_affine_cycle_prints_the_program_names(capsys):
    # x' = y, y' = -x - y has order 3, so the single cycle takes the
    # finite-monoid WNT; its atoms parse over the program's own names
    from octoterm.oracle import BoxDomain, program_live_starts
    from octoterm.presburger import Conj
    from octoterm.program import parse_program

    text = "vars x, y; init a; a -> a : x' == y && y' == -x - y && x >= 0;"
    code, out, _ = run(capsys, "--format", "json", "prog", "analyze", text)
    assert code == 0
    data = json.loads(out)
    (state,) = data["per_state"]
    assert state["method"] == "single-cycle"
    starts = program_live_starts(parse_program(text), BoxDomain.cube(2, -4, 4))
    assert starts
    for dnf in (data["precondition"]["dnf"], state["wnt"]):
        (disj,) = dnf
        ((rows, divs),) = parse_condition(" && ".join(disj["atoms"]), ["x", "y"])
        assert not divs and not disj["divisibility"]
        conj = Conj.make(rows)
        assert all(conj.eval({"x": x, "y": y}) for x, y in starts)


def test_prog_parse_error_at_end_of_input_has_a_position(capsys):
    code, out, err = run(capsys, "prog", "analyze", "vars x;\ninit a;\na -> b : x <= 1")
    assert code == 2 and out == ""
    assert err == "parse error: unexpected end of input (wanted ;) at line 3, column 16"


# every error path: nothing on stdout, one line on stderr, and the exit code
ZERO_VARIABLE_PATHS = [
    (["rel", "rank", "1 <= 0"], "well founded (witness relation is empty)"),
    (["--format", "json", "rel", "rank", "1 <= 0"],
     '{\n  "status": "well-founded",\n  "witness": "false"\n}'),
    (["rel", "rank", "0 <= 1"], "not well founded; wnt: true"),
    (["rel", "wnt", "1 <= 0"], "false"),
    (["rel", "wnt", "0 <= 1"], "true"),
    (["rel", "closure", "1 <= 0"], "identity"),
    (["rel", "closure", "0 <= 1"], "identity\ntrue"),
    (["--format", "json", "rel", "closure", "0 <= 1"],
     '{\n  "exact": true,\n  "members": [\n    "identity",\n    "true"\n  ],\n'
     '  "status": "ok"\n}'),
]


@pytest.mark.parametrize("argv,out", ZERO_VARIABLE_PATHS, ids=[
    "rank-false", "rank-false-json", "rank-true", "wnt-false", "wnt-true",
    "closure-false", "closure-true", "closure-true-json"])
def test_relations_over_zero_variables_exit_0(capsys, argv, out):
    # R^0 is the identity: the empty relation ranks vacuously, and an
    # unconstrained closure member prints as true, not as empty text
    assert main(argv) == 0
    got = capsys.readouterr()
    assert got.out == out + "\n" and got.err == ""


@pytest.mark.parametrize("fmt,out", [
    ("text", "true\n"),
    ("json", '{\n  "exact": true,\n  "members": [\n    "true"\n  ],\n  "status": "ok"\n}\n'),
], ids=["text", "json"])
def test_prog_summary_prints_an_unconstrained_member_as_true(capsys, fmt, out):
    argv = ["--format", fmt, "prog", "summary", "--from", "a", "--to", "b",
            "vars x; init a; a -> b : 0 <= 1;"]
    assert main(argv) == 0
    got = capsys.readouterr()
    assert got.out == out and got.err == ""


ERROR_PATHS = [
    (["rel", "wnt", "x >= "], 2,
     "parse error: unexpected end of expression at line 1, column 5"),
    (["rel", "wnt", "x' == 2x + 1"], 3,
     "not in fragment: relation is affine, not octagonal; use `affine`"),
    (["rel", "rank", "x' == x + 1 || x' == x - 1"], 3,
     "not in fragment: octagonal analyses need a conjunctive relation"),
    (["affine", "check", "x >= "], 2,
     "parse error: unexpected end of expression at line 1, column 5"),
    (["affine", "check", "x' <= x && x >= 0"], 3,
     "not in fragment: relation is not a deterministic affine update"),
    (["affine", "wnt", "x' == -x || x' == x"], 3,
     "not in fragment: affine analyses need a conjunctive relation"),
    (["affine", "wnt", "x' == 2x && x >= 0"], 3,
     "not in fragment: update matrix does not generate a finite monoid"),
    (["affine", "terminate", "x' == 2x && x >= 0"], 3,
     "not in fragment: matrix has an eigenvalue that is neither zero nor a root of unity"),
    (["prog", "analyze", "vars x;\ninit a;\na -> a : x <= 1 && x' == x"], 2,
     "parse error: unexpected end of input (wanted ;) at line 3, column 27"),
    (["prog", "analyze", "vars x; init a; a -> a : x % 2 == 0 && x' == x;"], 3,
     "not in fragment: disjunct is neither octagonal nor a deterministic affine update: "
     "x % 2 == 0; -x + x' == 0"),
    (["rel", "wnt", "_p1' == _p1 + 1 && _p1 <= 9"], 2,
     "parse error: variable '_p1' starts with '_', which is reserved at line 1, column 1"),
    (["prog", "summary", "--from", "zz", "--to", "a", "vars x; init a; a -> a : x' == x;"], 2,
     "usage error: the program has no state 'zz'"),
    (["prog", "summary", "--from", "a", "--to", "zz", "vars x; init a; a -> a : x' == x;"], 2,
     "usage error: the program has no state 'zz'"),
]


@pytest.mark.parametrize("argv,code,err", ERROR_PATHS, ids=[
    "rel-parse", "rel-affine", "rel-disjunctive", "affine-parse", "affine-nondeterministic",
    "affine-wnt-disjunctive", "affine-wnt-not-finite-monoid", "affine-terminate-unbounded",
    "prog-missing-semicolon", "prog-divisibility-label", "reserved-name",
    "prog-summary-unknown-source", "prog-summary-unknown-target"])
def test_error_paths_print_one_line_and_exit(capsys, argv, code, err):
    assert main(argv) == code
    out = capsys.readouterr()
    assert out.out == "" and out.err == err + "\n"


def test_comment_words_are_not_variables(capsys, tmp_path):
    # a word in a # or // comment named a variable: the commented file fell
    # out of the affine fragment, and the relation gained unconstrained
    # variables that changed its ranking bound
    path = tmp_path / "halving.txt"
    path.write_text("# halving loop\nx' == -x && x >= -5\n")
    plain = run(capsys, "affine", "wnt", "x' == -x && x >= -5")
    assert plain[0] == 0 and run(capsys, "affine", "wnt", str(path)) == plain
    rel = "x' == x - 1 && x >= 0"
    plain = run(capsys, "rel", "rank", rel)
    assert plain[0] == 0 and run(capsys, "rel", "rank", rel + " // count down") == plain
