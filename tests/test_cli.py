import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import octoterm
from octoterm.cli import main
from octoterm.grammar import parse_condition

from helpers import BRANCHING_PROGRAM, TWO_PHASE_PROGRAM


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


def test_rel_power_and_pre(capsys):
    code, out, _ = run(capsys, "rel", "power", "x' == x - 1", "8")
    assert code == 0 and "x - x' <= 8" in out
    code, out, _ = run(capsys, "rel", "pre", "x >= 0 && x' == x - 1", "3")
    assert code == 0 and "pre^3: x >= 2" in out


def test_rel_closure(capsys):
    code, out, _ = run(capsys, "rel", "closure", "x >= 0 && x' == x - 1")
    assert code == 0
    assert out.splitlines()[0] == "identity"


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


def test_startup_does_not_import_numpy():
    src = str(Path(octoterm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-c",
         "import sys, octoterm, octoterm.cli; assert 'numpy' not in sys.modules"],
        env=env, check=True,
    )


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
