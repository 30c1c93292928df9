import random
from itertools import product

import pytest

from octoterm.affine import (
    AffineRel,
    finite_monoid_wnt,
    is_finite_monoid,
    is_polynomially_bounded,
    sufficient_termination,
)
from octoterm.grammar import (
    FragmentError,
    ParseError,
    as_affine,
    parse_condition,
    parse_formula,
    parse_program_text,
    parse_rows,
)
from octoterm.octagon import Octagon, oct_decode, oct_eq, tight_close

from octoterm.cli import _collect_vars

from helpers import (
    perfbench_gen,
    reference_octagon_to_affine,
    reference_parse_program_text,
    reference_parse_rows,
    reference_tokenize,
)


def test_octagonal_atoms():
    ds = parse_formula("x >= 0 && x' <= x - 1", ["x"])
    assert len(ds) == 1 and isinstance(ds[0], Octagon)
    ds = parse_formula("x + y <= 5 && -x - y <= 3", ["x", "y"])
    assert isinstance(ds[0], Octagon)


def test_neq_splits():
    ds = parse_formula("x != 0", ["x"])
    assert len(ds) == 2


def test_disjunction_distributes():
    ds = parse_formula("(x <= 1 || x >= 5) && y' == y", ["x", "y"])
    assert len(ds) == 2


def test_id_macro():
    ds = parse_formula("id(x, y)", ["x", "y"])
    o = tight_close(ds[0])
    assert o.dbm.rows[0][4] == 0 and o.dbm.rows[4][0] == 0


def test_affine_classification():
    ds = parse_formula("x' == 2x + 1 && x >= 0", ["x"])
    assert isinstance(ds[0], AffineRel)
    rel = ds[0]
    assert rel.a == ((2,),) and rel.b == (1,)
    assert rel.guard == (((1,), 0),)


def test_fragment_error():
    with pytest.raises(FragmentError):
        parse_formula("x + y + z <= 1", ["x", "y", "z"])
    with pytest.raises(FragmentError):
        parse_formula("x' >= y' + x", ["x", "y"])


def test_undeclared_variable():
    with pytest.raises(ParseError):
        parse_formula("w <= 1", ["x"])


def test_underscore_names_are_reserved():
    # the analyses name their parameters _p0, _p1, ...: a program variable
    # spelled like one would be captured by them
    with pytest.raises(ParseError, match="reserved"):
        parse_program_text("vars _p1, y;\ninit l0;\nl0 -> l0 : y' == y;\n")
    with pytest.raises(ParseError, match="reserved"):
        parse_formula("_p1' == _p1 + 1", ["_p1"])
    with pytest.raises(ParseError, match="reserved"):
        parse_formula("id(_m)", ["_m"])
    with pytest.raises(ParseError, match="reserved"):
        parse_condition("_q0 >= 1", ["_q0"])


def test_true_false_literals():
    ds = parse_formula("true", ["x"])
    assert not tight_close(ds[0]).is_bottom
    ds = parse_formula("false", ["x"])
    assert ds[0].is_bottom
    # a constant-false row empties an octagonal disjunct, in either order
    for text in ("x' == -x && 1 <= 0", "1 <= 0 && x' == -x"):
        assert parse_formula(text, ["x"])[0].is_bottom
    for text in ("x' == 2*x && 1 <= 0", "1 <= 0 && x' == 2*x"):
        assert isinstance(parse_formula(text, ["x"])[0], AffineRel)


def test_strict_and_reversed_ops():
    a = parse_formula("x < 3", ["x"])[0]
    b = parse_formula("x <= 2", ["x"])[0]
    assert oct_eq(a, b)
    a = parse_formula("x > -2", ["x"])[0]
    b = parse_formula("x >= -1", ["x"])[0]
    assert oct_eq(a, b)


def test_coefficient_two_unary():
    a = parse_formula("2x <= 7", ["x"])[0]
    b = parse_formula("x <= 3", ["x"])[0]
    assert oct_eq(a, b)
    a = parse_formula("2 * x <= 7", ["x"])[0]
    assert oct_eq(a, b)


def test_parse_condition_divisibility():
    dnf = parse_condition("x % 2 == 1 && x >= 0", ["x"])
    assert len(dnf) == 1
    rows, divs = dnf[0]
    assert len(rows) == 1 and len(divs) == 1
    assert divs[0][0] == 2


def test_program_text_structure():
    pt = parse_program_text(
        """
        vars a, b;   # comment
        init s0;
        s0 -> s1 : a' == a + 1 && b' == b;  // step
        s1 -> s0 : a <= 10 && id(a, b);
        """
    )
    assert pt.variables == ("a", "b")
    assert pt.init == "s0"
    assert len(pt.transitions) == 2


def test_program_text_errors():
    with pytest.raises(ParseError):
        parse_program_text("vars x\ninit a;\n")
    with pytest.raises(ParseError):
        parse_program_text("vars x;\ninit a;\na -> b x <= 1;\n")


def test_transition_errors_report_the_file_position():
    text = (
        "vars x;\n"
        "init l0;\n"
        "l0 -> l1 : x' == x;\n"
        "l1 -> l0 : x' == x && z <= 1;\n"
    )
    with pytest.raises(ParseError, match="undeclared variable 'z'") as err:
        parse_program_text(text)
    assert (err.value.line, err.value.col) == (4, 23)


@pytest.mark.parametrize("text, message, pos", [
    ("vars x;\ninit a;\na -> b : x <= 1", r"end of input \(wanted ;\)", (3, 16)),
    ("vars x;\ninit a;\na -> b : x <= 1 &&\n", "end of formula", (3, 19)),
    ("vars x;\ninit a;\na -> b : x <=  # no right-hand side\n", "end of expression", (3, 14)),
    ("vars x;\ninit a;\na -> b : x", "expected comparison operator", (3, 11)),
    ("", r"end of input \(wanted vars\)", (1, 1)),
])
def test_end_of_input_errors_report_the_position_past_the_last_token(text, message, pos):
    with pytest.raises(ParseError, match=message) as err:
        parse_program_text(text)
    assert (err.value.line, err.value.col) == pos
    assert str(err.value).endswith(f" at line {pos[0]}, column {pos[1]}")


def test_end_of_condition_reports_the_position():
    with pytest.raises(ParseError, match="end of expression") as err:
        parse_condition("x +", ["x"])
    assert (err.value.line, err.value.col) == (1, 4)


def test_affine_reads_two_opposite_inequalities_as_one_update():
    (rows,) = parse_rows("x' <= x + 1 && x' >= x + 1 && x >= 0", ["x"])
    assert as_affine(rows, ["x"]) == AffineRel(1, ((1,),), (1,), (((1,), 0),))
    # an update the rows only imply, through the guard, is not read
    (rows,) = parse_rows("x' <= y && y <= x && x' >= x && y' == y", ["x", "y"])
    assert as_affine(rows, ["x", "y"]) is None


def _octagonal_update_text(rng: random.Random, names: list[str]) -> str:
    """x_i' = +-x_j + c for each variable, some written as two opposite
    inequalities, under 0-2 octagonal guard rows no two of which bound a
    form from both sides (so the guard implies no equality between the
    variables); a quarter of the guards are made empty."""
    parts = []
    for v in names:
        e = f"{rng.choice(('', '-'))}{rng.choice(names)} + {rng.randint(-2, 2)}"
        if rng.random() < 0.3:
            parts += [f"{v}' <= {e}", f"{v}' >= {e}"]
        else:
            parts.append(f"{v}' == {e}")
    forms = set()
    for _ in range(rng.randint(0, 2)):
        form = tuple(sorted((u, rng.choice((1, -1))) for u in
                            rng.sample(names, rng.randint(1, min(2, len(names))))))
        if tuple((u, -s) for u, s in form) in forms:
            continue
        forms.add(form)
        lhs = " ".join(f"{'+' if s > 0 else '-'} {u}" for u, s in form)
        parts.append(f"{lhs} <= {rng.randint(-2, 2)}")
    if rng.random() < 0.25:
        v, c = rng.choice(names), rng.randint(-2, 2)
        parts += [f"{v} >= {c + 1}", f"{v} <= {c}"]
    rng.shuffle(parts)
    return " && ".join(parts)


def _check_affine_reading(text: str, names: list[str]) -> None:
    """``as_affine`` on the written rows against the reference decoder of
    the encoded octagon: the same update, the same guard points on a box,
    and the same WNT and sufficient termination sets there."""
    (rows,) = parse_rows(text, names)
    (o,) = parse_formula(text, names)
    rel = as_affine(rows, names)
    ref = reference_octagon_to_affine(o, len(names))
    assert rel is not None and ref is not None, text
    assert (rel.a, rel.b) == (ref.a, ref.b), text
    box = list(product(range(-5, 6), repeat=len(names)))
    assert [rel.guard_holds(p) for p in box] == [ref.guard_holds(p) for p in box], text
    analyses = []
    if is_finite_monoid(rel.a):
        analyses.append(finite_monoid_wnt)
    if is_polynomially_bounded(rel.a):
        analyses.append(sufficient_termination)
    for analysis in analyses:
        got, want = analysis(rel, names), analysis(ref, names)
        for p in box:
            point = dict(zip(names, p))
            assert got.eval(point) == want.eval(point), (text, analysis.__name__, p)


@pytest.mark.parametrize("seed", range(6))
def test_affine_reading_matches_the_octagon_decoder(seed):
    rng = random.Random(seed)
    for _ in range(12):
        names = ["x", "y", "z"][:rng.randint(1, 3)]
        _check_affine_reading(_octagonal_update_text(rng, names), names)


def test_affine_reading_matches_the_octagon_decoder_on_the_cli_workload():
    gen = perfbench_gen()
    checked = 0
    for seed in range(1, 21):
        for req in gen.make_requests("cli", seed, 5):
            if req["argv"][0] != "affine":
                continue
            text = req["argv"][2]
            names = list(gen.NAMES[:req["ref"]["n"]])
            if isinstance(parse_formula(text, names)[0], Octagon):
                _check_affine_reading(text, names)
                checked += 1
    assert checked


def _parser_corpus():
    """The program texts and (formula, variables) pairs the benchmark sends,
    seeds 1-20: the ``programs`` workload, the ``cli`` workload's relation,
    affine and program texts, and each program's labels."""
    gen = perfbench_gen()
    programs = {}
    formulas = {}
    for seed in range(1, 21):
        reqs = gen.make_requests("programs", seed, 1) + gen.make_requests("cli", seed, 5)
        for req in reqs:
            if req["kind"] == "prog":
                programs[req["text"]] = None
            elif req["argv"][0] == "prog":
                programs[req["argv"][-1]] = None
            else:
                formulas[req["argv"][2], tuple(gen.NAMES[:req["ref"]["n"]])] = None
    for text in programs:
        names = None
        for line in text.splitlines():
            if line.startswith("vars "):
                names = tuple(v.strip() for v in line[5:].rstrip(";").split(","))
            elif " : " in line:
                formulas[line.split(" : ", 1)[1].rstrip(";"), names] = None
    return list(programs), list(formulas)


def _mutant(text: str, rng: random.Random) -> str:
    """The text with its line ends, blanks and comments rewritten, and
    perhaps a token deleted or a stray '$', '@', '/', comment or line end
    inserted."""
    try:
        toks = reference_tokenize(text)
    except ParseError:
        toks = []
    if toks and rng.random() < 0.25:
        starts = [0]
        for line in text.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        t = rng.choice(toks)
        at = starts[t.line - 1] + t.col - 1
        text = text[:at] + text[at + len(t.text):]
    eol = rng.choice(("\n", "\r\n", "\r", "\f", "\x85"))
    out = []
    for c in text:
        if c == "\n":
            c = rng.choice(("", "", " # x' <= 1 ", "\t// y;")) + rng.choice((c, eol, eol))
        out.append(c)
    text = "".join(out)
    if rng.random() < 0.3:
        text = text.replace(" ", "\t") if rng.random() < 0.5 else text.replace(" ", " \t", 3)
    if rng.random() < 0.4:
        at = rng.randrange(len(text) + 1)
        edit = rng.choice(("$", "@", "/", " # c", " // c", eol, eol + "  "))
        text = text[:at] + edit + text[at:]
    return text


def _outcome(parse, *args):
    """The parse, or the error's type, message, line and column."""
    try:
        return parse(*args)
    except (ParseError, FragmentError) as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)


def _names_read(text: str):
    """The reference lexer's names, as ``cli._collect_vars`` reads them."""
    names = {t.text.rstrip("'") for t in reference_tokenize(text) if t.kind == "name"}
    return sorted(names - {"id", "true", "false"})


def test_parser_matches_the_reference_on_the_workloads_and_their_mutants():
    """The one-pass lexer and its parser against the line-by-line lexer and
    the token-object parser: the same DNF rows (or classified program), or
    the same error at the same line and column, on every workload text and
    on mutants of each."""
    rng = random.Random(33)
    programs, formulas = _parser_corpus()
    later_line_errors = 0
    for text in programs:
        for mutant in [text] + [_mutant(text, rng) for _ in range(12)]:
            want = _outcome(reference_parse_program_text, mutant)
            assert _outcome(parse_program_text, mutant) == want, repr(mutant)
            assert _outcome(_collect_vars, mutant) == _outcome(_names_read, mutant), repr(mutant)
            if isinstance(want, tuple) and want[0] is ParseError and want[2] > 1:
                later_line_errors += any(c in mutant for c in "\r\f\x85")
    for text, names in formulas:
        for mutant in [text] + [_mutant(text, rng) for _ in range(4)]:
            want = _outcome(reference_parse_rows, mutant, list(names))
            assert _outcome(parse_rows, mutant, list(names)) == want, (repr(mutant), names)
    # errors past a line end other than "\n" were compared
    assert later_line_errors >= 20
