import pytest

from octoterm.grammar import (
    AffLabel,
    FragmentError,
    OctLabel,
    ParseError,
    parse_condition,
    parse_formula,
    parse_program_text,
)
from octoterm.octagon import oct_decode, oct_eq, tight_close


def test_octagonal_atoms():
    ds = parse_formula("x >= 0 && x' <= x - 1", ["x"])
    assert len(ds) == 1 and isinstance(ds[0], OctLabel)
    ds = parse_formula("x + y <= 5 && -x - y <= 3", ["x", "y"])
    assert isinstance(ds[0], OctLabel)


def test_neq_splits():
    ds = parse_formula("x != 0", ["x"])
    assert len(ds) == 2


def test_disjunction_distributes():
    ds = parse_formula("(x <= 1 || x >= 5) && y' == y", ["x", "y"])
    assert len(ds) == 2


def test_id_macro():
    ds = parse_formula("id(x, y)", ["x", "y"])
    o = tight_close(ds[0].relation)
    assert o.dbm.rows[0][4] == 0 and o.dbm.rows[4][0] == 0


def test_affine_classification():
    ds = parse_formula("x' == 2x + 1 && x >= 0", ["x"])
    assert isinstance(ds[0], AffLabel)
    rel = ds[0].relation
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
    assert not tight_close(ds[0].relation).is_bottom
    ds = parse_formula("false", ["x"])
    assert ds[0].relation.is_bottom
    # a constant-false row keeps the other atoms, in either order
    for text in ("x' == -x && 1 <= 0", "1 <= 0 && x' == -x"):
        o = parse_formula(text, ["x"])[0].relation
        assert not o.is_bottom and tight_close(o).is_bottom
    for text in ("x' == 2*x && 1 <= 0", "1 <= 0 && x' == 2*x"):
        assert isinstance(parse_formula(text, ["x"])[0], AffLabel)


def test_strict_and_reversed_ops():
    a = parse_formula("x < 3", ["x"])[0].relation
    b = parse_formula("x <= 2", ["x"])[0].relation
    assert oct_eq(a, b)
    a = parse_formula("x > -2", ["x"])[0].relation
    b = parse_formula("x >= -1", ["x"])[0].relation
    assert oct_eq(a, b)


def test_coefficient_two_unary():
    a = parse_formula("2x <= 7", ["x"])[0].relation
    b = parse_formula("x <= 3", ["x"])[0].relation
    assert oct_eq(a, b)
    a = parse_formula("2 * x <= 7", ["x"])[0].relation
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
