"""The value types: field-tuple hash, same-class equality, stable reprs.

Results are memo keys and land in sets, so a value must hash like the
tuple of its fields (memo hits and set orders then never depend on how the
class is built), equal only values of its own class here, and print the
same text from one release to the next.
"""

import itertools

from octoterm import prove_termination, reflexive_transitive_closure, wnt
from octoterm.affine import AffineRel, mat
from octoterm.closure import ParamOct
from octoterm.dbm import INF, Dbm
from octoterm.linarith import LE, LinTerm
from octoterm.octagon import Octagon, oct_encode
from octoterm.presburger import Conj, DivAtom
from octoterm.program import Budgets, Flat, LinRel, Program, Transition, parse_program

# x >= 0 && x' == x - 1, the loop of the README's quick tour
README_LOOP = oct_encode([(-1, 0, -1, 0, 0), (1, 0, -1, 1, 1), (-1, 0, 1, 1, -1)], 2)


def _values():
    """One instance of each value type, with the tuple of its fields."""
    div = DivAtom(2, LinTerm({"y": 1}))
    conj = Conj.make([(LinTerm({"x": 1}, -3), LE)], [div])
    octagon = Octagon(1, Dbm.unconstrained(2), tight=True)
    rel = LinRel(("x",), conj, ("_p0",))
    step = AffineRel(1, mat([[1]]), (-1,), (((1,), 0),))
    family = ParamOct(1, Dbm.unconstrained(4), Dbm.unconstrained(4), 3)
    edge = Transition("a", "b", (octagon,))
    program = Program(("x",), ("a", "b"), "a", (edge,))
    return [
        (octagon, (1, octagon.dbm, True)),
        (rel, (("x",), conj, ("_p0",))),
        (conj, (conj.rows, (div,))),
        (div, (2, div.term)),
        (step, (1, step.a, (-1,), (((1,), 0),))),
        (family, (1, family.base, family.rate, 3)),
        (edge, ("a", "b", (octagon,))),
        (program, (("x",), ("a", "b"), "a", (edge,))),
        (Budgets(), (64, 64, 256)),
    ]


def test_values_hash_as_their_field_tuples():
    for value, fields in _values():
        assert hash(value) == hash(fields), type(value).__name__


def test_a_dbm_and_an_octagon_hash_once():
    walks = []

    class CountingRows(list):
        def __iter__(self):
            walks.append(1)
            return super().__iter__()

    m = Dbm(CountingRows([[0, 1], [INF, 0]]))
    walks.clear()  # the constructor checks that the rows are square
    assert hash(m) == hash(((0, 1), (INF, 0))) and len(walks) == 1
    hash(m)
    assert len(walks) == 1
    hashes = []

    class CountingDbm(Dbm):
        __slots__ = ()

        def __hash__(self):
            hashes.append(1)
            return super().__hash__()

    o = Octagon(1, CountingDbm([[0, 1], [INF, 0]]))
    assert hash(o) == hash((1, o.dbm, False)) and len(hashes) == 2
    hash(o)
    assert len(hashes) == 2


def test_values_of_two_classes_are_never_equal():
    for (a, _), (b, _) in itertools.combinations(_values(), 2):
        assert a != b and b != a, (type(a).__name__, type(b).__name__)


def test_octagon_equals_only_octagons():
    o = Octagon(1, None, tight=True)
    assert o == Octagon(1, None, tight=True) and o != Octagon(1, None)
    assert o != (1, None, True)


def test_flat_verdict_is_truthy():
    assert Flat() and Flat() == Flat()


def test_reprs_of_the_readme_loop():
    assert repr(wnt(README_LOOP, 1)) == \
        "WntResult(set=Octagon(num_vars=1, dbm=None, tight=True))"
    assert repr(prove_termination(README_LOOP, 1)) == (
        "WellFounded(proof=RankingWitness(witness_relation=Octagon(num_vars=2, "
        "dbm=Dbm([[0, oo, 1, oo], [-6, 0, -5, -1], [-1, oo, 0, oo], [-5, 1, -4, 0]]), "
        "tight=True), function=1*x0, decrease=1, lower_bound=3))")
    assert repr(reflexive_transitive_closure(README_LOOP, 1)) == (
        "ParamOctUnion(n_program_vars=1, members=[ParamOct(n_program_vars=1, "
        "base=Dbm([[0, oo, 1, oo], [0, 0, 1, -1], [-1, oo, 0, oo], [1, 1, 2, 0]]), "
        "rate=Dbm([[0, oo, 1, oo], [-2, 0, -1, -1], [-1, oo, 0, oo], [-1, 1, 0, 0]]))], "
        "exact=True)")


def test_reprs_of_a_parsed_program_and_its_parts():
    assert repr(parse_program("vars x;\ninit a;\na -> a: x >= 0 && x' == x - 1;\n")) == (
        "Program(variables=('x',), states=('a',), init='a', transitions=("
        "Transition(source='a', target='a', label=(Octagon(num_vars=2, "
        "dbm=Dbm([[0, oo, 1, oo], [0, 0, oo, -1], [-1, oo, 0, oo], [oo, 1, oo, 0]]), "
        "tight=False),)),))")
    assert repr(Budgets()) == "Budgets(max_prefix=64, max_period=64, max_disjuncts=256)"
    assert repr(AffineRel(1, mat([[1]]), (-1,), (((1,), 0),))) == \
        "AffineRel(n_vars=1, a=((1,),), b=(-1,), guard=(((1,), 0),))"
