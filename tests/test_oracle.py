import random

from octoterm.linarith import LE, LinTerm
from octoterm.octagon import oct_encode, tight_close
from octoterm.oracle import (
    BoxDomain,
    eval_membership,
    live_points,
    program_live_starts,
)
from octoterm.presburger import Conj, DivAtom
from octoterm.program import parse_program
from octoterm.term_oct import wnt

from helpers import BRANCHING_PROGRAM, seven_branch_relations


def test_eval_membership_forms():
    o = tight_close(oct_encode([(1, 0, 1, 0, 6)], 1))  # x <= 3
    assert eval_membership(o, (3,))
    assert not eval_membership(o, (4,))
    c = Conj.make([(LinTerm.var("x") - 3, LE)], [DivAtom(2, LinTerm.var("x"))])
    assert c.eval({"x": 2}) and not c.eval({"x": 3})
    assert not eval_membership(DivAtom(2, LinTerm.var("x")), {"x": 3})


def test_kleene_fixpoint_examples():
    box = BoxDomain.cube(1, -4, 4)
    ident = oct_encode([(1, 0, -1, 1, 0), (-1, 0, 1, 1, 0)], 2)
    assert live_points(ident, 1, box) == {(v,) for v in range(-4, 5)}
    dec = oct_encode([(1, 0, -1, 1, 1), (-1, 0, 1, 1, -1), (-1, 0, -1, 0, 0)], 2)
    assert live_points(dec, 1, box) == set()


def test_kleene_fixpoint_r6():
    r6 = seven_branch_relations()[5]
    box = BoxDomain.cube(2, -8, 8)
    pts = live_points(r6, 2, box)
    assert pts == {(x, y) for x in range(1, 9) for y in range(-8, 1)}


def test_live_points_sound_for_wnt():
    rng = random.Random(4)
    from helpers import random_oct_relation

    for _ in range(30):
        r = random_oct_relation(rng, 2, max_coef=3)
        box = BoxDomain.cube(2, -6, 6)
        live = live_points(r, 2, box)
        w = wnt(r, 2).set
        for p in live:
            assert eval_membership(w, p)


def test_program_live_starts_branching():
    p = parse_program(BRANCHING_PROGRAM)
    box = BoxDomain.cube(2, -5, 5)
    starts = program_live_starts(p, box)
    # x != 0 admits an infinite run (third branch forever / via y decrease)
    assert (0, 3) not in starts
    assert (-2, 0) in starts
    assert (2, -1) in starts
    # x > 0 with y > 0 loops via the decrement branches inside the box
    assert (1, 1) in starts
