import random
from itertools import product

from octoterm import presburger
from octoterm.linarith import EQ, LE, LT, LinTerm
from octoterm.presburger import (
    Conj,
    DivAtom,
    Dnf,
    conj_implies,
    eliminate_all,
    eliminate_int_var,
)

x = LinTerm.var("x")
y = LinTerm.var("y")
k = LinTerm.var("k")


def test_make_normalizes():
    c = Conj.make([(2 * x - 3, LE)])  # 2x <= 3  ->  x <= 1
    assert c.rows[0][0].coef("x") == 1
    assert c.rows[0][0].const == -1
    assert Conj.make([(LinTerm({}, 1), LE)]) is None
    assert Conj.make([(x - x, EQ)]) is not None


def test_divatom_normalization():
    d = DivAtom(4, 2 * x + 2).normalized()
    assert d.modulus == 2 and d.term.coef("x") == 1
    assert DivAtom(3, LinTerm({}, 6)).normalized() is True
    assert DivAtom(3, LinTerm({}, 5)).normalized() is False


def test_eval_divisibility():
    c = Conj.make([], [DivAtom(2, x)])
    assert c.eval({"x": 4}) and not c.eval({"x": 3})


def test_eliminate_equality_substitution():
    c = Conj.make([(x - k, EQ), (k - 5, LE)])
    out = eliminate_int_var(c, "k")
    assert len(out) == 1
    assert out[0].eval({"x": 5}) and not out[0].eval({"x": 6})


def test_eliminate_scaled_equality_produces_divisibility():
    c = Conj.make([(2 * k - x, EQ)])
    dnf = eliminate_all(c, ["k"], nonneg=["k"])
    assert dnf.eval({"x": 4}) and not dnf.eval({"x": 3})
    assert not dnf.eval({"x": -2})


def test_single_parameter_examples():
    c = Conj.make([(x - k, LE), (k - x, LE)])
    d = eliminate_all(c, ["k"], nonneg=["k"])
    assert [d.eval({"x": v}) for v in (-1, 0, 3)] == [False, True, True]
    c = Conj.make([(x + k, LE)])
    d = eliminate_all(c, ["k"], nonneg=["k"])
    assert [d.eval({"x": v}) for v in (-2, 0, 1)] == [True, True, False]


def test_eliminate_differential_with_point_oracle():
    rng = random.Random(7)
    for _ in range(300):
        rows = []
        for _ in range(rng.randint(1, 4)):
            t = LinTerm({"x": rng.randint(-3, 3), "k": rng.randint(-3, 3)},
                        rng.randint(-6, 6))
            rows.append((t, LE))
        if rng.random() < 0.25:
            rows.append((LinTerm({"x": rng.randint(-2, 2), "k": rng.randint(-2, 2)},
                                 rng.randint(-3, 3)), EQ))
        conj = Conj.make(rows)
        if conj is None:
            continue
        dnf = eliminate_all(conj, ["k"], nonneg=["k"])
        for xv in range(-10, 11):
            # per-point oracle: rows are affine in k, so the satisfying k
            # range is an interval intersection, computable exactly
            lo, hi, ok = 0, None, True
            for t, rel in conj.rows:
                a = int(t.coef("k"))
                rest = t.eval({"x": xv, "k": 0})
                if rel == EQ:
                    if a == 0:
                        ok = ok and rest == 0
                    else:
                        if rest.numerator % a == 0:
                            v = -rest.numerator // a
                            lo, hi = max(lo, v), (v if hi is None else min(hi, v))
                        else:
                            ok = False
                elif a == 0:
                    ok = ok and rest <= 0
                elif a > 0:
                    b = (-rest.numerator) // a
                    hi = b if hi is None else min(hi, b)
                else:
                    b = -((rest.numerator) // (-a))
                    b = (rest.numerator + (-a) - 1) // (-a)
                    lo = max(lo, b)
            exists = ok and (hi is None or lo <= hi)
            assert dnf.eval({"x": xv}) == exists


def test_conj_implies_octagonal_and_general():
    a = Conj.make([(x - 1, LE), (y - 1, LE)])
    b = Conj.make([(x + y - 2, LE)])
    assert conj_implies(a, b)
    assert not conj_implies(b, a)
    g1 = Conj.make([(2 * x - 3 * y, EQ), (x - 3, LE)])
    g2 = Conj.make([(2 * x - 3 * y - 1, LE)])
    assert conj_implies(g1, g2)
    # b over fewer variables than a is read in a's variable order
    a3 = Conj.make([(x - 1, LE), (y - k, EQ), (k - 1, LE)])
    assert conj_implies(a3, Conj.make([(x + y - 2, LE)]))
    assert not conj_implies(a3, Conj.make([(x + y - 1, LE)]))
    assert conj_implies(a3, Conj.make([(2 * k - 2, LE)]))


def test_conj_implies_divisibility_from_rows():
    # from the step-2 BRANCHING saturation: y is fixed, so x + y + 1 and
    # x + 1 have the same parity
    a = Conj.make([(y - 2, EQ), (1 - x, LE)], [DivAtom(2, x + y + 1)])
    b = Conj.make([(1 - x, LE)], [DivAtom(2, x + 1)])
    assert conj_implies(a, b)
    assert not conj_implies(Conj.make([(y - 3, EQ), (1 - x, LE)], a.divs), b)
    # a's rows alone fix the term
    a2 = Conj.make([(x + y - 4, EQ)])
    assert conj_implies(a2, Conj.make([], [DivAtom(2, x + y)]))
    assert not conj_implies(a2, Conj.make([], [DivAtom(3, x + y)]))
    # m | m': 4 | x + 2y gives 2 | x, but 3 | x does not
    assert conj_implies(Conj.make([], [DivAtom(4, x + 2 * y)]), Conj.make([], [DivAtom(2, x)]))
    assert not conj_implies(Conj.make([], [DivAtom(3, x)]), Conj.make([], [DivAtom(2, x)]))
    # a rationally empty a implies anything
    empty = Conj.make([(x + y, LE), (1 - x - y, LE)])
    assert conj_implies(empty, Conj.make([], [DivAtom(3, x + 1)]))


def test_conj_implies_divisibility_differential():
    """Whenever conj_implies(a, b) holds, every integer point of a in a box
    satisfies b.  b's atom is built from one of a's atoms (or 0), a's
    equalities, multiples of its modulus and a random residue, so it often
    holds on a without being among a's atoms."""
    rng = random.Random(11)
    names = ["x", "y", "z"]
    implied = 0
    for _ in range(400):
        vs = names[: rng.randint(2, 3)]

        def term():
            return LinTerm({v: rng.randint(-2, 2) for v in vs}, rng.randint(-3, 3))

        eqs = [term() for _ in range(rng.randint(0, 1))]
        rows = [(t, EQ) for t in eqs] + [(term(), LE) for _ in range(rng.randint(1, 2))]
        divs = [DivAtom(rng.choice((2, 3)), term()) for _ in range(rng.randint(1, 2))]
        a = Conj.make(rows, divs)
        if a is None:
            continue
        m = rng.choice((2, 3))
        t = rng.choice([LinTerm()] + [d.term for d in a.divs])
        for e in eqs:
            t = t + rng.randint(-1, 1) * e
        t = t + m * term() + rng.randint(0, m - 1)
        b = Conj.make(rng.sample(a.rows, rng.randint(0, len(a.rows))), [DivAtom(m, t)])
        if b is None or not conj_implies(a, b):
            continue
        implied += any(d not in a.divs for d in b.divs)
        for p in product(range(-5, 6), repeat=len(vs)):
            val = dict(zip(vs, p))
            if a.eval(val):
                assert b.eval(val), (a, b, val)
    # the semantic path is exercised, not just the syntactic one
    assert implied >= 10


def test_memos_are_bounded():
    for fn in (presburger._conj_octagon, presburger._rational_witness, presburger.conj_poly):
        assert fn.cache_info().maxsize is not None


def test_dnf_pruning():
    d = Dnf()
    d.add(Conj.make([(x - 1, LE)]))
    d.add(Conj.make([(x - 0, LE)]))  # implied by x <= 1? no: x<=0 implies x<=1
    assert len(d) == 1
    d.add(Conj.make([(x + 1, LE), (-x - 1, LE)]))  # x = -1, also implied
    assert len(d) == 1
    d.add(Conj.make([(-x + 5, LE)]))
    assert len(d) == 2
