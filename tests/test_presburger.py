import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from octoterm import octagon, presburger, term_oct
from octoterm.affine import AffineRel, mat, sufficient_termination
from octoterm.linarith import EQ, LE, LT, LinTerm
from octoterm.presburger import (
    Conj,
    DivAtom,
    Dnf,
    conj_implies,
    eliminate_all,
)
from octoterm import program as program_module
from octoterm.program import nt_program, parse_program, transitive_relation

from helpers import (
    BRANCHING_PROGRAM,
    TWO_PHASE_PROGRAM,
    clear_memos,
    perfbench_gen,
    reference_conj_implies,
    reference_eliminate_all,
    reference_rename,
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
    (d,) = Conj.make([], [DivAtom(4, 2 * x + 2)]).divs
    assert d.modulus == 2 and d.term.coef("x") == 1
    assert Conj.make([], [DivAtom(3, LinTerm({}, 6))]).divs == ()
    assert Conj.make([], [DivAtom(3, LinTerm({}, 5))]) is None


# -- the Fraction normalizer that Conj.make replaced, kept as a reference ----


def _ref_int_term(t: LinTerm) -> LinTerm:
    cs = {v: Fraction(c) for v, c in t.coeffs.items()}
    const = Fraction(t.const)
    den = lcm(const.denominator, *(c.denominator for c in cs.values()))
    return LinTerm({v: c * den for v, c in cs.items()}, const * den)


def _ref_content(t: LinTerm, include_const: bool) -> int:
    g = 0
    for c in t.coeffs.values():
        g = gcd(g, abs(c.numerator))
    if include_const:
        g = gcd(g, abs(t.const.numerator))
    return g


def _ref_div_normalized(m: int, term: LinTerm):
    t = _ref_int_term(term)
    m = abs(m)
    if m in (0, 1):
        return True
    d = gcd(m, _ref_content(t, include_const=True))
    if d > 1:
        m //= d
        t = t * Fraction(1, d)
        if m == 1:
            return True
    t = LinTerm({v: Fraction(c.numerator % m) for v, c in t.coeffs.items()},
                Fraction(t.const.numerator % m))
    if t.is_constant():
        return t.const == 0
    return DivAtom(m, t)


def _ref_make(rows, divs):
    """(rows, divs) as the Fraction normalizer built them, with opposite
    rows paired as ``_inorm`` pairs them; None when unsat."""
    out_rows = []
    seen = set()
    best_le: dict = {}
    for t, rel in rows:
        t = _ref_int_term(t)
        if rel == LT:
            t = t + 1
            rel = LE
        if rel == LE:
            g = _ref_content(t, include_const=False)
            if g > 1:
                c = t.const.numerator
                t = LinTerm({v: cc / g for v, cc in t.coeffs.items()}, Fraction(-((-c) // g)))
        if t.is_constant():
            if (rel == LE and t.const > 0) or (rel == EQ and t.const != 0):
                return None
            continue
        if rel == EQ:
            g = _ref_content(t, include_const=False)
            if g > 1:
                if t.const.numerator % g != 0:
                    return None
                t = t * Fraction(1, g)
        if rel == LE:
            key = frozenset(t.coeffs.items())
            prev = best_le.get(key)
            if prev is None or t.const > prev.const:
                best_le[key] = t
            continue
        key = (frozenset(t.coeffs.items()), t.const)
        if key not in seen:
            seen.add(key)
            out_rows.append((t, EQ))
    # t <= -c and t >= d: empty when d > -c, t == -c when d == -c
    for key in list(best_le):
        opp = frozenset((v, -c) for v, c in key)
        if key in best_le and opp in best_le:
            t, u = best_le[key], best_le[opp]
            if t.const + u.const > 0:
                return None
            if t.const + u.const == 0:
                del best_le[key], best_le[opp]
                if (key, t.const) not in seen:
                    seen.add((key, t.const))
                    out_rows.append((t, EQ))
    out_rows.extend((t, LE) for t in best_le.values())
    out_divs = []
    for d in divs:
        nd = _ref_div_normalized(d.modulus, d.term)
        if nd is False:
            return None
        if nd is not True and nd not in out_divs:
            out_divs.append(nd)
    return tuple(out_rows), tuple(out_divs)


def _rand_coef(rng):
    if rng.random() < 0.3:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.randint(-4, 4)


def test_make_matches_fraction_normalizer():
    rng = random.Random(5)
    names = ["x", "y", "z"]
    outcomes = set()
    for _ in range(3000):
        vectors = [{v: _rand_coef(rng) for v in rng.sample(names, rng.randint(0, 3))}
                   for _ in range(rng.randint(1, 3))]
        # negated vectors make opposite rows that cross or meet
        vectors += [{v: -c for v, c in cs.items()} for cs in vectors]
        # shared coefficient vectors make rows that collapse to one
        rows = [(LinTerm(rng.choice(vectors), _rand_coef(rng)), rng.choice((LT, LE, LE, EQ)))
                for _ in range(rng.randint(0, 5))]
        divs = [DivAtom(rng.randint(-4, 6), LinTerm(rng.choice(vectors), _rand_coef(rng)))
                for _ in range(rng.randint(0, 3))]
        ref = _ref_make(rows, divs)
        got = Conj.make(rows, divs)
        assert (got is None) == (ref is None), (rows, divs)
        if got is None:
            outcomes.add("unsat")
            continue
        assert got.rows == ref[0], (rows, divs)
        assert got.divs == ref[1], (rows, divs)
        assert repr(got) == repr(Conj(*ref))
        outcomes.add(("rows" if got.rows else "") + ("divs" if got.divs else ""))
    assert outcomes == {"unsat", "", "rows", "divs", "rowsdivs"}


def _assert_int_conj(c: Conj) -> None:
    for t in [t for t, _ in c.rows] + [d.term for d in c.divs]:
        assert type(t.const) is int, c
        assert all(type(v) is int for v in t.coeffs.values()), c


def test_make_writes_strict_rows_as_integer_rows():
    # t < 0 over the integers is t + 1 <= 0, with t scaled to integers first
    assert Conj.make([(x - 3, LT)]).rows == ((x - 2, LE),)
    z = LinTerm.var("z")
    half = Fraction(1, 2)
    # after k steps of x' = x + y, y' = y + z the guard x >= 0 reads
    # x + k*(y - z/2) + k^2*(z/2) >= 0; sufficient_termination hands the
    # strict rational rows "k^2 coefficient < 0" and "k coefficient < 0"
    # to Conj.make
    cases = [(half * z, z + 1), (y - half * z, 2 * y - z + 1),
             (half * x - Fraction(1, 3) * y, 3 * x - 2 * y + 1)]
    for t, want in cases:
        c = Conj.make([(t, LT)])
        assert c.rows == ((want, LE),)
        _assert_int_conj(c)
        for pt in product(range(-3, 4), repeat=3):
            val = dict(zip("xyz", pt))
            assert c.eval(val) == (t.eval(val) < 0)
    rel = AffineRel(3, mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]]), (0, 0, 0), (((1, 0, 0), 0),))
    dnf = sufficient_termination(rel, names=["x", "y", "z"])
    assert [c.rows for c in dnf] == [((z + 1, LE),), ((z, EQ), (2 * y - z + 1, LE)),
                                     ((2 * y - z, EQ), (z, EQ), (x + 1, LE))]
    for c in dnf:
        _assert_int_conj(c)


def test_rows_stay_integers():
    c = Conj.make([(Fraction(1, 2) * x - Fraction(1, 3) * y, LT), (x + Fraction(4, 2), EQ)],
                  [DivAtom(3, Fraction(1, 2) * y + 1)])
    assert c.divs
    _assert_int_conj(c)
    _assert_int_conj(Conj.make([(2 * x - 3, LE), (x - k, EQ)]))
    for case in eliminate_all(Conj.make([(2 * k - x, EQ), (y - 3 * k, LE)]), ["k"], nonneg=["k"]):
        _assert_int_conj(case)
    branching = parse_program(BRANCHING_PROGRAM)
    two_phase = parse_program(TWO_PHASE_PROGRAM)
    members = transitive_relation(branching, "l1", "l1")[0]
    members += transitive_relation(two_phase, "l2", "l2")[0]
    members += transitive_relation(two_phase, "l5", "l5")[0]
    assert members
    for m in members:
        _assert_int_conj(m.conj)
    for p in (branching, two_phase):
        for c in nt_program(p).precondition:
            _assert_int_conj(c)


def test_eval_divisibility():
    c = Conj.make([], [DivAtom(2, x)])
    assert c.eval({"x": 4}) and not c.eval({"x": 3})


def test_eliminate_equality_substitution():
    c = Conj.make([(x - k, EQ), (k - 5, LE)])
    out = list(eliminate_all(c, ["k"]))
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
    # a rationally empty a implies anything; Conj.make would see that the
    # two rows cross and give None, so the conjunct is built as it stands
    empty = Conj(((x + y, LE), (1 - x - y, LE)))
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


def test_integer_witness_and_conj_implies_against_fractions():
    """On seeded conjuncts with a row that is not octagonal, and with
    divisibility atoms: the integer witness (den, numerators) has den the
    least common denominator, and den * t satisfies every row t of its
    conjunct; ``conj_implies`` agrees with the reference that reads its
    model in Fractions.  b keeps some of a's rows, weakens or combines
    others, and builds its atoms as in the differential test above, so
    both answers occur, and atoms hold beyond a's own."""
    rng = random.Random(41)
    names = ["x", "y", "z"]
    verdicts = {True: 0, False: 0}
    implied = 0
    for _ in range(300):
        vs = names[: rng.randint(2, 3)]

        def term():
            return LinTerm({v: rng.randint(-3, 3) for v in vs}, rng.randint(-4, 4))

        eqs = [term() for _ in range(rng.randint(0, 1))]
        rows = [(t, EQ) for t in eqs] + [(term(), LE) for _ in range(rng.randint(1, 3))]
        rows.append((2 * x + y - rng.randint(0, 9), LE))
        divs = [DivAtom(rng.choice((2, 3, 4)), term()) for _ in range(rng.randint(0, 2))]
        a = Conj.make(rows, divs)
        if a is None or presburger._conj_octagon(a) is not None:
            continue
        w = presburger._integer_witness(a)
        if w is not None:
            den, nums = w
            assert den > 0 and gcd(den, *nums.values()) == 1
            for t, rel in a.rows:
                val = den * t.const + sum(c * nums[v] for v, c in t.coeffs.items())
                assert val <= 0 and (rel == LE or val == 0), (a, t)
        kept = rng.sample(a.rows, rng.randint(0, len(a.rows)))
        kept += [(t - rng.randint(0, 2), rel) for t, rel in rng.sample(a.rows, 1)]
        kept += [(term(), LE) for _ in range(rng.randint(0, 1))]
        m = rng.choice((2, 3))
        t = rng.choice([LinTerm()] + [d.term for d in a.divs])
        for e in eqs:
            t = t + rng.randint(-1, 1) * e
        t = t + m * term() + rng.randint(0, m - 1)
        b = Conj.make(kept, rng.sample(a.divs, rng.randint(0, len(a.divs))) + [DivAtom(m, t)])
        if b is None:
            continue
        got = conj_implies(a, b)
        assert got == reference_conj_implies(a, b), (a, b)
        verdicts[got] += 1
        implied += got and any(d not in a.divs for d in b.divs)
    assert min(verdicts.values()) >= 20 and implied >= 10, (verdicts, implied)


def test_memos_are_bounded():
    # every lru_cache of the modules that memoize, re-exports included
    memos = {fn for module in (program_module, presburger, term_oct, octagon)
             for fn in vars(module).values() if hasattr(fn, "cache_info")}
    assert {presburger._conj_octagon, program_module._summary, term_oct._wnt_tight,
            octagon._tight_closed} <= memos
    for fn in memos:
        assert fn.cache_info().maxsize is not None, fn.__qualname__


def test_dnf_pruning():
    d = Dnf()
    d.add(Conj.make([(x - 1, LE)]))
    d.add(Conj.make([(x - 0, LE)]))  # implied by x <= 1? no: x<=0 implies x<=1
    assert len(d) == 1
    d.add(Conj.make([(x + 1, LE), (-x - 1, LE)]))  # x = -1, also implied
    assert len(d) == 1
    d.add(Conj.make([(-x + 5, LE)]))
    assert len(d) == 2


def test_case_deduplication_is_list_equality_in_first_seen_order():
    # a case repeats exactly when it equals an earlier one as a list: rows
    # and divisibility atoms in order, each coefficient dict order-free
    a = ([({"x": 1, "y": 2}, 0, LE)], [(3, {"x": 1}, 1)])
    a_reordered_dict = ([({"y": 2, "x": 1}, 0, LE)], [(3, {"x": 1}, 1)])
    b = ([({"x": 1}, 0, LE), ({"y": 1}, 0, EQ)], [])
    b_swapped_rows = ([({"y": 1}, 0, EQ), ({"x": 1}, 0, LE)], [])
    cases = [b, a, a_reordered_dict, b_swapped_rows, b]
    out: list = []
    presburger._add_new_cases(out, set(), cases)
    want = []
    for case in cases:
        if case not in want:
            want.append(case)
    assert out == want == [b, a, b_swapped_rows]


# -- the normalization contract of exact elimination --------------------------


def _ordered(case):
    """A (rows, divs) case with each coefficient dict as its item list, so
    that equality sees the order of the coefficients as well."""
    rows, divs = case
    return ([(list(cs.items()), c0, rel) for cs, c0, rel in rows],
            [(m, list(cs.items()), c0) for m, cs, c0 in divs])


def _random_case(rng, names, moduli=range(-1, 7), factors=(1, 1, 2, 3, 6)):
    """Raw rows with zero coefficients and common factors > 1, and raw
    divisibility atoms, some of them trivial or unsatisfiable."""
    rows = []
    for _ in range(rng.randint(0, 5)):
        g = rng.choice(factors)
        cs = {v: g * rng.randint(-3, 3) for v in rng.sample(names, rng.randint(0, len(names)))}
        rows.append((cs, rng.randint(-8, 8), rng.choice((LE, LE, EQ))))
    divs = []
    for _ in range(rng.choice((0, 0, 1, 2))):
        cs = {v: rng.randint(-6, 6) for v in rng.sample(names, rng.randint(0, 2))}
        divs.append((rng.choice(moduli), cs, rng.randint(-6, 6)))
    return rows, divs


def test_inorm_is_idempotent():
    rng = random.Random(31)
    seen = {"unsat": 0, "empty": 0, "eq": 0, "div": 0, "gcd": 0}
    for _ in range(3000):
        rows, divs = _random_case(rng, ["x", "y", "z"])
        norm = presburger._inorm(rows, divs)
        if norm is None:
            seen["unsat"] += 1
            continue
        assert _ordered(presburger._inorm(*norm)) == _ordered(norm), (rows, divs)
        seen["empty"] += norm == ([], [])
        seen["eq"] += any(rel == EQ for _, _, rel in norm[0])
        seen["div"] += bool(norm[1])
        seen["gcd"] += any(gcd(*cs.values()) > 1 for cs, _, _ in rows if any(cs.values()))
    assert min(seen.values()) >= 100, seen


def test_inorm_rows_that_cross_are_unsat():
    # x + y <= 1 and x + y >= 2
    assert presburger._inorm([({"x": 1, "y": 1}, -1, LE), ({"x": -1, "y": -1}, 2, LE)], []) is None
    # after the gcd, 2x + 2y <= 1 is x + y <= 0, and 3x + 3y >= 2 is x + y >= 1
    assert Conj.make([(2 * x + 2 * y - 1, LE), (2 - 3 * x - 3 * y, LE)]) is None


def test_inorm_rows_that_meet_give_one_equality():
    # x - 2y <= 3 and x - 2y >= 3, next to y <= 0: one == row, in the
    # orientation of the first row, before the <= rows
    rows = [({"x": 1, "y": -2}, -3, LE), ({"y": 1}, 0, LE), ({"x": -1, "y": 2}, 3, LE)]
    assert presburger._inorm(rows, []) == ([({"x": 1, "y": -2}, -3, EQ), ({"y": 1}, 0, LE)], [])
    # the tightest row of each vector pairs, and the looser ones go with it
    c = Conj.make([(x - 5, LE), (x - 3, LE), (3 - x, LE), (1 - x, LE)])
    assert c.rows == ((x - 3, EQ),)
    # an equality the pair repeats is kept once
    assert Conj.make([(x - 3, EQ), (x - 3, LE), (3 - x, LE)]).rows == ((x - 3, EQ),)
    # rows that leave room stay two rows
    assert Conj.make([(x - 3, LE), (2 - x, LE)]).rows == ((x - 3, LE), (2 - x, LE))


def test_inorm_pairing_is_idempotent_and_keeps_the_set():
    # rows over a few coefficient vectors and their negations, scaled by
    # common factors: the normal form is a fixpoint, no two of its <= rows
    # cross or meet, and it holds on a box exactly where the rows hold
    rng = random.Random(43)
    names = ["x", "y", "z"]
    box = [dict(zip(names, pt)) for pt in product(range(-3, 4), repeat=3)]
    seen = {"unsat": 0, "paired": 0, "opposite": 0}
    for _ in range(2000):
        vectors = [{v: rng.randint(-3, 3) for v in rng.sample(names, rng.randint(1, 3))}
                   for _ in range(rng.randint(1, 3))]
        rows = []
        for _ in range(rng.randint(1, 6)):
            f = rng.choice((1, 1, 2, 3)) * rng.choice((1, -1))
            cs = {v: f * c for v, c in rng.choice(vectors).items()}
            rows.append((cs, f * rng.randint(-2, 2), rng.choice((LE, LE, LE, LE, EQ))))
        raw = _raw_conj(rows, [])
        norm = presburger._inorm(rows, [])
        if norm is None:
            seen["unsat"] += 1
            assert not any(raw.eval(pt) for pt in box), rows
            continue
        assert _ordered(presburger._inorm(*norm)) == _ordered(norm), rows
        conj = presburger._conj(*norm)
        assert all(raw.eval(pt) == conj.eval(pt) for pt in box), rows
        le = {tuple(sorted(cs.items())): c0 for cs, c0, rel in norm[0] if rel == LE}
        for key, c0 in le.items():
            opp = tuple((v, -c) for v, c in key)
            if opp in le:
                assert c0 + le[opp] < 0, rows
                seen["opposite"] += 1
        seen["paired"] += (sum(rel == EQ for _, _, rel in norm[0])
                           > sum(rel == EQ for _, _, rel in rows))
    assert min(seen.values()) >= 100, seen


def _raw_conj(rows, divs) -> Conj:
    """The conjunct of the raw rows and atoms, not normalized."""
    return Conj(tuple((LinTerm(cs, c0), rel) for cs, c0, rel in rows),
                tuple(DivAtom(m, LinTerm(cs, c0)) for m, cs, c0 in divs))


def _cases(d: Dnf) -> list:
    return [_ordered(c.irows()) for c in d]


def test_eliminate_all_matches_normalizing_on_entry(monkeypatch):
    # the reference normalizes every case when it enters an elimination;
    # eliminate_all normalizes its input once and each case it builds once
    built = {"residue": 0, "splinter": 0}
    real = presburger._ielim

    def spy(rows, divs, v, depth=0):
        # every case comes in normalized
        assert _ordered(presburger._inorm(rows, divs)) == _ordered((rows, divs))
        if depth:
            built["residue" if v.startswith("_q") else "splinter"] += 1
        return real(rows, divs, v, depth)

    monkeypatch.setattr(presburger, "_ielim", spy)
    rng = random.Random(37)
    params = ["k1", "k2", "k3"]
    split = 0
    for _ in range(400):
        rows, divs = _random_case(rng, ["x", "y"] + params, range(2, 5), (1, 1, 1, 2))
        conj = _raw_conj(rows, divs)
        targets = rng.sample(params, rng.randint(1, 3))
        nonneg = [v for v in targets if rng.random() < 0.5]
        got = eliminate_all(conj, targets, nonneg)
        want = reference_eliminate_all(conj, targets, nonneg)
        assert _cases(got) == _cases(want), (conj, targets, nonneg)
        split += len(got) > 1
    assert split >= 10 and min(built.values()) >= 20, (split, built)


def test_program_eliminations_match_normalizing_on_entry(monkeypatch):
    # every elimination of member_cases, _image and compose_members on the
    # `programs` requests of seeds 5-6, at the row-level entry they share
    calls = []
    real = presburger.eliminate_rows

    def spy(rows, divs, targets):
        calls.append((_raw_conj(rows, divs), list(targets)))
        return real(rows, divs, targets)

    gen = perfbench_gen()
    clear_memos()
    monkeypatch.setattr(presburger, "eliminate_rows", spy)
    monkeypatch.setattr(program_module, "eliminate_rows", spy)
    for seed in (5, 6):
        for r in gen.make_requests("programs", seed, 1):
            p = parse_program(r["text"])
            nt_program(p)
            transitive_relation(p, r["head"], r["head"])
    clear_memos()
    assert len(calls) >= 100, len(calls)
    for conj, targets in calls:
        want = reference_eliminate_all(conj, targets)
        assert _cases(real(*conj.irows(), targets)) == _cases(want), conj


def test_merges_are_normalized_once_and_build_no_conjunct(monkeypatch):
    # a cold compose_members and a cold _member_image, forward and
    # backward, hand their merged rows to one _inorm before the first
    # _ielim, and build no conjunct by Conj.make
    p = parse_program(TWO_PHASE_PROGRAM)
    # a loop member into l2 and one through l2's loop to l5: b's parameter
    # follows a's in the composition
    a = next(m for m in transitive_relation(p, "l1", "l2")[0] if m.params)
    b = next(m for m in transitive_relation(p, "l2", "l5")[0] if m.params)
    target = Conj.make([(LinTerm.var("x") - LinTerm.var("n"), LE)])
    events, made = [], []
    real_inorm, real_ielim, real_make = presburger._inorm, presburger._ielim, Conj.make.__func__

    def inorm(rows, divs):
        events.append("inorm")
        return real_inorm(rows, divs)

    def ielim(rows, divs, v, depth=0):
        events.append("ielim")
        return real_ielim(rows, divs, v, depth)

    def make(cls, rows, divs=()):
        made.append(rows)
        return real_make(cls, rows, divs)

    monkeypatch.setattr(presburger, "_inorm", inorm)
    monkeypatch.setattr(presburger, "_ielim", ielim)
    monkeypatch.setattr(Conj, "make", classmethod(make))
    runs = [lambda: program_module.compose_members(a, b),
            lambda: program_module._member_image(b, target, True),
            lambda: program_module._member_image(b, target, False)]
    for run in runs:
        clear_memos()
        events.clear()
        assert run()
        assert events[:2] == ["inorm", "ielim"], events[:5]
        assert made == []


def test_rename_matches_substituting_and_normalizing():
    # on normalized conjuncts with divisibility atoms, an injective
    # renaming equals the old path: substitute, then Conj.make again
    rng = random.Random(47)
    names = ["x", "y", "z"]
    seen = {"div": 0, "moved": 0, "eq": 0}
    for _ in range(2000):
        norm = presburger._inorm(*_random_case(rng, names))
        if norm is None:
            continue
        conj = presburger._conj(*norm)
        image = rng.sample(names + ["u", "w", "x'", "_p0"], len(names))
        mapping = {v: t for v, t in zip(names, image) if rng.random() < 0.8}
        if len({mapping.get(v, v) for v in conj.variables()}) < len(conj.variables()):
            with pytest.raises(ValueError):
                conj.rename(mapping)
            continue
        got, want = conj.rename(mapping), reference_rename(conj, mapping)
        assert got == want and repr(got) == repr(want), (conj, mapping)
        seen["div"] += bool(conj.divs)
        seen["eq"] += any(rel == EQ for _, rel in conj.rows)
        seen["moved"] += any(mapping.get(v, v) != v for v in conj.variables())
    assert min(seen.values()) >= 100, seen
    # a renaming that sends two of the conjunct's variables to one name
    conj = Conj.make([(x - y, LE)], [DivAtom(3, x + 1)])
    for mapping in ({"x": "y"}, {"x": "u", "y": "u"}):
        with pytest.raises(ValueError):
            conj.rename(mapping)
