import random
import signal
from fractions import Fraction
from itertools import product

import pytest

from octoterm import affine
from octoterm.affine import (
    AffineRel,
    NotPolynomiallyBounded,
    compose_affine,
    finite_monoid_wnt,
    homogenize,
    identity,
    is_finite_monoid,
    is_polynomially_bounded,
    mat,
    mat_mul,
    mat_pow,
    poly_matrix_power,
    sufficient_termination,
    _unity_order,
)
from octoterm.grammar import as_affine, parse_rows
from octoterm.linarith import LE, LinTerm
from octoterm.presburger import Conj, Dnf

from helpers import (
    ORDER_840_LOOP,
    call_within,
    char_poly,
    power_cycle,
    random_poly_bounded_matrix,
    reference_poly_matrix_power,
    reference_unity_order,
    trajectory_offsets,
)


def test_finite_monoid_basics():
    assert is_finite_monoid(mat([[1, 0], [0, 1]]))
    assert not is_finite_monoid(mat([[1, 1], [0, 1]]))
    assert is_finite_monoid(mat([[0, 1], [-1, 0]]))
    assert is_finite_monoid(mat([[-1, 0], [0, -1]]))
    assert is_finite_monoid(mat([[0, 1], [0, 0]]))


def test_finite_monoid_vs_power_enumeration():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 4)
        a = mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        brute = power_cycle(a, 500) is not None
        assert is_finite_monoid(a) == brute


def test_finite_monoid_wnt_examples():
    dec = AffineRel(1, mat([[1]]), (-1,), (((1,), 0),))
    assert finite_monoid_wnt(dec).is_false
    ident = AffineRel(1, mat([[1]]), (0,), (((1,), 0),))
    d = finite_monoid_wnt(ident)
    assert d.eval({"x0": 0}) and d.eval({"x0": 5}) and not d.eval({"x0": -1})
    neg = AffineRel(1, mat([[-1]]), (0,), (((1,), -5),))
    d = finite_monoid_wnt(neg)
    assert all(d.eval({"x0": v}) for v in range(-5, 6))
    assert not d.eval({"x0": 6}) and not d.eval({"x0": -6})


def test_finite_monoid_wnt_vs_trajectory_simulation():
    rng = random.Random(7)
    cases = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        a = mat([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
        if not is_finite_monoid(a):
            continue
        b = tuple(rng.randint(-2, 2) for _ in range(n))
        guard = tuple(
            (tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 2))
        )
        rel = AffineRel(n, a, b, guard)
        d = finite_monoid_wnt(rel)
        cases += 1
        B, C = power_cycle(rel.a)
        horizon = B + 3 * C + 3
        for _ in range(30):
            pt = tuple(rng.randint(-6, 6) for _ in range(n))
            # simulate: guard must hold at every step; matrices cycle, so
            # beyond the horizon the drift sign decides
            cur = pt
            ok = True
            for step in range(horizon):
                if not rel.guard_holds(cur):
                    ok = False
                    break
                cur = rel.apply(cur)
            if ok:
                # beyond horizon: guard row values are affine in the cycle
                # count; re-simulate one more period to compare drift
                nxt = cur
                for _ in range(C):
                    nxt = rel.apply(nxt)
                for c_row, d0 in rel.guard:
                    v1 = sum(ci * xi for ci, xi in zip(c_row, cur))
                    v2 = sum(ci * xi for ci, xi in zip(c_row, nxt))
                    if v2 < v1:
                        ok = None  # drift negative: undecided by simulation
                        break
            got = d.eval({f"x{i}": v for i, v in enumerate(pt)})
            if ok is True:
                assert got, (rel, pt)
            elif ok is False:
                assert not got, (rel, pt)
    assert cases >= 40


def test_finite_monoid_wnt_past_a_power_cycle_of_512():
    # the scan for the power cycle is bounded by N + _order_lcm(N) + 1,
    # which the identity A^(N+L) = A^N guarantees; a bound of 512 gave up
    # before the repeat at 840 and failed an assertion
    names = [f"x{i}" for i in range(23)]
    (rows,) = parse_rows(ORDER_840_LOOP, names)
    rel = as_affine(rows, names)
    assert is_finite_monoid(rel.a) and power_cycle(rel.a, 1000) == (0, 840)
    d, _ = call_within(30, "finite_monoid_wnt", finite_monoid_wnt, rel, names)
    assert d == Dnf([Conj.make([(LinTerm({v: -1}), LE) for v in names[:3]])])


def test_finite_monoid_wnt_walks_the_powers_once(monkeypatch):
    # one walk of A^0 .. A^(B+C) after the products of is_finite_monoid:
    # B + C = 840 products on the order-840 loop (3,422 in all when the
    # powers were walked three times)
    names = [f"x{i}" for i in range(23)]
    (rows,) = parse_rows(ORDER_840_LOOP, names)
    rel = as_affine(rows, names)
    B, C = power_cycle(rel.a, 1000)
    real = affine.mat_mul
    calls = []

    def counted(x, y):
        calls.append(None)
        return real(x, y)

    monkeypatch.setattr(affine, "mat_mul", counted)
    assert is_finite_monoid(rel.a)
    monoid = len(calls)
    calls.clear()
    call_within(30, "finite_monoid_wnt", finite_monoid_wnt, rel, names)
    assert len(calls) <= monoid + B + C, (monoid, B, C, len(calls))


def test_compose_affine_is_one_step_of_each():
    # x' = A'(A x + b) + b', where x satisfies the first guard and A x + b
    # the second, checked point by point on a box
    rng = random.Random(38)
    empty = (AffineRel(1, mat([[1]]), (1,), (((1,), 0),)),
             AffineRel(1, mat([[1]]), (0,), (((-1,), 0),)))  # x >= 0, then x + 1 <= 0
    pairs = [empty]
    for _ in range(150):
        n = rng.randint(1, 3)

        def draw():
            a = mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            b = tuple(rng.randint(-2, 2) for _ in range(n))
            guard = tuple((tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-3, 3))
                          for _ in range(rng.randint(0, 2)))
            return AffineRel(n, a, b, guard)

        pairs.append((draw(), draw()))
    held = []
    for first, then in pairs:
        both = compose_affine(first, then)
        assert both.n_vars == first.n_vars
        count = 0
        for p in product(range(-3, 4), repeat=first.n_vars):
            step = first.apply(p)
            holds = first.guard_holds(p) and then.guard_holds(step)
            assert both.guard_holds(p) == holds, (first, then, p)
            if holds:
                assert both.apply(p) == then.apply(step), (first, then, p)
                count += 1
        held.append(count)
    assert held[0] == 0 and sum(held[1:]) > 0


def test_homogenize_shape():
    rel = AffineRel(2, mat([[1, 2], [0, 1]]), (3, -1), (((1, 0), 2),))
    a_h, c_h = homogenize(rel)
    assert a_h == ((1, 2, 3), (0, 1, -1), (0, 0, 1))
    assert c_h == ((1, 0, -2),)
    rng = random.Random(9)
    for _ in range(20):
        pt = (rng.randint(-5, 5), rng.randint(-5, 5))
        img = rel.apply(pt)
        himg = tuple(
            sum(a_h[i][j] * v for j, v in enumerate(pt + (1,))) for i in range(2)
        )
        assert img == himg


def test_poly_matrix_power_golden():
    a = mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    pcf = poly_matrix_power(a)
    assert pcf.L == 1
    assert pcf.polys[0][0][2] == [Fraction(0), Fraction(-1, 2), Fraction(1, 2)]
    assert pcf.polys[0][0][1] == [Fraction(0), Fraction(1)]
    for k in range(0, 11):
        assert pcf.at(k) == mat_pow(a, k)


def test_poly_matrix_power_identity_and_rotation():
    pcf = poly_matrix_power(mat([[1, 0], [0, 1]]))
    assert all(len(p) <= 1 for row in pcf.polys[0] for p in row)
    rot = mat([[0, 1], [-1, 0]])
    pr = poly_matrix_power(rot)
    assert pr.L == 4
    mats = [pr.at(k) for k in range(4, 8)]
    assert mats == [mat_pow(rot, k) for k in range(4, 8)]


def test_poly_matrix_power_matches_the_direct_construction():
    # the shared samples and the one Lagrange basis per residue give the
    # same closed form, entry for entry, as one mat_pow per sample and one
    # interpolation per entry
    rng = random.Random(17)
    orders = set()
    for _ in range(80):
        a = random_poly_bounded_matrix(rng, rng.randint(1, 4))
        pcf = poly_matrix_power(a)
        polys, prefix = reference_poly_matrix_power(a)
        assert repr(pcf.polys) == repr(polys) and pcf.prefix == prefix  # Fractions, not ints
        assert pcf.at(len(prefix) + 5) == mat_pow(a, len(prefix) + 5)
        orders.add(pcf.L)
    assert {1, 2, 4, 6} <= orders


def test_poly_matrix_power_rejects_growth():
    with pytest.raises(NotPolynomiallyBounded):
        poly_matrix_power(mat([[2, 0], [0, 1]]))
    assert not is_polynomially_bounded(mat([[2]]))
    assert is_polynomially_bounded(mat([[1, 1], [0, 1]]))


def test_poly_matrix_power_detects_a_corrupted_sample(monkeypatch):
    # A = [[1, 1], [0, 1]] (N = 2, L = 1): the prefix takes N + L = 3
    # products, and the samples A^k, k = 2..6, four more; a wrong value at
    # any sample, interpolated or extra, breaks the degree bound.  The
    # products are counted from the first prefix one: those of
    # ``_unity_order`` run on the real product, uncounted
    a = mat([[1, 1], [0, 1]])
    real, real_order = affine.mat_mul, affine._unity_order
    for bad in range(4, 8):
        calls = []

        def corrupt(x, y):
            out = real(x, y)
            calls.append(out)
            if len(calls) == bad:
                out = ((out[0][0], out[0][1] + 1),) + out[1:]
            return out

        def uncounted_order(m):
            monkeypatch.setattr(affine, "mat_mul", real)
            order = real_order(m)
            monkeypatch.setattr(affine, "mat_mul", corrupt)
            return order

        monkeypatch.setattr(affine, "_unity_order", uncounted_order)
        monkeypatch.setattr(affine, "mat_mul", corrupt)
        with pytest.raises(AssertionError, match="degree bound violated"):
            poly_matrix_power(a)
    monkeypatch.setattr(affine, "mat_mul", real)
    monkeypatch.setattr(affine, "_unity_order", real_order)
    assert poly_matrix_power(a).polys == [[[[1], [0, 1]], [[0], [1]]]]


def test_unity_order_matches_the_divisibility_loop():
    rng = random.Random(53)
    seen = set()
    for t in range(480):
        if t % 4 == 3:
            # the update of a random affine loop over 4 or 5 variables,
            # homogenized to N = 5 or 6 as ``affine terminate`` does
            n = rng.randint(4, 5)
            if rng.random() < 0.5:
                a = random_poly_bounded_matrix(rng, n)
            else:
                a = mat([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
            b = tuple(rng.randint(-2, 2) for _ in range(n))
            a = homogenize(AffineRel(n, a, b, ()))[0]
        elif t % 2:
            a = random_poly_bounded_matrix(rng, rng.randint(1, 6))
        else:
            # mostly growing; the reference tries all 120 L at N = 4 and 5
            n = rng.randint(4, 5) if t % 40 == 0 else rng.randint(1, 3)
            a = mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        got = _unity_order(a)
        assert got == reference_unity_order(a)
        assert is_polynomially_bounded(a) == (got is not None)
        seen.add(got)
    assert None in seen and {1, 2, 3, 4, 6} <= seen


def _timeout(*_):
    raise TimeoutError("alarm")


def test_unity_order_without_roots_of_unity_is_fast():
    # an eigenvalue 2 at N = 6: trying every L up to _order_lcm(6) = 2520
    # took close to a minute; affine terminate homogenizes a 5-variable
    # loop to N = 6
    old = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(5)
    try:
        assert _unity_order(mat([[2 if i == j == 0 else int(i == j) for j in range(6)]
                                 for i in range(6)])) is None
        grow = AffineRel(5, mat([[2 if i == j == 0 else int(i == j) for j in range(5)]
                                 for i in range(5)]), (0,) * 5, (((1, 0, 0, 0, 0), 0),))
        with pytest.raises(NotPolynomiallyBounded):
            sufficient_termination(grow)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_sufficient_termination_golden():
    a = mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    rel = AffineRel(3, a, (0, 0, 0), (((1, 0, 0), 0),))
    dnf = sufficient_termination(rel, names=["x", "y", "z"])
    # golden: (z<0) or (z=0 and y<0) or (z=0 and y=0 and x<0)
    def golden(x, y, z):
        return z < 0 or (z == 0 and y < 0) or (z == 0 and y == 0 and x < 0)

    for x in range(-4, 5):
        for y in range(-4, 5):
            for z in range(-4, 5):
                assert dnf.eval({"x": x, "y": y, "z": z}) == golden(x, y, z)
    assert len(dnf) == 3


def test_sufficient_termination_guard_free():
    rel = AffineRel(2, mat([[1, 1], [0, 1]]), (0, 0), ())
    assert sufficient_termination(rel).is_false


def test_sufficient_termination_disjoint_from_wnt():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 2)
        a = mat([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
        if not is_polynomially_bounded(a):
            continue
        b = tuple(rng.randint(-2, 2) for _ in range(n))
        guard = (((tuple(rng.randint(-2, 2) for _ in range(n))), rng.randint(-2, 2)),)
        rel = AffineRel(n, a, b, guard)
        dnf = sufficient_termination(rel)
        # every point in the sufficient set terminates within a short bound
        for _ in range(20):
            pt = tuple(rng.randint(-8, 8) for _ in range(n))
            if not dnf.eval({f"x{i}": v for i, v in enumerate(pt)}):
                continue
            cur = pt
            steps = 0
            while rel.guard_holds(cur) and steps < 3000:
                cur = rel.apply(cur)
                steps += 1
            assert steps < 3000, (rel, pt)
        if is_finite_monoid(a):
            wnt_dnf = finite_monoid_wnt(rel)
            for _ in range(30):
                pt = {f"x{i}": rng.randint(-8, 8) for i in range(n)}
                assert not (dnf.eval(pt) and wnt_dnf.eval(pt))


def test_deterministic_pre_image_intersection():
    # pre(S1 cap S2) = pre(S1) cap pre(S2) for deterministic updates
    rng = random.Random(13)
    rel = AffineRel(2, mat([[0, 1], [1, 0]]), (1, -1), ())
    for _ in range(30):
        s1 = {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(8)}
        s2 = {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(8)}
        box = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]

        def pre(s):
            return {p for p in box if rel.apply(p) in s}

        assert pre(s1 & s2) == pre(s1) & pre(s2)


def test_trajectory_offsets_recurrence():
    rel = AffineRel(2, mat([[1, 1], [0, 1]]), (1, 2), ())
    s = trajectory_offsets(rel, 8)
    assert s[0] == (0, 0)
    # s_{k+1} = s_k + A^k b
    for k in range(8):
        step = mat_pow(rel.a, k)
        inc = tuple(sum(step[i][j] * rel.b[j] for j in range(2)) for i in range(2))
        assert s[k + 1] == tuple(x + y for x, y in zip(s[k], inc))


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_char_poly_against_determinant():
    rng = random.Random(2)
    for _ in range(120):
        n = rng.randint(1, 4)
        a = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        got = char_poly(a)
        # evaluate det(xI - A) at integer points and compare
        for x in (-2, 0, 1, 3):
            m = [
                [Fraction(x if i == j else 0) - a[i][j] for j in range(n)]
                for i in range(n)
            ]
            val = sum(c * x ** d for d, c in enumerate(got))
            assert val == _det(m)


def _runs(rel: AffineRel, point, steps: int) -> bool:
    """Whether the loop takes ``steps`` steps from ``point``."""
    for _ in range(steps):
        if not rel.guard_holds(point):
            return False
        point = rel.apply(point)
    return True


def test_an_empty_guard_terminates_everywhere():
    # the seed-35 draw of the benchmark's loops workload: x1 - x0 >= 0 and
    # x0 - x1 >= 2 have no common point, yet its per-row conditions covered
    # the space with four disjuncts
    seed35 = AffineRel(2, mat([[1, 1], [0, 1]]), (1, 0), (((-1, 1), 0), ((1, -1), 2)))
    (rows,) = parse_rows("x' == -x && y' == y && x >= 1 && x <= 0", ["x", "y"])
    flip = as_affine(rows, ["x", "y"])
    for rel in (seed35, flip):
        dnf = sufficient_termination(rel)
        assert dnf == Dnf([Conj.make([])])
        for p in product(range(-6, 7), repeat=rel.n_vars):
            assert dnf.eval(dict(zip(["x0", "x1"], p))) and not _runs(rel, p, 1)
