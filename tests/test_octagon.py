import itertools
import random

import pytest

from octoterm.dbm import INF
from octoterm.linarith import EQ, LE, LinSys, LinTerm
from octoterm.octagon import (
    Octagon,
    bottom,
    oct_compose,
    oct_decode,
    oct_encode,
    oct_eq,
    oct_exists,
    oct_hull,
    oct_leq,
    oct_rows,
    pre_image_set,
    rows_to_atoms,
    tight_close,
    top,
)

from octoterm.presburger import Conj, eliminate_all

from helpers import (
    TIGHT_EXAMPLE_GOLDEN,
    periodic_relation,
    random_oct_relation,
    reference_oct_encode,
    reference_rows_to_atoms,
    tight_example_relation,
)


def oct_points(o: Octagon, lo, hi):
    o = tight_close(o)
    if o.is_bottom:
        return set()
    atoms = oct_decode(o)
    out = set()
    for pt in itertools.product(range(lo, hi + 1), repeat=o.num_vars):
        if all(si * pt[i] + sj * pt[j] <= c for si, i, sj, j, c in atoms):
            out.add(pt)
    return out


def test_encode_sum_atom_pairs():
    # x1 + x2 = 3 becomes u0 - u3 <= 3 and u2 - u1 <= -3 (plus mirrors)
    o = oct_encode([(1, 0, 1, 1, 3), (-1, 0, -1, 1, -3)], 2)
    assert o.dbm.rows[0][3] == 3
    assert o.dbm.rows[2][1] == 3
    assert o.dbm.rows[1][2] == -3
    assert o.dbm.rows[3][0] == -3


def test_empty_encode_is_top():
    o = oct_encode([], 3)
    assert oct_eq(o, top(3))


def test_encode_decode_roundtrip_pointwise():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 2)
        atoms = []
        for _ in range(rng.randint(1, 4)):
            i, j = rng.randrange(n), rng.randrange(n)
            si, sj = rng.choice((1, -1)), rng.choice((1, -1))
            if i == j and si != sj:
                sj = si
            atoms.append((si, i, sj, j, rng.randint(-4, 4)))
        o = oct_encode(atoms, n)
        back = oct_encode(oct_decode(o), n)
        assert oct_points(o, -5, 5) == oct_points(back, -5, 5)


def test_tight_close_golden_matrix():
    t = tight_close(tight_example_relation())
    assert not t.is_bottom
    assert t.dbm.rows == TIGHT_EXAMPLE_GOLDEN


def test_tight_close_halves_odd_unary():
    # 2x <= 3 tightens to 2x <= 2
    o = oct_encode([(1, 0, 1, 0, 3)], 1)
    t = tight_close(o)
    assert t.dbm.rows[0][1] == 2


def test_tight_close_random_pointwise_and_sup_exact():
    rng = random.Random(4)
    for _ in range(50):
        n = 2
        atoms = []
        for _ in range(rng.randint(1, 5)):
            i, j = rng.randrange(n), rng.randrange(n)
            si, sj = rng.choice((1, -1)), rng.choice((1, -1))
            if i == j and si != sj:
                sj = si
            atoms.append((si, i, sj, j, rng.randint(-4, 4)))
        o = oct_encode(atoms, n)
        t = tight_close(o)
        pts = oct_points(o, -6, 6)
        assert pts == oct_points(t, -6, 6)
        if t.is_bottom:
            # no integer point in a wide box either (coefficients <= 4)
            assert not pts
            continue
        # every finite tight bound is attained by an integer point (within
        # a box that covers the relevant region)
        if not pts:
            continue
        for si, i, sj, j, c in oct_decode(t):
            best = max(si * p[i] + sj * p[j] for p in pts)
            if abs(c) <= 5:
                assert best == c


def test_compose_identity_neutral():
    rng = random.Random(6)
    for _ in range(20):
        r = tight_close(random_oct_relation(rng, 2))
        if r.is_bottom:
            continue
        ident = tight_close(oct_encode([(1, 0, -1, 2, 0), (-1, 0, 1, 2, 0),
                                        (1, 1, -1, 3, 0), (-1, 1, 1, 3, 0)], 4))
        assert oct_eq(oct_compose(r, ident, 2), r)
        assert oct_eq(oct_compose(ident, r, 2), r)


def test_compose_guarded_decrement():
    # (x >= 0 and x' = x-1) composed with itself: x >= 1 and x' = x-2
    r = oct_encode([(-1, 0, -1, 0, 0), (1, 0, -1, 1, 1), (-1, 0, 1, 1, -1)], 2)
    rr = oct_compose(tight_close(r), tight_close(r), 1)
    expected = oct_encode(
        [(-1, 0, -1, 0, -2), (1, 0, -1, 1, 2), (-1, 0, 1, 1, -2)], 2
    )
    assert oct_eq(rr, expected)


def test_compose_random_vs_point_join():
    rng = random.Random(8)
    for _ in range(40):
        a = tight_close(random_oct_relation(rng, 1, max_coef=3))
        b = tight_close(random_oct_relation(rng, 1, max_coef=3))
        comp = oct_compose(a, b, 1)
        pa = oct_points(a, -6, 6)
        pb = oct_points(b, -6, 6)
        join = {(x, z) for (x, y) in pa for (y2, z) in pb if y == y2}
        got = oct_points(comp, -6, 6)
        assert join <= got


def test_exists_examples():
    r = oct_encode([(-1, 0, -1, 0, 0), (1, 0, -1, 1, 1), (-1, 0, 1, 1, -1)], 2)
    t = tight_close(r)
    dom = oct_exists(t, [1])
    assert oct_points(dom, -4, 4) == {(x,) for x in range(0, 5)}
    nothing = oct_exists(t, [0, 1])
    assert nothing.num_vars == 0 and not nothing.is_bottom


def test_exists_matches_periodicity_figure():
    # decoded difference entries of the pre-image sets for n = 1..11
    expected = {
        1: [0, None, None], 2: [0, -1, None], 3: [0, -1, -1],
        4: [-1, -1, -1], 5: [-1, -2, -1], 6: [-1, -2, -2],
        7: [-2, -2, -2], 8: [-2, -3, -2], 9: [-2, -3, -3],
        10: [-3, -3, -3], 11: [-3, -4, -3], 12: [-3, -4, -4],
    }
    r = tight_close(periodic_relation())
    power = r
    for n in range(1, 13):
        s = pre_image_set(power, 4)
        vals = [s.dbm.rows[0][6], s.dbm.rows[2][6], s.dbm.rows[4][6]]
        want = [INF if v is None else v for v in expected[n]]
        assert vals == want, f"power {n}"
        if n < 12:
            power = oct_compose(power, r, 4)


def test_eq_leq_reflexive_and_pointwise():
    rng = random.Random(10)
    for _ in range(40):
        a = tight_close(random_oct_relation(rng, 1, max_coef=3))
        b = tight_close(random_oct_relation(rng, 1, max_coef=3))
        assert oct_eq(a, a)
        pa = oct_points(a, -6, 6)
        pb = oct_points(b, -6, 6)
        if oct_leq(a, b):
            assert pa <= pb


def test_hull_of_two_points():
    a = oct_encode([(1, 0, 1, 0, 0), (-1, 0, -1, 0, 0)], 1)  # x = 0
    b = oct_encode([(1, 0, 1, 0, 4), (-1, 0, -1, 0, -4)], 1)  # x = 2
    h = oct_hull([a, b])
    assert oct_points(h, -5, 5) == {(0,), (1,), (2,)}


def test_hull_single_and_entailment():
    rng = random.Random(12)
    for _ in range(20):
        a = tight_close(random_oct_relation(rng, 2, max_coef=3))
        if a.is_bottom:
            continue
        assert oct_eq(oct_hull([a]), a)
        b = tight_close(random_oct_relation(rng, 2, max_coef=3))
        h = oct_hull([a, b])
        assert oct_leq(a, h)
        assert oct_leq(b, h)


def test_hull_of_linear_system():
    x = LinTerm.var("x")
    y = LinTerm.var("y")
    # x = 2t, y = t for t in [0, 3] projected: the hull floor-rounds
    sys = LinSys([(x - 2 * y, LE), (2 * y - x, LE), (-y, LE), (y - 3, LE)], ["x", "y"])
    h = oct_hull([sys])
    pts = oct_points(h, -1, 7)
    assert (0, 0) in pts and (6, 3) in pts
    assert (7, 3) not in pts


def test_hull_over_names_is_the_hull_of_the_exact_projection():
    # x' = x + k and y' = y + 2k over a loop parameter k >= 0: the
    # projection onto the program variables couples x' - x and y' - y
    xs = [LinTerm.var(v) for v in ("x", "y", "x'", "y'")]
    x, y, xp, yp = xs
    k = LinTerm.var("k")
    rows = [(xp - x - k, EQ), (yp - y - 2 * k, EQ), (-k, LE),
            (-x, LE), (x - 3, LE), (y, LE), (xp - 8, LE)]
    names = ["x", "y", "x'", "y'"]
    h = oct_hull([LinSys(rows)], names)
    projection = eliminate_all(Conj.make(rows), ["k"], nonneg=["k"])
    assert len(projection) >= 1
    assert oct_eq(h, oct_hull([c.to_linsys() for c in projection], names))
    assert oct_eq(oct_hull([], names), bottom(4))


def _row_holds(t, rel, point, names):
    v = t.eval(dict(zip(names, point)))
    return v <= 0 if rel == LE else v == 0


def test_row_classifier_accepts_exactly_the_octagonal_rows():
    # rows with coefficients -3..3 on at most 3 variables; octagonal means
    # one variable with coefficient +-1 or +-2, or two with +-1
    rng = random.Random(7)
    names = ["x", "y", "z"]
    index = {v: i for i, v in enumerate(names)}
    box = list(itertools.product(range(-3, 4), repeat=3))
    accepted = 0
    for _ in range(400):
        rows = []
        for _ in range(rng.randint(1, 3)):
            coeffs = {v: rng.randint(-3, 3) for v in rng.sample(names, rng.randint(1, 3))}
            rows.append((LinTerm(coeffs, rng.randint(-4, 4)), rng.choice((LE, EQ))))
        rows = [(t, rel) for t, rel in rows if not t.is_constant()]
        if not rows:
            continue
        octagonal = all(
            sorted(abs(c) for c in t.coeffs.values()) in ([1], [2], [1, 1]) for t, _ in rows
        )
        atoms = rows_to_atoms(rows, index)
        assert (atoms is not None) == octagonal
        if atoms is None:
            continue
        accepted += 1
        o = oct_encode(atoms, 3)
        want = {pt for pt in box if all(_row_holds(t, rel, pt, names) for t, rel in rows)}
        assert oct_points(o, -3, 3) == want
        assert oct_points(oct_encode(oct_decode(o), 3), -3, 3) == want
        back = oct_rows(o, names)
        assert {pt for pt in box if all(_row_holds(t, rel, pt, names) for t, rel in back)} == want
    assert accepted >= 50


def test_hull_empty_is_bottom():
    a = oct_encode([(1, 0, 1, 0, -1), (-1, 0, -1, 0, -1)], 1)  # x<=-1/2 & x>=1/2
    assert oct_hull([a]).is_bottom


def test_tight_idempotent():
    rng = random.Random(14)
    for _ in range(30):
        t = tight_close(random_oct_relation(rng, 2))
        assert oct_eq(tight_close(t), t)
        if not t.is_bottom:
            assert t.tight


def _rows(x):
    """A deep copy of the rows of a Dbm or an Octagon (None for bottom)."""
    m = x.dbm if isinstance(x, Octagon) else x
    return None if m is None else [list(r) for r in m.rows]


def test_operations_leave_their_operands_unchanged():
    # a Dbm keeps the row lists it is given, so no operation may write into
    # an operand or into a matrix another value shares rows with: every
    # value made here, operand or result, still has the rows it had
    from octoterm.dbm import (
        closed_glued_rows,
        compose_closed,
        dbm_add_rate,
        dbm_compose,
        dbm_eq,
        dbm_leq,
        dbm_min,
        dbm_project,
        fw_close,
    )
    from octoterm.octagon import (
        halving_consistent,
        lift_set_to_relation,
        oct_meet_raw,
        tighten,
    )

    made = []

    def keep(*xs):
        made.extend((x, _rows(x)) for x in xs if x is not None)
        return xs[0] if len(xs) == 1 else xs

    rng = random.Random(59)
    # x0' + x1' == 1, then x0 == x1: the glued closure fails only by halving
    halving = (oct_encode([(1, 2, 1, 3, 1), (-1, 2, -1, 3, -1)], 4),
               oct_encode([(1, 0, -1, 1, 0), (-1, 0, 1, 1, 0)], 4), 2)
    # x' >= 1, then x <= 0: an empty composition of non-empty operands
    disjoint = (oct_encode([(-1, 1, -1, 1, -1)], 2), oct_encode([(1, 0, 1, 0, 0)], 2), 1)
    empty = (oct_encode([(-1, 0, -1, 0, -1), (1, 0, 1, 0, 0)], 2), tight_example_relation(), 1)
    pairs = [halving, disjoint, empty]
    for t in range(120):
        N = 1 + t % 3
        pairs.append((random_oct_relation(rng, N), random_oct_relation(rng, N), N))
    kinds = set()
    for a, b, N in pairs:
        if a.num_vars != b.num_vars:
            continue
        keep(a, b)
        ta, tb = keep(tight_close(a), tight_close(b))
        comp = keep(oct_compose(a, b, N))
        keep(oct_compose(ta, tb, N), oct_meet_raw(a, b), oct_hull([a, b]))
        oct_leq(a, b), oct_eq(a, b), oct_decode(a)
        if ta.is_bottom or tb.is_bottom:
            kinds.add("empty operand")
            continue
        pre = keep(pre_image_set(ta, N))
        keep(lift_set_to_relation(pre, N, primed=True), oct_exists(ta, [0]))
        oct_rows(ta, [f"v{i}" for i in range(2 * N)])
        ca, cb = keep(fw_close(a.dbm), fw_close(b.dbm))
        keep(dbm_compose(a.dbm, b.dbm), compose_closed(ca, cb), dbm_min(ca, cb),
             dbm_add_rate(ca, cb, 3), dbm_project(ca, range(N)), tighten(ca))
        glued = closed_glued_rows(ca, cb)
        dbm_leq(ca, cb), dbm_eq(ca, cb), halving_consistent(ca)
        if glued is None:
            kinds.add("negative cycle")
        elif comp.is_bottom:
            kinds.add("halving")
        else:
            kinds.add("live")
    assert kinds == {"empty operand", "negative cycle", "halving", "live"}
    for x, rows in made:
        assert _rows(x) == rows


def _encoder_rows(rng: random.Random, names: list[str]):
    """Seeded rows for the encoder: mostly octagonal (one variable with
    coefficient +-1 or +-2, or two with +-1), some ``==``, some repeated
    with another constant, some constant and some with a third variable
    or a coefficient 3."""
    rows = []
    for _ in range(rng.randint(0, 6)):
        if rows and rng.random() < 0.2:
            t, rel = rng.choice(rows)
            rows.append((LinTerm(t.coeffs, t.const + rng.randint(-2, 2)), rel))
            continue
        shape = rng.random()
        if shape < 0.05:
            coeffs = {}
        elif shape < 0.1:
            coeffs = {v: rng.choice((1, -1, 3)) for v in rng.sample(names, min(3, len(names)))}
        elif shape < 0.45 or len(names) == 1:
            coeffs = {rng.choice(names): rng.choice((1, -1, 2, -2, 3))}
        else:
            coeffs = {v: rng.choice((1, -1)) for v in rng.sample(names, 2)}
        rows.append((LinTerm(coeffs, rng.randint(-3, 3)), rng.choice((LE, LE, EQ))))
    return rows


def test_encoder_matches_the_reference():
    """``rows_to_atoms`` and ``oct_encode`` against the atom-list reference:
    both reject a row, or both give the same raw octagon."""
    rng = random.Random(33)
    encoded = 0
    for _ in range(600):
        names = ["x", "y", "x'", "y'"][:rng.randint(1, 4)]
        index = {v: i for i, v in enumerate(names)}
        rows = _encoder_rows(rng, names)
        got = rows_to_atoms(rows, index)
        want = reference_rows_to_atoms(rows, index)
        assert (got is None) == (want is None), rows
        if got is None:
            continue
        encoded += 1
        assert oct_encode(got, len(names)) == reference_oct_encode(want, len(names)), rows
    assert encoded >= 300
    # raw atoms: unary ones with c < 0, and one atom repeated with another bound
    for _ in range(300):
        n = rng.randint(1, 3)
        atoms = []
        for _ in range(rng.randint(0, 5)):
            i, j = rng.randrange(n), rng.randrange(n)
            si = rng.choice((1, -1))
            sj = si if i == j else rng.choice((1, -1))
            atoms.append((si, i, sj, j, rng.randint(-4, 4)))
        if atoms:
            atoms.append(atoms[0][:4] + (atoms[0][4] - 1,))
        assert oct_encode(atoms, n) == reference_oct_encode(atoms, n), atoms


@pytest.mark.parametrize("atom, message", [
    ((1, 0, 1, 2, 0), "out of range"),
    ((1, -1, 1, 0, 0), "out of range"),
    ((2, 0, 1, 1, 0), "signs"),
    ((1, 0, 0, 1, 0), "signs"),
    ((1, 1, -1, 1, 0), "x_i - x_i"),
])
def test_encode_rejects_what_is_not_an_octagonal_atom(atom, message):
    with pytest.raises(ValueError, match=message):
        oct_encode([(1, 0, 1, 1, 0), atom], 2)
    with pytest.raises(ValueError, match=message):
        reference_oct_encode([(1, 0, 1, 1, 0), atom], 2)
