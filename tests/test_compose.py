"""Composition closes the glued matrix through its middle block only.

The reference here is the plain algorithm: close the whole glued 3-block
matrix with Floyd-Warshall, then tighten (octagons) and erase the middle
block.  ``dbm_compose`` and ``oct_compose`` must give exactly its matrices,
on raw and closed operands alike.
"""

import random

from octoterm.dbm import (
    INF,
    Dbm,
    closed_glued_rows,
    compose_closed,
    dbm_compose,
    dbm_project,
    fw_close,
)
from octoterm.octagon import (
    Octagon,
    bottom,
    halving_consistent,
    oct_compose,
    oct_encode,
    oct_eq,
    pre_image_set,
    tight_close,
    tighten,
)
from octoterm.term_oct import WntResult, fast_power, wnt

from helpers import compose_matrix, random_guarded_relation, random_oct_relation

BIG = (1 << 62) + 12345


def _keep(n):
    return list(range(n)) + list(range(2 * n, 3 * n))


def ref_dbm_compose(a: Dbm, b: Dbm):
    n = a.dim // 2
    glued = fw_close(compose_matrix(a, b, n))
    return None if glued is None else dbm_project(glued, _keep(n))


def ref_oct_compose(a: Octagon, b: Octagon, N: int) -> Octagon:
    if a.is_bottom or b.is_bottom:
        return bottom(2 * N)
    closed = fw_close(compose_matrix(a.dbm, b.dbm, 2 * N))
    if closed is None or not halving_consistent(closed):
        return bottom(2 * N)
    return Octagon(2 * N, dbm_project(tighten(closed), _keep(2 * N)), tight=True)


def ref_wnt(rel: Octagon, N: int) -> WntResult:
    """wnt with R^(n1+1) from a second binary exponentiation."""
    n1 = 5 ** (2 * N)
    v = fast_power(rel, n1, N)
    w = fast_power(rel, n1 + 1, N)
    if w.is_bottom:
        return WntResult(bottom(N))
    pv = pre_image_set(v, N)
    pw = pre_image_set(w, N)
    if not oct_eq(pv, pw):
        return WntResult(bottom(N))
    return WntResult(pv)


def rows_of(x):
    if x is None:
        return None
    if isinstance(x, Octagon):
        return None if x.is_bottom else x.dbm.rows
    return x.rows


def rand_dbm(rng, dim, density=0.4, lo=-3, hi=5, scale=1, offset=0):
    rows = [[INF] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = 0
        for j in range(dim):
            if i != j and rng.random() < density:
                rows[i][j] = rng.randint(lo, hi) * scale + offset
    return Dbm(rows)


def scaled(o: Octagon, factor: int, shift: int) -> Octagon:
    """A raw octagon with every finite off-diagonal bound v -> v*factor + shift."""
    rows = [
        [v if p == q or v == INF else v * factor + shift for q, v in enumerate(r)]
        for p, r in enumerate(o.dbm.rows)
    ]
    return Octagon(o.num_vars, Dbm(rows), tight=False)


def test_dbm_compose_matches_full_closure():
    rng = random.Random(21)
    misses = 0
    for trial in range(600):
        n = rng.randint(1, 3)
        big = trial % 3 == 0
        kw = {"scale": BIG, "offset": 7} if big else {}
        a = rand_dbm(rng, 2 * n, **kw)
        b = rand_dbm(rng, 2 * n, **kw)
        want = ref_dbm_compose(a, b)
        assert rows_of(dbm_compose(a, b)) == rows_of(want)
        ca, cb = fw_close(a), fw_close(b)
        if ca is None or cb is None:
            assert want is None
            continue
        assert rows_of(compose_closed(ca, cb)) == rows_of(want)
        # the middle block alone is not enough on raw operands
        if rows_of(compose_closed(a, b)) != rows_of(want):
            misses += 1
    assert misses > 0, "raw operands never exercised the closing of operands"


def test_close_glued_is_the_full_closure():
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(1, 3)
        a = fw_close(rand_dbm(rng, 2 * n))
        b = fw_close(rand_dbm(rng, 2 * n))
        if a is None or b is None:
            continue
        full = fw_close(compose_matrix(a, b, n))
        assert closed_glued_rows(a, b) == rows_of(full)


def test_oct_compose_matches_full_closure():
    rng = random.Random(23)
    misses = 0
    for trial in range(400):
        N = 1 + trial % 3
        gen = random_guarded_relation if trial % 2 else random_oct_relation
        raw_a, raw_b = gen(rng, N), gen(rng, N)
        if trial % 5 == 0:
            raw_a = scaled(raw_a, BIG, 3)
            raw_b = scaled(raw_b, BIG, -5)
        for a, b in (
            (raw_a, raw_b),
            (tight_close(raw_a), tight_close(raw_b)),
            (raw_a, tight_close(raw_b)),
            (tight_close(raw_a), raw_b),
        ):
            want = ref_oct_compose(a, b, N)
            got = oct_compose(a, b, N)
            assert got.is_bottom == want.is_bottom
            assert rows_of(got) == rows_of(want)
        if raw_a.is_bottom or raw_b.is_bottom:
            continue
        middle_only = closed_glued_rows(raw_a.dbm, raw_b.dbm)
        full = fw_close(compose_matrix(raw_a.dbm, raw_b.dbm, 2 * N))
        if middle_only != rows_of(full):
            misses += 1
    assert misses > 0, "raw operands never exercised the closing of operands"


def test_oct_compose_inconsistent_pairs():
    # x >= 1 && x <= 0 (empty), composed either way with the identity
    empty = oct_encode([(-1, 0, -1, 0, -1), (1, 0, 1, 0, 0)], 2)
    ident = oct_encode([(1, 0, -1, 1, 0), (-1, 0, 1, 1, 0)], 2)
    assert tight_close(empty).is_bottom
    assert oct_compose(empty, ident, 1).is_bottom
    assert oct_compose(ident, empty, 1).is_bottom
    # consistent operands, empty composition: x' >= 1, then x <= 0
    up = oct_encode([(-1, 1, -1, 1, -1)], 2)
    down = oct_encode([(1, 0, 1, 0, 0)], 2)
    assert ref_oct_compose(up, down, 1).is_bottom
    assert oct_compose(up, down, 1).is_bottom
    # rationally consistent, integer-empty only in the middle block:
    # x0' + x1' == 1, then x0 == x1, so 2*x0 == 1
    a = oct_encode([(1, 2, 1, 3, 1), (-1, 2, -1, 3, -1)], 4)
    b = oct_encode([(1, 0, -1, 1, 0), (-1, 0, 1, 1, 0)], 4)
    assert fw_close(compose_matrix(tight_close(a).dbm, tight_close(b).dbm, 4)) is not None
    assert ref_oct_compose(tight_close(a), tight_close(b), 2).is_bottom
    assert oct_compose(a, b, 2).is_bottom
    rng = random.Random(24)
    seen = 0
    for _ in range(300):
        N = rng.randint(1, 2)
        a, b = random_oct_relation(rng, N), random_oct_relation(rng, N)
        want = ref_oct_compose(a, b, N)
        if want.is_bottom:
            seen += 1
            assert oct_compose(a, b, N).is_bottom
    assert seen > 20


def _same_wnt(r: Octagon, N: int) -> None:
    # the same set, down to its repr
    got, want = wnt(r, N), ref_wnt(r, N)
    assert got == want and repr(got) == repr(want)


def _dying(bound: int, N: int) -> Octagon:
    """0 <= x0 <= bound, x0' = x0 - 1, the other variables kept: R^k is
    live up to k = bound + 1, and pre^k is bound - k + 2 values of x0."""
    atoms = [(-1, 0, -1, 0, 0), (1, 0, 1, 0, 2 * bound),
             (1, N, -1, 0, -1), (-1, N, 1, 0, 1)]
    for i in range(1, N):
        atoms += [(1, N + i, -1, i, 0), (-1, N + i, 1, i, 0)]
    return oct_encode(atoms, 2 * N)


def _ring(rng: random.Random, c: int) -> Octagon:
    """A ring of c variables bounded by t (N = c + 1), as in the benchmark's
    periodic family: its powers have prefix and period c."""
    n = c + 1
    neg = rng.randrange(c)
    atoms = [(1, (i + 1) % c, -1, n + i,
              -rng.randint(1, 3) if i == neg else rng.randint(0, 1)) for i in range(c)]
    atoms += [(1, 2 * n - 1, -1, c, 0), (1, n + c - 1, -1, c, 0)]
    return oct_encode(atoms, 2 * n)


def _rotation(rng: random.Random, N: int) -> Octagon:
    """x_i' = +-x_(i+1 mod N) under random guards on x: a signed rotation
    of period at most 2N, so pre^k settles late but within 2N steps."""
    atoms = []
    for i in range(N):
        s = rng.choice((1, -1))
        atoms += [(1, N + i, -s, (i + 1) % N, 0), (-1, N + i, s, (i + 1) % N, 0)]
    for _ in range(rng.randint(1, N + 1)):
        i, j = rng.randrange(N), rng.randrange(N)
        si, sj = rng.choice((1, -1)), rng.choice((1, -1))
        if i == j and si != sj:
            sj = si
        atoms.append((si, i, sj, j, rng.randint(-2, 4)))
    return oct_encode(atoms, 2 * N)


def test_wnt_matches_second_exponentiation():
    # wnt returns at the first two squares with equal pre-images; the
    # reference runs both probe powers 5^(2N) and 5^(2N) + 1 in full
    rng = random.Random(25)
    for trial in range(60):
        N = 1 + trial % 3
        gen = random_guarded_relation if trial % 2 else random_oct_relation
        _same_wnt(gen(rng, N), N)
    for N in (1, 2, 3):
        _same_wnt(bottom(2 * N), N)
        _same_wnt(oct_encode([(1, 0, 1, 0, 1), (-1, 0, -1, 0, -1)], 2 * N), N)  # x0 == 1/2
    for c in (1, 2):
        for _ in range(6):
            _same_wnt(_ring(rng, c), c + 1)
    for trial in range(30):
        N = 1 + trial % 3
        _same_wnt(_rotation(rng, N), N)
    # thirty guarded relations over two variables
    rng = random.Random(33)
    for _ in range(30):
        _same_wnt(random_guarded_relation(rng, 2), 2)
    # deaths between pre^4 and pre^(n1+1), n1 = 25 at N = 1: on both sides
    # of every square and of n1 itself
    for N in (1, 2):
        for bound in range(30):
            _same_wnt(_dying(bound, N), N)
    # past the squares of n1 = 625 at N = 2: R^512 live, R^(n1+1) empty
    for bound in (600, 623, 624, 625):
        _same_wnt(_dying(bound, 2), 2)
