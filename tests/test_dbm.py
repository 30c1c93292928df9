import random

import pytest

from octoterm.dbm import (
    INF,
    Dbm,
    dbm_add_rate,
    dbm_compose,
    dbm_eq,
    dbm_leq,
    dbm_min,
    dbm_project,
    fw_close,
)


def dbm_of(dim, entries):
    rows = [[INF] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = 0
    for (i, j), v in entries.items():
        rows[i][j] = v
    return Dbm(rows)


def brute_shortest(rows, dim, max_len):
    """All-pairs min path weight by explicit path enumeration."""
    best = [[0 if i == j else INF for j in range(dim)] for i in range(dim)]
    frontier = {(i, i): 0 for i in range(dim)}
    cur = [[0 if i == j else INF for j in range(dim)] for i in range(dim)]
    for _ in range(max_len):
        nxt = [[INF] * dim for _ in range(dim)]
        for i in range(dim):
            for k in range(dim):
                if cur[i][k] == INF:
                    continue
                for j in range(dim):
                    w = rows[k][j]
                    if w == INF:
                        continue
                    cand = cur[i][k] + w
                    if cand < nxt[i][j]:
                        nxt[i][j] = cand
        for i in range(dim):
            for j in range(dim):
                if nxt[i][j] < best[i][j]:
                    best[i][j] = nxt[i][j]
        cur = nxt
    return best


def test_fw_close_golden_matrix():
    # closed matrix of x2-x1'<=-1, x3-x2'<=0, x1-x3'<=0, x4'-x4<=0, x3'-x4<=0
    m = dbm_of(8, {(1, 4): -1, (2, 5): 0, (0, 6): 0, (7, 3): 0, (6, 3): 0})
    closed = fw_close(m)
    golden = dbm_of(8, {(1, 4): -1, (2, 5): 0, (0, 6): 0, (7, 3): 0, (6, 3): 0, (0, 3): 0})
    assert closed.rows == golden.rows


def test_fw_close_unconstrained():
    m = Dbm.unconstrained(5)
    closed = fw_close(m)
    assert closed.rows == m.rows


def test_fw_close_random_vs_path_enumeration():
    rng = random.Random(11)
    for _ in range(120):
        dim = 5
        rows = [[INF] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                if i != j and rng.random() < 0.5:
                    rows[i][j] = rng.randint(-4, 4)
        m = Dbm(rows)
        closed = fw_close(m)
        brute = brute_shortest(rows, dim, dim)
        neg = any(brute[i][i] != INF and brute[i][i] < 0 for i in range(dim))
        if closed is None:
            assert neg
        else:
            assert not neg
            assert closed.rows == brute

def test_consistency_examples():
    assert fw_close(dbm_of(2, {(0, 1): -1, (1, 0): 0})) is None
    assert fw_close(dbm_of(2, {(0, 1): 5, (1, 0): -5})) is not None  # x - y = 5
    assert fw_close(Dbm.unconstrained(3)) is not None


def test_leq_eq():
    a = fw_close(dbm_of(2, {(0, 1): 1}))
    b = fw_close(dbm_of(2, {(0, 1): 2}))
    assert dbm_leq(a, b) and not dbm_leq(b, a)
    assert not dbm_eq(a, b)
    assert dbm_eq(a, a)


def _points(rows, dim, lo, hi):
    import itertools

    out = []
    for pt in itertools.product(range(lo, hi + 1), repeat=dim):
        ok = True
        for i in range(dim):
            for j in range(dim):
                if rows[i][j] != INF and pt[i] - pt[j] > rows[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(pt)
    return set(out)


def test_leq_matches_point_inclusion():
    rng = random.Random(5)
    for _ in range(60):
        dim = 2
        def rand_dbm():
            rows = [[INF] * dim for _ in range(dim)]
            for i in range(dim):
                rows[i][i] = 0
                for j in range(dim):
                    if i != j and rng.random() < 0.8:
                        rows[i][j] = rng.randint(-4, 4)
            return Dbm(rows)
        a, b = fw_close(rand_dbm()), fw_close(rand_dbm())
        if a is None or b is None:
            continue
        pa = _points(a.rows, dim, -6, 6)
        pb = _points(b.rows, dim, -6, 6)
        assert dbm_leq(a, b) == (pa <= pb)


def test_project_transitivity():
    m = fw_close(dbm_of(3, {(0, 2): 1, (2, 1): 2}))
    proj = dbm_project(m, [0, 1])
    assert proj.rows[0][1] == 3
    full = dbm_project(m, [0, 1, 2])
    assert full.rows == m.rows


def test_project_random_vs_point_sets():
    rng = random.Random(13)
    for _ in range(40):
        dim = 4
        rows = [[INF] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = 0
            for j in range(dim):
                if i != j and rng.random() < 0.5:
                    rows[i][j] = rng.randint(-3, 3)
        closed = fw_close(Dbm(rows))
        if closed is None:
            continue
        keep = [0, 2]
        proj = dbm_project(closed, keep)
        # witnesses for the dropped variables may need more room than the
        # box of the kept ones: enumerate on a wider box and restrict
        pts_full = _points(closed.rows, dim, -9, 9)
        pts_proj = {
            (p[0], p[2])
            for p in pts_full
            if -5 <= p[0] <= 5 and -5 <= p[2] <= 5
        }
        got = _points(proj.rows, 2, -5, 5)
        assert pts_proj == got


def test_compose_identity_and_decrement():
    ident = fw_close(dbm_of(2, {(0, 1): 0, (1, 0): 0}))
    dec = fw_close(dbm_of(2, {(0, 1): 1, (1, 0): -1}))  # x - x' = 1
    assert dbm_eq(dbm_compose(dec, ident), dec)
    assert dbm_eq(dbm_compose(ident, dec), dec)
    two = dbm_compose(dec, dec)
    assert two.rows[0][1] == 2 and two.rows[1][0] == -2


def test_compose_random_vs_relational_join():
    rng = random.Random(3)
    for _ in range(50):
        def rand_rel():
            rows = [[INF] * 4 for _ in range(4)]
            for i in range(4):
                rows[i][i] = 0
                for j in range(4):
                    if i != j and rng.random() < 0.5:
                        rows[i][j] = rng.randint(-3, 3)
            return Dbm(rows)

        a, b = rand_rel(), rand_rel()
        comp = dbm_compose(a, b)

        def rel_points(m):
            return _points(m.rows, 4, -6, 6) if m is not None else set()

        pa = _points(a.rows, 4, -6, 6)
        pb = _points(b.rows, 4, -6, 6)
        join = set()
        mids = {}
        for (x, y, u, v) in pa:
            mids.setdefault((u, v), []).append((x, y))
        for (u, v, x2, y2) in pb:
            for (x, y) in mids.get((u, v), []):
                join.add((x, y, x2, y2))
        got = rel_points(comp)
        # box join only proves membership of box-composable pairs
        assert join <= got
        if comp is not None and not join:
            # empty join can still be consistent outside the box; skip
            continue


def test_min_and_add_rate():
    a = fw_close(dbm_of(2, {(0, 1): 3}))
    assert dbm_min(a, a).rows == a.rows
    zero = Dbm([[0, 0], [0, 0]])
    assert dbm_add_rate(a, Dbm([[0, 0], [0, 0]]), 7).rows == a.rows
    lam = Dbm([[0, -1], [INF, 0]])
    out = dbm_add_rate(a, lam, 2)
    assert out.rows[0][1] == 1
    assert out.rows[1][0] == INF  # INF absorbs


def test_close_idempotent():
    rng = random.Random(7)
    for _ in range(40):
        dim = 4
        rows = [[INF] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = 0
            for j in range(dim):
                if i != j and rng.random() < 0.6:
                    rows[i][j] = rng.randint(-4, 4)
        c = fw_close(Dbm(rows))
        if c is not None:
            assert fw_close(c).rows == c.rows


def test_entry_growth_bound():
    rng = random.Random(9)
    for _ in range(30):
        dim = 5
        rows = [[INF] * dim for _ in range(dim)]
        mu = 0
        for i in range(dim):
            rows[i][i] = 0
            for j in range(dim):
                if i != j and rng.random() < 0.7:
                    rows[i][j] = rng.randint(-4, 4)
                    mu = max(mu, abs(rows[i][j]))
        c = fw_close(Dbm(rows))
        if c is None:
            continue
        assert max(abs(v) for r in c.rows for v in r if v != INF) <= (1 << dim) * max(mu, 1)
