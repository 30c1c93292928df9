"""Cross-module invariants that tie the symbolic layers together."""

import random

from hypothesis import given, settings, strategies as st

from octoterm.dbm import INF, Dbm, dbm_compose, dbm_eq, fw_close
from octoterm.octagon import (
    bottom,
    oct_compose,
    oct_decode,
    oct_encode,
    oct_eq,
    tight_close,
)
from octoterm.pdbm import min_terms

from helpers import random_oct_relation


def test_octagonal_consistency_implies_dbm_consistency():
    # consistent powers keep their plain dual encoding consistent
    rng = random.Random(19)
    for _ in range(40):
        r = random_oct_relation(rng, 2, max_coef=3)
        t = tight_close(r)
        if t.is_bottom:
            continue
        plain = t.dbm
        power_oct = t
        power_dbm = plain
        for n in range(2, 9):
            power_oct = oct_compose(power_oct, r, 2)
            nxt = dbm_compose(power_dbm, plain)
            if not power_oct.is_bottom:
                assert nxt is not None, f"n={n}"
            if nxt is None:
                break
            power_dbm = nxt


def test_iterated_composition_equals_unrolled_conjunction():
    # the n-th tight power equals the tight closure of the n-fold
    # conjunction over chained copies, projected to the end points
    rng = random.Random(23)
    from octoterm.octagon import oct_exists

    for _ in range(12):
        n_vars = rng.choice((1, 2))
        r = random_oct_relation(rng, n_vars, max_coef=2)
        base_atoms = oct_decode(r) if not r.is_bottom else None
        if base_atoms is None:
            continue
        for n in range(2, 7):
            power = tight_close(r)
            for _ in range(n - 1):
                power = oct_compose(power, r, n_vars)
            # chained conjunction over (n+1) copies of the variables
            total = (n + 1) * n_vars
            atoms = []
            for step in range(n):
                for si, i, sj, j, c in base_atoms:
                    def shift(idx):
                        blk, off = divmod(idx, n_vars)
                        return (step + blk) * n_vars + off
                    atoms.append((si, shift(i), sj, shift(j), c))
            chained = tight_close(oct_encode(atoms, total))
            mid = [v for v in range(total) if n_vars <= v < n * n_vars]
            projected = (
                bottom(2 * n_vars)
                if chained.is_bottom
                else oct_exists(chained, mid)
            )
            assert oct_eq(projected, power), f"n={n}"


def test_composition_associativity():
    rng = random.Random(29)
    for _ in range(30):
        a = tight_close(random_oct_relation(rng, 1, max_coef=3))
        b = tight_close(random_oct_relation(rng, 1, max_coef=3))
        c = tight_close(random_oct_relation(rng, 1, max_coef=3))
        left = oct_compose(oct_compose(a, b, 1), c, 1)
        right = oct_compose(a, oct_compose(b, c, 1), 1)
        assert oct_eq(left, right)


def test_closure_uniqueness_for_equivalent_syntaxes():
    # x - y = 5 written two ways closes to the same matrix
    a = fw_close(Dbm([[0, 5], [-5, 0]]))
    rows = [[0, 5], [-5, 0]]
    b = fw_close(Dbm(rows))
    assert dbm_eq(a, b)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        min_size=1,
        max_size=8,
    )
)
def test_min_terms_pointwise_and_size_bound(pairs):
    terms = [(b, a) for a, b in pairs]  # (const, rate)
    mt = min_terms(terms)
    assert min_terms(mt) == mt
    for n in range(0, 21):
        assert min(c + r * n for c, r in terms) == min(c + r * n for c, r in mt)
    rates = [r for _, r in terms]
    consts = [c for c, _ in terms]
    spread = min(max(rates) - min(rates), max(consts) - min(consts))
    assert len(mt) <= spread + 1


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-4, 4)),
        min_size=0,
        max_size=12,
    )
)
def test_fw_close_idempotent_hypothesis(edges):
    dim = 5
    rows = [[INF] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = 0
    for i, j, w in edges:
        if i != j:
            rows[i][j] = min(rows[i][j], w) if rows[i][j] != INF else w
    closed = fw_close(Dbm(rows))
    if closed is not None:
        assert fw_close(closed).rows == closed.rows


def test_program_lasso_start_example():
    from octoterm.oracle import BoxDomain, program_live_starts
    from octoterm.program import parse_program

    from helpers import BRANCHING_PROGRAM

    p = parse_program(BRANCHING_PROGRAM)
    starts = program_live_starts(p, BoxDomain.cube(2, -5, 5))
    # from x=1, y=0 the loop can take the non-positive branch forever
    assert (1, 0) in starts
