import itertools
import random
from operator import add
from dataclasses import dataclass

from octoterm import closure as closure_module
from octoterm import pdbm
from octoterm.dbm import INF, Dbm, fw_close
from octoterm.pdbm import MAX_ANTICHAIN, ExtParamDbm, min_terms, param_fw

from helpers import eval_at, glue, param_tighten, reference_verify_dbm_certificate


def affine_matrix(base_rows, rate_rows):
    base = Dbm(base_rows)
    rate = Dbm([
        [r if base_rows[i][j] != INF else INF for j, r in enumerate(row)]
        for i, row in enumerate(rate_rows)
    ])
    return ExtParamDbm.affine(base, [rate])


def value(t, valuation):
    """The value of the term ``(const, *rates)`` at a valuation."""
    return t[0] + sum(r * v for r, v in zip(t[1:], valuation))


def test_min_terms_examples():
    ts = [(1, 2), (2, 1), (3, 2)]
    assert min_terms(ts) == ((1, 2), (2, 1))
    single = ((5, 0),)
    assert min_terms(single) == single


def test_min_terms_idempotent_and_pointwise():
    rng = random.Random(3)
    for _ in range(100):
        ts = [(rng.randint(-3, 3), rng.randint(-3, 3))
              for _ in range(rng.randint(1, 6))]
        mt = min_terms(ts)
        assert min_terms(mt) == mt
        for n in range(0, 21):
            assert min(value(t, (n,)) for t in ts) == min(value(t, (n,)) for t in mt)


def test_param_fw_constant_equals_fw():
    rng = random.Random(5)
    for _ in range(60):
        dim = rng.randint(2, 5)
        rows = [[INF] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                if i != j and rng.random() < 0.6:
                    rows[i][j] = rng.randint(-3, 3)
        m = Dbm(rows)
        pm = ExtParamDbm.from_dbm(m, 0)
        closed = param_fw(pm)
        want = fw_close(m)
        got = eval_at(closed, ())
        if want is None:
            assert any(got.rows[i][i] != INF and got.rows[i][i] < 0 for i in range(dim))
        else:
            assert got.rows == want.rows


def test_param_fw_eval_equivalence_500():
    rng = random.Random(3)
    for _ in range(500):
        dim = rng.randint(2, 5)
        rows = [[INF] * dim for _ in range(dim)]
        rates = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                if i != j and rng.random() < 0.6:
                    rows[i][j] = rng.randint(-3, 3)
                    if rng.random() < 0.7:
                        rates[i][j] = rng.randint(-3, 3)
        pm = affine_matrix(rows, rates)
        closed = param_fw(pm)
        for n in range(0, 21):
            inst = eval_at(pm, (n,))
            want = fw_close(inst)
            got = eval_at(closed, (n,))
            if want is None:
                assert any(
                    got.rows[i][i] != INF and got.rows[i][i] < 0 for i in range(dim)
                )
            else:
                assert got.rows == want.rows


def test_param_fw_zero_rates_embeds_fw():
    rng = random.Random(9)
    for _ in range(30):
        dim = 4
        rows = [[INF] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                if i != j and rng.random() < 0.7:
                    rows[i][j] = rng.randint(-3, 3)
        pm = affine_matrix(rows, [[0] * dim for _ in range(dim)])
        closed = param_fw(pm)
        want = fw_close(Dbm(rows))
        for n in (0, 1, 5):
            got = eval_at(closed, (n,))
            if want is None:
                assert any(got.rows[i][i] != INF and got.rows[i][i] < 0
                           for i in range(dim))
            else:
                assert got.rows == want.rows


def test_eval_at_examples():
    e = ExtParamDbm(2, 1, [
        [((0, 0),), ()],
        [((1, 1), (3, 0)), ((0, 0),)],
    ])
    d0 = eval_at(e, (0,))
    assert d0.rows[0][1] == INF
    assert d0.rows[1][0] == 1
    d5 = eval_at(e, (5,))
    assert d5.rows[1][0] == 3


# ---------------------------------------------------------------------------
# the int-tuple closure against the ParamTerm closure it replaced
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamTerm:
    """rates . params + const, with integer rates and constant."""

    rates: tuple[int, ...]
    const: int

    def __add__(self, other: "ParamTerm") -> "ParamTerm":
        return ParamTerm(
            tuple(a + b for a, b in zip(self.rates, other.rates)),
            self.const + other.const,
        )

    def dominates(self, other: "ParamTerm") -> bool:
        """self >= other pointwise on the nonneg orthant (so self is redundant)."""
        return self.const >= other.const and all(
            a >= b for a, b in zip(self.rates, other.rates)
        )


def const_term(c: int, nparams: int) -> ParamTerm:
    return ParamTerm((0,) * nparams, c)


def ref_min_terms(terms):
    """The antichain of minimal terms (duplicates removed)."""
    uniq = list(dict.fromkeys(terms))
    keep = [t for t in uniq if not any(s is not t and t.dominates(s) for s in uniq)]
    return tuple(sorted(keep, key=lambda t: (t.const, t.rates)))


def ref_prune(pairs):
    """Pareto frontier over (term domination, path length), all pairs
    against all pairs."""
    best_len = {}
    for t, d in pairs:
        if t not in best_len or d < best_len[t]:
            best_len[t] = d
    items = list(best_len.items())
    keep = []
    for t, d in items:
        dominated = False
        for s, ds in items:
            if s != t and t.dominates(s) and ds <= d:
                dominated = True
                break
        if not dominated:
            keep.append((t, d))
    keep.sort(key=lambda td: (td[0].const, td[0].rates, td[1]))
    return tuple(keep)


def ref_param_fw(entries, dim, nparams, capped=False, pivots=None):
    """The ParamTerm closure through ``pivots`` (default: all): (closed
    entries, capped).  Round r admits paths of at most r + 2 edges."""
    work = []
    for i in range(dim):
        row = []
        for j, terms in enumerate(entries[i]):
            pairs = tuple((t, 1) for t in terms)
            if i == j:
                pairs = pairs + ((const_term(0, nparams), 0),)
            row.append(ref_prune(pairs))
        work.append(row)
    for r, k in enumerate(range(dim) if pivots is None else pivots):
        for i in range(dim):
            wik = work[i][k]
            if not wik:
                continue
            for j in range(dim):
                wkj = work[k][j]
                if not wkj:
                    continue
                t1 = work[i][j]
                t2 = []
                for (a, da) in wik:
                    for (b, db) in wkj:
                        if da + db <= r + 2:
                            t2.append((a + b, da + db))
                merged = ref_prune(t1 + tuple(t2))
                if len(merged) > MAX_ANTICHAIN:
                    merged = merged[:MAX_ANTICHAIN]
                    capped = True
                work[i][j] = merged
    return [[tuple(t for t, _ in cell) for cell in row] for row in work], capped


def ref_tighten(entries, dim):
    """The ParamTerm tightening: one tightened matrix per parity case."""
    for p in range(dim):
        for t in entries[p][p ^ 1]:
            for pi, r in enumerate(t.rates):
                if r % 2 != 0:
                    cases = []
                    for residue in (0, 1):
                        sub = [
                            [
                                tuple(
                                    ParamTerm(
                                        tuple(
                                            rr * 2 if qi == pi else rr
                                            for qi, rr in enumerate(tt.rates)
                                        ),
                                        tt.const + tt.rates[pi] * residue,
                                    )
                                    for tt in cell
                                )
                                for cell in row
                            ]
                            for row in entries
                        ]
                        cases.extend(ref_tighten(sub, dim))
                    return cases
    halves = []
    for p in range(dim):
        halves.append([
            ParamTerm(tuple(r // 2 for r in t.rates), t.const // 2)
            for t in entries[p][p ^ 1]
        ])
    tightened = []
    for p in range(dim):
        row = []
        for q in range(dim):
            terms = list(entries[p][q])
            for h1 in halves[p]:
                for h2 in halves[q ^ 1]:
                    terms.append(h1 + h2)
            row.append(ref_min_terms(terms))
        tightened.append(row)
    return [tightened]


def to_ref(entries):
    return [[tuple(ParamTerm(t[1:], t[0]) for t in cell) for cell in row] for row in entries]


def from_ref(entries):
    return [[tuple((t.const, *t.rates) for t in cell) for cell in row] for row in entries]


def random_param_matrix(rng, dim, nparams):
    """Entries of one or two random terms at 40% density; the diagonal is
    left to param_fw unless a draw puts terms there.  Most draws are
    inconsistent at some valuations and consistent at others."""
    entries = []
    for _ in range(dim):
        row = []
        for _ in range(dim):
            terms = []
            if rng.random() < 0.4:
                for _ in range(rng.randint(1, 2)):
                    terms.append((rng.randint(-3, 4),)
                                 + tuple(rng.randint(-1, 1) for _ in range(nparams)))
            row.append(tuple(terms))
        entries.append(row)
    return ExtParamDbm(dim, nparams, entries)


def widen(rng, m, width):
    """m with ``width`` incomparable terms on (0, last): const c and first
    rate -c.  Node 0 gets no in-edges and the last node no out-edges, so
    the wide entry meets only the paths between them and the reference
    closure stays cheap."""
    last = m.dim - 1
    entries = [list(row) for row in m.entries]
    for i in range(m.dim):
        entries[i][0] = () if i else entries[0][0]
        entries[last][i] = () if i != last else entries[last][last]
    consts = rng.sample(range(-10, 90), width)
    entries[0][last] = tuple(
        (c, -c) + tuple(rng.randint(-1, 1) for _ in range(m.nparams - 1)) for c in consts)
    return ExtParamDbm(m.dim, m.nparams, entries)


def test_param_fw_matches_param_term_reference():
    rng = random.Random(41)
    seen = {"capped": 0, "consistent": 0, "inconsistent": 0}
    for trial in range(200):
        dim = rng.randint(2, 6)
        nparams = rng.randint(1, 3)
        m = random_param_matrix(rng, dim, nparams)
        if trial % 5 == 0:
            m = widen(rng, m, rng.randint(MAX_ANTICHAIN - 8, MAX_ANTICHAIN + 8))
        closed = param_fw(m)
        want, want_capped = ref_param_fw(to_ref(m.entries), dim, nparams)
        assert from_ref(want) == closed.entries
        assert closed.capped == want_capped
        seen["capped"] += closed.capped
        if closed.capped:
            continue
        for _ in range(6):
            v = tuple(rng.randint(0, 6) for _ in range(nparams))
            inst = fw_close(eval_at(m, v))
            if inst is None:
                seen["inconsistent"] += 1
                got = eval_at(closed, v)
                assert any(got.rows[i][i] != INF and got.rows[i][i] < 0 for i in range(dim))
            else:
                seen["consistent"] += 1
                assert eval_at(closed, v).rows == inst.rows
    assert all(n >= 10 for n in seen.values()), seen


def random_relation_matrix(rng, dim, nparams):
    """Off-diagonal entries of one or two random terms at 40% density,
    biased toward consistency."""
    return ExtParamDbm(dim, nparams, [
        [tuple((rng.randint(-2, 4),) + tuple(rng.randint(-1, 1) for _ in range(nparams))
               for _ in range(rng.randint(1, 2)))
         if i != j and rng.random() < 0.4 else ()
         for j in range(dim)]
        for i in range(dim)
    ])


def test_middle_pivots_close_glued_closed_operands():
    # closed operands glued and closed through the middle block against the
    # raw operands glued and closed through every pivot
    rng = random.Random(53)
    seen = {"consistent": 0, "inconsistent": 0, "middle": 0}
    for _ in range(300):
        blk = rng.randint(1, 2)  # relations over N <= 2 variables
        nparams = rng.randint(0, 2)
        raw = [random_relation_matrix(rng, 2 * blk, nparams) for _ in range(2)]
        closed = [param_fw(m) for m in raw]
        middle = range(blk, 2 * blk)
        mid = param_fw(glue(*closed), middle)
        full = param_fw(glue(*raw))
        if mid.capped or full.capped:
            continue
        ref, _ = ref_param_fw(to_ref(glue(*closed).entries), 3 * blk, nparams,
                              pivots=middle)
        assert from_ref(ref) == mid.entries
        for v in itertools.product(range(3), repeat=nparams):
            want = fw_close(eval_at(glue(*raw), v))
            got = eval_at(mid, v)
            if want is not None:
                seen["consistent"] += 1
                assert got.rows == want.rows == eval_at(full, v).rows
                continue
            seen["inconsistent"] += 1
            negative = [i for i in range(3 * blk) if got.rows[i][i] < 0]
            assert negative
            # both operands consistent: the negative cycle crosses between
            # them, so it passes through the middle block and shows there
            if all(fw_close(eval_at(m, v)) is not None for m in raw):
                seen["middle"] += 1
                assert any(blk <= i < 2 * blk for i in negative)
    assert all(n >= 20 for n in seen.values()), seen


def test_param_tighten_matches_param_term_reference():
    rng = random.Random(43)
    checked = cases = 0
    while checked < 100:
        dim = 2 * rng.randint(1, 3)
        nparams = rng.randint(1, 3)
        closed = param_fw(random_param_matrix(rng, dim, nparams))
        # keep the reference's quadratic pruning of the halved sums small
        if closed.capped or any(len(closed.entries[p][p ^ 1]) > 6 for p in range(dim)):
            continue
        got = param_tighten(closed.entries, dim)
        want = ref_tighten(to_ref(closed.entries), dim)
        assert [from_ref(w) for w in want] == got
        checked += 1
        cases += len(got)
    assert cases > 150  # odd rates were split by parity


def test_min_terms_matches_param_term_reference():
    rng = random.Random(47)
    for _ in range(300):
        nparams = rng.randint(0, 3)
        terms = [(rng.randint(-4, 4),) + tuple(rng.randint(-3, 3) for _ in range(nparams))
                 for _ in range(rng.randint(0, 12))]
        want = ref_min_terms([ParamTerm(t[1:], t[0]) for t in terms])
        assert min_terms(terms) == tuple((t.const, *t.rates) for t in want)


# ---------------------------------------------------------------------------
# the MAX_ANTICHAIN cap
# ---------------------------------------------------------------------------


def _wide_terms(n):
    """n terms ``i - i*k``: pairwise incomparable, so no pruning applies."""
    terms = [(i, -i) for i in range(n)]
    random.Random(n).shuffle(terms)
    return tuple(terms)


def test_param_fw_cap_keeps_least_pairs():
    terms = _wide_terms(MAX_ANTICHAIN + 6)
    m = ExtParamDbm(2, 1, [[(), terms], [(), ()]])
    closed = param_fw(m)
    assert closed.capped
    assert closed.entries[0][1] == tuple(sorted(terms))[:MAX_ANTICHAIN]
    want, want_capped = ref_param_fw(to_ref(m.entries), 2, 1)
    assert want_capped and from_ref(want) == closed.entries


def test_capped_closure_rejects_certificate(monkeypatch):
    # x >= 0 && x' == x - 1 has the certificate b = c = 1; its closure has
    # at most a few pairs per entry, so a cap of 1 stands in for a wide one.
    # The capped parametric replay cannot accept it; the plain replay has
    # no cap and accepts it at any MAX_ANTICHAIN.
    from octoterm.octagon import oct_encode

    rel = oct_encode([(-1, 0, -1, 0, 0), (1, 1, -1, 0, -1), (-1, 1, 1, 0, 1)], 2)
    cache = closure_module._PowerCache(rel, 1)
    assert cache.ensure(5)
    rates = closure_module._scan_candidate(cache, 1, 1)
    assert rates is not None
    # (accepted, death power): the relation never dies
    assert reference_verify_dbm_certificate(cache, 1, 1, rates) == (True, None)
    assert closure_module._verify_dbm_certificate(cache, 1, 1, rates) == (True, None)
    monkeypatch.setattr(pdbm, "MAX_ANTICHAIN", 1)
    assert reference_verify_dbm_certificate(cache, 1, 1, rates) is None
    assert closure_module._verify_dbm_certificate(cache, 1, 1, rates) == (True, None)


# ---------------------------------------------------------------------------
# the sparse kernels against the dense loops they replaced
# ---------------------------------------------------------------------------


def dense_param_fw(m, pivots=None):
    """The dense closure: every cell of every row in every round."""
    dim = m.dim
    capped = m.capped
    origin = (0,) * (m.nparams + 2)
    work = []
    for i, erow in enumerate(m.entries):
        row = []
        for j, terms in enumerate(erow):
            pairs = [t + (1,) for t in terms]
            if i == j:
                pairs.append(origin)
            row.append(min_terms(pairs))
        work.append(row)
    for cap, k in enumerate(range(dim) if pivots is None else pivots, 2):
        rowk = work[k]
        for i in range(dim):
            wik = work[i][k]
            if not wik:
                continue
            rowi = work[i]
            for j in range(dim):
                wkj = rowk[j]
                if not wkj:
                    continue
                cell = rowi[j]
                new = [tuple(map(add, a, b)) for a in wik for b in wkj
                       if a[-1] + b[-1] <= cap]
                if new:
                    cell = min_terms(cell + tuple(new))
                if len(cell) > MAX_ANTICHAIN:
                    cell = cell[:MAX_ANTICHAIN]
                    capped = True
                rowi[j] = cell
    entries = [[tuple(p[:-1] for p in cell) for cell in row] for row in work]
    return ExtParamDbm(dim, m.nparams, entries, capped)


def dense_param_tighten(entries, dim):
    """The dense tightening: min_terms on every cell of every case."""
    for p in range(dim):
        for t in entries[p][p ^ 1]:
            for pi in range(1, len(t)):
                if t[pi] % 2 != 0:
                    cases = []
                    for r in (0, 1):
                        sub = [[tuple((u[0] + u[pi] * r, *u[1:pi], 2 * u[pi], *u[pi + 1:])
                                      for u in cell) for cell in row] for row in entries]
                        cases.extend(dense_param_tighten(sub, dim))
                    return cases
    halves = [[tuple(x // 2 for x in t) for t in entries[p][p ^ 1]] for p in range(dim)]
    tightened = []
    for p in range(dim):
        row = []
        for q in range(dim):
            terms = list(entries[p][q])
            for h1 in halves[p]:
                for h2 in halves[q ^ 1]:
                    terms.append(tuple(map(add, h1, h2)))
            row.append(min_terms(terms))
        tightened.append(row)
    return [tightened]


def dense_glue(a, b):
    """The dense glue: every cell of the 3-block matrix set one by one."""
    blk = a.dim // 2
    ea, eb = a.entries, b.entries
    dim3 = 3 * blk
    glued = [[() for _ in range(dim3)] for _ in range(dim3)]
    for i in range(blk):
        for j in range(blk):
            glued[i][j] = ea[i][j]
            glued[i][blk + j] = ea[i][blk + j]
            glued[blk + i][j] = ea[blk + i][j]
            glued[blk + i][blk + j] = min_terms(ea[blk + i][blk + j] + eb[i][j])
            glued[blk + i][2 * blk + j] = eb[i][blk + j]
            glued[2 * blk + i][blk + j] = eb[blk + i][j]
            glued[2 * blk + i][2 * blk + j] = eb[blk + i][blk + j]
    return ExtParamDbm(dim3, a.nparams, glued)


def random_sparse_cell(rng, nparams, i, j):
    """Empty (half the draws), one term, or up to four terms in no order,
    with duplicates and dominated terms among them; a diagonal cell draws
    from lower constants, so some pivots carry cycles of their own."""
    roll = rng.random()
    if roll < 0.5:
        return ()
    low = -3 if i == j else -2
    n = 1 if roll < 0.8 else rng.randint(2, 4)
    terms = [(rng.randint(low, 5),) + tuple(rng.randint(-1, 1) for _ in range(nparams))
             for _ in range(n)]
    if n > 1 and rng.random() < 0.3:
        terms.append(terms[0])
    return tuple(terms)


def random_sparse_matrix(rng, dim, nparams, wide_share=0.25):
    """Sparse cells, and in a ``wide_share`` of the draws a cell (i, j)
    wider than ``MAX_ANTICHAIN``; the wide cell is returned too, or None."""
    entries = [[random_sparse_cell(rng, nparams, i, j) for j in range(dim)]
               for i in range(dim)]
    wide = None
    if rng.random() < wide_share:
        wide = rng.randrange(dim), rng.randrange(dim)
        consts = rng.sample(range(-10, 90), MAX_ANTICHAIN + rng.randint(-4, 8))
        entries[wide[0]][wide[1]] = tuple(
            (c, -c) + tuple(rng.randint(0, 1) for _ in range(nparams - 1)) for c in consts)
    return ExtParamDbm(dim, nparams, entries), wide


def test_sparse_param_fw_matches_the_dense_loops():
    """Equal entries and ``capped`` on sparse matrices, with cycles on
    pivots, pivot subsets, and wide cells that the cap cuts on a visit or,
    when no pivot reaches them, leaves as they came."""
    rng = random.Random(61)
    seen = {"capped": 0, "wide_left": 0, "cycle_pivot": 0, "subset": 0}
    for _ in range(250):
        dim = rng.randint(1, 6)
        m, wide = random_sparse_matrix(rng, dim, rng.randint(1, 2), 0.15)
        pivots = None
        if wide is not None and rng.random() < 0.6:
            # no pivot, or one pivot, at an end of the wide cell
            pivots = [k for k in range(dim) if k not in wide] + rng.choice(([], [wide[0]]))
        elif rng.random() < 0.4:
            pivots = rng.sample(range(dim), rng.randint(1, dim))
        seen["subset"] += pivots is not None
        got, want = param_fw(m, pivots), dense_param_fw(m, pivots)
        assert got.entries == want.entries
        assert got.capped == want.capped
        seen["capped"] += got.capped
        seen["wide_left"] += wide is not None and len(got.entries[wide[0]][wide[1]]) > MAX_ANTICHAIN
        seen["cycle_pivot"] += any(len(m.entries[k][k]) for k in range(dim))
    assert all(n >= 5 for n in seen.values()), seen


def test_pivot_row_relisted_after_its_own_round():
    # pivot 0 carries the loop 0 -> 0 of weight -1 + k: in its round, the
    # second (cap: paths of 3 edges), row 0 gains the pair 0 -> 0 -> 1, and
    # row 2, later in the same round, must extend 2 -> 0 by that pair
    m = ExtParamDbm(3, 1, [
        [((-1, 1),), ((0, 0),), ()],
        [(), (), ()],
        [((0, 0),), (), ()],
    ])
    got = param_fw(m, [1, 0])
    assert got.entries == dense_param_fw(m, [1, 0]).entries
    assert got.entries[0][1] == ((-1, 1), (0, 0))
    assert got.entries[2][1] == ((-1, 1), (0, 0))


def test_sparse_param_tighten_matches_the_dense_loops():
    rng = random.Random(67)
    checked = split = 0
    while checked < 100:
        dim = 2 * rng.randint(1, 3)
        closed = param_fw(random_sparse_matrix(rng, dim, rng.randint(1, 2), 0)[0])
        if closed.capped or any(len(closed.entries[p][p ^ 1]) > 4 for p in range(dim)):
            continue
        want = dense_param_tighten(closed.entries, dim)
        assert param_tighten(closed.entries, dim) == want
        # keep whole variables (p with p ^ 1), and read the diagonal too
        keep = sorted(p for v in rng.sample(range(dim // 2), rng.randint(1, dim // 2))
                      for p in (2 * v, 2 * v + 1))
        for got_case, want_case in zip(param_tighten(closed.entries, dim, keep), want):
            for p in range(dim):
                for q in range(dim):
                    if p == q or (p in keep and q in keep):
                        assert got_case[p][q] == want_case[p][q]
                    else:
                        assert got_case[p][q] is None
        checked += 1
        split += len(want) > 1
    assert split >= 15


def test_sparse_glue_matches_the_dense_loops():
    rng = random.Random(71)
    for _ in range(200):
        blk = 2 * rng.randint(1, 3)
        nparams = rng.randint(1, 2)
        a, b = (random_sparse_matrix(rng, blk * 2, nparams, 0.1)[0] for _ in range(2))
        assert glue(a, b).entries == dense_glue(a, b).entries
