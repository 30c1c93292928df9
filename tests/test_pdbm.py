import itertools
import random
from dataclasses import dataclass

from octoterm import closure as closure_module
from octoterm import pdbm
from octoterm.dbm import INF, Dbm, fw_close
from octoterm.linarith import LE, LinTerm
from octoterm.pdbm import (
    MAX_ANTICHAIN,
    ExtParamDbm,
    eval_at,
    glue,
    min_terms,
    param_fw,
    param_tighten,
)
from octoterm.presburger import Conj
from octoterm.program import (
    LinRel,
    _compose_members,
    _compose_param_oct,
    _normalize_member,
    compose_members,
)


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
    # at most a few pairs per entry, so a cap of 1 stands in for a wide one
    from octoterm.octagon import oct_encode

    rel = oct_encode([(-1, 0, -1, 0, 0), (1, 1, -1, 0, -1), (-1, 1, 1, 0, 1)], 2)
    cache = closure_module._PowerCache(rel, 1)
    assert cache.ensure(5)
    rates = closure_module._scan_candidate(cache.plain, 1, 1)
    assert rates is not None
    # (accepted, death power): the relation never dies
    assert closure_module._verify_dbm_certificate(cache, 1, 1, rates) == (True, None)
    monkeypatch.setattr(pdbm, "MAX_ANTICHAIN", 1)
    assert closure_module._verify_dbm_certificate(cache, 1, 1, rates) == (False, None)


def test_capped_composition_falls_back_to_elimination():
    # x' - x <= i - i*_p0 for i = 0..69: one entry of 70 incomparable terms
    x, x1, p = LinTerm.var("x"), LinTerm.var("x'"), LinTerm.var("_p0")
    rows = [(x1 - x - i + i * p, LE) for i in range(MAX_ANTICHAIN + 6)]
    rows.append((x - x1, LE))
    a = LinRel(("x",), Conj.make(rows), ("_p0",))
    b = LinRel(("x",), Conj.make([(x1 - x, LE), (x - x1, LE)]))
    assert _compose_param_oct(a, b) is None
    want = _compose_members(a, b)
    assert want and compose_members(a, b) == tuple(
        n for m in want for n in _normalize_member(m))
