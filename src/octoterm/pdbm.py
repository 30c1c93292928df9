"""Parametric DBMs: entries are sets of affine terms over nonneg parameters.

An entry ``{a1*k+b1, a2*k+b2, ...}`` bounds a difference by the pointwise
minimum of its terms; the empty set is "no bound".  The closure keeps, per
entry, the antichain of term/path-length pairs for paths of length at most
dim+1, which is enough to agree with the plain Floyd-Warshall closure at
every parameter valuation where the instantiated matrix is consistent; at
inconsistent valuations some diagonal entry evaluates negative.

The partial order on terms compares rate vectors and constants
componentwise; ``min_terms`` prunes dominated terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .dbm import INF, Dbm
from .linarith import LinTerm
from .presburger import Conj, Dnf, eliminate_all

MAX_ANTICHAIN = 64


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

    def eval(self, valuation: Sequence[int]) -> int:
        return self.const + sum(r * v for r, v in zip(self.rates, valuation))

    def __repr__(self):
        bits = [f"{r}*k{i}" for i, r in enumerate(self.rates) if r]
        bits.append(str(self.const))
        return "+".join(bits)


def const_term(c: int, nparams: int) -> ParamTerm:
    return ParamTerm((0,) * nparams, c)


def min_terms(terms: Iterable[ParamTerm]) -> tuple[ParamTerm, ...]:
    """The antichain of minimal terms (duplicates removed).

    A term is redundant when some other term is <= it in every component;
    after deduplication mutual domination is impossible.
    """
    uniq = list(dict.fromkeys(terms))
    keep = [t for t in uniq if not any(s is not t and t.dominates(s) for s in uniq)]
    return tuple(sorted(keep, key=lambda t: (t.const, t.rates)))


class ExtParamDbm:
    """dim x dim matrix of term tuples; () means unbounded."""

    __slots__ = ("dim", "nparams", "entries", "capped")

    def __init__(self, dim: int, nparams: int, entries=None, capped: bool = False):
        self.dim = dim
        self.nparams = nparams
        if entries is None:
            entries = [
                [(() if i != j else (const_term(0, nparams),)) for j in range(dim)]
                for i in range(dim)
            ]
        self.entries = entries
        self.capped = capped

    @classmethod
    def from_dbm(cls, m: Dbm, nparams: int = 0) -> "ExtParamDbm":
        e = [
            [
                (() if m.rows[i][j] == INF else (const_term(m.rows[i][j], nparams),))
                for j in range(m.dim)
            ]
            for i in range(m.dim)
        ]
        return cls(m.dim, nparams, e)

    @classmethod
    def affine(cls, base: Dbm, rates: Sequence[Dbm]) -> "ExtParamDbm":
        """base + sum_p k_p * rates[p]; rate ignored where base is INF."""
        nparams = len(rates)
        e = []
        for i in range(base.dim):
            row = []
            for j in range(base.dim):
                b = base.rows[i][j]
                if b == INF:
                    row.append(())
                else:
                    rs = []
                    for r in rates:
                        v = r.rows[i][j]
                        rs.append(0 if v == INF else v)
                    row.append((ParamTerm(tuple(rs), b),))
            e.append(row)
        return cls(base.dim, nparams, e)


def glue(a: ExtParamDbm, b: ExtParamDbm) -> ExtParamDbm:
    """The 3-block matrix over (x, x', x'') of the composition of two
    relation matrices over (x, x') with the same parameters: a on the first
    two blocks, b on the last two, and the middle block the pointwise
    minimum of a's primed and b's unprimed block."""
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


def eval_at(m: ExtParamDbm, valuation: Sequence[int]) -> Dbm:
    """Instantiate: entry = min over term values, INF for empty sets."""
    if len(valuation) != m.nparams:
        raise ValueError("valuation arity mismatch")
    rows = []
    for i in range(m.dim):
        row = []
        for terms in m.entries[i]:
            row.append(min(t.eval(valuation) for t in terms) if terms else INF)
        rows.append(row)
    return Dbm(rows)


def param_fw(m: ExtParamDbm) -> ExtParamDbm:
    """Parametric shortest-path closure over paths of length <= dim+1.

    Keeps (term, length) pairs: lengths cap composed paths at k+1 during
    round k, equal terms keep their shortest length, and dominated terms
    are dropped.  For every nonneg valuation where the instantiated matrix
    is consistent this agrees with ``fw_close``; otherwise some diagonal
    entry evaluates negative at that valuation.
    """
    dim = m.dim
    capped = m.capped
    work: list[list[tuple[tuple[ParamTerm, int], ...]]] = []
    for i in range(dim):
        row = []
        for j, terms in enumerate(m.entries[i]):
            pairs = tuple((t, 1) for t in terms)
            if i == j:
                pairs = pairs + ((const_term(0, m.nparams), 0),)
            row.append(_prune(pairs))
        work.append(row)
    for k in range(dim):
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
                        if da + db <= k + 2:
                            t2.append((a + b, da + db))
                merged = _prune(t1 + tuple(t2))
                if len(merged) > MAX_ANTICHAIN:
                    merged = merged[:MAX_ANTICHAIN]
                    capped = True
                work[i][j] = merged
    entries = [
        [tuple(t for t, _ in cell) for cell in row] for row in work
    ]
    return ExtParamDbm(dim, m.nparams, entries, capped)


def _prune(pairs: tuple[tuple[ParamTerm, int], ...]):
    """Pareto frontier over (term domination, path length).

    A pair is dropped only when another pair has a pointwise <= term AND a
    <= length: a weight-dominated but shorter path must survive, because
    the length cap may later admit only the short representative (matters
    for matrices that are inconsistent at most parameter valuations).
    """
    best_len: dict[ParamTerm, int] = {}
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


def entry_min_equals(terms: Sequence[ParamTerm], target: ParamTerm) -> bool:
    """Does min(terms) equal target at every nonneg valuation?

    True iff target is one of the terms and every term dominates it.
    """
    return any(t == target for t in terms) and all(t.dominates(target) for t in terms)


def reduce_closed_entries(entries, dim: int, nparams: int):
    """Drop entry terms that two-step paths re-derive, then verify.

    The reduced matrix generates the same constraint; its closure is
    re-checked to dominate every original term (ties around zero-weight
    cycles can over-drop, in which case the original entries are kept).
    Fewer rows keep the downstream integer eliminations small.
    """
    reduced = []
    for p in range(dim):
        row = []
        for q in range(dim):
            if p == q:
                row.append(entries[p][q])
                continue
            keep = []
            for t in entries[p][q]:
                drop = False
                for r in range(dim):
                    if r in (p, q):
                        continue
                    for t1 in entries[p][r]:
                        for t2 in entries[r][q]:
                            if t.dominates(t1 + t2):
                                drop = True
                                break
                        if drop:
                            break
                    if drop:
                        break
                if not drop:
                    keep.append(t)
            row.append(tuple(keep))
        reduced.append(row)
    closed = param_fw(ExtParamDbm(dim, nparams, reduced))
    if closed.capped:
        return entries
    for p in range(dim):
        for q in range(dim):
            for t in entries[p][q]:
                if not any(t.dominates(s) for s in closed.entries[p][q]):
                    return entries  # over-dropped around a tie; keep original
    return reduced


def param_exists_k(
    m: ExtParamDbm,
    index_terms: Sequence[LinTerm],
    param_names: Sequence[str],
    extra_rows: Iterable = (),
) -> Dnf:
    """Exact projection ``exists params >= 0 . constraints(m)`` as a DNF.

    Entry (i, j) contributes rows ``index_terms[i] - index_terms[j] <= t``
    for each of its terms; diagonal entries contribute ``0 <= t``.  The
    parameters are eliminated one at a time by exact integer elimination,
    which may introduce divisibility atoms.
    """
    if len(index_terms) != m.dim or len(param_names) != m.nparams:
        raise ValueError("arity mismatch")
    rows = list(extra_rows)
    for i in range(m.dim):
        for j in range(m.dim):
            terms = m.entries[i][j]
            if not terms:
                continue
            lhs = index_terms[i] - index_terms[j]
            for t in terms:
                bound = LinTerm(
                    {param_names[p]: r for p, r in enumerate(t.rates)}, t.const
                )
                row = lhs - bound
                if row.is_constant() and row.const <= 0:
                    continue
                rows.append((row, "<="))
    conj = Conj.make(rows)
    if conj is None:
        return Dnf()
    return eliminate_all(conj, list(param_names), nonneg=list(param_names))
