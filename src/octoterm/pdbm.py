"""Parametric DBMs: entries are antichains of affine terms over nonneg parameters.

A term ``c + r1*k1 + ... + rn*kn`` is the plain int tuple ``(c, r1, ...,
rn)``.  An entry is a tuple of terms and bounds a difference by the
pointwise minimum of its terms; the empty tuple is "no bound".  A term is
redundant in an entry when another term is <= it in every component, since
then it is never smaller at a nonneg valuation; ``min_terms`` keeps the
minimal ones, sorted lexicographically.

The closure works on pairs ``(c, r1, ..., rn, length)``: a term with the
length of the path that produced it, so one ``map(add, a, b)`` adds both
the terms and the lengths of two paths.  Per entry it keeps the antichain
of pairs for paths of length at most (number of pivots)+1, which is
enough to agree with the plain Floyd-Warshall closure through the same
pivots at every parameter valuation where the instantiated matrix is
consistent; at inconsistent valuations some diagonal entry evaluates
negative.  It takes the pivots to close through, as the plain kernel of
``dbm`` does.

No analysis of the package uses this module: ``program`` builds its
summary members from plain dual matrices, and they compose by integer
elimination, not by a parametric closure.  The tests replay certificates
with ``param_fw`` on matrices built by ``ExtParamDbm.affine`` and
``from_dbm``, and the benchmark's trace spans name ``param_fw``.

The closure kernel is sparse, as the plain Floyd-Warshall kernel is: it
works only on the cells that hold a bound, and calls ``min_terms`` only on
a cell of two tuples or more.  A pivot round lists the nonempty cells of
the pivot row once, and again after the pivot's own row, which may change
them; a pivot whose only cycle is the empty path leaves its row and column
as they are.  The entries, their order and ``capped`` are those of the
dense loops.

``min_terms`` is one sorted Pareto sweep for both terms and pairs.  It
sorts the unique tuples and compares each one only with the tuples already
kept.  That is exact: lexicographic order extends componentwise <=, so a
tuple's dominators all come before it; and domination is transitive, so a
dominator that was itself dropped has a kept dominator of its own, which
also dominates the tuple.
"""

from __future__ import annotations

from operator import add, le
from typing import Iterable, Sequence

from .dbm import INF, Dbm

MAX_ANTICHAIN = 64

Term = tuple[int, ...]  # (const, *rates); a closure pair appends a length


def min_terms(items: Iterable[Term]) -> tuple[Term, ...]:
    """The componentwise-minimal tuples among ``items``, duplicates removed,
    in lexicographic order."""
    keep: list[Term] = []
    for t in sorted(set(items)):
        for s in keep:
            if all(map(le, s, t)):  # t is redundant next to s
                break
        else:
            keep.append(t)
    return tuple(keep)


class ExtParamDbm:
    """dim x dim matrix of term tuples; () means unbounded."""

    __slots__ = ("dim", "nparams", "entries", "capped")

    def __init__(self, dim: int, nparams: int, entries, capped: bool = False):
        self.dim = dim
        self.nparams = nparams
        self.entries = entries
        self.capped = capped

    @classmethod
    def from_dbm(cls, m: Dbm, nparams: int = 0) -> "ExtParamDbm":
        rates = (0,) * nparams
        e = [[(() if v == INF else ((v,) + rates,)) for v in row] for row in m.rows]
        return cls(m.dim, nparams, e)

    @classmethod
    def affine(cls, base: Dbm, rates: Sequence[Dbm]) -> "ExtParamDbm":
        """base + sum_p k_p * rates[p]; rate ignored where base is INF."""
        e = []
        for i, brow in enumerate(base.rows):
            rrows = [r.rows[i] for r in rates]
            e.append([() if b == INF else ((b, *(0 if rr[j] == INF else rr[j] for rr in rrows)),)
                      for j, b in enumerate(brow)])
        return cls(base.dim, len(rates), e)


def param_fw(m: ExtParamDbm, pivots: Sequence[int] | None = None) -> ExtParamDbm:
    """Parametric shortest-path closure through ``pivots`` (default: all).

    Keeps (term, length) pairs: lengths cap composed paths at i+2 during
    round i of the pivot sequence, equal terms keep their shortest length,
    and a pair is dropped only when another pair has a pointwise <= term
    AND a <= length.  A weight-dominated but shorter path must survive,
    because the length cap may later admit only the short representative
    (matters for matrices that are inconsistent at most parameter
    valuations).  An entry longer than ``MAX_ANTICHAIN`` keeps its least
    pairs and sets ``capped``.

    For every nonneg valuation where the instantiated matrix is consistent
    this agrees with the plain closure through the same pivots (``fw_close``
    with every pivot); otherwise some diagonal entry evaluates negative at
    that valuation, provided every negative cycle has a negative simple
    cycle whose vertices are all pivots (always so with every pivot).  The cap stays
    exact through a pivot subset: after round i, a simple path whose
    intermediate vertices are among the first i+1 pivots has at most i+2
    edges.
    """
    dim = m.dim
    capped = m.capped
    origin = (0,) * (m.nparams + 2)  # the empty path: zero term, length 0
    work: list[list[tuple[Term, ...]]] = []
    for i, erow in enumerate(m.entries):
        row = [((terms[0] + (1,),) if len(terms) == 1 else
                min_terms([t + (1,) for t in terms])) if terms else ()
               for terms in erow]
        row[i] = min_terms(row[i] + (origin,)) if row[i] else (origin,)
        work.append(row)
    for cap, k in enumerate(range(dim) if pivots is None else pivots, 2):
        rowk = work[k]
        # When the empty path is the only cycle through k, a path to or from
        # k extended through k is the path itself: the round leaves row k
        # and column k as they are, but for the cap on a wide input cell.
        bare = rowk[k] == (origin,)
        out = [(j, w) for j, w in enumerate(rowk) if w and not (bare and j == k)]
        for i, rowi in enumerate(work):
            wik = rowi[k]
            if not wik:
                continue
            if bare:
                for j in (range(dim) if i == k else (k,)):
                    if len(rowi[j]) > MAX_ANTICHAIN:
                        rowi[j] = rowi[j][:MAX_ANTICHAIN]
                        capped = True
                if i == k:
                    out = [(j, w) for j, w in enumerate(rowk) if w and j != k]
                    continue
            for j, wkj in out:
                cell = rowi[j]
                new = tuple([
                    tuple(map(add, a, b))
                    for a in wik
                    for b in wkj
                    if a[-1] + b[-1] <= cap
                ])
                if new:
                    cell = min_terms(cell + new) if cell or len(new) > 1 else new
                if len(cell) > MAX_ANTICHAIN:
                    cell = cell[:MAX_ANTICHAIN]
                    capped = True
                rowi[j] = cell
            if i == k:  # the pivot row itself may have gained cells
                out = [(j, w) for j, w in enumerate(rowk) if w]
    entries = [[tuple([p[:-1] for p in cell]) if cell else () for cell in row]
               for row in work]
    return ExtParamDbm(dim, m.nparams, entries, capped)
