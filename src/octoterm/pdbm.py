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
negative.  Like ``dbm._close``, it takes the pivots to close through: the
composition of two closed parametric relations closes their glued matrix
through the middle block only.  Every entry of a closed operand already
stands for a whole path of that operand, so in the glued matrix it is one
edge, and lengths start at 1 again.

``min_terms`` is one sorted Pareto sweep for both terms and pairs.  It
sorts the unique tuples and compares each one only with the tuples already
kept.  That is exact: lexicographic order extends componentwise <=, so a
tuple's dominators all come before it; and domination is transitive, so a
dominator that was itself dropped has a kept dominator of its own, which
also dominates the tuple.
"""

from __future__ import annotations

from operator import add, le, mul
from typing import Iterable, Sequence

from .dbm import INF, Dbm
from .linarith import LinTerm

MAX_ANTICHAIN = 64

Term = tuple[int, ...]  # (const, *rates); a closure pair appends a length


def min_terms(items: Iterable[Term]) -> tuple[Term, ...]:
    """The componentwise-minimal tuples among ``items``, duplicates removed,
    in lexicographic order."""
    keep: list[Term] = []
    for t in sorted(set(items)):
        for s in keep:
            if all(map(le, s, t)):  # _leq(s, t), inlined in the hot loop
                break
        else:
            keep.append(t)
    return tuple(keep)


def _leq(a: Term, b: Term) -> bool:
    """a <= b in every component, so b is redundant next to a."""
    return all(map(le, a, b))


def term_bound(t: Term, param_names: Sequence[str]) -> LinTerm:
    """The term as a linear term over the named parameters."""
    return LinTerm(dict(zip(param_names, t[1:])), t[0])


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
            row = []
            for j, b in enumerate(brow):
                if b == INF:
                    row.append(())
                else:
                    rs = [r.rows[i][j] for r in rates]
                    row.append(((b, *(0 if v == INF else v for v in rs)),))
            e.append(row)
        return cls(base.dim, len(rates), e)


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
    for erow in m.entries:
        row = []
        for terms in erow:
            row.append(
                min(sum(map(mul, t[1:], valuation), t[0]) for t in terms)
                if terms else INF
            )
        rows.append(row)
    return Dbm(rows)


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
    this agrees with ``fw_close`` (``dbm._close`` through the same pivots);
    otherwise some diagonal entry evaluates negative at that valuation,
    provided every negative cycle has a negative simple cycle whose
    vertices are all pivots (always so with every pivot).  The cap stays
    exact through a pivot subset: after round i, a simple path whose
    intermediate vertices are among the first i+1 pivots has at most i+2
    edges.
    """
    dim = m.dim
    capped = m.capped
    origin = (0,) * (m.nparams + 2)  # the empty path: zero term, length 0
    work: list[list[tuple[Term, ...]]] = []
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
                new = [
                    tuple(map(add, a, b))
                    for a in wik
                    for b in wkj
                    if a[-1] + b[-1] <= cap
                ]
                if new:
                    cell = min_terms(cell + tuple(new))
                if len(cell) > MAX_ANTICHAIN:
                    cell = cell[:MAX_ANTICHAIN]
                    capped = True
                rowi[j] = cell
    entries = [[tuple(p[:-1] for p in cell) for cell in row] for row in work]
    return ExtParamDbm(dim, m.nparams, entries, capped)


def param_tighten(entries, dim: int) -> list:
    """Parametric tight closure of closed entries, one matrix per case.

    Tightening halves the (p, bar p) entries: m[p][q] = min(m[p][q],
    floor(m[p][bar p] / 2) + floor(m[bar q][q] / 2)).  Halving a term with
    an odd rate needs the parameter's parity, so such parameters are split
    (k -> 2k+r, one case per residue r), which keeps every floor exact.
    """
    for p in range(dim):
        for t in entries[p][p ^ 1]:
            for pi in range(1, len(t)):
                if t[pi] % 2 != 0:
                    cases = []
                    for r in (0, 1):
                        sub = [
                            [tuple((u[0] + u[pi] * r, *u[1:pi], 2 * u[pi], *u[pi + 1:])
                                   for u in cell) for cell in row]
                            for row in entries
                        ]
                        cases.extend(param_tighten(sub, dim))
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


def entry_min_equals(terms: Sequence[Term], target: Term) -> bool:
    """Does min(terms) equal target at every nonneg valuation?

    True iff target is one of the terms and every term dominates it.
    """
    return target in terms and all(_leq(target, t) for t in terms)
