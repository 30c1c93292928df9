"""Explicit-state oracles over finite boxes, for differential testing.

Membership evaluation and the box-restricted greatest fixpoint of the
pre-image, of a relation or of a whole program, are computed by brute
force (vectorized over the box), so they are independent of every symbolic
code path they check.  A start that stays live in the box has an infinite
run, so it lies in the weakest non-termination set; a start that dies in
the box may still run forever outside it.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

from .octagon import Octagon, oct_decode, tight_close
from .presburger import Conj, DivAtom, Dnf


class BoxDomain(NamedTuple):
    """Per-variable inclusive integer intervals."""

    intervals: tuple[tuple[int, int], ...]

    @classmethod
    def cube(cls, n_vars: int, lo: int, hi: int) -> "BoxDomain":
        return cls(tuple((lo, hi) for _ in range(n_vars)))

    def points(self) -> list[tuple[int, ...]]:
        return list(product(*(range(lo, hi + 1) for lo, hi in self.intervals)))


def eval_membership(formula, valuation) -> bool:
    """Direct evaluation of any constraint form used in this package.

    Octagons take a point (sequence indexed like the octagon variables);
    Conj/Dnf/DivAtom take a name->int mapping.
    """
    if isinstance(formula, Octagon):
        if formula.is_bottom:
            return False
        point = list(valuation)
        for si, i, sj, j, c in oct_decode(formula):
            if si * point[i] + sj * point[j] > c:
                return False
        return True
    if isinstance(formula, (Conj, Dnf, DivAtom)):
        return formula.eval(valuation)
    raise TypeError(f"cannot evaluate {type(formula).__name__}")


def _relation_matrix(rel: Octagon, n_vars: int, box: BoxDomain) -> np.ndarray:
    """Boolean successor matrix over box points for a relation octagon."""
    rel = tight_close(rel)
    pts = np.array(box.points(), dtype=np.int32)
    npts = len(pts)
    if rel.is_bottom:
        return np.zeros((npts, npts), dtype=bool)
    atoms = oct_decode(rel)
    ok = np.ones((npts, npts), dtype=bool)
    chunk = max(1, (1 << 22) // max(npts, 1))
    for lo in range(0, npts, chunk):
        hi = min(npts, lo + chunk)
        blk = np.ones((hi - lo, npts), dtype=bool)
        for si, i, sj, j, c in atoms:
            a = (si * pts[lo:hi, i]) if i < n_vars else None
            b = (sj * pts[:, j - n_vars]) if j >= n_vars else None
            if i < n_vars and j < n_vars:
                vals = si * pts[lo:hi, i] + sj * pts[lo:hi, j]
                blk &= (vals <= c)[:, None]
            elif i >= n_vars and j >= n_vars:
                vals = si * pts[:, i - n_vars] + sj * pts[:, j - n_vars]
                blk &= (vals <= c)[None, :]
            elif i < n_vars:
                blk &= (a[:, None] + b[None, :]) <= c
            else:
                a2 = si * pts[:, i - n_vars]
                b2 = sj * pts[lo:hi, j]
                blk &= (b2[:, None] + a2[None, :]) <= c
        ok[lo:hi] = blk
    return ok


def live_points(rel: Octagon, n_vars: int, box: BoxDomain) -> set[tuple[int, ...]]:
    """Greatest set of box points whose successors stay in the set."""
    mat = _relation_matrix(rel, n_vars, box)
    pts = box.points()
    alive = np.ones(len(pts), dtype=bool)
    while True:
        has_succ = (mat[:, alive]).any(axis=1)
        nxt = alive & has_succ
        if (nxt == alive).all():
            break
        alive = nxt
    return {pts[i] for i in np.nonzero(alive)[0]}


# -- programs ----------------------------------------------------------------


def program_live_starts(program, box: BoxDomain) -> set[tuple[int, ...]]:
    """Valuations at the initial state from which an in-box infinite run
    exists (configuration-level greatest fixpoint)."""
    n = len(program.variables)
    pts = box.points()
    index = {p: i for i, p in enumerate(pts)}
    states = list(program.states)
    sidx = {s: i for i, s in enumerate(states)}
    npts = len(pts)
    succs: list[list[int]] = [[] for _ in range(len(states) * npts)]
    for t in program.transitions:
        for d in t.label:
            if isinstance(d, Octagon):
                mat = _relation_matrix(d, n, box)
                rows, cols = np.nonzero(mat)
                for a, b in zip(rows.tolist(), cols.tolist()):
                    succs[sidx[t.source] * npts + a].append(sidx[t.target] * npts + b)
            else:
                for a, p in enumerate(pts):
                    if not d.guard_holds(p):
                        continue
                    img = d.apply(p)
                    j = index.get(tuple(img))
                    if j is not None:
                        succs[sidx[t.source] * npts + a].append(sidx[t.target] * npts + j)
    alive = [True] * (len(states) * npts)
    changed = True
    while changed:
        changed = False
        for c in range(len(alive)):
            if alive[c] and not any(alive[s] for s in succs[c]):
                alive[c] = False
                changed = True
    init = sidx[program.init]
    return {pts[i] for i in range(npts) if alive[init * npts + i]}
