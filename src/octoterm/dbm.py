"""Difference bounds matrices (DBMs) over the integers extended with infinity.

A DBM of dimension m encodes the constraint ``/\\ { v_i - v_j <= M[i][j] }``
over integer variables v_0..v_{m-1}; the entry ``INF`` means "no bound".
Closing a consistent matrix with Floyd-Warshall yields the unique canonical
form (zero diagonal, triangle inequality), on which entailment, equivalence,
projection and relational composition are simple entrywise operations.

Entries are Python ints (arbitrary precision) or ``INF``.  One exact
Floyd-Warshall kernel serves every closure: it takes the pivots to close
through and skips INF entries, which pays off on the sparse matrices the
analyses build.  Composition of two closed relations glues their rows
into the plain row lists of a 3-block matrix over (v, v', v''), closes
them in place through the middle block only, and slices the outer blocks
out once (``closed_glued_rows``, ``compose_closed``).  A ``Dbm`` keeps the
row lists it is given, so no step copies a matrix it has just built, and
keeps its hash once computed, so a memo lookup walks its rows once.
"""

from __future__ import annotations

import math
from typing import Iterable

INF = math.inf


def ext_min(a, b):
    return a if a <= b else b


class Dbm:
    """Square matrix of int-or-INF bounds.

    The matrix takes the row lists it is given, without a copy: every
    caller passes lists it has just built.  Instances are treated as
    immutable once built; code writes in place only into rows it has just
    built (``_close``, ``octagon.oct_encode``), never into an operand's.
    So the hash, the hash of the tuple of row tuples, is computed on first
    use and kept in a slot, as ``LinTerm`` keeps its own.  It hashes only
    ints and INF, so it does not depend on ``PYTHONHASHSEED``.
    """

    __slots__ = ("dim", "rows", "_hash")

    def __init__(self, rows: list[list]):
        self.dim = len(rows)
        self.rows = rows
        self._hash = None
        for r in rows:
            if len(r) != self.dim:
                raise ValueError("DBM must be square")

    @classmethod
    def unconstrained(cls, dim: int) -> "Dbm":
        rows = [[INF] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = 0
        return cls(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dbm) and self.rows == other.rows

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(tuple(tuple(r) for r in self.rows))
        return h

    def __repr__(self) -> str:
        def fmt(v):
            return "oo" if v == INF else str(v)

        return "Dbm([%s])" % ", ".join(
            "[" + ", ".join(fmt(v) for v in r) + "]" for r in self.rows
        )


def _close(rows: list[list], pivots: Iterable[int]) -> list[list] | None:
    """Floyd-Warshall through ``pivots``, in place; None on a negative cycle.

    The diagonal must be zero on entry.  Only the finite entries of the
    pivot row and column take part, and a diagonal entry can only drop
    below zero in a column that the pivot row reaches, so only those are
    checked after each pivot.
    """
    for k in pivots:
        rk = rows[k]
        out = [(j, w) for j, w in enumerate(rk) if w != INF and j != k]
        if not out:
            continue
        for ri in rows:
            rik = ri[k]
            if rik == INF:
                continue
            for j, w in out:
                c = rik + w
                if c < ri[j]:
                    ri[j] = c
        for j, _ in out:
            if rows[j][j] < 0:
                return None
    return rows


def fw_close(m: Dbm) -> Dbm | None:
    """Floyd-Warshall closure; ``None`` when a negative cycle exists."""
    rows = [list(r) for r in m.rows]
    for i, r in enumerate(rows):
        if r[i] < 0:
            return None
        r[i] = 0
    if _close(rows, range(m.dim)) is None:
        return None
    return Dbm(rows)


def dbm_leq(a: Dbm, b: Dbm) -> bool:
    """Entailment of closed consistent DBMs: a implies b iff a <= b entrywise."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    for ra, rb in zip(a.rows, b.rows):
        for va, vb in zip(ra, rb):
            if vb == INF:
                continue
            if va == INF or va > vb:
                return False
    return True


def dbm_eq(a: Dbm, b: Dbm) -> bool:
    return a.dim == b.dim and a.rows == b.rows


def dbm_project(m: Dbm, keep: Iterable[int]) -> Dbm:
    """Restrict a closed consistent DBM to the given indices (in order).

    The result is the closed DBM of the projection (existential elimination
    of the dropped variables).
    """
    idx = list(keep)
    return Dbm([[m.rows[i][j] for j in idx] for i in idx])


def dbm_min(a: Dbm, b: Dbm) -> Dbm:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return Dbm(
        [
            [ext_min(x, y) for x, y in zip(ra, rb)]
            for ra, rb in zip(a.rows, b.rows)
        ]
    )


def dbm_add_rate(a: Dbm, rate: Dbm, n: int) -> Dbm:
    """Entrywise a + n*rate; INF absorbs (in either operand)."""
    if a.dim != rate.dim:
        raise ValueError("dimension mismatch")
    return Dbm([[INF if x == INF or l == INF else x + n * l for x, l in zip(ra, rl)]
                for ra, rl in zip(a.rows, rate.rows)])


def closed_glued_rows(a: Dbm, b: Dbm) -> list[list] | None:
    """Rows of the closed 3-block matrix of two *closed* relation DBMs over
    (v, v', v''); None if the composition is empty.

    The middle block is min(bottom-right of a, top-left of b).  An edge of
    the glued graph joins two vertices of one operand, and each operand is
    closed, so every path can be shortened to one whose intermediate
    vertices all lie in the middle block: closing through the middle pivots
    alone yields the full closure, in a third of the work.  On an unclosed
    operand the result may miss bounds.
    """
    n = a.dim // 2
    pad = [INF] * n
    rows = [ra + pad for ra in a.rows[:n]]
    for ra, rb in zip(a.rows[n:], b.rows[:n]):
        rows.append(ra[:n] + [x if x <= y else y for x, y in zip(ra[n:], rb[:n])] + rb[n:])
    rows.extend(pad + rb for rb in b.rows[n:])
    return _close(rows, range(n, 2 * n))


def compose_closed(a: Dbm, b: Dbm) -> Dbm | None:
    """Relational composition of two closed relation DBMs; None if empty."""
    n = a.dim // 2
    rows = closed_glued_rows(a, b)
    if rows is None:
        return None
    return Dbm([r[:n] + r[2 * n:] for r in rows[:n] + rows[2 * n:]])


def dbm_compose(a: Dbm, b: Dbm) -> Dbm | None:
    """Relational composition of two 2N x 2N relation DBMs; None if empty."""
    if a.dim != b.dim or a.dim % 2 != 0:
        raise ValueError("relation DBMs must share an even dimension")
    a = fw_close(a)
    b = fw_close(b)
    if a is None or b is None:
        return None
    return compose_closed(a, b)
