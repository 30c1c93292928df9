"""Octagonal constraints as coherent DBMs over dual variables.

An octagonal constraint over m integer variables x_0..x_{m-1} is a
conjunction of atoms ``+-x_i +- x_j <= c``.  It is stored as a 2m x 2m DBM
over the dual variables u_{2i} = +x_i and u_{2i+1} = -x_i, so every atom
becomes a pair of coherent difference bounds (entry (p,q) always mirrors
entry (bar q, bar p), where bar flips the sign index).

The canonical form is the *tight* closure: the DBM closure strengthened
with the integer halving bounds ``M[p][q] <= floor(M[p][bar p]/2) +
floor(M[bar q][q]/2)``.  Tightly closed octagons are integer-hull exact:
every finite bound is attained by an integer point, entailment and
equivalence are entrywise comparisons, and dropping dual rows/columns
projects variables away exactly.

Relations over N program variables are octagons over 2N variables, ordered
x_0..x_{N-1}, x'_0..x'_{N-1} (``relation_names``).

Linear rows become atoms through ``row_atom`` (the one octagonal-row
classifier) and atoms become dual entries through ``oct_encode``;
``oct_rows`` turns an octagon back into rows, and ``oct_hull`` is the one
octagonal hull of octagons and polyhedra.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .dbm import (
    INF,
    Dbm,
    closed_glued_rows,
    dbm_eq,
    dbm_leq,
    dbm_min,
    dbm_project,
    fw_close,
)
from .linarith import LE, LinSys, LinTerm, PolyhedronLP, Row, term_of_pair

# Atom kinds: (sign_i, i, sign_j, j, c) encodes  sign_i*x_i + sign_j*x_j <= c.
# Unary bounds sign*x_i <= c are written with i == j as 2*sign*x_i <= 2c.
OctAtom = tuple[int, int, int, int, int]


def _bar(p: int) -> int:
    return p ^ 1


def _pos(i: int) -> int:
    return 2 * i


def _neg(i: int) -> int:
    return 2 * i + 1


class Octagon:
    """num_vars variables; ``dbm`` is None exactly for the empty octagon.

    Treated as immutable, like ``Dbm``: a value and a memo key, whose hash
    is computed on first use and kept in a slot.
    """

    __slots__ = ("num_vars", "dbm", "tight", "_hash")

    def __init__(self, num_vars: int, dbm: Dbm | None, tight: bool = False):
        if dbm is not None and dbm.dim != 2 * num_vars:
            raise ValueError("dual DBM dimension must be 2*num_vars")
        self.num_vars = num_vars
        self.dbm = dbm
        self.tight = tight
        self._hash = None

    @property
    def is_bottom(self) -> bool:
        return self.dbm is None

    def __eq__(self, other) -> bool:
        return isinstance(other, Octagon) and (
            (self.num_vars, self.dbm, self.tight) == (other.num_vars, other.dbm, other.tight))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.num_vars, self.dbm, self.tight))
        return h

    def __repr__(self) -> str:
        return f"Octagon(num_vars={self.num_vars!r}, dbm={self.dbm!r}, tight={self.tight!r})"


def bottom(num_vars: int) -> Octagon:
    return Octagon(num_vars, None, tight=True)


def top(num_vars: int) -> Octagon:
    return Octagon(num_vars, Dbm.unconstrained(2 * num_vars), tight=True)


def row_atom(coeffs: Sequence[tuple[int, int]], bound):
    """The atom of the row ``sum c*x_i <= bound``, given as pairs (i, c),
    when the row is octagonal: one variable with coefficient +-1 or +-2, or
    two variables with +-1.  None otherwise.  A unit coefficient doubles
    ``bound``, so ``row_atom(coeffs, 1)`` gives the scale of the bound."""
    if len(coeffs) == 1:
        ((i, c),) = coeffs
        if c == 1 or c == -1:
            return (c, i, c, i, bound + bound)
        if c == 2 or c == -2:
            s = 1 if c > 0 else -1
            return (s, i, s, i, bound)
    elif len(coeffs) == 2:
        (i, c1), (j, c2) = coeffs
        if (c1 == 1 or c1 == -1) and (c2 == 1 or c2 == -1):
            return (c1, i, c2, j, bound)
    return None


def rows_to_atoms(rows: Iterable[Row], index: dict[str, int]) -> list[OctAtom] | None:
    """Atoms of integer rows ``t <= 0`` / ``t == 0`` over the variables
    numbered by ``index``; None when some row is not octagonal.  An ``==``
    row also gives the atom of its negated pairs."""
    atoms = []
    for t, rel in rows:
        pairs = [(index[v], c) for v, c in t.coeffs.items()]
        atom = row_atom(pairs, -t.const)
        if atom is None:
            return None
        atoms.append(atom)
        if rel != LE:
            atoms.append(row_atom([(i, -c) for i, c in pairs], t.const))
    return atoms


def oct_encode(atoms: Iterable[OctAtom], num_vars: int) -> Octagon:
    """Build the (raw, unclosed) coherent DBM of a list of octagonal atoms.

    An atom's entry (p, q) and its twin are off the diagonal: p == q only
    for ``x_i - x_i``, which is rejected."""
    dim = 2 * num_vars
    rows = [[INF] * dim for _ in range(dim)]
    for p, r in enumerate(rows):
        r[p] = 0
    for si, i, sj, j, c in atoms:
        if not (0 <= i < num_vars and 0 <= j < num_vars):
            raise ValueError("variable index out of range")
        if si not in (-1, 1) or sj not in (-1, 1):
            raise ValueError("atom signs must be +-1")
        if i == j and si != sj:
            raise ValueError("x_i - x_i atoms are not octagonal constraints")
        # si*x_i + sj*x_j is u_p - u_q with p = dual(si, i), q = dual(-sj, j)
        p = 2 * i if si == 1 else 2 * i + 1
        q = 2 * j if sj == -1 else 2 * j + 1
        if c < rows[p][q]:
            rows[p][q] = c
        # and its coherent twin (bar q, bar p)
        if c < rows[q ^ 1][p ^ 1]:
            rows[q ^ 1][p ^ 1] = c
    return Octagon(num_vars, Dbm(rows), tight=False)


def _finite_entries(o: Octagon):
    """(p, q, bound) of each finite off-diagonal entry, one per coherent pair."""
    rows = o.dbm.rows
    dim = o.dbm.dim
    for p in range(dim):
        for q in range(dim):
            if p == q or rows[p][q] == INF:
                continue
            if (_bar(q), _bar(p)) < (p, q):
                continue  # coherent twin already emitted
            yield p, q, rows[p][q]


def oct_decode(o: Octagon) -> list[OctAtom]:
    """All finite atoms of a (coherent) octagon, one per coherent entry pair."""
    if o.is_bottom:
        raise ValueError("cannot decode the empty octagon")
    return [
        (1 if p % 2 == 0 else -1, p // 2, -1 if q % 2 == 0 else 1, q // 2, c)
        for p, q, c in _finite_entries(o)
    ]


def relation_names(variables: Iterable[str]) -> list[str]:
    """The variables of a relation in dual-matrix order: x, then x'."""
    names = list(variables)
    return names + [v + "'" for v in names]


def oct_rows(o: Octagon, names: Sequence[str]) -> list[Row]:
    """Rows ``u_p - u_q - c <= 0`` of the finite atoms over the named
    variables, one per coherent entry pair; the empty octagon is the single
    row ``1 <= 0``."""
    if o.is_bottom:
        return [(LinTerm.of(1), LE)]
    return [(term_of_pair(p, q, names, -c), LE) for p, q, c in _finite_entries(o)]


def halving_consistent(closed: Dbm) -> bool:
    rows = closed.rows
    for p in range(closed.dim):
        a = rows[p][_bar(p)]
        b = rows[_bar(p)][p]
        if a == INF or b == INF:
            continue
        if a // 2 + b // 2 < 0:
            return False
    return True


def tighten(closed: Dbm) -> Dbm:
    rows = closed.rows
    halves = [INF if r[_bar(p)] == INF else r[_bar(p)] // 2 for p, r in enumerate(rows)]
    bar_halves = [halves[_bar(q)] for q in range(closed.dim)]
    out = []
    for r, hp in zip(rows, halves):
        if hp == INF:
            out.append(r)
            continue
        out.append([v if hq == INF or v <= hp + hq else hp + hq
                    for v, hq in zip(r, bar_halves)])
    return Dbm(out)


# Raw octagons whose tight closure is kept: one request closes its input
# several times (``wnt``, ``prove_termination``, the closure's power cache).
_TIGHT_MEMO = 4


def tight_close(o: Octagon) -> Octagon:
    """Canonical form: DBM closure plus integer halving; bottom if empty.

    Octagonal consistency is the DBM consistency of the closure together
    with non-negative halved (p, bar p) cycles.  A tight or empty input is
    returned as it is; a raw one is closed once and kept in a memo of
    ``_TIGHT_MEMO`` entries keyed by value, like ``term_oct``'s square
    store, so the analyses of one request share one closure of their
    input.  The key hashes only ints, INF and flags, so a hit returns what
    a cold call would compute, under every ``PYTHONHASHSEED``.
    """
    if o.is_bottom or o.tight:
        return o
    return _tight_closed(o)


@lru_cache(maxsize=_TIGHT_MEMO)
def _tight_closed(o: Octagon) -> Octagon:
    closed = fw_close(o.dbm)
    if closed is None or not halving_consistent(closed):
        return bottom(o.num_vars)
    return Octagon(o.num_vars, tighten(closed), tight=True)


def _require_tight(o: Octagon, what: str) -> None:
    if not o.is_bottom and not o.tight:
        raise ValueError(f"{what} requires a tightly closed octagon")


def oct_leq(a: Octagon, b: Octagon) -> bool:
    a = tight_close(a)
    b = tight_close(b)
    if a.is_bottom:
        return True
    if b.is_bottom:
        return False
    if a.num_vars != b.num_vars:
        raise ValueError("variable count mismatch")
    return dbm_leq(a.dbm, b.dbm)


def oct_eq(a: Octagon, b: Octagon) -> bool:
    a = tight_close(a)
    b = tight_close(b)
    if a.is_bottom or b.is_bottom:
        return a.is_bottom and b.is_bottom
    return a.num_vars == b.num_vars and dbm_eq(a.dbm, b.dbm)


def oct_exists(o: Octagon, drop: Iterable[int]) -> Octagon:
    """Existentially drop variables; exact on tightly closed input."""
    dropset = set(drop)
    if o.is_bottom:
        return bottom(o.num_vars - len(dropset))
    _require_tight(o, "projection")
    keep_vars = [i for i in range(o.num_vars) if i not in dropset]
    keep = []
    for i in keep_vars:
        keep.append(_pos(i))
        keep.append(_neg(i))
    return Octagon(len(keep_vars), dbm_project(o.dbm, keep), tight=True)


def oct_meet_raw(a: Octagon, b: Octagon) -> Octagon:
    """Entrywise min of the two constraint matrices (conjunction, unclosed)."""
    if a.num_vars != b.num_vars:
        raise ValueError("variable count mismatch")
    if a.is_bottom or b.is_bottom:
        return bottom(a.num_vars)
    return Octagon(a.num_vars, dbm_min(a.dbm, b.dbm), tight=False)


def oct_compose(a: Octagon, b: Octagon, n_program_vars: int) -> Octagon:
    """Relational composition of octagonal relations over (x, x').

    Both inputs are octagons over 2*n_program_vars variables; they are
    tightly closed first (a no-op on tight ones), so the glued 3-block dual
    matrix closes through its middle block alone
    (``dbm.closed_glued_rows``).  The whole closed glued matrix is checked
    for halving consistency; then its outer blocks are sliced out once and
    tightened, which keeps the result integer-exact.
    """
    N = n_program_vars
    if a.num_vars != 2 * N or b.num_vars != 2 * N:
        raise ValueError("relation octagons must span (x, x')")
    a = tight_close(a)
    b = tight_close(b)
    if a.is_bottom or b.is_bottom:
        return bottom(2 * N)
    rows = closed_glued_rows(a.dbm, b.dbm)
    if rows is None or not halving_consistent(Dbm(rows)):
        return bottom(2 * N)
    lo, hi = 2 * N, 4 * N
    return Octagon(2 * N, tighten(Dbm([r[:lo] + r[hi:] for r in rows[:lo] + rows[hi:]])),
                   tight=True)


def pre_image_set(r: Octagon, n_program_vars: int) -> Octagon:
    """exists x'. R(x, x'): the top-left dual block of the tight relation."""
    r = tight_close(r)
    return oct_exists(r, range(n_program_vars, 2 * n_program_vars))


def lift_set_to_relation(s: Octagon, n_program_vars: int, primed: bool) -> Octagon:
    """Embed a set over N variables as a relation constraint on x or x'."""
    if s.num_vars != n_program_vars:
        raise ValueError("set arity mismatch")
    if s.is_bottom:
        return bottom(2 * n_program_vars)
    shift = n_program_vars if primed else 0
    atoms = [
        (si, i + shift, sj, j + shift, c) for (si, i, sj, j, c) in oct_decode(s)
    ]
    return oct_encode(atoms, 2 * n_program_vars)


def _sys_dual_sups(sys: LinSys, names: Sequence[str]):
    """Integer suprema of the octagonal terms of the named variables over a
    linear system, per dual entry; None if the system is infeasible."""
    poly = PolyhedronLP(sys)
    if not poly.feasible:
        return None
    dim = 2 * len(names)
    entry = [[0] * dim for _ in range(dim)]
    for p in range(dim):
        for q in range(dim):
            if p == q:
                continue
            res = poly.sup(term_of_pair(p, q, names))
            entry[p][q] = INF if res is None else res.numerator // res.denominator
    return entry


def oct_hull(items: Sequence, names: Sequence[str] | None = None) -> Octagon:
    """Smallest octagon containing every item; bottom for an empty union.

    Items are ``Octagon`` values or ``linarith.LinSys`` polyhedra.  A system
    is hulled over ``names`` when given, which projects its other variables
    (loop parameters, say) away, and over its own variables otherwise;
    inconsistent items are skipped.  Per octagonal term the bound is the
    max over items of the tight entry (octagons) or the floored rational
    supremum (systems); the result is tightly closed.
    """
    num_vars = None if names is None else len(names)
    sups = []
    for it in items:
        if isinstance(it, Octagon):
            arity = it.num_vars
        elif isinstance(it, LinSys):
            arity = len(it.variables if names is None else names)
        else:
            raise TypeError(f"cannot hull {type(it).__name__}")
        if num_vars is None:
            num_vars = arity
        elif num_vars != arity:
            raise ValueError("variable count mismatch in hull")
    if num_vars is None:
        raise ValueError("cannot hull an empty collection of unknown arity")
    dim = 2 * num_vars
    for it in items:
        if isinstance(it, Octagon):
            t = tight_close(it)
            if not t.is_bottom:
                sups.append(t.dbm.rows)
        else:
            entry = _sys_dual_sups(it, it.variables if names is None else names)
            if entry is not None:
                sups.append(entry)
    if not sups:
        return bottom(num_vars)
    rows = []
    for p in range(dim):
        row = []
        for q in range(dim):
            if p == q:
                row.append(0)
                continue
            vals = [e[p][q] for e in sups]
            row.append(INF if any(v == INF for v in vals) else max(vals))
        rows.append(row)
    return tight_close(Octagon(num_vars, Dbm(rows), tight=False))
