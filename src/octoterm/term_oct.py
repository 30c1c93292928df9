"""Weakest non-termination sets of octagonal relations, in polynomial time.

The Kleene chain pre^1 ⊇ pre^2 ⊇ ... of an octagonal relation R over N
variables (pre^k is the domain of R^k, and pre^(k+1) is the pre-image of
pre^k under R) either never stabilizes (then R is well founded) or
stabilizes within 5^(2N) steps.  Comparing the pre-image sets of the
powers n1 = 5^(2N) and n1 + 1 therefore decides everything.

5^(2N) is the worst case, and most chains settle far sooner.  ``wnt``
walks the squares R, R^2, R^4, ... that binary exponentiation builds for
R^n1 anyway, and after each squaring compares the pre-image sets of the
last two squares.  The chain descends, so pre^(2m) ⊆ pre^(m+1) ⊆ pre^m:
when pre^(2m) = pre^m, also pre^(m+1) = pre^m, hence pre^k = pre^m for
every k >= m, and pre^m is the answer the probe powers n1 and n1 + 1 would
give.  The tight closure is canonical, so that answer is the same octagon
as theirs.  Only when no two squares agree is R^n1 the product of the
squares already built, and R^(n1+1) one composition more.

That exponentiation is the costly step, and one loop asks for its WNT more
than once (``prove_termination`` after ``wnt``, ``nt_program`` for the
same cycle relation in several programs).  So ``wnt`` tight-closes its
input and looks the result up in a bounded memo keyed by the tight octagon
and N.  The key hashes only ints, INF and None, so the memo behaves the
same under every ``PYTHONHASHSEED``, and a hit returns what a cold call
would compute: the result does not depend on the process history.

The squares themselves are shared too.  A bounded store, keyed like the
WNT memo by the tight octagon and N, keeps the list of squares of R drawn
so far, and ``_squares`` reads it and squares only past its end.  So
``wnt``, the witness power R^(4N^2) of ``ranking``, the emptiness probes of
``closure`` and ``rel power`` all reach R^n along one path, the product of
the shared squares at the set bits of n, and no square of one relation is
drawn twice while its entry lives.  One request works on a few relations
at a time, so the store keeps ``_SQUARE_MEMO`` = 4 entries: a few dozen
small matrices, not the memory of the WNT memo.  A square is a function
of its relation, so a stored one equals a fresh one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice
from typing import Iterable, Iterator, NamedTuple

from .octagon import Octagon, bottom, oct_compose, oct_eq, pre_image_set, tight_close

# Entries in the WNT memo, as in ``program`` and ``presburger``.
_MEMO = 1024
# Entries in the square store: the relations one request works on.
_SQUARE_MEMO = 4


@lru_cache(maxsize=_SQUARE_MEMO)
def _square_store(rel: Octagon, N: int) -> list[Octagon]:
    """The squares R, R^2, R^4, ... of a tight relation drawn so far;
    ``_squares`` appends to the list."""
    return [rel]


def _squares(rel: Octagon, N: int) -> Iterator[Octagon]:
    """R, R^2, R^4, ... as tight octagons, read from the square store and
    each squared only when first asked for."""
    store = _square_store(tight_close(rel), N)
    for k in count():
        if k == len(store):
            store.append(oct_compose(store[-1], store[-1], N))
        yield store[k]


def _product(squares: Iterable[Octagon], n: int, N: int) -> Octagon:
    """R^n (n >= 1) as the product of the squares R^(2^k) at the set bits of n.

    Reads no square past the top bit of n, and stops at the first empty
    square or partial product: R^n is then empty.
    """
    acc: Octagon | None = None
    for square in squares:
        if square.is_bottom:
            return bottom(2 * N)
        if n & 1:
            acc = square if acc is None else oct_compose(acc, square, N)
            if acc.is_bottom:
                return bottom(2 * N)
        n >>= 1
        if n == 0:
            return acc


def fast_power(rel: Octagon, n: int, n_program_vars: int) -> Octagon:
    """The octagon of R^n by binary exponentiation over the shared squares
    (bottom if empty)."""
    if n < 1:
        raise ValueError("power must be >= 1")
    return _product(_squares(rel, n_program_vars), n, n_program_vars)


class WntResult(NamedTuple):
    """wnt(R) as a tight octagon over the unprimed variables (bottom = WF)."""

    set: Octagon


def wnt(rel: Octagon, n_program_vars: int) -> WntResult:
    """Exact weakest non-termination set of an octagonal relation.

    Computed once per tight relation and N: the input is tight-closed and
    looked up in a memo of ``_MEMO`` entries.  Every caller gets the same
    result object, which, like every ``Octagon``, is never mutated.
    """
    return _wnt_tight(tight_close(rel), n_program_vars)


@lru_cache(maxsize=_MEMO)
def _wnt_tight(rel: Octagon, N: int) -> WntResult:
    """``wnt`` of a tight-closed relation: the answer of the probe powers
    n1 = 5^(2N) and n1 + 1, returned as soon as two successive squares have
    equal pre-image sets (the chain has settled) or a square is empty."""
    n1 = 5 ** (2 * N)
    squares: list[Octagon] = []
    last = None  # pre-image set of the last square
    for square in islice(_squares(rel, N), n1.bit_length()):
        if square.is_bottom:
            return WntResult(bottom(N))
        pre = pre_image_set(square, N)
        if last is not None and oct_eq(pre, last):
            return WntResult(last)
        squares.append(square)
        last = pre
    v = _product(squares, n1, N)
    w = oct_compose(v, rel, N)
    if w.is_bottom:
        return WntResult(bottom(N))
    pv = pre_image_set(v, N)
    if not oct_eq(pv, pre_image_set(w, N)):
        return WntResult(bottom(N))
    return WntResult(pv)


def is_well_founded(rel: Octagon, n_program_vars: int) -> bool:
    return wnt(rel, n_program_vars).set.is_bottom
