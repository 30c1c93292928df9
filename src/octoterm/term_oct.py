"""Weakest non-termination sets of octagonal relations, in polynomial time.

The Kleene chain pre^1 ⊇ pre^2 ⊇ ... of an octagonal relation R over N
variables (pre^k is the domain of R^k, and pre^(k+1) is the pre-image of
pre^k under R) either never stabilizes (then R is well founded) or
stabilizes within 5^(2N) steps.

``wnt`` walks the squares R, R^2, R^4, ... and after each squaring
compares the pre-image sets of the last two squares.  The chain descends,
so pre^(2m) ⊆ pre^(m+1) ⊆ pre^m: when pre^(2m) = pre^m, also
pre^(m+1) = pre^m, hence pre^k = pre^m for every k >= m, and pre^m is the
answer.  With L = bit_length(5^(2N)), 2^L > 5^(2N), so a chain that
settles at all has equal pre-image sets at the squares R^(2^L) and
R^(2^(L+1)); when the pass reaches the last of them without meeting two
equal ones, R is well founded.  The tight closure is canonical, so the
answer is one octagon whichever squares found it.

A well-founded relation that never dies (x >= 0 and x' = x - 1) settles
at no square, so that pass alone would square all the way to R^(2^(L+1)).
The paper's second fact stops it sooner: every well-founded R has the
witness W = R and dom(R^(4N^2)), and W has a linear ranking function.  So
once the pass has drawn the K = bit_length(4N^2) squares whose product is
R^(4N^2), and the chain has neither died nor settled, ``wnt`` builds W from
them and runs the Podelski-Rybalchenko LP (``linarith.farkas_template``)
on W's tight rows.  When W is empty or the LP is feasible, ``wnt`` returns
bottom.  Soundness does not rest on the theorem: a state on an infinite
R-run starts R-runs of every length, so it lies in dom(R^m) for every m,
and every infinite R-run is a W-run too.  An empty W, or one with a
linear ranking function, has no infinite run, so R has none either.  When
the LP fails, the pass goes on to its last square.

That squaring is the costly step, and one loop asks for its WNT more than
once (``prove_termination`` after ``wnt``, ``nt_program`` for the same
cycle relation in several programs).  So ``wnt`` tight-closes its input
and looks the result up in a bounded memo keyed by the tight octagon and
N.  The key hashes only ints, INF and None, so the memo behaves the same
under every ``PYTHONHASHSEED``, and a hit returns what a cold call would
compute: the result does not depend on the process history.  W and its LP
solution sit in one more memo of the same kind (``witness``), which
``ranking.prove_termination`` reads: a well-founded loop costs one LP, and
``prove_termination`` composes nothing that ``wnt`` built.

The squares themselves are shared too.  A bounded store, keyed like the
WNT memo by the tight octagon and N, keeps the list of squares of R drawn
so far, and ``_squares`` reads it and squares only past its end.  So
``wnt``, the witness power R^(4N^2) and ``rel power`` all reach R^n along
one path, the product of the shared squares at the set bits of n, and no
square of one relation is drawn twice while its entry lives.  One request
works on a few relations at a time, so the store keeps ``_SQUARE_MEMO`` = 4
entries: a few dozen small matrices, not the memory of the WNT memo.  A
square is a function of its relation, so a stored one equals a fresh one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import Iterable, Iterator, NamedTuple

from .linarith import LinSys, farkas_template
from .octagon import (
    Octagon,
    bottom,
    lift_set_to_relation,
    oct_compose,
    oct_eq,
    oct_meet_raw,
    oct_rows,
    pre_image_set,
    relation_names,
    tight_close,
)

# Entries in the WNT memo and in the witness memo, as in ``program`` and
# ``presburger``.
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


def var_names(n_program_vars: int) -> list[str]:
    return relation_names(f"x{i}" for i in range(n_program_vars))


def oct_to_linsys(o: Octagon, names: list[str]) -> LinSys:
    """The tight constraint rows of an octagon as a linear system."""
    o = tight_close(o)
    if o.is_bottom:
        raise ValueError("cannot linearize the empty octagon")
    return LinSys(oct_rows(o, names), names)


def rank_lp(v: Octagon, n_program_vars: int) -> dict[str, Fraction] | None:
    """``farkas_template`` on the tight rows of a non-empty relation: the
    rational coefficients over the unprimed variables of a linear ranking
    function, or None when it has none."""
    N = n_program_vars
    names = var_names(N)
    return farkas_template(oct_to_linsys(v, names), names[:N], names[N:])


class Witness(NamedTuple):
    """W = R and dom(R^(4N^2)), tight (bottom when R^(4N^2) is empty), and
    ``rank_lp`` of W (None when W is bottom or has no ranking function)."""

    relation: Octagon
    ranking: dict[str, Fraction] | None

    @property
    def certifies(self) -> bool:
        """W proves R well founded: it is empty or has a ranking function."""
        return self.relation.is_bottom or self.ranking is not None


def witness(rel: Octagon, n_program_vars: int) -> Witness:
    """The witness of R and its LP, computed once per tight relation and N."""
    return _witness_tight(tight_close(rel), n_program_vars)


@lru_cache(maxsize=_MEMO)
def _witness_tight(rel: Octagon, N: int) -> Witness:
    """``witness`` of a tight-closed relation, with R^(4N^2) the product of
    the shared squares.  Over zero variables R^0 is the identity, so W = R."""
    w = rel
    if N and not rel.is_bottom:
        power = _product(_squares(rel, N), 4 * N * N, N)
        w = bottom(2 * N) if power.is_bottom else tight_close(oct_meet_raw(
            rel, lift_set_to_relation(pre_image_set(power, N), N, primed=False)))
    return Witness(w, None if w.is_bottom else rank_lp(w, N))


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
    """``wnt`` of a tight-closed relation, by one pass over the squares
    R^(2^k), k = 0 .. L + 1 with L = bit_length(5^(2N)): bottom when a
    square is empty or the witness certifies well-foundedness once its K
    squares are drawn, the pre-image set of two successive squares when
    they are equal (the chain has settled), and bottom after the last."""
    k_witness = (4 * N * N).bit_length()
    last = None  # pre-image set of the last square
    drawn = _squares(rel, N)
    for k in range((5 ** (2 * N)).bit_length() + 2):
        if k == k_witness and _witness_tight(rel, N).certifies:
            return WntResult(bottom(N))
        square = next(drawn)
        if square.is_bottom:
            return WntResult(bottom(N))
        pre = pre_image_set(square, N)
        if last is not None and oct_eq(pre, last):
            return WntResult(last)
        last = pre
    return WntResult(bottom(N))


def is_well_founded(rel: Octagon, n_program_vars: int) -> bool:
    return wnt(rel, n_program_vars).set.is_bottom
