"""Weakest non-termination sets of octagonal relations, in polynomial time.

The Kleene chain of pre-image sets of an octagonal relation over N
variables either never stabilizes (then the relation is well founded) or
stabilizes within 5^(2N) steps.  Comparing the pre-image sets of the
powers 5^(2N) and 5^(2N)+1 therefore decides everything; the first is
reached with logarithmically many tight compositions by binary
exponentiation, the second with one more.

That exponentiation is the costly step, and one loop asks for its WNT more
than once (``prove_termination`` after ``wnt``, ``nt_program`` for the
same cycle relation in several programs).  So ``wnt`` tight-closes its
input and looks the result up in a bounded memo keyed by the tight octagon
and N.  The key hashes only ints, INF and None, so the memo behaves the
same under every ``PYTHONHASHSEED``, and a hit returns what a cold call
would compute: the result does not depend on the process history.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .octagon import (
    Octagon,
    bottom,
    lift_set_to_relation,
    oct_compose,
    oct_eq,
    oct_meet_raw,
    pre_image_set,
    tight_close,
)

# Entries in the WNT memo, as in ``program`` and ``presburger``.
_MEMO = 1024


def fast_power(rel: Octagon, n: int, n_program_vars: int) -> Octagon:
    """The octagon of R^n by binary exponentiation (bottom if empty).

    Consistency is re-checked before every use of the running square, so
    an inconsistent intermediate power short-circuits the remaining work.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    N = n_program_vars
    square = tight_close(rel)
    acc: Octagon | None = None  # None encodes R^0 (identity), composed lazily
    while True:
        if n & 1:
            if square.is_bottom:
                return bottom(2 * N)
            acc = square if acc is None else oct_compose(acc, square, N)
            if acc.is_bottom:
                return bottom(2 * N)
        n >>= 1
        if n == 0:
            return acc
        if square.is_bottom:
            return bottom(2 * N)
        square = oct_compose(square, square, N)


@dataclass(frozen=True)
class WntResult:
    """wnt(R) as a tight octagon over the unprimed variables (bottom = WF)."""

    set: Octagon
    powers_used: tuple[int, int]
    stable: bool  # pre-image sets of the two probe powers coincide
    high_power_consistent: bool


def wnt(rel: Octagon, n_program_vars: int) -> WntResult:
    """Exact weakest non-termination set of an octagonal relation.

    Computed once per tight relation and N: the input is tight-closed and
    looked up in a memo of ``_MEMO`` entries.  Every caller gets the same
    result object, which, like every ``Octagon``, is never mutated.
    """
    return _wnt_tight(tight_close(rel), n_program_vars)


@lru_cache(maxsize=_MEMO)
def _wnt_tight(rel: Octagon, N: int) -> WntResult:
    """``wnt`` of a tight-closed relation: compare the pre-image sets of
    R^(5^(2N)) and R^(5^(2N)+1)."""
    n1 = 5 ** (2 * N)
    v = fast_power(rel, n1, N)
    w = oct_compose(v, rel, N)
    if w.is_bottom:
        return WntResult(bottom(N), (n1, n1 + 1), False, False)
    pv = pre_image_set(v, N)
    pw = pre_image_set(w, N)
    if not oct_eq(pv, pw):
        return WntResult(bottom(N), (n1, n1 + 1), False, True)
    return WntResult(pv, (n1, n1 + 1), True, True)


def is_well_founded(rel: Octagon, n_program_vars: int) -> bool:
    return wnt(rel, n_program_vars).set.is_bottom


def strengthen_check(rel: Octagon, m: int, n_program_vars: int) -> bool:
    """Test oracle: wnt(R) must equal wnt of the domain-strengthened relation."""
    N = n_program_vars
    base = wnt(rel, N).set
    power = fast_power(rel, m, N)
    if power.is_bottom:
        strengthened = bottom(2 * N)
    else:
        dom = pre_image_set(power, N)
        strengthened = tight_close(
            oct_meet_raw(tight_close(rel), lift_set_to_relation(dom, N, primed=False))
        )
    other = wnt(strengthened, N).set
    return oct_eq(base, other)


def local_recurrence_holds(rel: Octagon, n_program_vars: int) -> bool:
    """wnt(R) <= pre_R(wnt(R)): every wnt point has a successor in wnt."""
    from .octagon import oct_leq

    N = n_program_vars
    w = wnt(rel, N).set
    if w.is_bottom:
        return True
    step = oct_meet_raw(tight_close(rel), lift_set_to_relation(w, N, primed=True))
    pre = pre_image_set(tight_close(step), N)
    return oct_leq(w, pre)
