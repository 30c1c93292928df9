"""Linear ranking functions for octagonal relations.

A well-founded octagonal relation need not admit a linear ranking function
itself, but the strengthened witness relation R and exists x'. R^(4N^2)
always does.  Synthesis is the Podelski-Rybalchenko LP
(``linarith.farkas_template``) over the tight constraint rows of the
witness: tight octagons are integer-hull exact, so a rational function is
enough, and clearing denominators gives an integer function with
decrease >= 1.

The witness relation and its LP live in ``term_oct``, which decides
well-foundedness by them (``term_oct.witness``), and ``prove_termination``
reads them from its memo: after ``wnt``, a well-founded loop needs no
second LP and no composition.  ``synthesize_lrf`` runs the same LP on any
relation.  Both turn its rational solution into an integer witness the
same way.

A witness is read from one ``PolyhedronLP`` over the tight rows of the
relation: the exact decrease and lower bound are warm-started ``sup``s on
it, and the closing check of both ranking conditions runs on the same
tableau.  f is over the unprimed variables, so its infimum over the
relation is its infimum over the relation's domain, and no tableau over
the domain is needed.  The public ``verify_lrf`` builds its own tableau,
so it checks a witness independently of the search that found it.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import NamedTuple

from .linarith import LinTerm, PolyhedronLP
from .octagon import Octagon, tight_close
from .term_oct import oct_to_linsys, rank_lp, var_names, witness, wnt


class RankingWitness(NamedTuple):
    witness_relation: Octagon
    function: LinTerm  # integer coefficients over the unprimed variables
    decrease: int
    lower_bound: int


def witness_relation(rel: Octagon, n_program_vars: int) -> Octagon:
    """R strengthened with the domain of R^(4N^2); bottom when that dies."""
    return witness(rel, n_program_vars).relation


def _primed(f: LinTerm, n_program_vars: int) -> LinTerm:
    names = var_names(n_program_vars)
    return LinTerm(
        {names[n_program_vars + i]: f.coef(names[i]) for i in range(n_program_vars)},
        f.const,
    )


def synthesize_lrf(v: Octagon, n_program_vars: int) -> RankingWitness | None:
    """Find an integer linear ranking function for the relation v.

    Returns a RankingWitness, or None when v has no linear ranking
    function.  An empty v is ranked vacuously: its witness is v itself
    with the zero function, decrease 1 and lower bound 0.
    """
    v = tight_close(v)
    return _integer_lrf(v, None if v.is_bottom else rank_lp(v, n_program_vars),
                        n_program_vars)


def _integer_lrf(v: Octagon, r: dict[str, Fraction] | None,
                 N: int) -> RankingWitness | None:
    """The verified integer witness on a tight v from ``rank_lp``'s
    solution r on it (None when v is not empty and r is None)."""
    if v.is_bottom:
        return RankingWitness(v, LinTerm(), 1, 0)
    if r is None:
        return None
    f = LinTerm(r).scale_to_integers()
    lp = PolyhedronLP(oct_to_linsys(v, var_names(N)))
    # exact integer decrease inf(f - f') and lower bound inf f for the
    # scaled function, as sups of their negations
    delta = lp.sup(_primed(f, N) - f)
    assert delta is not None and delta < 0
    decrease_val = ceil(-delta)  # f is integer-valued on integer points
    low = lp.sup(-f)
    assert low is not None
    h = ceil(-low)
    found = RankingWitness(v, f, max(1, decrease_val), h)
    assert _ranks(lp, f, found.decrease, h, N)
    return found


def _ranks(lp: PolyhedronLP, f: LinTerm, decrease: int, h: int, N: int) -> bool:
    """f(x) - f(x') >= decrease and f(x) >= h on the relation of lp."""
    return (lp.entails_le(_primed(f, N) - f + decrease)
            and lp.entails_le(LinTerm({}, h) - f))


def verify_lrf(v: Octagon, f: LinTerm, decrease: int, h: int, n_program_vars: int) -> bool:
    """Both ranking conditions as exact entailments over the tight rows."""
    N = n_program_vars
    v = tight_close(v)
    if v.is_bottom:
        return True
    return _ranks(PolyhedronLP(oct_to_linsys(v, var_names(N))), f, decrease, h, N)


class WellFounded(NamedTuple):
    proof: RankingWitness


class NotWellFounded(NamedTuple):
    wnt_set: Octagon


def prove_termination(rel: Octagon, n_program_vars: int):
    """Decide well-foundedness; produce a verified ranking witness when WF.

    If the weakest non-termination set is empty, a ranking function must
    exist on the witness relation; failing to find one indicates a bug and
    aborts loudly.  The witness and its LP come from ``term_oct``'s memo,
    which ``wnt`` has filled whenever it decided by them.
    """
    N = n_program_vars
    res = wnt(rel, N)
    if not res.set.is_bottom:
        return NotWellFounded(res.set)
    w = witness(rel, N)
    found = _integer_lrf(w.relation, w.ranking, N)
    if found is None:
        raise AssertionError(
            "relation is well founded but no linear ranking function was "
            "found on the witness relation; synthesis completeness violated"
        )
    return WellFounded(found)
