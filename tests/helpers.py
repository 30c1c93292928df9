"""Shared constructors for the relations and programs used across tests,
and the oracles that only tests call."""

from __future__ import annotations

import importlib.util
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from operator import add, mul
from pathlib import Path
from typing import NamedTuple, Sequence

from octoterm.affine import AffineRel, Matrix, identity, mat, mat_mul, mat_vec
from octoterm.dbm import INF, Dbm, compose_closed, dbm_add_rate, ext_min
from octoterm.grammar import ParseError, Program, Transition, _classify
from octoterm.linarith import EQ, LE, LT, LinSys, LinTerm, PolyhedronLP, lp_feasible
from octoterm.octagon import (
    Octagon,
    bottom,
    halving_consistent,
    lift_set_to_relation,
    oct_compose,
    oct_decode,
    oct_encode,
    oct_eq,
    oct_exists,
    oct_leq,
    oct_meet_raw,
    pre_image_set,
    row_atom,
    tight_close,
)
from octoterm.pdbm import ExtParamDbm, Term, min_terms, param_fw
from octoterm.presburger import Conj, DivAtom, Dnf, conj_implies
from octoterm.program import (
    Budgets,
    Program,
    _image,
    _union_members,
    identity_member,
    member_cases,
    member_subsumed,
    transitive_relation,
)
from octoterm.ranking import oct_to_linsys, var_names
from octoterm.term_oct import WntResult, _product, _squares, fast_power, wnt

# Difference-bounds relation over x1..x4 whose pre-image sequence is the
# canonical periodic example (prefix 3, period 3, rate -1 on column 4).
# Variable indices: x1..x4 = 0..3, primed = 4..7.
PERIODIC_ATOMS = [
    (1, 1, -1, 4, -1),  # x2 - x1' <= -1
    (1, 2, -1, 5, 0),   # x3 - x2' <= 0
    (1, 0, -1, 6, 0),   # x1 - x3' <= 0
    (1, 7, -1, 3, 0),   # x4' - x4 <= 0
    (1, 6, -1, 3, 0),   # x3' - x4 <= 0
]


def clear_memos():
    """Empty every memo of ``program`` and ``presburger``."""
    from octoterm import presburger, program

    for module in (program, presburger):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def call_within(limit: int, what: str, fn, *args):
    """fn(*args) under a SIGALRM alarm of ``limit`` seconds, and its wall
    time: a return to non-convergence fails the test instead of hanging it."""
    import signal
    import time

    def expire(signum, frame):
        raise AssertionError(f"{what} did not finish within {limit}s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(limit)
    t0 = time.time()
    try:
        res = fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    return res, time.time() - t0


def _perfbench_module(name: str):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_gen():
    """The benchmark's request generators, ``perfbench/gen.py``."""
    return _perfbench_module("gen")


def perfbench_check():
    """The benchmark's reference checks, ``perfbench/check.py``."""
    return _perfbench_module("check")


def periodic_relation() -> Octagon:
    return oct_encode(PERIODIC_ATOMS, 8)


# Octagonal relation over (x1, x2): x1+x2 <= 5, x1'-x1 <= -2, x2'-x2 <= -3,
# x2'-x1' <= 1.  Indices: x1=0, x2=1, x1'=2, x2'=3.
TIGHT_EXAMPLE_ATOMS = [
    (1, 0, 1, 1, 5),
    (1, 2, -1, 0, -2),
    (1, 3, -1, 1, -3),
    (1, 3, -1, 2, 1),
]


def tight_example_relation() -> Octagon:
    return oct_encode(TIGHT_EXAMPLE_ATOMS, 4)


TIGHT_EXAMPLE_GOLDEN = [
    [0, INF, INF, 5, INF, INF, INF, 2],
    [INF, 0, INF, INF, INF, -2, INF, -1],
    [INF, 5, 0, INF, INF, 3, INF, 4],
    [INF, INF, INF, 0, INF, INF, INF, -3],
    [-2, INF, INF, 3, 0, INF, INF, 0],
    [INF, INF, INF, INF, INF, 0, INF, 1],
    [-1, 2, -3, 4, 1, 0, 0, 0],
    [INF, INF, INF, INF, INF, INF, INF, 0],
]


def seven_branch_relations():
    """The seven summary disjuncts of the three-branch program, over (x, y).

    Indices: x=0, y=1, x'=2, y'=3.
    """

    def enc(atoms):
        return oct_encode(atoms, 4)

    r1 = enc([(1, 0, 1, 0, -2), (1, 3, -1, 0, 0), (1, 3, -1, 2, 1), (-1, 3, 1, 2, -1)])
    r2 = enc([(-1, 3, -1, 3, -2), (1, 3, -1, 0, 0), (1, 3, -1, 2, 1), (-1, 3, 1, 2, -1)])
    r3 = enc([(-1, 3, -1, 3, 0), (1, 3, -1, 1, -1), (1, 0, -1, 2, 0), (-1, 0, 1, 2, 0),
              (1, 2, 1, 2, -2)])
    r4 = enc([(-1, 2, -1, 2, -2), (1, 0, -1, 2, 0), (-1, 0, 1, 2, 0),
              (-1, 3, -1, 3, 0), (1, 3, -1, 1, -1)])
    r5 = enc([(1, 0, -1, 2, 0), (-1, 0, 1, 2, 0), (1, 2, 1, 2, -2),
              (1, 1, -1, 3, 0), (-1, 1, 1, 3, 0), (1, 3, 1, 3, 0)])
    r6 = enc([(-1, 2, -1, 2, -2), (1, 0, -1, 2, 0), (-1, 0, 1, 2, 0),
              (1, 1, -1, 3, 0), (-1, 1, 1, 3, 0), (1, 3, 1, 3, 0)])
    r7 = enc([(-1, 2, -1, 2, -2), (-1, 3, -1, 3, 0), (1, 2, -1, 0, -1), (1, 3, -1, 2, 0)])
    return [r1, r2, r3, r4, r5, r6, r7]


BRANCHING_PROGRAM = """
vars x, y;
init l1;
l1 -> l2 : x != 0 && id(x,y);
l2 -> l3 : id(x,y);
l3 -> l4 : y' == x && x' == x;
l4 -> l1 : x' == x - 1 && y' == y;
l2 -> l5 : id(x,y);
l5 -> l6 : y > 0 && id(x,y);
l6 -> l1 : y' == y - 1 && x' == x;
l5 -> l7 : y <= 0 && id(x,y);
l7 -> l1 : id(x,y);
l1 -> l8 : x == 0 && id(x,y);
"""

# BRANCHING with x' == x - 2: the l1 cycle through l4 keeps x's parity
STEP_2_BRANCHING_PROGRAM = BRANCHING_PROGRAM.replace("x' == x - 1", "x' == x - 2")


def one_phase_ramp(step: str) -> str:
    """A one-phase ramp: x climbs to m0 while y moves by ``step`` 1."""
    return (
        "vars x, y, y0, m0;\n"
        "init l0;\n"
        "l0 -> l1 : y0' == y && id(x, y, m0);\n"
        f"l1 -> l1 : x < m0 && x' == x + 1 && y' == y {step} 1 && id(y0, m0);\n"
        "l1 -> l2 : x >= m0 && id(x, y, y0, m0);\n"
        "l2 -> l2 : y == y0 && id(x, y, y0, m0);\n"
        "l2 -> l3 : y != y0 && id(x, y, y0, m0);\n"
    )


TWO_PHASE_PROGRAM = """
vars x, y, y0, m, n;
init l1;
l1 -> l2 : y0' == y && id(x, y, m, n);
l2 -> l2 : x < m && x' == x + 1 && y' == y + 1 && id(m, n, y0);
l2 -> l5 : x >= m && id(x, y, m, n, y0);
l5 -> l5 : x < n && x' == x + 1 && y' == y - 1 && id(m, n, y0);
l5 -> l8 : x >= n && id(x, y, m, n, y0);
l8 -> l8 : y == y0 && id(x, y, m, n, y0);
l8 -> l10 : y != y0 && id(x, y, m, n, y0);
"""


def _cycle_rows(cycles) -> list[str]:
    """``xi' == xj`` for each variable index i and its successor j round
    each of the cycles."""
    return [f"x{i}' == x{j}" for cyc in map(list, cycles)
            for i, j in zip(cyc, cyc[1:] + cyc[:1])]


# x' = P x for the permutation P of 23 variables with cycles of lengths 3,
# 5, 7 and 8: its powers first repeat at the 840th, past a scan of 512
ORDER_840_LOOP = " && ".join(
    _cycle_rows([range(0, 3), range(3, 8), range(8, 15), range(15, 23)]) + ["x0 >= 0"])

# the same with the 3-cycle replaced by the order-3 rotation x0' = x1,
# x1' = -x0 - x1, which is not octagonal, so the label stays affine
ORDER_840_PROGRAM = "vars {}; init a; a -> a : {};".format(
    ", ".join(f"x{i}" for i in range(22)),
    " && ".join(["x0' == x1", "x1' == -x0 - x1"]
                + _cycle_rows([range(2, 7), range(7, 14), range(14, 22)]) + ["x0 >= 0"]))


def random_oct_relation(rng: random.Random, n_vars: int, max_coef: int = 4,
                        n_atoms: int | None = None) -> Octagon:
    """Random octagonal relation over (x, x'); may be inconsistent."""
    atoms = []
    total = n_atoms if n_atoms is not None else rng.randint(2, 2 * n_vars + 3)
    for _ in range(total):
        i = rng.randrange(2 * n_vars)
        j = rng.randrange(2 * n_vars)
        si = rng.choice((1, -1))
        sj = rng.choice((1, -1))
        if i == j and si != sj:
            sj = si
        atoms.append((si, i, sj, j, rng.randint(-max_coef, max_coef)))
    return oct_encode(atoms, 2 * n_vars)


def random_guarded_relation(rng: random.Random, n_vars: int, max_coef: int = 4) -> Octagon:
    """Random relation biased toward consistency: per-variable updates with
    octagonal guards, closer to loop bodies."""
    atoms = []
    for i in range(n_vars):
        d = rng.randint(-2, 2)
        style = rng.randrange(3)
        if style == 0:
            # x'_i = x_i + d
            atoms.append((1, n_vars + i, -1, i, d))
            atoms.append((-1, n_vars + i, 1, i, -d))
        elif style == 1:
            atoms.append((1, n_vars + i, -1, i, d))  # x'_i <= x_i + d
        else:
            atoms.append((-1, n_vars + i, 1, i, d))  # x'_i >= x_i - d
    for _ in range(rng.randint(0, n_vars + 1)):
        i = rng.randrange(n_vars)
        j = rng.randrange(n_vars)
        si = rng.choice((1, -1))
        sj = rng.choice((1, -1))
        if i == j and si != sj:
            sj = si
        atoms.append((si, i, sj, j, rng.randint(-max_coef, max_coef)))
    return oct_encode(atoms, 2 * n_vars)



def flip_decrement_relation(rng: random.Random, n_vars: int) -> Octagon:
    """x_i' == d - x_i (a sign flip) or x_i' == x_i - d per variable, d in
    0..2, sometimes a box lo <= x_i <= hi, and a few octagonal atoms over
    (x, x'), all constants in [-60, 60]: relations that often die, or
    settle into a period late."""
    atoms = []
    for i in range(n_vars):
        d = rng.randint(0, 2)
        if rng.random() < 0.5:
            atoms += [(1, n_vars + i, 1, i, d), (-1, n_vars + i, -1, i, -d)]
        else:
            atoms += [(1, n_vars + i, -1, i, -d), (-1, n_vars + i, 1, i, d)]
        if rng.random() < 0.3:
            lo = rng.randint(-60, 30)
            atoms += [(-1, i, -1, i, -2 * lo), (1, i, 1, i, 2 * rng.randint(lo, 60))]
    for _ in range(rng.randint(1, n_vars + 2)):
        i, j = rng.randrange(2 * n_vars), rng.randrange(2 * n_vars)
        si, sj = rng.choice((1, -1)), rng.choice((1, -1))
        if i == j:
            sj = si
        atoms.append((si, i, sj, j, rng.randint(-60, 60)))
    return oct_encode(atoms, 2 * n_vars)

# -- oracles ----------------------------------------------------------------------


def entails(sys: LinSys, row: tuple[LinTerm, str]) -> bool:
    """True iff every rational solution of sys satisfies the row ``t <= 0``
    or ``t == 0``: ``sup t <= 0``, and for ``==`` also ``sup -t <= 0``,
    over one tableau.  That is, ``sys && t > 0`` (and ``sys && t < 0``)
    has no rational point; vacuous when sys is empty."""
    t, rel = row
    if rel not in (LE, EQ):
        raise ValueError(f"bad relation {rel!r}: rows are <= or ==")
    poly = PolyhedronLP(sys)
    return poly.entails_le(t) and (rel == LE or poly.entails_le(-t))


def fm_feasible(rows: Sequence[tuple[LinTerm, str]]) -> bool:
    """Rational feasibility by Fourier-Motzkin elimination (oracle for the simplex).

    Every row is scaled by a positive factor so that its first variable has
    coefficient +1 or -1, and of the rows with one variable part only the
    strongest is kept: the largest constant, ``<`` before ``<=`` at an equal
    constant.  The others are implied, so the oracle stays exact while the
    parallel rows that elimination makes do not pile up.  A row without
    variables is settled at once.
    """
    work: dict[frozenset, tuple[LinTerm, str]] = {}

    def add(t: LinTerm, rel: str) -> bool:
        """Keep ``t rel 0``; False when it is a constant row that fails."""
        if not t.coeffs:
            return t.const < 0 if rel == LT else t.const <= 0
        t = t * Fraction(1, abs(t.coef(min(t.coeffs))))
        key = frozenset(t.coeffs.items())
        kept = work.get(key)
        if kept is None or (t.const, rel == LT) > (kept[0].const, kept[1] == LT):
            work[key] = (t, rel)
        return True

    for t, rel in rows:
        if rel == EQ:
            if not (add(t, LE) and add(-t, LE)):
                return False
        elif not add(t, rel):
            return False
    while work:
        # the least variable leads every row it occurs in, with coefficient +-1
        v = min(v for key in work for v, _ in key)
        current, work = list(work.values()), {}
        pos = [(t, rel) for t, rel in current if t.coef(v) > 0]
        neg = [(t, rel) for t, rel in current if t.coef(v) < 0]
        for t, rel in current:
            if not t.coef(v):
                add(t, rel)
        for tp, rp in pos:
            for tn, rn in neg:
                if not add(tp + tn, LT if LT in (rp, rn) else LE):
                    return False
    return True


def template_lrf(sys: LinSys, pre: Sequence[str],
                 post: Sequence[str]) -> dict[str, Fraction] | None:
    """The template search for a linear ranking function, as a reference
    for ``linarith.farkas_template``: the coefficients over ``pre`` of a
    function with ``f - f' >= 1`` and ``f >= h`` on sys, or None.

    The coefficients ``_a_v`` and the bound ``_h`` are free unknowns.  Each
    of the two template rows ``coeffs . x + const <= 0`` must be derived as
    a nonnegative combination of the system rows (``==`` rows get sign-free
    multipliers), so one exact LP over the unknowns and both rows'
    multipliers decides the search.
    """
    a = {v: LinTerm.var("_a_" + v) for v in pre}
    decrease = ({**{v: -a[v] for v in pre}, **{vp: a[v] for v, vp in zip(pre, post)}},
                LinTerm.of(1))
    bounded = ({v: -a[v] for v in pre}, LinTerm.var("_h"))
    meta_rows: list = []
    nonneg: list[str] = []
    sys_vars = set().union(*(t.coeffs for t, _ in sys.rows))
    for r_idx, (coeffs, const) in enumerate((decrease, bounded)):
        lams = [f"_lam{r_idx}_{i}" for i in range(len(sys.rows))]
        nonneg += [lam for lam, (_, rel) in zip(lams, sys.rows) if rel == LE]
        # coefficient matching: sum_i lam_i * a_i[v] - coeffs[v](u) == 0
        match: dict[str, dict[str, object]] = {v: {} for v in sorted(sys_vars | coeffs.keys())}
        for lam, (t, _) in zip(lams, sys.rows):
            for v, c in t.coeffs.items():
                match[v][lam] = c
        for v, row in match.items():
            u = coeffs.get(v, LinTerm())
            for k, c in u.coeffs.items():
                row[k] = row.get(k, 0) - c
            meta_rows.append((LinTerm(row, -u.const), EQ))
        # coeffs(u).v = sum lam_i*a_i.v <= sum lam_i*b_i <= -const(u)
        bound = LinTerm({lam: -t.const for lam, (t, _) in zip(lams, sys.rows)})
        meta_rows.append((bound + const, LE))
    model = lp_feasible(LinSys(meta_rows), nonneg)
    if model is None:
        return None
    return {v: model.get("_a_" + v, Fraction(0)) for v in pre}


def strengthen_check(rel: Octagon, m: int, n_program_vars: int) -> bool:
    """wnt(R) must equal wnt of R strengthened with the domain of R^m."""
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
    N = n_program_vars
    w = wnt(rel, N).set
    if w.is_bottom:
        return True
    step = oct_meet_raw(tight_close(rel), lift_set_to_relation(w, N, primed=True))
    pre = pre_image_set(tight_close(step), N)
    return oct_leq(w, pre)


def domain_sup(v: Octagon, obj: LinTerm, n_program_vars: int) -> Fraction | None:
    """The supremum of obj, over the unprimed variables, on the tight rows
    of the domain of the relation v: None when the domain is empty or obj
    is unbounded there.  The projection bound that ``ranking`` reads off
    v's own rows."""
    proj = pre_image_set(tight_close(v), n_program_vars)
    if proj.is_bottom:
        return None
    sys = oct_to_linsys(proj, var_names(n_program_vars)[: n_program_vars])
    return PolyhedronLP(sys).sup(obj)


def is_bounded_below(v: Octagon, f: LinTerm, n_program_vars: int) -> bool:
    """f has a rational infimum on the domain of the relation v."""
    return (pre_image_set(tight_close(v), n_program_vars).is_bottom
            or domain_sup(v, -f, n_program_vars) is not None)


def reach_set(p: Program, q: str, budgets: Budgets | None = None) -> tuple[Dnf, bool]:
    """Post-image of the universal set under P*(init, q), as a DNF over x."""
    members, exact = transitive_relation(p, p.init, q, budgets)
    return _image(members, Dnf([Conj.make([])]), True, q == p.init), exact


def eliminate_params(u, variables) -> Dnf:
    """Quantifier-free DNF equivalent to the union of a closure's members
    (a ``closure.ParamOctUnion``)."""
    out = Dnf([identity_member(tuple(variables)).conj])
    for m in _union_members(u, tuple(variables)):
        for conj in member_cases(m):
            out.add(conj)
    return out


def compose_matrix(a: Dbm, b: Dbm, half: int) -> Dbm:
    """Assemble the 3-block matrix gluing relation DBMs a and b.

    Both arguments are 2*half x 2*half matrices over (v, v'); the middle
    block is min(bottom-right of a, top-left of b).  Closing the result
    with every pivot and erasing the middle rows/columns yields the
    composition a o b: the full Floyd-Warshall reference of
    ``dbm.closed_glued_rows``.
    """
    n = half
    pad = [INF] * n
    rows = [ra + pad for ra in a.rows[:n]]
    for ra, rb in zip(a.rows[n:], b.rows[:n]):
        rows.append(ra[:n] + [min(x, y) for x, y in zip(ra[n:], rb[:n])] + rb[n:])
    rows.extend(pad + rb for rb in b.rows[n:])
    return Dbm(rows)


def eval_at(m: ExtParamDbm, valuation: Sequence[int]) -> Dbm:
    """Instantiate a parametric DBM: entry = min over term values, INF for
    empty sets."""
    if len(valuation) != m.nparams:
        raise ValueError("valuation arity mismatch")
    return Dbm([[min(sum(map(mul, t[1:], valuation), t[0]) for t in terms) if terms else INF
                 for terms in erow] for erow in m.entries])


def _interpolate(points: list[tuple[int, Fraction]]) -> list[Fraction]:
    """Lagrange interpolation through the points, coefficients ascending,
    one basis polynomial built per point."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for idx, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for jdx, (xj, _) in enumerate(points):
            if jdx == idx:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] -= c * xj
                nxt[d + 1] += c
            basis = nxt
            denom *= xi - xj
        scale = yi / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def reference_poly_matrix_power(a):
    """(polys, prefix) of ``affine.poly_matrix_power`` by the direct
    construction: every sample power by its own ``mat_pow``, and every
    entry interpolated on its own."""
    from octoterm.affine import _poly_eval, _unity_order, identity, mat_mul, mat_pow

    n = len(a)
    L = _unity_order(a)
    prefix = [identity(n)]
    for _ in range(n + L):
        prefix.append(mat_mul(prefix[-1], a))
    polys = []
    for r in range(L):
        k0 = 0
        while k0 * L + r < n:
            k0 += 1
        pts_k = list(range(k0, k0 + n))
        extra = list(range(k0 + n, k0 + n + 3))
        powers = {k: mat_pow(a, k * L + r) for k in pts_k + extra}
        grid = []
        for i in range(n):
            row = []
            for j in range(n):
                p = _interpolate([(k, Fraction(powers[k][i][j])) for k in pts_k])
                assert all(_poly_eval(p, k) == powers[k][i][j] for k in extra)
                row.append(p)
            grid.append(row)
        polys.append(grid)
    return polys, prefix


def char_poly(a: Matrix) -> list[Fraction]:
    """Coefficients of det(xI - A), ascending order, by Faddeev-LeVerrier.

    Over an integer matrix every M_k and c_k is an integer (c_(n-k) is a
    coefficient of the characteristic polynomial), so the division by k is
    exact and the recurrence runs in ints.
    """
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A*M_{k-1} + c_{n-k+1} I ; c_{n-k} = -tr(A*M_k)/k
        m = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        tr = sum(sum(a[i][t] * m[t][i] for t in range(n)) for i in range(n))
        assert tr % k == 0, "Faddeev-LeVerrier division is not exact"
        coeffs[n - k] = -tr // k
    return [Fraction(c) for c in coeffs]


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(v != 0 for v in num):
        if num[-1] == 0:
            num.pop()
            continue
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        q[shift] = factor
        for i, dv in enumerate(den):
            num[shift + i] -= factor * dv
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return q, num


def _poly_deriv(p: list[Fraction]) -> list[Fraction]:
    return [p[i] * i for i in range(1, len(p))]


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    while b and any(v != 0 for v in b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [v / lead for v in a]
    return a


def reference_unity_order(a):
    """``affine._unity_order`` by the characteristic polynomial: the least L
    up to ``_order_lcm(N)`` with x^L = 1 modulo the squarefree part of the
    characteristic polynomial (its factor x^m dropped), the residue of x^L
    taken one power of x at a time by long division."""
    from octoterm.affine import _order_lcm

    n = len(a)
    if n == 0:
        return 1
    p = char_poly(a)
    while p and p[0] == 0:
        p = p[1:]
    if len(p) == 1:
        return 1
    sf = _poly_divmod(p, _poly_gcd(p, _poly_deriv(p)))[0]
    residue = [Fraction(1)]
    for L in range(1, _order_lcm(n) + 1):
        residue = _poly_divmod([Fraction(0)] + residue, sf)[1]
        if residue == [Fraction(1)]:
            return L
    return None


def power_cycle(a: Matrix, bound: int = 512):
    """(prefix, period) of the power sequence; None if no repeat in bound."""
    seen: dict[Matrix, int] = {}
    cur = identity(len(a))
    for i in range(bound):
        if cur in seen:
            start = seen[cur]
            return start, i - start
        seen[cur] = i
        cur = mat_mul(cur, a)
    return None


def trajectory_offsets(rel: AffineRel, upto: int) -> list[tuple[int, ...]]:
    """s_k = sum_{j<k} A^j b for k = 0..upto."""
    n = rel.n_vars
    out = [tuple(0 for _ in range(n))]
    power = identity(n)
    for _ in range(upto):
        step = mat_vec(power, rel.b)
        out.append(tuple(x + y for x, y in zip(out[-1], step)))
        power = mat_mul(power, rel.a)
    return out


def reference_wnt(rel: Octagon, N: int) -> WntResult:
    """``term_oct.wnt`` without the witness exit: the pass over the squares
    toward the probe power n1 = 5^(2N), which stops only when a square is
    empty or two successive squares have equal pre-image sets, then the
    probe powers n1 and n1 + 1."""
    rel = tight_close(rel)
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


@lru_cache(maxsize=None)
def _reference_subsumed(a, b) -> bool:
    """``program.member_subsumed`` with the test at equal parameters that
    all-pairs saturation needs to converge on step-3 and step-4 BRANCHING:
    when a and b have the same parameters, a's rows with ``p >= 0``
    implying b's is enough, since a witness of a then witnesses b."""
    if a.params and a.params == b.params:
        ca = Conj.make(a.system().rows, a.conj.divs)
        if ca is None or conj_implies(ca, b.conj):
            return True
    return member_subsumed(a, b)


def reference_star_members(loops, variables, budgets: Budgets):
    """``program._star_members`` by all-pairs saturation: each round
    composes every member with every frontier member, in both orders, so
    round r reaches words of up to 2^r generators."""
    from octoterm.closure import reflexive_transitive_closure
    from octoterm.octagon import oct_hull
    from octoterm.program import (
        _accelerate_member,
        _dedupe,
        compose_members,
        member_to_octagon,
    )

    exact = True
    exhausted = False
    base = []
    for m in loops:
        acc, ex, bx = _accelerate_member(m, budgets)
        exact = exact and ex
        exhausted = exhausted or bx
        base.extend(acc)
    members = _dedupe(base)
    frontier = list(members)
    rounds = 0
    while frontier and rounds < 16:
        rounds += 1
        new = []
        for a in members:
            for b in frontier:
                for pair in ((a, b), (b, a)):
                    for cand in compose_members(*pair):
                        if any(_reference_subsumed(cand, o) for o in members):
                            continue
                        if any(_reference_subsumed(cand, o) for o in new):
                            continue
                        new.append(cand)
        if not new:
            return tuple(_dedupe(members)), exact, exhausted
        members = _dedupe(members + new)
        frontier = new
        if len(members) > budgets.max_disjuncts:
            break
    hull = oct_hull([member_to_octagon(m)[0] for m in loops])
    closure = reflexive_transitive_closure(
        hull, len(variables), budgets.max_prefix, budgets.max_period
    )
    return tuple(_union_members(closure, variables)), False, True


def reference_dedupe_star_members(loops, variables, budgets: Budgets):
    """``program._star_members`` as it was when each round rebuilt the
    antichain of all members (``_dedupe(members + new)``), where a round now
    only drops the old members that a new one subsumes."""
    from octoterm.closure import reflexive_transitive_closure
    from octoterm.octagon import oct_hull
    from octoterm.program import _accelerate_member, _dedupe, compose_members, member_to_octagon

    exact = True
    exhausted = False
    base = []
    for m in loops:
        acc, ex, bx = _accelerate_member(m, budgets)
        exact = exact and ex
        exhausted = exhausted or bx
        base.extend(acc)
    gens = _dedupe(base)
    if len(loops) == 1 and exact:
        return tuple(gens), exact, exhausted
    members = list(gens)
    frontier = list(gens)
    rounds = 0
    while frontier and rounds < 16:
        rounds += 1
        new = []
        for g in gens:
            for b in frontier:
                for cand in compose_members(b, g):
                    if any(member_subsumed(cand, o) for o in members):
                        continue
                    if any(member_subsumed(cand, o) for o in new):
                        continue
                    new.append(cand)
        if not new:
            return tuple(_dedupe(members)), exact, exhausted
        members = _dedupe(members + new)
        frontier = new
        if len(members) > budgets.max_disjuncts:
            break
    hull = oct_hull([member_to_octagon(m)[0] for m in loops])
    closure = reflexive_transitive_closure(
        hull, len(variables), budgets.max_prefix, budgets.max_period
    )
    return tuple(_union_members(closure, variables)), False, True


def elementary_cycles(p: Program) -> list[list[Transition]]:
    """All elementary cycles, as edge sequences (parallel edges distinct),
    each from its first state in ``p.states`` order.  There can be
    exponentially many, so only tests list them."""
    cycles = []
    order = {s: i for i, s in enumerate(p.states)}
    by_src: dict[str, list[Transition]] = {}
    for t in p.transitions:
        by_src.setdefault(t.source, []).append(t)

    def dfs(start: str, node: str, path: list[Transition], seen: set[str]):
        for t in by_src.get(node, []):
            if t.target == start:
                cycles.append(path + [t])
            elif t.target not in seen and order[t.target] > order[start]:
                seen.add(t.target)
                dfs(start, t.target, path + [t], seen)
                seen.remove(t.target)

    for s in p.states:
        dfs(s, s, [], {s})
    return cycles


def reference_cycle_cover(p: Program) -> list[tuple[str, list[tuple[Transition, ...]]]]:
    """A greedy cycle cover over the listed elementary cycles, the one
    ``program._structure`` gives a flat program: the state on the most
    uncovered cycles, sorted-first on ties, until every cycle is covered;
    the states sorted, each with the cycles through it."""
    cycles = [tuple(c) for c in elementary_cycles(p)]
    chosen: list[str] = []
    uncovered = list(range(len(cycles)))
    while uncovered:
        best = max(sorted(p.states),
                   key=lambda s: sum(1 for i in uncovered if any(t.source == s for t in cycles[i])))
        chosen.append(best)
        uncovered = [i for i in uncovered if all(t.source != best for t in cycles[i])]
    return [(q, [c for c in cycles if any(t.source == q for t in c)]) for q in sorted(chosen)]


def reference_is_flat(p: Program) -> bool:
    """``program.is_flat``'s verdict from the listed elementary cycles: no
    state on two of them, and each, from its first state in ``p.states``
    order, composes inside the octagonal or finite-monoid fragment."""
    from octoterm.program import _cycle_single_class

    cycles = [tuple(c) for c in elementary_cycles(p)]
    sources = [t.source for c in cycles for t in c]
    return (len(sources) == len(set(sources))
            and all(_cycle_single_class(p, c) is not None for c in cycles))


def is_acyclic(states, transitions) -> bool:
    """Whether the edges between ``states`` close no cycle, so that no
    strongly connected component of them is cyclic: Kahn's topological
    sort removes every state."""
    out: dict[str, list[str]] = {s: [] for s in states}
    indeg = dict.fromkeys(out, 0)
    for t in transitions:
        if t.source in out and t.target in out:
            out[t.source].append(t.target)
            indeg[t.target] += 1
    ready = [s for s, d in indeg.items() if d == 0]
    removed = 0
    while ready:
        removed += 1
        for s in out[ready.pop()]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    return removed == len(out)


def reference_ielim(rows, divs, v: str, depth: int = 0):
    """``presburger._ielim`` as it was when it normalized every case on
    entry, whoever built it, so each case a previous step had normalized
    was normalized again."""
    from math import lcm

    from octoterm.presburger import _add_new_cases, _case_key, _finish, _inorm, _isubst

    if depth > 12:
        raise RecursionError("integer elimination did not converge")
    norm = _inorm(rows, divs)
    if norm is None:
        return []
    rows, divs = norm
    if not any(v in cs for cs, _, _ in rows) and not any(v in cs for _, cs, _ in divs):
        return [(rows, divs)]
    div_mods = [m for m, cs, _ in divs if v in cs]
    if div_mods:
        m = lcm(*div_mods)
        out = []
        w = f"_q{depth}"
        for r in range(m):
            srows, sdivs = _isubst(rows, divs, v, {w: m}, r)
            out.extend(reference_ielim(srows, sdivs, w, depth + 1))
        return out
    eq_idx = [i for i, (cs, c0, rel) in enumerate(rows) if rel == EQ and cs.get(v)]
    if eq_idx:
        pick = min(eq_idx, key=lambda i: abs(rows[i][0][v]))
        cs, c0, _ = rows[pick]
        c = cs[v]
        if c < 0:
            cs, c0, c = {w: -cc for w, cc in cs.items()}, -c0, -c
        rest_cs = {w: -cc for w, cc in cs.items() if w != v}
        rest_c0 = -c0
        base_rows = [r for i, r in enumerate(rows) if i != pick]
        if c == 1:
            return _finish(*_isubst(base_rows, divs, v, rest_cs, rest_c0))
        nrows = [(rcs, rc0, rel) if not rcs.get(v, 0)
                 else ({w: c * cc for w, cc in rcs.items()}, c * rc0, rel)
                 for rcs, rc0, rel in base_rows]
        ndivs = [(m, dcs, dc0) if not dcs.get(v, 0)
                 else (m * c, {w: c * cc for w, cc in dcs.items()}, c * dc0)
                 for m, dcs, dc0 in divs]
        nrows, ndivs = _isubst(nrows, ndivs, v, rest_cs, rest_c0, scale=c)
        ndivs.append((c, rest_cs, rest_c0))
        return _finish(nrows, ndivs)
    lowers, uppers, rest = [], [], []
    for cs, c0, rel in rows:
        c = cs.get(v, 0)
        if not c:
            rest.append((cs, c0, rel))
        elif c > 0:
            uppers.append((c, {w: -cc for w, cc in cs.items() if w != v}, -c0))
        else:
            lowers.append((-c, {w: cc for w, cc in cs.items() if w != v}, c0))
    if not lowers or not uppers:
        return _finish(rest, divs)

    def shadow(extra: int):
        srows = list(rest)
        for b, lcs, lc0 in lowers:
            for a, ucs, uc0 in uppers:
                cs2: dict = {}
                for w, cc in lcs.items():
                    cs2[w] = cs2.get(w, 0) + a * cc
                for w, cc in ucs.items():
                    cs2[w] = cs2.get(w, 0) - b * cc
                srows.append((cs2, a * lc0 - b * uc0 + extra * (a - 1) * (b - 1), LE))
        return srows

    if all(a == 1 or b == 1 for b, _, _ in lowers for a, _, _ in uppers):
        return _finish(shadow(0), divs)
    out = _finish(shadow(1), divs)
    seen = {_case_key(piece) for piece in out}
    a_max = max(a for a, _, _ in uppers)
    for b, lcs, lc0 in lowers:
        for r in range((a_max * b - a_max - b) // a_max + 1):
            eq_cs = dict(lcs)
            eq_cs[v] = -b
            case_rows = rows + [(eq_cs, lc0 + r, EQ)]
            _add_new_cases(out, seen, reference_ielim(case_rows, divs, v, depth + 1))
    return out


def reference_conj_implies(a: Conj, b: Conj) -> bool:
    """``presburger.conj_implies`` for a conjunct a whose rows are not all
    octagonal, on a fresh tableau of a's rows and without the early
    rejection at a model.  A divisibility atom m | t of b holds when a has
    it or a's rows fix t - s, for s = 0 or an atom m' | s of a with m | m',
    to a multiple of m (coefficients m divides left out): the value is read
    at a rational model of a, evaluated in Fractions."""
    poly = PolyhedronLP(a.to_linsys())
    w = poly.model()

    def fixed_multiple(d) -> bool:
        if w is None:
            return True
        m = d.modulus
        for s in [LinTerm()] + [e.term for e in a.divs if e.modulus % m == 0]:
            diff = d.term - s
            diff = LinTerm({v: c for v, c in diff.coeffs.items() if c % m}, diff.const)
            if any(v not in w for v in diff.coeffs):
                continue
            c = diff.eval(w)
            if (c.denominator == 1 and c.numerator % m == 0
                    and poly.entails_le(diff - c) and poly.entails_le(c - diff)):
                return True
        return False

    if not all(d in a.divs or fixed_multiple(d) for d in b.divs):
        return False
    avars = a.variables()
    return all(all(v in avars for v in t.coeffs) and poly.entails_le(t)
               and (rel != EQ or poly.entails_le(-t)) for t, rel in b.rows)


def reference_rename(conj: Conj, mapping) -> Conj | None:
    """``Conj.subst`` as it was, on a renaming: each term rebuilt by
    ``LinTerm`` arithmetic with every variable v read as mapping.get(v, v),
    and the rows and atoms normalized again by ``Conj.make``."""
    def sub(t: LinTerm) -> LinTerm:
        out = LinTerm({}, t.const)
        for v, c in t.coeffs.items():
            out = out + c * LinTerm({mapping.get(v, v): 1})
        return out

    return Conj.make([(sub(t), rel) for t, rel in conj.rows],
                     [DivAtom(d.modulus, sub(d.term)) for d in conj.divs])


def reference_eliminate_all(conj: Conj, targets, nonneg=()) -> Dnf:
    """``presburger.eliminate_all`` over ``reference_ielim``: the input is
    not normalized until the first target's elimination does it."""
    from octoterm.presburger import _add_new_cases, _conj

    rows, divs = conj.irows()
    rows += [({v: -1}, 0, LE) for v in nonneg]
    work = [(rows, divs)]
    for v in targets:
        nxt: list = []
        seen: set = set()
        for rs, ds in work:
            _add_new_cases(nxt, seen, reference_ielim(rs, ds, v))
        work = nxt
    return Dnf(_conj(rs, ds) for rs, ds in work)


# -- the parametric glue and tightening -----------------------------------
#
# The composition of two closed parametric relations, as the certificate
# replay below and the tightening reference of test_closure build it.  The
# package composes summary members by integer elimination instead, so these
# kernels live here.


def glue(a: ExtParamDbm, b: ExtParamDbm) -> ExtParamDbm:
    """The 3-block matrix over (x, x', x'') of the composition of two
    relation matrices over (x, x') with the same parameters: a on the first
    two blocks, b on the last two, and the middle block the pointwise
    minimum of a's primed and b's unprimed block."""
    blk = a.dim // 2
    pad = [()] * blk
    glued = [[*ra, *pad] for ra in a.entries[:blk]]
    for ra, rb in zip(a.entries[blk:], b.entries[:blk]):
        mid = []
        for x, y in zip(ra[blk:], rb[:blk]):
            both = x + y
            mid.append(min_terms(both) if len(both) > 1 else both)
        glued.append([*ra[:blk], *mid, *rb[blk:]])
    glued += [[*pad, *rb] for rb in b.entries[blk:]]
    return ExtParamDbm(3 * blk, a.nparams, glued)


def param_tighten(entries, dim: int, keep: Sequence[int] | None = None) -> list:
    """Parametric tight closure of closed entries, one matrix per case.

    Tightening halves the (p, bar p) entries: m[p][q] = min(m[p][q],
    floor(m[p][bar p] / 2) + floor(m[bar q][q] / 2)).  Halving a term with
    an odd rate needs the parameter's parity, so such parameters are split
    (k -> 2k+r, one case per residue r), which keeps every floor exact.

    Only the cells between indices of ``keep`` (default: every index) and
    the diagonal cells are tightened; the others are None.  A caller that
    erases the other indices still reads their diagonal, which carries the
    emptiness of the matrix.  ``keep`` must hold p ^ 1 with every p.
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
                        cases.extend(param_tighten(sub, dim, keep))
                    return cases
    halves = [[tuple(x // 2 for x in t) for t in entries[p][p ^ 1]] for p in range(dim)]

    def tight(p: int, q: int) -> tuple[Term, ...]:
        terms = entries[p][q]
        if halves[p] and halves[q ^ 1]:
            terms = (*terms, *(tuple(map(add, h1, h2))
                               for h1 in halves[p] for h2 in halves[q ^ 1]))
        return min_terms(terms) if len(terms) > 1 else tuple(terms)

    kept = range(dim) if keep is None else keep
    tightened = [[None] * dim for _ in range(dim)]
    for p in kept:
        row = tightened[p]
        for q in kept:
            row[q] = tight(p, q)
    for p in range(dim):
        if tightened[p][p] is None:
            tightened[p][p] = tight(p, p)
    return [tightened]


def _reference_failure(closed: ExtParamDbm, base: Dbm, rate: Dbm) -> int | None:
    """Least k >= 0 at which the parametric replay of base + k*rate fails,
    or None: a diagonal term goes negative, or an outer entry's terms stop
    having base + (k+1)*rate as their minimum."""
    from octoterm.closure import _first_negative

    ks = [_first_negative(*t) for p in range(closed.dim) for t in closed.entries[p][p]]
    half = base.dim // 2
    keep = list(range(half)) + list(range(2 * half, 3 * half))
    for a_idx, p in enumerate(keep):
        for b_idx, q in enumerate(keep):
            terms = closed.entries[p][q]
            tb = base.rows[a_idx][b_idx]
            tr = rate.rows[a_idx][b_idx]
            if tb == INF:
                if terms:
                    return 0
                continue
            target = (tb + tr, tr)  # value at k+1
            if target not in terms:
                return 0
            if all(t0 >= target[0] and t1 >= tr for t0, t1 in terms):
                continue  # the minimum is the target at every k
            ks += [_first_negative(t0 - target[0], t1 - tr) for t0, t1 in terms]
    return min((k for k in ks if k is not None), default=None)


def _reference_death(closed: ExtParamDbm, base: Dbm, rate: Dbm) -> int | None:
    """Least k whose power the parametric replay predicts empty: a negative
    cycle at k empties R^(n + (k+1)*c), a failed halving of base + k*rate
    R^(n + k*c)."""
    from octoterm.closure import _first_negative, _halving_death

    deaths = [k + 1 for p in range(closed.dim) for t in closed.entries[p][p]
              if (k := _first_negative(*t)) is not None]
    for p in range(base.dim):
        a0 = base.rows[p][p ^ 1]
        b0 = base.rows[p ^ 1][p]
        if a0 != INF and b0 != INF:
            k = _halving_death(a0, b0, rate.rows[p][p ^ 1], rate.rows[p ^ 1][p])
            if k is not None:
                deaths.append(k)
    return min(deaths, default=None)


def reference_verify_dbm_certificate(cache, b: int, c: int, rates):
    """``closure._verify_dbm_certificate`` by the parametric replay: each
    residue's base + k*rate is glued to D_c and closed once by ``param_fw``
    through the middle pivots, over (term, length) antichains; the first
    failing k and the death index are read off the affine terms, a failure
    must fall on an empty power (by ``fast_power``), and one composition of
    the predicted last live power confirms the death.  None when an
    antichain hits ``MAX_ANTICHAIN`` (the replay then has no verdict);
    otherwise ``(accepted, dead)``.  Leaves the cache as it is."""

    def empty(n: int) -> bool:
        rel = Octagon(2 * cache.N, cache.base, tight=True)
        return n > max(cache.d) and fast_power(rel, n, cache.N).is_bottom

    plain_c = cache.plain(c)
    const = ExtParamDbm.from_dbm(plain_c, 1)
    blk = cache.base.dim // 2
    steps = []
    for i in range(c):
        base, rate = cache.plain(b + i), rates[i]
        closed = param_fw(glue(ExtParamDbm.affine(base, [rate]), const), range(blk, 2 * blk))
        if closed.capped:
            return None
        fail = _reference_failure(closed, base, rate)
        if fail is not None and not empty(b + i + (fail + 1) * c):
            return False, None
        steps.append((closed, fail))
    dead = None
    for i, (closed, _) in enumerate(steps):
        k = _reference_death(closed, cache.plain(b + i), rates[i])
        if k is not None and (dead is None or b + i + k * c < dead):
            dead = b + i + k * c
    if dead is None:
        return all(fail is None for _, fail in steps), None
    for i, (_, fail) in enumerate(steps):
        if fail is not None and fail < (dead - 1 - b - i) // c:
            return False, None
    i, k = (dead - c - b) % c, (dead - c - b) // c
    if k < 0:
        return False, None
    nxt = compose_closed(dbm_add_rate(cache.plain(b + i), rates[i], k), plain_c)
    if nxt is not None and halving_consistent(nxt):
        return False, None
    return True, dead


def random_poly_bounded_matrix(rng: random.Random, n: int):
    """A random n x n integer matrix whose nonzero eigenvalues are roots of
    unity: a block-triangular matrix of unipotent, permutation, rotation and
    nilpotent diagonal blocks with random integer blocks above them,
    conjugated by a random unimodular matrix."""
    blocks = []
    left = n
    while left:
        kind = rng.choice(("unipotent", "permutation", "rotation", "nilpotent"))
        size = rng.randint(1, left)
        if kind == "rotation" and size >= 2:
            size = 2
            block = [[0, 1], [-1, 0]] if rng.random() < 0.5 else [[0, -1], [1, 1]]
        elif kind == "permutation":
            perm = list(range(size))
            rng.shuffle(perm)
            block = [[int(perm[i] == j) for j in range(size)] for i in range(size)]
        else:
            diag = 0 if kind == "nilpotent" else 1
            block = [[diag if i == j else (rng.randint(-2, 2) if j > i else 0)
                      for j in range(size)] for i in range(size)]
        blocks.append(block)
        left -= size
    m = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        size = len(block)
        for i in range(size):
            for j in range(size):
                m[at + i][at + j] = block[i][j]
            for j in range(at + size, n):
                m[at + i][j] = rng.randint(-1, 1)
        at += size
    # conjugate by a unimodular U = (I + e) and its inverse (I - e), with e
    # a single off-diagonal entry, which keeps the eigenvalues
    for _ in range(2):
        if n < 2:
            break
        p, q = rng.sample(range(n), 2)
        e = rng.choice((-1, 1))
        # m := U m U^-1 with U = I + e*E_pq: add e*row q to row p, then
        # subtract e*column p from column q
        m[p] = [mp + e * mq for mp, mq in zip(m[p], m[q])]
        for row in m:
            row[q] -= e * row[p]
    return tuple(tuple(row) for row in m)


def reference_octagon_to_affine(o: Octagon, n: int) -> AffineRel | None:
    """The affine reading of a deterministic octagonal relation (x' = +-x + c
    per variable), decoded from its DBM: the reference for
    ``grammar.as_affine``, which reads the rows as written.

    The update rows come from the tight closure, or from the encoded
    relation when its guard is unsatisfiable; the guard is then the empty
    set (the single row 0 >= 1).  Otherwise the guard is the closure's
    projection onto the unprimed variables.
    """
    closed = tight_close(o)
    src = o if closed.is_bottom else closed
    if src.is_bottom:
        return None
    rows = src.dbm.rows
    a = []
    b = []
    for i in range(n):
        # x'_i - x_j == c for some j with both bounds finite
        found = None
        pi = 2 * (n + i)
        for j in range(n):
            up = rows[pi][2 * j]
            dn = rows[2 * j][pi]
            if up != INF and dn != INF and up == -dn:
                found = (j, 1, up)
                break
            up2 = rows[pi][2 * j + 1]
            dn2 = rows[2 * j + 1][pi]
            if up2 != INF and dn2 != INF and up2 == -dn2:
                found = (j, -1, up2)
                break
        if found is None:
            return None
        j, s, c = found
        row = [0] * n
        row[j] = s
        a.append(tuple(row))
        b.append(c)
    if closed.is_bottom:
        return AffineRel(n, mat(a), tuple(b), (((0,) * n, 1),))
    guard = []
    proj = oct_exists(closed, range(n, 2 * n))
    for si, i, sj, j, c in oct_decode(proj):
        gr = [0] * n
        gr[i] -= si
        gr[j] -= sj
        guard.append((tuple(gr), -c))
    return AffineRel(n, mat(a), tuple(b), tuple(guard))


# -- the line-by-line lexer and token-object parser, the reference for the
# one-pass ``grammar._tokenize`` and its parser -------------------------------

_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*'?)"
    r"|(?P<op><=|>=|==|!=|->|&&|\|\||[-+*<>(),;:%]))"
)


class _Tok(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def reference_tokenize(text: str) -> list[_Tok]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = re.split(r"#|//", line, maxsplit=1)[0]
        pos = 0
        while pos < len(body):
            m = _REFERENCE_TOKEN_RE.match(body, pos)
            if m is None or m.end() == pos:
                if body[pos:].strip():
                    raise ParseError(f"bad token {body[pos:].strip()[:10]!r}", lineno, pos + 1)
                break
            pos = m.end()
            for kind in ("int", "name", "op"):
                if m.group(kind) is not None:
                    out.append(_Tok(kind, m.group(kind), lineno, m.start(kind) + 1))
                    break
    return out


class _ReferenceParser:
    def __init__(self, toks: list[_Tok], variables: list[str]):
        self.toks = toks
        self.i = 0
        self.vars = variables

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def where(self, t: _Tok | None) -> tuple[int, int]:
        if t is not None:
            return t.line, t.col
        if not self.toks:
            return 1, 1
        last = self.toks[-1]
        return last.line, last.col + len(last.text)

    def take(self, text: str | None = None, kind: str | None = None) -> _Tok:
        t = self.peek()
        if t is None:
            raise ParseError(f"unexpected end of input (wanted {text or kind})",
                             *self.where(None))
        if text is not None and t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        if kind is not None and t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.text!r}", t.line, t.col)
        self.i += 1
        return t

    def finish(self) -> None:
        t = self.peek()
        if t is not None:
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)

    def at_op(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "op" and t.text == text

    def formula(self):
        dnf = self.conjunction()
        while self.at_op("||"):
            self.take("||")
            dnf = dnf + self.conjunction()
        return dnf

    def conjunction(self):
        dnf = self.atom_or_group()
        while self.at_op("&&"):
            self.take("&&")
            right = self.atom_or_group()
            dnf = [a + b for a in dnf for b in right]
        return dnf

    def atom_or_group(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of formula", *self.where(None))
        if self.at_op("("):
            save = self.i
            self.take("(")
            try:
                dnf = self.formula()
                self.take(")")
                return dnf
            except ParseError:
                self.i = save
        if t.kind == "name" and t.text == "id":
            return [self.id_macro()]
        if t.kind == "name" and t.text in ("true", "false"):
            self.take()
            return [[] if t.text == "true" else [(LinTerm({}, 1), LE)]]
        return self.atom()

    def id_macro(self):
        self.take("id")
        self.take("(")
        rows = []
        while True:
            tok = self.take(kind="name")
            name = tok.text
            self._check_var(name, tok)
            rows.append((LinTerm({name + "'": 1, name: -1}), EQ))
            if self.at_op(","):
                self.take(",")
                continue
            break
        self.take(")")
        return rows

    def atom(self):
        lhs = self.expr()
        if self.at_op("%"):
            self.take("%")
            m = int(self.take(kind="int").text)
            self.take("==")
            r = int(self.take(kind="int").text)
            return [[(lhs - r, f"%{m}")]]
        t = self.peek()
        if t is None or t.kind != "op" or t.text not in ("<=", ">=", "<", ">", "==", "!="):
            raise ParseError("expected comparison operator", *self.where(t))
        op = self.take().text
        rhs = self.expr()
        d = lhs - rhs
        if self.at_op("%"):
            raise ParseError("'%' only allowed as '<expr> % m == r'", *self.where(self.peek()))
        if op == "<=":
            return [[(d, LE)]]
        if op == ">=":
            return [[(-d, LE)]]
        if op == "<":
            return [[(d + 1, LE)]]
        if op == ">":
            return [[(-d + 1, LE)]]
        if op == "==":
            return [[(d, EQ)]]
        return [[(d + 1, LE)], [(-d + 1, LE)]]

    def expr(self) -> LinTerm:
        term = self.signed_term()
        while True:
            if self.at_op("+"):
                self.take("+")
                term = term + self.signed_term()
            elif self.at_op("-"):
                self.take("-")
                term = term - self.signed_term()
            else:
                return term

    def signed_term(self) -> LinTerm:
        sign = 1
        while self.at_op("-") or self.at_op("+"):
            if self.take().text == "-":
                sign = -sign
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of expression", *self.where(None))
        if t.kind == "int":
            self.take()
            value = int(t.text)
            if self.at_op("*"):
                self.take("*")
                name = self.take(kind="name").text
                self._check_var(name, t)
                return LinTerm({name: sign * value})
            nt = self.peek()
            if nt is not None and nt.kind == "name":
                self.take()
                self._check_var(nt.text, nt)
                return LinTerm({nt.text: sign * value})
            return LinTerm({}, sign * value)
        if t.kind == "name":
            self.take()
            self._check_var(t.text, t)
            return LinTerm({t.text: sign})
        if self.at_op("("):
            self.take("(")
            inner = self.expr()
            self.take(")")
            return sign * inner
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)

    def _check_var(self, name: str, tok: _Tok) -> None:
        base = name[:-1] if name.endswith("'") else name
        _reference_check_reserved(base, tok)
        if base not in self.vars:
            raise ParseError(f"undeclared variable {base!r}", tok.line, tok.col)


def _reference_check_reserved(name: str, tok: _Tok) -> None:
    if name.startswith("_"):
        raise ParseError(
            f"variable {name!r} starts with '_', which is reserved", tok.line, tok.col
        )


def reference_parse_rows(text: str, variables: list[str]):
    """``grammar.parse_rows`` over the reference lexer and parser."""
    p = _ReferenceParser(reference_tokenize(text), variables)
    dnf = p.formula()
    p.finish()
    return dnf


def reference_parse_program_text(text: str) -> Program:
    """``grammar.parse_program_text`` over the reference lexer and parser;
    each label is classified as soon as it is read, as there.  The states
    are listed in order of first mention, the initial state last when no
    transition names it."""
    p = _ReferenceParser(reference_tokenize(text), [])

    def declare() -> None:
        t = p.take(kind="name")
        _reference_check_reserved(t.text, t)
        p.vars.append(t.text)

    p.take("vars")
    declare()
    while p.at_op(","):
        p.take(",")
        declare()
    p.take(";")
    p.take("init")
    init = p.take(kind="name").text
    p.take(";")
    transitions = []
    while p.peek() is not None:
        src = p.take(kind="name").text
        p.take("->")
        dst = p.take(kind="name").text
        p.take(":")
        label = tuple(_classify(rows, p.vars) for rows in p.formula())
        p.take(";")
        transitions.append(Transition(src, dst, label))
    states = []
    for s in [q for t in transitions for q in (t.source, t.target)] + [init]:
        if s not in states:
            states.append(s)
    return Program(tuple(p.vars), tuple(states), init, tuple(transitions))


# -- the atom-list encoder, the reference for ``octagon.rows_to_atoms`` and
# ``octagon.oct_encode`` -------------------------------------------------------


def reference_rows_to_atoms(rows, index: dict[str, int]):
    atoms = []
    for t, rel in rows:
        for tt in (t,) if rel == LE else (t, -t):
            atom = row_atom([(index[v], c) for v, c in tt.coeffs.items()], -tt.const)
            if atom is None:
                return None
            atoms.append(atom)
    return atoms


def atom_entry(si: int, i: int, sj: int, j: int) -> tuple[int, int]:
    """Dual entry (p, q) of ``si*x_i + sj*x_j``: u_p - u_q with
    p = dual(si, i) and q = dual(-sj, j); its coherent twin is
    (bar q, bar p)."""
    return (2 * i if si == 1 else 2 * i + 1), (2 * j if sj == -1 else 2 * j + 1)


def reference_oct_encode(atoms, num_vars: int) -> Octagon:
    m = Dbm.unconstrained(2 * num_vars)
    rows = m.rows
    for si, i, sj, j, c in atoms:
        if not (0 <= i < num_vars and 0 <= j < num_vars):
            raise ValueError("variable index out of range")
        if si not in (-1, 1) or sj not in (-1, 1):
            raise ValueError("atom signs must be +-1")
        if i == j and si != sj:
            raise ValueError("x_i - x_i atoms are not octagonal constraints")
        p, q = atom_entry(si, i, sj, j)
        for a, b in ((p, q), (q ^ 1, p ^ 1)):
            if a == b:
                if c < 0:
                    rows[a][a] = ext_min(rows[a][a], c)
                continue
            rows[a][b] = ext_min(rows[a][b], c)
    return Octagon(num_vars, m, tight=False)
