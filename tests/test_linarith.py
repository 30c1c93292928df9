import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octoterm import linarith
from octoterm.linarith import (
    EQ,
    LE,
    LT,
    LinSys,
    LinTerm,
    PolyhedronLP,
    farkas_template,
    lp_feasible,
)

from helpers import entails, fm_feasible, template_lrf

x = LinTerm.var("x")
y = LinTerm.var("y")
z = LinTerm.var("z")


def test_feasibility_basics():
    assert lp_feasible(LinSys([(x - 1, LE), (2 - x, LE)])) is None
    model = lp_feasible(LinSys([(-x, LE)]))
    assert model is not None
    assert model["x"] >= 0


def test_model_satisfies_rows():
    rng = random.Random(0)
    for _ in range(100):
        rows = []
        for _ in range(rng.randint(1, 6)):
            t = LinTerm({v: rng.randint(-3, 3) for v in ("x", "y", "z")},
                        rng.randint(-5, 5))
            rows.append((t, rng.choice((LE, LE, LE, EQ))))
        sys = LinSys(rows)
        model = lp_feasible(sys)
        if model is not None:
            for t, rel in rows:
                v = t.eval(model)
                assert (v <= 0 if rel == LE else v == 0)


def _agrees_with_fourier_motzkin(relations):
    rng = random.Random(1)
    for _ in range(250):
        nv = rng.randint(1, 4)
        names = ["x", "y", "z", "w"][:nv]
        rows = []
        for _ in range(rng.randint(1, 8)):
            t = LinTerm({v: rng.randint(-3, 3) for v in names}, rng.randint(-4, 4))
            rows.append((t, rng.choice(relations)))
        ours = lp_feasible(LinSys(rows)) is not None
        oracle = fm_feasible(rows)
        assert ours == oracle, rows


def test_fourier_motzkin_oracle_keeps_the_strongest_parallel_row():
    # x <= 0 and x < 0 share a direction: the strict one must survive,
    # in either order and under any positive scaling
    assert not fm_feasible([(x, LE), (x, LT), (-x, LE)])
    assert not fm_feasible([(2 * x, LT), (x, LE), (-3 * x, LE)])
    assert fm_feasible([(x, LE), (-x, LE)])
    assert not fm_feasible([(x + y, LE), (-x, LE), (-y, LT)])
    assert not fm_feasible([(LinTerm.of(0), LT)])
    assert fm_feasible([(LinTerm.of(0), LE), (LinTerm.of(-1), LT)])


def test_feasible_agrees_with_fourier_motzkin():
    _agrees_with_fourier_motzkin((LE, LE, LE, LE, EQ))


def test_feasible_agrees_with_fourier_motzkin_on_more_equalities():
    # one equality in four rows: each one is two rows for the elimination,
    # which took over a minute before the oracle kept one row per direction
    _agrees_with_fourier_motzkin((LE, LE, LE, EQ))


def test_sup_examples():
    assert PolyhedronLP(LinSys([(x - 5, LE), (-x, LE)])).sup(x + 1) == Fraction(6)
    assert PolyhedronLP(LinSys([(-x, LE)])).sup(x) is None
    assert PolyhedronLP(LinSys([(x - 1, LE), (y - 1, LE)])).sup(x + y) == Fraction(2)
    assert PolyhedronLP(LinSys([(x, LE), (-x, LE)], ["x"])).sup(y) is None


def test_sup_exact_fractions():
    for k in range(1, 21):
        assert PolyhedronLP(LinSys([(k * x - 1, LE)])).sup(x) == Fraction(1, k)


def test_entails_examples():
    assert entails(LinSys([(x - 1, LE)]), (x - 2, LE))
    assert not entails(LinSys([(x - 1, LE)]), (x, LE))
    # octagon x1+x2 <= 5 and x1-x2 <= 1 entails x1 <= 3
    sys = LinSys([(x + y - 5, LE), (x - y - 1, LE)])
    assert entails(sys, (x - 3, LE))
    assert not entails(sys, (x - 2, LE))


def test_entails_transitive_sampled():
    rng = random.Random(2)
    for _ in range(40):
        rows = [
            (LinTerm({"x": rng.randint(-2, 2), "y": rng.randint(-2, 2)},
                     rng.randint(-3, 3)), LE)
            for _ in range(3)
        ]
        sys = LinSys(rows, ["x", "y"])
        r = (LinTerm({"x": rng.randint(-2, 2), "y": rng.randint(-2, 2)},
                     rng.randint(-3, 3)), LE)
        s = (LinTerm({"x": rng.randint(-2, 2), "y": rng.randint(-2, 2)},
                     rng.randint(-3, 3)), LE)
        if entails(sys, r) and entails(LinSys(sys.rows + (r,), sys.variables), s):
            assert entails(sys, s)


def test_entails_agrees_with_fourier_motzkin_on_the_strict_negation():
    # sys entails t <= 0 iff sys && -t < 0 is empty; t == 0 iff also sys && t < 0
    rng = random.Random(3)
    seen = set()
    for _ in range(300):
        names = ["x", "y", "z"][: rng.randint(1, 3)]
        rows = []
        for _ in range(rng.randint(0, 5)):
            t = LinTerm({v: rng.randint(-3, 3) for v in names}, rng.randint(-4, 4))
            rows.append((t, rng.choice((LE, LE, EQ))))
        sys = LinSys(rows, names)
        # the row may mention u, which the system does not
        row_names = names + ["u"] if rng.random() < 0.3 else names
        t = LinTerm({v: rng.randint(-2, 2) for v in row_names}, rng.randint(-4, 4))
        rel = rng.choice((LE, LE, EQ))
        oracle = not fm_feasible(rows + [(-t, LT)])
        if rel == EQ:
            oracle = oracle and not fm_feasible(rows + [(t, LT)])
        assert entails(sys, (t, rel)) == oracle, (rows, t, rel)
        seen.add((rel, oracle, "u" in t.coeffs))
    assert {(LE, True), (LE, False), (EQ, True), (EQ, False)} <= {s[:2] for s in seen}
    # a row that mentions u is entailed only by an empty system
    assert (LE, False, True) in seen and (LE, True, True) in seen


def test_strict_rows_are_rejected():
    with pytest.raises(ValueError):
        LinSys([(x, LT)])
    with pytest.raises(ValueError):
        LinSys(LinSys([(x - 1, LE)]).rows + ((-x, LT),))
    with pytest.raises(ValueError):
        entails(LinSys([(x - 1, LE)]), (x - 2, LT))


def test_polyhedron_lp_batch():
    sys = LinSys([(x - 5, LE), (-x, LE), (y - x, LE), (-y, LE)])
    poly = PolyhedronLP(sys)
    assert poly.feasible
    assert poly.sup(x) == Fraction(5)
    assert poly.sup(y) == Fraction(5)
    assert poly.sup(-y) == Fraction(0)
    assert poly.entails_le(y - x)
    assert not poly.entails_le(x - 4)


def test_farkas_template_decrease_example():
    vx, vxp = LinTerm.var("v"), LinTerm.var("v'")
    sys = LinSys([(1 - vx + vxp, LE), (-vx, LE)], ["v", "v'"])  # v-v' >= 1, v >= 0
    r = farkas_template(sys, ["v"], ["v'"])
    assert r is not None
    assert r["v"] > 0  # decrease forces a positive slope


def test_farkas_template_no_witness():
    vx, vxp = LinTerm.var("v"), LinTerm.var("v'")
    sys = LinSys([(vx - vxp, LE), (vxp - vx, LE)], ["v", "v'"])  # v' = v
    assert farkas_template(sys, ["v"], ["v'"]) is None


def _rand_transition(rng):
    """Random rows over v, w and their primed copies, == rows among them."""
    names = ["v", "w"][: rng.randint(1, 2)]
    primed = [v + "'" for v in names]
    rows = []
    for _ in range(rng.randint(1, 4)):
        t = LinTerm({v: rng.randint(-2, 2) for v in names + primed}, rng.randint(-3, 3))
        rows.append((t, rng.choice((LE, LE, EQ))))
    return LinSys(rows, names + primed), names, primed


def test_farkas_template_agrees_with_the_template_search():
    # feasible exactly when the search with free coefficients and bound is,
    # and every function returned decreases by 1 and is bounded below
    rng = random.Random(14)
    seen = {"feasible": 0, "infeasible": 0, "empty": 0}
    for _ in range(400):
        sys, pre, post = _rand_transition(rng)
        r = farkas_template(sys, pre, post)
        assert (r is None) == (template_lrf(sys, pre, post) is None), sys
        poly = PolyhedronLP(sys)
        if not poly.feasible:
            seen["empty"] += 1
            continue
        if r is None:
            seen["infeasible"] += 1
            continue
        seen["feasible"] += 1
        f = LinTerm(r)
        f_post = LinTerm({vp: r[v] for v, vp in zip(pre, post)})
        assert poly.entails_le(f_post - f + 1), (sys, r)
        assert poly.sup(-f) is not None, (sys, r)
    assert min(seen.values()) > 20, seen


# ---------------------------------------------------------------------------
# the integer-row tableau against the Fraction tableau it replaced
# ---------------------------------------------------------------------------


class _RefTableau:
    """The Fraction tableau: every entry a Fraction, pivot rows divided out."""

    def __init__(self, ncols, rows_a, rhs, eqs):
        self.n = ncols
        self.m = len(rows_a)
        self.width = self.n + self.m + 1
        self.a = []
        for i, row in enumerate(rows_a):
            full = {j: Fraction(v) for j, v in row.items() if v != 0}
            full[self.n + i] = Fraction(1)
            self.a.append(full)
        self.rhs = [Fraction(r) for r in rhs]
        self.basis = [self.n + i for i in range(self.m)]
        self.eqs = eqs
        self.obj = {}
        self.objval = Fraction(0)
        self.log = []

    def set_objective(self, coefs):
        obj = {j: c for j, c in coefs.items() if c != 0}
        val = Fraction(0)
        for i, bv in enumerate(self.basis):
            c = obj.pop(bv, Fraction(0))
            if c == 0:
                continue
            for j, v in self.a[i].items():
                if j == bv:
                    continue
                nv = obj.get(j, Fraction(0)) - c * v
                if nv:
                    obj[j] = nv
                else:
                    obj.pop(j, None)
            val = val + self.rhs[i] * c
        self.obj = obj
        self.objval = val

    def pivot(self, r, c):
        self.log.append((r, c))
        row = self.a[r]
        piv = row[c]
        if piv != 1:
            inv = 1 / piv
            row = {j: v * inv for j, v in row.items()}
            self.a[r] = row
            self.rhs[r] = self.rhs[r] * inv
        for i in range(self.m):
            if i == r:
                continue
            tgt = self.a[i]
            f = tgt.get(c)
            if not f:
                continue
            for j, v in row.items():
                nv = tgt.get(j, Fraction(0)) - f * v
                if nv:
                    tgt[j] = nv
                else:
                    tgt.pop(j, None)
            self.rhs[i] = self.rhs[i] - self.rhs[r] * f
        f = self.obj.get(c)
        if f:
            obj = self.obj
            for j, v in row.items():
                nv = obj.get(j, Fraction(0)) - f * v
                if nv:
                    obj[j] = nv
                else:
                    obj.pop(j, None)
            self.objval = self.objval + self.rhs[r] * f
        self.basis[r] = c

    def _leave_for(self, c):
        best = None
        best_ratio = None
        for i in range(self.m):
            aic = self.a[i].get(c)
            if aic and aic > 0:
                ratio = self.rhs[i] / aic
                if (
                    best is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and self.basis[i] < self.basis[best])
                ):
                    best = i
                    best_ratio = ratio
        return best

    def maximize(self, allowed_width):
        while True:
            enter = None
            for j, v in self.obj.items():
                if j < allowed_width and v > 0 and (enter is None or j < enter):
                    enter = j
            if enter is None:
                return "optimal"
            leave = self._leave_for(enter)
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)

    def phase1(self):
        aux = self.n + self.m
        arts = {self.n + i for i in self.eqs}
        lifted = any(r < 0 for r in self.rhs)
        if lifted or any(self.rhs[i] for i in self.eqs):
            goal = {c: Fraction(-1) for c in arts}
            if lifted:
                for i in range(self.m):
                    if self.n + i not in arts:
                        self.a[i][aux] = Fraction(-1)
                goal[aux] = Fraction(-1)
            self.set_objective(goal)
            if lifted:
                worst = min(range(self.m), key=lambda i: self.rhs[i])
                self.pivot(worst, aux)
            status = self.maximize(self.width)
            assert status == "optimal"
            if self.objval:
                return False
        drop = arts | {aux}
        for r in range(self.m):
            if self.basis[r] in drop:
                for j in sorted(self.a[r]):
                    if j not in drop and self.a[r][j] != 0:
                        self.pivot(r, j)
                        break
        for i in range(self.m):
            for j in drop - {self.basis[i]}:
                self.a[i].pop(j, None)
        for j in drop:
            self.obj.pop(j, None)
        return True

    def solution(self):
        return {bv: self.rhs[i] for i, bv in enumerate(self.basis)}


class _LoggedTableau(linarith._Tableau):
    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def pivot(self, r, c):
        self.log.append((r, c))
        assert len(self.log) < 1000, "Bland's rule cycles"
        super().pivot(r, c)


def _objective_columns(col_of, obj):
    coefs = {}
    for v, c in obj.coeffs.items():
        idx = col_of[v]
        coefs[idx[0]] = coefs.get(idx[0], Fraction(0)) + c
        if len(idx) == 2:
            coefs[idx[1]] = coefs.get(idx[1], Fraction(0)) - c
    return coefs


def _run(cls, sys, objectives, nonneg=()):
    """Phase 1, then each objective in turn on one warm tableau.

    Returns the pivot log, the feasibility verdict and, per objective, the
    status, the optimum, the values of the basic columns and the basis.
    """
    _, cols, col_of, rows_a, rhs, eqs = linarith._build(sys, nonneg)
    tab = cls(len(cols), rows_a, rhs, eqs)
    feasible = tab.phase1()
    results = []
    if feasible:
        for obj in objectives:
            tab.set_objective(_objective_columns(col_of, obj))
            status = tab.maximize(tab.n + tab.m)
            results.append((status, tab.objval, tab.solution(), list(tab.basis)))
    return tab.log, feasible, results


def _rand_coef(rng, kind):
    if kind == "frac":
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    if kind == "big" and rng.random() < 0.3:
        return rng.choice((-1, 1)) * rng.randint(2**62, 2**64)
    return rng.randint(-3, 3)


def _rand_system(rng, kind):
    names = ["x", "y", "z", "w"][: rng.randint(1, 4)]
    rows = []
    for _ in range(rng.randint(1, 8)):
        coeffs = {v: _rand_coef(rng, kind) for v in names if rng.random() < 0.8}
        const = 0 if kind == "degenerate" and rng.random() < 0.7 else _rand_coef(rng, kind)
        rows.append((LinTerm(coeffs, const), rng.choice((LE, LE, LE, EQ))))
    return LinSys(rows, names)


def _rand_objective(rng, names, kind):
    return LinTerm({v: _rand_coef(rng, kind) for v in names if rng.random() < 0.7},
                   _rand_coef(rng, kind))


@pytest.mark.parametrize("kind", ["small", "frac", "big", "degenerate"])
def test_integer_tableau_pivots_like_fraction_tableau(kind):
    rng = random.Random(kind)
    seen_feasible = seen_infeasible = 0
    for _ in range(150):
        sys = _rand_system(rng, kind)
        objectives = [_rand_objective(rng, sys.variables, kind) for _ in range(3)]
        nonneg = [v for v in sys.variables if rng.random() < 0.3]
        ref = _run(_RefTableau, sys, objectives, nonneg)
        new = _run(_LoggedTableau, sys, objectives, nonneg)
        assert new == ref, sys
        seen_feasible += ref[1]
        seen_infeasible += not ref[1]
    assert seen_feasible > 20 and seen_infeasible > 10


def _ref_lp_feasible(sys, nonneg=()):
    names, cols, col_of, rows_a, rhs, eqs = linarith._build(sys, nonneg)
    tab = _RefTableau(len(cols), rows_a, rhs, eqs)
    if not tab.phase1():
        return None
    tab.set_objective({})
    tab.maximize(tab.n + tab.m)
    vals = tab.solution()
    zero = Fraction(0)
    model = {}
    for v in names:
        idx = col_of[v]
        val = vals.get(idx[0], zero)
        if len(idx) == 2:
            val = val - vals.get(idx[1], zero)
        model[v] = val
    for t, rel in sys.rows:
        assert (t.eval(model) <= 0 if rel == LE else t.eval(model) == 0), (sys, model)
    return model


@pytest.fixture
def capped(monkeypatch):
    """Run the public entry points on the logged tableau, so cycling fails."""
    monkeypatch.setattr(linarith, "_Tableau", _LoggedTableau)
    return monkeypatch


def test_lp_feasible_and_sup_match_fraction_tableau(capped):
    rng = random.Random(11)
    for kind in ("small", "frac", "big", "degenerate"):
        for _ in range(60):
            sys = _rand_system(rng, kind)
            assert lp_feasible(sys) == _ref_lp_feasible(sys), sys
            obj = _rand_objective(rng, sys.variables, kind)
            _, feasible, results = _run(_RefTableau, sys, [obj])
            res = PolyhedronLP(sys).sup(obj)
            if not feasible or results[0][0] == "unbounded":
                assert res is None
            else:
                assert res == results[0][1] + obj.const


def test_polyhedron_sup_sequence_matches_fraction_tableau(capped):
    rng = random.Random(12)
    for kind in ("small", "frac", "big", "degenerate"):
        for _ in range(40):
            sys = _rand_system(rng, kind)
            objectives = [_rand_objective(rng, sys.variables, kind) for _ in range(6)]
            _, feasible, results = _run(_RefTableau, sys, objectives)
            poly = PolyhedronLP(sys)
            assert poly.feasible == feasible
            for obj, ref in zip(objectives, results):
                res = poly.sup(obj)
                if ref[0] == "unbounded":
                    assert res is None
                else:
                    assert res == ref[1] + obj.const


def test_farkas_template_matches_fraction_tableau(capped):
    # linear ranking functions f(v) = sum r_v * v of random transitions
    rng = random.Random(13)
    cases = [_rand_transition(rng) for _ in range(80)]
    ours = [farkas_template(*c) for c in cases]
    capped.setattr(linarith, "lp_feasible", _ref_lp_feasible)
    ref = [farkas_template(*c) for c in cases]
    assert ours == ref
    assert sum(r is not None for r in ours) > 10 and sum(r is None for r in ours) > 10


# ---------------------------------------------------------------------------
# == rows against the same system with each == written as two <= rows
# ---------------------------------------------------------------------------


def _split_equalities(sys):
    rows = []
    for t, rel in sys.rows:
        rows.append((t, LE))
        if rel == EQ:
            rows.append((-t, LE))
    return LinSys(rows, sys.variables)


def _assert_same_as_split(sys, objectives):
    poly, split = PolyhedronLP(sys), PolyhedronLP(_split_equalities(sys))
    assert poly.feasible == split.feasible, sys
    model = poly.model()  # checks every row itself
    assert (model is None) == (not poly.feasible)
    for obj in objectives:
        assert poly.sup(obj) == split.sup(obj), (sys, obj)
    return poly.feasible


def test_equality_rows_match_their_split_form(capped):
    rng = random.Random(15)
    seen = set()
    for kind in ("small", "frac", "big", "degenerate"):
        for _ in range(60):
            sys = _rand_system(rng, kind)
            objectives = [_rand_objective(rng, sys.variables, kind) for _ in range(4)]
            seen.add(_assert_same_as_split(sys, objectives))
    assert seen == {True, False}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["small", "frac", "big", "degenerate"]))
def test_equality_rows_match_their_split_form_hypothesis(seed, kind):
    rng = random.Random(seed)
    sys = _rand_system(rng, kind)
    _assert_same_as_split(sys, [_rand_objective(rng, sys.variables, kind) for _ in range(3)])


def test_equality_row_edge_cases(capped):
    zero, one = LinTerm.of(0), LinTerm.of(1)
    objectives = [x, -x, y, x - y, x + y + z]
    cases = {
        "duplicated": LinSys([(x - y, EQ), (x - y, EQ), (x - 3, LE)], ["x", "y"]),
        "0 == 0": LinSys([(zero, EQ), (x - 2, LE)], ["x"]),
        "1 == 0": LinSys([(one, EQ), (x - 2, LE)], ["x"]),
        "equalities only": LinSys([(x + y - 4, EQ), (x - y, EQ), (x - z + 1, EQ)]),
        "zero bound next to negative rows": LinSys(
            [(x - y, EQ), (2 - x, LE), (y + z, EQ), (3 + z, LE), (x - 5, LE)]),
    }
    for name, sys in cases.items():
        objs = [o for o in objectives if set(o.coeffs) <= set(sys.variables)]
        assert _assert_same_as_split(sys, objs) == (name != "1 == 0"), name
    dup = PolyhedronLP(cases["duplicated"])
    assert dup.sup(y) == Fraction(3) and dup.sup(y - x) == Fraction(0)
    only = PolyhedronLP(cases["equalities only"])
    assert only.model() == {"x": 2, "y": 2, "z": 3}
    assert only.sup(z) == Fraction(3)
    neg = PolyhedronLP(cases["zero bound next to negative rows"])
    # y = x in [2, 5] and z = -y <= -3, so y in [3, 5]
    assert neg.sup(-y) == Fraction(-3) and neg.sup(z) == Fraction(-3)
    assert neg.sup(x) == Fraction(5)


def _assert_rows_reduced(tab):
    """Integer entries over a positive denominator, in lowest terms, with
    the denominator in the basic column."""
    for i, row in enumerate(tab.a):
        den = tab.den[i]
        entries = [den, tab.ra[i], *row.values()]
        assert all(type(v) is int for v in entries), (i, entries)
        assert den > 0 and 0 not in row.values(), (i, entries)
        assert math.gcd(*entries) == 1, (i, entries)
        if i < tab.m:
            assert row[tab.basis[i]] == den, (i, row, den)


class _CheckedTableau(_LoggedTableau):
    def pivot(self, r, c):
        super().pivot(r, c)
        _assert_rows_reduced(self)


def test_tableau_rows_stay_integer_and_reduced(capped):
    capped.setattr(linarith, "_Tableau", _CheckedTableau)
    half = Fraction(1, 2)
    sys = LinSys([
        (LinTerm({"x": half, "y": Fraction(-1, 3)}, -1), LE),
        (LinTerm({"x": -1, "y": Fraction(2, 5)}, Fraction(1, 7)), LE),
        (LinTerm({"x": Fraction(3, 4), "y": 1, "z": -1}, -2), EQ),
        (LinTerm({"y": -3, "z": Fraction(5, 6)}, 1), LE),
        (LinTerm({"z": -1}, Fraction(-1, 3)), LE),
    ])
    poly = PolyhedronLP(sys)
    assert poly.feasible
    sups = [poly.sup(LinTerm({"x": 1, "z": half})), poly.sup(LinTerm({"y": -1})),
            poly.sup(LinTerm({"z": Fraction(-2, 3), "x": -1}))]
    assert any(s is not None for s in sups)
    assert any(bv < poly.tab.n for bv in poly.tab.basis)  # structural columns pivoted in
    _assert_rows_reduced(poly.tab)
    rng = random.Random(14)
    for _ in range(40):
        lp_feasible(_rand_system(rng, "frac"))


def test_linterm_hash_is_kept_and_matches_the_formula():
    import pickle

    rng = random.Random(41)
    for _ in range(200):
        coeffs = {v: rng.randint(-3, 3) for v in rng.sample("xyzw", rng.randint(0, 3))}
        const = rng.randint(-5, 5)
        a = LinTerm(coeffs, const)
        b = LinTerm({v: Fraction(c) for v, c in reversed(coeffs.items())}, Fraction(const))
        assert a == b and hash(a) == hash(b)
        formula = hash((frozenset(a.coeffs.items()), a.const))
        assert hash(a) == formula and a._hash == formula and hash(a) == formula
        # a pickled term recomputes its hash (str hashes vary by process)
        c = pickle.loads(pickle.dumps(a))
        assert c == a and c._hash is None and hash(c) == formula
    assert hash(LinTerm({"x": Fraction(2)}, Fraction(-1))) == hash(LinTerm({"x": 2}, -1))
