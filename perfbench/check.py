"""Reference checks for every verdict the benchmark collects.

The references do not share the code path they check:

* concrete semantics written here: relations evaluated atom by atom over
  integer boxes, affine loops and ramp programs simulated step by step,
  and the exact precondition of the BRANCHING family (x != c0);
* the brute-force box oracles of ``octoterm.oracle``;
* ``octoterm.ranking.verify_lrf`` for ranking witnesses;
* powers built by iterated ``oct_compose`` for closure members;
* the acceptance-test formulas of the two golden programs.

Worker-side checks (``check_oct``, ``check_affine``, ``check_prog``) take
the library's result objects; ``check_cli`` takes the CLI's JSON output.
Each returns an error string, or None when the verdict agrees.
"""

from __future__ import annotations

import itertools
import random
import re

import numpy as np

# in-box sizes per variable count: small enough that every box check of a
# request stays well under a second
OCT_BOX = {1: 8, 2: 4, 3: 2, 4: 1, 5: 1, 6: 1}
AFFINE_BOX = {1: 10, 2: 5, 3: 3, 4: 2}
SIM_STEPS = 600
PARAM_MAX = 40


# -- concrete semantics ------------------------------------------------------------


def box_points(n: int, bound: int) -> np.ndarray:
    axis = range(-bound, bound + 1)
    return np.array(list(itertools.product(axis, repeat=n)), dtype=np.int64).reshape(-1, n)


def relation_matrix(atoms, n: int, pts: np.ndarray) -> np.ndarray:
    """M[p, q] is True when (pts[p], pts[q]) satisfies every atom."""
    ok = np.ones((len(pts), len(pts)), dtype=bool)
    for si, i, sj, j, c in atoms:
        vi = si * (pts[:, i][:, None] if i < n else pts[:, i - n][None, :])
        vj = sj * (pts[:, j][:, None] if j < n else pts[:, j - n][None, :])
        ok &= (vi + vj) <= c
    return ok


def step_powers(mat: np.ndarray, k: int) -> list[np.ndarray]:
    """[M^1 .. M^k] over the box (runs that stay inside the box)."""
    out = [mat]
    m8 = mat.astype(np.uint8)
    for _ in range(k - 1):
        out.append((out[-1].astype(np.uint8) @ m8) > 0)
    return out


def live_mask(mat: np.ndarray) -> np.ndarray:
    """Box points with an infinite run inside the box."""
    alive = np.ones(len(mat), dtype=bool)
    while True:
        nxt = alive & mat[:, alive].any(axis=1)
        if (nxt == alive).all():
            return alive
        alive = nxt


def simulate_affine(req: dict, pts: np.ndarray) -> np.ndarray:
    """True for start points whose run survives SIM_STEPS steps."""
    a = np.array(req["a"], dtype=np.int64)
    b = np.array(req["b"], dtype=np.int64)
    cs = np.array([c for c, _ in req["guard"]], dtype=np.int64)
    ds = np.array([d for _, d in req["guard"]], dtype=np.int64)
    x = pts.copy()
    alive = np.ones(len(pts), dtype=bool)
    for _ in range(SIM_STEPS):
        alive &= ((x @ cs.T) >= ds).all(axis=1)
        x = x @ a.T + b
    return alive


def ramp_nonterminating(dirs, x: int, bounds) -> bool:
    """A ramp program loops forever iff y ends where it started."""
    net = 0
    for d, m in zip(dirs, bounds):
        if x < m:
            net += d * (m - x)
            x = m
    return net == 0


def two_phase_golden(x: int, m: int, n: int) -> bool:
    return (n == 2 * m - x and m >= x + 1 and n >= m + 1) or (m <= x and n <= x)


# -- formulas printed by the CLI -----------------------------------------------------

_TOKEN = re.compile(r"[+-]|\d+\s*\*\s*[A-Za-z_]\w*'?|\d+|[A-Za-z_]\w*'?")


def _linear(text: str) -> tuple[dict, int]:
    coeffs: dict = {}
    const = 0
    sign = 1
    for tok in _TOKEN.findall(text):
        if tok in "+-":
            sign = sign if tok == "+" else -sign
            continue
        if "*" in tok:
            c, v = (s.strip() for s in tok.split("*"))
            coeffs[v] = coeffs.get(v, 0) + sign * int(c)
        elif tok[0].isdigit():
            const += sign * int(tok)
        else:
            coeffs[tok] = coeffs.get(tok, 0) + sign
        sign = 1
    return coeffs, const


def parse_atom(text: str):
    """(coeffs, const, op, modulus): lhs - rhs compared with 0, or taken mod m."""
    m = re.fullmatch(r"\s*(.*?)\s*%\s*(\d+)\s*==\s*(-?\d+)\s*", text)
    if m:
        coeffs, const = _linear(m.group(1))
        return coeffs, const - int(m.group(3)), "%", int(m.group(2))
    lhs, op, rhs = re.split(r"(<=|>=|==)", text)
    lc, lk = _linear(lhs)
    rc, rk = _linear(rhs)
    for v, c in rc.items():
        lc[v] = lc.get(v, 0) - c
    return lc, lk - rk, op, 0


def _atom_holds(atom, env) -> bool:
    coeffs, const, op, mod = atom
    v = const + sum(c * env[name] for name, c in coeffs.items())
    if op == "<=":
        return v <= 0
    if op == ">=":
        return v >= 0
    if op == "==":
        return v == 0
    return v % mod == 0


class Formula:
    """A conjunction printed by the CLI, optionally under `exists p, q >= 0 .`."""

    def __init__(self, text: str):
        text = text.strip()
        self.params: list[str] = []
        m = re.fullmatch(r"exists\s+(.*?)\s*>=\s*0\s*\.\s*(.*)", text, re.S)
        if m:
            self.params = [p.strip() for p in m.group(1).split(",")]
            text = m.group(2)
        self.false = text == "false"
        self.atoms = [] if text in ("true", "false") else [
            parse_atom(a) for a in text.split("&&")]

    @classmethod
    def of_conj(cls, conj: dict) -> "Formula":
        f = cls("true")
        f.atoms = [parse_atom(a) for a in conj["atoms"] + conj["divisibility"]]
        return f

    def holds(self, env: dict) -> bool:
        if self.false:
            return False
        if not self.params:
            return all(_atom_holds(a, env) for a in self.atoms)
        for vals in itertools.product(range(PARAM_MAX), repeat=len(self.params)):
            env.update(zip(self.params, vals))
            if all(_atom_holds(a, env) for a in self.atoms):
                return True
        return False


def _dnf_holds(conjs, env) -> bool:
    return any(c.holds(env) for c in conjs)


# -- worker-side checks -------------------------------------------------------------


def check_oct(req: dict, rel, wnt_res, proof, closure) -> str | None:
    from octoterm import ParamOct, oct_compose, oct_leq, tight_close
    from octoterm.oracle import BoxDomain, eval_membership, live_points
    from octoterm.ranking import RankingWitness, WellFounded, verify_lrf

    n = req["n"]
    live = live_points(rel, n, BoxDomain.cube(n, -OCT_BOX[n], OCT_BOX[n]))
    if wnt_res.set.is_bottom:
        if live:
            return f"wnt is empty but the box oracle finds {len(live)} live starts"
    elif not all(eval_membership(wnt_res.set, p) for p in live):
        return "wnt misses a live start found by the box oracle"
    if isinstance(proof, WellFounded):
        if live:
            return "well founded, but the box oracle finds a live start"
        w = proof.proof
        if isinstance(w, RankingWitness) and not verify_lrf(
                w.witness_relation, w.function, w.decrease, w.lower_bound, n):
            return "ranking witness fails verify_lrf"
    elif not all(eval_membership(proof.wnt_set, p) for p in live):
        return "not-well-founded set misses a live start"

    # closure members against iterated compositions R^1..R^K
    plain = [m for m in closure.members if not isinstance(m, ParamOct)]
    params = [m for m in closure.members if isinstance(m, ParamOct)]
    # enough powers to reach instance 2 of every family
    top_k = len(plain) + 4 * len(params) + 2
    powers = []
    base = tight_close(rel)
    power = base
    for _ in range(top_k):
        if power.is_bottom:
            break
        powers.append(power)
        power = oct_compose(power, base, n)
    for k, p in enumerate(powers, 1):
        # R^k can only be instance j < k of a family, as its prefix is >= 1
        candidates = plain + [po.instantiate(j) for po in params for j in range(k)]
        if not any(oct_leq(p, m) for m in candidates if not m.is_bottom):
            return f"closure misses R^{k}"
    if closure.exact:
        for m in plain + [po.instantiate(j) for po in params for j in range(3)]:
            if not m.is_bottom and not any(oct_leq(m, p) for p in powers):
                return "exact closure has a member that is no power of R"
    return None


def check_affine(req: dict, dnf) -> str | None:
    n = req["n"]
    pts = box_points(n, AFFINE_BOX[n])
    survives = simulate_affine(req, pts)
    for p, alive in zip(pts.tolist(), survives):
        claimed = dnf.eval({f"x{i}": v for i, v in enumerate(p)})
        if req["monoid"] and claimed != alive:
            return f"finite-monoid wnt disagrees with simulation at {p}"
        if not req["monoid"] and claimed and alive:
            return f"sufficient termination condition holds at {p}, which runs on"
    return None


def _branching_cycles(req: dict, x: int, y: int):
    """Valuations reached from (x, y) at l1 by one cycle back to l1."""
    p = req["props"]
    if x == p["c0"]:
        return []
    out = [(x - p["step"], x)]
    out.append((x, y - 1) if y > p["c1"] else (x, y))
    return out


def check_prog(req: dict, program, pre, members) -> str | None:
    from octoterm.oracle import BoxDomain, program_live_starts
    from octoterm.program import member_cases

    names = list(program.variables)
    fam = req["family"]
    props = req["props"]
    rng = random.Random(req["id"])

    def at(**vals):
        return pre.eval({v: vals.get(v, 0) for v in names})

    if fam in ("golden-branching", "branching"):
        for x in range(-8, 9):
            for y in range(-8, 9):
                if at(x=x, y=y) != (x != props["c0"]):
                    return f"precondition wrong at x={x}, y={y}"
    elif fam == "golden-two-phase":
        for x, m, n in itertools.product(range(-8, 9), repeat=3):
            if at(x=x, m=m, n=n) != two_phase_golden(x, m, n):
                return f"precondition wrong at x={x}, m={m}, n={n}"
    else:
        k = props["phases"]
        for x, *bounds in itertools.product(range(-3, 4), repeat=k + 1):
            vals = dict(zip([f"m{i}" for i in range(k)], bounds), x=x,
                        y=rng.randint(-3, 3), y0=rng.randint(-3, 3))
            if at(**vals) != ramp_nonterminating(props["dirs"], x, bounds):
                return f"precondition wrong at {vals}"

    box = 3 if len(names) <= 2 else 1
    for start in program_live_starts(program, BoxDomain.cube(len(names), -box, box)):
        if not pre.eval(dict(zip(names, start))):
            return f"precondition misses the in-box lasso start {start}"

    cases = [c for m in members for c in member_cases(m)]

    def summary(pre_v: dict, post_v: dict) -> bool:
        env = dict(pre_v)
        env.update({v + "'": post_v[v] for v in names})
        return any(c.eval(env) for c in cases)

    if fam == "golden-branching" or fam == "branching":
        # soundness on every one- and two-cycle run from the box
        for x in range(-4, 5):
            for y in range(-4, 5):
                for x1, y1 in _branching_cycles(req, x, y):
                    for post in [(x1, y1)] + _branching_cycles(req, x1, y1):
                        if not summary({"x": x, "y": y}, {"x": post[0], "y": post[1]}):
                            return f"summary at l1 misses ({x}, {y}) -> {post}"
        return None
    # the first ramp loop: x climbs to its bound, y moves with it
    bound, d = ("m", 1) if fam == "golden-two-phase" else ("m0", props["dirs"][0])
    for trial in range(1500):
        v = {name: rng.randint(-6, 6) for name in names}
        post = dict(v)
        if trial % 2:
            steps = rng.randint(1, 6)
            v[bound] = max(v[bound], v["x"] + steps + rng.randint(0, 2))
            post = dict(v, x=v["x"] + steps, y=v["y"] + d * steps)
        else:
            post.update(x=rng.randint(-6, 6), y=rng.randint(-6, 6))
        want = (post["x"] - v["x"] == d * (post["y"] - v["y"])
                and post["x"] >= v["x"] + 1 and v[bound] >= post["x"])
        if summary(v, post) != want:
            return f"summary at {req['head']} wrong for {v} -> {post}"
    return None


# -- CLI checks ---------------------------------------------------------------------


def _box_env(names, pt, primed=None) -> dict:
    env = {v: int(c) for v, c in zip(names, pt)}
    if primed is not None:
        env.update({v + "'": int(c) for v, c in zip(names, primed)})
    return env


def check_cli(req: dict, out: dict) -> str | None:
    fam = req["family"]
    ref = req["ref"]
    names = list("abcdef"[: ref.get("n", 0)])
    if fam.startswith("rel-"):
        n = ref["n"]
        pts = box_points(n, {1: 12, 2: 5}.get(n, 2))
        mat = relation_matrix(ref["atoms"], n, pts)
        live = pts[live_mask(mat)]
        if fam == "rel-wnt" or (fam == "rel-rank" and out["status"] == "not-well-founded"):
            f = Formula(out["wnt"])
            bad = [p for p in live.tolist() if not f.holds(_box_env(names, p))]
            return f"wnt misses live starts {bad[:3]}" if bad else None
        if fam == "rel-rank":
            if out["status"] != "well-founded":
                return f"unexpected status {out['status']!r}"
            if len(live):
                return "well founded, but the box has a live start"
            if out["witness"] == "false":
                return None
            wit = Formula(out["witness"])
            coeffs, const = _linear(out["ranking_function"])

            def fval(p) -> int:
                return const + sum(c * int(p[names.index(v)]) for v, c in coeffs.items())

            for i, j in zip(*np.nonzero(mat)):
                if wit.holds(_box_env(names, pts[i], pts[j])):
                    if fval(pts[i]) - fval(pts[j]) < out["decrease"] or fval(pts[i]) < out["lower_bound"]:
                        return f"ranking function fails on {pts[i].tolist()} -> {pts[j].tolist()}"
            return None
        if fam == "rel-closure":
            members = [Formula(m) for m in out["members"] if m != "identity"]
            for k, mk in enumerate(step_powers(mat, 6), 1):
                for i, j in zip(*np.nonzero(mk)):
                    if not _dnf_holds(members, _box_env(names, pts[i], pts[j])):
                        return f"closure misses a {k}-step pair"
            return None
        if fam == "rel-power":
            f = Formula(out["power"])
            mk = step_powers(mat, ref["k"])[-1]
            for i, j in zip(*np.nonzero(mk)):
                if not f.holds(_box_env(names, pts[i], pts[j])):
                    return f"power {ref['k']} misses {pts[i].tolist()} -> {pts[j].tolist()}"
            return None
        if fam == "rel-pre":
            for k, (mk, text) in enumerate(zip(step_powers(mat, ref["k"]), out["pre"]), 1):
                f = Formula(text)
                for i in np.nonzero(mk.any(axis=1))[0]:
                    if not f.holds(_box_env(names, pts[i])):
                        return f"pre^{k} misses {pts[i].tolist()}"
            return None
    if fam == "affine-check":
        want = {"finite_monoid": ref["monoid"], "polynomially_bounded": True}
        return None if out == want else f"expected {want}, got {out}"
    if fam in ("affine-wnt", "affine-terminate"):
        key = "wnt" if fam == "affine-wnt" else "sufficient_termination"
        conjs = [Formula.of_conj(c) for c in out[key]]
        pts = box_points(ref["n"], AFFINE_BOX[ref["n"]])
        for p, alive in zip(pts.tolist(), simulate_affine(ref, pts)):
            claimed = _dnf_holds(conjs, _box_env(names, p))
            if (claimed != alive) if fam == "affine-wnt" else (claimed and alive):
                return f"{fam} disagrees with simulation at {p}"
        return None
    if fam == "prog-flat":
        return None if out.get("flat") is False and out.get("reason") else f"expected not flat, got {out}"
    dirs = ref["props"]["dirs"]
    if fam == "prog-analyze":
        conjs = [Formula.of_conj(c) for c in out["precondition"]["dnf"]]
        for x, m0, y in itertools.product(range(-4, 5), repeat=3):
            env = {"x": x, "m0": m0, "y": y, "y0": 0}
            if _dnf_holds(conjs, env) != ramp_nonterminating(dirs, x, [m0]):
                return f"precondition wrong at {env}"
        return None
    if fam == "prog-summary":
        members = [Formula(m) for m in out["members"]]
        for x, m0, x2, dy in itertools.product(range(-3, 4), range(-3, 4), range(-3, 5), range(-4, 5)):
            env = {"x": x, "m0": m0, "y": 0, "y0": 0, "x'": x2, "m0'": m0, "y'": dy, "y0'": 0}
            want = x2 >= x + 1 and m0 >= x2 and dy == dirs[0] * (x2 - x)
            if _dnf_holds(members, env) != want:
                return f"summary wrong at {env}"
        return None
    raise ValueError(f"no check for {fam}")
