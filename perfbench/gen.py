"""Seeded input generators for the three workloads.

Every request is a plain JSON-serialisable dict, so ``run.py`` can hand it
to a worker process or turn it into a command line.  The same seed always
gives the same requests.  Each request carries a ``family`` and the input
properties the workload varies (``props``), which ``run.py`` tallies.

Octagonal atoms follow ``octoterm.oct_encode``: ``(si, i, sj, j, c)`` means
``si*v[i] + sj*v[j] <= c`` over ``v = x + x'`` (indices ``0..N-1`` are the
current variables, ``N..2N-1`` the primed ones); ``i == j`` with ``si ==
sj`` means ``2*si*v[i] <= c``.
"""

from __future__ import annotations

import random

NAMES = "abcdef"

# Dying counters x >= 0 && x <= B && x' == x - 1.  B <= 64 is within the
# default 64-power period budget; from B = 66 on, closure raises KeyError
# (the known defect), after a time that grows with B.
DYING_WITHIN = (56, 64)
DYING_PAST = (66, 70)


# -- octagonal loops -----------------------------------------------------------


def _oct(family: str, n: int, atoms, **props) -> dict:
    return {"kind": "oct", "family": family, "n": n,
            "atoms": [list(a) for a in atoms],
            "props": {"N": n, "affine": False, **props}}


def _rand_atom(rng: random.Random, dim: int, max_coef: int):
    i, j = rng.randrange(dim), rng.randrange(dim)
    si, sj = rng.choice((1, -1)), rng.choice((1, -1))
    if i == j and si != sj:
        sj = si
    return (si, i, sj, j, rng.randint(-max_coef, max_coef))


def random_relation(rng: random.Random, n: int) -> dict:
    """Unstructured octagonal relation; may be empty."""
    atoms = [_rand_atom(rng, 2 * n, 4) for _ in range(rng.randint(2, 2 * n + 3))]
    return _oct("random", n, atoms)


def guarded_relation(rng: random.Random, n: int) -> dict:
    """One update atom per variable plus octagonal guards, like a loop body."""
    atoms = []
    for i in range(n):
        d = rng.randint(-2, 2)
        style = rng.randrange(3)
        if style != 2:
            atoms.append((1, n + i, -1, i, d))   # x'_i <= x_i + d
        if style != 1:
            atoms.append((-1, n + i, 1, i, -d))  # x'_i >= x_i + d
    for _ in range(rng.randint(0, n + 1)):
        i, j = rng.randrange(n), rng.randrange(n)
        si, sj = rng.choice((1, -1)), rng.choice((1, -1))
        if i == j and si != sj:
            sj = si
        atoms.append((si, i, sj, j, rng.randint(-4, 4)))
    return _oct("guarded", n, atoms)


def periodic_relation(rng: random.Random, c: int) -> dict:
    """A ring of c variables plus a bound t; powers have prefix = period = c."""
    n = c + 1
    atoms = []
    neg = rng.randrange(c)
    for i in range(c):
        w = -rng.randint(1, 3) if i == neg else rng.randint(0, 1)
        atoms.append((1, (i + 1) % c, -1, n + i, w))  # x_{i+1} - x_i' <= w
    atoms.append((1, 2 * n - 1, -1, c, 0))            # t' - t <= 0
    atoms.append((1, n + c - 1, -1, c, 0))            # x_{c-1}' - t <= 0
    return _oct("periodic", n, atoms, period=c)


def dying_counter(bound: int) -> dict:
    atoms = [(-1, 0, -1, 0, 0), (1, 0, 1, 0, 2 * bound), (1, 1, -1, 0, -1), (-1, 1, 1, 0, 1)]
    return _oct("dying", 1, atoms, bound=bound, past_budget=bound > 64)


# -- affine loops --------------------------------------------------------------


def affine_loop(rng: random.Random, n: int, monoid: bool) -> dict:
    """x' = A x + b with guard rows c.x >= d.

    ``monoid``: A is a signed permutation (finite monoid, exact WNT);
    otherwise A is unipotent upper-triangular with a non-zero superdiagonal
    (polynomially bounded, not a finite monoid).
    """
    if monoid:
        perm = list(range(n))
        rng.shuffle(perm)
        a = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    else:
        n = max(n, 2)
        a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            a[i][i + 1] = rng.randint(0, 1)
        a[0][1] = 1
    b = [rng.randint(-2, 2) for _ in range(n)]
    # guard rows are drawn freely, so a guard can be unsatisfiable
    guard = []
    for _ in range(rng.randint(1, 2)):
        c = [rng.choice((-1, 0, 1)) for _ in range(n)]
        if not any(c):
            c[rng.randrange(n)] = 1
        guard.append([c, rng.randint(-2, 2)])
    return {"kind": "affine", "family": "affine", "n": n, "a": a, "b": b,
            "guard": guard, "monoid": monoid,
            "props": {"N": n, "affine": True}}


# -- programs ------------------------------------------------------------------

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


def _prog(family: str, text: str, head: str, flat: bool, **props) -> dict:
    return {"kind": "prog", "family": family, "text": text, "head": head,
            "props": {"flat": flat, **props}}


def golden_branching() -> dict:
    return _prog("golden-branching", BRANCHING_PROGRAM, "l1", False,
                 c0=0, c1=0, step=1)


def golden_two_phase() -> dict:
    return _prog("golden-two-phase", TWO_PHASE_PROGRAM, "l2", True,
                 phases=2, dirs=[1, -1])


def ramp_program(rng: random.Random, k: int) -> dict:
    """k ramp loops in sequence (TWO_PHASE shape), then the y == y0 check.

    Phase i runs x up to m_i while y moves by dirs[i]; the program loops
    forever exactly when y ends where it started.
    """
    dirs = [rng.choice((1, -1)) for _ in range(k)]
    bounds = [f"m{i}" for i in range(k)]
    names = ["x", "y", "y0"] + bounds
    allv = ", ".join(names)
    keep = ", ".join(["y0"] + bounds)
    lines = [f"vars {allv};", "init l0;",
             f"l0 -> l1 : y0' == y && id({', '.join(v for v in names if v != 'y0')});"]
    for i, d in enumerate(dirs):
        step = "+ 1" if d > 0 else "- 1"
        lines.append(f"l{i + 1} -> l{i + 1} : x < {bounds[i]} && x' == x + 1 && "
                     f"y' == y {step} && id({keep});")
        lines.append(f"l{i + 1} -> l{i + 2} : x >= {bounds[i]} && id({allv});")
    end = k + 1
    lines.append(f"l{end} -> l{end} : y == y0 && id({allv});")
    lines.append(f"l{end} -> l{end + 1} : y != y0 && id({allv});")
    return _prog("ramp", "\n".join(lines) + "\n", "l1", True, phases=k, dirs=dirs)


def branching_program(rng: random.Random | None, step: int) -> dict:
    """BRANCHING with the exit constant c0, the y threshold c1 and the x step varied.

    Whatever the constants, a run from l1 can cycle through l7 forever
    exactly when x != c0, so the precondition is x != c0.  Without ``rng``
    the constants are the golden ones (c0 = c1 = 0).  The analysis slows
    down steeply as c0 - c1 grows (at the commit that defined the
    benchmark: about 8 s at 2, over 15 s at 3), so c0 - c1 stays <= 1.
    """
    if rng is None:
        c0, c1 = 0, 0
    else:
        c1 = rng.randint(-2, 2)
        c0 = rng.randint(-2, min(1, c1 + 1))
    text = BRANCHING_PROGRAM.replace("x != 0", f"x != {c0}").replace("x == 0", f"x == {c0}")
    text = text.replace("y > 0", f"y > {c1}").replace("y <= 0", f"y <= {c1}")
    text = text.replace("x' == x - 1", f"x' == x - {step}")
    return _prog("branching", text, "l1", False, c0=c0, c1=c1, step=step)


# -- command lines ---------------------------------------------------------------


def _var(i: int, n: int) -> str:
    return NAMES[i % n] + ("'" if i >= n else "")


def relation_text(req: dict) -> str:
    """Render octagonal atoms in the CLI grammar over the names a, b, c, ..."""
    n = req["n"]
    parts = []
    for si, i, sj, j, c in req["atoms"]:
        if i == j and si == sj:
            lhs = f"{2 * si}*{_var(i, n)}"
        else:
            lhs = ("" if si > 0 else "-") + _var(i, n) + (" + " if sj > 0 else " - ") + _var(j, n)
        parts.append(f"{lhs} <= {c}")
    return " && ".join(parts)


def _lin(coeffs, const: int) -> str:
    out = ""
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        term = NAMES[j] if abs(c) == 1 else f"{abs(c)}*{NAMES[j]}"
        if out:
            out += (" - " if c < 0 else " + ") + term
        else:
            out = ("-" if c < 0 else "") + term
    if not out:
        return str(const)
    if const:
        out += (" - " if const < 0 else " + ") + str(abs(const))
    return out


def affine_text(req: dict) -> str:
    n = req["n"]
    parts = [f"{NAMES[i]}' == {_lin(req['a'][i], req['b'][i])}" for i in range(n)]
    parts += [f"{_lin(c, 0)} >= {d}" for c, d in req["guard"]]
    return " && ".join(parts)


def _cli(family: str, argv: list, ref: dict, **props) -> dict:
    return {"kind": "cli", "family": family, "argv": argv, "ref": ref, "props": props}


def cli_round(rng: random.Random) -> list[dict]:
    """One of each CLI command, on inputs from the small end of the generators,
    and a second ``prog summary``.

    ``prog analyze`` and ``prog summary`` are the costliest commands.  With
    two summaries a round, a run of five rounds has 15 of them at the top of
    the latency distribution, so the tail (the eleventh-largest of 60)
    falls inside the summary cluster, not on its edge."""
    def small() -> dict:
        return guarded_relation(rng, rng.randint(1, 2))

    out = []
    for cmd in ("wnt", "rank"):
        r = small()
        out.append(_cli(f"rel-{cmd}", ["rel", cmd, relation_text(r)], r, N=r["n"]))
    d = dying_counter(rng.randint(4, 12))
    out.append(_cli("rel-closure", ["rel", "closure", relation_text(d)], d, N=1))
    for cmd, hi in (("power", 5), ("pre", 4)):
        r = small()
        k = rng.randint(2, hi)
        out.append(_cli(f"rel-{cmd}", ["rel", cmd, relation_text(r), str(k)],
                        {**r, "k": k}, N=r["n"]))
    for cmd, monoid in (("check", rng.random() < 0.5), ("wnt", True), ("terminate", False)):
        a = affine_loop(rng, rng.randint(2, 3), monoid)
        out.append(_cli(f"affine-{cmd}", ["affine", cmd, affine_text(a)], a, N=a["n"], affine=True))
    nf = branching_program(rng, 1)
    out.append(_cli("prog-flat", ["prog", "flat", nf["text"]], nf, flat=False))
    for cmd in ("analyze", "summary", "summary"):
        p = ramp_program(rng, 1)
        argv = ["prog", cmd, p["text"]] if cmd == "analyze" else \
            ["prog", "summary", "--from", "l1", "--to", "l1", p["text"]]
        out.append(_cli(f"prog-{cmd}", argv, p, phases=1, flat=True))
    return out


# -- rounds ----------------------------------------------------------------------


def loops_round(rng: random.Random) -> list[dict]:
    """36 loops: the octagonal families at N = 1..6, two periodic relations,
    dying counters on both sides of the budget, and six affine loops.

    The mix is weighted so that the median request falls deep inside the
    N = 3 cluster (six random and six guarded relations), not near its
    edge: how many drawn relations are trivial (empty, or decided at once)
    varies from seed to seed and shifts the median's rank within the
    cluster, which then moves it little.
    Five dying counters past the budget per round put them at the top of
    the latency distribution: in a run of three rounds the tail, the
    eleventh-largest of 108 samples, falls inside that cluster and reads the
    known defect, not the costliest of the drawn N = 5 and 6 relations.
    """
    reqs = [random_relation(rng, n) for n in range(1, 7)]
    reqs += [guarded_relation(rng, n) for n in range(1, 7)]
    reqs += [random_relation(rng, 3) for _ in range(5)]
    reqs += [guarded_relation(rng, 3) for _ in range(5)]
    reqs += [periodic_relation(rng, rng.randint(2, 3)), periodic_relation(rng, rng.randint(4, 5))]
    reqs += [dying_counter(rng.randint(*DYING_WITHIN))]
    reqs += [dying_counter(rng.randint(*DYING_PAST)) for _ in range(5)]
    reqs += [affine_loop(rng, rng.randint(1, 4), True) for _ in range(3)]
    reqs += [affine_loop(rng, rng.randint(2, 4), False) for _ in range(3)]
    return reqs


def programs_round(rng: random.Random, full: bool = True) -> list[dict]:
    """The goldens, ramps with one and two phases, and BRANCHING variants.

    A full round is 24 programs: 19 one-phase ramps, TWO_PHASE and one
    two-phase ramp, and the three BRANCHING programs.  The one-phase ramps
    are the cheapest family, so they buy samples: with 24 a run has a tail
    percentile (ten samples beyond it) apart from the median, and both fall
    inside the one-phase cluster.  The costlier families weigh in the
    throughput.

    BRANCHING with x' == x - 2 is the known analysis that does not finish;
    it stays in every full round, with the golden constants, so the memory
    it reaches before the limit does not depend on the seed.
    ``full=False`` (the traced run) keeps one program per family and leaves
    that one out: killed at the limit, it yields no per-layer counts, and
    the traced run would spend the limit on it three times.
    """
    reqs = [golden_branching(), golden_two_phase()]
    reqs += [ramp_program(rng, 1) for _ in range(19 if full else 1)]
    reqs += [ramp_program(rng, 2), branching_program(rng, 1)]
    if full:
        reqs.append(branching_program(None, 2))
    return reqs


def make_requests(workload: str, seed: int, rounds: int, full: bool = True) -> list[dict]:
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for r in range(rounds):
        if workload == "loops":
            batch = loops_round(rng)
        elif workload == "programs":
            batch = programs_round(rng, full)
        elif workload == "cli":
            batch = cli_round(rng)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        for i, req in enumerate(batch):
            req["id"] = f"{workload}-{seed}-{r}-{i}"
        out.extend(batch)
    return out
