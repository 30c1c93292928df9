"""Compare the outputs of two commits on one fixed request set.

    python3 tools/same_outputs.py --base REV [--head REV] [--workdir DIR]

Run from the root of the repository.  Both commits (``--head`` defaults to
``HEAD``) are extracted with ``git archive``, as ``tools/bench_pairs.py``
does, and each side runs the request set below in one fresh process, with
its own ``src`` and its own ``perfbench/gen.py``:
- the ``programs`` requests of seeds 5-12: ``repr`` of ``is_flat``,
  ``nt_program`` and ``transitive_relation`` at the request's head;
- the ``loops`` requests of seeds 5-8: ``repr`` of each result
  (``wnt``, ``prove_termination`` and ``reflexive_transitive_closure`` of
  an octagonal loop; ``finite_monoid_wnt`` or ``sufficient_termination``
  of an affine one);
- the ``cli`` requests of seeds 5-44: exit code, stdout and stderr of
  ``cli.main`` with ``--format text`` and ``--format json``.

One round of each workload per seed.  Each side then computes the
``programs`` items a second time in the same process, in reverse order,
so every one of them meets the memos that all the others filled.

An item can differ by its ``repr`` alone: the same set, written with other
rows.  So each side also fingerprints every ``programs`` precondition and
summary, and the result of each ``prog analyze`` and ``prog summary``
command.  A set's fingerprint is its membership bit string over sample
points: every point of [-5, 5]^k up to k = 4 coordinates, else 4,000
points drawn from it with a fixed seed.  A summary's parameters are
eliminated first (``member_cases``), and its drawn points take each primed
coordinate within 1 of the unprimed one, most often equal to it: drawn
uniformly, fewer than 20 of 4,000 points fell in a summary such as the
ramp loops' x' = x + k && y' = y + k && m' = m.  An ``nt_program`` fingerprint holds
the flags, the precondition and each state's WNT; a command's also holds
its exit code and stderr.

The script prints every item whose output differs between the sides, or
that only one side has: as a ``repr`` change when both sides have equal
fingerprints for it, else as a differing set.  It also prints every item
whose repeat differs from its first output on either side.  It exits 1
if a set or a repeat differs, and 0 otherwise.  Nothing under
``perfbench/`` is changed.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import extract  # noqa: E402

SEEDS = {"programs": range(5, 13), "loops": range(5, 9), "cli": range(5, 45)}
# a fingerprint samples [-RADIUS, RADIUS]^k: all of it up to EXHAUSTIVE
# coordinates, else SAMPLES seeded points of it.  A summary's sample draws
# its primed half as x + d, d from STEPS, so that thin members such as
# x' = x or x' = x + 1 && y' = y - 1 hold at some of its points.
RADIUS, EXHAUSTIVE, SAMPLES = 5, 4, 4000
STEPS = (0, 0, 0, 1, -1)


@lru_cache(maxsize=None)
def _points(k: int, primed: bool = False) -> tuple[tuple[int, ...], ...]:
    """The sample of k coordinates; with ``primed``, the first half are
    the unprimed names and the second half their primed copies."""
    box = range(-RADIUS, RADIUS + 1)
    if k <= EXHAUSTIVE:
        return tuple(itertools.product(box, repeat=k))
    rng = random.Random(k)
    if not primed:
        return tuple(tuple(rng.choice(box) for _ in range(k)) for _ in range(SAMPLES))
    out = []
    for _ in range(SAMPLES):
        xs = [rng.choice(box) for _ in range(k // 2)]
        out.append(tuple(xs + [x + rng.choice(STEPS) for x in xs]))
    return tuple(out)


def _bits(names, holds, primed: bool = False) -> str:
    """The membership bits of a set over the sample points, as the count
    of members, the count of points and a digest of the bit string."""
    bits = "".join("1" if holds(dict(zip(names, pt))) else "0"
                   for pt in _points(len(names), primed))
    return f"{bits.count('1')}/{len(bits)}:{hashlib.sha256(bits.encode()).hexdigest()[:16]}"


def _nt_fingerprint(ot, p) -> str:
    res = ot.nt_program(p)
    xs = list(p.variables)
    return json.dumps({
        "flat": res.flat, "exact": res.exact, "budget_exhausted": res.budget_exhausted,
        "precondition": _bits(xs, res.precondition.eval),
        "per_state": [[q, method, _bits(xs, w.eval)] for q, method, w in res.per_state]})


def _summary_fingerprint(ot, p, q_in: str, q_out: str) -> str:
    from octoterm.program import member_cases

    members, exact = ot.transitive_relation(p, q_in, q_out)
    cases = [c for m in members for c in member_cases(m)]
    names = list(p.variables) + [v + "'" for v in p.variables]
    return json.dumps({"exact": exact,
                       "summary": _bits(names, lambda v: any(c.eval(v) for c in cases),
                                        primed=True)})


def _program_outputs(ot, requests) -> dict[str, str]:
    """Item id -> output text, for ``programs`` requests in the given order."""
    out = {}
    for r in requests:
        p = ot.parse_program(r["text"])
        out[r["id"] + "/is_flat"] = repr(ot.is_flat(p))
        out[r["id"] + "/nt_program"] = repr(ot.nt_program(p))
        out[r["id"] + "/transitive_relation"] = repr(
            ot.transitive_relation(p, r["head"], r["head"]))
    return out


def _loop_outputs(ot, requests) -> dict[str, str]:
    """Item id -> output text, for ``loops`` requests."""
    from octoterm.affine import mat

    out = {}
    for r in requests:
        if r["kind"] == "oct":
            n = r["n"]
            rel = ot.oct_encode([tuple(a) for a in r["atoms"]], 2 * n)
            out[r["id"] + "/wnt"] = repr(ot.wnt(rel, n))
            out[r["id"] + "/prove_termination"] = repr(ot.prove_termination(rel, n))
            out[r["id"] + "/closure"] = repr(ot.reflexive_transitive_closure(rel, n))
        else:
            rel = ot.AffineRel(r["n"], mat(r["a"]), tuple(r["b"]),
                               tuple((tuple(c), d) for c, d in r["guard"]))
            wnt = ot.finite_monoid_wnt if ot.is_finite_monoid(rel.a) else ot.sufficient_termination
            out[r["id"] + "/" + wnt.__name__] = repr(wnt(rel))
    return out


def _outputs(tree: Path) -> tuple[dict[str, str], list[str], dict[str, str]]:
    """Item id -> output text, for the request set on the tree's sources;
    the ``programs`` items whose repeat differs from their first output;
    and item id -> fingerprint, for the items that have one."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import gen
    import octoterm as ot
    from octoterm import cli

    requests = [r for s in SEEDS["programs"] for r in gen.make_requests("programs", s, 1)]
    out = _program_outputs(ot, requests)
    again = _program_outputs(ot, requests[::-1])
    repeats = [k for k, v in out.items() if again[k] != v]
    memo: dict[tuple, str] = {}

    def fingerprint(text: str, ends: tuple[str, str] | None) -> str:
        """The fingerprint of nt_program (ends None) or of the summary
        between the ends, once per program text."""
        if (text, ends) not in memo:
            p = ot.parse_program(text)
            memo[text, ends] = (_nt_fingerprint(ot, p) if ends is None
                                else _summary_fingerprint(ot, p, *ends))
        return memo[text, ends]

    fps = {}
    for r in requests:
        fps[r["id"] + "/nt_program"] = fingerprint(r["text"], None)
        fps[r["id"] + "/transitive_relation"] = fingerprint(r["text"], (r["head"],) * 2)
    out.update(_loop_outputs(ot, [r for s in SEEDS["loops"]
                                  for r in gen.make_requests("loops", s, 1)]))
    for r in (r for s in SEEDS["cli"] for r in gen.make_requests("cli", s, 1)):
        for fmt in ("text", "json"):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(["--format", fmt, *r["argv"]])
                except SystemExit as exc:  # argparse exits on a usage error
                    code = exc.code
            item = f"{r['id']}/cli-{fmt}"
            out[item] = json.dumps(
                {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
            argv = r["argv"]
            if argv[:2] in (["prog", "analyze"], ["prog", "summary"]):
                ends = None if argv[1] == "analyze" else (argv[3], argv[5])
                fps[item] = json.dumps({"exit": code, "stderr": stderr.getvalue(),
                                        "result": fingerprint(argv[-1], ends)})
    return out, repeats, fps


def _run_side(tree: Path) -> tuple[dict[str, str], list[str], dict[str, str]]:
    """The outputs of one tree, its differing repeats and its fingerprints,
    from a fresh process."""
    proc = subprocess.run([sys.executable, __file__, "--emit", str(tree)], cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the outputs of {tree} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="the commit to compare against")
    ap.add_argument("--head", default="HEAD", help="the commit to compare")
    ap.add_argument("--workdir", type=Path, default=None,
                    help="where both commits are extracted (default: a temporary directory)")
    ap.add_argument("--emit", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.emit is not None:
        json.dump(_outputs(args.emit.resolve()), sys.stdout)
        return 0
    if args.base is None:
        ap.error("--base is required")
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="same_outputs_"))
    sides, fps, repeats = {}, {}, 0
    for side, rev in (("base", args.base), ("head", args.head)):
        tree = workdir / side
        sha = extract(rev, tree)
        print(f"{side}: {sha}", flush=True)
        sides[side], differ, fps[side] = _run_side(tree)
        for k in differ:
            print(f"{side} repeat differs: {k}")
        repeats += len(differ)
    base, head = sides["base"], sides["head"]
    differ = [k for k in dict.fromkeys([*base, *head]) if base.get(k) != head.get(k)]
    same_set = [k for k in differ if k in fps["base"] and fps["base"][k] == fps["head"].get(k)]
    for k in same_set:
        print(f"repr differs, same set: {k}")
    sets = [k for k in differ if k not in same_set]
    for k in sets:
        print(f"differs: {k}\n  base: {base.get(k, '(missing)')[:400]}\n"
              f"  head: {head.get(k, '(missing)')[:400]}")
        if k in fps["base"] or k in fps["head"]:
            print(f"  fingerprints: {fps['base'].get(k)} / {fps['head'].get(k)}")
    print(f"{len(differ)} of {len(set(base) | set(head))} items differ: "
          f"{len(same_set)} by repr only, {len(sets)} otherwise; "
          f"{repeats} repeats differ from their first output")
    return 1 if sets or repeats else 0


if __name__ == "__main__":
    sys.exit(main())
