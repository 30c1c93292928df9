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
so every one of them meets the memos that all the others filled.  The
script prints every item whose output differs between the sides, or that
only one side has, and every item whose repeat differs from its first
output on either side; it exits 1 if there is any, and 0 otherwise.
Nothing under ``perfbench/`` is changed.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import extract  # noqa: E402

SEEDS = {"programs": range(5, 13), "loops": range(5, 9), "cli": range(5, 45)}


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


def _outputs(tree: Path) -> tuple[dict[str, str], list[str]]:
    """Item id -> output text, for the request set on the tree's sources;
    and the ``programs`` items whose repeat differs from their first output."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import gen
    import octoterm as ot
    from octoterm import cli
    from octoterm.affine import mat

    requests = [r for s in SEEDS["programs"] for r in gen.make_requests("programs", s, 1)]
    out = _program_outputs(ot, requests)
    again = _program_outputs(ot, requests[::-1])
    repeats = [k for k, v in out.items() if again[k] != v]
    for r in (r for s in SEEDS["loops"] for r in gen.make_requests("loops", s, 1)):
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
    for r in (r for s in SEEDS["cli"] for r in gen.make_requests("cli", s, 1)):
        for fmt in ("text", "json"):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(["--format", fmt, *r["argv"]])
                except SystemExit as exc:  # argparse exits on a usage error
                    code = exc.code
            out[f"{r['id']}/cli-{fmt}"] = json.dumps(
                {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    return out, repeats


def _run_side(tree: Path) -> tuple[dict[str, str], list[str]]:
    """The outputs of one tree and its differing repeats, from a fresh process."""
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
    sides, repeats = {}, 0
    for side, rev in (("base", args.base), ("head", args.head)):
        tree = workdir / side
        sha = extract(rev, tree)
        print(f"{side}: {sha}", flush=True)
        sides[side], differ = _run_side(tree)
        for k in differ:
            print(f"{side} repeat differs: {k}")
        repeats += len(differ)
    base, head = sides["base"], sides["head"]
    differ = [k for k in dict.fromkeys([*base, *head]) if base.get(k) != head.get(k)]
    for k in differ:
        print(f"differs: {k}\n  base: {base.get(k, '(missing)')[:400]}\n"
              f"  head: {head.get(k, '(missing)')[:400]}")
    print(f"{len(differ)} of {len(set(base) | set(head))} items differ; "
          f"{repeats} repeats differ from their first output")
    return 1 if differ or repeats else 0


if __name__ == "__main__":
    sys.exit(main())
