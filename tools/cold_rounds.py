"""Cold rounds of one workload on two commits, one fresh process per seed.

    python3 tools/cold_rounds.py --base REV [--head REV] \
        --workload programs|loops --seeds 5 6 7 8 9 10 11 12 [--reps 8]

Run from the root of the repository.  Both commits (``--head`` defaults to
``HEAD``; commit the change first) are extracted, as
``tools/bench_pairs.py`` does, by its ``extract``, into a temporary
directory that is removed at the end.  A process imports ``octoterm`` from its
side's ``src`` and the benchmark's worker from its ``perfbench``, and runs
one round of a seed, ``gen.make_requests(workload, seed, 1)``, through
``worker.analyze`` as the benchmark's worker does, without the check that
follows each request there.  So every request meets the memos of that
round only.  The round's wall time is divided by the mean of
``worker.calibrate()`` just before and just after it, and multiplied by
the median of every calibration taken, so that it reads in seconds of a
machine of steady speed.

What this measures that ``bench_pairs`` does not: a ``programs`` run of
the benchmark reads one cold round, of one seed, per 20 s run, and a
``loops`` run's metrics are mostly its warm rounds.  Here every timed
round is cold, and a repetition sums the cold rounds of many seeds.

A repetition runs every seed once on each side, and the side that goes
first alternates from one process to the next.  A side's time in a
repetition is the sum over the seeds.  The script prints each side's
median and quartiles over the repetitions and how many repetitions the
head won.  After the timed round, each process reads the outputs of its
requests again, as ``tools/same_outputs.py`` writes them, and hashes them
into the seed's fingerprint.  Every seed whose fingerprints differ
between the sides, or between the repetitions of one side, is printed,
and the script then exits 1: a speed-up from changed outputs is no
speed-up.  Nothing under ``perfbench/`` is changed.  Standard library
only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import extract, quartiles  # noqa: E402
from same_outputs import _loop_outputs, _program_outputs  # noqa: E402


def _emit(tree: Path, workload: str, seed: int) -> dict:
    """The calibrated round of one seed, in this process."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import gen
    import worker

    import octoterm as ot

    requests = gen.make_requests(workload, seed, 1)
    cal_before = worker.calibrate()
    start = time.perf_counter()
    for r in requests:
        worker.analyze(ot, r)
    seconds = time.perf_counter() - start
    cal = (cal_before + worker.calibrate()) / 2
    outputs = (_program_outputs if workload == "programs" else _loop_outputs)(ot, requests)
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    return {"seconds": seconds, "cal_s": cal, "fingerprint": digest[:16]}


def _run(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--emit", str(tree), "--workload", workload,
         "--seeds", str(seed)],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} on {tree} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def _spread(xs: list[float]) -> str:
    q = quartiles(xs)
    return f"median {q['median']:.3f} s (quartiles {q['q1']:.3f}-{q['q3']:.3f})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="the commit to compare against")
    ap.add_argument("--head", default="HEAD", help="the commit to compare")
    ap.add_argument("--workload", choices=("programs", "loops"), required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--reps", type=int, default=8, help="repetitions (at least 2)")
    ap.add_argument("--emit", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.emit is not None:
        json.dump(_emit(args.emit.resolve(), args.workload, args.seeds[0]), sys.stdout)
        return 0
    if args.base is None:
        ap.error("--base is required")
    if args.reps < 2:
        ap.error("--reps must be at least 2")
    runs = []  # (repetition, side, seed, result)
    with tempfile.TemporaryDirectory(prefix="cold_rounds_") as work:
        trees = {side: Path(work) / side for side in ("base", "head")}
        shas = {side: extract(rev, trees[side])
                for side, rev in (("base", args.base), ("head", args.head))}
        turn = 0
        for rep in range(args.reps):
            for seed in args.seeds:
                sides = ("base", "head") if turn % 2 == 0 else ("head", "base")
                turn += 1
                for side in sides:
                    runs.append((rep, side, seed, _run(trees[side], args.workload, seed)))
            print(f"repetition {rep + 1} of {args.reps} done", flush=True)
    cal_ref = statistics.median(res["cal_s"] for *_, res in runs)
    totals = {side: [0.0] * args.reps for side in shas}
    prints: dict[tuple[str, int], set[str]] = {}
    for rep, side, seed, res in runs:
        totals[side][rep] += res["seconds"] * cal_ref / res["cal_s"]
        prints.setdefault((side, seed), set()).add(res["fingerprint"])
    print(f"{args.workload}, seeds {' '.join(map(str, args.seeds))}, {args.reps} repetitions, "
          f"times at a calibration of {cal_ref * 1e3:.2f} ms")
    for side in shas:
        print(f"{side} {shas[side][:12]}: {_spread(totals[side])}")
    won = sum(h < b for b, h in zip(totals["base"], totals["head"]))
    print(f"head faster in {won} of {args.reps} repetitions")
    differ = 0
    for seed in args.seeds:
        base, head = prints["base", seed], prints["head", seed]
        same = len(base) == len(head) == 1 and base == head
        differ += not same
        print(f"seed {seed}: fingerprint {' '.join(sorted(base))}"
              + ("" if same else f" / head {' '.join(sorted(head))}  OUTPUTS DIFFER"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
