"""Paired benchmark runs of a base commit against a head commit.

    python3 tools/bench_pairs.py --base REV [--head REV] --tag TAG \
        --workload loops programs cli --seeds 311 312 313 [--seconds 20] \
        [--trace-seed 311]

Run from the root of the repository.  Both commits (``--head`` defaults to
``HEAD``; commit the change first) are extracted with ``git archive`` into
a scratch directory (``--workdir``, by default a new temporary one), so
the repository's ``.git`` and working tree are left as they are, and
neither side finds compiled bytecode that the other lacks.  For every
workload and seed, ``perfbench/run.py`` runs once on each side, each side
with its own copy of the benchmark, and the side that goes first
alternates from one pair to the next.

``BENCH_<TAG>.json`` (at the repository root unless ``--out`` says
otherwise) records every pair's end-to-end metrics and, per workload and
metric, each side's median and quartiles, how many pairs the head won,
lost and tied (by the direction ``BENCHMARK.json`` gives the metric),
whether the change of the median stays within the metric's bound, and
whether the gain rule holds: at least nine tenths of the pairs won and the
medians further apart than the base's interquartile distance.  Per
workload it also records each side's runs whose verdicts the benchmark
judged wrong and failed requests (``verdicts``), and the script exits 1
when any run was judged wrong or the head failed more requests than the
base: a gain measured on wrong outputs is no gain.  The file's header
names both commits, the run length, the Python and numpy versions, and
the ``PYTHONDONTWRITEBYTECODE`` and ``PYTHONHASHSEED`` that the runs
inherit (null when unset): with the first unset, a ``cli`` process may
find bytecode that an earlier one compiled.

With ``--trace-seed S``, each side also runs ``perfbench/run.py --trace 1``
once per workload on seed S, and the file keeps both sides' per-layer
metrics (call counts, self times, ``trace.count_mismatches``, ...) under
the workload's ``layers``, so a change of an end-to-end metric can be
traced to the layer it came from.

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()


def extract(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` under ``dest``; the full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    data = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          check=True, capture_output=True).stdout
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def numpy_version() -> str | None:
    """The installed numpy's version, read without importing numpy."""
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run in ``root``: its final JSON line, plus wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "run_s": round(wall, 1),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per metric: each side's quartiles, the pairs won, and the two rules."""
    out = {}
    for name, (better, bound) in spec.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
        qb, qh = quartiles(base), quartiles(head)
        change = sign * (qh["median"] - qb["median"])  # > 0 is better
        worse_share = -change / qb["median"] if qb["median"] else 0.0
        out[name] = {
            "better": better, "bound": bound, "base": qb, "head": qh,
            "wins": wins, "losses": losses, "ties": len(pairs) - wins - losses,
            "within_bound": worse_share <= bound,
            "gain_rule": wins >= 0.9 * len(pairs) and change > qb["q3"] - qb["q1"],
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the commit to compare against")
    ap.add_argument("--head", default="HEAD", help="the commit to measure")
    ap.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True,
                    help="one pair per seed, for every workload")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace-seed", type=int, default=None,
                    help="also record each side's per-layer metrics of one traced run")
    ap.add_argument("--workdir", type=Path, default=None,
                    help="where both commits are extracted (default: a temporary directory)")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    if not (ROOT / "perfbench" / "run.py").is_file():
        print("bench_pairs: run from the root of the repository", file=sys.stderr)
        return 2
    spec = {m["name"]: (m["better"], m["bound"])
            for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    roots = {"base": workdir / "base", "head": workdir / "head"}
    report = {"base": extract(args.base, roots["base"]),
              "head": extract(args.head, roots["head"]),
              "seconds": args.seconds, "python": sys.version.split()[0],
              "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
              "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
              "numpy": numpy_version(), "workloads": {}}
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            sides = list(roots.items())
            if i % 2:
                sides.reverse()
            pair = {"seed": seed, "first": sides[0][0]}
            for side, root in sides:
                pair[side] = run_once(root, workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {pair['base']['metrics'][k]:.4g} -> {pair['head']['metrics'][k]:.4g}"
                for k in ("latency_p50_s", "throughput_rps")), flush=True)
        verdicts = {side: {"incorrect_runs": sum(not p[side]["correct"] for p in pairs),
                           "failed_requests": sum(p[side]["failed"] for p in pairs)}
                    for side in roots}
        report["workloads"][workload] = {"pairs": pairs, "verdicts": verdicts,
                                         "summary": summarize(pairs, spec)}
        if args.trace_seed is not None:
            layers = {"seed": args.trace_seed}
            for side, root in roots.items():
                layers[side] = run_once(root, workload, args.trace_seed, args.seconds, trace=1)
            report["workloads"][workload]["layers"] = layers
            base, head = layers["base"]["metrics"], layers["head"]["metrics"]
            moved = [f"{k} {base[k]:.4g} -> {head[k]:.4g}" for k in base
                     if k.endswith(".calls") and base[k] != head.get(k)]
            print(f"{workload} traced seed {args.trace_seed}: "
                  + (", ".join(moved) or "no call count moved"), flush=True)
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    status = 0
    for workload, w in report["workloads"].items():
        base, head = w["verdicts"]["base"], w["verdicts"]["head"]
        if (base["incorrect_runs"] or head["incorrect_runs"]
                or head["failed_requests"] > base["failed_requests"]):
            print(f"bench_pairs: {workload}: a run judged incorrect, or more failed "
                  f"requests at the head: {w['verdicts']}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
