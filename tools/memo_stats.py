"""Hits, misses and sizes of every memo of the package on benchmark requests.

    python3 tools/memo_stats.py --workload loops|programs --seeds 5 6 7 8 \
        [--rounds 1] [--tree DIR]

Run from the root of the repository.  For each seed, one fresh process
imports ``octoterm`` from ``DIR/src`` and the benchmark's worker from
``DIR/perfbench`` (``DIR`` is this repository unless ``--tree`` names
another checkout, such as a ``git archive`` of an earlier commit).  It
runs the workload's requests of that seed, ``gen.make_requests(workload,
seed, rounds)``, through ``worker.analyze`` as the benchmark's worker
does, without the untimed check that follows each request there.  Then it
reads ``cache_info()`` of every ``functools.lru_cache`` in the package's
modules.

The table has one line per memo, by module and name: its ``maxsize``, its
hits and misses summed over the seeds, the share of calls that hit, and
the largest ``currsize`` a seed's process ended with.  Nothing under
``perfbench/`` is changed.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _emit(tree: Path, workload: str, seed: int, rounds: int) -> dict[str, list]:
    """Memo name -> [maxsize, hits, misses, currsize] after one seed's
    requests, in this process."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import gen
    import worker

    import octoterm as ot

    for req in gen.make_requests(workload, seed, rounds):
        worker.analyze(ot, req)
    out = {}
    for info in pkgutil.iter_modules(ot.__path__):
        module = importlib.import_module(f"octoterm.{info.name}")
        for fn in vars(module).values():
            if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                c = fn.cache_info()
                out[f"{info.name}.{fn.__qualname__}"] = [c.maxsize, c.hits, c.misses, c.currsize]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("loops", "programs"), required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1, help="rounds of requests per seed")
    ap.add_argument("--tree", type=Path, default=ROOT,
                    help="the checkout whose src and perfbench run (default: this one)")
    ap.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    tree = args.tree.resolve()
    if args.emit:
        (seed,) = args.seeds
        json.dump(_emit(tree, args.workload, seed, args.rounds), sys.stdout)
        return 0

    totals: dict[str, list] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, __file__, "--emit", "--workload", args.workload,
             "--seeds", str(seed), "--rounds", str(args.rounds), "--tree", str(tree)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return 1
        for name, (maxsize, hits, misses, size) in json.loads(proc.stdout).items():
            t = totals.setdefault(name, [maxsize, 0, 0, 0])
            t[1] += hits
            t[2] += misses
            t[3] = max(t[3], size)
    print(f"# memos of {tree / 'src'}: workload={args.workload} "
          f"seeds={' '.join(map(str, args.seeds))} rounds={args.rounds}")
    print(f"{'memo':<36} {'maxsize':>7} {'hits':>8} {'misses':>8} {'hit %':>6} {'currsize':>8}")
    for name, (maxsize, hits, misses, size) in sorted(totals.items()):
        share = f"{100 * hits / (hits + misses):.1f}" if hits + misses else "-"
        print(f"{name:<36} {maxsize!s:>7} {hits:>8} {misses:>8} {share:>6} {size:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
