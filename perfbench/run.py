"""octoterm benchmark: closed-loop workloads with verified verdicts.

    python3 perfbench/run.py --workload loops|programs|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  One client sends one request at a time and waits for it.  A
run is a whole number of rounds of the workload's request mix; the round
count is ``--seconds`` over the round time measured at the commit that
defined the benchmark, so every run of one workload sees the same mix.

``loops`` and ``programs`` requests run in a worker process that this
script kills when a request exceeds ``LIMIT_S``; the request then counts
as failed and a fresh worker takes the next one.  ``cli`` requests are
one ``python -m octoterm.cli --format json ...`` process each.  Every
verdict is checked against a reference in ``check.py``; the checks run
outside the timed analysis.

Times are normalised to the speed of the machine at the moment they are
taken.  Just before and just after each timed request (and each set-up
spawn) a fixed pure-Python loop, ``worker.calibrate()``, is timed while no
other process of the benchmark runs, and the request's wall time is
scaled by ``CAL_REF_S`` over the mean of the two readings.  A reported
second is thus a second on a machine where that loop takes ``CAL_REF_S``.
On a shared machine whose speed drifts by tens of percent from one minute
to the next, this removes most of the drift.  The raw wall-time median
and tail are printed in the report too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
request of one round three times in turn, each variant in its own worker
(traced with PYTHONHASHSEED 0, untraced, traced with PYTHONHASHSEED 1),
and prints the per-layer metrics of the first variant, the tracing
overhead against the untraced one, and how many counts differ between
the two traced variants (a count must repeat exactly).

The last line of standard output is one JSON object; the lines before it
are a readable report.  Details (per-request records, environment, input
property shares) go to ``.perfbench_out/``, and traced runs also write
their spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

LIMIT_S = 15.0         # per-request analysis limit, enforced by killing the worker
CHECK_LIMIT_S = 120.0  # reference checks and worker start-up
SETUP_REPS = 7
CAL_REF_S = 0.004      # calibration time that normalised seconds refer to
# seconds per round at the commit that defined the benchmark (2 cores,
# Python 3.11, numpy 2.4), checks included
ROUND_S = {"loops": 7.0, "programs": 45.0, "cli": 3.8}
CLI_EXACT = {"rel-closure", "prog-analyze", "prog-summary"}

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from worker import MEM_MB, calibrate  # noqa: E402


def child_env(hashseed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(hashseed)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def normalise(wall_s: float, cal_before: float, cal_after: float) -> float:
    return wall_s * CAL_REF_S / ((cal_before + cal_after) / 2)


def spawn_times(code: str, reps: int) -> list[float]:
    """Normalised wall times of fresh interpreters running ``code`` (after
    one warm-up)."""
    cmd = [sys.executable, "-c", code]
    env = child_env(0)
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    out = []
    for _ in range(reps):
        cal = calibrate()
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        out.append(normalise(wall, cal, calibrate()))
    return out


def import_time(module: str, reps: int) -> float:
    """Median in-process time of ``import module`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(time.perf_counter() - t)")
    cmd = [sys.executable, "-c", code]
    out = [float(subprocess.run(cmd, env=child_env(0), cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout)
           for _ in range(reps)]
    return statistics.median(out)


# -- worker-backed workloads -----------------------------------------------------


class Worker:
    def __init__(self, trace: bool, hashseed: int, spans_path: Path | None, log):
        cmd = [sys.executable, str(HERE / "worker.py")]
        if trace:
            cmd += ["--trace", "1", "--spans", str(spans_path)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=log, env=child_env(hashseed), cwd=ROOT)
        self.buf = b""
        if self.read(CHECK_LIMIT_S) is None:
            self.kill()
            raise RuntimeError("analysis worker did not start; see the log in .perfbench_out")

    def send(self, req: dict) -> None:
        self.proc.stdin.write((json.dumps(req) + "\n").encode())
        self.proc.stdin.flush()

    def read(self, timeout: float):
        """The next protocol line, or None on timeout or worker exit."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def kill(self) -> None:
        self.proc.kill()
        self.close()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _record(req: dict) -> dict:
    return {"id": req["id"], "kind": req["kind"], "family": req["family"],
            "props": req["props"], "ok": True, "wrong": False, "error": None,
            "exact": None, "layers": None, "killed": False}


def _worker_request(worker: Worker, req: dict) -> tuple[dict, bool]:
    """Run one request; the record, and whether the worker is still usable."""
    rec = _record(req)
    worker.send(req)
    # the worker calibrates just before (``started``) and just after the analysis
    started = worker.read(CHECK_LIMIT_S)
    start = time.perf_counter()
    done = worker.read(LIMIT_S) if started is not None else None
    if done is None:
        wall = time.perf_counter() - start
        alive = worker.proc.poll() is None
        worker.kill()
        cal_after = calibrate()
        rec.update(ok=False, killed=alive and started is not None, wall_s=wall,
                   latency_s=normalise(wall, started["cal_s"] if started else cal_after,
                                       cal_after),
                   error="worker exited" if not alive else
                   f"no result within {LIMIT_S:g} s" if started else "request not started")
        return rec, False
    rec.update(ok=done["ok"], error=done.get("error"), wall_s=done["latency_s"],
               latency_s=normalise(done["latency_s"], started["cal_s"], done["cal_s"]),
               exact=done["exact"], layers=done.get("layers"))
    verdict = worker.read(CHECK_LIMIT_S)
    if verdict is None:
        rec.update(ok=False, wrong=True, error="reference check did not finish")
        worker.kill()
        return rec, False
    if verdict["error"]:
        rec.update(ok=False, wrong=True, error=verdict["error"])
    return rec, True


def worker_pass(reqs, variants, log) -> list[list[dict]]:
    """Each request goes to one worker per variant (trace, hashseed, spans
    file) in turn, so the variants' timings are paired in time."""
    results = [[] for _ in variants]
    workers = [None] * len(variants)
    try:
        for req in reqs:
            for k, (trace, hashseed, spans_path) in enumerate(variants):
                if workers[k] is None:
                    workers[k] = Worker(trace, hashseed, spans_path, log)
                rec, usable = _worker_request(workers[k], req)
                if not usable:
                    workers[k] = None
                results[k].append(rec)
    finally:
        for worker in workers:
            if worker is not None:
                worker.close()
    return results


# -- cli workload ------------------------------------------------------------------


def _cli_request(req: dict, trace: bool, hashseed: int, span_fh, log) -> dict:
    rec = _record(req)
    args = ["--format", "json", *req["argv"]]
    layers_path = OUT / f"cli-layers-{os.getpid()}.json"
    if trace:
        cmd = [sys.executable, str(HERE / "clitrace.py"), str(layers_path), req["id"], *args]
    else:
        cmd = [sys.executable, "-m", "octoterm.cli", *args]
    cal = calibrate()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(hashseed), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=LIMIT_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    rec["wall_s"] = time.perf_counter() - start
    rec["latency_s"] = normalise(rec["wall_s"], cal, calibrate())
    log.write(err.decode(errors="replace"))
    if timed_out:
        rec.update(ok=False, killed=True, error=f"no result within {LIMIT_S:g} s")
    elif proc.returncode not in (0, 4):
        # 2 and 3 are documented, but reject inputs that are valid here
        rec.update(ok=False, error=f"exit code {proc.returncode}: "
                   f"{err.decode(errors='replace').strip()[-200:]}")
    else:
        try:
            payload = json.loads(out)
            if req["family"] in CLI_EXACT:
                rec["exact"] = payload["exact"] is True
            error = check.check_cli(req, payload)
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error:
            rec.update(ok=False, wrong=True, error=error)
    if trace and layers_path.exists():
        layer = json.loads(layers_path.read_text(encoding="utf-8"))
        layers_path.unlink()
        spans.write_spans(span_fh, layer.pop("spans"))
        rec["layers"] = layer
    return rec


def cli_pass(reqs, variants, log) -> list[list[dict]]:
    """Like worker_pass, with one CLI process per request and variant."""
    results = [[] for _ in variants]
    with ExitStack() as stack:
        fhs = [stack.enter_context(open(path, "a", encoding="utf-8")) if trace else None
               for trace, _, path in variants]
        for req in reqs:
            for k, (trace, hashseed, _) in enumerate(variants):
                results[k].append(_cli_request(req, trace, hashseed, fhs[k], log))
    return results


# -- metrics -----------------------------------------------------------------------


def end_to_end(records, setup_s: float) -> tuple[dict, dict]:
    lat = sorted(r["latency_s"] for r in records)
    n = len(lat)
    failed = sum(not r["ok"] for r in records)
    if n > 20:
        tail, pct = lat[n - 11], 100.0 * (n - 10) / n
    else:  # no percentile above the median has ten samples beyond it
        tail, pct = lat[-1], 100.0
    flagged = [r for r in records if r["kind"] in ("oct", "prog") or r["family"] in CLI_EXACT]
    exact = sum(1 for r in flagged if r["ok"] and r["exact"])
    timed_s = sum(r["latency_s"] for r in records)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "throughput_rps": ((n - failed) / timed_s, "1/s"),
        "success_share": (1 - failed / n, "share"),
        "exact_share": (exact / len(flagged) if flagged else 1.0, "share"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    wall = sorted(r["wall_s"] for r in records)
    notes = {"samples": n, "tail_percentile": round(pct, 2), "error_share": failed / n,
             "exact_flagged": len(flagged), "timed_s": round(timed_s, 3),
             "wall_p50_s": round(statistics.median(wall), 4),
             "wall_tail_s": round(wall[n - 11] if n > 20 else wall[-1], 4)}
    return metrics, notes


def _sum_layers(records) -> tuple[Counter, defaultdict, Counter]:
    calls, self_s, extra = Counter(), defaultdict(float), Counter()
    for r in records:
        layer = r["layers"]
        if not layer:
            continue
        calls.update(layer["calls"])
        extra.update(layer["extra"])
        for k, v in layer["self_s"].items():
            self_s[k] += v
    return calls, self_s, extra


def _counts(records) -> dict:
    calls, _, extra = _sum_layers(records)
    return {**{f"{k}.calls": v for k, v in calls.items()}, **extra,
            "failed": sum(not r["ok"] for r in records)}


def per_layer(first, second, untraced, import_np: float, import_ot: float) -> tuple[dict, list]:
    calls, self_s, extra = _sum_layers(first)
    metrics = {}
    for mod, names in spans.WRAPPED.items():
        for fname in names:
            key = f"{mod}.{fname}"
            metrics[f"{key}.calls"] = (calls[key], "count")
            metrics[f"{key}.self_s"] = (self_s[key], "s")
    for bucket in ("le12", "13_24", "gt24"):
        key = f"dbm.fw_close.calls_dim_{bucket}"
        metrics[key] = (extra[key], "count")
    detect = calls["closure.detect_period"]
    metrics["closure.detect_period.certified_ratio"] = (
        extra["closure.detect_period.certified"] / detect if detect else 0.0, "ratio")
    analyses = calls["program.nt_program"]
    metrics["program.transitive_relation.calls_per_analysis"] = (
        extra["program.transitive_relation.calls_in_analysis"] / analyses if analyses else 0.0,
        "ratio")
    metrics["presburger.eliminate_all.disjuncts_out"] = (
        extra["presburger.eliminate_all.disjuncts_out"], "count")
    metrics["import.numpy_s"] = (import_np, "s")
    metrics["import.octoterm_s"] = (import_ot, "s")
    ratios = [a["latency_s"] / u["latency_s"] for a, u in zip(first, untraced)
              if a["ok"] and u["ok"] and u["latency_s"] > 0]
    metrics["trace.overhead_ratio"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
    # a request killed at the limit in either traced variant has no counts to
    # compare; whether it crosses the limit depends on the machine's speed
    both = [(a, b) for a, b in zip(first, second) if not (a["killed"] or b["killed"])]
    ca, cb = _counts([a for a, _ in both]), _counts([b for _, b in both])
    mismatched = sorted(k for k in set(ca) | set(cb) if ca.get(k, 0) != cb.get(k, 0))
    metrics["trace.count_mismatches"] = (len(mismatched), "count")
    return metrics, mismatched


def property_shares(records) -> dict:
    tally = Counter()
    for r in records:
        for k, v in r["props"].items():
            if isinstance(v, list):
                continue
            tally[f"{k}={v}"] += 1
        tally[f"family={r['family']}"] += 1
    return {k: round(v / len(records), 4) for k, v in sorted(tally.items())}


def environment(args) -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "limit_s": LIMIT_S,
            "mem_mb": MEM_MB, "cal_ref_s": CAL_REF_S}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "octoterm" / "__init__.py").is_file():
        print(f"perfbench: no octoterm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_pass = cli_pass if args.workload == "cli" else worker_pass

    env = environment(args)
    report = {"env": env}
    with open(OUT / f"{tag}.log", "w", encoding="utf-8") as log:
        if not args.trace:
            rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
            reqs = gen.make_requests(args.workload, args.seed, rounds)
            setup_s = statistics.median(spawn_times("import octoterm", SETUP_REPS))
            [records] = run_pass(reqs, [(False, 0, None)], log)
            metrics, notes = end_to_end(records, setup_s)
            correct = not any(r["wrong"] for r in records)
        else:
            rounds = 1
            reqs = gen.make_requests(args.workload, args.seed, rounds,
                                     full=args.workload != "programs")
            variants = [(True, 0, OUT / f"{tag}-passA-spans.tsv"), (False, 0, None),
                        (True, 1, OUT / f"{tag}-passB-spans.tsv")]
            for _, _, path in variants:
                if path is not None:
                    path.unlink(missing_ok=True)
            passes = run_pass(reqs, variants, log)
            records = passes[0]
            imp_np = import_time("numpy", SETUP_REPS)
            imp_ot = import_time("octoterm", SETUP_REPS)
            metrics, mismatched = per_layer(passes[0], passes[2], passes[1], imp_np, imp_ot)
            killed = sorted({r["id"] for p in (passes[0], passes[2]) for r in p if r["killed"]})
            notes = {"count_mismatches": mismatched, "hashseeds": [0, 1],
                     "limit_failures": killed}
            correct = not any(r["wrong"] for p in passes for r in p) and not mismatched
    env["rounds"] = rounds
    failed = sum(not r["ok"] for r in records)
    report.update(notes=notes, shares=property_shares(records),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  records=[{k: v for k, v in r.items() if k != "layers"} for r in records])
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"# octoterm benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={rounds} requests={len(records)} failed={failed}")
    print("# env " + json.dumps(env, sort_keys=True))
    for k, v in notes.items():
        print(f"# {k}: {v}")
    for r in records:
        if not r["ok"]:
            print(f"# failed {r['id']} ({r['family']}): {r['error']}")
    for k, (v, u) in metrics.items():
        print(f"{k:48s} {v:.6g} {u}")
    if "error_share" in notes:  # reported as success_share in the JSON line
        print(f"{'error_share':48s} {notes['error_share']:.6g} share")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
