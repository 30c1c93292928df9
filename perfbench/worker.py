"""Analysis worker: runs one request at a time for run.py.

Protocol, one JSON object per line: run.py writes a request on stdin;
the worker answers with a ``started`` line just before the analysis, with
a ``done`` line as soon as the analysis returns or raises (with its wall
time and, when tracing, the request's per-layer counts), then checks the
verdict untraced and answers with a ``checked`` line.  run.py kills the
worker when ``done`` is late, so only the analysis is under the
per-request time limit.

    python3 perfbench/worker.py --trace 0|1 --spans FILE

The worker caps its own address space at ``MEM_MB``.  Just before and
just after each analysis it times ``calibrate()``, the machine-speed probe
run.py uses to normalise wall times, and sends the readings with
``started`` and ``done``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import check

MEM_MB = 2048  # RLIMIT_AS of the worker
CAL_LOOP = 100_000  # iterations of the calibration loop


def calibrate() -> float:
    """The machine's current speed: median time of three runs of a fixed loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CAL_LOOP):
            total += i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def analyze(ot, req: dict):
    """Run the request through the public API; (exact flag or None, check)."""
    kind = req["kind"]
    if kind == "oct":
        n = req["n"]
        rel = ot.oct_encode([tuple(a) for a in req["atoms"]], 2 * n)
        wnt_res = ot.wnt(rel, n)
        proof = ot.prove_termination(rel, n)
        closure = ot.reflexive_transitive_closure(rel, n)
        return closure.exact, lambda: check.check_oct(req, rel, wnt_res, proof, closure)
    if kind == "affine":
        from octoterm.affine import mat

        rel = ot.AffineRel(req["n"], mat(req["a"]), tuple(req["b"]),
                           tuple((tuple(c), d) for c, d in req["guard"]))
        if ot.is_finite_monoid(rel.a):
            dnf = ot.finite_monoid_wnt(rel)
        else:
            dnf = ot.sufficient_termination(rel)
        return None, lambda: check.check_affine(req, dnf)
    if kind == "prog":
        program = ot.parse_program(req["text"])
        ot.is_flat(program)
        res = ot.nt_program(program)
        members, _ = ot.transitive_relation(program, req["head"], req["head"])
        return res.exact, lambda: check.check_prog(req, program, res.precondition, members)
    raise ValueError(f"unknown request kind {kind!r}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()
    limit = MEM_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proto = sys.stdout
    sys.stdout = sys.stderr  # keep library output off the protocol channel

    def send(obj) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    import octoterm as ot

    tracer = None
    span_fh = None
    if args.trace:
        import spans

        tracer = spans.install()
        span_fh = open(args.spans, "a", encoding="utf-8")
    send({"ready": True})

    for line in sys.stdin:
        req = json.loads(line)
        send({"id": req["id"], "started": True, "cal_s": calibrate()})
        if tracer is not None:
            tracer.request = req["id"]
            tracer.reset()
            tracer.active = True
        reply = {"id": req["id"], "done": True, "ok": True, "exact": None}
        checker = None
        start = time.perf_counter()
        try:
            reply["exact"], checker = analyze(ot, req)
        except Exception as exc:  # a failed request is data, the run goes on
            reply["ok"] = False
            reply["error"] = f"{type(exc).__name__}: {exc}"[:300]
            traceback.print_exc(file=sys.stderr)
        reply["latency_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        reply["cal_s"] = calibrate()
        if tracer is not None:
            layer = tracer.take()
            spans.write_spans(span_fh, layer.pop("spans"))
            span_fh.flush()
            reply["layers"] = layer
        send(reply)

        verdict = {"id": req["id"], "checked": True, "error": None}
        if checker is not None:
            try:
                verdict["error"] = checker()
            except Exception as exc:
                verdict["error"] = f"reference check raised {type(exc).__name__}: {exc}"[:300]
                traceback.print_exc(file=sys.stderr)
        send(verdict)
    if span_fh is not None:
        span_fh.close()


if __name__ == "__main__":
    main()
