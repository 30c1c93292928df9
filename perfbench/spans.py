"""Span tracing of octoterm's public functions, installed from outside.

``install()`` replaces each function in ``WRAPPED`` by a wrapper in every
loaded ``octoterm`` module that holds a reference to it, so calls made
inside the package are traced too.  A wrapper records one span per call:
name, start, end, parent span and request id.  It also keeps per-function
call counts and self time (duration minus the time of traced callees) and
a few counts that need the call's arguments or result (``PROBES``).

Tracing is off until ``Tracer.active`` is set, so reference checks that
reuse library code run untraced.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

WRAPPED = {
    "dbm": ("fw_close", "dbm_compose"),
    "octagon": ("tight_close", "oct_compose"),
    "term_oct": ("fast_power", "wnt"),
    "closure": ("detect_period", "reflexive_transitive_closure"),
    "pdbm": ("param_fw",),
    "linarith": ("lp_feasible", "farkas_template"),
    "presburger": ("eliminate_all", "conj_implies"),
    "ranking": ("synthesize_lrf",),
    "affine": ("finite_monoid_wnt", "sufficient_termination"),
    "program": ("nt_program", "transitive_relation", "compose_members"),
    "cli": ("main",),
}


def _fw_dims(tr: "Tracer", args, result) -> None:
    dim = args[0].dim
    bucket = "le12" if dim <= 12 else "13_24" if dim <= 24 else "gt24"
    tr.extra[f"dbm.fw_close.calls_dim_{bucket}"] += 1


def _certified(tr: "Tracer", args, result) -> None:
    if type(result).__name__ == "PeriodCertificate":
        tr.extra["closure.detect_period.certified"] += 1


def _disjuncts(tr: "Tracer", args, result) -> None:
    tr.extra["presburger.eliminate_all.disjuncts_out"] += len(result)


def _in_analysis(tr: "Tracer", args, result) -> None:
    if any(frame[2] == "program.nt_program" for frame in tr.stack):
        tr.extra["program.transitive_relation.calls_in_analysis"] += 1


PROBES = {
    "dbm.fw_close": _fw_dims,
    "closure.detect_period": _certified,
    "presburger.eliminate_all": _disjuncts,
    "program.transitive_relation": _in_analysis,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.request = ""
        self.stack: list[list] = []  # [span id, traced child time, name]
        self.next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a new request's aggregates and span list."""
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self.spans: list[tuple] = []

    def take(self) -> dict:
        out = {"calls": dict(self.calls), "self_s": dict(self.self_s),
               "extra": dict(self.extra), "spans": self.spans}
        self.reset()
        return out

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            tr.next_id += 1
            frame = [tr.next_id, 0.0, name]
            parent = tr.stack[-1][0] if tr.stack else 0
            tr.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tr.stack.pop()
                dur = end - start
                if tr.stack:
                    tr.stack[-1][1] += dur
                tr.calls[name] += 1
                tr.self_s[name] += dur - frame[1]
                tr.spans.append((frame[0], parent, tr.request, name, start, end))
            if probe is not None:
                probe(tr, args, result)
            return result

        return traced


def install() -> Tracer:
    """Import the wrapped modules and patch every reference to their functions."""
    tracer = Tracer()
    wrappers = {}  # id of the original function -> its wrapper
    for mod, names in WRAPPED.items():
        module = importlib.import_module(f"octoterm.{mod}")
        for fname in names:
            fn = getattr(module, fname)
            wrappers[id(fn)] = tracer.wrap(f"{mod}.{fname}", fn)
    for modname, module in list(sys.modules.items()):
        if modname != "octoterm" and not modname.startswith("octoterm."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return tracer


def write_spans(fh, spans) -> None:
    for span_id, parent, request, name, start, end in spans:
        fh.write(f"{request}\t{span_id}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
