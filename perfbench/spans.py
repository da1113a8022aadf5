"""Spans recorded around the package's public functions, from outside it.

Nothing in the package is edited. Each function is wrapped at runtime where
its caller looks the name up: modules import names directly (the engine
calls `hybridpar.engine.eps_prediction`, not `hybridpar.mixture.eps_prediction`),
so each wrapper replaces the attribute the caller reads. Methods are wrapped
on their class, which every caller reaches through.

A span holds a name, start, end, parent span and op id. A span's self time is
its duration minus the part of it that its child spans cover. Spans stay in
memory until `write_chrome_trace` writes them as Chrome Trace Event JSON,
which chrome://tracing and ui.perfetto.dev open with nothing installed.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np


class Tracer:
    """In-memory span recorder for one single-threaded process.

    A span is the list [name, start, end, parent, op]; parent is the index of
    the enclosing span or -1 for a root.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        self.counts[name] += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was innermost")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        out.append((end - start) - covered(children.get(i, []), start, end))
    return out


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_time_by_module(spans: list[list]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[module_of(span[0])] += own
    return dict(totals)


def write_chrome_trace(spans: list[list], path: str) -> None:
    """Complete ("X") events on one track, times in microseconds."""
    t0 = min((s[1] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
        for i, (name, start, end, parent, op) in enumerate(spans):
            event = {"name": name, "cat": module_of(name), "ph": "X",
                     "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                     "pid": 1, "tid": 1,
                     "args": {"span": i, "parent": parent, "op": op}}
            fh.write(("," if i else "") + json.dumps(event) + "\n")
        fh.write("]}\n")


# -- result capture ------------------------------------------------------------

@dataclass
class RunRecord:
    """What the benchmark keeps of one engine run: enough to check and digest
    the outputs without holding the run's event trace."""

    role: str            # "plan" (requested trajectory) or "baseline" (serial)
    variant: str
    seed: int
    k: int | None
    n_devices: int
    x0: np.ndarray
    latency_s: float
    comm_bytes: int
    message_bytes: int
    tau1: int | None
    tau2: int | None
    busy_s: float
    makespan_s: float
    pipelined_steps: int

    def digest(self) -> str:
        h = hashlib.sha256(np.ascontiguousarray(self.x0).tobytes())
        h.update(repr((self.tau1, self.tau2, self.latency_s,
                       self.comm_bytes)).encode())
        return h.hexdigest()


def record_of(role: str, plan, result) -> RunRecord:
    trace = result.trace
    return RunRecord(
        role=role, variant=plan.variant.value, seed=plan.seed,
        k=None if plan.switch is None else plan.switch.k,
        n_devices=len(plan.devices), x0=result.x0,
        latency_s=result.latency_s, comm_bytes=result.comm_bytes,
        message_bytes=sum(m.nbytes for m in trace.messages),
        tau1=result.tau1, tau2=result.tau2,
        busy_s=sum(b.end - b.start for b in trace.busy),
        # the same maximum RunTrace.makespan takes, without entering the
        # traced method from outside any engine span
        makespan_s=max([b.end for b in trace.busy]
                       + [m.arrive for m in trace.messages]),
        pipelined_steps=sum(1 for b in trace.busy if b.label == "segment_0"))


# -- instrumentation -----------------------------------------------------------

# (owner, attribute, span name). Owner is a module path, or "module:Class" for
# methods. Each entry is where a caller on a CLI path looks the name up.
SPAN_TARGETS = (
    ("hybridpar.cli", "run_plan", "engine.run_plan"),
    ("hybridpar.cli", "run_serial", "engine.run_serial"),
    ("hybridpar.cli", "load_config", "config.load_config"),
    ("hybridpar.cli", "replay_series", "monitor.replay_series"),
    ("hybridpar.cli", "compare_runs", "metrics.compare_runs"),
    ("hybridpar.config:ExperimentConfig", "from_dict", "config.from_dict"),
    ("hybridpar.config:ExperimentConfig", "to_plan", "config.to_plan"),
    ("hybridpar.config", "build_schedule", "schedules.build_schedule"),
    ("hybridpar.engine", "eps_prediction", "mixture.eps_prediction"),
    ("hybridpar.engine", "sample_x0", "mixture.sample_x0"),
    ("hybridpar.engine", "rel_mae", "monitor.rel_mae"),
    ("hybridpar.engine", "update_controller", "monitor.update_controller"),
    ("hybridpar.monitor:DiscrepancySeries", "record",
     "monitor.DiscrepancySeries.record"),
    ("hybridpar.engine", "cfg_combine", "schedules.cfg_combine"),
    ("hybridpar.engine", "ddim_step", "schedules.ddim_step"),
    ("hybridpar.engine", "account_comm", "trace.account_comm"),
    ("hybridpar.trace:Timeline", "busy", "trace.Timeline.busy"),
    ("hybridpar.trace:Timeline", "send", "trace.Timeline.send"),
    ("hybridpar.trace:RunTrace", "makespan", "trace.RunTrace.makespan"),
)

# Calls inside one module: counted, with no span, so their time stays with
# the enclosing span of the same module.
COUNT_TARGETS = (
    ("hybridpar.mixture", "conditional", "mixture.conditional"),
    ("hybridpar.mixture", "noised_mixture", "mixture.noised_mixture"),
    ("hybridpar.mixture", "score", "mixture.score"),
    ("hybridpar.monitor", "update_controller", "monitor.update_controller"),
)


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls_name) if cls_name else obj


class Patches:
    """Installed wrappers, removed in reverse order by `restore`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Swap owner.attr for make(original function)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _span(tracer: Tracer, name: str):
    def make(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapped
    return make


def _counted(tracer: Tracer, name: str):
    def make(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped
    return make


def _rows_counted(tracer: Tracer, inner):
    """eps_prediction also counts the batch rows it evaluates (x is arg 3)."""
    def make(fn):
        wrapped = inner(fn)

        @functools.wraps(fn)
        def with_rows(gm, cond, sched, x, t):
            tracer.counts["mixture.eps_prediction.rows"] += len(x)
            return wrapped(gm, cond, sched, x, t)
        return with_rows
    return make


def _detections(tracer: Tracer, inner):
    """update_controller also counts how each staged run chose tau1: by the
    slope rule (detected) or by tau_cap (forced)."""
    def make(fn):
        wrapped = inner(fn)

        @functools.wraps(fn)
        def classify(state, series, t, cfg):
            undecided = state.tau1 is None
            out = wrapped(state, series, t, cfg)
            if undecided and state.tau1 is not None:
                tracer.counts["monitor.staged_runs"] += 1
                if series.has(t) and series.has(t + cfg.L):
                    g = (series.get(t) - series.get(t + cfg.L)) / cfg.L
                    if 0.0 <= g < cfg.g_slope:
                        tracer.counts["monitor.detected"] += 1
            return out
        return classify
    return make


def install_capture(patches: Patches, sink: list) -> None:
    """Keep a RunRecord of every engine run the CLI starts.

    run_plan results are the requested trajectories; run_serial results are
    the serial baselines that simulate and sweep compare against.
    """
    cli = _resolve("hybridpar.cli")

    def capturing(role):
        def make(fn):
            @functools.wraps(fn)
            def wrapped(plan):
                result = fn(plan)
                sink.append(record_of(role, plan, result))
                return result
            return wrapped
        return make

    patches.replace(cli, "run_plan", capturing("plan"))
    patches.replace(cli, "run_serial", capturing("baseline"))


def install_tracing(patches: Patches, tracer: Tracer) -> None:
    """Wrap every traced name. Call before install_capture, so the capture
    hook wraps the engine spans and its bookkeeping stays out of them."""
    for owner, attr, name in SPAN_TARGETS:
        make = _span(tracer, name)
        if name == "mixture.eps_prediction":
            make = _rows_counted(tracer, make)
        elif name == "monitor.update_controller":
            make = _detections(tracer, make)
        patches.replace(_resolve(owner), attr, make)
    for owner, attr, name in COUNT_TARGETS:
        make = _counted(tracer, name)
        if name == "monitor.update_controller":
            make = _detections(tracer, make)
        patches.replace(_resolve(owner), attr, make)
