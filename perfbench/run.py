"""hybridpar benchmark: drive the public CLI in-process and report host time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one closed-loop client: each op is one call of
hybridpar.cli.main, and the next starts only after the previous returns.
BLAS/OpenMP pools are pinned to one thread before numpy loads. Inputs are
made from --seed (see workloads.py); every op's outputs are checked after it
returns, outside the timed region.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 wraps
the package's public functions (spans.py), runs every op of whole workload
cycles once traced and once untraced, alternating which goes first, and
reports the per-layer metrics; the spans are written as Chrome Trace Event
JSON under .bench_out/. Both modes print a readable report and end with one
JSON line: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_PINS:    # before numpy loads; the setup probe inherits it
    os.environ[_var] = "1"

import calibrate  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("sweep-32seed", "simulate-mix", "detect-replay")
SETUP_REPEATS = 11
HARD_STOP_S = 120.0    # never start an op after this, whatever min_ops says
SPAN_CAP = 250_000     # spans a traced run holds in memory, about 40 MB
# hybrid, sdxl-like, seed 0, default config: the ROADMAP's virtual figures
REFERENCE = {"latency_s": 8.153, "speedup": 2.02}


def _fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def _import_package():
    if not (SRC / "hybridpar" / "cli.py").is_file():
        raise ImportError(f"no hybridpar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hybridpar.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "hybridpar").resolve():
        raise ImportError(f"hybridpar imported from {cli.__file__}, not {SRC}")
    return cli


class Client:
    """Runs ops through hybridpar.cli.main and checks what they produce."""

    def __init__(self, cli, tracer=None):
        self.cli, self.tracer = cli, tracer
        self.failures: list[str] = []

    def run(self, op, op_id: int, traced: bool, cal_samples: int = 1) -> dict:
        records: list = []
        cal = [calibrate.sample() for _ in range(cal_samples)]
        patches = spans.Patches()
        if traced:
            self.tracer.op = op_id
            spans.install_tracing(patches, self.tracer)
        spans.install_capture(patches, records)
        out, err = io.StringIO(), io.StringIO()
        error = None
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter()
                span = self.tracer.open("cli.main") if traced else None
                try:
                    code = self.cli.main(op.argv)
                except SystemExit as exc:       # argparse rejects argv
                    code = exc.code
                except Exception:               # the op fails; the run goes on
                    code, error = None, traceback.format_exc()
                finally:
                    if traced:
                        self.tracer.close(span)
                seconds = time.perf_counter() - start
        finally:
            patches.restore()
        # keep only summaries: holding outputs would grow the benchmark's
        # own memory with the op count and leak into peak_rss_mb
        stdout = out.getvalue()
        result = {"seconds": seconds, "cal": cal, "ok": False, "virtual": None,
                  "digest": None, "stdout_bytes": len(stdout.encode()),
                  "pipelined_steps": sum(r.pipelined_steps for r in records)}
        if code != 0:
            self._note(op, error or f"exit {code}: {err.getvalue().strip()}")
            return result
        try:
            result["virtual"] = workloads.check(op, stdout, records)
        except (workloads.CheckFailed, OSError, ValueError, KeyError, IndexError,
                TypeError) as exc:      # malformed output fails the op
            self._note(op, f"{type(exc).__name__}: {exc}")
            return result
        result["digest"] = workloads.op_digest(op, stdout, records)
        result["ok"] = True
        return result

    def _note(self, op, msg: str) -> None:
        self.failures.append(f"{op.argv[0]}: {msg}")


class SetupProbe:
    """Times the set-up a user pays before the first op: a fresh interpreter
    imports hybridpar.cli, parses every config of the workload and builds
    every plan its ops run (setup_probe.py). Input generation is excluded."""

    def __init__(self, wl, workdir: Path):
        plans = []
        for op in wl.ops:
            if op.plans:
                index = wl.configs.index(op.reads[0])
                plans += [[index, seed, variant, k] for seed, variant, k in op.plans]
        self.manifest = workdir / "setup.json"
        self.manifest.write_text(json.dumps({"configs": wl.configs, "plans": plans}),
                                 encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[tuple[float, float]] = []    # (seconds, calibration)

    def __call__(self) -> None:
        cal = stats.median([calibrate.sample() for _ in range(5)])
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(self.manifest)],
                       env=self.env, check=True, timeout=60, cwd=ROOT)
        self.samples.append((time.perf_counter() - start, cal))


def reference_check(client, workdir: Path) -> tuple[bool, dict]:
    """Warm-up op that also pins the simulator to the ROADMAP's figures."""
    out_dir = workdir / "reference"
    op = workloads.Op(kind="simulate",
                      argv=["simulate", "--variant", "hybrid", "--seed", "0",
                            "--out", str(out_dir)],
                      delivered=workloads.T, reads=[],
                      writes=[str(out_dir / f) for f in
                              ("metrics.json", "trace.csv", "trace.json")],
                      plans=[(0, "hybrid", None), (0, "serial", None)],
                      variant="hybrid")
    res = client.run(op, -1, traced=False)
    if not res["ok"]:
        return False, {}
    got = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    ok = (round(got["latency_s"], 3) == REFERENCE["latency_s"]
          and round(got["speedup"], 2) == REFERENCE["speedup"])
    if not ok:
        client.failures.append(f"reference: hybrid sdxl-like seed 0 gave "
                               f"{got['latency_s']} s / {got['speedup']}x, "
                               f"expected {REFERENCE}")
    return ok, got


def measure(client, wl, seconds: float, probe: SetupProbe) -> tuple[list[dict], list[float]]:
    """Closed loop over whole cycles until `seconds` and min_ops are reached.

    The set-up probes are spread over the run, between ops, so they sample
    the same host states the ops do. Returns the op results and calibration
    samples taken after the last op.
    """
    results = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(probe.samples) < SETUP_REPEATS * min(1.0, elapsed / seconds):
            probe()
        i = len(results)
        results.append(client.run(wl.ops[i % len(wl.ops)], i, traced=False,
                                  cal_samples=wl.cal_samples))
        elapsed = time.perf_counter() - start
        whole = len(results) % len(wl.ops) == 0
        if elapsed >= HARD_STOP_S or (
                whole and elapsed >= seconds and len(results) >= wl.min_ops):
            while len(probe.samples) < SETUP_REPEATS:
                probe()
            return results, [calibrate.sample() for _ in range(wl.cal_samples)]


def measure_traced(client, wl, seconds: float) -> tuple[list[dict], list[dict]]:
    """Each op of whole cycles once traced and once untraced; the order
    alternates so neither side always runs on warmed caches. Stops early,
    at a whole cycle, once SPAN_CAP spans are held."""
    traced, plain = [], []
    start = time.perf_counter()
    while True:
        i = len(traced)
        op = wl.ops[i % len(wl.ops)]
        for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
            (traced if use_trace else plain).append(client.run(op, i, use_trace))
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (len(traced) % len(wl.ops) == 0 and (
                elapsed >= seconds or len(client.tracer.spans) >= SPAN_CAP)):
            return traced, plain


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def local_calibration(cal_runs: list[list[float]], i: int, least: int = 30) -> float:
    """Median kernel time around op i: the samples taken just before it and
    just after it (before op i + 1), widened symmetrically until at least
    `least` samples are in."""
    lo, hi = i, i + 2
    while True:
        pool = [x for runs in cal_runs[max(0, lo):hi] for x in runs]
        if len(pool) >= least or (lo <= 0 and hi >= len(cal_runs)):
            return stats.median(pool)
        lo, hi = lo - 1, hi + 1


def end_to_end(wl, results, after: list[float], probe: SetupProbe) -> tuple[dict, list[str]]:
    """End-to-end metrics, with every timing scaled to the reference host
    speed: seconds x REFERENCE_S / (kernel time around the op), where
    `after` holds the kernel times taken after the last op. See
    calibrate.py."""
    cal_runs = [r["cal"] for r in results] + [after]
    raw = [r["seconds"] for r in results]
    n = len(raw)
    cals = [local_calibration(cal_runs, i) for i in range(n)]
    secs = [x * calibrate.REFERENCE_S / c for x, c in zip(raw, cals)]
    # the tail is taken over the cycle's distinct ops, each at its median
    # over the run's repeats: a host stall that hits one repeat stays out
    per_op = [stats.median(secs[k::len(wl.ops)]) for k in range(min(n, len(wl.ops)))]
    # per-op rate, so one slow stretch moves the median rather than the
    # whole figure; a failed op delivers nothing
    rates = [(op.delivered if r["ok"] else 0) / x
             for op, r, x in zip(_cycle(wl, n), results, secs)]
    setup = [t * calibrate.REFERENCE_S / c for t, c in probe.samples]
    beyond = stats.samples_beyond(len(per_op), 90)
    metrics = {
        "setup_s": metric(stats.median(setup), "s"),
        "op_p50_s": metric(stats.median(secs), "s"),
        "op_p90_s": metric(stats.nearest_rank(per_op, 90), "s"),
        "steps_per_s": metric(stats.median(rates), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024.0, "MB"),
    }
    notes = [f"timings are host seconds x {calibrate.REFERENCE_S * 1e3:.4f} ms / "
             f"kernel time around the op (run median {stats.median(cals) * 1e3:.4f} ms, "
             f"{wl.cal_samples} kernel run(s) before each op); unscaled: op_p50_s "
             f"{stats.median(raw):.6g}, setup_s {stats.median([t for t, _ in probe.samples]):.6g}",
             f"setup_s: median of {len(setup)} fresh interpreters spread over the run",
             f"op_p50_s: median of n={n} ops",
             f"op_p90_s: nearest rank over {len(per_op)} distinct ops, each at its "
             f"median of {n // len(wl.ops)} or more repeats; {beyond} ops beyond"
             + ("" if beyond >= 10 else " (fewer than ten: not a tail)"),
             f"steps_per_s: median over n={n} ops of delivered "
             f"{'rows' if wl.ops[0].kind == 'detect' else 'steps'} per op second"]
    if n <= 10:
        notes.append("op host seconds: " + ", ".join(f"{x:.3f}" for x in raw))
    return metrics, notes


def _cycle(wl, n: int):
    return [wl.ops[i % len(wl.ops)] for i in range(n)]


def per_layer(wl, tracer, traced, plain) -> tuple[dict, list[str]]:
    n = len(traced)
    c = tracer.counts
    ops = _cycle(wl, n)
    op_s = sum(r["seconds"] for r in traced)
    own = spans.self_time_by_module(tracer.spans)
    virtual = [r["virtual"] for r in traced if r["virtual"]]
    plans = [x for v in virtual for x in zip(v["latency_s"], v["speedup"],
                                             v["fidelity_l1"], v["comm_bytes"])]

    def mean(i):
        return sum(p[i] for p in plans) / len(plans) if plans else 0.0

    def per_op(name):
        return c[name] / n

    def layer(module):
        return {f"{module}.self_s": metric(own.get(module, 0.0) / n, "s"),
                f"{module}.share": metric(own.get(module, 0.0) / op_s, "ratio")}

    rows = c["mixture.eps_prediction.rows"]
    delivered = sum(op.delivered for op in ops)
    capacity = sum(v["capacity_s"] for v in virtual)
    m = {
        "mixture.eps_prediction.calls": metric(per_op("mixture.eps_prediction"), "count"),
        "mixture.eps_prediction.rows": metric(rows / n, "count"),
        "mixture.mixtures_built": metric(
            (c["mixture.conditional"] + c["mixture.noised_mixture"]) / n, "count"),
        "mixture.score.calls": metric(per_op("mixture.score"), "count"),
        **layer("mixture"),
        "mixture.us_per_row": metric(own.get("mixture", 0.0) * 1e6 / rows if rows else 0.0,
                                     "us"),
        "engine.run_plan.calls": metric(per_op("engine.run_plan"), "count"),
        "engine.steps_executed": metric(per_op("schedules.ddim_step"), "count"),
        "engine.steps_executed_per_delivered": metric(
            c["schedules.ddim_step"] / delivered, "ratio"),
        "engine.pipelined_steps": metric(
            sum(r["pipelined_steps"] for r in traced) / n, "count"),
        **layer("engine"),
        "engine.virtual_latency_s": metric(mean(0), "sim_s"),
        "engine.virtual_speedup": metric(mean(1), "x"),
        "engine.comm_bytes": metric(mean(3), "B"),
        "engine.fidelity_l1": metric(mean(2), "l1"),
        "schedules.ddim_step.calls": metric(per_op("schedules.ddim_step"), "count"),
        "schedules.cfg_combine.calls": metric(per_op("schedules.cfg_combine"), "count"),
        **layer("schedules"),
        "monitor.rel_mae.calls": metric(per_op("monitor.rel_mae"), "count"),
        "monitor.update_controller.calls": metric(
            per_op("monitor.update_controller"), "count"),
        **layer("monitor"),
        "monitor.detected_ratio": metric(
            c["monitor.detected"] / c["monitor.staged_runs"]
            if c["monitor.staged_runs"] else 0.0, "ratio"),
        "monitor.staged_runs": metric(per_op("monitor.staged_runs"), "count"),
        "trace.events": metric(sum(_trace_rows(op) for op in ops) / n, "count"),
        "trace.timeline_calls": metric(
            (c["trace.Timeline.busy"] + c["trace.Timeline.send"]) / n, "count"),
        **layer("trace"),
        "trace.virtual_busy_share": metric(
            sum(v["busy_s"] for v in virtual) / capacity if capacity else 0.0, "ratio"),
        "metrics.compare_runs.calls": metric(per_op("metrics.compare_runs"), "count"),
        **layer("metrics"),
        "config.from_dict.calls": metric(per_op("config.from_dict"), "count"),
        "config.to_plan.calls": metric(per_op("config.to_plan"), "count"),
        **layer("config"),
        **layer("cli"),
        "cli.bytes_written": metric(
            sum(workloads.written_bytes(op) + r["stdout_bytes"]
                for op, r in zip(ops, traced)) / n, "B"),
        "cli.bytes_read": metric(sum(workloads.read_bytes(op) for op in ops) / n, "B"),
        "bench.tracing_overhead": metric(
            stats.median([r["seconds"] for r in traced])
            / stats.median([r["seconds"] for r in plain]) - 1.0, "ratio"),
        "bench.traced_ops": metric(n, "count"),
    }
    share_sum = sum(v["value"] for k, v in m.items() if k.endswith(".share"))
    m["bench.share_sum"] = metric(share_sum, "ratio")
    notes = [f"per-op figures are means over {n} traced ops "
             f"({n // len(wl.ops)} whole cycles of {len(wl.ops)})",
             f"shares are self time over {op_s:.3f} s of traced op time",
             f"monitor.detected_ratio base: {c['monitor.staged_runs']} staged runs, "
             f"{c['monitor.detected']} detected by slope",
             f"bench.tracing_overhead: median of {n} traced vs "
             f"{len(plain)} untraced ops"]
    return m, notes


def _trace_rows(op) -> int:
    """Events serialized to trace.csv (rows minus the header)."""
    if op.kind != "simulate":
        return 0
    with open(op.writes[1], "r", encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def cycle_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        return _fail("--seed must be >= 0 and --seconds >= 1")
    try:
        cli = _import_package()
    except ImportError as exc:
        return _fail(f"cannot import the package under test: {exc}")

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, str(workdir / "inputs"),
                             str(workdir / "ops"))
        tracer = spans.Tracer() if args.trace else None
        client = Client(cli, tracer)
        probe = SetupProbe(wl, workdir)
        ref_ok, ref = reference_check(client, workdir)
        if args.trace:
            traced, plain = measure_traced(client, wl, args.seconds)
            results = traced + plain
            metrics, notes = per_layer(wl, tracer, traced, plain)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            spans.write_chrome_trace(tracer.spans, str(trace_path))
            notes.append(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
            first = traced[:len(wl.ops)]
        else:
            results, after = measure(client, wl, args.seconds, probe)
            metrics, notes = end_to_end(wl, results, after, probe)
            first = results[:len(wl.ops)]
        digests = [r["digest"] for r in first]
        (OUT / f"digests-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "ops": [" ".join(op.argv[:1]) for op in wl.ops],
                        "digests": digests, "cycle": cycle_digest(
                            [d or "" for d in digests])}, indent=1) + "\n",
            encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r["ok"] for r in results)
    attempted = len(results)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.4f}")
    print(f"reference hybrid sdxl-like seed 0: {ref.get('latency_s')} s, "
          f"{ref.get('speedup')}x ({'ok' if ref_ok else 'MISMATCH'})")
    print(f"output digest (first cycle of {len(wl.ops)} ops): "
          f"{cycle_digest([r['digest'] or '' for r in first])}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:<22.10g} {m['unit']}")
    for line in notes:
        print(f"  # {line}")
    for line in client.failures[:5]:
        print(f"  ! {line}")
    correct = ref_ok and failed == 0 and not client.failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
