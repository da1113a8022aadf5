"""The three workloads: inputs made from the workload seed, and output checks.

Each workload is a fixed cycle of CLI operations. Inputs (config files and
series CSVs) are written once per run from the workload seed; the program sees
only those files and the command line. Every op is checked after it returns,
outside the timed region, and an op that fails a check counts as failed.

    sweep-32seed   `sweep --k 0,5,10,20,30`, sdxl-like defaults, over 32 plan
                   seeds drawn from the workload seed, in four commands of 8
                   seeds. The acceptance gate's command; the oracle and the
                   per-seed engine loop do almost all the work and no trace
                   is written.
    simulate-mix   `simulate` over serial, full_condition_partition, hybrid,
                   layer_wise (4 devices) and batch_level (4 devices) under
                   both presets, two plan seeds each. One seed per op, so
                   seed batching cannot help; the only workload where trace
                   building, metrics and file output carry weight. sd3-like
                   lets the controller fire online; sdxl-like forces it.
    detect-replay  `detect` over synthetic 1000-row (t, rel_mae) series. No
                   oracle call at all: the bypass workload for any mixture or
                   engine change. Re-parses its config on every op.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

SWEEP_K = (0, 5, 10, 20, 30)
SWEEP_SEEDS = 32
SWEEP_BLOCK = 8         # seeds per sweep command; four commands cover the 32
PRESETS = ("sdxl-like", "sd3-like")
VARIANTS = (("serial", 1), ("full_condition_partition", 2), ("hybrid", 2),
            ("layer_wise", 4), ("batch_level", 4))
SIM_SEEDS_PER_COMBO = 10
DETECT_ROWS = 1000
DETECT_SERIES = 100
T = 50          # default schedule length; every generated config keeps it
STAGED = ("hybrid", "layer_wise", "batch_level")


@dataclass
class Op:
    """One CLI command and what the benchmark needs to check it."""

    kind: str                       # "sweep", "simulate" or "detect"
    argv: list[str]
    delivered: int                  # denoising steps (detect: rows replayed)
    reads: list[str]
    writes: list[str]               # files the op writes, for byte counts
    plans: list[tuple[int, str, int | None]] = field(default_factory=list)
    variant: str | None = None
    series: list[tuple[int, float]] | None = None
    switch: dict | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]                   # one cycle, repeated in order
    min_ops: int                    # op count a measured run reaches at least
    configs: list[str]
    cal_samples: int = 1            # calibration kernel runs before each op


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def build(name: str, seed: int, inputs: str, outputs: str) -> Workload:
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(outputs, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    make = {"sweep-32seed": _sweep, "simulate-mix": _simulate_mix,
            "detect-replay": _detect_replay}[name]
    return make(rng, inputs, outputs)


def _sweep(rng, inputs, outputs) -> Workload:
    seeds = sorted(int(s) for s in rng.choice(1_000_000, SWEEP_SEEDS, replace=False))
    configs, ops = [], []
    for b in range(0, SWEEP_SEEDS, SWEEP_BLOCK):
        block = seeds[b:b + SWEEP_BLOCK]
        cfg = _write_json(os.path.join(inputs, f"sweep{b}.json"),
                          {"preset": "sdxl-like", "seeds": block})
        out = os.path.join(outputs, f"sweep{b}.csv")
        plans = [(s, "serial", None) for s in block]
        plans += [(s, "hybrid", k) for k in SWEEP_K for s in block]
        configs.append(cfg)
        ops.append(Op(kind="sweep",
                      argv=["sweep", "--config", cfg, "--k", ",".join(map(str, SWEEP_K)),
                            "--out", out],
                      delivered=len(SWEEP_K) * len(block) * T,
                      reads=[cfg], writes=[out], plans=plans))
    # one op takes 2-3 s, short enough for the kernel times taken around it
    # to follow the host's speed; four cycles give each block four repeats
    return Workload("sweep-32seed", ops, min_ops=4 * len(ops), configs=configs,
                    cal_samples=15)


def _simulate_mix(rng, inputs, outputs) -> Workload:
    configs, ops = [], []
    combos = [(p, v, n) for p in PRESETS for v, n in VARIANTS]
    seeds = rng.choice(1_000_000, (SIM_SEEDS_PER_COMBO, len(combos)), replace=False)
    for preset, variant, n in combos:
        configs.append(_write_json(
            os.path.join(inputs, f"{preset}-{variant}.json"),
            {"preset": preset, "variant": variant, "devices": n}))
    for rep in range(SIM_SEEDS_PER_COMBO):
        for j, (preset, variant, n) in enumerate(combos):
            s = int(seeds[rep, j])
            out = os.path.join(outputs, f"op{len(ops)}")
            trajectories = n // 2 if variant == "batch_level" else 1
            plans = [(s, variant, None)]
            if variant != "serial":
                plans.append((s, "serial", None))
            ops.append(Op(kind="simulate",
                          argv=["simulate", "--config", configs[j],
                                "--seed", str(s), "--out", out],
                          delivered=trajectories * T,
                          reads=[configs[j]],
                          writes=[os.path.join(out, f) for f in
                                  ("metrics.json", "trace.csv", "trace.json")],
                          plans=plans, variant=variant))
    # 100 distinct ops put ten beyond the 90th percentile; three repeats of
    # each give the per-op median that keeps a host stall out of the tail
    return Workload("simulate-mix", ops, min_ops=3 * len(ops), configs=configs,
                    cal_samples=3)


def synth_series(rng, n: int = DETECT_ROWS):
    """A decay to a floor, then a rise, plus bounded uniform noise.

    Returns (t, rel_mae) pairs in descending t, the noise half-width and the
    step where the decay has fallen to e^-5 of its start.
    """
    s = np.arange(1, n + 1)
    decay_end = int(rng.integers(250, 450))
    rise_start = int(rng.integers(decay_end + 100, 800))
    floor = rng.uniform(0.05, 0.2)
    decay = rng.uniform(0.5, 2.0) * np.exp(-5.0 * s / decay_end)
    rise = np.where(s > rise_start,
                    rng.uniform(0.05, 0.5) * ((s - rise_start) / (n - rise_start)) ** 2,
                    0.0)
    eta = float(rng.uniform(1e-4, 1e-3))
    m = floor + decay + rise + rng.uniform(-eta, eta, n)
    # round-trip through the 17-digit text the file holds
    pairs = [(int(n - i), float(f"{v:.17g}")) for i, v in enumerate(m)]
    return pairs, eta, decay_end


def _detect_replay(rng, inputs, outputs) -> Workload:
    configs, ops = [], []
    for j in range(DETECT_SERIES):
        pairs, eta, decay_end = synth_series(rng)
        L = int(rng.integers(4, 30))
        if j % 2 == 0:
            # flat floor reachable before the cap: the slope rule fires
            switch = {"L": L, "g_slope": float(rng.uniform(1.0, 3.0)) * eta / L,
                      "tau_cap": 990, "k": int(rng.integers(0, 10))}
        else:
            # cap early in the steep decay, where every slope is negative
            switch = {"L": L, "g_slope": float(rng.uniform(1.0, 3.0)) * eta / L,
                      "tau_cap": int(rng.integers(L + 5, decay_end // 4)),
                      "k": int(rng.integers(0, 10))}
        series_path = os.path.join(inputs, f"series{j}.csv")
        with open(series_path, "w", encoding="utf-8") as fh:
            fh.write("t,rel_mae\n")
            fh.writelines(f"{t},{m:.17g}\n" for t, m in pairs)
        cfg = _write_json(os.path.join(inputs, f"detect{j}.json"),
                          {"switch": switch})
        configs.append(cfg)
        ops.append(Op(kind="detect",
                      argv=["detect", "--series", series_path, "--config", cfg],
                      delivered=len(pairs), reads=[series_path, cfg], writes=[],
                      series=pairs, switch=switch))
    return Workload("detect-replay", ops, min_ops=3 * len(ops), configs=configs)


# -- checks --------------------------------------------------------------------

def brute_force_tau(pairs, L: int, g_slope: float, tau_cap: int, k: int):
    """Independent scan of the switch rule: the first step whose windowed
    slope (M_s - M_{s-L}) / L lies in [0, g_slope) sets tau1 = min(step,
    tau_cap); otherwise tau1 = tau_cap once that step is reached."""
    seen = {}
    for step, (t, m) in enumerate(pairs, start=1):
        seen[t] = m
        if t + L in seen and 0.0 <= (m - seen[t + L]) / L < g_slope:
            tau1 = min(step, tau_cap)
            return tau1, tau1 + k
        if step >= tau_cap:
            return tau_cap, tau_cap + k
    return None, None


class CheckFailed(Exception):
    """An op's output disagrees with what the benchmark expects."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def check(op: Op, stdout: str, records: list) -> dict:
    """Check one op's outputs; returns the virtual-time figures of its
    requested trajectories. Raises CheckFailed on any mismatch."""
    plans = [r for r in records if r.role == "plan"]
    base = {r.seed: r for r in records if r.role == "baseline"}
    for r in records:
        _require(r.comm_bytes == r.message_bytes,
                 f"{r.variant} seed {r.seed}: comm_bytes {r.comm_bytes} != "
                 f"message bytes {r.message_bytes}")
        if r.tau1 is not None:
            _require(r.tau2 - r.tau1 == r.k,
                     f"{r.variant} seed {r.seed}: tau2 - tau1 != k={r.k}")
    if op.kind == "detect":
        return _check_detect(op, stdout)
    _require(len(records) == len(op.plans),
             f"expected {len(op.plans)} engine runs, saw {len(records)}")
    pairs = []
    for r in plans:
        b = r if r.variant == "serial" else base.get(r.seed)
        _require(b is not None, f"no serial baseline for seed {r.seed}")
        pairs.append((r, b))
    if op.kind == "sweep":
        _check_sweep(op, pairs)
    else:
        _check_simulate(op, stdout, pairs)
    return {
        "latency_s": [r.latency_s for r, _ in pairs],
        "speedup": [b.latency_s / r.latency_s for r, b in pairs],
        "fidelity_l1": [float(np.abs(r.x0 - b.x0).mean()) for r, b in pairs],
        "comm_bytes": [r.comm_bytes for r, _ in pairs],
        "busy_s": sum(r.busy_s for r, _ in pairs),
        "capacity_s": sum(r.n_devices * r.makespan_s for r, _ in pairs),
    }


def _check_sweep(op: Op, pairs) -> None:
    with open(op.writes[0], "r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _require([int(r["k"]) for r in rows] == list(SWEEP_K), "sweep rows out of order")
    for row in rows:
        k = int(row["k"])
        _require(row["status"] == "ok", f"k={k} row is {row['status']}")
        cells = [(r, b) for r, b in pairs if r.k == k]
        _require(len(cells) == SWEEP_BLOCK, f"k={k}: {len(cells)} cells")
        mean_latency = float(np.mean([r.latency_s for r, _ in cells]))
        _require(float(row["latency_s"]) == mean_latency,
                 f"k={k}: latency_s {row['latency_s']} != run mean {mean_latency!r}")
        if k == 0:
            _require(float(row["fidelity_l1"]) == 0.0 and row["psnr_analog"] == "",
                     "k=0 row must have fidelity_l1 0 and an empty psnr_analog")
            for r, b in cells:
                _require(r.x0.tobytes() == b.x0.tobytes(),
                         f"k=0 seed {r.seed}: x0 differs from serial")


def _check_simulate(op: Op, stdout: str, pairs) -> None:
    metrics_path, csv_path, json_path = op.writes
    with open(metrics_path, "r", encoding="utf-8") as fh:
        metrics = json.load(fh)
    _require(json.loads(stdout) == metrics, "stdout differs from metrics.json")
    with open(json_path, "r", encoding="utf-8") as fh:
        structured = json.load(fh)
    json_bytes = sum(m["nbytes"] for m in structured["messages"])
    with open(csv_path, "r", encoding="utf-8") as fh:
        csv_bytes = sum(int(r["nbytes"]) for r in csv.DictReader(fh)
                        if r["event"] == "message")
    _require(metrics["comm_bytes"] == json_bytes == csv_bytes,
             f"comm_bytes {metrics['comm_bytes']} != message nbytes "
             f"(trace.json {json_bytes}, trace.csv {csv_bytes})")
    (r, b), = pairs
    _require(metrics["latency_s"] == r.latency_s, "latency_s differs from the run")
    if op.variant in STAGED:
        _require(metrics["tau2"] - metrics["tau1"] == r.k,
                 f"tau2 - tau1 = {metrics['tau2'] - metrics['tau1']}, k = {r.k}")
    else:
        _require(metrics["tau1"] is None and metrics["tau2"] is None,
                 "unstaged plan reported tau1/tau2")
    if op.variant in ("serial", "full_condition_partition"):
        _require(r.x0.tobytes() == b.x0.tobytes(),
                 f"{op.variant} x0 is not bitwise equal to serial")
        _require(metrics["fidelity_l1"] == 0.0 and metrics["psnr_analog"] is None,
                 f"{op.variant}: fidelity_l1 must be 0 and psnr_analog null")


def _check_detect(op: Op, stdout: str) -> dict:
    out = json.loads(stdout)
    sw = op.switch
    want = brute_force_tau(op.series, sw["L"], sw["g_slope"], sw["tau_cap"], sw["k"])
    _require((out["tau1"], out["tau2"]) == want,
             f"detect tau1/tau2 {out['tau1']}/{out['tau2']} != brute force {want}")
    _require(out["tau2"] - out["tau1"] == sw["k"], "tau2 - tau1 != k")
    tau1, tau2 = want
    expected = ["warm_up" if s <= tau1 else "parallelism" if s <= tau2
                else "fully_connecting" for s in range(1, len(op.series) + 1)]
    _require(out["stages"] == expected, "stage labels disagree with tau1/tau2")
    return {"latency_s": [], "speedup": [], "fidelity_l1": [], "comm_bytes": [],
            "busy_s": 0.0, "capacity_s": 0.0}


def op_digest(op: Op, stdout: str, records: list) -> str:
    """sha256 over what the op computed: per run, x0 bytes, tau1/tau2,
    virtual latency and comm bytes; for detect, tau1/tau2 and stage labels."""
    h = hashlib.sha256(op.kind.encode())
    if op.kind == "detect":
        out = json.loads(stdout)
        h.update(repr((out["tau1"], out["tau2"], out["stages"])).encode())
    for r in records:
        h.update(r.digest().encode())
    return h.hexdigest()


def written_bytes(op: Op) -> int:
    return sum(os.path.getsize(p) for p in op.writes)


def read_bytes(op: Op) -> int:
    return sum(os.path.getsize(p) for p in op.reads)
