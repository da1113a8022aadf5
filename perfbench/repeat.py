"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --seeds 0-9 --seconds 20 [--workloads a,b]
                                [--baseline perfbench/baseline.json]

For each workload, runs `run.py --trace 0` once per seed, one run at a time,
and prints per metric the median and the quartile spread: (Q3 - Q1) / median
with statistics.quantiles(values, n=4). With --baseline, it also runs seed
0 traced and writes medians, spreads, per-layer figures, digests and machine
facts to that file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from run import THREAD_PINS, WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy
    cpu = next((ln.split(":", 1)[1].strip()
                for ln in Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "thread_pins": {v: "1" for v in THREAD_PINS}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--baseline")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, 0) for s in seeds]
        entry = {"runs": len(runs), "seeds": [seeds[0], seeds[-1]],
                 "correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
        print(f"{workload}: {len(runs)} runs, correct {entry['correct']}, "
              f"failed {entry['failed']} of {entry['attempted']} ops")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            spread = stats.quartile_spread(values) if len(values) > 1 else 0.0
            entry["metrics"][name] = {"median": stats.median(values),
                                      "spread": spread, "unit": first["unit"],
                                      "values": values}
            print(f"  {name:14s} median {stats.median(values):<12.6g} "
                  f"{first['unit']:4s} spread {spread:.4f}")
        if args.baseline:
            entry["per_layer_seed0"] = run_once(workload, seeds[0], args.seconds, 1)["metrics"]
            digests = ROOT / ".bench_out" / f"digests-{workload}-seed{seeds[0]}.json"
            entry["digests_seed0"] = json.loads(digests.read_text())
        summary[workload] = entry
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(
            {"machine": machine(), "seconds": args.seconds, "workloads": summary},
            indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
