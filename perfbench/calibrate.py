"""Host-speed calibration for the end-to-end timings.

The reference host, a 2-core KVM guest, shares its CPUs with other guests.
Its speed moves between states about 1.4x apart, and a state can last longer
than a whole run, so raw host seconds of two runs differ by the state they
happened to run in. Each run therefore times a fixed kernel next to its ops
and scales each timing by REFERENCE_S / (median kernel time around it).
The kernel mixes small numpy array ops with interpreter work, like the
simulator's hot path, and touches no code of the package, so no change to
the package can move it.

REFERENCE_S fixes the scale only: it is about the kernel's median time on
the reference host (2-core KVM guest, Intel Xeon, Python 3.11.7, numpy
2.4.6) in a quiet spell. Changing the kernel or REFERENCE_S rescales every
timing, so comparisons are valid only between runs of the same benchmark.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.0019


@dataclass(frozen=True)
class _Row:
    t: int
    value: float
    label: str


def _kernel() -> float:
    rng = np.random.default_rng(20261017)
    x = rng.standard_normal((64, 8))
    means = rng.standard_normal((4, 8))
    var = rng.uniform(0.5, 1.5, (4, 8))
    log_w = np.log(np.full(4, 0.25))
    acc = 0.0
    for step in range(10):
        # the shape of an oracle call: log-responsibilities, softmax, score
        diff = x[:, None, :] - means[None, :, :]
        log_joint = log_w[None, :] - 0.5 * np.sum(
            diff * diff / var[None] + np.log(2.0 * np.pi * var[None]), axis=2)
        mx = log_joint.max(axis=1, keepdims=True)
        resp = np.exp(log_joint - mx)
        resp /= resp.sum(axis=1, keepdims=True)
        x = x + 0.01 * np.einsum("bk,bkd->bd", resp, -diff / var[None])
        if not np.all(np.isfinite(np.asarray(x, dtype=float))):
            raise ArithmeticError("calibration kernel diverged")
        # the shape of the bookkeeping: small records, JSON and CSV text
        rows = [_Row(step * 20 + j, float(x[j, 0]), f"segment_{j % 4}")
                for j in range(20)]
        text = json.dumps({"rows": [vars(r) for r in rows]}, sort_keys=True)
        acc += len(json.loads(text)["rows"])
        acc += len("\n".join(f"{r.t},{r.label},{r.value:.17g}" for r in rows))
    return acc


def sample() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
