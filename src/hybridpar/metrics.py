"""Cost and fidelity metrics comparing a run against the serial baseline."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class Metrics:
    """Headline numbers for one run, fidelity measured against serial x0.

    psnr_analog is None when the compared samples match exactly (infinite
    PSNR); JSON output renders that as null.
    """

    latency_s: float
    speedup: float
    comm_bytes: int
    fidelity_l1: float
    fidelity_l2: float
    psnr_analog: float | None
    tau1: int | None
    tau2: int | None

    def to_dict(self) -> dict:
        return asdict(self)


def _psnr(x: np.ndarray, y: np.ndarray, rmse: float) -> float | None:
    """PSNR over latent vectors with this rmse, None on an exact match.

    The usual image PSNR fixes peak = 255; latents have no such scale, so
    the peak is taken from the data, max |entry| across both inputs, and
    recorded as a modeling choice.
    """
    if rmse == 0.0:
        return None
    peak = float(max(np.abs(x).max(), np.abs(y).max()))
    return 20.0 * math.log10(peak / rmse)


def compare_runs(result, serial_result) -> Metrics:
    """Metrics for a run, with speedup and fidelity against the serial run:
    per latent entry, the mean absolute difference (fidelity_l1), the root
    mean squared difference (fidelity_l2) and _psnr of that rmse."""
    x, y = (np.asarray(r.x0, dtype=float) for r in (result, serial_result))
    if x.shape != y.shape:
        raise ShapeError(f"compared samples disagree: {x.shape} vs {y.shape}")
    diff = x - y
    rmse = float(np.sqrt((diff ** 2).mean()))
    return Metrics(
        latency_s=result.latency_s,
        speedup=serial_result.latency_s / result.latency_s,
        comm_bytes=result.comm_bytes,
        fidelity_l1=float(np.abs(diff, out=diff).mean()),
        fidelity_l2=rmse,
        psnr_analog=_psnr(x, y, rmse),
        tau1=result.tau1,
        tau2=result.tau2,
    )
