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


def _check_same_shape(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise ShapeError(f"compared samples disagree: {x.shape} vs {y.shape}")


def fidelity_l1(x: np.ndarray, y: np.ndarray) -> float:
    """Mean absolute difference per latent entry."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    _check_same_shape(x, y)
    return float(np.abs(x - y).mean())


def fidelity_l2(x: np.ndarray, y: np.ndarray) -> float:
    """Root mean squared difference per latent entry."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    _check_same_shape(x, y)
    return float(np.sqrt(((x - y) ** 2).mean()))


def psnr_analog(x: np.ndarray, y: np.ndarray) -> float | None:
    """PSNR over latent vectors, peak = max |entry| across both inputs.

    None signals an exact match. The usual image PSNR fixes peak = 255; latents
    have no such scale, so the peak is taken from the data and recorded as a
    modeling choice.
    """
    return _psnr(x, y, fidelity_l2(x, y))


def _psnr(x: np.ndarray, y: np.ndarray, rmse: float) -> float | None:
    if rmse == 0.0:
        return None
    peak = float(max(np.abs(x).max(), np.abs(y).max()))
    return 20.0 * math.log10(peak / rmse)


def compare_runs(result, serial_result) -> Metrics:
    """Metrics for a run, with speedup and fidelity against the serial run."""
    x, y = (np.asarray(r.x0, dtype=float) for r in (result, serial_result))
    _check_same_shape(x, y)
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
