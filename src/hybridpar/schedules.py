"""Variance-preserving noise schedules and single-step denoising updates.

Discrete timesteps are indexed t = 1..T with t = 0 reserved for the clean
sample. A NoiseSchedule's alpha_bar table holds t = 1..T; accessors accept
t = 0 and return the clean-sample convention (alpha_bar = 1, sigma = 0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, StepUnderflowError
from .plan import SCHEDULE_KINDS


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """A discrete VP schedule, given as its alpha_bar(t) table for t = 1..T:
    T, sigma(t) = sqrt(1 - alpha_bar(t)) and ddim_step's factors are derived
    from a read-only copy of it. Like GaussianMixture, it equals only itself
    and hashes by identity."""

    alpha_bars: np.ndarray

    def __post_init__(self):
        table = _reals(self.alpha_bars, "alpha_bar table")
        if table.ndim != 1 or table.size == 0:
            raise ShapeError(f"alpha_bar table must be 1-D and non-empty, got shape {table.shape}")
        # alpha_bar in (0, 1) at every t >= 1: each step's noised marginal exists, sigma > 0
        bad = ~((table > 0.0) & (table < 1.0))
        if bad.any():
            t = int(bad.argmax()) + 1
            ab = float(table[t - 1])
            raise ParameterError(f"alpha_bar at t={t} is 1.0, so sigma would be 0" if ab == 1.0
                                 else f"alpha_bar must lie in (0, 1], got {ab}")
        object.__setattr__(self, "alpha_bars", _read_only(table))
        object.__setattr__(self, "T", len(table))
        # Per-step tables, indexed by t = 0..T, of the Python floats sigma(t)
        # and ddim_step would compute per call, with their bits; callers
        # check t first, so no t indexes a table from its end.
        ab = [1.0] + table.tolist()                     # alpha_bar(0) = 1
        root = [math.sqrt(a) for a in ab]               # correctly rounded, as np.sqrt is
        object.__setattr__(self, "_sigma", tuple(math.sqrt(1.0 - a) for a in ab))
        # ddim_step's factors at t: sigma_t, sqrt(ab_t), sqrt(ab_{t-1}), sqrt(1 - ab_{t-1})
        object.__setattr__(self, "_ddim", (None,) + tuple(
            zip(self._sigma[1:], root[1:], root, self._sigma)))
        # the oracle's memo key for this table (mixture._noised_terms); it fixes T
        object.__setattr__(self, "_key", table.tobytes())

    def alpha_bar(self, t: int) -> float:
        if t == 0:
            return 1.0
        self._check_t(t)
        return float(self.alpha_bars[t - 1])

    def sigma(self, t: int) -> float:
        if t == 0:
            return 0.0
        self._check_t(t)
        return self._sigma[t]

    def _check_t(self, t: int) -> None:
        if not 1 <= t <= self.T:
            raise ParameterError(f"timestep t={t} outside [1, {self.T}]")

@dataclass(frozen=True)
class GuidanceParams:
    """Classifier-free guidance strength; w = 0 disables the push term."""

    w: float

    def __post_init__(self):
        w = self.w
        if isinstance(w, bool) or not isinstance(w, (int, float, np.integer, np.floating)):
            raise ParameterError(f"guidance w must be a number, got {w!r}")
        try:
            ok = math.isfinite(w) and w >= 0
        except OverflowError:       # an integer past float range, as the config reads it
            raise ParameterError("guidance w must be finite and >= 0, got an integer "
                                 "past float range") from None
        if not ok:
            raise ParameterError(f"guidance w must be finite and >= 0, got {w}")


def build_schedule(kind: str, T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Construct a discrete VP schedule.

    Args:
        kind: "linear" (betas linearly spaced) or "scaled-linear"
            (sqrt-betas linearly spaced, then squared).
        T: number of denoising steps, >= 1.
        beta_start, beta_end: per-step variance bounds, each in (0, 1),
            with beta_start <= beta_end.
    """
    if kind not in SCHEDULE_KINDS:
        raise ParameterError(f"unknown schedule kind {kind!r}; expected one of {SCHEDULE_KINDS}")
    if type(T) is not int or T < 1:
        raise ParameterError(f"T must be an integer >= 1, got {T!r}")
    for name, b in (("beta_start", beta_start), ("beta_end", beta_end)):
        if not (0.0 < b < 1.0):
            raise ParameterError(f"{name} must lie in (0, 1), got {b}")
    if beta_start > beta_end:
        raise ParameterError(f"beta_start={beta_start} exceeds beta_end={beta_end}")

    if kind == "linear":
        betas = np.linspace(beta_start, beta_end, T)
    else:
        betas = np.linspace(np.sqrt(beta_start), np.sqrt(beta_end), T) ** 2
    return NoiseSchedule(np.cumprod(1.0 - betas))


def _reals(x, what: str) -> np.ndarray:
    """A new float64 array of the real numbers x holds: any other value (a string,
    a complex number, an object) is a ParameterError, a ragged nesting a ShapeError."""
    try:
        a = np.asarray(x)
    except ValueError:                  # numpy's "inhomogeneous shape"
        raise ShapeError(f"{what} is ragged") from None
    if a.dtype.kind in "biufO":
        try:
            return a.astype(float)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ParameterError(f"{what} must hold real numbers in float range")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_pair(eps_c: np.ndarray, eps_u: np.ndarray) -> None:
    if eps_c.shape != eps_u.shape:
        raise ShapeError(f"branch outputs disagree: {eps_c.shape} vs {eps_u.shape}")
    if not (np.logical_and.reduce(np.isfinite(eps_c), axis=None)
            and np.logical_and.reduce(np.isfinite(eps_u), axis=None)):
        raise NumericError("non-finite values in branch outputs")


def cfg_combine(eps_c: np.ndarray, eps_u: np.ndarray, g: GuidanceParams) -> np.ndarray:
    """Guided noise estimate: eps_c + w * (eps_c - eps_u)."""
    eps_c = np.asarray(eps_c, dtype=float)
    eps_u = np.asarray(eps_u, dtype=float)
    _check_pair(eps_c, eps_u)
    return _guided(eps_c, eps_c - eps_u, g.w)


def _guided(eps_c: np.ndarray, delta: np.ndarray, w: float) -> np.ndarray:
    """cfg_combine's arithmetic on checked arrays, in the buffer of delta =
    eps_c - eps_u: IEEE + and * commute, so w * delta + eps_c is bitwise
    eps_c + w * delta."""
    delta *= w
    delta += eps_c
    return delta


def ddim_step(x_t: np.ndarray, t: int, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Deterministic (eta = 0) update of latents x_t from t to t - 1.

    Reconstructs x0_hat = (x_t - sigma_t * eps) / sqrt(alpha_bar_t) then
    re-noises it to the t - 1 marginal. At t = 1 this returns x0_hat itself
    because alpha_bar_0 = 1 and sigma_0 = 0.
    """
    if t == 0:
        raise StepUnderflowError("cannot step below t = 1")
    x_t = np.asarray(x_t, dtype=float)
    eps = np.asarray(eps, dtype=float)
    _check_pair(x_t, eps)
    sched._check_t(t)
    sigma, root_ab, root_ab_prev, root_noise_prev = sched._ddim[t]
    x0_hat = x_t - sigma * eps
    x0_hat /= root_ab
    x0_hat *= root_ab_prev                      # re-noised in x0_hat's buffer
    x0_hat += root_noise_prev * eps
    return x0_hat
