"""Branch-discrepancy monitoring and the adaptive stage-switch controller.

The measured series is keyed by the denoising timestep t, which descends
T, T-1, ..., 1 as sampling proceeds. The slope at t compares the current
value against the one recorded L iterations earlier, i.e. at key t + L.

Controller outputs (tau1, tau2) are denoising step counts, 1-based from the
start of sampling: step s processes timestep t = T - s + 1. Counting this way
keeps tau_cap a plain upper bound (tau1 <= tau_cap), makes tau2 = tau1 + k,
and gives the pipelined window exactly k steps regardless of where detection
fires.

The module is pure Python, so `detect` replays a series without numpy; the
kernels that measure a discrepancy from branch outputs live in mixture.py.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import HistoryError, NumericError, ParameterError, SequencingError


class Stage(enum.Enum):
    """Execution stage of a single denoising step."""

    WARM_UP = "warm_up"
    PARALLELISM = "parallelism"
    FULLY_CONNECTING = "fully_connecting"


@dataclass(frozen=True)
class SwitchConfig:
    """Switch-detection parameters.

    Attributes:
        L: slope window length in controller iterations, >= 1.
        g_slope: flatness threshold; detection fires when 0 <= G < g_slope.
        tau_cap: upper bound on tau1 in denoising steps, >= 1 (a window
            follows at least one measured step); if no detection has fired
            by step tau_cap the switch is forced there.
        k: width of the pipelined window in steps. k = 0 collapses the window
            (every step runs exactly); the usual constraint 1 <= k < T - tau1
            is enforced where a plan is executed, not here.
    """

    L: int
    g_slope: float
    tau_cap: int
    k: int

    def __post_init__(self):
        if type(self.L) is not int or self.L < 1:
            raise ParameterError(f"L must be an integer >= 1, got {self.L!r}")
        if not (math.isfinite(self.g_slope) and self.g_slope > 0):
            raise ParameterError(f"g_slope must be finite and > 0, got {self.g_slope}")
        if type(self.tau_cap) is not int or self.tau_cap < 1:
            raise ParameterError(f"tau_cap must be an integer >= 1, got {self.tau_cap!r}")
        if type(self.k) is not int or self.k < 0:
            raise ParameterError(f"k must be an integer >= 0, got {self.k!r}")


class DiscrepancySeries:
    """Ordered map timestep -> measured discrepancy. record takes t strictly
    descending, with gaps allowed: t may skip timesteps between records."""

    def __init__(self):
        self._values: dict[int, float] = {}
        self._last_t: int | None = None

    def record(self, t: int, value: float) -> None:
        if t < 0:
            raise ParameterError(f"timestep must be >= 0, got {t}")
        if not math.isfinite(value):
            raise NumericError(f"discrepancy at t={t} is not finite")
        if self._last_t is not None and t >= self._last_t:
            raise SequencingError(f"t={t} recorded after t={self._last_t}; "
                                  "series must descend")
        self._values[t] = float(value)
        self._last_t = t

    def has(self, t: int) -> bool:
        return t in self._values

    def get(self, t: int) -> float:
        if t not in self._values:
            raise HistoryError(f"no value recorded at t={t}")
        return self._values[t]


def _slope(series: DiscrepancySeries, t: int, L: int) -> float | None:
    """Windowed slope G at timestep t: (M_t - M_{t+L}) / L, or None where
    M_t or M_{t+L} is not recorded.

    The reference point is the measurement taken L controller iterations
    earlier, which in a descending traversal lives at key t + L. G is
    negative while the curve decays and enters [0, g_slope) once it
    flattens. Each value is read once: one dict lookup per key, no
    membership test before it.
    """
    now, then = series._values.get(t), series._values.get(t + L)
    return None if now is None or then is None else (now - then) / L


def stage_at(s: int, tau1: int | None, tau2: int | None) -> Stage:
    """The stage of denoising step s under switch steps (tau1, tau2): warm-up
    through tau1 (every step while tau1 is undecided), pipelined through tau2,
    then fully connecting. The one home of that mapping."""
    if tau1 is None or s <= tau1:
        return Stage.WARM_UP
    return Stage.PARALLELISM if s <= tau2 else Stage.FULLY_CONNECTING


def stage_runs(n: int, tau1: int | None, tau2: int | None) -> list[tuple[Stage, int]]:
    """The stages of steps 1..n as (stage, count) runs in step order, empty
    runs left out. The labels are monotone (WARM_UP+ PARALLELISM^k
    FULLY_CONNECTING*), so the runs end at tau1, tau2 and n, each clipped to
    n, and there are at most three; each run's stage is stage_at of its
    first step."""
    runs, start = [], 0
    for end in ([n] if tau1 is None else [min(tau1, n), min(tau2, n), n]):
        if end > start:
            runs.append((stage_at(start + 1, tau1, tau2), end - start))
            start = end
    return runs


@dataclass
class StageState:
    """Mutable controller state; owned by exactly one execution engine."""

    tau1: int | None = None
    tau2: int | None = None
    steps_done: int = 0
    last_t: int | None = field(default=None, repr=False)


def update_controller(state: StageState, series: DiscrepancySeries, t: int,
                      cfg: SwitchConfig) -> StageState:
    """Advance the controller by one denoising step (descending t).

    Sets tau1 the first time the flatness condition holds, or at step tau_cap
    if it never has; tau2 = tau1 + k. The step on which detection fires still
    runs as WARM_UP (its measurement was needed to decide), so the pipelined
    window occupies steps tau1+1 .. tau2 and stage labels are monotone:
    WARM_UP+ PARALLELISM^k FULLY_CONNECTING* (see stage_at). It is the only
    code that sets tau1; once tau1 is set, a call only checks t and counts
    the step. The slope is read through _slope, one lookup per value.
    """
    if t < 0:
        raise ParameterError(f"timestep must be >= 0, got {t}")
    if state.last_t is not None and t != state.last_t - 1:
        raise SequencingError(f"controller called at t={t} after t={state.last_t}; "
                              "steps must descend by exactly 1")
    s = state.steps_done + 1
    if state.tau1 is None:
        g = _slope(series, t, cfg.L)
        fired = g is not None and 0.0 <= g < cfg.g_slope
        # at step tau_cap the switch is forced even if the slope never flattened
        if fired or s >= cfg.tau_cap:
            state.tau1 = min(s, cfg.tau_cap)
            state.tau2 = state.tau1 + cfg.k
    state.steps_done = s
    state.last_t = t
    return state


def _accepts(rows: list[tuple[int, float]], last_t: int) -> bool:
    """Whether record and update_controller would accept every (t, M) of
    rows after a step at last_t: t runs last_t - 1, last_t - 2, ... and stays
    >= 0, and every M is finite. The t and M columns are compared whole,
    not row by row; a row it cannot read that way (of any arity but two)
    counts as not accepted, and so does any value whose check raises."""
    try:
        ts, ms = zip(*rows, strict=True)
        return (last_t - len(ts) >= 0
                and ts == tuple(range(last_t - 1, last_t - 1 - len(ts), -1))
                and all(map(math.isfinite, ms)))
    except (TypeError, ValueError, OverflowError):
        return False


def replay_series(pairs: list[tuple[int, float]], cfg: SwitchConfig) -> tuple[StageState, list[Stage]]:
    """Run the controller over a fully recorded (t, M) sequence.

    Pairs must be in descending-t order, one per denoising step. Returns the
    final state and the per-step stage labels (stage_at of each step), built
    from the at most three runs of stage_runs.

    Each row is recorded and passed to update_controller only until tau1 is
    decided. After that a call would only check t and count the step, so
    the remaining rows get the same checks in one pass (_accepts) and the
    state takes their step count and last t. If any row would fail, the
    per-row calls resume from the decision, so that row raises its own
    error, with the same class, message and precedence.
    """
    series = DiscrepancySeries()
    state = StageState()
    rows = iter(pairs)
    for t, m in rows:
        series.record(t, m)
        update_controller(state, series, t, cfg)
        if state.tau1 is not None:
            break
    rest = pairs[state.steps_done:]
    if rest and _accepts(rest, state.last_t):
        state.steps_done += len(rest)
        state.last_t = rest[-1][0]
    else:
        for t, m in rows:
            series.record(t, m)
            update_controller(state, series, t, cfg)
    labels = []
    for stage, count in stage_runs(len(pairs), state.tau1, state.tau2):
        labels += [stage] * count
    return state, labels


@dataclass(frozen=True)
class SlopeNoiseModel:
    """Bounded-noise model for per-step discrepancy measurements."""

    delta: float
    range_lo: float
    range_hi: float

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ParameterError(f"delta must be finite and > 0, got {self.delta}")
        if not (self.range_hi > self.range_lo):
            raise ParameterError(f"need range_hi > range_lo, got "
                                 f"[{self.range_lo}, {self.range_hi}]")


def hoeffding_false_alarm(L: int, model: SlopeNoiseModel) -> float:
    """Upper bound on P(|G - E[G]| > delta) for measurements bounded in
    [range_lo, range_hi]: 2 exp(-2 L delta^2 / (hi - lo)^2).

    Monotone decreasing in L; may exceed 1 (vacuous) for small L.
    """
    if L < 1:
        raise ParameterError(f"L must be >= 1, got {L}")
    width = model.range_hi - model.range_lo
    return 2.0 * math.exp(-2.0 * L * model.delta ** 2 / width ** 2)
