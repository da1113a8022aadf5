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


def _switch_step(first: int, last: int, pairs, cfg: SwitchConfig) -> int | None:
    """tau1 as decided through step last, no step before first having
    decided it: pairs holds (M_s, M_{s-L}) of steps s = first, first + 1, ...,
    and tau1 is the first s <= min(last, tau_cap) whose windowed slope
    G = (M_s - M_{s-L}) / L (negative while the curve decays) lies in
    [0, g_slope), else tau_cap once last reaches it, else None. The one home
    of the slope and of the fire-or-cap rule: update_controller asks it about
    one step, replay_columns about a whole series."""
    L, g_slope, cap = cfg.L, cfg.g_slope, cfg.tau_cap
    for s, (now, then) in zip(range(first, min(last, cap) + 1), pairs):
        if 0.0 <= (now - then) / L < g_slope:
            return s
    return cap if last >= cap else None


def update_controller(state: StageState, series: DiscrepancySeries, t: int,
                      cfg: SwitchConfig) -> StageState:
    """Advance the controller by one denoising step (descending t).

    Sets tau1 the first time the flatness condition holds, or at step tau_cap
    if it never has; tau2 = tau1 + k. The step on which detection fires still
    runs as WARM_UP (its measurement was needed to decide), so the pipelined
    window occupies steps tau1+1 .. tau2 and stage labels are monotone:
    WARM_UP+ PARALLELISM^k FULLY_CONNECTING* (see stage_at). _switch_step
    decides, on M_t and M_{t+L} (L steps earlier) where both are recorded;
    once tau1 is set, a call only checks t and counts the step.
    """
    if t < 0:
        raise ParameterError(f"timestep must be >= 0, got {t}")
    if state.last_t is not None and t != state.last_t - 1:
        raise SequencingError(f"controller called at t={t} after t={state.last_t}; "
                              "steps must descend by exactly 1")
    s = state.steps_done + 1
    if state.tau1 is None:
        now, then = series._values.get(t), series._values.get(t + cfg.L)
        state.tau1 = _switch_step(s, s, [] if now is None or then is None else [(now, then)],
                                  cfg)
        if state.tau1 is not None:
            state.tau2 = state.tau1 + cfg.k
    state.steps_done = s
    state.last_t = t
    return state


def _accepts(ts: list[int], ms: list[float]) -> bool:
    """Whether record and update_controller would accept every row of the
    columns ts and ms: t descends by exactly 1 from ts[0] and stays >= 0,
    and every M is finite. The columns are compared whole, not row by row;
    a value whose check raises counts as not accepted."""
    try:
        return (not ts or ts[-1] >= 0 and ts == list(range(ts[0], ts[0] - len(ts), -1))
                and all(map(math.isfinite, ms)))
    except (TypeError, OverflowError):
        return False


def _replay_rows(rows, cfg: SwitchConfig) -> StageState:
    """The reference replay: each (t, M) row recorded and passed to
    update_controller, so the first bad row raises its own error."""
    series, state = DiscrepancySeries(), StageState()
    for t, m in rows:
        series.record(t, m)
        update_controller(state, series, t, cfg)
    return state


def replay_columns(ts: list[int], ms: list[float], cfg: SwitchConfig) -> StageState:
    """The final state of the controller over a recorded series held as
    columns: ts (ints) and ms (floats), row i being step i + 1. A series
    that passes _accepts is decided by one _switch_step scan of ms over steps
    L + 1 .. n, with no row recorded and no controller step; any other runs
    _replay_rows from its first row, so its first bad row raises its error.
    """
    if not _accepts(ts, ms):
        return _replay_rows(zip(ts, ms), cfg)
    tau1 = _switch_step(cfg.L + 1, len(ts), zip(ms[cfg.L:], ms), cfg)
    return StageState(tau1=tau1, tau2=None if tau1 is None else tau1 + cfg.k,
                      steps_done=len(ts), last_t=ts[-1] if ts else None)


def replay_series(pairs: list[tuple[int, float]], cfg: SwitchConfig) -> tuple[StageState, list[Stage]]:
    """Run the controller over a fully recorded (t, M) sequence, descending
    in t, one pair per denoising step, row by row (_replay_rows). Returns the
    final state and the per-step stage labels (stage_at of each step) from
    stage_runs' runs."""
    state = _replay_rows(pairs, cfg)
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
