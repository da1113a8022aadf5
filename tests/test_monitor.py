"""Discrepancy metric, windowed slope, and the stage-switch controller."""
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hybridpar.mixture as mixture
from hybridpar.cli import curve_rows
from hybridpar.config import DEFAULT_MIXTURE, DEFAULT_SCHEDULE, ExperimentConfig
from hybridpar.engine import PlanVariant, _draw_latents
from hybridpar.errors import (DegenerateInputError, HistoryError,
                              NumericError, ParameterError, SequencingError,
                              ShapeError)
from hybridpar.mixture import (Condition, GaussianMixture, _condition_rows, eps_prediction,
                               rel_mae, score_ratio_estimate)
from hybridpar.monitor import (DiscrepancySeries, SlopeNoiseModel, Stage,
                               StageState, SwitchConfig, _accepts, _switch_step,
                               hoeffding_false_alarm, replay_columns, replay_series,
                               stage_at, update_controller)
from hybridpar.schedules import build_schedule


def parabola_series(T: int = 50, t0: float = 25.0, amp: float = 0.02,
                    floor: float = 0.05) -> list[tuple[int, float]]:
    """U-shaped measurement curve with its minimum at t0."""
    return [(t, amp * (t - t0) ** 2 / t0 ** 2 + floor) for t in range(T, 0, -1)]


# rel_mae ----------------------------------------------------------------------

def test_rel_mae_identical_branches():
    eps = np.array([[1.0, -2.0], [0.5, 3.0]])
    assert rel_mae(eps, eps) == 0.0


def test_rel_mae_hand_value():
    eps_c = np.array([2.0, 0.0])
    eps_u = np.array([1.0, 1.0])
    assert rel_mae(eps_c, eps_u) == 1.0    # (1 + 1) / (1 + 1)


@given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_rel_mae_scale_invariant(a, seed):
    rng = np.random.default_rng(seed)
    eps_c = rng.standard_normal((4, 6))
    eps_u = rng.standard_normal((4, 6)) + 1.0
    base = rel_mae(eps_c, eps_u)
    assert math.isclose(rel_mae(a * eps_c, a * eps_u), base, rel_tol=1e-12)


def test_rel_mae_rejects_bad_input():
    with pytest.raises(ShapeError):
        rel_mae(np.zeros(3), np.zeros(4))
    with pytest.raises(NumericError):
        rel_mae(np.array([np.inf]), np.array([1.0]))
    with pytest.raises(DegenerateInputError):
        rel_mae(np.array([1.0]), np.array([0.0]))


def test_rel_mae_rejects_finite_inputs_whose_sums_overflow():
    """Finite branch outputs can sum past float range; rel_mae raises rather
    than return nan, inf or the 0 an overflowed denominator makes of a
    finite numerator, as the stacked kernel does."""
    big = np.full((4, 2), 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        for eps_c, eps_u, message in [
                (big, np.ones((4, 2)), "branch discrepancy is not finite"),
                (big, -big, "reference branch L1 norm overflows"),
                (np.array([0.0, 1e308]), np.array([1e308, 1e308]),
                 "reference branch L1 norm overflows")]:
            with pytest.raises(NumericError, match=f"^{message}$"):
                rel_mae(eps_c, eps_u)
    assert rel_mae(np.array([0.0, 1e307]), np.array([1e307, 1e307])) == 0.5
    with pytest.raises(ShapeError):
        rel_mae(big, np.ones((2, 4)))
    with pytest.raises(DegenerateInputError):
        rel_mae(big, np.zeros((4, 2)))


# series and slope ---------------------------------------------------------------

def test_series_records_descending_only():
    s = DiscrepancySeries()
    s.record(10, 0.5)
    s.record(9, 0.4)
    with pytest.raises(SequencingError):
        s.record(9, 0.3)
    with pytest.raises(SequencingError):
        s.record(11, 0.3)
    assert list(s._values.items()) == [(10, 0.5), (9, 0.4)]


def test_series_allows_gaps():
    s = DiscrepancySeries()
    s.record(10, 0.5)
    s.record(6, 0.2)
    assert s.has(6) and not s.has(8)
    with pytest.raises(HistoryError):
        s.get(8)


def test_series_rejects_nonfinite():
    s = DiscrepancySeries()
    with pytest.raises(NumericError):
        s.record(5, float("nan"))


def switch_step(ms, cfg):
    """_switch_step's scan of a whole series of values ms, as replay_columns
    runs it: steps L + 1 .. n, each against the value L steps earlier."""
    return _switch_step(cfg.L + 1, len(ms), zip(ms[cfg.L:], ms), cfg)


def test_slope_constant_series_is_zero():
    """G = 0 from step L + 1, the first with a value L steps earlier, so a
    constant series fires there under any g_slope."""
    for L in (1, 3, 9):
        assert switch_step([0.3] * 10, SwitchConfig(L=L, g_slope=1e-300, tau_cap=50, k=0)) == L + 1


def test_slope_linear_series():
    # M_s = 2s gives (M_s - M_{s-L}) / L = 2 regardless of window: a g_slope
    # of 2 leaves it out and the next float up lets it in; M_s = -2s gives -2
    ms = [2.0 * s for s in range(1, 11)]
    for L in (1, 4, 7):
        assert switch_step(ms, SwitchConfig(L=L, g_slope=2.0, tau_cap=50, k=0)) is None
        above = SwitchConfig(L=L, g_slope=math.nextafter(2.0, 3.0), tau_cap=50, k=0)
        assert switch_step(ms, above) == L + 1
        assert switch_step([-m for m in ms], SwitchConfig(L=L, g_slope=1e9, tau_cap=50, k=0)) is None


def test_slope_missing_history():
    """The controller reads a slope only where both M_t and M_{t+L} are
    recorded: a flat pair fires for L = 1, not for L = 5 (nothing at t = 14),
    and nothing fires at an unrecorded t."""
    s = DiscrepancySeries()
    s.record(10, 0.5)
    s.record(9, 0.5)

    def tau1(t, L):
        state = StageState(steps_done=10 - t, last_t=t + 1)
        return update_controller(state, s, t, SwitchConfig(L=L, g_slope=1e-3, tau_cap=50, k=0)).tau1

    assert tau1(9, 1) == 2
    assert tau1(9, 5) is None
    assert tau1(8, 1) is None


def test_slope_flattens_exactly_at_parabola_vertex():
    """Brute-force scan over a synthetic U-curve: with the window straddling
    the vertex the first non-negative slope lands where the two sampled
    points have equal height, at t = t0 - L/2 - 7 here."""
    cfg = SwitchConfig(L=12, g_slope=4e-4, tau_cap=50, k=5)
    ms = [m for _, m in parabola_series()]
    first = next(s for s in range(cfg.L + 1, len(ms) + 1)
                 if 0.0 <= (ms[s - 1] - ms[s - 1 - cfg.L]) / cfg.L < cfg.g_slope)
    assert len(ms) + 1 - first == 19
    assert switch_step(ms, cfg) == first


# controller ---------------------------------------------------------------------

def test_switch_config_validation():
    with pytest.raises(ParameterError):
        SwitchConfig(L=0, g_slope=1e-4, tau_cap=10, k=5)
    with pytest.raises(ParameterError):
        SwitchConfig(L=5, g_slope=0.0, tau_cap=10, k=5)
    with pytest.raises(ParameterError):
        SwitchConfig(L=5, g_slope=1e-4, tau_cap=-1, k=5)
    with pytest.raises(ParameterError):
        SwitchConfig(L=5, g_slope=1e-4, tau_cap=10, k=-1)


def test_controller_natural_detection_spans_exactly_k():
    cfg = SwitchConfig(L=12, g_slope=4e-4, tau_cap=50, k=5)
    state, labels = replay_series(parabola_series(), cfg)
    assert state.tau1 == 32          # step index of t = 19
    assert state.tau2 == 37
    # the step that fires still runs exactly; the window follows it
    assert labels[31] is Stage.WARM_UP
    assert labels[32:37] == [Stage.PARALLELISM] * 5
    assert labels[37] is Stage.FULLY_CONNECTING
    assert labels.count(Stage.PARALLELISM) == 5


def test_controller_cap_forces_switch():
    # strictly decaying series: the slope never flattens, the cap fires
    cfg = SwitchConfig(L=12, g_slope=4e-4, tau_cap=15, k=5)
    pairs = [(t, 0.1 + 0.01 * t) for t in range(50, 0, -1)]
    state, labels = replay_series(pairs, cfg)
    assert state.tau1 == 15 and state.tau2 == 20
    assert labels[:15] == [Stage.WARM_UP] * 15
    assert labels[15:20] == [Stage.PARALLELISM] * 5
    assert set(labels[20:]) == {Stage.FULLY_CONNECTING}


def test_controller_cap_clamps_late_detection():
    # flat series fires as soon as the window fills, at step L + 1; a cap
    # below that clamps tau1 to the cap instead
    cfg = SwitchConfig(L=12, g_slope=4e-4, tau_cap=8, k=3)
    pairs = [(t, 0.25) for t in range(50, 0, -1)]
    state, _ = replay_series(pairs, cfg)
    assert state.tau1 == 8


def test_controller_requires_descending_steps():
    cfg = SwitchConfig(L=2, g_slope=1e-3, tau_cap=5, k=2)
    series = DiscrepancySeries()
    state = StageState()
    series.record(10, 0.5)
    update_controller(state, series, 10, cfg)
    with pytest.raises(SequencingError):
        update_controller(state, series, 8, cfg)


def test_controller_rejects_a_negative_timestep():
    """record rejects t < 0 first on every path that records; the controller
    checks it too, without a recorded value."""
    cfg = SwitchConfig(L=2, g_slope=1e-3, tau_cap=5, k=2)
    with pytest.raises(ParameterError, match="^timestep must be >= 0, got -1$"):
        update_controller(StageState(), DiscrepancySeries(), -1, cfg)


def test_controller_k_zero_skips_pipelined_window():
    cfg = SwitchConfig(L=12, g_slope=4e-4, tau_cap=10, k=0)
    pairs = [(t, 0.1 + 0.01 * t) for t in range(30, 0, -1)]
    state, labels = replay_series(pairs, cfg)
    assert state.tau2 == state.tau1 == 10
    assert Stage.PARALLELISM not in labels


def test_replay_labels_are_monotone():
    """Stage sequence over random bounded series always matches
    WARM_UP+ PARALLELISM^<=k FULLY_CONNECTING*, with the full k window
    present whenever the run reaches the final stage."""
    rng = np.random.default_rng(17)
    order = [Stage.WARM_UP, Stage.PARALLELISM, Stage.FULLY_CONNECTING]
    for trial in range(40):
        T = int(rng.integers(10, 80))
        cfg = SwitchConfig(L=int(rng.integers(1, 15)),
                           g_slope=float(rng.uniform(1e-5, 1e-2)),
                           tau_cap=int(rng.integers(1, T + 1)),
                           k=int(rng.integers(0, 10)))
        pairs = [(t, float(rng.uniform(0.0, 1.0))) for t in range(T, 0, -1)]
        state, labels = replay_series(pairs, cfg)
        ranks = [order.index(l) for l in labels]
        assert ranks == sorted(ranks)
        assert state.tau1 is not None and state.tau1 <= cfg.tau_cap
        assert labels.count(Stage.PARALLELISM) <= cfg.k
        if Stage.FULLY_CONNECTING in labels:
            assert labels.count(Stage.PARALLELISM) == cfg.k


def test_stage_at_boundaries():
    assert [stage_at(s, None, None) for s in (0, 1, 50)] == [Stage.WARM_UP] * 3
    assert [stage_at(s, 3, 5) for s in range(1, 8)] == (
        [Stage.WARM_UP] * 3 + [Stage.PARALLELISM] * 2 + [Stage.FULLY_CONNECTING] * 2)
    assert [stage_at(s, 3, 3) for s in (3, 4)] == [Stage.WARM_UP, Stage.FULLY_CONNECTING]


# The controller as it was when every call computed its own stage label,
# verbatim but for the state class, whose stage was a settable field, and the
# slope, written out. It is the reference for stage_at of each step.
@dataclass
class LabelledState:
    tau1: int | None = None
    tau2: int | None = None
    stage: Stage = Stage.WARM_UP
    steps_done: int = 0
    last_t: int | None = None


def labelled_update_controller(state, series, t, cfg):
    if t < 0:
        raise ParameterError(f"timestep must be >= 0, got {t}")
    if state.last_t is not None and t != state.last_t - 1:
        raise SequencingError(f"controller called at t={t} after t={state.last_t}; "
                              "steps must descend by exactly 1")
    s = state.steps_done + 1

    if state.tau1 is None:
        fired = False
        if series.has(t) and series.has(t + cfg.L):
            g = (series.get(t) - series.get(t + cfg.L)) / cfg.L
            fired = 0.0 <= g < cfg.g_slope
        if fired:
            state.tau1 = min(s, cfg.tau_cap)
            state.tau2 = state.tau1 + cfg.k
        elif s >= cfg.tau_cap:
            # safety cap: force the switch even if the slope never flattened
            state.tau1 = cfg.tau_cap
            state.tau2 = state.tau1 + cfg.k
        label = Stage.WARM_UP
    elif s <= state.tau1:
        label = Stage.WARM_UP
    elif s <= state.tau2:
        label = Stage.PARALLELISM
    else:
        label = Stage.FULLY_CONNECTING

    _STAGE_ORDER = (Stage.WARM_UP, Stage.PARALLELISM, Stage.FULLY_CONNECTING)
    if _STAGE_ORDER.index(label) < _STAGE_ORDER.index(state.stage):
        raise SequencingError(f"stage regressed from {state.stage} to {label}")
    state.stage = label
    state.steps_done = s
    state.last_t = t
    return state


def labelled_replay_series(pairs, cfg):
    series = DiscrepancySeries()
    state = LabelledState()
    labels: list[Stage] = []
    for t, m in pairs:
        series.record(t, m)
        labelled_update_controller(state, series, t, cfg)
        labels.append(state.stage)
    return state, labels


CURVES = {
    "flat": lambda s, rng: 0.25,
    "rising": lambda s, rng: 0.05 + 0.004 * s,
    "falling": lambda s, rng: 0.5 - 0.004 * s,
    "parabola": lambda s, rng: 0.05 + 0.02 * (s - 25) ** 2 / 625,
    "noisy": lambda s, rng: float(rng.uniform(0.0, 1.0)),
}


def test_controller_matches_the_labelled_reference_step_by_step():
    rng = np.random.default_rng(31)
    seen = set()
    for case in range(400):
        shape = list(CURVES)[case % len(CURVES)]
        L = int(rng.integers(1, 15))
        # one case in four is shorter than a full slope window, L + 1 steps
        T = int(rng.integers(1, L + 1)) if case % 4 == 0 else int(rng.integers(L + 1, 80))
        tau_cap = (1, T + int(rng.integers(1, 10)), int(rng.integers(1, T + 1)))[case // 5 % 3]
        cfg = SwitchConfig(L=L, g_slope=float(10 ** rng.uniform(-5, -1)), tau_cap=tau_cap,
                           k=0 if case % 7 == 0 else int(rng.integers(1, 10)))
        pairs = [(T + 1 - s, CURVES[shape](s, rng)) for s in range(1, T + 1)]
        series, ref_series = DiscrepancySeries(), DiscrepancySeries()
        state, ref = StageState(), LabelledState()
        for t, m in pairs:
            series.record(t, m)
            ref_series.record(t, m)
            update_controller(state, series, t, cfg)
            labelled_update_controller(ref, ref_series, t, cfg)
            got = (state.tau1, state.tau2, state.steps_done, state.last_t,
                   stage_at(state.steps_done, state.tau1, state.tau2))
            assert got == (ref.tau1, ref.tau2, ref.steps_done, ref.last_t, ref.stage), case
        replayed, labels = replay_series(pairs, cfg)
        ref_replayed, ref_labels = labelled_replay_series(pairs, cfg)
        assert labels == ref_labels, case
        # the full state, against the labelled reference and the per-row replay
        assert (replayed.tau1, replayed.tau2, replayed.steps_done, replayed.last_t) == (
            ref_replayed.tau1, ref_replayed.tau2, ref_replayed.steps_done,
            ref_replayed.last_t), case
        assert (replayed, labels) == per_row_replay(pairs, cfg), case
        assert column_replay(pairs, cfg) == (replayed, labels), case
        seen.add("undecided" if state.tau1 is None else
                 "at the cap" if state.tau1 == tau_cap else "before the cap")
        seen.add(f"k={'0' if cfg.k == 0 else 'k'}")
    assert seen == {"undecided", "at the cap", "before the cap", "k=0", "k=k"}


def per_row_replay(pairs, cfg):
    """The reference: every row recorded and stepped, and stage_at of every step."""
    series = DiscrepancySeries()
    state = StageState()
    for t, m in pairs:
        series.record(t, m)
        update_controller(state, series, t, cfg)
    return state, labels_of(state, len(pairs))


def column_replay(pairs, cfg):
    """replay_columns over the t and M columns of pairs, the fast path detect
    runs, with per_row_replay's labels."""
    state = replay_columns([t for t, _ in pairs], [m for _, m in pairs], cfg)
    return state, labels_of(state, len(pairs))


def labels_of(state, n):
    return [stage_at(s, state.tau1, state.tau2) for s in range(1, n + 1)]


def test_replay_labels_are_stage_at_of_every_step(monkeypatch):
    """replay_series builds its labels from at most three runs, one stage_at
    call each, and they equal stage_at of every step: with tau1 undecided,
    tau1 = n, tau2 past n and k = 0 among the cases."""
    import hybridpar.monitor as monitor
    calls = []

    def counting(s, tau1, tau2):
        calls.append(s)
        return stage_at(s, tau1, tau2)

    monkeypatch.setattr(monitor, "stage_at", counting)
    seen = set()
    for n in (0, 1, 2, 5, 12):
        for curve in (lambda t: 0.1 + 0.01 * t, lambda t: 0.25):   # decaying: the cap decides
            pairs = [(t, curve(t)) for t in range(n, 0, -1)]
            for tau_cap in (1, max(n // 2, 1), max(n, 1), n + 3):
                for k in (0, 1, 4, 20):
                    cfg = SwitchConfig(L=2, g_slope=1e-3, tau_cap=tau_cap, k=k)
                    calls.clear()
                    state, labels = replay_series(pairs, cfg)
                    tau1, tau2 = state.tau1, state.tau2
                    assert labels == [stage_at(s, tau1, tau2) for s in range(1, n + 1)]
                    assert (state, labels) == per_row_replay(pairs, cfg)
                    assert len(calls) == len(set(labels)) <= 3
                    if tau1 is None:
                        seen.add("undecided")
                    else:
                        seen.update(tag for tag, hit in (("tau1=n", tau1 == n),
                                                         ("tau2>n", tau2 > n),
                                                         ("k=0", k == 0)) if hit)
    assert seen == {"undecided", "tau1=n", "tau2>n", "k=0"}


# a decaying series (G < 0 on every step) whose switch the cap forces at step 10
LATE_CFG = SwitchConfig(L=2, g_slope=1e-3, tau_cap=10, k=3)
LATE_ROWS = 30
LATE_POSITIONS = {"before-the-switch": 4, "on-the-switch": 9, "right-after": 10,
                  "last-row": LATE_ROWS - 1}


def late_series() -> list[tuple[int, float]]:
    return [(t, 0.1 + 0.01 * t) for t in range(LATE_ROWS, 0, -1)]


def bad_series(kind: str, i: int) -> list[tuple[int, float]]:
    """late_series with row i made bad by kind."""
    pairs = late_series()
    t = pairs[i][0]
    if kind == "negative-t":       # descends by exactly 1, through 0 to -1 at row i
        return [(i - 1 - j, m) for j, (_, m) in enumerate(pairs)]
    pairs[i] = {"nan": (t, math.nan), "inf": (t, math.inf),
                "repeated-t": (t + 1, 0.5), "ascending-t": (t + 2, 0.5),
                "skipped-t": (t - 1, 0.5)}[kind]
    return pairs


def raised(fn, *args) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("position", LATE_POSITIONS)
@pytest.mark.parametrize("kind", ["nan", "inf", "repeated-t", "ascending-t",
                                  "skipped-t", "negative-t"])
def test_a_bad_row_raises_its_own_error_wherever_it_lies(kind, position):
    """A bad row before, on or after the switch raises what the per-row
    replay raises there, class and message alike, in the column scan too."""
    pairs = bad_series(kind, LATE_POSITIONS[position])
    want = raised(per_row_replay, pairs, LATE_CFG)
    assert want[0] in {NumericError, SequencingError, ParameterError}
    assert raised(replay_series, pairs, LATE_CFG) == want
    assert raised(column_replay, pairs, LATE_CFG) == want


@pytest.mark.parametrize("first, second", [("nan", "skipped-t"), ("skipped-t", "nan"),
                                           ("negative-t", "nan")])
def test_the_first_bad_row_after_the_switch_wins(first, second):
    """Of two bad rows after the switch, the earlier one raises, as per row,
    in the column scan too."""
    pairs = bad_series(first, 15)
    pairs[22] = bad_series(second, 22)[22]
    want = raised(per_row_replay, pairs, LATE_CFG)
    assert raised(replay_series, pairs, LATE_CFG) == want
    assert raised(column_replay, pairs, LATE_CFG) == want
    assert want == raised(per_row_replay, pairs[:16], LATE_CFG)


@pytest.mark.parametrize("value, error", [("0.5", TypeError), (10 ** 400, OverflowError)],
                         ids=["str", "huge-int"])
def test_a_row_the_bulk_check_cannot_read_raises_its_own_error(value, error):
    """A value whose finiteness check raises is a row _accepts does not
    accept, so the columns are replayed row by row and that row raises its
    own error."""
    pairs = late_series()
    pairs[20] = (pairs[20][0], value)
    ts, ms = [t for t, _ in pairs], [m for _, m in pairs]
    assert _accepts(ts, ms) is False
    want = raised(per_row_replay, pairs, LATE_CFG)
    assert want[0] is error
    assert raised(replay_columns, ts, ms, LATE_CFG) == want
    assert raised(replay_series, pairs, LATE_CFG) == want


def outcome(fn, pairs, cfg):
    """What fn(pairs, cfg) returns, or the class and message of what it raises."""
    try:
        return fn(pairs, cfg)
    except Exception as exc:        # any error: both replays are compared by what they raise
        return type(exc), str(exc)


@st.composite
def odd_rows(draw):
    """late_series with up to four rows replaced by rows of arity 1 to 3:
    the row with a field added or one dropped, or fields that mix the row's
    own t and M, nearby steps and values of other types, so that some rows
    are clean and some fail in either loop."""
    pairs = late_series()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, LATE_ROWS - 1))
        t, m = late_series()[i]
        field = st.one_of(st.sampled_from([t, m, float(t), t - 1, t + 1, -1, True]),
                          st.floats(), st.integers(-5, 40), st.text(max_size=2),
                          st.none(), st.just(10 ** 400))
        pairs[i] = draw(st.one_of(
            st.tuples(st.just(t), st.just(m), field),
            st.sampled_from([(t,), (m,)]),
            st.integers(1, 3).flatmap(lambda n: st.tuples(*[field] * n))))
    return pairs


@given(odd_rows())
@settings(max_examples=300, deadline=None, derandomize=True)
@example([*late_series()[:20], (10, 0.3, "extra"), *late_series()[21:]])
@example([*late_series()[:20], (10,), *late_series()[21:]])
@example([(t, m, None) for t, m in late_series()])
@example([(t, 0.2, 0) if t < 15 else (t, 0.2) for t, _ in late_series()])
@example([(t, 2 ** 60 + (t == 28)) if t in (30, 28) else (t, m) for t, m in late_series()])
def test_replay_series_matches_the_per_row_replay_on_rows_of_any_arity(pairs):
    """replay_series returns what record and update_controller row by row
    return, or raises the same class and message, a row of another arity
    after the switch included, and an M that is not a float (record stores
    float(M): 2 ** 60 + 1 reads as 2 ** 60). So does the column scan on
    every series of (t, float) rows, whatever its t fields are."""
    want = outcome(per_row_replay, pairs, LATE_CFG)
    assert outcome(replay_series, pairs, LATE_CFG) == want
    if all(len(row) == 2 and type(row[1]) is float for row in pairs):
        assert outcome(column_replay, pairs, LATE_CFG) == want


def test_a_row_of_three_fields_after_the_switch_raises_as_per_row():
    pairs = late_series()
    pairs[20] = (pairs[20][0], 0.3, "extra")
    assert raised(replay_series, pairs, LATE_CFG) == (
        ValueError, "too many values to unpack (expected 2)")


def test_replay_steps_the_controller_only_on_a_series_with_a_bad_row(monkeypatch):
    """replay_columns decides a clean series by one scan, with no
    update_controller call; a series with a bad row is replayed row by row
    from its first row, one call per row up to the bad one, before or after
    the switch."""
    import hybridpar.monitor as monitor
    calls = []
    original = monitor.update_controller

    def counting(state, series, t, cfg):
        calls.append(t)
        return original(state, series, t, cfg)

    monkeypatch.setattr(monitor, "update_controller", counting)
    state, _ = column_replay(late_series(), LATE_CFG)
    assert calls == []
    assert (state.tau1, state.steps_done, state.last_t) == (
        LATE_POSITIONS["on-the-switch"] + 1, LATE_ROWS, 1)
    for i in (LATE_POSITIONS["before-the-switch"], 20):
        calls.clear()
        with pytest.raises(NumericError):
            column_replay(bad_series("nan", i), LATE_CFG)
        assert len(calls) == i


# score-based discrepancy estimate ------------------------------------------------

def test_score_ratio_zero_when_condition_covers_everything():
    gm = GaussianMixture(**DEFAULT_MIXTURE)
    sched = build_schedule(DEFAULT_SCHEDULE["kind"], DEFAULT_SCHEDULE["T"],
                           DEFAULT_SCHEDULE["beta_start"], DEFAULT_SCHEDULE["beta_end"])
    cond = Condition(tuple(range(gm.n_components)))
    x = np.linspace(-1.0, 1.0, gm.dim)
    assert score_ratio_estimate(gm, ((cond, slice(None)),), sched, x, 25) == 0.0


def test_score_ratio_matches_branch_rel_mae():
    gm = GaussianMixture(**DEFAULT_MIXTURE)
    sched = build_schedule(DEFAULT_SCHEDULE["kind"], DEFAULT_SCHEDULE["T"],
                           DEFAULT_SCHEDULE["beta_start"], DEFAULT_SCHEDULE["beta_end"])
    cond = Condition((0,))
    rng = np.random.default_rng(18)
    x = rng.standard_normal((8, gm.dim))
    for t in (3, 25, 50):
        eps_c = eps_prediction(gm, cond, sched, x, t)
        eps_u = eps_prediction(gm, None, sched, x, t)
        measured = rel_mae(eps_c, eps_u)
        predicted = score_ratio_estimate(gm, ((cond, slice(None)),), sched, x, t)
        assert math.isclose(measured, predicted, rel_tol=1e-10)


def test_score_ratio_over_condition_groups_matches_branch_rel_mae():
    """On a batch conditioned on a multi-index subset and a singleton, the
    estimate over the batch's condition groups predicts rel_mae of the whole
    batch's branches, and so does each row of the curve command."""
    cfg = ExperimentConfig.from_dict({"conditions": [[0, 1], [2]]})
    plan = cfg.to_plan(variant=PlanVariant.SERIAL)
    gm, sched = plan.mixture, plan.schedule
    groups = _condition_rows(gm, plan.conditions).groups
    assert sorted(len(cond.indices) for cond, _ in groups) == [1, 2]
    x = _draw_latents(plan, plan.seed)
    for t in (3, 25, 50):
        eps_c = np.empty_like(x)
        for cond, rows in groups:
            eps_c[rows] = eps_prediction(gm, cond, sched, x[rows], t)
        measured = rel_mae(eps_c, eps_prediction(gm, None, sched, x, t))
        predicted = score_ratio_estimate(gm, groups, sched, x, t)
        assert math.isclose(measured, predicted, rel_tol=1e-10)
    rows = curve_rows(cfg)
    assert len(rows) == sched.T
    for _, m, ratio, _, _ in rows:
        assert math.isclose(m, ratio, rel_tol=1e-10)


def test_score_ratio_scores_the_unconditional_branch_once(monkeypatch):
    """The estimate scores the unconditional branch once per call, however
    many condition groups it sums, so curve takes two unconditional scores
    per step: the estimate's and the eps_u branch's."""
    cfg = ExperimentConfig.from_dict({"conditions": [[0, 1], [2]]})
    plan = cfg.to_plan(variant=PlanVariant.SERIAL)
    groups = _condition_rows(plan.mixture, plan.conditions).groups
    x = _draw_latents(plan, plan.seed)
    conds = []
    original = mixture.noised_score

    def counting(gm, cond, sched, x, t):
        conds.append(cond)
        return original(gm, cond, sched, x, t)

    monkeypatch.setattr(mixture, "noised_score", counting)
    score_ratio_estimate(plan.mixture, groups, plan.schedule, x, 25)
    assert len(groups) == 2 and conds.count(None) == 1
    conds.clear()
    curve_rows(cfg)
    assert conds.count(None) == 2 * plan.schedule.T


def test_score_ratio_rejects_a_zero_unconditional_score():
    """A one-component mixture centred at 0, evaluated at 0, has a zero score
    on every branch, so the ratio has no denominator."""
    gm = GaussianMixture(weights=np.ones(1), means=np.zeros((1, 3)), variances=np.ones((1, 3)))
    sched = build_schedule(DEFAULT_SCHEDULE["kind"], DEFAULT_SCHEDULE["T"],
                           DEFAULT_SCHEDULE["beta_start"], DEFAULT_SCHEDULE["beta_end"])
    with pytest.raises(DegenerateInputError, match="^unconditional score has zero L1 norm$"):
        score_ratio_estimate(gm, ((Condition((0,)), slice(None)),), sched, np.zeros((2, 3)), 25)


# false-alarm bound ----------------------------------------------------------------

def test_hoeffding_hand_value():
    # L=1 with delta = width / sqrt(2) puts the exponent at exactly -1
    model = SlopeNoiseModel(delta=1.0 / math.sqrt(2.0), range_lo=0.0, range_hi=1.0)
    assert math.isclose(hoeffding_false_alarm(1, model), 0.7357588823428847,
                        rel_tol=1e-15)


def test_hoeffding_monotone_in_window():
    model = SlopeNoiseModel(delta=0.05, range_lo=0.0, range_hi=0.4)
    bounds = [hoeffding_false_alarm(L, model) for L in (1, 2, 4, 12, 30)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_hoeffding_vanishes_for_wide_margin():
    model = SlopeNoiseModel(delta=50.0, range_lo=0.0, range_hi=1.0)
    assert hoeffding_false_alarm(4, model) < 1e-300


def test_hoeffding_validation():
    with pytest.raises(ParameterError):
        SlopeNoiseModel(delta=0.0, range_lo=0.0, range_hi=1.0)
    with pytest.raises(ParameterError):
        SlopeNoiseModel(delta=0.1, range_lo=1.0, range_hi=1.0)
    with pytest.raises(ParameterError):
        hoeffding_false_alarm(0, SlopeNoiseModel(delta=0.1, range_lo=0.0, range_hi=1.0))
