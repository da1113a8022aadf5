"""Schedule construction and the deterministic steppers."""
import dataclasses
import math
import struct

import numpy as np
import pytest

from hybridpar.errors import (NumericError, ParameterError, ShapeError,
                              StepUnderflowError)
from hybridpar.mixture import GaussianMixture, eps_prediction
from hybridpar.schedules import (GuidanceParams, NoiseSchedule, build_schedule, cfg_combine,
                                 ddim_step)

# independently recomputed in a scratch script as a plain cumulative product
SCALED_LINEAR_AB50 = 0.763763285673763


def test_build_linear_constant_betas():
    sched = build_schedule("linear", 2, 0.5, 0.5)
    assert np.allclose(sched.alpha_bars, [0.5, 0.25])
    assert sched.alpha_bar(0) == 1.0
    assert sched.sigma(0) == 0.0


def test_build_linear_monotone_endpoints():
    sched = build_schedule("linear", 50, 1e-4, 2e-2)
    assert sched.alpha_bar(50) < sched.alpha_bar(1) < 1.0


def test_build_scaled_linear_product_oracle():
    sched = build_schedule("scaled-linear", 50, 0.00085, 0.012)
    assert math.isclose(sched.alpha_bar(50), SCALED_LINEAR_AB50, rel_tol=1e-12)


def test_schedule_monotonicity_random_params():
    # betas kept small enough that alpha_bar never underflows and sigma
    # never saturates at 1.0, so both orderings stay strict
    rng = np.random.default_rng(0)
    for _ in range(50):
        b0 = float(rng.uniform(1e-5, 0.05))
        b1 = float(rng.uniform(b0, 0.1))
        T = int(rng.integers(2, 100))
        kind = "linear" if rng.integers(2) else "scaled-linear"
        sched = build_schedule(kind, T, b0, b1)
        assert np.all(np.diff(sched.alpha_bars) < 0)
        assert np.all(np.diff([sched.sigma(t) for t in range(1, T + 1)]) > 0)


@pytest.mark.parametrize("kind,T,b0,b1", [
    ("cosine", 10, 0.1, 0.2),      # unknown kind
    ("linear", 0, 0.1, 0.2),       # T below 1
    ("linear", 10, 0.0, 0.2),      # beta_start at 0
    ("linear", 10, 0.1, 1.0),      # beta_end at 1
    ("linear", 10, 0.3, 0.2),      # start above end
    ("linear", 10, 2.0 ** -54, 0.2),    # 1 - beta_start rounds to 1.0: sigma_1 = 0
    ("linear", 1000, 0.9, 0.9),         # alpha_bar underflows to 0.0 from t = 324
])
def test_build_schedule_rejects(kind, T, b0, b1):
    with pytest.raises(ParameterError):
        build_schedule(kind, T, b0, b1)


def test_the_schedules_at_the_edge_of_each_rejection_build():
    """beta_start = 2**-53 leaves alpha_bar(1) = 1 - 2**-53 below 1, and
    0.1 ** 323 is still a (subnormal) positive alpha_bar."""
    tiny = build_schedule("linear", 10, 2.0 ** -53, 0.2)
    assert tiny.alpha_bar(1) == 1.0 - 2.0 ** -53 and tiny.sigma(1) > 0.0
    deep = build_schedule("linear", 323, 0.9, 0.9)
    assert 0.0 < deep.alpha_bar(323) < 1e-300


def test_schedule_arrays_are_frozen():
    sched = build_schedule("linear", 5, 0.1, 0.2)
    assert not sched.alpha_bars.flags.writeable
    with pytest.raises(ValueError):
        sched.alpha_bars[0] = 0.5


def test_a_schedule_is_its_alpha_bar_table():
    """T and sigma are derived from the one table a schedule holds: a
    timestep past its length is the schedule's error, not an IndexError."""
    assert [f.name for f in dataclasses.fields(NoiseSchedule)] == ["alpha_bars"]
    sched = NoiseSchedule([0.9, 0.5, 0.2, 0.1])
    assert sched.T == 4 and sched.alpha_bars.dtype == float
    assert [sched.sigma(t) for t in range(5)] == [math.sqrt(1.0 - a)
                                                  for a in (1.0, 0.9, 0.5, 0.2, 0.1)]
    with pytest.raises(ParameterError, match=r"timestep t=5 outside \[1, 4\]"):
        sched.sigma(5)
    with pytest.raises(ParameterError, match=r"timestep t=5 outside \[1, 4\]"):
        ddim_step(np.zeros(2), 5, np.zeros(2), sched)


def test_schedule_copies_the_callers_table():
    """The schedule reads a read-only copy of the table it was given: a later
    write to the caller's array, even of a value the (0, 1) check rejects,
    changes no value the schedule derives nor an oracle answer."""
    table = np.array([0.9, 0.5, 0.2])
    sched = NoiseSchedule(table)
    derived = [(sched.alpha_bar(t), sched.sigma(t)) for t in range(4)], sched._key
    x = np.array([[0.3, -1.2], [2.0, 0.5]])
    eps = eps_prediction(two_component_mixture(), None, sched, x, 2)
    table[1] = 0.0
    assert ([(sched.alpha_bar(t), sched.sigma(t)) for t in range(4)], sched._key) == derived
    assert np.array_equal(eps_prediction(two_component_mixture(), None, sched, x, 2), eps)
    assert table.flags.writeable


def two_component_mixture():
    return GaussianMixture(np.array([1.0, 2.0]), np.array([[0.0, 1.0], [2.0, -1.0]]),
                           np.ones((2, 2)))


@pytest.mark.parametrize("table, error", [
    (["0.9", "0.5"], ParameterError),
    ([0.9, object()], ParameterError),
    ([0.9, 0.5j], ParameterError),
    (np.array([[0.9, 0.5]]), ShapeError),
    ([], ShapeError),
    (0.5, ShapeError),
    ([[0.9], [0.5, 0.2]], ShapeError),
], ids=["strings", "object", "complex", "2-d", "empty", "scalar", "ragged"])
def test_a_table_that_is_not_1d_real_numbers_is_rejected(table, error):
    with pytest.raises(error):
        NoiseSchedule(table)


def test_guidance_params_range():
    assert GuidanceParams(0.0).w == 0.0
    with pytest.raises(ParameterError):
        GuidanceParams(-1.0)
    with pytest.raises(ParameterError):
        GuidanceParams(float("nan"))


@pytest.mark.parametrize("w", ["2", None, True, np.bool_(True), 1j, [2.0],
                               pytest.param(10 ** 400, id="int-past-float-range"),
                               pytest.param(10 ** 5000, id="int-past-the-str-digit-limit")])
def test_guidance_w_of_another_type_is_a_parameter_error(w):
    """A string or None made numpy raise TypeError, and True passed as 1;
    an integer past float range is no finite w."""
    with pytest.raises(ParameterError):
        GuidanceParams(w)


@pytest.mark.parametrize("w", [2, 7.5, np.float32(1.5), np.int64(3), np.float64(0.0)])
def test_guidance_w_takes_python_and_numpy_numbers(w):
    assert GuidanceParams(w).w == w


# cfg_combine ---------------------------------------------------------------

def test_cfg_combine_zero_guidance():
    eps_c, eps_u = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    assert np.array_equal(cfg_combine(eps_c, eps_u, GuidanceParams(0.0)), eps_c)


def test_cfg_combine_identical_branches():
    eps = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(cfg_combine(eps, eps, GuidanceParams(7.5)), eps)


def test_cfg_combine_hand_value():
    out = cfg_combine(np.array([2.0]), np.array([1.0]), GuidanceParams(3.0))
    assert np.array_equal(out, [5.0])


def test_cfg_combine_is_affine():
    rng = np.random.default_rng(1)
    for _ in range(25):
        eps_c = rng.standard_normal(6)
        eps_u = rng.standard_normal(6)
        a = float(rng.uniform(0.1, 5.0))
        g = GuidanceParams(float(rng.uniform(0, 10)))
        lhs = cfg_combine(a * eps_c, a * eps_u, g)
        rhs = a * cfg_combine(eps_c, eps_u, g)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_cfg_combine_keeps_the_literal_bits():
    """cfg_combine forms its estimate in the buffer of eps_c - eps_u; it
    returns the bits of the literal eps_c + w * (eps_c - eps_u) on random
    batches and at the edges (signed zeros, overflow to inf, the nan of
    0 * inf) and leaves its inputs as they were."""
    rng = np.random.default_rng(17)
    big = np.nextafter(np.inf, 0.0)
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, big, -big])
    grid_c, grid_u = (a.ravel() for a in np.meshgrid(edges, edges))
    batches = [(rng.normal(0.0, 3.0, (64, 8)), rng.normal(0.0, 3.0, (64, 8))),
               (rng.normal(0.0, 1e307, (9, 5)), rng.normal(0.0, 1e307, (9, 5))),
               (grid_c, grid_u)]
    for w in (0.0, 0.5, 7.5, 1e-300, 1e308):
        for eps_c, eps_u in batches:
            before = eps_c.tobytes(), eps_u.tobytes()
            with np.errstate(over="ignore", invalid="ignore"):
                want = eps_c + w * (eps_c - eps_u)
                got = cfg_combine(eps_c, eps_u, GuidanceParams(w))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), w
            assert (eps_c.tobytes(), eps_u.tobytes()) == before


def test_cfg_combine_shape_mismatch():
    with pytest.raises(ShapeError):
        cfg_combine(np.zeros(3), np.zeros(4), GuidanceParams(1.0))


# ddim_step ------------------------------------------------------------------

def test_ddim_round_trip_identity():
    """Noising x0 to t and stepping with the exact noise lands on the t-1
    interpolant of the same (x0, eps) pair."""
    sched = build_schedule("linear", 20, 0.01, 0.2)
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((3, 5))
    eps = rng.standard_normal((3, 5))
    for t in (1, 7, 20):
        x_t = np.sqrt(sched.alpha_bar(t)) * x0 + sched.sigma(t) * eps
        out = ddim_step(x_t, t, eps, sched)
        expect = np.sqrt(sched.alpha_bar(t - 1)) * x0 + sched.sigma(t - 1) * eps
        assert np.allclose(out, expect, rtol=1e-10, atol=1e-12)


def test_ddim_final_step_returns_x0_hat():
    sched = build_schedule("linear", 4, 0.05, 0.1)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(6)
    eps = rng.standard_normal(6)
    x1 = np.sqrt(sched.alpha_bar(1)) * x0 + sched.sigma(1) * eps
    out = ddim_step(x1, 1, eps, sched)
    assert np.allclose(out, x0, rtol=1e-10, atol=1e-12)


def test_ddim_deterministic():
    sched = build_schedule("linear", 10, 0.02, 0.1)
    x = np.linspace(-1, 1, 8)
    eps = np.cos(x)
    a = ddim_step(x, 5, eps, sched)
    b = ddim_step(x, 5, eps, sched)
    assert np.array_equal(a, b)


def test_ddim_rejects_nonfinite():
    sched = build_schedule("linear", 10, 0.02, 0.1)
    bad = np.array([1.0, float("inf")])
    with pytest.raises(NumericError):
        ddim_step(bad, 5, np.zeros(2), sched)


def test_guided_step_keeps_the_closed_form_bits():
    """The engine's stacked steps take cfg_combine's arithmetic and
    ddim_step unchanged: each returns the bits of its textbook expression."""
    rng = np.random.default_rng(5)
    for kind in ("linear", "scaled-linear"):
        sched = build_schedule(kind, 30, 0.01, 0.12)
        for t in range(1, sched.T + 1):
            x, eps_c, eps_u = (rng.normal(0.0, 3.0, (17, 8)) for _ in range(3))
            w = float(rng.uniform(0.0, 8.0))
            eps = cfg_combine(eps_c, eps_u, GuidanceParams(w))
            assert np.array_equal(eps, eps_c + w * (eps_c - eps_u))
            ab_t, ab_prev = sched.alpha_bar(t), sched.alpha_bar(t - 1)
            want = (np.sqrt(ab_prev) * ((x - sched.sigma(t) * eps) / np.sqrt(ab_t))
                    + np.sqrt(1.0 - ab_prev) * eps)
            assert np.array_equal(ddim_step(x, t, eps, sched), want)


def test_ddim_underflow():
    sched = build_schedule("linear", 10, 0.02, 0.1)
    with pytest.raises(StepUnderflowError):
        ddim_step(np.zeros(2), 0, np.zeros(2), sched)


def test_ddim_rejects_negative_t():
    sched = build_schedule("linear", 10, 0.02, 0.1)
    with pytest.raises(ParameterError):
        ddim_step(np.zeros(3), -1, np.zeros(3), sched)


@pytest.mark.parametrize("t", [-1, -5, -6, 6])
def test_ddim_step_checks_t_after_its_arrays(t):
    """t = 0 is a StepUnderflowError before the arrays are read; any other t
    outside [1, T] is the schedule's ParameterError, after the shape and
    finiteness checks, and never reads a step table from its end."""
    sched = build_schedule("linear", 5, 0.02, 0.1)
    ok, bad = np.ones(3), np.array([1.0, np.nan, 1.0])
    with pytest.raises(StepUnderflowError):
        ddim_step(bad, 0, np.ones(4), sched)
    with pytest.raises(ShapeError):
        ddim_step(ok, t, np.ones(4), sched)
    with pytest.raises(NumericError):
        ddim_step(bad, t, ok, sched)
    with pytest.raises(ParameterError, match=rf"timestep t={t} outside \[1, 5\]"):
        ddim_step(ok, t, ok, sched)


# the step tables -------------------------------------------------------------

def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def ref_ddim_step(x_t, t, eps, sched):
    """ddim_step as it computed each factor per call, from the alpha_bar table."""
    ab_t = float(sched.alpha_bars[t - 1])
    x0_hat = x_t - math.sqrt(1.0 - ab_t) * eps
    x0_hat /= math.sqrt(ab_t)
    ab_prev = 1.0 if t == 1 else float(sched.alpha_bars[t - 2])
    x0_hat *= math.sqrt(ab_prev)
    x0_hat += math.sqrt(1.0 - ab_prev) * eps
    return x0_hat


def hand_built_schedule():
    """An alpha_bar table that no build_schedule call makes: the tables read the one given."""
    return NoiseSchedule(np.array([0.9, 0.5, 1e-300]))


@pytest.mark.parametrize("sched", [
    build_schedule("linear", 50, 1e-4, 2e-2),
    build_schedule("scaled-linear", 50, 0.00085, 0.012),
    build_schedule("linear", 1, 0.5, 0.5),
    build_schedule("scaled-linear", 1, 0.00085, 0.012),
    build_schedule("linear", 323, 0.9, 0.9),       # alpha_bar(323) is subnormal
    hand_built_schedule(),
], ids=["linear", "scaled-linear", "linear-T1", "scaled-linear-T1", "subnormal", "hand-built"])
def test_step_tables_hold_the_per_call_values(sched):
    """The accessors and ddim_step read tables built with the schedule; at
    every t each value has the bits the per-call expression gave, the sigma
    table those of np.sqrt(1.0 - alpha_bars), and the oracle's memo key is
    the alpha_bar array's bytes."""
    rng = np.random.default_rng(sched.T)
    assert np.array(sched._sigma[1:]).tobytes() == np.sqrt(1.0 - sched.alpha_bars).tobytes()
    assert bits(sched.alpha_bar(0)) == bits(1.0) and bits(sched.sigma(0)) == bits(0.0)
    for t in range(1, sched.T + 1):
        ab_t = float(sched.alpha_bars[t - 1])
        ab_prev = 1.0 if t == 1 else float(sched.alpha_bars[t - 2])
        assert bits(sched.alpha_bar(t)) == bits(ab_t)
        assert bits(sched.sigma(t)) == bits(math.sqrt(1.0 - ab_t))
        want = (math.sqrt(1.0 - ab_t), math.sqrt(ab_t), math.sqrt(ab_prev),
                math.sqrt(1.0 - ab_prev))
        assert list(map(bits, sched._ddim[t])) == list(map(bits, want))
        x, eps = rng.normal(0.0, 2.0, (2, 5, 4))
        assert ddim_step(x, t, eps, sched).tobytes() == ref_ddim_step(x, t, eps, sched).tobytes()
    assert sched._key == sched.alpha_bars.tobytes()
