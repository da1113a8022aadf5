"""Analytic mixture oracle: scores, noised marginals, branch outputs and
sampling. Finishes with integration checks that drive the
deterministic steppers with oracle outputs and verify refinement converges.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridpar.config import DEFAULT_MIXTURE, DEFAULT_SCHEDULE, ExperimentConfig
from hybridpar.errors import (DegenerateInputError, HybridparError, NumericError,
                              ParameterError, ShapeError)
from hybridpar.mixture import (Condition, GaussianMixture, _rel_mae_blocks, conditional,
                               eps_prediction, noised_mixture, noised_score, sample_x0,
                               score)
from hybridpar.schedules import NoiseSchedule, build_schedule, ddim_step


def make_mixture(seed: int = 0, K: int = 3, d: int = 4) -> GaussianMixture:
    rng = np.random.default_rng(seed)
    return GaussianMixture(weights=rng.uniform(0.5, 2.0, K),
                           means=rng.uniform(-3.0, 3.0, (K, d)),
                           variances=rng.uniform(0.2, 1.5, (K, d)))


def default_schedule():
    return build_schedule(DEFAULT_SCHEDULE["kind"], DEFAULT_SCHEDULE["T"],
                          DEFAULT_SCHEDULE["beta_start"], DEFAULT_SCHEDULE["beta_end"])


# construction and validation -------------------------------------------------

def test_weights_normalized():
    gm = make_mixture()
    assert np.isclose(gm.weights.sum(), 1.0)
    assert gm.n_components == 3 and gm.dim == 4


@pytest.mark.parametrize("kwargs", [
    dict(weights=[1.0], means=[[0.0]], variances=[[0.0]]),    # zero variance
    dict(weights=[0.0, 1.0], means=[[0.0], [1.0]], variances=[[1.0], [1.0]]),
    dict(weights=[], means=np.zeros((0, 2)), variances=np.zeros((0, 2))),
])
def test_mixture_rejects_degenerate(kwargs):
    with pytest.raises((ParameterError, ShapeError)):
        GaussianMixture(**{k: np.asarray(v, dtype=float) for k, v in kwargs.items()})


@pytest.mark.parametrize("kwargs, error, message", [
    (dict(weights=[1.0], means=[0.0], variances=[[1.0]]),
     ShapeError, r"weights must be \(K,\), means and variances \(K, d\)"),
    (dict(weights=[1.0, 1.0], means=[[0.0], [1.0]], variances=[[1.0, 1.0], [1.0, 1.0]]),
     ShapeError, "inconsistent component shapes"),
    (dict(weights=[1.0, 1.0, 1.0], means=[[0.0], [1.0]], variances=[[1.0], [1.0]]),
     ShapeError, "inconsistent component shapes"),
    (dict(weights=[1.0, 1.0], means=[[0.0], [np.nan]], variances=[[1.0], [1.0]]),
     NumericError, "mixture parameters must be finite"),
    (dict(weights=[1.0, 1.0], means=[[0.0], [1.0]], variances=[[1.0], [np.inf]]),
     NumericError, "mixture parameters must be finite"),
    (dict(weights=[np.inf, 1.0], means=[[0.0], [1.0]], variances=[[1.0], [1.0]]),
     NumericError, "mixture parameters must be finite"),
], ids=["means-ndim", "variances-shape", "component-count", "nan-mean", "inf-variance", "inf-weight"])
def test_mixture_rejects_inconsistent_or_non_finite_parameters(kwargs, error, message):
    with pytest.raises(error, match=message):
        GaussianMixture(**{k: np.asarray(v, dtype=float) for k, v in kwargs.items()})


@pytest.mark.parametrize("K", [1, 3])
def test_mixture_rejects_zero_dimensions(K):
    """(K, 0) means and variances are consistent shapes, but no latent has
    a data axis to draw or step along."""
    with pytest.raises(ParameterError, match="^mixture needs at least one dimension$"):
        GaussianMixture(np.ones(K), np.zeros((K, 0)), np.ones((K, 0)))


def test_mixture_rejects_weights_whose_sum_overflows():
    # each weight is finite, but normalizing by their inf sum would give zeros
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        GaussianMixture(weights=np.array([1e308, 1e308]), means=np.zeros((2, 1)),
                        variances=np.ones((2, 1)))


def test_condition_validation():
    assert Condition((2, 0)).indices == (2, 0)
    with pytest.raises(ParameterError):
        Condition(())
    with pytest.raises(ParameterError):
        Condition((1, 1))
    with pytest.raises(ParameterError):
        Condition((-1,))


@pytest.mark.parametrize("index", [1.7, 2.0, True, np.bool_(True), "1", None])
def test_condition_index_of_another_type_is_a_parameter_error(index):
    """int() read 1.7 and True as 1, and a string as its number."""
    with pytest.raises(ParameterError):
        Condition((0, index))


def test_condition_takes_numpy_integers():
    indices = Condition((np.int64(2), np.uint8(0), 1)).indices
    assert indices == (2, 0, 1) and all(type(i) is int for i in indices)


@pytest.mark.parametrize("idx", [(0,), (3, 1), (2, 0, 5), tuple(range(40))])
def test_a_condition_keeps_the_hash_the_dataclass_computed(idx):
    """Condition hashes with the generated __hash__, hash((indices,)), and
    keeps nothing but its indices, so equal conditions, numpy indices among
    them, hash alike."""
    c = Condition(idx)
    assert hash(c) == hash((idx,)) and vars(c) == {"indices": idx}
    twin = Condition([np.int64(i) for i in idx])
    assert twin == c and hash(twin) == hash(c) and len({c, twin}) == 1
    assert hash(tuple([c] * 64)) == hash(tuple([(idx,)] * 64))


def test_model_objects_compare_and_hash_by_identity():
    """A schedule and a mixture hold arrays, so each equals only itself and
    hashes by identity, as the oracle memo and ExactPath.bind read them:
    plans of two equal configs compare unequal without raising, and plans of
    one config, which share its model objects, compare equal."""
    a, b = ExperimentConfig.from_dict({}), ExperimentConfig.from_dict({})
    pa, pb = a.to_plan(), b.to_plan()
    assert pa != pb and a != b
    assert pa == a.to_plan() and a == a
    for x, y in ((pa.schedule, pb.schedule), (pa.mixture, pb.mixture)):
        assert x == x and x != y and not (x == y)
        assert hash(x) == object.__hash__(x) and len({x, y, x}) == 2


@pytest.mark.parametrize("make, error", [
    (lambda: Condition(3), ParameterError),
    (lambda: Condition(None), ParameterError),
    (lambda: GaussianMixture("a", np.zeros((1, 1)), np.ones((1, 1))), ParameterError),
    (lambda: GaussianMixture([1.0], [[object()]], [[1.0]]), ParameterError),
    (lambda: GaussianMixture([1.0], [[1j]], [[1.0]]), ParameterError),
    (lambda: GaussianMixture([1.0], [[0.0]], [[10 ** 400]]), ParameterError),
    (lambda: GaussianMixture([1.0, 1.0], [[0.0], [1.0, 2.0]], [[1.0], [1.0]]), ShapeError),
], ids=["condition-int", "condition-none", "weights-string", "means-object", "means-complex",
        "variances-past-float-range", "means-ragged"])
def test_a_model_value_of_another_type_is_a_model_error(make, error):
    """Neither Python's TypeError for a condition that is not a sequence nor
    numpy's ValueError or TypeError for a mixture array that holds no real
    numbers, or holds ragged rows, escapes the constructor."""
    with pytest.raises(error):
        make()


def test_mixture_takes_integers_past_int64():
    """numpy holds them as objects, which convert to float as they did."""
    gm = GaussianMixture([2 ** 70], [[2 ** 70]], [[1]])
    assert gm.means.dtype == float and gm.means[0, 0] == 2.0 ** 70 and gm.weights[0] == 1.0


def test_mixture_copies_the_callers_arrays():
    """An oracle entry built from the mixture cannot go stale: writing to an
    array the caller passed, or to the base it views, changes neither the
    mixture nor its answers, and the caller's arrays stay writeable."""
    sched = default_schedule()
    x = np.random.default_rng(1).normal(size=(4, 3))
    base = np.zeros((2, 3))
    gm = GaussianMixture(np.array([0.5, 0.5]), base[:], np.ones((2, 3)))
    before = eps_prediction(gm, None, sched, x, 5)
    base[0] = 3.0
    assert np.array_equal(gm.means, np.zeros((2, 3)))
    fresh = GaussianMixture(np.array([0.5, 0.5]), np.zeros((2, 3)), np.ones((2, 3)))
    assert np.array_equal(eps_prediction(gm, None, sched, x, 5), before)
    assert np.array_equal(eps_prediction(fresh, None, sched, x, 5), before)
    means = np.zeros((2, 3))
    GaussianMixture(np.array([0.5, 0.5]), means, np.ones((2, 3)))
    assert means.flags.writeable


def test_conditional_out_of_range():
    with pytest.raises(ParameterError):
        conditional(make_mixture(K=2), Condition((5,)))


# noised marginal --------------------------------------------------------------

def test_noised_identity_at_alpha_bar_one():
    gm = make_mixture()
    noised = noised_mixture(gm, 1.0)
    assert np.allclose(noised.means, gm.means)
    assert np.allclose(noised.variances, gm.variances)


def test_noised_pure_noise_limit():
    gm = make_mixture()
    noised = noised_mixture(gm, 1e-12)
    assert np.allclose(noised.means, 0.0, atol=1e-5)
    assert np.allclose(noised.variances, 1.0, atol=1e-10)


def test_noised_rejects_out_of_range():
    gm = make_mixture()
    for ab in (0.0, -0.1, 1.5):
        with pytest.raises(ParameterError):
            noised_mixture(gm, ab)


# score ------------------------------------------------------------------------

def test_score_single_gaussian_closed_form():
    gm = GaussianMixture(weights=np.array([1.0]),
                         means=np.array([[1.0, -2.0]]),
                         variances=np.array([[0.5, 2.0]]))
    x = np.array([0.0, 0.0])
    out = score(gm, x)
    assert np.allclose(out.score, (gm.means[0] - x) / gm.variances[0])
    expect_ld = -0.5 * np.sum((x - gm.means[0]) ** 2 / gm.variances[0]
                              + np.log(2.0 * np.pi * gm.variances[0]))
    assert np.isclose(out.log_density, expect_ld)


def test_score_conditional_on_all_components_is_unconditional():
    gm = make_mixture(seed=4)
    full = conditional(gm, Condition(tuple(range(gm.n_components))))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, gm.dim))
    assert np.allclose(score(full, x).score, score(gm, x).score, atol=1e-12)


def test_score_matches_finite_differences():
    """Central differences of log_density against the analytic gradient."""
    h = 1e-5
    rng = np.random.default_rng(6)
    for case in range(20):
        gm = make_mixture(seed=100 + case, K=int(rng.integers(1, 5)),
                          d=int(rng.integers(1, 6)))
        x = rng.uniform(-4.0, 4.0, gm.dim)
        s = score(gm, x).score
        for j in range(gm.dim):
            ep = x.copy(); ep[j] += h
            em = x.copy(); em[j] -= h
            fd = (score(gm, ep).log_density - score(gm, em).log_density) / (2 * h)
            assert abs(fd - s[j]) < 1e-5


def test_score_far_tail_is_finite():
    gm = make_mixture()
    out = score(gm, np.full(gm.dim, 80.0))
    assert np.all(np.isfinite(out.score))
    assert np.isfinite(out.log_density)


def test_score_batched_matches_rowwise():
    gm = make_mixture(seed=7)
    rng = np.random.default_rng(8)
    xb = rng.standard_normal((5, gm.dim))
    batched = score(gm, xb)
    for i in range(5):
        row = score(gm, xb[i])
        assert np.allclose(batched.score[i], row.score)
        assert np.isclose(batched.log_density[i], row.log_density)


def test_score_rejects_bad_input():
    gm = make_mixture()
    with pytest.raises(ShapeError):
        score(gm, np.zeros(gm.dim + 1))
    with pytest.raises(NumericError):
        score(gm, np.full(gm.dim, np.nan))


# branch outputs ---------------------------------------------------------------

def test_eps_is_negative_sigma_times_score():
    gm = make_mixture(seed=9)
    sched = default_schedule()
    rng = np.random.default_rng(10)
    x = rng.standard_normal(gm.dim)
    for t in (1, 17, 50):
        noised = noised_mixture(gm, sched.alpha_bar(t))
        expect = -sched.sigma(t) * score(noised, x).score
        assert np.allclose(eps_prediction(gm, None, sched, x, t), expect)


def test_eps_pure_noise_limit_returns_x():
    """With alpha_bar tiny the noised marginal is near N(0, I), whose eps
    prediction at x is x itself."""
    gm = make_mixture(seed=11)
    ab = 1e-6
    sched = NoiseSchedule(np.array([ab]))
    x = np.array([0.3, -1.2, 0.7, 2.0])
    assert np.allclose(eps_prediction(gm, None, sched, x, 1), x, atol=1e-2)


def test_conditional_grad_is_branch_score_difference():
    gm = make_mixture(seed=12)
    sched = default_schedule()
    cond = Condition((0, 2))
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, gm.dim))
    for t in (5, 30):
        ab = sched.alpha_bar(t)
        s_c = score(noised_mixture(conditional(gm, cond), ab), x).score
        s_u = score(noised_mixture(gm, ab), x).score
        grad = noised_score(gm, cond, sched, x, t) - noised_score(gm, None, sched, x, t)
        assert np.allclose(grad, s_c - s_u, atol=1e-12)


def test_conditional_grad_matches_fd_of_log_subset_posterior():
    """s_c - s_u is the gradient of the log conditioning likelihood, probed
    by differencing the two log densities directly."""
    gm = make_mixture(seed=14)
    sched = default_schedule()
    cond = Condition((1,))
    t, h = 20, 1e-5
    ab = sched.alpha_bar(t)
    gm_c = noised_mixture(conditional(gm, cond), ab)
    gm_u = noised_mixture(gm, ab)
    rng = np.random.default_rng(15)
    x = rng.uniform(-2.0, 2.0, gm.dim)
    g = noised_score(gm, cond, sched, x, t) - noised_score(gm, None, sched, x, t)
    for j in range(gm.dim):
        ep = x.copy(); ep[j] += h
        em = x.copy(); em[j] -= h
        fd = ((score(gm_c, ep).log_density - score(gm_u, ep).log_density)
              - (score(gm_c, em).log_density - score(gm_u, em).log_density)) / (2 * h)
        assert abs(fd - g[j]) < 1e-5


# sampling ---------------------------------------------------------------------

def test_sample_x0_deterministic_per_seed():
    gm = make_mixture(seed=16)
    a = sample_x0(gm, None, np.random.default_rng(21), 64)
    b = sample_x0(gm, None, np.random.default_rng(21), 64)
    assert np.array_equal(a, b)
    assert a.shape == (64, gm.dim)


def test_sample_x0_conditional_stays_near_subset():
    """Components are separated far enough that nearest-mean assignment
    recovers the sampled component exactly."""
    gm = GaussianMixture(weights=np.full(4, 0.25),
                         means=np.array([[0.0], [30.0], [60.0], [90.0]]),
                         variances=np.full((4, 1), 0.5))
    draws = sample_x0(gm, Condition((1, 3)), np.random.default_rng(22), 500)
    nearest = np.argmin(np.abs(draws - gm.means[:, 0][None, :]), axis=1)
    assert set(np.unique(nearest)) <= {1, 3}


def test_sample_x0_component_frequencies():
    # n=1e5 at p=0.25 gives sd ~ 137; allow 3 sd
    gm = GaussianMixture(weights=np.full(4, 0.25),
                         means=np.array([[0.0], [30.0], [60.0], [90.0]]),
                         variances=np.full((4, 1), 0.5))
    draws = sample_x0(gm, None, np.random.default_rng(23), 100_000)
    nearest = np.argmin(np.abs(draws - gm.means[:, 0][None, :]), axis=1)
    counts = np.bincount(nearest, minlength=4)
    assert np.all(np.abs(counts - 25_000) < 3 * np.sqrt(100_000 * 0.25 * 0.75))


def test_sample_x0_rejects_negative_count():
    with pytest.raises(ParameterError):
        sample_x0(make_mixture(), None, np.random.default_rng(0), -1)


# integration: steppers driven by the oracle ------------------------------------

def _fine_schedule(coarse: NoiseSchedule, factor: int) -> NoiseSchedule:
    """Subdivide a schedule so every factor-th alpha_bar matches the coarse
    one exactly (log-space interpolation keeps the products consistent)."""
    log_ab = np.concatenate([[0.0], np.log(coarse.alpha_bars)])
    grid = np.arange(coarse.T + 1, dtype=float)
    n = coarse.T * factor
    fine_t = np.arange(1, n + 1, dtype=float) / factor
    return NoiseSchedule(np.exp(np.interp(fine_t, grid, log_ab)))


def test_ddim_rollout_converges_under_refinement():
    """50-step and 500-step rollouts from the same terminal latent agree to a
    few percent; the error frozen here was 0.0183 when first measured."""
    gm = GaussianMixture(**DEFAULT_MIXTURE)
    coarse = default_schedule()
    fine = _fine_schedule(coarse, 10)
    assert np.isclose(fine.alpha_bar(500), coarse.alpha_bar(50))

    cond = Condition((1,))
    rng = np.random.default_rng(3)
    x0 = sample_x0(gm, cond, rng, 4)
    eps = rng.standard_normal(x0.shape)
    xT = np.sqrt(coarse.alpha_bar(50)) * x0 + coarse.sigma(50) * eps

    outs = []
    for sched in (coarse, fine):
        x = xT
        for t in range(sched.T, 0, -1):
            x = ddim_step(x, t, eps_prediction(gm, cond, sched, x, t), sched)
        outs.append(x)
    rel = np.max(np.abs(outs[0] - outs[1])) / np.max(np.abs(outs[1]))
    assert rel < 0.05



# the short-axis reductions of the score kernel --------------------------------

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300])


def assert_same_reduction(got: np.ndarray, want: np.ndarray, zero_sign: bool = True):
    """got has want's bits wherever want is not nan, and nan where it is.

    IEEE 754 leaves a nan result's sign and payload open, and which operand's
    nan an add passes on differs between numpy's scalar and vector loops, so
    nans compare as nans. Without zero_sign, a zero compares by value.
    """
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    keep = ~nan if zero_sign else ~nan & (want != 0.0)
    assert got[keep].tobytes() == want[keep].tobytes()
    assert np.array_equal(got[~nan], want[~nan])


@pytest.mark.parametrize("share", [0.0, 0.1, 0.5])
def test_short_axis_reductions_equal_numpys(share):
    """_sum_last has the bits of a.sum(axis=-1) and _max_last the values of
    a.max(axis=-1), on every row length from 1 to 300 (below 8, up to 128
    and beyond, where _sum_last adds in different orders) and on 512 rows,
    where _sum_last adds columns, as well as on 64, where it leaves the sum
    to numpy. Rows span magnitudes 1e-300 to 1e300, and a share of their
    values is one of +-0.0, +-inf, nan and +-1e+-300; some rows are all
    +-0.0 or all +-1e300. The max of a row of -0.0 and +0.0 may be either
    zero: numpy's vector loop breaks that tie by lane."""
    from hybridpar.mixture import _max_last, _sum_last
    rng = np.random.default_rng(int(share * 10))
    pool = rng.standard_normal(512 * 400) * 10.0 ** rng.integers(-300, 301, 512 * 400)
    mask = rng.random(pool.size) < share
    pool[mask] = rng.choice(SPECIALS, mask.sum())
    with np.errstate(all="ignore"):
        for n in range(1, 301):
            start = rng.integers(pool.size - 512 * n)
            a = pool[start:start + 512 * n].reshape(8, 64, n).copy()
            a[0, 0], a[0, 1] = -0.0, 0.0
            a[0, 2] = rng.choice(SPECIALS[:2], n)
            a[0, 3] = rng.choice(SPECIALS[5:7], n)
            for rows in (a, a[0]):
                assert_same_reduction(_sum_last(rows), rows.sum(axis=-1))
                assert_same_reduction(_max_last(rows), rows.max(axis=-1), zero_sign=False)


# the discrepancy kernel's checks -----------------------------------------------

def ordered_rel_mae_blocks(eps_c: np.ndarray, eps_u: np.ndarray):
    """_rel_mae_blocks as it was when it checked the outputs, then the
    denominators (nonzero, then not overflowed), then the ratios, each check
    before the next value was computed. Its sums warn on overflow, so
    callers switch warnings off."""
    if not (np.isfinite(eps_c).all() and np.isfinite(eps_u).all()):
        raise NumericError("non-finite branch outputs")
    magnitude = np.abs(eps_u)
    denom = magnitude.reshape(len(eps_u), -1).sum(axis=1)
    if (denom == 0.0).any():
        raise DegenerateInputError("reference branch has zero L1 norm")
    if not np.isfinite(denom).all():
        raise NumericError("reference branch L1 norm overflows")
    delta = eps_c - eps_u
    m = np.abs(delta, out=magnitude).reshape(len(delta), -1).sum(axis=1) / denom
    if not np.isfinite(m).all():
        raise NumericError("branch discrepancy is not finite")
    return m, delta


def kernel_outcome(fn, eps_c, eps_u):
    """fn's (m, delta) bytes, or the class and message of the error it raises."""
    try:
        m, delta = fn(eps_c, eps_u)
    except HybridparError as exc:
        return type(exc), str(exc)
    return m.tobytes(), delta.tobytes()


def assert_checks_as_ordered(eps_c, eps_u):
    """_rel_mae_blocks against the ordered reference, with every numpy
    warning an error: none may escape the kernel, whatever the outer errstate."""
    with np.errstate(all="ignore"):
        want = kernel_outcome(ordered_rel_mae_blocks, eps_c, eps_u)
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        assert kernel_outcome(_rel_mae_blocks, eps_c, eps_u) == want
    return want


# what a seed's block may hold: +-inf and nan in either output, an all-zero
# eps_u, values near 1e308 whose sums (or differences) overflow, an eps_u
# whose sum overflows where eps_c's difference from it does not, and a tiny
# eps_u whose ratio overflows
BLOCKS = ["good", "+inf", "-inf", "nan", "zero-u", "huge", "huge-opposed",
          "huge-zero-u", "huge-u-near-c", "tiny-u"]


@st.composite
def branch_pairs(draw):
    """(S, B, d) branch outputs of normal values, each seed's block then
    made one of BLOCKS, so bad seeds sit among good ones."""
    S, B, d = (draw(st.integers(1, 4)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    eps_c, eps_u = rng.standard_normal((2, S, B, d))
    for i in range(S):
        kind = draw(st.sampled_from(BLOCKS))
        out = eps_u if draw(st.booleans()) else eps_c
        row, col = draw(st.integers(0, B - 1)), draw(st.integers(0, d - 1))
        if kind in ("+inf", "-inf", "nan"):
            out[i, row, col] = float(kind)
        elif kind == "zero-u":
            eps_u[i] = draw(st.sampled_from([0.0, -0.0]))
        elif kind == "huge":
            out[i] = draw(st.sampled_from([1e308, -1.7e308, 8.9e307]))
        elif kind == "huge-opposed":
            eps_c[i], eps_u[i] = 1e308, -1e308
        elif kind == "huge-zero-u":
            eps_c[i], eps_u[i] = 1.7e308, 0.0
        elif kind == "huge-u-near-c":
            eps_c[i], eps_u[i] = 1e308, 1e308
            eps_c[i, row, col] = 0.0
        elif kind == "tiny-u":
            eps_u[i] = 5e-324
    return eps_c, eps_u


@given(branch_pairs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_rel_mae_blocks_check_as_the_ordered_checks_did(pair):
    """Checking only m gives the ordered checks' result bit for bit, or
    their error, class and message, with no numpy warning."""
    assert_checks_as_ordered(*pair)


def blocks(*values) -> np.ndarray:
    """One (1, 2) block per value: an (S, 1, 2) array."""
    return np.array([[[v, v]] for v in values], dtype=float)


@pytest.mark.parametrize("eps_c, eps_u, want", [
    (blocks(1.0, 2.0), blocks(2.0, 1.0), None),
    (blocks(1.0, np.inf), blocks(1.0, 1.0), (NumericError, "non-finite branch outputs")),
    (blocks(1.0, 1.0), blocks(np.nan, 1.0), (NumericError, "non-finite branch outputs")),
    (blocks(1.0, 1.0), blocks(1.0, 0.0), (DegenerateInputError,
                                          "reference branch has zero L1 norm")),
    (blocks(1.0, 1e308), blocks(1.0, 1.0), (NumericError, "branch discrepancy is not finite")),
    (blocks(1.0, 1.0), blocks(1.0, 5e-324), (NumericError,
                                             "branch discrepancy is not finite")),
    # a zero eps_u block beside one whose sums overflow: the denominators first
    (blocks(1.0, 1e308), blocks(0.0, 1.0), (DegenerateInputError,
                                            "reference branch has zero L1 norm")),
    # ... and beside a non-finite output: the outputs first
    (blocks(1.0, np.inf), blocks(0.0, 1.0), (NumericError, "non-finite branch outputs")),
    # an eps_u whose sum overflows: its ratio would read 0, whatever the
    # numerator, so the overflowed denominator is an error of its own
    (blocks(1e308), blocks(1e308), (NumericError, "reference branch L1 norm overflows")),
    (np.array([[[0.0, 1e308]]]), blocks(1e308), (NumericError,
                                                  "reference branch L1 norm overflows")),
    # ... after a zero eps_u block beside it: nonzero first
    (blocks(1.0, 1.0), blocks(0.0, 1e308), (DegenerateInputError,
                                            "reference branch has zero L1 norm")),
], ids=["good", "inf-c", "nan-u", "zero-u", "overflow", "tiny-u", "zero-u-and-overflow",
        "zero-u-and-inf", "finite-ratio-of-overflowed-sums", "overflowed-denominator",
        "zero-u-and-overflowed-denominator"])
def test_rel_mae_blocks_error_precedence(eps_c, eps_u, want):
    got = assert_checks_as_ordered(eps_c, eps_u)
    assert isinstance(got[0], bytes) if want is None else got == want
