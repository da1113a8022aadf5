"""The compiled mixture oracle: eps_prediction against an uncompiled reference.

The reference functions below are the oracle without a cache: every call
rebuilds and re-validates the conditional and noised mixtures and scores
them. The compiled oracle must return the same arrays (np.array_equal) on
every input, and build each cache entry, such as a subset's noised table
for one schedule, once per mixture instance.
"""
import dataclasses
import itertools
import json
import sys

import numpy as np
import pytest

import hybridpar.engine as engine
import hybridpar.mixture as mixture_mod
from hybridpar.cli import curve_rows, main
from hybridpar.config import DEFAULT_SCHEDULE, ExperimentConfig
from hybridpar.engine import PlanVariant, _draw_latents, _initial_latents, run_plan
from hybridpar.errors import NumericError, ParameterError, ShapeError
from hybridpar.mixture import (Condition, GaussianMixture, ScoreEval, _component_sampler,
                               _condition_rows, _noised_terms, _Terms, conditional,
                               eps_prediction, noised_mixture, sample_x0)
from hybridpar.schedules import NoiseSchedule, build_schedule


# reference: the uncompiled oracle ------------------------------------------------

def ref_conditional(gm: GaussianMixture, cond: Condition) -> GaussianMixture:
    """Restrict the mixture to a component subset and renormalize weights."""
    if max(cond.indices) >= gm.n_components:
        raise ParameterError(f"condition indices {cond.indices} exceed "
                             f"K={gm.n_components} components")
    idx = np.asarray(cond.indices, dtype=int)
    return GaussianMixture(weights=gm.weights[idx].copy(),
                           means=gm.means[idx].copy(),
                           variances=gm.variances[idx].copy())


def ref_noised_mixture(gm: GaussianMixture, alpha_bar: float) -> GaussianMixture:
    """Marginal of x_t = sqrt(ab) x_0 + sqrt(1 - ab) eps when x_0 ~ gm.

    Component i maps to N(sqrt(ab) mu_i, ab var_i + (1 - ab)).
    """
    if not (0.0 < alpha_bar <= 1.0):
        raise ParameterError(f"alpha_bar must lie in (0, 1], got {alpha_bar}")
    return GaussianMixture(weights=gm.weights.copy(),
                           means=np.sqrt(alpha_bar) * gm.means,
                           variances=alpha_bar * gm.variances + (1.0 - alpha_bar))


def ref_prep_x(gm: GaussianMixture, x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NumericError("evaluation points must be finite")
    squeezed = x.ndim == 1
    if squeezed:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != gm.dim:
        raise ShapeError(f"x must be (d,) or (B, d) with d={gm.dim}, got {x.shape}")
    return x, squeezed


def ref_log_resp(gm: GaussianMixture, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-component log joint and the log marginal density, batched."""
    diff = x[:, None, :] - gm.means[None, :, :]                    # (B, K, d)
    v = gm.variances[None, :, :]
    log_joint = (np.log(gm.weights)[None, :]
                 - 0.5 * np.sum(diff * diff / v + np.log(2.0 * np.pi * v), axis=2))
    mx = log_joint.max(axis=1, keepdims=True)
    log_density = mx[:, 0] + np.log(np.exp(log_joint - mx).sum(axis=1))
    return log_joint, log_density


def ref_score(gm: GaussianMixture, x: np.ndarray) -> ScoreEval:
    """Exact gradient of the mixture log-density, with the log-density itself.

    Responsibilities are computed with max-subtracted softmax, so points far
    from every component stay numerically stable.
    """
    xb, squeezed = ref_prep_x(gm, x)
    log_joint, log_density = ref_log_resp(gm, xb)
    r = np.exp(log_joint - log_density[:, None])                   # (B, K)
    pull = (gm.means[None, :, :] - xb[:, None, :]) / gm.variances[None, :, :]
    s = np.einsum("bk,bkd->bd", r, pull)
    if squeezed:
        return ScoreEval(score=s[0], log_density=log_density[0])
    return ScoreEval(score=s, log_density=log_density)


def ref_eps_prediction(gm: GaussianMixture, cond: Condition | None, sched: NoiseSchedule,
                       x: np.ndarray, t: int) -> np.ndarray:
    """Oracle branch output at timestep t: eps = -sigma_t * score of the
    noised (conditional) mixture evaluated at x."""
    base = gm if cond is None else ref_conditional(gm, cond)
    noised = ref_noised_mixture(base, sched.alpha_bar(t))
    return -sched.sigma(t) * ref_score(noised, x).score


def ref_sample_x0(gm: GaussianMixture, cond: Condition | None,
                  rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n exact samples, conditioning by subset restriction when given."""
    if n < 0:
        raise ParameterError(f"sample count must be >= 0, got {n}")
    base = gm if cond is None else ref_conditional(gm, cond)
    comp = rng.choice(base.n_components, size=n, p=base.weights)
    noise = rng.standard_normal((n, base.dim))
    return base.means[comp] + np.sqrt(base.variances[comp]) * noise


# helpers ----------------------------------------------------------------------------

D = 5


def random_mixture(seed: int, K: int) -> GaussianMixture:
    rng = np.random.default_rng(seed)
    return GaussianMixture(weights=rng.uniform(0.2, 2.0, K),
                           means=rng.uniform(-3.0, 3.0, (K, D)),
                           variances=rng.uniform(0.05, 1.5, (K, D)))


def subsets(K: int) -> list[Condition | None]:
    """Unconditional, every singleton, and multi-index subsets in shuffled order."""
    out: list[Condition | None] = [None]
    out += [Condition((i,)) for i in range(K)]
    if K >= 2:
        out += [Condition((K - 1, 0)), Condition(tuple(range(K)))]
    if K >= 4:
        out.append(Condition((2, 0, 3)))
    return out


SCHEDULES = (build_schedule("linear", 12, 0.01, 0.3),
             build_schedule("scaled-linear", 12, 0.001, 0.2))


# bitwise equivalence -----------------------------------------------------------------

@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_eps_prediction_matches_reference_bitwise(K):
    gm = random_mixture(seed=100 + K, K=K)
    rng = np.random.default_rng(K)
    points = {B: rng.normal(0.0, 3.0, (B, D)) for B in (1, 7, 64)}
    points["squeezed"] = rng.normal(0.0, 3.0, D)
    for i, sched in enumerate(SCHEDULES):
        for cond in subsets(K):
            for t in range(sched.T + 1):
                for x in points.values():
                    # the second call reads the cached entry
                    for _ in range(2):
                        got = eps_prediction(gm, cond, sched, x, t)
                        want = ref_eps_prediction(gm, cond, sched, x, t)
                        assert got.shape == want.shape
                        assert np.array_equal(got, want), (K, cond, i, t)


def test_eps_prediction_matches_reference_far_from_every_component():
    gm = random_mixture(seed=7, K=3)
    sched = SCHEDULES[0]
    x = np.full((4, D), 40.0)
    x[1] *= -1.0
    for cond in subsets(3):
        for t in (1, 6, sched.T):
            assert np.array_equal(eps_prediction(gm, cond, sched, x, t),
                                  ref_eps_prediction(gm, cond, sched, x, t))


def test_initial_latents_match_reference_draws():
    cfg = ExperimentConfig.from_dict({"conditions": [[0], [1, 2], [3], [0, 1, 2, 3]],
                                      "condition_batch": 16})
    for seed in (0, 5):
        plan = cfg.to_plan(seed=seed, variant=PlanVariant.SERIAL)
        gm, sched = plan.mixture, plan.schedule
        rng = np.random.default_rng(seed)
        x0 = np.stack([ref_sample_x0(gm, c, rng, 1)[0] for c in plan.conditions])
        eps = rng.standard_normal(x0.shape)
        ab = sched.alpha_bar(sched.T)
        want = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        assert np.array_equal(_draw_latents(plan, plan.seed), want)


@pytest.mark.parametrize("body", [{}, {"conditions": [[0, 1], [2], [1, 2, 3]],
                                      "condition_batch": 17}, {"condition_batch": 1}],
                         ids=["default", "mixed-17", "one-row"])
def test_initial_latents_equal_per_row_sample_x0(body):
    """_draw_latents against the reference its docstring names: one
    sample_x0(gm, cond, rng, 1) per row, one (B, d) normal draw for eps,
    then noised to t = T, bit for bit."""
    cfg = ExperimentConfig.from_dict(body)
    for seed in range(20):
        plan = cfg.to_plan(seed=seed, variant=PlanVariant.SERIAL)
        gm, sched = plan.mixture, plan.schedule
        rng = np.random.default_rng(seed)
        x0 = np.concatenate([sample_x0(gm, c, rng, 1) for c in plan.conditions])
        eps = rng.standard_normal(x0.shape)
        ab = sched.alpha_bar(sched.T)
        want = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        got = _draw_latents(plan, plan.seed)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed


def test_initial_latents_match_reference_draws_weighted_multi_index():
    rng = np.random.default_rng(8)
    mixture = {"weights": [0.05, 0.5, 0.15, 0.3, 0.0001],
               "means": rng.normal(size=(5, D)).tolist(),
               "variances": rng.uniform(0.1, 2.0, size=(5, D)).tolist()}
    cfg = ExperimentConfig.from_dict({"mixture": mixture, "condition_batch": 23,
                                      "conditions": [[4, 0, 2], [1], [3, 1],
                                                     [0, 1, 2, 3, 4], [2, 4]]})
    for seed in range(40):
        plan = cfg.to_plan(seed=seed, variant=PlanVariant.SERIAL)
        gm, sched = plan.mixture, plan.schedule
        rng = np.random.default_rng(seed)
        x0 = np.stack([ref_sample_x0(gm, c, rng, 1)[0] for c in plan.conditions])
        eps = rng.standard_normal(x0.shape)
        ab = sched.alpha_bar(sched.T)
        want = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        assert np.array_equal(_draw_latents(plan, plan.seed), want)


def test_sample_x0_matches_reference_draws():
    gm = random_mixture(seed=3, K=4)
    for cond in subsets(4):
        a = sample_x0(gm, cond, np.random.default_rng(11), 9)
        b = ref_sample_x0(gm, cond, np.random.default_rng(11), 9)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("weights", [
    [0.05, 0.5, 0.15, 0.3, 0.0001],
    [1e-12, 1.0, 3e5, 7.0, 0.3],
    [1.0, 1.0, 1.0, 1.0, 1.0],
    np.random.default_rng(4).uniform(0.01, 10.0, 5).tolist(),
], ids=["weighted", "wide", "flat", "random"])
def test_sampler_cdf_equals_the_conditional_weights_bitwise(weights):
    """The sampler renormalizes the subset's weights off the mixture's own:
    its cdf has the bits of the one cumsum of conditional(gm, cond).weights
    gives, on every multi-index subset, in any index order."""
    rng = np.random.default_rng(2)
    gm = GaussianMixture(weights, rng.normal(size=(5, D)), rng.uniform(0.1, 2.0, (5, D)))
    for idx in [(0, 1), (4, 0, 2), (3, 1), (1, 3), (2, 4, 0, 3), (0, 1, 2, 3, 4),
                (4, 3, 2, 1, 0)]:
        cond = Condition(idx)
        cdf, comps = _component_sampler(gm, cond)
        ref = conditional(gm, cond).weights.cumsum()
        ref /= ref[-1]
        assert cdf.tobytes() == ref.tobytes(), idx
        assert comps.tolist() == list(idx)
    cdf, comps = _component_sampler(gm, None)
    ref = gm.weights.cumsum()
    ref /= ref[-1]
    assert cdf.tobytes() == ref.tobytes() and comps.tolist() == list(range(5))


def test_sample_x0_keeps_its_out_of_range_message():
    gm = random_mixture(seed=3, K=4)
    for idx in [(4,), (1, 4), (0, 7, 2)]:
        with pytest.raises(ParameterError) as exc:
            sample_x0(gm, Condition(idx), np.random.default_rng(0), 2)
        assert str(exc.value) == f"condition indices {idx} exceed K=4 components"
    assert not any(key[0] == "sampler" for key in gm._memo)     # a failed build stores nothing


# the cache ----------------------------------------------------------------------------

@pytest.fixture
def build_counts(monkeypatch):
    """Count calls of the public constructors the cache builds entries with,
    and of the noised-table build, each recorded by one of its arguments."""
    record = {"conditional": lambda gm, cond: cond.indices,
              "noised_mixture": lambda gm, alpha_bar: alpha_bar,
              "_noised_rows": lambda base, alpha_bars: base.n_components}
    counts = {name: [] for name in record}

    def counting(name):
        original = getattr(mixture_mod, name)

        def wrapped(gm, arg):
            counts[name].append(record[name](gm, arg))
            return original(gm, arg)
        return wrapped

    for name in counts:
        monkeypatch.setattr(mixture_mod, name, counting(name))
    return counts


def test_each_entry_is_built_once_per_instance(build_counts):
    gm = random_mixture(seed=1, K=4)
    x = np.random.default_rng(0).normal(size=(7, D))
    conds = subsets(4)
    for _ in range(3):
        for sched in SCHEDULES:
            for cond in conds:
                for t in range(sched.T + 1):
                    eps_prediction(gm, cond, sched, x, t)
                    eps_prediction(gm, cond, sched, x[0], t)
    # one table per (subset, schedule), each from one conditional mixture,
    # and no per-step noised mixture
    tables = sorted(c.indices for c in conds[1:] for _ in SCHEDULES)
    assert sorted(build_counts["conditional"]) == tables
    assert sorted(build_counts["_noised_rows"]) == sorted(
        4 if c is None else len(c.indices) for c in conds for _ in SCHEDULES)
    assert build_counts["noised_mixture"] == []
    # sampling builds no conditional mixture (it reads gm's weights)
    rng = np.random.default_rng(0)
    for cond in conds:
        sample_x0(gm, cond, rng, 3)
    assert len(build_counts["conditional"]) == len(tables)


def test_a_fresh_configs_first_draw_builds_no_conditional_mixture(build_counts):
    """The draw of initial latents reads each subset's weights off the
    validated mixture (_component_sampler): it builds no conditional mixture,
    for singleton subsets or multi-index ones."""
    for doc in ({}, {"preset": "sd3-like"},
                {"condition_batch": 7, "conditions": [[3, 0, 2], [1], [2, 1]]}):
        plan = ExperimentConfig.from_dict(doc).to_plan(variant=PlanVariant.SERIAL)
        _draw_latents(plan, plan.seed)
        assert build_counts["conditional"] == [], doc


def test_equal_mixtures_do_not_share_entries(build_counts):
    a = random_mixture(seed=2, K=3)
    b = random_mixture(seed=2, K=3)
    sched = SCHEDULES[0]
    x = np.zeros((2, D))
    eps_a = eps_prediction(a, Condition((0, 2)), sched, x, 4)
    assert len(build_counts["conditional"]) == 1
    assert len(build_counts["_noised_rows"]) == 1
    eps_b = eps_prediction(b, Condition((0, 2)), sched, x, 4)
    assert len(build_counts["conditional"]) == 2
    assert len(build_counts["_noised_rows"]) == 2
    assert build_counts["noised_mixture"] == []
    assert np.array_equal(eps_a, eps_b)


def test_schedules_with_other_alpha_bars_do_not_share_a_table(build_counts):
    """The table is keyed by the alpha_bar array's bytes: a schedule that
    differs in one beta, or only in T, builds its own."""
    gm = random_mixture(seed=5, K=3)
    x = np.zeros((2, D))
    scheds = (build_schedule("linear", 12, 0.01, 0.3), build_schedule("linear", 12, 0.01, 0.3),
              build_schedule("linear", 12, 0.01, 0.31), build_schedule("linear", 13, 0.01, 0.3))
    for sched in scheds:
        assert np.array_equal(eps_prediction(gm, None, sched, x, 12),
                              ref_eps_prediction(gm, None, sched, x, 12))
    assert build_counts["_noised_rows"] == [3, 3, 3]


# the per-(subset, schedule) table ----------------------------------------------------

@pytest.mark.parametrize("kind,beta_start,beta_end", [("linear", 1e-4, 0.02),
                                                      ("scaled-linear", 0.00085, 0.012)])
@pytest.mark.parametrize("T", [1, 50, 1000])
def test_table_rows_equal_the_per_step_build(kind, beta_start, beta_end, T):
    """Row t of each subset's table, t = 0..T, holds the bits of the noised
    mixture built for that one step, and is read-only. So does the row of
    each alpha_bar at the edges of (0, 1) that a schedule may hold, on valid
    mixtures at the float extremes."""
    gm = random_mixture(seed=9, K=4)
    sched = build_schedule(kind, T, beta_start, beta_end)
    conds = [None] + [Condition(c) for n in range(1, 5)
                      for c in itertools.combinations(range(4), n)]
    for cond in conds:
        base = gm if cond is None else conditional(gm, cond)
        for t in range(T + 1):
            assert_row_is_the_per_step_build(gm, cond, sched, t, base)

    alpha_bars = np.concatenate([sched.alpha_bars, [5e-324, 1e-300, 1.0 - 2.0 ** -53]])
    for gm in EXTREME_MIXTURES:
        with np.errstate(over="ignore"):    # log(2 pi var) of a near-max var is inf
            rows = mixture_mod._noised_rows(gm, alpha_bars)
            assert len(rows) == len(alpha_bars) + 1
            for t, ab in enumerate([1.0, *alpha_bars.tolist()]):
                assert_terms_equal(rows[t], _Terms.of(noised_mixture(gm, ab)), t)


def assert_row_is_the_per_step_build(gm, cond, sched, t, base):
    got = _noised_terms(gm, cond, sched, t)
    assert_terms_equal(got, _Terms.of(noised_mixture(base, sched.alpha_bar(t))), (cond, t))


def assert_terms_equal(got, want, where):
    """got holds want's arrays bit for bit, each read-only."""
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), where
        assert not a.flags.writeable


_MAX, _TINY = np.finfo(float).max, 5e-324
# valid mixtures at the float extremes: +-max and subnormal means, subnormal
# and near-max variances
EXTREME_MIXTURES = [
    GaussianMixture(weights=[1.0, 2.0], means=[[_MAX, -_MAX, 0.0], [-_MAX, _TINY, _MAX]],
                    variances=[[_TINY, _TINY, 1e-310], [_TINY, 1e-310, _TINY]]),
    GaussianMixture(weights=[1.0, 2.0], means=[[_MAX, -_MAX, _TINY], [-_MAX, _MAX, -_TINY]],
                    variances=[[_MAX, _MAX / 8, _MAX], [np.nextafter(_MAX, 0.0), _MAX, 1.0]]),
    GaussianMixture(weights=[1.0, 1e-300, 3.0],
                    means=[[_MAX, 0.0], [-_MAX, -0.0], [_TINY, -_MAX]],
                    variances=[[_TINY, _MAX], [_MAX, _TINY], [1.0, 1e-300]]),
]


UNDERFLOW = {"schedule": {"T": 1000, "beta_start": 0.9, "beta_end": 0.9}}


def test_a_bad_alpha_bar_fails_when_the_schedule_is_built():
    """alpha_bar underflows to 0.0 from t = 324: the config is rejected when
    it is read, before any table is built or step run. So is a schedule built
    by hand with an alpha_bar outside (0, 1] anywhere in it, or with 1.0 at a
    step t >= 1, where sigma would be 0."""
    with pytest.raises(ParameterError, match=r"^alpha_bar must lie in \(0, 1\], got 0.0$"):
        ExperimentConfig.from_dict(UNDERFLOW)
    good = build_schedule("linear", 8, 0.01, 0.1).alpha_bars
    for t in (1, 5, 8):
        for bad in (0.0, np.nan, -1.0, 1.5, 1.0):
            alpha_bars = good.copy()
            alpha_bars[t - 1] = bad
            message = (rf"^alpha_bar at t={t} is 1.0, so sigma would be 0$" if bad == 1.0
                       else rf"^alpha_bar must lie in \(0, 1\], got {bad}$")
            with pytest.raises(ParameterError, match=message):
                NoiseSchedule(alpha_bars)


# beta_start below 2**-53: 1 - beta_start rounds to 1.0, so alpha_bar(1) = 1 and sigma_1 = 0
ZERO_SIGMA = {"schedule": {"beta_start": 1e-17}}
BAD_SCHEDULE_ARGV = [["simulate", "--out", "{tmp}/run"], ["sweep", "--k", "0,5"],
                     ["curve", "--out", "{tmp}/curve.csv"],
                     ["detect", "--series", "{tmp}/series.csv"]]


def assert_exits_1_with_one_json_line(tmp_path, capsys, argv, doc, message):
    """main fails on the config doc, detect too, with one JSON line on stderr
    and no output written."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    (tmp_path / "series.csv").write_text("t,rel_mae\n2,0.5\n1,0.4\n")
    code = main([a.format(tmp=tmp_path) for a in argv] + ["--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.splitlines() == [
        json.dumps({"error": "ParameterError", "message": message})]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "series.csv"]


@pytest.mark.parametrize("argv", BAD_SCHEDULE_ARGV)
def test_an_underflowed_alpha_bar_exits_1_with_one_json_line(tmp_path, capsys, argv):
    assert_exits_1_with_one_json_line(tmp_path, capsys, argv, UNDERFLOW,
                                      "alpha_bar must lie in (0, 1], got 0.0")


@pytest.mark.parametrize("argv", BAD_SCHEDULE_ARGV)
def test_a_zero_sigma_exits_1_with_one_json_line(tmp_path, capsys, argv):
    assert_exits_1_with_one_json_line(tmp_path, capsys, argv, ZERO_SIGMA,
                                      "alpha_bar at t=1 is 1.0, so sigma would be 0")


@pytest.mark.parametrize("argv", [["simulate", "--out", "{tmp}/run"],
                                  ["sweep", "--k", "0,5", "--config", "{tmp}/seeds.json"]])
def test_a_command_builds_the_unconditional_table_once(tmp_path, capsys, build_counts, argv):
    """The default config's conditions are singletons, which read only the
    unconditional table: a default simulate, or a sweep over 8 seeds, builds
    it once and builds no per-step noised mixture."""
    (tmp_path / "seeds.json").write_text(json.dumps({"seeds": list(range(8))}))
    assert main([a.format(tmp=tmp_path) for a in argv]) == 0
    capsys.readouterr()
    assert build_counts["_noised_rows"] == [4]
    assert build_counts["noised_mixture"] == []


@pytest.fixture
def draws(monkeypatch):
    """The seed of each engine._draw_latents call."""
    seeds = []

    def counting(plan, seed):
        seeds.append(seed)
        return original(plan, seed)

    original = engine._draw_latents
    monkeypatch.setattr(engine, "_draw_latents", counting)
    return seeds


@pytest.mark.parametrize("variant", [v.value for v in PlanVariant])
def test_a_simulate_draws_each_seed_once(tmp_path, capsys, draws, variant):
    """The plan's store and its serial baseline's read one draw per seed: a
    4-device batch_level plan's pairs run seeds 3 and 4, the baseline 3."""
    (tmp_path / "cfg.json").write_text(json.dumps({"devices": 4, "seeds": [3]}))
    assert main(["simulate", "--config", str(tmp_path / "cfg.json"), "--variant", variant,
                 "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert draws == ([3, 4] if variant == "batch_level" else [3])


def test_a_sweep_draws_each_seed_once(tmp_path, capsys, draws):
    (tmp_path / "seeds.json").write_text(json.dumps({"seeds": list(range(8))}))
    assert main(["sweep", "--k", "0,5,10", "--config", str(tmp_path / "seeds.json")]) == 0
    capsys.readouterr()
    assert draws == list(range(8))


def test_initial_latents_are_kept_per_seed_conditions_and_schedule(draws):
    """The mixture keeps one slot of draws: the last store's, read-only, with
    the bits of fresh ones, next to the conditions tuple and schedule key they
    were drawn for. A store of an equal schedule built anew reads the kept
    draws of its seeds, draws the rest, and keeps its own in their place;
    another conditions tuple, or a schedule whose table is a prefix of this
    one's (a shorter T), draws anew and replaces the slot."""
    cfg = ExperimentConfig.from_dict({"condition_batch": 6})
    plan = cfg.to_plan(variant=PlanVariant.SERIAL)
    x = _initial_latents(plan, (2, 5))
    assert draws == [2, 5]
    assert [a.tobytes() for a in x] == [_draw_latents(plan, s).tobytes() for s in (2, 5)]
    memo = plan.mixture._memo
    batch, kept = memo[("latents",)]
    assert batch == (plan.conditions, plan.schedule._key)
    assert list(kept) == [2, 5] and not any(a.flags.writeable for a in kept.values())
    draws.clear()
    same = dataclasses.replace(plan, schedule=build_schedule(**DEFAULT_SCHEDULE))
    y = _initial_latents(same, (7, 2))
    assert draws == [7] and y[1].tobytes() == x[0].tobytes()
    assert list(memo[("latents",)][1]) == [7, 2] and memo[("latents",)][1][2] is kept[2]
    _initial_latents(plan, (5,))            # no longer kept: drawn again
    assert draws == [7, 5] and list(memo[("latents",)][1]) == [5]
    draws.clear()
    shorter = NoiseSchedule(plan.schedule.alpha_bars[:-1])
    for other in (dataclasses.replace(plan, conditions=plan.conditions[:5]),
                  dataclasses.replace(plan, schedule=shorter), plan):
        _initial_latents(other, (5,))
    assert draws == [5, 5, 5]
    assert [k for k in memo if k[0] == "latents"] == [("latents",)]


def test_new_seeds_replace_the_kept_draws():
    """2000 serial runs with new seeds on one config leave the mixture with
    the last run's draw alone, not one draw per seed it ever ran."""
    cfg = ExperimentConfig.from_dict({"schedule": {"T": 1}, "condition_batch": 1})
    for seed in range(2000):
        run_plan(cfg.to_plan(seed=seed, variant=PlanVariant.SERIAL))
    kept = [entry for key, entry in cfg.mixture._memo.items() if key[0] == "latents"]
    assert len(kept) == 1 and list(kept[0][1]) == [1999]


def test_no_run_keeps_a_conditional_mixture(build_counts):
    """A multi-index subset's table is built from its conditional mixture,
    which nothing keeps: after curve_rows (whose score ratio reads a table
    per subset), and after a run of every variant, the memo holds only what
    is compiled from the mixture (its noised tables and samplers) and the
    one slot of draws, and each table built one conditional mixture."""
    cfg = ExperimentConfig.from_dict({"conditions": [[0, 1], [2]]})
    curve_rows(cfg)
    assert {key[0] for key in cfg.mixture._memo} == {"noised", "sampler"}
    for variant in PlanVariant:
        run_plan(cfg.to_plan(variant=variant))
    assert {key[0] for key in cfg.mixture._memo} == {"noised", "sampler", "latents"}
    assert sorted(build_counts["conditional"]) == [(0, 1), (2,)]


def test_validation_survives_the_cache():
    gm = random_mixture(seed=4, K=3)
    sched = SCHEDULES[0]
    x = np.zeros((3, D))
    eps_prediction(gm, Condition((1,)), sched, x, 5)
    eps_prediction(gm, None, sched, x, 5)
    for _ in range(2):      # a failed build stores nothing, so it raises again
        with pytest.raises(ParameterError):
            eps_prediction(gm, Condition((3,)), sched, x, 5)
        with pytest.raises(ParameterError):
            eps_prediction(gm, Condition((0, 5)), sched, x, 5)
        with pytest.raises(ParameterError):
            sample_x0(gm, Condition((4,)), np.random.default_rng(0), 1)
    bad = x.copy()
    bad[1, 2] = np.nan
    for cond in (Condition((1,)), None):
        with pytest.raises(NumericError):
            eps_prediction(gm, cond, sched, bad, 5)
        with pytest.raises(NumericError):
            eps_prediction(gm, cond, sched, np.full(D, np.inf), 5)
        with pytest.raises(ShapeError):
            eps_prediction(gm, cond, sched, np.zeros((3, D + 1)), 5)


def test_plan_condition_groups_are_read_only():
    cfg = ExperimentConfig.from_dict({"condition_batch": 10})
    plan = cfg.to_plan(variant=PlanVariant.HYBRID)
    groups = _condition_rows(plan.mixture, plan.conditions).groups
    assert [c.indices for c, _ in groups] == [(0,), (1,), (2,), (3,)]
    assert [rows.tolist() for _, rows in groups] == [[0, 4, 8], [1, 5, 9], [2, 6], [3, 7]]
    for _, rows in groups:
        with pytest.raises(ValueError):
            rows[0] = 1


def test_plans_of_one_config_share_their_condition_rows(monkeypatch):
    """The row layout is built once per unbound plan, and every plan bound
    to a store takes its template plan's: a sweep's plans all read the same
    read-only arrays, and two unbound plans read equal ones."""
    import hybridpar.mixture as mixture_mod
    cfg = ExperimentConfig.from_dict({"condition_batch": 10,
                                      "conditions": [[0], [1, 2], [3]]})
    built = []
    original = mixture_mod.ConditionRows

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(mixture_mod, "ConditionRows", counting)
    template = cfg.to_plan(seed=1, variant=PlanVariant.HYBRID, k=0)
    path = engine.ExactPath((1, 2), template)
    plans = (cfg.to_plan(seed=1, variant=PlanVariant.SERIAL, exact_path=path),
             cfg.to_plan(seed=2, variant=PlanVariant.HYBRID, k=3, exact_path=path))
    assert len(built) == 1
    a = template._rows
    for plan in plans:
        assert plan._rows is a
    for arr in (*a.singletons, *(r for _, r in a.groups)):
        assert not arr.flags.writeable
    own = cfg.to_plan(seed=2, variant=PlanVariant.HYBRID, k=3)._rows
    assert len(built) == 2 and own is not a
    assert all(np.array_equal(x, y) for x, y in zip(own.singletons, a.singletons))
    assert [(c, r.tolist()) for c, r in own.groups] == [(c, r.tolist()) for c, r in a.groups]
    assert [c for c, _ in own.multi_groups] == [c for c, _ in a.multi_groups]


@pytest.fixture
def layouts(monkeypatch):
    """Each layout mixture._condition_rows returns, called through any
    module that imports it, and each plan bound to a store (ExactPath.bind)."""
    found = {"rows": [], "bound": []}
    lookup, bind = mixture_mod._condition_rows, engine.ExactPath.bind

    def counting(gm, conditions):
        found["rows"].append(lookup(gm, conditions))
        return found["rows"][-1]

    def binding(path, plan):
        found["bound"].append(plan)
        return bind(path, plan)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("hybridpar") and \
                getattr(module, "_condition_rows", None) is lookup:
            monkeypatch.setattr(module, "_condition_rows", counting)
    monkeypatch.setattr(engine.ExactPath, "bind", binding)
    return found


@pytest.mark.parametrize("body, argv, lookups, bound", [
    ({"seeds": [0, 1]}, ["sweep", "--k", "0"], 1, 4),
    ({"seeds": list(range(8))}, ["sweep", "--k", "0,5,10,20,30"], 1, 48),
    ({"variant": "hybrid"}, ["simulate"], 2, 0),
    ({"variant": "batch_level", "devices": 8}, ["simulate"], 2, 4),
    ({}, ["curve"], 1, 0),
], ids=["sweep-2-seeds", "sweep-8-seeds", "hybrid", "batch_level-8", "curve"])
def test_a_command_looks_its_layout_up_once_per_unbound_plan(tmp_path, capsys, layouts,
                                                             body, argv, lookups, bound):
    """An unbound plan builds its condition layout on construction; a plan
    bound to a store takes its template plan's, so a sweep builds it once
    (for its store's template) whatever its seeds and k list, a simulate
    once for its plan and once for its serial baseline, and curve once."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    out = str(tmp_path / ("out.csv" if argv[0] != "simulate" else "run"))
    assert main([*argv, "--config", str(path), "--out", out]) == 0
    capsys.readouterr()
    assert len(layouts["rows"]) == lookups
    assert len(layouts["bound"]) == bound
    for plan in layouts["bound"]:
        assert plan._rows is plan.exact_path._template._rows
        assert any(plan._rows is rows for rows in layouts["rows"])


def test_the_memo_keeps_no_batch_but_one_slot_of_draws():
    """Runs over 500 distinct 64-condition batches, then over 50 schedules,
    on one mixture leave one "latents" slot (the last run's batch, schedule
    and draw) and no layout: the memo grows with the mixture's subsets and
    schedules, never with the batches it served."""
    cfg = ExperimentConfig.from_dict({"schedule": {"T": 1}, "mixture": {
        "weights": [1, 1], "means": [[0, 0], [1, 1]], "variances": [[1, 1], [1, 1]]}})
    base = cfg.to_plan(variant=PlanVariant.SERIAL)
    for n in range(500):
        conditions = tuple(Condition((int(bit),)) for bit in f"{n:064b}")
        plan = dataclasses.replace(base, conditions=conditions)
        run_plan(plan)
    memo = cfg.mixture._memo
    assert {key[0] for key in memo} == {"noised", "sampler", "latents"}
    assert memo[("latents",)][0] == (plan.conditions, base.schedule._key)
    assert list(memo[("latents",)][1]) == [base.seed]
    for n in range(50):
        schedule = build_schedule("linear", 1, 1e-4, 0.02 + 1e-4 * n)
        run_plan(dataclasses.replace(base, schedule=schedule))
    assert [key for key in memo if key[0] == "latents"] == [("latents",)]
    assert memo[("latents",)][0] == (base.conditions, schedule._key)


@pytest.fixture
def condition_hashes(monkeypatch):
    """The number of Condition.__hash__ calls."""
    calls = []
    original = Condition.__hash__

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Condition, "__hash__", counting)
    return calls


@pytest.mark.parametrize("body, argv, drawn", [
    ({"seeds": list(range(8))}, ["sweep", "--k", "0,5,10,20,30"], 8),
    ({"variant": "hybrid"}, ["simulate"], 1),
    ({"variant": "batch_level", "devices": 4}, ["simulate"], 2),
], ids=["sweep-8-seeds", "hybrid", "batch_level-4"])
def test_a_command_hashes_no_condition(tmp_path, capsys, condition_hashes, draws,
                                       body, argv, drawn):
    """No memo key holds a conditions tuple, so a command hashes no
    Condition, and its stores still draw each seed once."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    out = str(tmp_path / ("out.csv" if argv[0] != "simulate" else "run"))
    assert main([*argv, "--config", str(path), "--out", out]) == 0
    capsys.readouterr()
    assert len(condition_hashes) == 0
    assert len(draws) == drawn
