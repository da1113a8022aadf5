"""End-to-end acceptance gate.

Each test is one numbered criterion with its stated tolerance and wall-clock
budget, so `pytest -v` prints a single pass/fail line per criterion:

  01  measured discrepancy equals the score-based prediction (rel 1e-10)
  02  analytic scores match finite differences of the log density (1e-5)
  03  default testbed discrepancy curve is U-shaped with usable contrast
  04  switch detection equals an independent brute-force scan, tau1 <= cap
  05  preset latencies and speedups land within 20% of the reference points
  06  widening the pipelined window trades latency against fidelity monotonically
  07  empty-window plans reproduce the serial trajectory bit for bit, 32 seeds
  08  communication accounting matches the closed form and beats always-pipelined
  09  slope false-alarm rate stays below the concentration bound (MC, 1e5 trials)
  10  device-count aggregation: N=2 layer-wise is hybrid; pairs double throughput
"""
import math
import time

import numpy as np
from test_exact_path import on_its_store

from hybridpar.config import ExperimentConfig, PRESETS
from hybridpar.engine import PlanVariant, run_plan, run_serial
from hybridpar.metrics import compare_runs
from hybridpar.mixture import (Condition, GaussianMixture, eps_prediction,
                               rel_mae, score, score_ratio_estimate)
from hybridpar.monitor import (SlopeNoiseModel, SwitchConfig,
                               hoeffding_false_alarm, replay_series)
from hybridpar.schedules import build_schedule
from hybridpar.cli import curve_rows

C = PRESETS["sdxl-like"]["branch_step_cost"]


def random_mixture(rng, K=None, d=None) -> GaussianMixture:
    K = K or int(rng.integers(2, 6))
    d = d or int(rng.integers(1, 6))
    return GaussianMixture(weights=rng.uniform(0.2, 2.0, K),
                           means=rng.uniform(-4.0, 4.0, (K, d)),
                           variances=rng.uniform(0.1, 2.0, (K, d)))


def test_criterion_01_discrepancy_identity():
    """rel_mae of the two branch outputs equals the score-ratio prediction to
    1e-10 relative, over 120 random mixtures, subsets, points, and steps."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(120):
        gm = random_mixture(rng)
        subset_size = int(rng.integers(1, gm.n_components))
        cond = Condition(tuple(rng.choice(gm.n_components, subset_size,
                                          replace=False)))
        sched = build_schedule("linear", int(rng.integers(2, 60)),
                               0.005, float(rng.uniform(0.05, 0.2)))
        t = int(rng.integers(1, sched.T + 1))
        x = rng.standard_normal((int(rng.integers(1, 8)), gm.dim)) * 2.0
        eps_c = eps_prediction(gm, cond, sched, x, t)
        eps_u = eps_prediction(gm, None, sched, x, t)
        measured = rel_mae(eps_c, eps_u)
        predicted = score_ratio_estimate(gm, ((cond, slice(None)),), sched, x, t)
        # abs_tol covers subsets whose discrepancy itself sits at rounding
        # level, where both sides are pure cancellation noise
        assert math.isclose(measured, predicted, rel_tol=1e-10, abs_tol=1e-12)
    assert time.perf_counter() - start < 5.0


def test_criterion_02_score_finite_differences():
    """Analytic score against central differences of the log density,
    h = 1e-5, 100 random cases, absolute error below 1e-5."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    h = 1e-5
    for _ in range(100):
        gm = random_mixture(rng)
        x = rng.uniform(-5.0, 5.0, gm.dim)
        s = score(gm, x).score
        for j in range(gm.dim):
            ep = x.copy(); ep[j] += h
            em = x.copy(); em[j] -= h
            fd = (score(gm, ep).log_density - score(gm, em).log_density) / (2 * h)
            assert abs(fd - s[j]) < 1e-5
    assert time.perf_counter() - start < 5.0


def test_criterion_03_default_curve_contrast():
    """Default testbed: the discrepancy curve dips and recovers, with the
    first step at least 1.5x the minimum and the last at least 1.2x."""
    start = time.perf_counter()
    rows = curve_rows(ExperimentConfig.from_dict({}))
    values = [m for _, m, _, _, _ in rows]
    m_min = min(values)
    assert 0 < values.index(m_min) < len(values) - 1    # interior dip
    assert values[0] / m_min >= 1.5
    assert values[-1] / m_min >= 1.2
    assert time.perf_counter() - start < 10.0


def test_criterion_04_detection_matches_brute_force():
    """Controller replay against an independent scan of the slope rule over
    50 randomized U-curve families; tau1 always within the cap."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    T = 50
    for _ in range(50):
        amp = float(rng.uniform(0.005, 0.05))
        t0 = float(rng.uniform(10.0, 40.0))
        floor = float(rng.uniform(0.01, 0.2))
        pairs = [(t, amp * (t - t0) ** 2 / t0 ** 2 + floor)
                 for t in range(T, 0, -1)]
        cfg = SwitchConfig(L=int(rng.integers(1, 16)),
                           g_slope=float(rng.uniform(1e-5, 1e-3)),
                           tau_cap=int(rng.integers(1, T + 1)),
                           k=int(rng.integers(0, 8)))

        seen = {}
        expected = None
        for s, (t, m) in enumerate(pairs, start=1):
            seen[t] = m
            if expected is None:
                if t + cfg.L in seen:
                    g = (seen[t] - seen[t + cfg.L]) / cfg.L
                    if 0.0 <= g < cfg.g_slope:
                        expected = min(s, cfg.tau_cap)
                if expected is None and s >= cfg.tau_cap:
                    expected = cfg.tau_cap

        state, _ = replay_series(pairs, cfg)
        assert state.tau1 == expected
        assert state.tau1 <= cfg.tau_cap
        assert state.tau2 == state.tau1 + cfg.k
    assert time.perf_counter() - start < 2.0


def test_criterion_05_preset_latency_and_speedup_bands():
    """sdxl-like preset lands within 20% of the reference operating points:
    serial 16.49 s / 1.0x, partitioned 9.24 s / 1.78x, hybrid 7.12 s / 2.31x."""
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict({})
    serial = run_serial(cfg.to_plan(variant=PlanVariant.SERIAL))
    targets = {
        PlanVariant.SERIAL: (16.49, 1.0),
        PlanVariant.FULL_CONDITION_PARTITION: (9.24, 1.78),
        PlanVariant.HYBRID: (7.12, 2.31),
    }
    for variant, (lat_ref, spd_ref) in targets.items():
        res = run_plan(cfg.to_plan(variant=variant))
        m = compare_runs(res, serial)
        assert abs(m.latency_s / lat_ref - 1.0) <= 0.20
        assert abs(m.speedup / spd_ref - 1.0) <= 0.20
    assert time.perf_counter() - start < 5.0


def test_criterion_06_window_width_tradeoff():
    """Across 32 seeds, widening the window k in {5, 10, 20, 30} strictly
    lowers mean latency while mean fidelity error never improves."""
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict({})
    ks = (5, 10, 20, 30)
    lat = {k: [] for k in ks}
    fid = {k: [] for k in ks}
    for seed in cfg.seeds:
        serial = run_serial(cfg.to_plan(seed=seed, variant=PlanVariant.SERIAL))
        for k in ks:
            res = run_plan(cfg.to_plan(seed=seed, variant=PlanVariant.HYBRID, k=k))
            lat[k].append(res.latency_s)
            fid[k].append(compare_runs(res, serial).fidelity_l1)
    mean_lat = [float(np.mean(lat[k])) for k in ks]
    mean_fid = [float(np.mean(fid[k])) for k in ks]
    assert all(b < a for a, b in zip(mean_lat, mean_lat[1:]))
    assert all(b >= a for a, b in zip(mean_fid, mean_fid[1:]))
    assert mean_fid[0] > 0.0
    assert time.perf_counter() - start < 60.0


def test_criterion_07_empty_window_bit_determinism():
    """For every seed 0..31, condition partitioning and a k = 0 hybrid run
    produce the serial latents bit for bit."""
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict({})
    for seed in cfg.seeds:
        serial = run_serial(cfg.to_plan(seed=seed, variant=PlanVariant.SERIAL))
        fcp = run_plan(cfg.to_plan(seed=seed,
                                   variant=PlanVariant.FULL_CONDITION_PARTITION))
        hy0 = run_plan(cfg.to_plan(seed=seed, variant=PlanVariant.HYBRID, k=0))
        assert np.array_equal(serial.x0, fcp.x0)
        assert np.array_equal(serial.x0, hy0.x0)
    assert time.perf_counter() - start < 30.0


def test_criterion_08_comm_accounting():
    """Hybrid message bytes equal the closed form (two latents per measured
    step, one activation per pipelined step) and undercut a plan that
    pipelines every step."""
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict({})
    res = run_plan(cfg.to_plan(variant=PlanVariant.HYBRID))
    T, k, n_dev = 50, 5, 2
    latent, act = 4096, 16384
    expected = (T - k) * 2 * latent + k * (n_dev - 1) * act
    assert res.comm_bytes == expected == 450560
    always_pipelined = T * (n_dev - 1) * act
    assert res.comm_bytes < always_pipelined
    assert time.perf_counter() - start < 5.0


def test_criterion_09_false_alarm_bound():
    """Monte Carlo slope statistic under iid bounded noise: the empirical
    exceedance rate never crosses the concentration bound, for window sizes
    4, 12, 30 and a grid of margins, 1e5 trials each."""
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    lo, hi, n = 0.0, 0.4, 100_000
    width = hi - lo
    for L in (4, 12, 30):
        x = rng.uniform(lo, hi, n)
        y = rng.uniform(lo, hi, n)
        g = (x - y) / L
        deltas = [0.25 * width / L, 0.5 * width / L, 0.75 * width / L,
                  1.1 * width * math.sqrt(math.log(2.0) / (2.0 * L))]
        for delta in deltas:
            empirical = float(np.mean(np.abs(g) > delta))
            bound = hoeffding_false_alarm(L, SlopeNoiseModel(delta=delta,
                                                             range_lo=lo,
                                                             range_hi=hi))
            assert empirical <= bound
    assert time.perf_counter() - start < 60.0


def test_criterion_10_device_count_aggregation():
    """N = 2 layer-wise runs are hybrid runs exactly; two hybrid pairs double
    throughput with both samples finishing at the same per-pair latency."""
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict({})
    for seed in (0, 1, 2):
        hy = run_plan(cfg.to_plan(seed=seed, variant=PlanVariant.HYBRID))
        lw = run_plan(ExperimentConfig.from_dict({"devices": 2})
                      .to_plan(seed=seed, variant=PlanVariant.LAYER_WISE))
        assert np.array_equal(hy.x0, lw.x0)
        assert hy.latency_s == lw.latency_s and hy.comm_bytes == lw.comm_bytes

    hy = run_plan(cfg.to_plan(seed=0, variant=PlanVariant.HYBRID))
    batch, pairs = on_its_store(ExperimentConfig.from_dict({"devices": 4})
                                .to_plan(seed=0, variant=PlanVariant.BATCH_LEVEL))
    batch, pairs = run_plan(batch), [run_plan(p) for p in pairs]
    assert len(pairs) == 2
    assert pairs[0].latency_s == pairs[1].latency_s
    assert batch.latency_s == hy.latency_s
    assert batch.throughput_samples_per_s == 2.0 * hy.throughput_samples_per_s
    assert time.perf_counter() - start < 10.0
