"""Execution plans: closed-form timing, trajectory equivalences, comm
accounting, and aggregation across device pairs.

The preset cost model is c = 0.1649 s per branch evaluation and 0.0025 s per
message (infinite bandwidth), so every latency asserted here has a hand
closed form built from those two constants.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from test_exact_path import on_its_store

from hybridpar.config import ExperimentConfig, PRESETS
from hybridpar.engine import (ExecutionPlan, PlanVariant, _draw_latents, run_plan,
                             run_serial)
from hybridpar.errors import ParameterError, PlanError
from hybridpar.metrics import compare_runs
from hybridpar.mixture import Condition, eps_prediction, rel_mae
from hybridpar.monitor import (DiscrepancySeries, Stage, StageState,
                               SwitchConfig, stage_at, update_controller)
from hybridpar.plan import _DEVICES, _STAGED
from hybridpar.schedules import GuidanceParams, cfg_combine, ddim_step
from hybridpar.trace import DeviceSpec, LinkSpec

C = PRESETS["sdxl-like"]["branch_step_cost"]   # 0.1649
MSG = 0.0025                                   # per-message link time


def preset_plan(variant: str, seed: int = 0, **over) -> ExecutionPlan:
    raw = {"variant": variant, "seeds": [seed], **over}
    return ExperimentConfig.from_dict(raw).to_plan()


def rel_close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * abs(b)


# serial baseline ----------------------------------------------------------------

def test_serial_reference_latency():
    res = run_serial(preset_plan("serial"))
    assert rel_close(res.latency_s, 16.49)
    assert res.comm_bytes == 0
    assert res.tau1 is None and res.tau2 is None
    assert res.throughput_samples_per_s == 1.0 / res.latency_s
    assert len(res.series) == 50


def test_serial_single_step():
    res = run_serial(preset_plan("serial", schedule={"T": 1}, condition_batch=4))
    assert rel_close(res.latency_s, 2 * C)


def test_serial_deterministic():
    a = run_serial(preset_plan("serial", seed=7, condition_batch=8))
    b = run_serial(preset_plan("serial", seed=7, condition_batch=8))
    c = run_serial(preset_plan("serial", seed=8, condition_batch=8))
    assert np.array_equal(a.x0, b.x0)
    assert not np.array_equal(a.x0, c.x0)


@pytest.mark.parametrize("variant", ["full_condition_partition", "hybrid", "layer_wise",
                                     "batch_level"])
def test_run_serial_rejects_other_variants(variant):
    with pytest.raises(PlanError, match="run_serial"):
        run_serial(preset_plan(variant))


# full condition partitioning ------------------------------------------------------

def test_fcp_zero_link_halves_latency():
    plan = preset_plan("full_condition_partition",
                       link={"base_latency_s": 0.0})
    res = run_plan(plan)
    assert rel_close(res.latency_s, 50 * C)    # 8.245
    assert compare_runs(res, run_serial(preset_plan("serial"))).speedup == 2.0


def test_fcp_default_link_closed_form():
    res = run_plan(preset_plan("full_condition_partition"))
    assert rel_close(res.latency_s, 50 * (C + 2 * MSG))   # 8.495
    assert res.comm_bytes == 100 * 4096        # two latent messages per step


def test_fcp_calibrated_link_hits_reference_point():
    # per-step overhead of 0.0199 s puts the makespan at exactly 9.24 s
    res = run_plan(preset_plan("full_condition_partition",
                               link={"base_latency_s": 0.00995}))
    assert rel_close(res.latency_s, 9.24)
    assert round(compare_runs(res, run_serial(preset_plan("serial"))).speedup, 2) == 1.78


def test_fcp_trajectory_matches_serial():
    serial = run_plan(preset_plan("serial", seed=3))
    fcp = run_plan(preset_plan("full_condition_partition", seed=3))
    assert np.array_equal(serial.x0, fcp.x0)
    assert serial.series == fcp.series


# hybrid ----------------------------------------------------------------------------

def test_hybrid_preset_closed_form():
    """Cap fires at step 15, window spans steps 16..20, and the makespan
    decomposes into 48 branch evaluations and 95 messages."""
    res = run_plan(preset_plan("hybrid"))
    assert res.tau1 == 15 and res.tau2 == 20
    assert rel_close(res.latency_s, 48 * C + 95 * MSG)    # 8.1527
    # 45 measured steps move two latents each; 5 pipelined steps one activation
    assert res.comm_bytes == 90 * 4096 + 5 * 16384        # 450560
    ts = [t for t, _ in res.series]
    assert ts == list(range(50, 35, -1)) + list(range(30, 0, -1))


def test_hybrid_empty_window_reproduces_serial():
    serial = run_plan(preset_plan("serial", seed=5))
    res = run_plan(preset_plan("hybrid", seed=5, switch={"k": 0}))
    assert res.tau1 == 15 and res.tau2 == 15
    assert np.array_equal(res.x0, serial.x0)


def test_hybrid_trajectory_bitwise_reference():
    """Tiny staged run recomputed from public pieces, including the
    stale-input blend, must match the engine bit for bit."""
    plan = preset_plan("hybrid", seed=2, condition_batch=4,
                       schedule={"T": 10},
                       switch={"L": 2, "tau_cap": 3, "k": 4})
    res = run_plan(plan)

    groups: dict[tuple[int, ...], list[int]] = {}
    for i, cond in enumerate(plan.conditions):
        groups.setdefault(cond.indices, []).append(i)

    def branch_c(x, t):
        out = np.empty_like(x)
        for idx, rows in groups.items():
            out[np.asarray(rows)] = eps_prediction(
                plan.mixture, Condition(idx), plan.schedule, x[np.asarray(rows)], t)
        return out

    x = _draw_latents(plan, plan.seed)
    series = DiscrepancySeries()
    ctrl = StageState()
    history: list[np.ndarray] = []
    for s in range(1, 11):
        t = 11 - s
        history.insert(0, x)
        del history[2:]
        if ctrl.tau1 is not None:
            update_controller(ctrl, series, t, plan.switch)
        if stage_at(ctrl.steps_done, ctrl.tau1, ctrl.tau2) is Stage.PARALLELISM:
            est = np.zeros_like(x)
            for d, f in enumerate(plan.segment_fractions):
                est += f * branch_c(history[min(d, len(history) - 1)], t)
            x = ddim_step(x, t, est, plan.schedule)
        else:
            eps_c = branch_c(x, t)
            eps_u = eps_prediction(plan.mixture, None, plan.schedule, x, t)
            series.record(t, rel_mae(eps_c, eps_u))
            if ctrl.steps_done == s - 1 and ctrl.tau1 is None:
                update_controller(ctrl, series, t, plan.switch)
            x = ddim_step(x, t, cfg_combine(eps_c, eps_u, plan.guidance), plan.schedule)

    assert ctrl.tau1 == res.tau1 == 3
    assert np.array_equal(res.x0, x)


# layer-wise -------------------------------------------------------------------------

def test_layer_wise_two_devices_matches_hybrid():
    hy = run_plan(preset_plan("hybrid", seed=4))
    lw = run_plan(preset_plan("layer_wise", seed=4, devices=2))
    assert np.array_equal(hy.x0, lw.x0)
    assert hy.latency_s == lw.latency_s
    assert hy.comm_bytes == lw.comm_bytes


def test_layer_wise_four_devices_closed_form():
    """15 measured + fill + 4 steady + 30 measured with quarter segments:
    47 branch-equivalents, 89 latent-message times, 7 activation hops."""
    res = run_plan(preset_plan("layer_wise", devices=4))
    assert res.tau1 == 15 and res.tau2 == 20
    assert rel_close(res.latency_s, 47 * C + 96 * MSG)    # 7.9903
    assert res.comm_bytes == 90 * 4096 + 15 * 16384


def test_layer_wise_zero_link_steady_delta():
    """With free links a steady pipelined step on 4 devices advances the
    clock by exactly a quarter branch evaluation."""
    res = run_plan(preset_plan("layer_wise", devices=4,
                               link={"base_latency_s": 0.0}))
    T, k = 50, 5
    assert rel_close(res.latency_s, (T - k) * C + C + (k - 1) * C / 4)
    seg0 = sorted((b.start, b.end) for b in res.trace.busy
                  if b.label == "segment_0" and b.device == "dev0")
    assert len(seg0) == k
    for start, end in seg0:
        assert rel_close(end - start, C / 4)
    for (s0, _), (s1, _) in zip(seg0[1:], seg0[2:]):
        assert rel_close(s1 - s0, C / 4)


def test_layer_wise_needs_two_devices():
    plan = preset_plan("layer_wise", devices=2)
    with pytest.raises(PlanError):
        replace(plan, devices=plan.devices[:1], segment_fractions=None)


# batch-level -------------------------------------------------------------------------

def test_batch_level_two_pairs():
    batch, pairs = on_its_store(preset_plan("batch_level", seed=10, devices=4))
    res = run_plan(batch)
    hy0 = run_plan(preset_plan("hybrid", seed=10))
    hy1 = run_plan(preset_plan("hybrid", seed=11))
    assert [p.seed for p in pairs] == [10, 11]
    assert np.array_equal(run_plan(pairs[0]).x0, hy0.x0)
    assert np.array_equal(run_plan(pairs[1]).x0, hy1.x0)
    assert np.array_equal(res.x0, hy0.x0)
    assert res.latency_s == max(hy0.latency_s, hy1.latency_s)
    assert res.comm_bytes == hy0.comm_bytes + hy1.comm_bytes
    assert res.throughput_samples_per_s == 2.0 / res.latency_s


def test_batch_level_slow_pair_dominates():
    batch, pairs = on_its_store(preset_plan("batch_level", devices=[C, C, 2 * C, 2 * C]))
    res = run_plan(batch)
    fast, slow = (run_plan(p) for p in pairs)
    assert slow.latency_s > fast.latency_s
    assert res.latency_s == slow.latency_s


def test_batch_level_single_pair_is_hybrid():
    res = run_plan(preset_plan("batch_level", seed=6, devices=2))
    hy = run_plan(preset_plan("hybrid", seed=6))
    assert np.array_equal(res.x0, hy.x0)
    assert res.latency_s == hy.latency_s


def test_batch_level_odd_device_count_rejected():
    with pytest.raises(PlanError):
        preset_plan("batch_level", devices=3)


# plan validation ----------------------------------------------------------------------

def test_plan_rejects_bad_switch_geometry():
    with pytest.raises(PlanError):
        preset_plan("hybrid", switch={"k": 40})            # k >= T - tau_cap
    with pytest.raises(PlanError):
        preset_plan("hybrid", switch={"L": 50})            # window >= T
    with pytest.raises(PlanError):
        preset_plan("hybrid", switch={"tau_cap": 60})      # cap beyond T
    with pytest.raises(ParameterError, match="tau_cap"):
        preset_plan("hybrid", switch={"tau_cap": 0})       # no measured step


def test_plan_rejects_bad_fractions():
    with pytest.raises(PlanError):
        preset_plan("layer_wise", devices=4,
                    segment_fractions=[0.5, 0.5])          # wrong length
    with pytest.raises(PlanError):
        preset_plan("layer_wise", devices=2,
                    segment_fractions=[0.9, 0.3])          # does not sum to 1


def test_plan_rejects_bad_scalars():
    plan = preset_plan("hybrid")
    with pytest.raises(PlanError):
        replace(plan, seed=-1)
    with pytest.raises(PlanError):
        replace(plan, cfg_batching_factor=2.5)


@pytest.mark.parametrize("change, message", [
    ({"conditions": ()}, "^plan needs at least one condition$"),
    ({"switch": None}, "^staged plan needs a switch config$"),
], ids=["no-conditions", "staged-without-switch"])
def test_plan_rejects_what_to_plan_never_builds(change, message):
    """to_plan gives every plan a condition and every staged plan a switch
    config, so only a plan built directly reaches these checks."""
    with pytest.raises(PlanError, match=message):
        replace(preset_plan("hybrid"), **change)


@pytest.mark.parametrize("cost", [0.0, -C, math.inf, math.nan])
def test_device_cost_must_be_finite_and_positive(cost):
    with pytest.raises(ParameterError, match="^branch_step_cost must be finite and > 0"):
        DeviceSpec("dev0", cost)


def test_plan_rejects_wrong_device_count():
    plan = preset_plan("hybrid")
    with pytest.raises(PlanError):
        ExecutionPlan(variant=PlanVariant.FULL_CONDITION_PARTITION,
                      schedule=plan.schedule, mixture=plan.mixture,
                      conditions=plan.conditions, guidance=plan.guidance,
                      devices=plan.devices + (DeviceSpec("dev2", C),),
                      link=plan.link, seed=0)


# the device counts each variant takes, from 0 to 5: batch_level only even ones
ACCEPTED = {PlanVariant.SERIAL: {1}, PlanVariant.FULL_CONDITION_PARTITION: {2},
            PlanVariant.HYBRID: {2}, PlanVariant.LAYER_WISE: {2, 3, 4, 5},
            PlanVariant.BATCH_LEVEL: {2, 4}}
# the device counts to_plan gives each variant from a 1-device and a 4-device config
FROM_ONE_AND_FOUR = {PlanVariant.SERIAL: (1, 1), PlanVariant.FULL_CONDITION_PARTITION: (2, 2),
                     PlanVariant.HYBRID: (2, 2), PlanVariant.LAYER_WISE: (2, 4),
                     PlanVariant.BATCH_LEVEL: (2, 4)}


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("variant", list(PlanVariant), ids=lambda v: v.value)
def test_plan_takes_exactly_the_device_counts_of_the_table(variant, n):
    fewest, most = _DEVICES[variant]
    in_table = fewest <= n <= (most or n) and (variant is not PlanVariant.BATCH_LEVEL
                                                or n % 2 == 0)
    assert in_table == (n in ACCEPTED[variant])
    base = preset_plan("hybrid")

    def build():
        return ExecutionPlan(variant=variant, schedule=base.schedule, mixture=base.mixture,
                             conditions=base.conditions, guidance=base.guidance,
                             devices=tuple(DeviceSpec(f"dev{i}", C) for i in range(n)),
                             link=base.link, seed=0,
                             switch=base.switch if variant in _STAGED else None)

    if n in ACCEPTED[variant]:
        assert len(build().devices) == n
    else:
        with pytest.raises(PlanError, match="device count"):
            build()


@pytest.mark.parametrize("variant", list(PlanVariant), ids=lambda v: v.value)
def test_to_plan_pads_and_cuts_devices_to_the_table(variant):
    """to_plan pads with clones of device 0 and keeps at most the table's
    most; a config without devices has the variant's fewest."""
    for costs, n in zip(([0.3], [0.3, 0.4, 0.5, 0.6]), FROM_ONE_AND_FOUR[variant]):
        plan = ExperimentConfig.from_dict({"devices": costs}).to_plan(variant=variant)
        assert plan.devices == tuple(DeviceSpec(f"dev{i}", costs[i] if i < len(costs)
                                                else costs[0]) for i in range(n))
    cfg = ExperimentConfig.from_dict({"variant": variant.value})
    assert len(cfg.devices) == len(cfg.to_plan().devices) == _DEVICES[variant][0]


def test_plan_rejects_condition_outside_mixture():
    plan = preset_plan("serial")
    with pytest.raises(PlanError):
        ExecutionPlan(variant=PlanVariant.SERIAL, schedule=plan.schedule,
                      mixture=plan.mixture, conditions=(Condition((9,)),),
                      guidance=plan.guidance, devices=plan.devices,
                      link=plan.link, seed=0)


# orderings and trace hygiene -------------------------------------------------------------

def test_zero_link_latency_ordering():
    """With free links the ordering hybrid < partitioned < serial holds for
    any step cost once the window saves at least one overlapped step."""
    rng = np.random.default_rng(19)
    for _ in range(5):
        cost = float(rng.uniform(0.01, 0.5))
        k = int(rng.integers(2, 8))
        common = dict(condition_batch=4, devices=[cost, cost],
                      schedule={"T": 12},
                      switch={"L": 2, "tau_cap": 3, "k": k},
                      link={"base_latency_s": 0.0})
        serial = run_plan(preset_plan("serial", **common))
        fcp = run_plan(preset_plan("full_condition_partition", **common))
        hy = run_plan(preset_plan("hybrid", **common))
        assert hy.latency_s < fcp.latency_s < serial.latency_s


def test_trace_busy_intervals_never_overlap():
    res = run_plan(preset_plan("hybrid"))
    by_dev: dict[str, list] = {}
    for b in res.trace.busy:
        by_dev.setdefault(b.device, []).append(b)
    assert set(by_dev) == {"dev0", "dev1"}
    for intervals in by_dev.values():
        intervals.sort(key=lambda b: b.start)
        for prev, cur in zip(intervals, intervals[1:]):
            assert cur.start >= prev.end - 1e-12


def test_trace_messages_follow_link_model():
    bw = 1.0e6
    res = run_plan(preset_plan("hybrid",
                               link={"bandwidth_bytes_per_s": bw}))
    assert len(res.trace.messages) == 95
    for m in res.trace.messages:
        assert m.kind in ("latent", "activation")
        assert m.nbytes == (4096 if m.kind == "latent" else 16384)
        assert rel_close(m.arrive - m.depart, MSG + m.nbytes / bw)


def test_initial_latents_shared_across_variants():
    a, b = (_draw_latents(preset_plan(variant, seed=12, condition_batch=8), 12)
            for variant in ("serial", "hybrid"))
    assert np.array_equal(a, b)


def test_run_results_compare_and_hash_by_identity():
    """x0 is an array, so a RunResult is equal only to itself, as the model
    objects are: two runs compare without raising, and hash is defined."""
    plan = preset_plan("hybrid")
    a, b = run_plan(plan), run_plan(plan)
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_serial_reference_scales_with_batching_factor():
    full = preset_plan("serial")
    lean = preset_plan("serial", cfg_batching_factor=1.0)
    assert rel_close(run_serial(full).latency_s, 16.49)
    assert rel_close(run_serial(lean).latency_s, 8.245)
