"""The shared store: runs that read a set of seeds' stacked trajectories and
windows must equal runs that step one seed on their own, bit for bit and
event for event.

ExactPath steps all of its seeds as one (S, B, d) batch: the all-exact
trajectories, and every pipelined window that seeds with the same switch
step share. These tests compare stacked runs, in several orders, against
unshared runs and against a per-seed loop over the public kernels; check the
binding, read-only and error rules; count the stacked steps a sweep takes,
so a silent loss of stacking or sharing fails here; and bound what a store
keeps.
"""
import io
import itertools
import json
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

import hybridpar.cli as cli
import hybridpar.engine as engine
from hybridpar.cli import SWEEP_HEADER, main
from hybridpar.config import ExperimentConfig
from hybridpar.engine import (ExactPath, PlanVariant, _draw_latents, run_plan,
                             run_serial)
from hybridpar.errors import NumericError, ParameterError, PlanError
from hybridpar.metrics import compare_runs
from hybridpar.mixture import Condition, _rel_mae_blocks, eps_prediction, rel_mae
from hybridpar.monitor import (DiscrepancySeries, Stage, StageState, replay_series,
                               stage_at, update_controller)
from hybridpar.schedules import GuidanceParams, build_schedule, cfg_combine, ddim_step

MULTI = [[0], [1, 2], [3], [0, 1, 2, 3]]

# (config, seeds, k values). sd3-like tau1 at batch 16: seeds 2, 0, 3, 10, 1
# switch at 31, 40, 29, 28, 40 (two of them forced by the cap, the rest
# detected online); with MULTI, seeds 1, 7, 4, 5 switch at 28, 28, 27, 27
CASES = [
    ({"preset": "sdxl-like", "condition_batch": 16, "devices": 4}, (0, 7, 11), (0, 1, 5, 30)),
    ({"preset": "sdxl-like", "condition_batch": 16, "devices": 4,
      "conditions": MULTI}, (3,), (0, 1, 5, 30)),
    ({"preset": "sd3-like", "condition_batch": 16, "devices": 4}, (2, 0, 3, 10, 1), (0, 1, 5)),
    ({"preset": "sd3-like", "condition_batch": 16, "devices": 4,
      "conditions": MULTI}, (1, 7, 4, 5), (0, 1, 5)),
]
CASE_IDS = ["sdxl", "sdxl-multi", "sd3", "sd3-multi"]
STAGED = [("hybrid", 2), ("layer_wise", 2), ("layer_wise", 3), ("layer_wise", 4),
          ("batch_level", 4)]


def widest_store(cfg, seeds):
    """A store for every plan of plans_for: its template is the config's
    widest staged plan, layer_wise on all of its devices, and it holds each
    seed s and s + 1, which a 4-device batch_level plan's second pair runs."""
    held = dict.fromkeys([*seeds, *(s + 1 for s in seeds)])
    return ExactPath(held, cfg.to_plan(variant=PlanVariant.LAYER_WISE))


def pair_plans(batch):
    """The hybrid plan each pair of a batch_level plan runs, on its store:
    pair i runs seed + i on devices 2i and 2i + 1."""
    return [replace(batch, variant=PlanVariant.HYBRID, seed=batch.seed + i,
                    devices=batch.devices[2 * i:2 * i + 2])
            for i in range(len(batch.devices) // 2)]


def on_its_store(batch):
    """A batch_level plan bound to a store of the seeds it reads, and its
    pairs' hybrid plans on that store."""
    batch = replace(batch, exact_path=ExactPath(engine._seeds(batch), batch))
    return batch, pair_plans(batch)


def plans_for(cfg, seeds, ks, path):
    """(seed, name) -> plan for every seed, variant, device count and k, and
    every pair of each batch_level plan, all on one store (or each on its
    own when path is None)."""
    def make(seed, variant, n=None, k=None):
        c = cfg if n is None else replace(cfg, devices=cfg.devices[:n])
        return c.to_plan(seed=seed, variant=PlanVariant(variant), k=k, exact_path=path)

    plans = {}
    for seed in seeds:
        plans[seed, "serial"] = make(seed, "serial")
        plans[seed, "full_condition_partition"] = make(seed, "full_condition_partition")
        for k in ks:
            for variant, n in STAGED:
                name = f"{variant}{n}-k{k}"
                plans[seed, name] = make(seed, variant, n, k)
                if variant == "batch_level":
                    for i, pair in enumerate(pair_plans(plans[seed, name])):
                        plans[seed, f"{name}-pair{i}"] = pair
    return plans


def orders(names):
    """Seed by seed with serial first; reversed (widest windows first, serial
    last); the k = 0 runs first."""
    k0 = [n for n in names if "-k0" in n[1]]
    return [names, names[::-1], k0 + [n for n in names if n not in k0]]


def assert_same_run(a, b):
    assert a.x0.shape == b.x0.shape and a.x0.tobytes() == b.x0.tobytes()
    assert a.series == b.series
    assert (a.tau1, a.tau2) == (b.tau1, b.tau2)
    assert a.latency_s == b.latency_s
    assert a.throughput_samples_per_s == b.throughput_samples_per_s
    assert a.comm_bytes == b.comm_bytes
    assert a.trace.busy == b.trace.busy
    assert a.trace.messages == b.trace.messages


@pytest.mark.parametrize("body, seeds, ks", CASES, ids=CASE_IDS)
def test_shared_runs_equal_unshared_runs_in_any_order(body, seeds, ks):
    cfg = ExperimentConfig.from_dict(body)
    alone = {name: run_plan(plan) for name, plan in plans_for(cfg, seeds, ks, None).items()}
    for order in orders(list(alone)):
        plans = plans_for(cfg, seeds, ks, widest_store(cfg, seeds))
        for name in order:
            assert_same_run(run_plan(plans[name]), alone[name])


def test_sd3_cases_cover_online_detection_and_distinct_switches():
    for body, seeds, _ in CASES[2:]:
        cfg = ExperimentConfig.from_dict(body)
        tau1 = [run_plan(cfg.to_plan(seed=s, variant=PlanVariant.HYBRID, k=1)).tau1
                for s in seeds]
        assert min(tau1) < cfg.switch.tau_cap
        assert 1 < len(set(tau1)) < len(seeds)      # several groups, one shared


def test_eight_seed_store_equals_unshared_runs():
    """All eight seeds switch at step 15 but bind different windows: each
    window is computed once for all eight, and seeds that bind no window
    only read the exact path."""
    cfg = ExperimentConfig.from_dict({"condition_batch": 8, "devices": 4})
    seeds = tuple(range(20, 28))
    staged = [[("hybrid", 5), ("batch_level", 5)], [("layer_wise", 30), ("hybrid", 10)],
              [], [("hybrid", 5)]]
    path = widest_store(cfg, seeds)
    stacked = [(cfg.to_plan(seed=s, variant=PlanVariant(v), k=k, exact_path=path),
                cfg.to_plan(seed=s, variant=PlanVariant(v), k=k))
               for s in seeds
               for v, k in [("serial", None), ("hybrid", 0)] + staged[s % 4]]
    for shared, unshared in stacked:
        assert_same_run(run_plan(shared), run_plan(unshared))
        if shared.variant is PlanVariant.BATCH_LEVEL:
            for a, b in zip(pair_plans(shared), pair_plans(unshared)):
                assert_same_run(run_plan(a), run_plan(b))


# a per-seed reference loop over the public kernels ---------------------------------------

def reference_runs(plan):
    """x0, series and tau1/tau2 of the run of each seed the plan reads (a
    batch_level plan's pair i runs seed + i), stepped seed by seed with
    public eps_prediction (one call per condition subset), rel_mae,
    cfg_combine and ddim_step, with the stale-input window blend."""
    if plan.variant is PlanVariant.BATCH_LEVEL:
        return [reference_runs(pair)[0] for pair in pair_plans(plan)]
    staged = plan.switch is not None
    fractions = plan.segment_fractions if staged else (1.0,)
    groups = {}
    for i, cond in enumerate(plan.conditions):
        groups.setdefault(cond.indices, []).append(i)

    def branch_c(x, t):
        out = np.empty_like(x)
        for idx, rows in groups.items():
            out[rows] = eps_prediction(plan.mixture, Condition(idx), plan.schedule,
                                       x[rows], t)
        return out

    x = _draw_latents(plan, plan.seed)
    series, ctrl, history = DiscrepancySeries(), StageState(), []
    for t in range(plan.schedule.T, 0, -1):
        history.insert(0, x)
        del history[len(fractions):]
        if staged and ctrl.tau1 is not None:
            update_controller(ctrl, series, t, plan.switch)
        if staged and stage_at(ctrl.steps_done, ctrl.tau1, ctrl.tau2) is Stage.PARALLELISM:
            est = np.zeros_like(x)
            for d, f in enumerate(fractions):
                est += f * branch_c(history[min(d, len(history) - 1)], t)
            x = ddim_step(x, t, est, plan.schedule)
        else:
            eps_c = branch_c(x, t)
            eps_u = eps_prediction(plan.mixture, None, plan.schedule, x, t)
            series.record(t, rel_mae(eps_c, eps_u))
            if staged and ctrl.tau1 is None:
                update_controller(ctrl, series, t, plan.switch)
            x = ddim_step(x, t, cfg_combine(eps_c, eps_u, plan.guidance), plan.schedule)
    return [(x, tuple(series._values.items()), ctrl.tau1, ctrl.tau2)]


@pytest.mark.parametrize("body, seeds", [
    ({"preset": "sdxl-like", "condition_batch": 8, "devices": 4}, (5,)),
    ({"preset": "sd3-like", "condition_batch": 16, "devices": 4, "conditions": MULTI},
     (1, 4, 6)),
    ({"preset": "sd3-like", "condition_batch": 8, "devices": 4}, tuple(range(8))),
], ids=["sdxl-S1", "sd3-multi-S3", "sd3-S8"])
def test_stacked_runs_equal_a_per_seed_reference_loop(body, seeds):
    cfg = ExperimentConfig.from_dict(body)
    path = widest_store(cfg, seeds)
    plans = [cfg.to_plan(seed=s, variant=PlanVariant(v), k=k, exact_path=path)
             for s in seeds for v, k in [("full_condition_partition", None),
                                         ("hybrid", 4), ("layer_wise", 7),
                                         ("batch_level", 0)]]
    for plan in plans:
        refs = reference_runs(plan)
        # a batch_level run reports pair 0; pair i is its hybrid plan's run
        runs = [run_plan(plan)]
        if plan.variant is PlanVariant.BATCH_LEVEL:
            runs += [run_plan(pair) for pair in pair_plans(plan)[1:]]
        assert len(runs) == len(refs) == (2 if plan.variant is PlanVariant.BATCH_LEVEL else 1)
        for res, (x0, series, tau1, tau2) in zip(runs, refs):
            assert res.x0.tobytes() == x0.tobytes()
            assert res.series == series
            assert (res.tau1, res.tau2) == (tau1, tau2)


def test_rel_mae_blocks_equal_rel_mae_of_each_block():
    """The stacked kernel, and rel_mae on each block, against the plain
    per-block ratio of L1 sums, bit for bit; the signed difference it also
    returns is eps_c - eps_u, a new array."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        n, B, d = (int(v) for v in rng.integers(1, [12, 80, 12]))
        eps_c = rng.standard_normal((n, B, d)) * 10.0 ** rng.uniform(-3, 3)
        eps_u = rng.standard_normal((n, B, d))
        blocks = list(zip(eps_c, eps_u))
        want = [float(np.abs(c - u).sum() / np.abs(u).sum()) for c, u in blocks]
        m, delta = _rel_mae_blocks(eps_c, eps_u)
        assert m.tolist() == want
        assert delta.tobytes() == (eps_c - eps_u).tobytes()
        assert not np.shares_memory(delta, eps_c) and not np.shares_memory(delta, eps_u)
        assert [rel_mae(c, u) for c, u in blocks] == want


# binding, read-only and error rules ------------------------------------------------------

def held_arrays(obj, seen=None):
    """Every ndarray reachable from obj's attributes, dicts, lists and tuples."""
    seen = {} if seen is None else seen
    if isinstance(obj, np.ndarray):
        seen.setdefault(id(obj), obj)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            held_arrays(key, seen)
            held_arrays(value, seen)
    elif isinstance(obj, (list, tuple, set)):
        for value in obj:
            held_arrays(value, seen)
    elif isinstance(obj, ExactPath):
        held_arrays(vars(obj), seen)
    return list(seen.values())


def test_shared_latents_are_read_only_and_shared():
    cfg = ExperimentConfig.from_dict({"condition_batch": 8})
    path = ExactPath((4, 9), cfg.to_plan(variant=PlanVariant.HYBRID))
    serial_plan = cfg.to_plan(seed=4, variant=PlanVariant.SERIAL, exact_path=path)
    k5 = cfg.to_plan(seed=4, variant=PlanVariant.HYBRID, k=5, exact_path=path)
    serial = run_serial(serial_plan)
    k0 = run_plan(cfg.to_plan(seed=4, variant=PlanVariant.HYBRID, k=0, exact_path=path))
    assert k0.x0 is serial.x0
    first, again = run_plan(k5), run_plan(k5)
    assert first.x0 is again.x0
    for x0 in (serial.x0, first.x0):
        with pytest.raises(ValueError):
            x0[0, 0] = 0.0
    latents = [a for a in held_arrays(path) if a.dtype == float and a.ndim >= 2]
    assert latents and not any(a.flags.writeable for a in latents)
    heads = held_arrays(path._heads)        # the latents k5's pipelined steps reached
    assert len(heads) == 2 and not any(a.flags.writeable for a in heads)
    alone = run_serial(cfg.to_plan(seed=4, variant=PlanVariant.SERIAL))
    assert alone.x0.tobytes() == serial.x0.tobytes()


def test_each_seed_x0_is_a_read_only_view_of_one_stacked_array():
    """A store draws its seeds' initial latents when it is built, as one
    read-only (S, B, d) array, and has taken no step. The exact path's x0
    and a window's x0 are seeds of one (S, B, d) array each, read-only, and
    a second run returns the same object."""
    cfg = ExperimentConfig.from_dict({"condition_batch": 8})
    seeds = (4, 9, 2)
    path = ExactPath(seeds, cfg.to_plan(variant=PlanVariant.HYBRID))
    assert len(path._ms) == 0
    (drawn,) = [a for a in held_arrays(path) if a.dtype == float and a.ndim >= 2]
    want = np.stack([_draw_latents(cfg.to_plan(seed=s), s) for s in seeds])
    assert drawn.shape == (len(seeds), 8, cfg.mixture.dim) and not drawn.flags.writeable
    assert drawn.tobytes() == want.tobytes()
    for k in (0, 5):
        plans = [cfg.to_plan(seed=s, variant=PlanVariant.HYBRID, k=k, exact_path=path)
                 for s in seeds]
        runs = [run_plan(plan) for plan in plans]
        assert len({r.tau1 for r in runs}) == 1     # one window for all seeds
        stacked = runs[0].x0.base
        assert stacked.shape == (len(seeds), 8, cfg.mixture.dim)
        assert not stacked.flags.writeable
        for i, (plan, r) in enumerate(zip(plans, runs)):
            assert r.x0.base is stacked and not r.x0.flags.writeable
            assert r.x0.__array_interface__ == stacked[i].__array_interface__
            assert run_plan(plan).x0 is r.x0


def test_path_rejects_a_plan_of_another_seed_or_model():
    cfg = ExperimentConfig.from_dict({"condition_batch": 4, "schedule": {"T": 12},
                                      "switch": {"L": 2, "tau_cap": 3, "k": 4}})
    path = ExactPath((1,), cfg.to_plan(seed=1, variant=PlanVariant.HYBRID))
    run_serial(cfg.to_plan(seed=1, variant=PlanVariant.SERIAL, exact_path=path))
    other = ExperimentConfig.from_dict({"condition_batch": 4, "schedule": {"T": 12}})
    others = [
        ("seed", cfg),
        ("mixture", replace(cfg, mixture=other.mixture)),
        ("schedule", replace(cfg, schedule=build_schedule("linear", 12, 0.01, 0.12))),
        ("conditions", replace(cfg, conditions=tuple(list(cfg.conditions)))),
        ("guidance", replace(cfg, guidance=GuidanceParams(cfg.guidance.w))),
    ] + [("switch rule", replace(cfg, switch=replace(cfg.switch, **change)))
         for change in ({"L": 3}, {"g_slope": 1e-3}, {"tau_cap": 2})]
    for name, c in others:
        seed = 2 if name == "seed" else 1
        variants = ((PlanVariant.HYBRID, PlanVariant.BATCH_LEVEL) if name == "switch rule"
                    else (PlanVariant.SERIAL, PlanVariant.HYBRID))
        for variant in variants:
            with pytest.raises(PlanError, match=name):
                c.to_plan(seed=seed, variant=variant, exact_path=path)
    # the binding survives the failed attempts
    again = run_serial(cfg.to_plan(seed=1, variant=PlanVariant.SERIAL, exact_path=path))
    alone = run_serial(cfg.to_plan(seed=1, variant=PlanVariant.SERIAL))
    assert_same_run(again, alone)
    # the same rule with another k is the store's rule
    for k in (4, 2, 0):
        plan = cfg.to_plan(seed=1, variant=PlanVariant.HYBRID, k=k, exact_path=path)
        assert_same_run(run_plan(plan), run_plan(replace(plan, exact_path=None)))
    for seeds in ((), (1, 1), (2, 1, 2)):
        with pytest.raises(PlanError):
            ExactPath(seeds, plan)


def test_a_store_runs_only_plans_it_bound():
    """bind is the store's one public method: a plan runs on a store through
    run_plan, and only once building it has bound it to the store (a plan of
    another model or seed fails there), so the store has no run of its own."""
    assert not hasattr(ExactPath, "run")
    assert [name for name in vars(ExactPath) if not name.startswith("_")] == ["bind"]


MODEL_KEYS = {
    "schedule": {"schedule": {"kind": "scaled-linear", "T": 30}},
    "mixture": {"mixture": {"weights": [1, 2, 1], "means": [[0, 0], [1, 1], [2, 0]],
                            "variances": [[1, 1], [0.5, 0.5], [1, 2]]}},
    "conditions": {"conditions": [[0], [1, 2]]},
    "guidance": {"guidance_w": 3.5},
}


@pytest.mark.parametrize("body", [{}, *MODEL_KEYS.values(),
                                  {k: v for body in MODEL_KEYS.values() for k, v in body.items()}],
                         ids=["defaults", *MODEL_KEYS, "every-model-key"])
def test_every_plan_of_a_config_shares_its_model_objects(body):
    """from_dict builds a model object the document sets and leaves the rest
    to the first read; either way every plan the config makes holds the
    config's one object of each, which the oracle memo and bind go by."""
    cfg = ExperimentConfig.from_dict({"condition_batch": 4, "seeds": [0, 1], **body})
    path = ExactPath(cfg.seeds, cfg.to_plan(variant=PlanVariant.HYBRID))
    plans = [cfg.to_plan(seed=seed, variant=variant, k=k, exact_path=shared)
             for shared in (None, path) for seed in cfg.seeds
             for variant, k in ((PlanVariant.SERIAL, None), (PlanVariant.HYBRID, 0),
                                (PlanVariant.HYBRID, 1), (PlanVariant.HYBRID, 5))]
    for name in ("mixture", "schedule", "conditions", "guidance"):
        assert all(getattr(plan, name) is getattr(cfg, name) for plan in plans), name


def test_failed_step_stores_nothing(monkeypatch):
    # at T = 12 the preset's slope window (L = 12) allows no staged plan
    cfg = ExperimentConfig.from_dict({"condition_batch": 4, "schedule": {"T": 12}})
    path = ExactPath((3, 8), cfg.to_plan(variant=PlanVariant.SERIAL))
    plan = cfg.to_plan(seed=3, variant=PlanVariant.SERIAL, exact_path=path)
    original = engine._exact_step
    calls = []

    def failing(stack, x, t):
        calls.append(t)
        if len(calls) == 5:
            raise FloatingPointError("injected")
        return original(stack, x, t)

    monkeypatch.setattr(engine, "_exact_step", failing)
    with pytest.raises(FloatingPointError):
        run_serial(plan)
    assert len(path._ms) == 4
    monkeypatch.setattr(engine, "_exact_step", original)
    assert_same_run(run_serial(plan),
                    run_serial(cfg.to_plan(seed=3, variant=PlanVariant.SERIAL)))


@pytest.mark.parametrize("at_step, value", [(2, 1e308), (9, 1e308), (2, 1e307), (9, 1e307)],
                         ids=["exact-path", "after-window", "exact-path-sum", "after-window-sum"])
def test_guided_overflow_raises_at_its_step_and_stores_nothing(monkeypatch, at_step, value):
    """A branch output that is finite but makes eps_c + w (eps_c - eps_u)
    overflow fails at the step that produced it, as the public cfg_combine
    and ddim_step pair did, and leaves the store as it was. So does one whose
    guided estimate stays finite but whose discrepancy, summed over a seed's
    4 * 8 values, does not (1e307): no series may record it."""
    cfg = ExperimentConfig.from_dict({"condition_batch": 4, "schedule": {"T": 12},
                                      "switch": {"L": 2, "tau_cap": 3, "k": 4}})
    path = ExactPath((3, 8), cfg.to_plan(variant=PlanVariant.HYBRID))
    plan = cfg.to_plan(seed=3, variant=PlanVariant.HYBRID, exact_path=path)
    original = engine._singleton_eps
    steps = []

    def huge(gm, comps, sched, x, t):
        eps = original(gm, comps, sched, x, t)
        steps.append(t)
        return np.full_like(eps, value) if t == 13 - at_step else eps

    guided_max = (1 + cfg.guidance.w) * value
    assert np.isfinite(guided_max) == (value < 1e308) and np.isinf(4 * 8 * value)
    monkeypatch.setattr(engine, "_singleton_eps", huge)
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        run_plan(plan)
    assert steps[-1] == 13 - at_step
    assert len(path._ms) == min(at_step - 1, 3)
    assert path._windows == {}
    monkeypatch.setattr(engine, "_singleton_eps", original)
    assert_same_run(run_plan(plan), run_plan(replace(plan, exact_path=None)))


@pytest.mark.parametrize("window_step", [1, 2, 4], ids=["first", "middle", "last"])
def test_window_step_that_overflows_stores_nothing(monkeypatch, window_step):
    """A pipelined step whose latents overflow fails at that step, and the
    store keeps neither the window's head nor its x0, even when it is the
    window's last step: the window's exact steps never read the latents."""
    cfg = ExperimentConfig.from_dict({"condition_batch": 4, "schedule": {"T": 12},
                                      "switch": {"L": 2, "tau_cap": 3, "k": 4}})
    path = ExactPath((3, 8), cfg.to_plan(variant=PlanVariant.HYBRID))
    plan = cfg.to_plan(seed=3, variant=PlanVariant.HYBRID, exact_path=path)
    want = run_plan(replace(plan, exact_path=None))
    assert want.tau2 - want.tau1 == 4
    original = engine.ddim_step
    bad_t = cfg.schedule.T - want.tau1 - window_step + 1

    def overflowing(x, t, eps, sched):
        out = original(x, t, eps, sched)
        return np.full_like(out, np.inf) if t == bad_t else out

    monkeypatch.setattr(engine, "ddim_step", overflowing)
    with pytest.raises(NumericError, match=rf"^latents at t={bad_t - 1} are not finite$"):
        run_plan(plan)
    assert path._heads == {} and path._windows == {}
    monkeypatch.setattr(engine, "ddim_step", original)
    assert_same_run(run_plan(plan), want)


def test_window_entry_names_the_latents_no_oracle_read(monkeypatch):
    """The latents of the switch step reach no oracle call before a window
    starts from them, so the window's entry check names them and their
    timestep; an exact step that reads them fails in the oracle's own check."""
    cfg = ExperimentConfig.from_dict({"condition_batch": 4, "schedule": {"T": 12},
                                      "switch": {"L": 2, "tau_cap": 3, "k": 4}})
    path = ExactPath((3,), cfg.to_plan(variant=PlanVariant.HYBRID))
    plan = cfg.to_plan(seed=3, variant=PlanVariant.HYBRID, exact_path=path)
    tau1 = run_plan(replace(plan, exact_path=None)).tau1
    original = engine.ddim_step
    switch_t = cfg.schedule.T - tau1 + 1

    def overflowing(x, t, eps, sched):
        out = original(x, t, eps, sched)
        return np.full_like(out, np.inf) if t == switch_t else out

    monkeypatch.setattr(engine, "ddim_step", overflowing)
    with pytest.raises(NumericError, match=rf"^latents at t={switch_t - 1} are not finite$"):
        run_plan(plan)
    assert len(path._ms) == tau1 and path._windows == {}
    serial = cfg.to_plan(seed=3, variant=PlanVariant.SERIAL, exact_path=path)
    with pytest.raises(NumericError, match="^evaluation points must be finite$"):
        run_plan(serial)


@pytest.mark.parametrize("variant, k", [("serial", None), ("hybrid", 4)],
                         ids=["exact-path", "window"])
def test_x0_that_overflows_raises_and_stores_nothing(monkeypatch, variant, k):
    """No oracle call reads x0, so the exact step at t = 1 checks it: an
    overflowing last step fails there, on the exact path and on a window's
    exact tail alike, and the store keeps no x0 for a later run to read."""
    cfg = ExperimentConfig.from_dict({"condition_batch": 4, "schedule": {"T": 12},
                                      "switch": {"L": 2, "tau_cap": 3, "k": 4}})
    path = ExactPath((3, 8), cfg.to_plan(variant=PlanVariant.HYBRID))
    plan = cfg.to_plan(seed=3, variant=PlanVariant(variant), k=k, exact_path=path)
    original = engine.ddim_step

    def overflowing(x, t, eps, sched):
        out = original(x, t, eps, sched)
        return np.full_like(out, np.inf) if t == 1 else out

    monkeypatch.setattr(engine, "ddim_step", overflowing)
    with pytest.raises(NumericError, match="^latents at t=0 are not finite$"):
        run_plan(plan)
    assert path._x0 == () and path._windows == {}
    if k is None:
        assert len(path._ms) == cfg.schedule.T - 1
    monkeypatch.setattr(engine, "ddim_step", original)
    assert_same_run(run_plan(plan), run_plan(replace(plan, exact_path=None)))


def store_state(path):
    """Each attribute of a store, and each item of its lists and dicts, by
    identity."""
    def ids(value):
        if isinstance(value, dict):
            return [(key, id(item)) for key, item in value.items()]
        return [id(item) for item in value] if isinstance(value, list) else id(value)
    return {name: ids(value) for name, value in vars(path).items()}


def test_bind_changes_no_store_state():
    """The template fixes the store; a bind that succeeds and every bind that
    raises leave each attribute, list item and dict item as it was."""
    cfg = ExperimentConfig.from_dict({"condition_batch": 4, "devices": 3})
    path = ExactPath((6, 7), cfg.to_plan(variant=PlanVariant.HYBRID))
    serial = cfg.to_plan(seed=6, variant=PlanVariant.SERIAL, exact_path=path)
    path._extend(10)
    before = store_state(path)
    # any seed of the store, any k, and a k = 0 plan of any segment count
    for seed, variant, k in [(6, "serial", None), (7, "hybrid", 5), (6, "hybrid", 30),
                             (7, "layer_wise", 0)]:
        cfg.to_plan(seed=seed, variant=PlanVariant(variant), k=k, exact_path=path)
    assert store_state(path) == before
    other = ExperimentConfig.from_dict({"condition_batch": 4})
    failing = [
        ("seed", cfg, 8, "hybrid", None),
        ("mixture", replace(cfg, mixture=other.mixture), 6, "serial", None),
        ("schedule", replace(cfg, schedule=other.schedule), 6, "serial", None),
        ("conditions", replace(cfg, conditions=other.conditions), 6, "serial", None),
        ("guidance", replace(cfg, guidance=other.guidance), 6, "serial", None),
        ("switch rule", replace(cfg, switch=replace(cfg.switch, L=5)), 7, "hybrid", 0),
        # three segments start from three latents, and the store keeps two
        ("starts from 3 latents", cfg, 7, "layer_wise", 5),
    ]
    for match, c, seed, variant, k in failing:
        with pytest.raises(PlanError, match=match):
            c.to_plan(seed=seed, variant=PlanVariant(variant), k=k, exact_path=path)
        assert store_state(path) == before, match
    # a store built from an unstaged plan has no rule, so serves no staged plan
    unstaged = ExactPath((6, 7), serial)
    run_serial(replace(serial, exact_path=unstaged))
    before = store_state(unstaged)
    for k in (0, 5):
        with pytest.raises(PlanError, match="no switch rule"):
            cfg.to_plan(seed=7, variant=PlanVariant.HYBRID, k=k, exact_path=unstaged)
    assert store_state(unstaged) == before


@pytest.mark.parametrize("after", ["mid-path", "serial-run"])
@pytest.mark.parametrize("k", [0, 5])
def test_staged_plan_bound_after_the_store_stepped_equals_an_unshared_run(after, k):
    """The store keeps its rule's controllers and its window's latents from
    its first step, so a staged plan bound after it stepped (mid-path, or to
    its end) runs as if unshared, for seeds that switch before, at and
    after the step where it stopped."""
    cfg = ExperimentConfig.from_dict({"preset": "sd3-like", "condition_batch": 16})
    seeds = (2, 0, 3)
    path = ExactPath(seeds, cfg.to_plan(variant=PlanVariant.HYBRID))
    serial = cfg.to_plan(seed=3, variant=PlanVariant.SERIAL, exact_path=path)
    if after == "mid-path":
        path._extend(31)  # where the preset's rule switches seed 2
    else:
        run_serial(serial)
    for s in seeds:
        late = cfg.to_plan(seed=s, variant=PlanVariant.HYBRID, k=k, exact_path=path)
        assert_same_run(run_plan(late), run_plan(replace(late, exact_path=None)))
    assert_same_run(run_serial(serial), run_serial(replace(serial, exact_path=None)))


def test_batch_level_plan_needs_every_pair_seed_in_its_store():
    """A batch_level plan reads seed + i for each pair i: a store that lacks
    one rejects the plan, naming the first seed it lacks, and stays as it
    was; a store that holds them all runs the pairs as unshared runs do."""
    cfg = ExperimentConfig.from_dict({"condition_batch": 8, "devices": 6})
    template = cfg.to_plan(variant=PlanVariant.BATCH_LEVEL)
    path = ExactPath((10, 12), template)
    run_serial(cfg.to_plan(seed=10, variant=PlanVariant.SERIAL, exact_path=path))
    before = store_state(path)
    for seed, missing in [(10, 11), (11, 11), (12, 13)]:
        with pytest.raises(PlanError, match=f"got seed {missing}$"):
            cfg.to_plan(seed=seed, variant=PlanVariant.BATCH_LEVEL, exact_path=path)
    assert store_state(path) == before
    full = ExactPath((10, 11, 12), template)
    batch = cfg.to_plan(seed=10, variant=PlanVariant.BATCH_LEVEL, exact_path=full)
    assert_same_run(run_plan(batch), run_plan(replace(batch, exact_path=None)))
    for pair in pair_plans(batch):
        assert pair.exact_path is full
        assert_same_run(run_plan(pair), run_plan(replace(pair, exact_path=None)))


# the one switch rule ------------------------------------------------------------------

def exact_prefix(series, T):
    """The leading pairs of a series that hold every step from t = T down."""
    return list(itertools.takewhile(lambda p: p[1][0] == T - p[0], enumerate(series)))


@pytest.mark.parametrize("body, seeds, ks", CASES, ids=CASE_IDS)
def test_every_runs_switch_replays_from_its_own_series(body, seeds, ks):
    """The store decides tau1; replaying a staged run's own series (up to
    its window, whose steps it skips) through the controller decides the
    same tau1 and tau2."""
    cfg = ExperimentConfig.from_dict(body)
    detected = []
    for plan in plans_for(cfg, seeds, ks, widest_store(cfg, seeds)).values():
        res = run_plan(plan)
        if plan.switch is None:
            assert res.tau1 is None and len(res.series) == plan.schedule.T
            continue
        prefix = exact_prefix(res.series, plan.schedule.T)
        state, _ = replay_series([pair for _, pair in prefix], plan.switch)
        assert (state.tau1, state.tau2) == (res.tau1, res.tau2)
        assert len(prefix) == (res.tau1 if plan.switch.k else plan.schedule.T)
        detected.append(res.tau1 < plan.switch.tau_cap)
    assert any(detected) == (body["preset"] == "sd3-like")


@pytest.fixture
def controller_calls(monkeypatch):
    """The switch config of every update_controller call the engine makes."""
    calls = []
    original = engine.update_controller

    def counting(state, series, t, cfg):
        calls.append(cfg)
        return original(state, series, t, cfg)

    monkeypatch.setattr(engine, "update_controller", counting)
    return calls


@pytest.mark.parametrize("body", [{"preset": "sdxl-like"}, {"preset": "sd3-like"}],
                         ids=["sdxl", "sd3"])
def test_sweep_steps_one_controller_per_seed_whatever_its_k_values(tmp_path, body,
                                                                   controller_calls):
    """Only the store steps a controller: one call per seed and exact step up
    to that seed's switch, however many k values share the rule."""
    doc = {**body, "condition_batch": 16, "seeds": [2, 0, 3]}
    cfg = ExperimentConfig.from_dict(doc)
    tau1 = [run_plan(cfg.to_plan(seed=s, k=0)).tau1 for s in cfg.seeds]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    counts = []
    for ks in ("0", "5", "0,1,5,30,40"):
        controller_calls.clear()
        with redirect_stdout(io.StringIO()):
            assert main(["sweep", "--config", str(cfg_path), "--k", ks]) == 0
        counts.append(len(controller_calls))
        assert set(controller_calls) == {replace(cfg.switch, k=0)}
    assert counts == [sum(tau1)] * 3


@pytest.mark.parametrize("body", [{"preset": "sdxl-like"}, {"preset": "sd3-like"}],
                         ids=["sdxl", "sd3"])
def test_the_store_steps_only_the_seeds_yet_to_switch(body, controller_calls):
    """After every exact step the store's pending slots are those whose
    controller has not switched, in slot order; the next step advances
    those controllers alone, and the store keeps the depth's latents while
    any seed is pending, else only the last."""
    cfg = ExperimentConfig.from_dict({**body, "condition_batch": 4, "seeds": [2, 0, 3, 7]})
    path = ExactPath(cfg.seeds, cfg.to_plan(variant=PlanVariant.HYBRID, k=0))
    assert path._pending == [0, 1, 2, 3]
    switched = set()
    for s in range(1, cfg.schedule.T + 1):
        before, calls = list(path._pending), len(controller_calls)
        path._extend(s)
        assert len(controller_calls) - calls == len(before)
        assert path._pending == [j for j, (st, _) in enumerate(path._controls)
                                 if st.tau1 is None]
        assert len(path._recent) == (path._depth if path._pending else 1)
        switched |= {path._controls[j][0].tau1 for j in before if j not in path._pending}
    assert path._pending == []
    # sd3-like's seeds switch at three steps (online and forced), sdxl-like's at one
    assert len(switched) == (3 if body["preset"] == "sd3-like" else 1), switched


# work counts ---------------------------------------------------------------------------

@pytest.fixture
def stacked_steps(monkeypatch):
    """Rows of every stacked step the engine takes: ("exact", rows) for a
    measured step, ("step", rows) for every ddim update, pipelined or not;
    an (S, B, d) step has S*B rows."""
    calls = []
    exact, ddim = engine._exact_step, engine.ddim_step

    def counting_exact(stack, x, t):
        calls.append(("exact", x.shape[0] * x.shape[1]))
        return exact(stack, x, t)

    def counting_ddim(x, t, eps, sched):
        calls.append(("step", x.shape[0] * x.shape[1]))
        return ddim(x, t, eps, sched)

    monkeypatch.setattr(engine, "_exact_step", counting_exact)
    monkeypatch.setattr(engine, "ddim_step", counting_ddim)
    return calls


def test_k0_run_on_a_full_path_takes_no_exact_step(stacked_steps):
    cfg = ExperimentConfig.from_dict({"condition_batch": 8})
    T = cfg.schedule.T
    path = ExactPath((5,), cfg.to_plan(variant=PlanVariant.HYBRID))
    plans = [cfg.to_plan(seed=5, variant=v, k=k, exact_path=path)
             for v, k in [(PlanVariant.HYBRID, 0), (PlanVariant.SERIAL, None),
                          (PlanVariant.FULL_CONDITION_PARTITION, None),
                          (PlanVariant.HYBRID, 0)]]
    run_plan(plans[0])
    assert stacked_steps.count(("exact", 8)) == T
    for plan in plans[1:]:
        run_plan(plan)
    assert stacked_steps == [("exact", 8), ("step", 8)] * T


def test_batch_level_pairs_step_as_one_batch(stacked_steps):
    """sdxl-like forces tau1 = 15 on every seed, so a 4-device batch_level
    run steps both pairs' exact paths and their one window as one batch:
    T ddim updates of 2B rows each, not 2T of B rows."""
    B = 8
    cfg = ExperimentConfig.from_dict({"preset": "sdxl-like", "condition_batch": B,
                                      "devices": 4})
    T = cfg.schedule.T
    assert T == 50
    batch = cfg.to_plan(seed=3, variant=PlanVariant.BATCH_LEVEL)
    assert run_plan(batch).tau1 == 15
    assert [rows for kind, rows in stacked_steps if kind == "step"] == [2 * B] * T
    assert all(run_plan(pair).tau1 == 15 for pair in pair_plans(batch))


@pytest.mark.parametrize("body", [{"preset": "sdxl-like"}, {"preset": "sd3-like"}],
                         ids=["sdxl", "sd3"])
def test_sweep_takes_each_shared_step_once(tmp_path, monkeypatch, stacked_steps, body):
    """A sweep steps all seeds' exact paths as one batch, then the windows
    of all seeds that share a tau1 as one batch: the pipelined steps of the
    widest feasible k once, each narrower window reading its prefix, and
    each k's exact tail."""
    cfg_path = tmp_path / "cfg.json"
    seeds = [2, 0, 3]
    B = 16
    cfg_path.write_text(json.dumps({**body, "condition_batch": B, "seeds": seeds}))
    ks = (0, 1, 5, 30, 40)
    tau1 = {}
    original = cli.run_plan

    def recording(plan):
        result = original(plan)
        tau1.setdefault(plan.seed, result.tau1)
        return result

    monkeypatch.setattr(cli, "run_plan", recording)
    with redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", str(cfg_path), "--k",
                     ",".join(map(str, ks))]) == 0
    cfg = ExperimentConfig.from_dict({**body, "seeds": seeds})
    T, cap = cfg.schedule.T, cfg.switch.tau_cap
    feasible = [k for k in ks if 1 <= k < T - cap]
    want = [("exact", len(seeds) * B), ("step", len(seeds) * B)] * T
    for tau in sorted(set(tau1.values())):
        rows = sum(1 for s in seeds if tau1[s] == tau) * B
        want += [("step", rows)] * max(feasible)
        for k in feasible:
            want += [("exact", rows), ("step", rows)] * (T - tau - k)
    assert sorted(stacked_steps) == sorted(want)
    assert stacked_steps[:2 * T] == want[:2 * T]      # the path comes first
    assert len(set(tau1.values())) == (1 if body["preset"] == "sdxl-like" else 3)


def test_store_holds_only_what_runs_read(tmp_path, monkeypatch):
    """After an 8-seed sweep the store holds, per seed, its discrepancies,
    x0, the latents its window starts from and one x0 per window, and per
    group of seeds that switched at one step, the N latents its widest
    window's pipelined steps reached: far from one array per step."""
    stores = []

    class Recording(ExactPath):
        def __init__(self, seeds, plan):
            super().__init__(seeds, plan)
            stores.append(self)

    monkeypatch.setattr(engine, "ExactPath", Recording)
    cfg_path = tmp_path / "cfg.json"
    S, B, d, ks = 8, 64, 8, (0, 5, 10, 20, 30)
    cfg_path.write_text(json.dumps({"seeds": list(range(S))}))
    with redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", str(cfg_path), "--k",
                     ",".join(map(str, ks))]) == 0
    (store,) = stores
    roots = {}
    for a in held_arrays(store):
        while isinstance(a.base, np.ndarray):
            a = a.base
        roots[id(a)] = a
    latents = [a for a in roots.values() if a.dtype == float and a.ndim == 3]
    stacked = S * B * d * 8
    depth, windows, n = 2, len(ks) - 1, 2
    groups = {st.tau1 for st, _ in store._controls}
    assert len(groups) == 1 and len(store._heads) == 1     # sdxl-like: tau1 = 15 on all
    # the path's x0, the start latents of every seed's window, one stacked
    # x0 per window and the group's head, its N latents after step tau1 + 30
    ((k, head),) = store._heads.values()
    assert k == max(ks) and len(head) == n and all(a.shape == (S, B, d) for a in head)
    assert sum(a.nbytes for a in latents) == (1 + depth + windows + n) * stacked
    other = sum(a.nbytes for a in roots.values()) - sum(a.nbytes for a in latents)
    assert other < stacked      # discrepancies and row indices
    # each exact step's discrepancies are kept as S Python floats, not arrays
    assert len(store._ms) == 50
    assert all(len(m) == S and all(type(v) is float for v in m) for m in store._ms)


@pytest.mark.parametrize("body, seeds, ks", [
    ({"preset": "sdxl-like"}, (0, 7, 11), (30, 5, 20, 1, 10)),
    ({"preset": "sd3-like"}, (2, 0, 3, 10, 1), (9, 2, 6, 1, 4)),
], ids=["sdxl", "sd3"])
@pytest.mark.parametrize("variant, devices", [("hybrid", 2), ("layer_wise", 3)])
def test_windows_asked_in_any_k_order_equal_fresh_stores(body, seeds, ks, variant, devices):
    """One store asked for its windows out of k order (a narrower k after a
    wider one starts again from the switch latents, a wider one continues
    the head) gives every run the x0 bytes and series of a fresh store per
    k, and keeps the widest k's head."""
    cfg = ExperimentConfig.from_dict({**body, "condition_batch": 16, "devices": devices,
                                      "seeds": list(seeds)})
    V = PlanVariant(variant)
    path = ExactPath(seeds, cfg.to_plan(variant=V))
    for k in ks:
        fresh = ExactPath(seeds, cfg.to_plan(variant=V))
        for seed in seeds:
            shared = run_plan(cfg.to_plan(seed=seed, variant=V, k=k, exact_path=path))
            alone = run_plan(cfg.to_plan(seed=seed, variant=V, k=k, exact_path=fresh))
            assert shared.x0.tobytes() == alone.x0.tobytes(), (k, seed)
            assert shared.series == alone.series, (k, seed)
    taus = {run_plan(cfg.to_plan(seed=s, variant=V, k=0, exact_path=path)).tau1
            for s in seeds}
    assert sorted(tau for tau, _ in path._heads) == sorted(taus)
    assert {k for k, _ in path._heads.values()} == {max(ks)}


def test_default_sweep_steps_the_widest_window_once(tmp_path, stacked_steps):
    """A default 8-seed sweep over k = 0, 5, 10, 20, 30: every seed switches
    at tau1 = 15, so it takes T exact-path steps, the 30 pipelined steps of
    the widest window once, and each window's T - tau1 - k exact steps."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seeds": list(range(8))}))
    with redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", str(cfg_path), "--k", "0,5,10,20,30"]) == 0
    T, tau1, ks = 50, 15, (5, 10, 20, 30)
    steps = [rows for kind, rows in stacked_steps if kind == "step"]
    assert len(steps) == T + max(ks) + sum(T - tau1 - k for k in ks) == 155
    assert set(steps) == {8 * 64}


# the sweep CSV -------------------------------------------------------------------------

def reference_sweep(cfg, ks) -> str:
    """The sweep built from independent, unshared runs, k by k."""
    serial = {s: run_serial(cfg.to_plan(seed=s, variant=PlanVariant.SERIAL))
              for s in cfg.seeds}
    lines = [SWEEP_HEADER]
    for k in ks:
        try:
            plans = [cfg.to_plan(seed=s, variant=PlanVariant.HYBRID, k=k)
                     for s in cfg.seeds]
        except (PlanError, ParameterError):
            lines.append(f"{k},infeasible,,,,")
            continue
        ms = [compare_runs(run_plan(p), serial[p.seed]) for p in plans]
        psnrs = [m.psnr_analog for m in ms if m.psnr_analog is not None]
        cells = [float(np.mean([m.latency_s for m in ms])),
                 float(np.mean([m.speedup for m in ms])),
                 float(np.mean([m.fidelity_l1 for m in ms]))]
        psnr = f"{float(np.mean(psnrs)):.17g}" if psnrs else ""
        lines.append(f"{k},ok," + ",".join(f"{c:.17g}" for c in cells) + f",{psnr}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("body", [
    {"preset": "sdxl-like", "seeds": [0, 5, 9, 2]},
    {"preset": "sd3-like", "seeds": [2, 0, 10, 3]},
    {"preset": "sdxl-like", "seeds": [1, 4], "conditions": MULTI,
     "condition_batch": 16},
], ids=["sdxl", "sd3", "sdxl-multi"])
def test_sweep_csv_equals_unshared_reference(tmp_path, body):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(body))
    out = tmp_path / "sweep.csv"
    ks = "0,1,5,30,40"
    assert main(["sweep", "--config", str(cfg_path), "--k", ks, "--out", str(out)]) == 0
    want = reference_sweep(ExperimentConfig.from_dict(body), (0, 1, 5, 30, 40))
    assert out.read_text() == want
    assert "infeasible" in want
