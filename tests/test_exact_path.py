"""Shared exact paths: runs that read one seed's all-exact trajectory must
equal runs that step it on their own, bit for bit and event for event.

A plan whose window is still empty steps exactly like serial, so serial,
condition partitioning and every staged run up to its first pipelined step
can read one ExactPath. These tests compare shared runs, in several orders,
against unshared ones; check the binding and read-only rules; and count the
exact steps a sweep takes, so a silent loss of sharing fails here.
"""
import io
import json
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

import hybridpar.cli as cli
import hybridpar.engine as engine
from hybridpar.cli import SWEEP_HEADER, main
from hybridpar.config import ExperimentConfig
from hybridpar.engine import ExactPath, PlanVariant, run_plan, run_serial
from hybridpar.errors import ParameterError, PlanError, SequencingError
from hybridpar.metrics import compare_runs
from hybridpar.schedules import GuidanceParams, build_schedule

MULTI = [[0], [1, 2], [3], [0, 1, 2, 3]]

# (config, seeds, k values); sd3-like seeds 2 and 1 detect online (tau1 < 40)
CASES = [
    ({"preset": "sdxl-like", "condition_batch": 16, "devices": 4}, (0, 7), (0, 1, 5, 30)),
    ({"preset": "sdxl-like", "condition_batch": 16, "devices": 4,
      "conditions": MULTI}, (3,), (0, 1, 5, 30)),
    ({"preset": "sd3-like", "condition_batch": 16, "devices": 4}, (2, 0), (0, 1, 5)),
    ({"preset": "sd3-like", "condition_batch": 16, "devices": 4,
      "conditions": MULTI}, (1,), (0, 1, 5)),
]
CASE_IDS = ["sdxl", "sdxl-multi", "sd3", "sd3-multi"]
STAGED = [("hybrid", 2), ("layer_wise", 2), ("layer_wise", 3), ("layer_wise", 4),
          ("batch_level", 4)]


def plans_for(cfg, seed, ks, path):
    """name -> plan for every variant, device count and k, all on one path."""
    def make(variant, n=None, k=None):
        c = cfg if n is None else replace(cfg, devices=cfg.devices[:n])
        return c.to_plan(seed=seed, variant=PlanVariant(variant), k=k, exact_path=path)

    plans = {"serial": make("serial"),
             "full_condition_partition": make("full_condition_partition")}
    for k in ks:
        for variant, n in STAGED:
            plans[f"{variant}{n}-k{k}"] = make(variant, n, k)
    return plans


def orders(names):
    """Serial first; staged runs first (widest window first, serial last);
    the k = 0 runs first."""
    k0 = [n for n in names if n.endswith("-k0")]
    return [names, names[::-1], k0 + [n for n in names if n not in k0]]


def assert_same_run(a, b):
    assert a.x0.shape == b.x0.shape and a.x0.tobytes() == b.x0.tobytes()
    assert a.series == b.series
    assert (a.tau1, a.tau2) == (b.tau1, b.tau2)
    assert a.latency_s == b.latency_s and a.speedup == b.speedup
    assert a.throughput_samples_per_s == b.throughput_samples_per_s
    assert a.comm_bytes == b.comm_bytes
    assert a.trace.busy == b.trace.busy
    assert a.trace.messages == b.trace.messages
    assert (a.per_sample is None) == (b.per_sample is None)
    for sa, sb in zip(a.per_sample or (), b.per_sample or ()):
        assert_same_run(sa, sb)


@pytest.mark.parametrize("body, seeds, ks", CASES, ids=CASE_IDS)
def test_shared_runs_equal_unshared_runs_in_any_order(body, seeds, ks):
    cfg = ExperimentConfig.from_dict(body)
    for seed in seeds:
        alone = {name: run_plan(plan)
                 for name, plan in plans_for(cfg, seed, ks, None).items()}
        for order in orders(list(alone)):
            plans = plans_for(cfg, seed, ks, ExactPath())
            for name in order:
                assert_same_run(run_plan(plans[name]), alone[name])


def test_sd3_cases_cover_online_detection():
    for body, seeds, _ in CASES[2:]:
        cfg = ExperimentConfig.from_dict(body)
        tau1 = run_plan(cfg.to_plan(seed=seeds[0], variant=PlanVariant.HYBRID, k=1)).tau1
        assert tau1 < cfg.switch.tau_cap


def test_shared_latents_are_read_only_and_shared():
    cfg = ExperimentConfig.from_dict({"condition_batch": 8})
    path = ExactPath()
    serial_plan = cfg.to_plan(seed=4, variant=PlanVariant.SERIAL, exact_path=path)
    serial = run_serial(serial_plan)
    k0 = run_plan(cfg.to_plan(seed=4, variant=PlanVariant.HYBRID, k=0, exact_path=path))
    assert k0.x0 is serial.x0
    for s in range(cfg.schedule.T + 1):
        assert not path.latents(serial_plan, s).flags.writeable
    with pytest.raises(ValueError):
        serial.x0[0, 0] = 0.0
    alone = run_serial(cfg.to_plan(seed=4, variant=PlanVariant.SERIAL))
    assert alone.x0.tobytes() == serial.x0.tobytes()


def test_path_rejects_a_plan_of_another_seed_or_model():
    cfg = ExperimentConfig.from_dict({"condition_batch": 4, "schedule": {"T": 12},
                                      "switch": {"L": 2, "tau_cap": 3, "k": 4}})
    path = ExactPath()
    run_serial(cfg.to_plan(seed=1, variant=PlanVariant.SERIAL, exact_path=path))
    other = ExperimentConfig.from_dict({"condition_batch": 4, "schedule": {"T": 12}})
    others = {
        "seed": cfg,
        "mixture": replace(cfg, mixture=other.mixture),
        "schedule": replace(cfg, schedule=build_schedule("linear", 12, 0.01, 0.12)),
        "conditions": replace(cfg, conditions=tuple(list(cfg.conditions))),
        "guidance": replace(cfg, guidance=GuidanceParams(cfg.guidance.w)),
    }
    for name, c in others.items():
        seed = 2 if name == "seed" else 1
        for variant in (PlanVariant.SERIAL, PlanVariant.HYBRID):
            plan = c.to_plan(seed=seed, variant=variant, exact_path=path)
            with pytest.raises(PlanError, match=name):
                run_plan(plan)
    # the binding survives the failed attempts
    again = run_serial(cfg.to_plan(seed=1, variant=PlanVariant.SERIAL, exact_path=path))
    alone = run_serial(cfg.to_plan(seed=1, variant=PlanVariant.SERIAL))
    assert_same_run(again, alone)


def test_private_path_keeps_only_the_latest_latents():
    cfg = ExperimentConfig.from_dict({"condition_batch": 4, "schedule": {"T": 12}})
    plan = cfg.to_plan(seed=6, variant=PlanVariant.SERIAL)
    shared, private = ExactPath().bind(plan), ExactPath(keep_all=False).bind(plan)
    for s in range(13):
        assert private.latents(plan, s).tobytes() == shared.latents(plan, s).tobytes()
        if s:
            assert private.discrepancy(plan, s) == shared.discrepancy(plan, s)
    with pytest.raises(SequencingError):
        private.latents(plan, 11)
    assert shared.latents(plan, 11) is not None


def test_failed_step_stores_nothing(monkeypatch):
    cfg = ExperimentConfig.from_dict({"condition_batch": 4, "schedule": {"T": 12}})
    plan = cfg.to_plan(seed=3, variant=PlanVariant.SERIAL, exact_path=ExactPath())
    original = engine._exact_update
    calls = []

    def failing(p, state):
        calls.append(state.t)
        if len(calls) == 5:
            raise FloatingPointError("injected")
        return original(p, state)

    monkeypatch.setattr(engine, "_exact_update", failing)
    with pytest.raises(FloatingPointError):
        run_serial(plan)
    monkeypatch.setattr(engine, "_exact_update", original)
    assert_same_run(run_serial(plan),
                    run_serial(cfg.to_plan(seed=3, variant=PlanVariant.SERIAL)))


def test_batch_level_hands_the_path_to_sample_zero_only(monkeypatch):
    cfg = ExperimentConfig.from_dict({"condition_batch": 8, "devices": 6})
    path = ExactPath()
    seen = []
    original = engine.run_hybrid

    def recording(sub):
        seen.append((sub.seed, sub.exact_path))
        return original(sub)

    monkeypatch.setattr(engine, "run_hybrid", recording)
    run_serial(cfg.to_plan(seed=10, variant=PlanVariant.SERIAL, exact_path=path))
    run_plan(cfg.to_plan(seed=10, variant=PlanVariant.BATCH_LEVEL, exact_path=path))
    assert [s for s, _ in seen] == [10, 11, 12]
    assert seen[0][1] is path
    assert all(p is None for _, p in seen[1:])


# work counts ---------------------------------------------------------------------------

@pytest.fixture
def exact_steps(monkeypatch):
    """Count every exact step the engine takes."""
    calls = []
    original = engine._exact_update

    def counting(plan, state):
        calls.append(plan.seed)
        return original(plan, state)

    monkeypatch.setattr(engine, "_exact_update", counting)
    return calls


def test_k0_run_on_a_full_path_takes_no_exact_step(exact_steps):
    cfg = ExperimentConfig.from_dict({"condition_batch": 8})
    T = cfg.schedule.T
    path = ExactPath()
    run_plan(cfg.to_plan(seed=5, variant=PlanVariant.HYBRID, k=0, exact_path=path))
    assert len(exact_steps) == T
    run_serial(cfg.to_plan(seed=5, variant=PlanVariant.SERIAL, exact_path=path))
    run_plan(cfg.to_plan(seed=5, variant=PlanVariant.FULL_CONDITION_PARTITION,
                         exact_path=path))
    run_plan(cfg.to_plan(seed=5, variant=PlanVariant.HYBRID, k=0, exact_path=path))
    assert len(exact_steps) == T


@pytest.mark.parametrize("body", [{"preset": "sdxl-like"}, {"preset": "sd3-like"}],
                         ids=["sdxl", "sd3"])
def test_sweep_takes_each_shared_step_once(tmp_path, monkeypatch, exact_steps, body):
    cfg_path = tmp_path / "cfg.json"
    seeds = [2, 0, 3]
    cfg_path.write_text(json.dumps({**body, "condition_batch": 16, "seeds": seeds}))
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
    feasible = [k for k in ks if k == 0 or k < T - cap]
    want = sum(T + sum(max(0, T - tau1[s] - k) for k in feasible if k >= 1)
               for s in seeds)
    assert len(exact_steps) == want
    assert exact_steps == sorted(exact_steps, key=seeds.index)   # seed by seed


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
