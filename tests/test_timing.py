"""The virtual clock on its own: _timing against the closed forms of
test_engine.py, read-only traces, and the per-command memo that lets runs of
one schedule share a trace.

The closed forms use the preset cost model, c = 0.1649 s per branch
evaluation and 0.0025 s per message (infinite bandwidth). _timing reads no
latents, so these tests build plans and never step one: the oracle and the
exact step raise if called.
"""
import dataclasses
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
import pytest
from test_exact_path import on_its_store

import hybridpar.cli as cli
import hybridpar.engine as engine
from hybridpar.config import PRESETS, ExperimentConfig
from hybridpar.engine import ExactPath, PlanVariant, run_plan
from hybridpar.errors import ParameterError
from hybridpar.trace import BusyInterval, LinkSpec, MessageEvent, Timeline

C = PRESETS["sdxl-like"]["branch_step_cost"]   # 0.1649
MSG = 0.0025                                   # per-message link time


def rel_close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * abs(b)


@pytest.fixture
def no_numerics(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("timing took a numeric step")

    for name in ("_exact_step", "_pipelined_steps", "_exact_steps", "eps_prediction",
                 "_singleton_eps"):
        monkeypatch.setattr(engine, name, fail)


def plan(variant: str, **over):
    raw = {"variant": variant, "seeds": [0], **over}
    return ExperimentConfig.from_dict(raw).to_plan()


def stages(timing) -> dict[int, set[str]]:
    out: dict[int, set[str]] = {}
    for b in timing.trace.busy:
        out.setdefault(b.step, set()).add(b.stage)
    return out


# closed forms ------------------------------------------------------------------------

def test_serial_closed_form(no_numerics):
    timing = engine._timing(plan("serial"), None, None)
    assert rel_close(timing.latency_s, 16.49)
    assert timing.comm_bytes == 0 and timing.trace.messages == ()
    assert len(timing.trace.busy) == 50
    assert {b.stage for b in timing.trace.busy} == {""}


@pytest.mark.parametrize("base_latency, latency", [
    (0.0, 50 * C),                    # 8.245, speedup exactly 2
    (MSG, 50 * (C + 2 * MSG)),        # 8.495
    (0.00995, 9.24),                  # the calibrated reference point
])
def test_condition_partition_link_forms(no_numerics, base_latency, latency):
    timing = engine._timing(plan("full_condition_partition",
                                 link={"base_latency_s": base_latency}), None, None)
    assert rel_close(timing.latency_s, latency)
    assert timing.comm_bytes == 100 * 4096         # two latent messages per step
    assert {b.stage for b in timing.trace.busy} == {""}
    if base_latency == 0.0:
        serial = engine._timing(plan("serial"), None, None)
        assert serial.latency_s / timing.latency_s == 2.0


def test_hybrid_closed_form_and_stage_labels(no_numerics):
    timing = engine._timing(plan("hybrid"), 15, 20)
    assert rel_close(timing.latency_s, 48 * C + 95 * MSG)      # 8.1527
    assert timing.comm_bytes == 90 * 4096 + 5 * 16384          # 450560
    assert len(timing.trace.messages) == 95
    labels = stages(timing)
    assert all(labels[s] == {"warm_up"} for s in range(1, 16))
    assert all(labels[s] == {"parallelism"} for s in range(16, 21))
    assert all(labels[s] == {"fully_connecting"} for s in range(21, 51))


def test_hybrid_empty_window_is_condition_partitioning_relabelled(no_numerics):
    hy = engine._timing(plan("hybrid", switch={"k": 0}), 15, 15)
    fcp = engine._timing(plan("full_condition_partition"), None, None)
    assert hy.latency_s == fcp.latency_s and hy.comm_bytes == fcp.comm_bytes
    assert [b._replace(stage="") for b in hy.trace.busy] == list(fcp.trace.busy)
    assert {b.stage for b in hy.trace.busy if b.step > 15} == {"fully_connecting"}


def test_layer_wise_four_devices_closed_form(no_numerics):
    timing = engine._timing(plan("layer_wise", devices=4), 15, 20)
    assert rel_close(timing.latency_s, 47 * C + 96 * MSG)      # 7.9903
    assert timing.comm_bytes == 90 * 4096 + 15 * 16384


def test_layer_wise_zero_link_steady_delta(no_numerics):
    timing = engine._timing(plan("layer_wise", devices=4, link={"base_latency_s": 0.0}),
                            15, 20)
    T, k = 50, 5
    assert rel_close(timing.latency_s, (T - k) * C + C + (k - 1) * C / 4)
    seg0 = [b for b in timing.trace.busy if b.label == "segment_0"]
    assert len(seg0) == k and all(rel_close(b.end - b.start, C / 4) for b in seg0)


def test_batch_level_pair_forms(no_numerics):
    """Each pair of a batch-level plan runs a hybrid schedule on its own two
    devices; a pair twice as slow takes twice the compute."""
    batch = plan("batch_level", devices=[C, C, 2 * C, 2 * C])
    pairs = [engine._timing(replace(batch, variant=PlanVariant.HYBRID,
                                    devices=batch.devices[2 * i:2 * i + 2]), 15, 20)
             for i in range(2)]
    assert rel_close(pairs[0].latency_s, 48 * C + 95 * MSG)
    assert rel_close(pairs[1].latency_s, 48 * 2 * C + 95 * MSG)
    assert {b.device for b in pairs[1].trace.busy} == {"dev2", "dev3"}
    assert pairs[0].comm_bytes == pairs[1].comm_bytes == 90 * 4096 + 5 * 16384


def test_batch_level_pairs_take_the_config_segment_fractions():
    """Each pair splits its window as the config says, so it runs hybrid's
    schedule with those fractions: a steady step takes the 0.7 segment plus
    its hand-off, 0.2 C more than an even split's, over k - 1 = 4 steps."""
    cfg = ExperimentConfig.from_dict({"devices": 4, "segment_fractions": [0.3, 0.7],
                                      "condition_batch": 4, "seeds": [0]})
    batch = cfg.to_plan(variant=PlanVariant.BATCH_LEVEL)
    assert batch.segment_fractions == (0.3, 0.7)
    hybrid = run_plan(cfg.to_plan(variant=PlanVariant.HYBRID))
    assert rel_close(hybrid.latency_s, 48.8 * C + 95 * MSG)        # 8.28462
    _, pairs = on_its_store(batch)
    assert [run_plan(p).latency_s for p in pairs] == [hybrid.latency_s] * 2


# each device computes one interval at a time: the engine starts every interval
# no earlier than its device's last end, and Timeline relies on that
LINKS = {"zero": {"base_latency_s": 0.0}, "latency": {},
         "bandwidth": {"bandwidth_bytes_per_s": 1e6}}
COUNTS = {"serial": (1,), "full_condition_partition": (2,), "hybrid": (2,),
          "layer_wise": (2, 3, 5), "batch_level": (2, 4, 6)}


@pytest.mark.parametrize("link", LINKS.values(), ids=list(LINKS))
@pytest.mark.parametrize("variant", list(COUNTS))
def test_each_device_runs_its_intervals_in_order_without_overlap(no_numerics, variant, link):
    rng = np.random.default_rng(len(variant))
    schedules = ([(None, None)] if variant in ("serial", "full_condition_partition")
                 else [(tau1, tau1 + k) for tau1 in (1, 3, 6) for k in (0, 1, 5)])
    for n in COUNTS[variant]:
        p = plan(variant, devices=rng.uniform(0.01, 0.5, n).tolist(), link=link,
                 schedule={"T": 12}, switch={"L": 2, "tau_cap": 6, "k": 0})
        # a batch_level plan is timed pair by pair, each as a hybrid plan
        timed = ([replace(p, variant=PlanVariant.HYBRID, devices=p.devices[i:i + 2])
                  for i in range(0, n, 2)] if variant == "batch_level" else [p])
        seen = set()
        for q in timed:
            for tau1, tau2 in schedules:
                last_end: dict[str, float] = {}
                for b in engine._timing(q, tau1, tau2).trace.busy:
                    assert b.start >= last_end.get(b.device, 0.0), (n, tau1, tau2, b)
                    last_end[b.device] = b.end
                seen |= set(last_end)
        assert seen == {d.name for d in p.devices}


# the switch step moves fidelity, never latency: at a fixed k, every feasible
# tau1 gives the same makespan, whatever the devices, fractions and link
def test_latency_does_not_depend_on_the_switch_step(no_numerics):
    rng = np.random.default_rng(2024)
    for trial in range(300):
        variant = ("hybrid", "layer_wise", "batch_level")[trial % 3]
        n = {"hybrid": 2, "layer_wise": int(rng.integers(2, 7)),
             "batch_level": 2 * int(rng.integers(1, 4))}[variant]
        T = int(rng.integers(4, 51))
        k = int(rng.integers(1, T - 2))
        link = list(LINKS.values())[trial // 3 % 3]
        p = plan(variant, devices=rng.uniform(0.01, 0.5, n).tolist(), link=link,
                 schedule={"T": T}, switch={"L": 1, "tau_cap": T - k - 1, "k": k})
        w = rng.uniform(0.1, 1.0, len(p.segment_fractions))
        p = replace(p, segment_fractions=tuple((w / w.sum()).tolist()))
        # a batch_level plan is timed pair by pair, each as a hybrid plan
        timed = ([replace(p, variant=PlanVariant.HYBRID, devices=p.devices[i:i + 2])
                  for i in range(0, n, 2)] if variant == "batch_level" else [p])
        for q in timed:
            latency = [engine._timing(q, tau1, tau1 + k).latency_s
                       for tau1 in range(1, T - k)]
            assert all(rel_close(x, latency[0]) for x in latency), (trial, q.devices)


# read-only traces ----------------------------------------------------------------------

def test_a_shared_trace_cannot_be_changed():
    cfg = ExperimentConfig.from_dict({"condition_batch": 4, "seeds": [0, 1]})
    path = ExactPath(cfg.seeds, cfg.to_plan())
    plans = [cfg.to_plan(seed=s, exact_path=path) for s in cfg.seeds]
    a, b = (run_plan(p) for p in plans)
    assert a.trace is b.trace            # one schedule, one trace
    event = a.trace.busy[0]
    with pytest.raises(AttributeError):
        a.trace.busy.append(event)
    with pytest.raises(AttributeError):
        a.trace.messages.append(a.trace.messages[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.trace.busy = ()
    with pytest.raises(AttributeError):       # a named tuple's fields are read-only
        event.end = 0.0
    assert isinstance(b.trace.busy[0], BusyInterval) and len(b.trace.messages) == 95


@pytest.mark.parametrize("kind", ["gradient", "Latent", "", None, ["latent"]])
def test_a_message_of_an_unknown_kind_is_rejected(kind):
    """Timeline charges a message the link's bytes for its kind; a kind it
    has no size for is a ParameterError, not activation bytes, and is not
    recorded."""
    tl = Timeline(LinkSpec(1e6, 0.25, 3, 7))
    with pytest.raises(ParameterError, match="message kind must be one of"):
        tl.send("dev0", "dev1", kind, 1.0, 1)
    assert tl.trace().messages == ()


@pytest.mark.parametrize("sizes", [(2 ** 1024, 1), (1, 10 ** 400)])
def test_a_message_size_past_float_range_is_rejected(sizes):
    """A Timeline computes each kind's transfer time when it is built, so a
    link whose size has no float transfer time is rejected when it is built,
    as the config's bound rejects it, not by a later OverflowError."""
    with pytest.raises(ParameterError, match="must lie within float range"):
        LinkSpec(1e6, 0.0, *sizes)
    LinkSpec(1e6, 0.0, int(1.7976931348623157e308), 1)        # the largest float is taken


@pytest.mark.parametrize("link", [LinkSpec(1e6, 0.25, 3, 7), LinkSpec(math.inf, 0.0, 1, 1),
                                  LinkSpec(3e9, 1.1e-5, 131072, 65536)])
def test_a_message_arrives_after_its_kinds_transfer_time(link):
    """send reads each kind's size and transfer time, fixed when the Timeline
    is built, with the bits of link.transfer_time(size) added per call."""
    tl = Timeline(link)
    for kind, n in (("latent", link.message_bytes_latent),
                    ("activation", link.message_bytes_activation)):
        for depart in (0.0, 0.1, 7.3, 1e6 / 3):
            arrive = tl.send("dev0", "dev1", kind, depart, 2)
            assert arrive == depart + link.transfer_time(n)
            assert tl.trace().messages[-1] == MessageEvent("dev0", "dev1", kind, n,
                                                           depart, arrive, 2)


def test_batch_level_trace_concatenates_the_pairs():
    batch, pairs = on_its_store(plan("batch_level", devices=4, condition_batch=4))
    res, runs = run_plan(batch), [run_plan(p) for p in pairs]
    assert res.trace.busy == sum((r.trace.busy for r in runs), ())
    assert res.trace.messages == sum((r.trace.messages for r in runs), ())


# the memo ------------------------------------------------------------------------------

@pytest.fixture
def timelines(monkeypatch):
    """Count the traces built: every trace starts as one Timeline."""
    built = []
    original = engine.Timeline

    class Counting(original):
        def __init__(self, link):
            super().__init__(link)
            built.append(self)

    monkeypatch.setattr(engine, "Timeline", Counting)
    return built


def sweep(tmp_path, monkeypatch, body, ks) -> set[tuple[int, int]]:
    """Run one sweep command; return the (tau1, k) of its staged runs."""
    schedules = set()
    original = cli.run_plan

    def recording(p):
        result = original(p)
        schedules.add((result.tau1, result.tau2 - result.tau1))
        return result

    monkeypatch.setattr(cli, "run_plan", recording)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(body))
    with redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--config", str(cfg_path), "--k",
                         ",".join(map(str, ks))]) == 0
    return schedules


# sd3-like seeds 2, 0, 3, 10, 1 at batch 16 switch at 31, 40, 29, 28, 40
@pytest.mark.parametrize("body", [
    {"preset": "sdxl-like", "condition_batch": 16, "seeds": [0, 7, 11]},
    {"preset": "sd3-like", "condition_batch": 16, "seeds": [2, 0, 3, 10, 1]},
], ids=["sdxl", "sd3"])
def test_sweep_builds_one_trace_per_schedule(tmp_path, monkeypatch, timelines, body):
    schedules = sweep(tmp_path, monkeypatch, body, (0, 1, 5, 30))
    tau1 = {t for t, _ in schedules}
    assert len(tau1) == (1 if body["preset"] == "sdxl-like" else 4)
    # the serial schedule, then one per distinct (tau1, k) of the feasible runs
    assert len(timelines) == 1 + len(schedules)
    assert len(schedules) == len(tau1) * (4 if body["preset"] == "sdxl-like" else 3)


def test_each_sweep_command_builds_its_own_traces(tmp_path, monkeypatch, timelines):
    body = {"condition_batch": 4, "seeds": [3, 4]}
    sweep(tmp_path, monkeypatch, body, (0, 5))
    first = len(timelines)
    sweep(tmp_path, monkeypatch, body, (0, 5))
    assert first == 3                    # serial, k = 0, k = 5
    assert len(timelines) == 2 * first   # nothing carried over between commands
