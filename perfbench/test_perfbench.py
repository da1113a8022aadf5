"""The benchmark's own arithmetic: self time, percentile selection, the
brute-force detector, delivered-step counting, and the runtime wrappers."""
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def test_self_time_with_overlapping_children():
    # root [0, 10] has children [1, 4] and [3, 6], which overlap on [3, 4];
    # the grandchild [2, 3] sits inside the first child
    s = [["cli.main", 0.0, 10.0, -1, 0],
         ["engine.run_plan", 1.0, 4.0, 0, 0],
         ["engine.run_serial", 3.0, 6.0, 0, 0],
         ["mixture.eps_prediction", 2.0, 3.0, 1, 0]]
    assert spans.self_times(s) == [5.0, 2.0, 3.0, 1.0]
    assert spans.self_time_by_module(s) == {"cli": 5.0, "engine": 5.0, "mixture": 1.0}


def test_covered_clips_to_parent_and_merges():
    assert spans.covered([(-1.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.0, 6.0) == 4.0
    assert spans.covered([], 0.0, 1.0) == 0.0


def test_tracer_nests_spans_and_rejects_misordered_close():
    ticks = iter(range(100))
    tr = spans.Tracer(clock=lambda: float(next(ticks)))
    outer = tr.open("cli.main")
    inner = tr.open("config.from_dict")
    tr.close(inner)
    tr.close(outer)
    assert tr.spans == [["cli.main", 0.0, 3.0, -1, -1],
                        ["config.from_dict", 1.0, 2.0, 0, -1]]
    assert tr.counts == {"cli.main": 1, "config.from_dict": 1}
    a, b = tr.open("a.x"), tr.open("b.y")
    with pytest.raises(RuntimeError):
        tr.close(a)
    assert b == a + 1


def test_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert stats.nearest_rank(samples, 90) == 90.0
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.samples_beyond(1000, 90) == 100
    assert stats.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.nearest_rank([3.0, 1.0, 2.0], 90) == 3.0


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # exclusive quartiles of 1..10: 2.75, 5.5, 8.25
    assert stats.quartile_spread(values) == pytest.approx(5.5 / 5.5)


def test_brute_force_detector_hand_cases():
    flat = [(t, 0.5) for t in range(10, 0, -1)]
    # slope 0 exists once L + 1 values are in: step 3 for L = 2
    assert workloads.brute_force_tau(flat, 2, 1e-3, 8, 4) == (3, 7)
    # cap reached before the window fills
    assert workloads.brute_force_tau(flat, 5, 1e-3, 2, 1) == (2, 3)
    falling = [(t, float(t)) for t in range(10, 0, -1)]
    assert workloads.brute_force_tau(falling, 1, 1e-3, 6, 0) == (6, 6)
    assert workloads.brute_force_tau(falling[:3], 1, 1e-3, 6, 0) == (None, None)


def test_brute_force_agrees_with_controller_and_splits_the_series(tmp_path):
    from hybridpar.monitor import SwitchConfig, replay_series
    wl = workloads.build("detect-replay", 7, str(tmp_path / "in"), str(tmp_path / "out"))
    detected = 0
    for op in wl.ops:
        sw = op.switch
        want = workloads.brute_force_tau(op.series, sw["L"], sw["g_slope"],
                                         sw["tau_cap"], sw["k"])
        state, _ = replay_series(op.series, SwitchConfig(**sw))
        assert (state.tau1, state.tau2) == want
        detected += want[0] < sw["tau_cap"]
    # even-indexed series are built to detect, odd ones to hit the cap
    assert detected == len(wl.ops) // 2


class FakeProbe:
    def __init__(self, samples):
        self.samples = samples


def test_delivered_steps_count_batch_level_pairs(tmp_path):
    ref = run.calibrate.REFERENCE_S
    wl = workloads.build("simulate-mix", 3, str(tmp_path / "in"), str(tmp_path / "out"))
    by_variant = {op.variant: op.delivered for op in wl.ops}
    assert by_variant["batch_level"] == 2 * workloads.T     # 4 devices, N/2 = 2
    assert by_variant["serial"] == by_variant["hybrid"] == workloads.T
    assert len(wl.ops) == 100

    batch_op = next(op for op in wl.ops if op.variant == "batch_level")
    one = workloads.Workload("batch-only", [batch_op], 1, [])
    m, _ = run.end_to_end(one, [{"seconds": 0.25, "ok": True, "cal": [ref]}], [ref],
                          FakeProbe([(0.1, ref), (0.3, ref), (0.2, 2 * ref)]))
    assert m["steps_per_s"]["value"] == 2 * workloads.T / 0.25
    assert m["setup_s"]["value"] == 0.1     # 0.1, 0.3, and 0.2 at half speed

    results = [{"seconds": 0.5, "ok": True, "cal": [ref]} for _ in wl.ops]
    results[0]["ok"] = False        # a failed op delivers nothing
    m, _ = run.end_to_end(wl, results, [ref], FakeProbe([(0.1, ref)]))
    # rates: one 0, 79 of T / 0.5, 20 of 2T / 0.5
    assert m["steps_per_s"]["value"] == workloads.T / 0.5


def test_host_speed_scaling_uses_kernel_times_around_each_op(tmp_path):
    ref = run.calibrate.REFERENCE_S
    # op 0 ran at half speed (kernel twice as slow before and after it), op 1
    # at reference speed: both scale to 1 s
    cal_runs = [[2 * ref] * 40, [2 * ref] * 40, [ref] * 40, [ref] * 40]
    assert run.local_calibration(cal_runs, 0) == 2 * ref
    assert run.local_calibration(cal_runs, 2) == ref
    wl = workloads.build("sweep-32seed", 0, str(tmp_path / "in"), str(tmp_path / "out"))
    results = [{"seconds": s, "ok": True, "cal": c}
               for s, c in zip((2.0, 1.5, 1.0), cal_runs)]
    m, _ = run.end_to_end(wl, results, cal_runs[3], FakeProbe([(0.2, ref)]))
    # op 1 straddles the change: 1.5 s over a kernel median of 1.5 ref
    assert m["op_p50_s"]["value"] == pytest.approx(1.0)
    # one sample per op: the window widens to 30 samples on either side
    short = [[float(i)] for i in range(100)]
    assert run.local_calibration(short, 50) == stats.median([float(i) for i in range(36, 66)])


def test_sweep_counts_cells_not_baselines(tmp_path):
    wl = workloads.build("sweep-32seed", 0, str(tmp_path / "in"), str(tmp_path / "out"))
    assert len(wl.ops) * workloads.SWEEP_BLOCK == workloads.SWEEP_SEEDS
    for op in wl.ops:
        cells = len(workloads.SWEEP_K) * workloads.SWEEP_BLOCK
        assert op.delivered == cells * workloads.T
        assert len(op.plans) == cells + workloads.SWEEP_BLOCK


def test_inputs_repeat_for_a_seed(tmp_path):
    a = workloads.build("detect-replay", 5, str(tmp_path / "a"), str(tmp_path / "ao"))
    b = workloads.build("detect-replay", 5, str(tmp_path / "b"), str(tmp_path / "bo"))
    c = workloads.build("detect-replay", 6, str(tmp_path / "c"), str(tmp_path / "co"))
    assert [op.series for op in a.ops] == [op.series for op in b.ops]
    assert [op.series for op in a.ops] != [op.series for op in c.ops]


def test_wrappers_trace_a_cli_run_and_restore(tmp_path):
    import hybridpar.cli as cli
    import hybridpar.engine as engine
    from hybridpar.config import ExperimentConfig
    originals = (cli.run_plan, engine.eps_prediction,
                 ExperimentConfig.__dict__["from_dict"])
    tr, sink, patches = spans.Tracer(), [], spans.Patches()
    spans.install_tracing(patches, tr)
    spans.install_capture(patches, sink)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"condition_batch": 4, "schedule": {"T": 12}, '
                   '"switch": {"L": 2, "tau_cap": 3, "k": 4}}')
    try:
        idx = tr.open("cli.main")
        with redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", str(cfg), "--seed", "0",
                             "--out", str(tmp_path / "out")])
        tr.close(idx)
    finally:
        patches.restore()
    assert code == 0
    assert (cli.run_plan, engine.eps_prediction,
            ExperimentConfig.__dict__["from_dict"]) == originals
    assert [r.role for r in sink] == ["plan", "baseline"]
    assert tr.counts["engine.run_plan"] == 1
    assert tr.counts["schedules.ddim_step"] == 2 * 12      # hybrid + serial
    assert tr.counts["monitor.staged_runs"] == 1
    assert tr.counts["mixture.eps_prediction.rows"] > 0
    own = spans.self_time_by_module(tr.spans)
    root = tr.spans[idx][2] - tr.spans[idx][1]
    assert sum(own.values()) == pytest.approx(root, rel=1e-9)
    assert {"cli", "config", "engine", "mixture", "schedules", "monitor",
            "trace", "metrics"} <= set(own)
