"""Metrics and the command-line surface: golden headers, round trips,
machine-readable failures, and cross-command consistency.
"""
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from hybridpar.cli import (CURVE_HEADER, SWEEP_HEADER, TRACE_HEADER,
                           curve_rows, main, read_series_columns)
from hybridpar.config import ExperimentConfig, load_config
from hybridpar.errors import ParameterError, PlanError, SeriesParseError, ShapeError
from hybridpar.metrics import Metrics, compare_runs


def series_pairs(path: str) -> list[tuple[int, float]]:
    """The (t, discrepancy) pairs of read_series_columns(path)."""
    return list(zip(*read_series_columns(path)))


METRIC_KEYS = {"latency_s", "speedup", "comm_bytes", "fidelity_l1",
               "fidelity_l2", "psnr_analog", "tau1", "tau2"}


def write_config(tmp_path, name="cfg.json", **body) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def run_cli(argv, capsys) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_runners(monkeypatch) -> list:
    """Patch cli.run_serial and cli.run_plan to record each call, then run."""
    import hybridpar.cli as cli
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, args, kwargs))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "run_serial", recording("serial", cli.run_serial))
    monkeypatch.setattr(cli, "run_plan", recording("plan", cli.run_plan))
    return calls


SMALL = dict(condition_batch=4, seeds=[0],
             schedule={"T": 12}, switch={"L": 2, "tau_cap": 3, "k": 4})


# metrics ------------------------------------------------------------------------

class Run:
    """The fields of a RunResult that compare_runs reads."""

    def __init__(self, x0, latency_s=1.0):
        self.x0, self.latency_s, self.comm_bytes = x0, latency_s, 0
        self.tau1 = self.tau2 = None


# reference: the fidelities computed one metric at a time, each forming x - y
def fidelity_l1(x, y):
    return float(np.abs(x - y).mean())


def fidelity_l2(x, y):
    return float(np.sqrt(((x - y) ** 2).mean()))


def psnr_analog(x, y):
    rmse = fidelity_l2(x, y)
    return None if rmse == 0.0 else 20.0 * math.log10(
        float(max(np.abs(x).max(), np.abs(y).max())) / rmse)


def test_fidelity_hand_values():
    m = compare_runs(Run(np.zeros((1, 2))), Run(np.array([[1.0, -1.0]])))
    assert (m.fidelity_l1, m.fidelity_l2) == (1.0, 1.0)
    assert m.psnr_analog == 0.0    # peak 1, rmse 1


def test_psnr_none_on_exact_match():
    x = np.array([[0.5, -2.0]])
    assert compare_runs(Run(x), Run(x.copy())).psnr_analog is None


def test_fidelity_shape_mismatch():
    with pytest.raises(ShapeError):
        compare_runs(Run(np.zeros(2)), Run(np.zeros(3)))


def test_compare_runs_speedup_direction():
    m = compare_runs(Run(np.zeros((1, 2)), 5.0), Run(np.zeros((1, 2)), 10.0))
    assert m.speedup == 2.0
    assert m.fidelity_l1 == 0.0 and m.psnr_analog is None
    assert set(m.to_dict()) == METRIC_KEYS



@pytest.mark.parametrize("shape", [(1, 2), (64, 8), (3, 7, 5)])
def test_compare_runs_equals_the_public_fidelities_bitwise(shape):
    """compare_runs forms x0 - serial x0 once; its fidelities keep the bits
    of the reference fidelity_l1, fidelity_l2 and psnr_analog above, and an
    exact match is psnr None."""
    rng = np.random.default_rng(len(shape))
    for _ in range(20):
        x, y = rng.normal(0.0, 3.0, (2, *shape)) * 10.0 ** rng.integers(-3, 4)
        for a, b in [(x, y), (x, x.copy()), (x, x + 1e-17)]:
            m = compare_runs(Run(a), Run(b))
            # repr round-trips a float exactly, and tells None apart
            assert (repr((m.fidelity_l1, m.fidelity_l2, m.psnr_analog))
                    == repr((fidelity_l1(a, b), fidelity_l2(a, b), psnr_analog(a, b))))
        assert compare_runs(Run(x), Run(x.copy())).psnr_analog is None


# golden output shapes --------------------------------------------------------------

def test_golden_headers():
    assert CURVE_HEADER == "t,rel_mae,score_ratio,band_lo,band_hi,is_argmin"
    assert SWEEP_HEADER == "k,status,latency_s,speedup,fidelity_l1,psnr_analog"
    assert TRACE_HEADER == "event,step,stage,device,src,dst,label,kind,start,end,nbytes"


def test_simulate_writes_metrics_and_trace(tmp_path, capsys):
    cfg = write_config(tmp_path, variant="hybrid", **SMALL)
    out = tmp_path / "run"
    code, stdout, _ = run_cli(["simulate", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert set(payload) == METRIC_KEYS
    assert payload == json.loads((out / "metrics.json").read_text())
    assert payload["tau1"] == 3 and payload["tau2"] == 7
    assert payload["speedup"] > 1.0

    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == TRACE_HEADER
    assert all(len(ln.split(",")) == 11 for ln in trace_lines)
    structured = json.loads((out / "trace.json").read_text())
    assert set(structured) == {"busy", "messages"}
    assert len(structured["busy"]) == sum(1 for ln in trace_lines[1:]
                                          if ln.startswith("busy,"))


def test_simulate_serial_psnr_is_null(tmp_path, capsys):
    cfg = write_config(tmp_path, variant="serial", **SMALL)
    code, stdout, _ = run_cli(["simulate", "--config", cfg,
                               "--out", str(tmp_path / "run")], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["psnr_analog"] is None
    assert payload["speedup"] == 1.0 and payload["fidelity_l1"] == 0.0


def test_simulate_requires_out_dir(capsys, monkeypatch):
    """With neither --out nor config out_dir, simulate fails before either run."""
    calls = record_runners(monkeypatch)
    code, stdout, stderr = run_cli(["simulate"], capsys)
    assert code == 1 and stdout == "" and len(stderr.splitlines()) == 1
    assert json.loads(stderr) == {
        "error": "PlanError",
        "message": "simulate needs an output directory (--out or config out_dir)"}
    assert calls == []


OUT_FILES = {"metrics.json", "trace.csv", "trace.json"}


def test_simulate_writes_to_config_out_dir_and_out_wins(tmp_path, capsys):
    configured = tmp_path / "configured"
    cfg = write_config(tmp_path, variant="hybrid", out_dir=str(configured), **SMALL)
    code, stdout, _ = run_cli(["simulate", "--config", cfg], capsys)
    assert code == 0
    assert {p.name for p in configured.iterdir()} == OUT_FILES
    assert json.loads((configured / "metrics.json").read_text()) == json.loads(stdout)

    flag = tmp_path / "flag"
    written = {p: p.read_bytes() for p in configured.iterdir()}
    code, _, _ = run_cli(["simulate", "--config", cfg, "--out", str(flag)], capsys)
    assert code == 0
    assert {p.name for p in flag.iterdir()} == OUT_FILES
    assert {p: p.read_bytes() for p in configured.iterdir()} == written
    for name in OUT_FILES:
        assert (flag / name).read_bytes() == written[configured / name]


def test_batch_level_segment_fractions_need_two_entries(tmp_path, capsys):
    """A batch_level plan reads the config's fractions, two per pair."""
    cfg = write_config(tmp_path, devices=4, segment_fractions=[0.25] * 4, **SMALL)
    code, stdout, stderr = run_cli(["simulate", "--config", cfg, "--variant", "batch_level",
                                    "--out", str(tmp_path / "run")], capsys)
    assert code == 1 and stdout == "" and len(stderr.splitlines()) == 1
    err = json.loads(stderr)
    assert err["error"] == "PlanError"
    assert "segment_fractions must have 2 entries, got 4" in err["message"]


def test_simulate_reruns_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, variant="hybrid", **SMALL)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run_cli(["simulate", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0
        outs.append(out)
    for fname in ("metrics.json", "trace.csv", "trace.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


# curve -------------------------------------------------------------------------------

def test_curve_rows_measured_equals_predicted():
    cfg = ExperimentConfig.from_dict(dict(condition_batch=8, seeds=[0]))
    rows = curve_rows(cfg)
    assert len(rows) == 50
    assert [r[0] for r in rows] == list(range(50, 0, -1))
    for _, measured, predicted, lo, hi in rows:
        assert math.isclose(measured, predicted, rel_tol=1e-10)
        assert lo <= measured <= hi


@pytest.mark.parametrize("body", [{}, {"preset": "sd3-like"}, {"conditions": [[0, 1], [2]]},
                                  {"condition_batch": 1}],
                         ids=["default", "sd3-like", "multi-index", "batch-1"])
def test_curve_is_the_serial_run_of_the_exact_path(monkeypatch, body):
    """curve's (t, rel_mae) columns are the series of a serial run on an
    ExactPath bit for bit, and each of its rows is one engine exact step."""
    import hybridpar.engine as engine
    from hybridpar.plan import PlanVariant
    cfg = ExperimentConfig.from_dict(body)
    serial = engine.run_serial(cfg.to_plan(variant=PlanVariant.SERIAL))
    steps = []
    exact = engine._exact_step

    def counting_exact(stack, x, t):
        steps.append(t)
        return exact(stack, x, t)

    monkeypatch.setattr(engine, "_exact_step", counting_exact)
    rows = curve_rows(cfg)
    assert [(t, m.hex()) for t, m, *_ in rows] == [(t, m.hex()) for t, m in serial.series]
    assert steps == [t for t, *_ in rows] == list(range(cfg.schedule.T, 0, -1))


@pytest.mark.parametrize("huge, error, message", [
    (1e308, "NumericError", "non-finite values in branch outputs"),
    (1.0, "DegenerateInputError", "reference branch has zero L1 norm")])
def test_curve_reports_an_overflowing_step_before_a_zero_reference_row(
        monkeypatch, tmp_path, capsys, huge, error, message):
    """A row whose eps_u is all zero fails curve's per-row band, which runs
    after the step: when one eps_c value of the step is so large that the
    guided estimate (eps_c + 2 (eps_c - eps_u)) overflows, ddim_step's
    NumericError is reported, else the band's DegenerateInputError."""
    import hybridpar.engine as engine
    branches = engine._branches

    def zero_reference_row(stack, x, t):
        eps_c, eps_u = branches(stack, x, t)
        eps_u[0, 0] = 0.0
        eps_c[0, 1, 0] = huge
        return eps_c, eps_u

    monkeypatch.setattr(engine, "_branches", zero_reference_row)
    cfg = write_config(tmp_path, condition_batch=4, seeds=[0], guidance_w=2.0)
    code, _, err = run_cli(["curve", "--config", cfg, "--out", str(tmp_path / "c.csv")],
                           capsys)
    assert code == 1
    assert json.loads(err) == {"error": error, "message": message}


def test_curve_zero_when_condition_spans_mixture():
    cfg = ExperimentConfig.from_dict(dict(condition_batch=4, seeds=[0],
                                          conditions=[[0, 1, 2, 3]]))
    for _, measured, predicted, lo, hi in curve_rows(cfg):
        assert measured == 0.0 and predicted == 0.0
        assert lo == hi == 0.0


def test_curve_file_marks_single_argmin(tmp_path, capsys):
    cfg = write_config(tmp_path, condition_batch=8, seeds=[0])
    out = tmp_path / "curve.csv"
    code, _, _ = run_cli(["curve", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CURVE_HEADER
    assert len(lines) == 51
    flags = [ln.rsplit(",", 1)[1] for ln in lines[1:]]
    assert flags.count("1") == 1
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert values[flags.index("1")] == min(values)


# detect ------------------------------------------------------------------------------

def write_series(tmp_path, pairs, name="series.csv", header=None) -> str:
    lines = ([header] if header else []) + [f"{t},{m}" for t, m in pairs]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_detect_flat_series_fires_when_window_fills(tmp_path, capsys):
    series = write_series(tmp_path, [(t, 0.2) for t in range(50, 0, -1)])
    code, stdout, _ = run_cli(["detect", "--series", series], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert set(payload) == {"stages", "tau1", "tau2"}
    # default window L=12 first closes on step 13, inside the cap of 15
    assert payload["tau1"] == 13 and payload["tau2"] == 18
    assert payload["stages"][12] == "warm_up"
    assert payload["stages"][13:18] == ["parallelism"] * 5
    assert payload["stages"][18] == "fully_connecting"


def test_detect_cap_precedes_window_fill(tmp_path, capsys):
    cfg = write_config(tmp_path, switch={"L": 15, "tau_cap": 15})
    series = write_series(tmp_path, [(t, 0.2) for t in range(50, 0, -1)])
    code, stdout, _ = run_cli(["detect", "--series", series,
                               "--config", cfg], capsys)
    assert code == 0
    assert json.loads(stdout)["tau1"] == 15


def test_detect_rejects_a_zero_tau_cap(tmp_path, capsys):
    """With no measured step before it, a window could not span exactly k
    steps: every command rejects tau_cap = 0, detect included."""
    cfg = write_config(tmp_path, switch={"L": 1, "tau_cap": 0, "k": 2})
    series = write_series(tmp_path, [(t, 0.2) for t in range(50, 0, -1)])
    code, stdout, stderr = run_cli(["detect", "--series", series, "--config", cfg], capsys)
    assert code == 1
    assert stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "ParameterError" and "tau_cap" in err["message"]


def test_detect_consumes_curve_output(tmp_path, capsys):
    """Headered curve CSV feeds straight back into detection, and the replay
    lands on the same switch points the live run used."""
    out_curve = tmp_path / "curve.csv"
    code, _, _ = run_cli(["curve", "--out", str(out_curve)], capsys)
    assert code == 0
    code, stdout, _ = run_cli(["detect", "--series", str(out_curve)], capsys)
    assert code == 0
    detected = json.loads(stdout)

    code, stdout, _ = run_cli(["simulate", "--variant", "hybrid",
                               "--out", str(tmp_path / "run")], capsys)
    assert code == 0
    simulated = json.loads(stdout)
    assert detected["tau1"] == simulated["tau1"] == 15
    assert detected["tau2"] == simulated["tau2"] == 20


def test_read_series_accepts_bare_columns(tmp_path):
    path = write_series(tmp_path, [(3, 0.5), (2, 0.4), (1, 0.3)])
    assert series_pairs(path) == [(3, 0.5), (2, 0.4), (1, 0.3)]


@pytest.mark.parametrize("header", [None, "t,rel_mae"], ids=["bare", "headered"])
def test_detect_accepts_a_utf8_byte_order_mark(tmp_path, capsys, header):
    """A series file that starts with a BOM, as spreadsheet exports write,
    parses and detects as the same file without one."""
    pairs = [(t, 0.2) for t in range(50, 0, -1)]
    plain = write_series(tmp_path, pairs, header=header)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "series.csv").read_bytes())
    assert series_pairs(str(bom)) == series_pairs(plain) == pairs
    outputs = [run_cli(["detect", "--series", path], capsys) for path in (plain, str(bom))]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_read_series_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(SeriesParseError):
        series_pairs(path)


def test_detect_bad_rows_report_line_numbers(tmp_path, capsys):
    series = write_series(tmp_path, [(50, 0.5), (49, 0.4)])
    with open(series, "a", encoding="utf-8") as fh:
        fh.write("48,not_a_number\n")
    code, _, stderr = run_cli(["detect", "--series", series], capsys)
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "SeriesParseError"
    assert err["line"] == 3


def test_detect_header_must_name_columns(tmp_path, capsys):
    series = write_series(tmp_path, [(50, 0.5)], header="time,value")
    code, _, stderr = run_cli(["detect", "--series", series], capsys)
    assert code == 1
    assert json.loads(stderr)["line"] == 1


def test_detect_header_error_names_the_header_line(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("\n\nstep,value\n3,0.5\n", encoding="utf-8")
    code, _, stderr = run_cli(["detect", "--series", str(series)], capsys)
    assert code == 1
    err = json.loads(stderr)
    assert err["line"] == 3
    assert err["message"].startswith("line 3: header must name columns")


def test_detect_missing_file_is_clean_failure(capsys):
    code, _, stderr = run_cli(["detect", "--series", "/nonexistent.csv"], capsys)
    assert code == 1
    assert json.loads(stderr)["error"] == "FileNotFoundError"


def test_detect_non_descending_series_rejected(tmp_path, capsys):
    series = write_series(tmp_path, [(10, 0.5), (11, 0.4)])
    code, _, stderr = run_cli(["detect", "--series", series], capsys)
    assert code == 1
    assert json.loads(stderr) == {"error": "SequencingError",
                                  "message": "t=11 recorded after t=10; series must descend"}


# sweep -------------------------------------------------------------------------------

def test_sweep_orders_and_flags_infeasible(tmp_path, capsys):
    cfg = write_config(tmp_path, seeds=[0, 1], **{k: v for k, v in SMALL.items()
                                                  if k != "seeds"})
    code, stdout, _ = run_cli(["sweep", "--config", cfg, "--k", "40,0,4"], capsys)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "4", "40"]
    assert lines[3] == "40,infeasible,,,,"

    k0 = lines[1].split(",")
    k4 = lines[2].split(",")
    assert k0[1] == k4[1] == "ok"
    # k=0 reproduces serial numerics: zero error, empty psnr cell
    assert float(k0[4]) == 0.0 and k0[5] == ""
    assert float(k4[2]) < float(k0[2])
    assert float(k4[4]) > 0.0 and k4[5] != ""


def test_sweep_empty_k_list(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    cfg = write_config(tmp_path, **SMALL)
    code, stdout, _ = run_cli(["sweep", "--config", cfg, "--k", "",
                               "--out", str(out)], capsys)
    assert code == 0
    assert stdout == ""
    assert out.read_text() == SWEEP_HEADER + "\n"


@pytest.mark.parametrize("body, message", [
    ({"schedule": {"T": 10}}, "slope window L=12 must be < T=10"),
    ({"devices": 4, "variant": "layer_wise", "segment_fractions": [0.25] * 4},
     "segment_fractions must have 2 entries, got 4"),
], ids=["short-schedule", "four-segments"])
def test_sweep_without_a_hybrid_plan_is_one_json_error(tmp_path, capsys, body, message):
    """Every run shares a store built from the k = 0 hybrid plan: a config
    with none fails once, whatever the k values."""
    cfg = write_config(tmp_path, seeds=[0], condition_batch=4, **body)
    code, stdout, stderr = run_cli(["sweep", "--config", cfg, "--k", "0,1"], capsys)
    assert code == 1
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert json.loads(stderr) == {"error": "PlanError", "message": message}


def test_sweep_rejects_bad_k(capsys):
    code, stdout, stderr = run_cli(["sweep", "--k", "3,x"], capsys)
    assert code == 1
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    err = json.loads(stderr)
    assert err["error"] == "ParameterError"
    assert "3,x" in err["message"]


# a space inside a token, an empty token, a repeated k (however it is
# written), digits int() reads but a k list should not, and a 5000-digit k
K_TYPOS = {"space": "5 10", "empty": "5,,6", "repeated": "5,5", "trailing": "5,",
           "leading": ",5", "signed-repeat": "+0, 0, -0", "padded-repeat": "05,5",
           "underscore": "1_0", "arabic-indic": "\u0665", "fullwidth": "\uff15",
           "sign-only": "-", "huge": "9" * 5000}


@pytest.mark.parametrize("k", K_TYPOS.values(), ids=list(K_TYPOS))
def test_sweep_rejects_a_k_list_typo(tmp_path, capsys, monkeypatch, k):
    """A typo in --k is one ParameterError that quotes the list, and no run."""
    calls = record_runners(monkeypatch)
    cfg = write_config(tmp_path, **SMALL)
    code, stdout, stderr = run_cli(["sweep", "--config", cfg, "--k", k], capsys)
    assert (code, stdout, calls) == (1, "", [])
    assert len(stderr.splitlines()) == 1
    err = json.loads(stderr)
    assert err["error"] == "ParameterError"
    assert repr(k)[:50] in err["message"]


@pytest.mark.parametrize("k, ks", [("0, 5", ["0", "5"]), (" 4 ,\t-1 ", ["-1", "4"]),
                                   ("+4", ["4"]), ("   ", [])],
                         ids=["space-after-comma", "padded", "plus", "blank"])
def test_sweep_k_tokens_may_carry_surrounding_whitespace_and_a_sign(tmp_path, capsys, k, ks):
    cfg = write_config(tmp_path, **SMALL)
    code, stdout, stderr = run_cli(["sweep", "--config", cfg, "--k", k], capsys)
    assert (code, stderr) == (0, "")
    lines = stdout.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert [ln.split(",")[0] for ln in lines[1:]] == ks


# one integer rule: token -> its value, or None where every reader rejects it
INT_TOKENS = {"plain": ("7", 7), "plus": ("+7", 7), "padded": (" 7 ", 7),
              "minus-zero": ("-0", 0), "underscore": ("1_0", None),
              "arabic-indic": ("\u0663", None), "fullwidth": ("\uff17", None),
              "float": ("7.0", None), "empty": ("", None)}


@pytest.mark.parametrize("token, want", INT_TOKENS.values(), ids=list(INT_TOKENS))
def test_seed_k_and_series_t_share_one_integer_rule(tmp_path, capsys, monkeypatch,
                                                    token, want):
    """The same token as a --k list entry, as --seed and as a series t field."""
    import hybridpar.cli as cli
    seeds = []

    def stop(plan):             # record the seed simulate runs, and run nothing
        seeds.append(plan.seed)
        raise PlanError("stopped")

    monkeypatch.setattr(cli, "run_plan", stop)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, **SMALL)
    code, _, stderr = run_cli(["simulate", "--config", cfg, "--seed", token, "--out", "run"],
                              capsys)
    series = tmp_path / "series.csv"
    series.write_text(f"t,rel_mae\n{token},0.5\n", encoding="utf-8")
    if want is not None:
        assert cli._parse_k_list(f"5,{token}") == sorted([5, want])
        assert (code, seeds) == (1, [want])
        assert series_pairs(str(series)) == [(want, 0.5)]
        return
    with pytest.raises(ParameterError, match="^bad k list"):
        cli._parse_k_list(f"5,{token}")
    assert (code, seeds) == (1, [])
    assert json.loads(stderr) == {"error": "ParameterError",
                                  "message": f"--seed must be an integer, got {token!r}"}
    with pytest.raises(SeriesParseError, match="^line 2: bad numeric fields"):
        series_pairs(str(series))
    assert not (tmp_path / "run").exists()


def test_sweep_negative_k_is_an_infeasible_row(tmp_path, capsys):
    cfg = write_config(tmp_path, **SMALL)
    code, stdout, stderr = run_cli(["sweep", "--config", cfg, "--k=-1,4"], capsys)
    assert code == 0
    assert stderr == ""
    lines = stdout.splitlines()
    assert lines[:2] == [SWEEP_HEADER, "-1,infeasible,,,,"]
    assert lines[2].startswith("4,ok,")


def test_a_negative_k_list_takes_the_equals_form(tmp_path, capsys):
    """As the README says: argparse reads `--k -1,0` as an option, so the
    list needs `--k=-1,0`, which writes the negative k's infeasible row."""
    cfg = write_config(tmp_path, **SMALL)
    code, stdout, stderr = run_cli(["sweep", "--config", cfg, "--k", "-1,0"], capsys)
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {"error": "ParameterError",
                                  "message": "argument --k: expected one argument"}
    code, stdout, stderr = run_cli(["sweep", "--config", cfg, "--k=-1,0"], capsys)
    assert (code, stderr) == (0, "")
    lines = stdout.splitlines()
    assert lines[:2] == [SWEEP_HEADER, "-1,infeasible,,,,"]
    assert lines[2].startswith("0,ok,") and len(lines) == 3


def test_sweep_calls_each_runner_once_per_plan(tmp_path, capsys, monkeypatch):
    calls = record_runners(monkeypatch)
    seeds = [4, 0, 9]
    cfg = write_config(tmp_path, seeds=seeds, **{k: v for k, v in SMALL.items()
                                                 if k != "seeds"})
    code, stdout, _ = run_cli(["sweep", "--config", cfg, "--k", "0,2,40,4"], capsys)
    assert code == 0
    assert stdout.splitlines()[-1] == "40,infeasible,,,,"
    assert all(len(args) == 1 and not kwargs for _, args, kwargs in calls)
    got = [(name, args[0].seed, args[0].variant.value,
            None if args[0].switch is None else args[0].switch.k)
           for name, args, _ in calls]
    want = [(name, seed, variant, k) for seed in seeds
            for name, variant, k in [("serial", "serial", None),
                                     ("plan", "hybrid", 0), ("plan", "hybrid", 2),
                                     ("plan", "hybrid", 4)]]
    assert got == want


@pytest.mark.parametrize("k, rows", [("", []), ("60", ["60,infeasible,,,,"])],
                         ids=["empty", "infeasible"])
def test_sweep_with_no_feasible_k_runs_nothing(tmp_path, capsys, monkeypatch, k, rows):
    """No row reads a serial baseline, so none is run."""
    calls = record_runners(monkeypatch)
    cfg = write_config(tmp_path, seeds=[4, 0, 9], **{key: v for key, v in SMALL.items()
                                                     if key != "seeds"})
    code, stdout, stderr = run_cli(["sweep", "--config", cfg, "--k", k], capsys)
    assert (code, stderr) == (0, "")
    assert stdout == "\n".join([SWEEP_HEADER] + rows) + "\n"
    assert calls == []


def test_link_byte_sizes_accept_whole_numbers():
    link = ExperimentConfig.from_dict({"link": {"latent_bytes": 4096.0,
                                                "activation_bytes": 2 ** 60 + 1}}).link
    assert link.message_bytes_latent == 4096
    assert link.message_bytes_activation == 2 ** 60 + 1


# config validation through the CLI ----------------------------------------------------

def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, bogus=1)
    series = write_series(tmp_path, [(50, 0.5)])
    code, _, stderr = run_cli(["detect", "--series", series, "--config", cfg], capsys)
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "ParameterError"
    assert "bogus" in err["message"]


BAD_CONFIG_VALUES = [
    ({"devices": 0}, "devices"),
    ({"guidance_w": "abc"}, "guidance_w"),
    ({"segment_fractions": "ab"}, "segment_fractions"),
    ({"cfg_batching_factor": "x"}, "cfg_batching_factor"),
    ({"conditions": [5]}, "conditions"),
    ({"switch": {"g_slope": "x"}}, "g_slope"),
    ({"seeds": 5}, "seeds"),
    ({"schedule": 5}, "schedule"),
    ({"link": {"latent_bytes": "x"}}, "latent_bytes"),
    ({"mixture": {"weights": "a", "means": [[0]], "variances": [[1]]}}, "mixture"),
    ({"switch": {"tua_cap": 3}}, "switch.tua_cap"),
    ({"link": {"bandwith": 5}}, "link.bandwith"),
    ({"schedule": {"TT": 3}}, "schedule.TT"),
    ({"mixture": {"weights": [1], "means": [[0]], "variances": [[1]], "wieghts": [1]}},
     "mixture.wieghts"),
    ({"link": {"latent_bytes": 4096.5}}, "link.latent_bytes"),
    ({"link": {"activation_bytes": 1e400}}, "link.activation_bytes"),
    ({"preset": ["sdxl-like"]}, "preset"),
    ({"variant": {"hybrid": 1}}, "variant"),
    # counts above their documented bounds, rejected before anything is sized
    ({"devices": 10 ** 21}, "devices"),
    ({"devices": 65}, "devices"),
    ({"devices": [0.1] * 65}, "devices"),
    ({"condition_batch": 2 ** 70}, "condition_batch"),
    ({"schedule": {"T": 10 ** 8}}, "schedule.T"),
    ({"switch": {"L": 10 ** 8}}, "switch.L"),
    ({"switch": {"tau_cap": 2 ** 64}}, "switch.tau_cap"),
    ({"switch": {"k": 1001}}, "switch.k"),
    ({"seeds": [0, 2 ** 63]}, "seeds"),
    ({"guidance_w": 10 ** 400}, "guidance_w"),
    ({"link": {"latent_bytes": 10 ** 400}}, "link.latent_bytes"),
    # 20000 seeds of 4096 rows would stack 5 GB of latents
    ({"seeds": list(range(20000)), "condition_batch": 4096}, "seeds"),
    # sweep means would count a repeated seed twice
    ({"seeds": [0, 0, 1]}, "seeds"),
    # a device cost must be finite and > 0
    ({"devices": [0, 1]}, "branch_step_cost"),
]


@pytest.mark.parametrize("body, key", BAD_CONFIG_VALUES)
def test_bad_config_value_is_one_json_error(tmp_path, capsys, body, key):
    cfg = write_config(tmp_path, **body)
    code, stdout, stderr = run_cli(["simulate", "--config", cfg,
                                    "--out", str(tmp_path / "run")], capsys)
    assert code == 1
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    err = json.loads(stderr)
    assert err["error"] == "ParameterError"
    assert key in err["message"]


@pytest.mark.parametrize("command", ["simulate", "curve", "detect", "sweep"])
def test_a_zero_dimensional_mixture_is_one_json_error(tmp_path, capsys, command):
    """Every command builds the mixture a config sets, detect too, and a
    mixture of no dimensions fails there, before any branch kernel runs."""
    cfg = write_config(tmp_path, mixture={"weights": [1], "means": [[]], "variances": [[]]})
    argv = {"simulate": ["--out", str(tmp_path / "run")],
            "curve": ["--out", str(tmp_path / "curve.csv")],
            "detect": ["--series", write_series(tmp_path, [(3, 0.5), (2, 0.4), (1, 0.4)])],
            "sweep": ["--k", "0,5"]}[command]
    code, stdout, stderr = run_cli([command, "--config", cfg, *argv], capsys)
    assert (code, stdout) == (1, "")
    assert len(stderr.splitlines()) == 1
    assert json.loads(stderr) == {"error": "ParameterError",
                                  "message": "mixture needs at least one dimension"}


@pytest.mark.parametrize("body, key", [
    ({"switch": {"L": True}}, "L"),
    ({"switch": {"tau_cap": True}}, "tau_cap"),
    ({"switch": {"k": True}}, "k"),
    ({"seeds": [True]}, "seeds"),
    ({"condition_batch": True}, "condition_batch"),
    ({"devices": True}, "devices"),
    ({"guidance_w": True}, "guidance_w"),
    ({"schedule": {"T": True}}, "T"),
])
def test_bool_is_not_an_integer(body, key):
    """Each error starts with the key's dotted path: switch.L, not L."""
    (name, value), = body.items()
    path = f"{name}.{key}" if isinstance(value, dict) else key
    with pytest.raises(ParameterError, match=rf"^{re.escape(path)} must"):
        ExperimentConfig.from_dict(body)


@pytest.mark.parametrize("body", [
    {"guidance_w": 10 ** 5000},
    {"switch": {"L": 10 ** 5000}},
    {"seeds": [-10 ** 5000]},
    {"devices": 10 ** 5000},
    {"link": {"latent_bytes": 10 ** 5000}},
], ids=["number", "count", "seed", "devices", "bytes"])
def test_an_integer_too_long_to_print_is_a_parameter_error(body):
    """repr raises ValueError past 4300 digits; the error shows it in hex."""
    with pytest.raises(ParameterError):
        ExperimentConfig.from_dict(body)


def test_plan_seed_rejects_bool():
    with pytest.raises(PlanError, match="seed"):
        ExperimentConfig.from_dict({}).to_plan(seed=True)


@pytest.mark.parametrize("content, config_error", [
    (b"{not json", "JSONDecodeError"),
    ('{"out_dir": "café"}'.encode("latin-1"), "ParameterError"),
    (b"[" * 100000, "ParameterError"),      # deeper than the parser recurses
    # an integer literal longer than int() converts (4300 digits)
    (b'{"guidance_w": ' + b"1" * 5000 + b"}", "ParameterError"),
    # bad model values: checked while parsing, though detect reads no model
    (b'{"schedule": {"beta_start": 1}}', "ParameterError"),
    (b'{"mixture": {"weights": [1], "means": [[0]], "variances": [[-1]]}}', "ParameterError"),
    (b'{"conditions": [[]]}', "ParameterError"),
    # a repeated key, at the top level or nested: the last value would win
    (b'{"seeds": [0], "seeds": [1]}', "ParameterError"),
    (b'{"switch": {"L": 3, "L": 4}}', "ParameterError"),
], ids=["not-json", "not-utf8", "too-deep", "long-int", "bad-schedule", "bad-mixture",
        "bad-conditions", "dup-top", "dup-nested"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "run", "--config"],
    ["curve", "--out", "curve.csv", "--config"],
    ["detect", "--series", "series.csv", "--config"],
    ["sweep", "--k", "1", "--config"],
    ["detect", "--series"],
], ids=["simulate", "curve", "detect", "sweep", "detect-series"])
def test_malformed_json_config(tmp_path, capsys, monkeypatch, content, config_error, argv):
    """An unreadable --config (or --series) file, or a config with a bad
    model value, exits 1 with one JSON object on stderr, whatever the
    command."""
    monkeypatch.chdir(tmp_path)
    write_series(tmp_path, [(50, 0.5), (49, 0.4)])
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    code, stdout, stderr = run_cli(argv + [str(path)], capsys)
    assert code == 1
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    want = "SeriesParseError" if argv[-1] == "--series" else config_error
    assert json.loads(stderr)["error"] == want


@pytest.mark.parametrize("content, key", [
    (b'{"seeds": [0], "seeds": [1]}', "seeds"),
    (b'{"switch": {"L": 3, "tau_cap": 4, "L": 4}}', "L"),
], ids=["top", "nested"])
def test_a_repeated_config_key_is_named(tmp_path, content, key):
    path = tmp_path / "dup.json"
    path.write_bytes(content)
    with pytest.raises(ParameterError, match=f"config key '{key}' is repeated"):
        load_config(str(path))


@pytest.mark.parametrize("argv, out", [
    (["simulate", "--out", "run"], "run/trace.json"),       # stdout holds the metrics
    (["curve", "--out", "curve.csv"], "curve.csv"),
    (["detect", "--series", "series.csv"], None),
    (["sweep", "--k", "0,5"], None),
], ids=["simulate", "curve", "detect", "sweep"])
def test_a_config_with_a_byte_order_mark(tmp_path, capsys, monkeypatch, argv, out):
    """A config file that starts with a UTF-8 BOM, as some editors and
    spreadsheet exports write, runs as the same file without one."""
    monkeypatch.chdir(tmp_path)
    write_series(tmp_path, [(t, 0.2) for t in range(50, 0, -1)])
    plain = write_config(tmp_path, seeds=[0], condition_batch=8)
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "cfg.json").read_bytes())
    results = []
    for path in (plain, str(bom)):
        code, stdout, stderr = run_cli(argv + ["--config", path], capsys)
        results.append((code, stdout, stderr, (tmp_path / out).read_bytes() if out else b""))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][2] == ""


@pytest.mark.parametrize("body", [
    {"devices": [1e308, 1e308]},
    {"link": {"base_latency_s": 1e308}},
    {"link": {"bandwidth_bytes_per_s": 1e-320}},
], ids=["step-cost", "link-latency", "bandwidth"])
@pytest.mark.parametrize("argv", [["simulate", "--out", "run"], ["sweep", "--k", "0,5"]],
                         ids=["simulate", "sweep"])
def test_non_finite_virtual_time_is_one_json_error(tmp_path, capsys, monkeypatch, body, argv):
    """A virtual clock that overflows to inf would print latency inf and
    speedup nan; it is a NumericError instead."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, seeds=[0], condition_batch=4, **body)
    code, stdout, stderr = run_cli(argv + ["--config", cfg], capsys)
    assert (code, stdout) == (1, "")
    assert len(stderr.splitlines()) == 1
    assert json.loads(stderr)["error"] == "NumericError"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "3", "--out", "run"],
    ["simulate", "--seed", "3", "--variant", "serial", "--out", "run"],
    ["curve", "--out", "run"],
], ids=["simulate", "simulate-serial", "curve"])
def test_non_finite_x0_is_one_json_error(tmp_path, capsys, monkeypatch, argv):
    """x0 that overflows would be written as NaN fidelity metrics; the exact
    step that makes it raises instead, and the command writes nothing."""
    import hybridpar.engine as engine
    monkeypatch.chdir(tmp_path)
    original = engine.ddim_step

    def overflowing(x, t, eps, sched):
        out = original(x, t, eps, sched)
        return np.full_like(out, np.inf) if t == 1 else out

    monkeypatch.setattr(engine, "ddim_step", overflowing)
    code, stdout, stderr = run_cli(argv, capsys)
    assert (code, stdout) == (1, "")
    assert len(stderr.splitlines()) == 1
    assert json.loads(stderr) == {"error": "NumericError",
                                  "message": "latents at t=0 are not finite"}
    assert not (tmp_path / "run").exists()


def test_running_out_of_memory_is_one_json_error(tmp_path):
    """A config inside every documented bound can ask for more memory than
    the process may take: a mixture's K and d are bounded only by the
    document's size. One seed's 4096 rows against a K = 256, d = 256
    mixture need a 2 GiB (rows, K, d) array; under a 1 GiB address-space
    limit numpy's MemoryError is one JSON line, as every failure is."""
    import os
    import resource
    K = d = 256
    cfg = write_config(tmp_path, seeds=[0], condition_batch=4096,
                       mixture={"weights": [1] * K, "means": [[0] * d] * K,
                                "variances": [[1] * d] * K})

    def limit():
        resource.setrlimit(resource.RLIMIT_AS,
                           (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))

    # numpy's BLAS reserves address space per thread when it loads
    proc = subprocess.run([sys.executable, "-m", "hybridpar.cli", "sweep", "--config", cfg,
                           "--k", "0"], capture_output=True, text=True, preexec_fn=limit,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "MemoryError" and err["message"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "abc"],
    ["sweep"],
    ["simulate", "--variant", "bogus"],
    ["bogus"],
    [],
    ["simulate", "--seed", "99999999999999999999999", "--out", "run"],
    ["simulate", "--seed", "-1", "--out", "run"],
    ["simulate", "--seed", "1_0", "--out", "run"],
    ["simulate", "--seed", "\u0663", "--out", "run"],
    ["simulate", "--seed", "\uff17", "--out", "run"],
], ids=["seed-not-int", "sweep-without-k", "bad-variant", "unknown-command",
        "no-command", "seed-above-bound", "negative-seed", "seed-underscore",
        "seed-arabic-indic", "seed-fullwidth"])
def test_usage_error_is_one_json_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli(argv, capsys)
    assert (code, stdout) == (1, "")
    assert len(stderr.splitlines()) == 1
    err = json.loads(stderr)
    assert err["error"] == "ParameterError"
    if argv[1:2] == ["--seed"]:
        assert "--seed" in err["message"] and argv[2] in err["message"]
    assert not (tmp_path / "run").exists()


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hybridpar simulate")


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys, monkeypatch):
    """main builds its parser on the first call and reuses it: across simulate,
    detect, sweep, a usage error and --help it is built once."""
    import hybridpar.cli as cli
    monkeypatch.chdir(tmp_path)
    series = write_series(tmp_path, [(t, 0.2) for t in range(50, 0, -1)])
    cfg = write_config(tmp_path, **SMALL)
    cli._build_parser.cache_clear()
    assert run_cli(["simulate", "--config", cfg, "--out", "run"], capsys)[0] == 0
    assert run_cli(["detect", "--series", series], capsys)[0] == 0
    assert run_cli(["sweep", "--config", cfg, "--k", "0,2"], capsys)[0] == 0
    assert run_cli(["simulate", "--seed", "abc"], capsys)[0] == 1
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_a_call_after_a_usage_error_prints_what_it_prints_alone(tmp_path, capsys):
    """Parsing leaves nothing on the shared parser: detect and --help print
    the same bytes after a usage error as on a parser built for them."""
    import hybridpar.cli as cli
    series = write_series(tmp_path, [(t, 0.2) for t in range(50, 0, -1)])

    def help_text(argv):
        with pytest.raises(SystemExit):
            main(argv)
        return capsys.readouterr()

    calls = [lambda: run_cli(["detect", "--series", series], capsys),
             lambda: help_text(["detect", "--help"]),
             lambda: help_text(["--help"])]
    alone = []
    for call in calls:
        cli._build_parser.cache_clear()
        alone.append(call())
    for call, want in zip(calls, alone):
        code, stdout, stderr = run_cli(["simulate", "--seed", "abc"], capsys)
        assert (code, stdout) == (1, "") and json.loads(stderr)["error"] == "ParameterError"
        assert call() == want
    assert cli._build_parser.cache_info().misses == 1


def test_module_entry_point(tmp_path):
    series = tmp_path / "s.csv"
    series.write_text("50,0.5\n49,0.4\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "hybridpar.cli",
                           "detect", "--series", str(series)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tau1"] is None
