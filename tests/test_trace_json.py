"""simulate's trace.json and metrics.json and detect's stdout against
json.dumps, and simulate's trace.csv against a writer that formats each
field by a call.

The JSON outputs are written from one template per event, label or file. The
reference below is the trace.json writer as it was when it built dicts and
passed them to json.dumps(..., sort_keys=True, indent=2): the templates must
write the same bytes for every trace, non-finite times and empty traces
included. trace.csv's reference calls cli._fmt once per time field, where
_write_trace spells each distinct time once. The second reference is the
writer pair as it was when it formatted every time field inline.
"""
import io
import json
import os
from json.encoder import encode_basestring_ascii as _json_str
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

from hybridpar.cli import TRACE_HEADER, _fmt, _write_trace, main, read_series_columns
from hybridpar.config import ExperimentConfig
from hybridpar.engine import PlanVariant, RunResult, run_plan
from hybridpar.metrics import compare_runs
from hybridpar.monitor import replay_series
from hybridpar.trace import BusyInterval, MessageEvent, RunTrace


def series_pairs(path: str) -> list[tuple[int, float]]:
    """The (t, discrepancy) pairs of read_series_columns(path)."""
    return list(zip(*read_series_columns(path)))


# reference: the json.dumps writer -------------------------------------------------

def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def ref_write_trace_json(result: RunResult, out_dir: str) -> None:
    structured = {
        "busy": [{"device": b.device, "start": b.start, "end": b.end,
                  "step": b.step, "stage": b.stage, "label": b.label}
                 for b in result.trace.busy],
        "messages": [{"src": m.src, "dst": m.dst, "kind": m.kind,
                      "nbytes": m.nbytes, "depart": m.depart,
                      "arrive": m.arrive, "step": m.step}
                     for m in result.trace.messages],
    }
    with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
        fh.write(_json_dumps(structured))


def ref_write_trace_csv(result: RunResult, out_dir: str) -> None:
    rows = [TRACE_HEADER]
    for b in result.trace.busy:
        rows.append(f"busy,{b.step},{b.stage},{b.device},,,{b.label},,"
                    f"{_fmt(b.start)},{_fmt(b.end)},")
    for m in result.trace.messages:
        rows.append(f"message,{m.step},,,{m.src},{m.dst},,{m.kind},"
                    f"{_fmt(m.depart)},{_fmt(m.arrive)},{m.nbytes}")
    with open(os.path.join(out_dir, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


# reference: the writers that formatted every time inline --------------------------

_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_NON_FINITE.get(text, text)


def _json_list(items: str) -> str:
    return f"[\n{items}\n  ]" if items else "[]"


class _Escaped(dict):
    def __missing__(self, text: str) -> str:
        self[text] = escaped = _json_str(text)
        return escaped


def inline_trace_json(trace: RunTrace) -> str:
    s, f = _Escaped(), _json_float
    busy = ",\n".join(
        f'    {{\n      "device": {s[b.device]},\n      "end": {f(b.end)},\n'
        f'      "label": {s[b.label]},\n      "stage": {s[b.stage]},\n'
        f'      "start": {f(b.start)},\n      "step": {b.step}\n    }}'
        for b in trace.busy)
    messages = ",\n".join(
        f'    {{\n      "arrive": {f(m.arrive)},\n      "depart": {f(m.depart)},\n'
        f'      "dst": {s[m.dst]},\n      "kind": {s[m.kind]},\n'
        f'      "nbytes": {m.nbytes},\n      "src": {s[m.src]},\n'
        f'      "step": {m.step}\n    }}'
        for m in trace.messages)
    return (f'{{\n  "busy": {_json_list(busy)},\n'
            f'  "messages": {_json_list(messages)}\n}}\n')


def inline_write_trace(result: RunResult, out_dir: str) -> None:
    rows = [TRACE_HEADER]
    rows += [f"busy,{b.step},{b.stage},{b.device},,,{b.label},,{b.start:.17g},{b.end:.17g},"
             for b in result.trace.busy]
    rows += [f"message,{m.step},,,{m.src},{m.dst},,{m.kind},{m.depart:.17g},{m.arrive:.17g},"
             f"{m.nbytes}" for m in result.trace.messages]
    with open(os.path.join(out_dir, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
        fh.write(inline_trace_json(result.trace))


# ---------------------------------------------------------------------------------

def assert_trace_json_matches(result, tmp_path) -> bytes:
    """Both writers of each file read only result.trace; trace.json's bytes."""
    ref_dir, out_dir = tmp_path / "ref", tmp_path / "out"
    ref_dir.mkdir()
    out_dir.mkdir()
    ref_write_trace_json(result, str(ref_dir))
    ref_write_trace_csv(result, str(ref_dir))
    _write_trace(result, str(out_dir))
    assert (out_dir / "trace.csv").read_bytes() == (ref_dir / "trace.csv").read_bytes()
    expected = (ref_dir / "trace.json").read_bytes()
    assert (out_dir / "trace.json").read_bytes() == expected
    return expected


@pytest.mark.parametrize("preset", ["sdxl-like", "sd3-like"])
@pytest.mark.parametrize("variant", list(PlanVariant))
def test_trace_json_of_every_variant_equals_json_dumps(preset, variant, tmp_path):
    """Both trace files also equal the inline writers' bytes."""
    cfg = ExperimentConfig.from_dict({"preset": preset, "devices": 4})
    result = run_plan(cfg.to_plan(seed=7, variant=variant))
    assert_trace_json_matches(result, tmp_path)
    assert_inline_writer_matches(result, tmp_path)


def test_trace_json_of_a_multi_index_hybrid_equals_json_dumps(tmp_path):
    cfg = ExperimentConfig.from_dict({"conditions": [[0, 1], [2]], "variant": "hybrid"})
    result = run_plan(cfg.to_plan(seed=3))
    assert_trace_json_matches(result, tmp_path)


def test_trace_json_spells_non_finite_times_as_json_does(tmp_path):
    inf, nan = float("inf"), float("nan")
    trace = RunTrace(
        busy=(BusyInterval("dev0", 0.0, inf, 1, "warm_up", "eps_c"),
              BusyInterval('dév"1\n', -inf, nan, 2, "", "segment_1"),
              BusyInterval("dev2", 1e-300, 1.7976931348623157e308, 3, "x", "\t")),
        messages=(MessageEvent("dev1", "dev0", "latent", 2 ** 70, nan, inf, 1),
                  MessageEvent("dev0", "dev1", "activation", 1, -inf, -0.0, 2)))
    text = assert_trace_json_matches(SimpleNamespace(trace=trace), tmp_path)
    for spelling in (b"NaN", b"Infinity", b"-Infinity"):
        assert spelling in text


def test_trace_csv_writes_each_time_as_fmt_does(tmp_path):
    """The times' edge cases: signed zero, the smallest subnormal, a tiny
    normal, the largest float, +-inf and nan."""
    inf, nan, big = float("inf"), float("nan"), 1.7976931348623157e308
    trace = RunTrace(
        busy=(BusyInterval("dev0", -0.0, 5e-324, 1, "warm_up", "eps_c"),
              BusyInterval("dev1", 1e-300, big, 2, "", "segment_1"),
              BusyInterval("dev2", -inf, nan, 3, "x", "eps_u")),
        messages=(MessageEvent("dev1", "dev0", "latent", 2 ** 70, nan, inf, 1),
                  MessageEvent("dev0", "dev1", "activation", 1, -big, -0.0, 2)))
    assert_trace_json_matches(SimpleNamespace(trace=trace), tmp_path)
    text = (tmp_path / "out" / "trace.csv").read_text(encoding="utf-8")
    for spelling in ("-0,", "4.9406564584124654e-324", ",1e-300,",
                     "1.7976931348623157e+308", "-inf", "nan", ",inf,"):
        assert spelling in text


def assert_inline_writer_matches(result, tmp_path) -> None:
    ref_dir, out_dir = tmp_path / "inline", tmp_path / "spelled"
    ref_dir.mkdir()
    out_dir.mkdir()
    inline_write_trace(result, str(ref_dir))
    _write_trace(result, str(out_dir))
    for name in ("trace.csv", "trace.json"):
        assert (out_dir / name).read_bytes() == (ref_dir / name).read_bytes()


def test_each_time_is_spelled_as_the_inline_writer_did(tmp_path):
    """0.0 and -0.0 are one dict key but spell apart, in either order and
    repeated; a nan is a key only to itself, whether the same object recurs
    or another nan follows."""
    nan, other_nan = float("nan"), float("inf") - float("inf")
    trace = RunTrace(
        busy=(BusyInterval("dev0", 0.0, -0.0, 1, "warm_up", "eps_c"),
              BusyInterval("dev1", -0.0, 0.0, 1, "warm_up", "eps_u"),
              BusyInterval("dev0", nan, nan, 2, "", "segment_0"),
              BusyInterval("dev1", other_nan, 0.5, 2, "", "segment_1")),
        messages=(MessageEvent("dev1", "dev0", "latent", 8, 0.5, -0.0, 1),
                  MessageEvent("dev0", "dev1", "latent", 8, -0.0, 0.0, 1),
                  MessageEvent("dev0", "dev1", "activation", 8, other_nan, nan, 2)))
    assert_inline_writer_matches(SimpleNamespace(trace=trace), tmp_path)
    text = (tmp_path / "spelled" / "trace.csv").read_text(encoding="utf-8")
    assert ",0,-0," in text and ",-0,0," in text and ",nan,nan," in text


def test_empty_trace_json_equals_json_dumps(tmp_path):
    text = assert_trace_json_matches(SimpleNamespace(trace=RunTrace()), tmp_path)
    assert text == b'{\n  "busy": [],\n  "messages": []\n}\n'


# metrics.json -----------------------------------------------------------------------

def write_config(tmp_path, preset: str) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": preset, "devices": 4}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("preset", ["sdxl-like", "sd3-like"])
@pytest.mark.parametrize("variant", list(PlanVariant))
def test_simulate_metrics_json_equals_json_dumps(preset, variant, tmp_path):
    """simulate writes metrics.json, and the same bytes to stdout, as
    json.dumps of the metrics.
    A run that matches its serial baseline has a null psnr_analog."""
    cfg = ExperimentConfig.from_dict({"preset": preset, "devices": 4})
    plan = cfg.to_plan(seed=7, variant=variant)
    result = run_plan(plan)
    serial = run_plan(cfg.to_plan(seed=7, variant=PlanVariant.SERIAL))
    expected = _json_dumps(compare_runs(result, serial).to_dict())
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["simulate", "--config", write_config(tmp_path, preset),
                     "--variant", variant.value, "--seed", "7", "--out",
                     str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "metrics.json").read_text(encoding="utf-8") == expected
    assert out.getvalue() == expected
    # plans that reproduce the serial trajectory report no psnr
    exact = variant in (PlanVariant.SERIAL, PlanVariant.FULL_CONDITION_PARTITION)
    assert ('"psnr_analog": null' in expected) == exact


def test_simulate_writes_into_an_existing_directory_and_rejects_a_file(tmp_path, capsys):
    """An existing --out directory is written into as it stands; an --out
    that is a file exits 1 with one JSON error."""
    out = tmp_path / "run"
    out.mkdir()
    (out / "keep.txt").write_text("kept", encoding="utf-8")
    assert main(["simulate", "--variant", "serial", "--out", str(out)]) == 0
    assert (out / "keep.txt").read_text(encoding="utf-8") == "kept"
    assert {"metrics.json", "trace.csv", "trace.json"} <= set(os.listdir(out))
    capsys.readouterr()
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert main(["simulate", "--variant", "serial", "--out", str(blocker)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "FileExistsError"


# detect ---------------------------------------------------------------------------

def write_series(tmp_path, ms) -> str:
    path = tmp_path / "series.csv"
    T = len(ms)
    path.write_text("t,rel_mae\n" + "".join(f"{T - 1 - i},{m!r}\n" for i, m in enumerate(ms)),
                    encoding="utf-8")
    return str(path)


def detect_stdout(series: str, config: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["detect", "--series", series, "--config", config]) == 0
    return out.getvalue()


SWITCH = {"L": 2, "g_slope": 1e-3, "tau_cap": 8, "k": 3}
DECAYING = [1.0 / (i + 1) for i in range(20)]           # G < 0 on every step


@pytest.mark.parametrize("ms, switch, stages", [
    ([1.0, 0.5, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3], SWITCH,
     {"tau1": 5, "warm_up": 5, "parallelism": 3, "fully_connecting": 2}),
    (DECAYING, SWITCH, {"tau1": 8, "warm_up": 8, "parallelism": 3,
                        "fully_connecting": 9}),                      # forced by the cap
    (DECAYING[:4], SWITCH, {"tau1": None, "warm_up": 4}),              # too short
    ([], SWITCH, {"tau1": None}),                                      # header only
    (DECAYING, {**SWITCH, "k": 0}, {"tau1": 8, "warm_up": 8, "fully_connecting": 12}),
    (DECAYING[:10], SWITCH, {"tau1": 8, "warm_up": 8, "parallelism": 2}),  # tau2 > n
], ids=["slope-fires", "forced-by-tau-cap", "too-short", "header-only", "k-zero",
        "window-past-the-end"])
def test_detect_stdout_equals_json_dumps(ms, switch, stages, tmp_path):
    """detect writes its stage list one run of equal labels at a time; each
    case's tau1 and label counts are pinned beside the bytes."""
    series = write_series(tmp_path, ms)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"switch": switch}), encoding="utf-8")
    cfg = ExperimentConfig.from_dict({"switch": switch})
    state, labels = replay_series(series_pairs(series), cfg.switch)
    runs = {lab.value: labels.count(lab) for lab in dict.fromkeys(labels)}
    assert {"tau1": state.tau1, **runs} == stages
    expected = _json_dumps({"tau1": state.tau1, "tau2": state.tau2,
                            "stages": [lab.value for lab in labels]})
    assert detect_stdout(series, str(config)) == expected
