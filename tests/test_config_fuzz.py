"""Config documents from outside the program: whatever JSON arrives,
ExperimentConfig.from_dict followed by to_plan returns or raises a
HybridparError (which the CLI prints as one JSON error), never another
exception; and `simulate`, `detect` and `sweep` on such a document either
succeed silently on stderr or exit 1 with exactly one JSON object there,
never emitting a warning (numpy's overflow warnings would reach stderr
outside pytest, which captures them).

Integers are drawn from the full range: every count (condition_batch,
devices, schedule.T, the switch steps, each seed, and the number of seeds
times condition_batch) has an upper bound that is checked before anything
is sized from it.
"""
import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hybridpar.cli import main
from hybridpar.config import SCHEMA, ExperimentConfig
from hybridpar.engine import PlanVariant
from hybridpar.errors import HybridparError, PlanError

SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6)
           | st.sampled_from(["sdxl-like", "sd3-like", "linear", "scaled-linear"]
                             + [v.value for v in PlanVariant]))


def json_values(depth: int):
    """Any JSON value nested at most depth lists or objects deep, built level
    by level: about a quarter of st.recursive's generation cost per example."""
    if depth == 0:
        return SCALARS
    inner = json_values(depth - 1)
    return (SCALARS | st.lists(inner, max_size=5)
            | st.dictionaries(st.text(max_size=6), inner, max_size=4))


VALUES = json_values(2)
NESTED = {}
for path in SCHEMA:
    section, _, key = path.partition(".")
    if key:
        NESTED.setdefault(section, []).append(key)
# documents that reach every key, and every nested key, with any JSON value
DOCUMENTS = st.fixed_dictionaries({}, optional={
    key: (st.fixed_dictionaries({}, optional=dict.fromkeys(NESTED[key], VALUES)) | VALUES)
    if key in NESTED else VALUES
    for key in sorted({path.partition(".")[0] for path in SCHEMA})}) | VALUES


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENTS, st.sampled_from([None, *PlanVariant]), st.sampled_from([None, 0, 3]))
def test_any_json_document_builds_a_plan_or_raises_a_package_error(raw, variant, k):
    try:
        ExperimentConfig.from_dict(raw).to_plan(variant=variant, k=k)
    except HybridparError:
        pass


# each overflows the virtual clock to inf: latency inf and speedup nan
NON_FINITE_TIME = [{"devices": [1e308, 1e308]}, {"link": {"base_latency_s": 1e308}},
                   {"link": {"bandwidth_bytes_per_s": 1e-320}}]
# a fixed 60-row (t, rel_mae) series for detect: decays, then flattens
SERIES = "t,rel_mae\n" + "".join(f"{59 - i},{0.05 + 0.5 / (i + 1)!r}\n" for i in range(60))


def numbers(text: str) -> list[float]:
    """The numbers of a JSON object (metrics.json, detect's stdout) or of a
    CSV table after its header (sweep, curve)."""
    if text.startswith("{"):
        return [v for v in json.loads(text).values() if isinstance(v, (int, float))]
    values = []
    for cell in ",".join(text.splitlines()[1:]).split(","):
        try:
            values.append(float(cell))
        except ValueError:          # "ok", "infeasible", an empty psnr cell
            pass
    return values


def assert_cli_contract(raw, command: list[str]) -> None:
    """Run `hybridpar <command> --config <raw>` in a fresh directory, where
    {tmp} in the command names that directory. On exit 0 every number it
    writes (metrics.json and stdout, the sweep and curve CSVs) is finite."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        with open(os.path.join(tmp, "series.csv"), "w", encoding="utf-8") as fh:
            fh.write(SERIES)
        out, err = io.StringIO(), io.StringIO()
        with (redirect_stdout(out), redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main([arg.format(tmp=tmp) for arg in command] + ["--config", path])
        texts = [out.getvalue()]
        for name in (os.path.join("out", "metrics.json"), "curve.csv"):
            if os.path.exists(os.path.join(tmp, name)):
                with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                    texts.append(fh.read())
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1)
    if code == 0:
        assert err.getvalue() == ""
        assert all(math.isfinite(x) for text in texts for x in numbers(text))
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENTS)
@example({"guidance_w": 1e300})
@example({"guidance_w": 1e308})
@example(NON_FINITE_TIME[0])
@example(NON_FINITE_TIME[1])
@example(NON_FINITE_TIME[2])
def test_simulate_on_any_json_document_keeps_the_cli_contract(raw):
    assert_cli_contract(raw, ["simulate", "--out", os.path.join("{tmp}", "out")])


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENTS)
# detect runs without numpy's errstate: building this mixture must not warn
@example({"mixture": {"weights": [1e308, 1e308], "means": [[0], [0]], "variances": [[1], [1]]}})
def test_detect_on_any_json_document_keeps_the_cli_contract(raw):
    assert_cli_contract(raw, ["detect", "--series", os.path.join("{tmp}", "series.csv")])


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENTS)
@example({"guidance_w": 1e300})
@example(NON_FINITE_TIME[0])
@example(NON_FINITE_TIME[1])
@example(NON_FINITE_TIME[2])
def test_sweep_on_any_json_document_keeps_the_cli_contract(raw):
    assert_cli_contract(raw, ["sweep", "--k", "0,5"])


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENTS)
@example({"guidance_w": 1e300})
def test_curve_on_any_json_document_keeps_the_cli_contract(raw):
    assert_cli_contract(raw, ["curve", "--out", os.path.join("{tmp}", "curve.csv")])


@pytest.mark.parametrize("fractions", [[math.nan, math.nan], [math.inf, -math.inf],
                                       [0.5, math.nan]])
def test_non_finite_segment_fractions_are_rejected(fractions):
    cfg = ExperimentConfig.from_dict({"segment_fractions": fractions})
    with pytest.raises(PlanError, match="segment_fractions"):
        cfg.to_plan()


def test_condition_index_beyond_any_row_index_is_a_plan_error():
    cfg = ExperimentConfig.from_dict({"conditions": [[0], [2 ** 70]]})
    with pytest.raises(PlanError, match="exceeds mixture components"):
        cfg.to_plan()
