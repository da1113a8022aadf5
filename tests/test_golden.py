"""Golden outputs: every command's files and stdout against tests/golden.json.

The corpus runs `simulate` for every variant under both presets and for a
multi-index hybrid, `sweep` over three configs, `curve`, and `detect` on the
curve's output, on a header-only series and on a 3-row series.

Outputs are kept by what they depend on:
- virtual-time outputs (trace.json, trace.csv, latency, speedup, bytes,
  tau1/tau2, the sweep's k/status/latency/speedup columns) and detect's
  stdout are pure Python float arithmetic and integer decisions, stored as
  sha256 and compared exactly on any IEEE-754 host;
- latent-dependent outputs (fidelity, psnr, the curve) go through numpy's
  SIMD exp/log, which may differ in the last ulp across CPU dispatch
  targets. They are stored at repr precision with the numpy version and
  SIMD targets that produced them, compared bitwise on a host that matches,
  and within RTOL/ATOL on any other.

The manifest is written only on request, never by a test run:

    PYTHONPATH=src python tests/test_golden.py --write

Regenerate it only in a change that derives each value it moves.
"""
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from hybridpar.cli import main

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
RTOL, ATOL = 1e-6, 1e-12      # latent-dependent values on a host that differs
VARIANTS = ["serial", "full_condition_partition", "layer_wise", "batch_level", "hybrid"]
SWEEP_K = "0,1,5,10,20,30,34,40"
SWEEP_SEEDS = list(range(8))
# curve, and detect reading its output, share one run: (case, command, config)
CASES = [
    *[(f"simulate/{preset}/{variant}", ["simulate", "--variant", variant, "--seed", "7"],
       {"preset": preset, "devices": 4})
      for preset in ("sdxl-like", "sd3-like") for variant in VARIANTS],
    ("simulate/multi-index-hybrid", ["simulate", "--seed", "3"],
     {"conditions": [[0, 1], [2]], "variant": "hybrid"}),
    *[(f"sweep/{name}", ["sweep", "--k", SWEEP_K], {**config, "seeds": SWEEP_SEEDS})
      for name, config in [("sdxl-like", {}), ("sd3-like", {"preset": "sd3-like"}),
                           ("3-devices", {"devices": [0.15, 0.17, 0.2]})]],
    ("curve+detect", ["curve"], {}),
    ("detect/header-only", ["detect"], "t,rel_mae\n"),
    ("detect/3-rows", ["detect"], "50,0.5\n49,0.4\n48,0.3\n"),
]


def numpy_host() -> dict:
    """The numpy build and the SIMD targets it dispatches to on this CPU, as
    np.show_runtime reports them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                      # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {"numpy": np.__version__, "simd_baseline": list(umath.__cpu_baseline__),
            "simd_found": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def csv_cell(text: str):
    return float(text) if text else None


def outputs(command: list[str], config) -> dict:
    """{"sha256": {...}, "values": {...}} of one case, run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config if isinstance(config, str) else json.dumps(config))
        if command[0] == "detect":
            return {"sha256": {"stdout": sha256(run(["detect", "--series", path]))},
                    "values": {}}
        argv = command + ["--config", path]
        if command[0] == "simulate":
            run(argv + ["--out", tmp])
            files = {}
            for name in ("metrics.json", "trace.json", "trace.csv"):
                with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                    files[name] = fh.read()
            metrics = json.loads(files["metrics.json"])
            # the layout of metrics.json, whatever its latent-dependent values
            assert files["metrics.json"] == json.dumps(metrics, sort_keys=True, indent=2) + "\n"
            latent = ("fidelity_l1", "fidelity_l2", "psnr_analog")
            virtual = {k: v for k, v in metrics.items() if k not in latent}
            return {"sha256": {"metrics.json": sha256(json.dumps(virtual, sort_keys=True)),
                               "trace.json": sha256(files["trace.json"]),
                               "trace.csv": sha256(files["trace.csv"])},
                    "values": {k: metrics[k] for k in latent}}
        if command[0] == "sweep":
            rows = [line.split(",") for line in run(argv).splitlines()]
            return {"sha256": {"sweep.csv": sha256("\n".join(",".join(r[:4]) for r in rows))},
                    "values": {name: [csv_cell(r[i]) for r in rows[1:]]
                               for i, name in ((4, rows[0][4]), (5, rows[0][5]))}}
        curve = os.path.join(tmp, "curve.csv")
        run(argv + ["--out", curve])
        with open(curve, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        detected = run(["detect", "--series", curve])
        return {"sha256": {"header": sha256(",".join(rows[0])),
                           "detect.stdout": sha256(detected)},
                "values": {name: [float(r[i]) for r in rows[1:]]
                           for i, name in enumerate(rows[0])}}


def corpus() -> dict:
    return {"host": numpy_host(),
            "cases": {case: outputs(command, config) for case, command, config in CASES}}


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case, command, config", CASES, ids=[c[0] for c in CASES])
def test_outputs_equal_the_golden_manifest(manifest, case, command, config):
    want = manifest["cases"][case]
    got = json.loads(json.dumps(outputs(command, config)))   # the manifest's round trip
    assert got["sha256"] == want["sha256"]
    if manifest["host"] == numpy_host():
        assert got["values"] == want["values"]
    else:
        assert set(got["values"]) == set(want["values"])
        for name, value in want["values"].items():
            assert got["values"][name] == pytest.approx(value, rel=RTOL, abs=ATOL), name


def test_the_manifest_covers_every_case(manifest):
    assert sorted(manifest["cases"]) == sorted(c[0] for c in CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(corpus(), fh, indent=1, sort_keys=True)
        fh.write("\n")
