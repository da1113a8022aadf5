"""Command-line harness: simulate, curve, detect, sweep.

All commands exit 0 on success. Failures print one machine-readable JSON
object to stderr ({"error": <class>, "message": <text>, ...}) and exit 1.
Floats in CSV output carry 17 significant digits so files round-trip exactly.

Importing this module, and running `detect`, loads no numpy: the numeric
modules are imported by the commands that use them (simulate, curve, sweep).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import TYPE_CHECKING

from .config import ExperimentConfig, _seed, load_config
from .errors import HybridparError, ParameterError, PlanError, SeriesParseError
from .monitor import replay_series
from .plan import PlanVariant
from .trace import RunTrace

if TYPE_CHECKING:
    from .engine import RunResult
    from .metrics import Metrics

CURVE_HEADER = "t,rel_mae,score_ratio,band_lo,band_hi,is_argmin"
SWEEP_HEADER = "k,status,latency_s,speedup,fidelity_l1,psnr_analog"
TRACE_HEADER = "event,step,stage,device,src,dst,label,kind,start,end,nbytes"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# The engine and metrics entry points, whose modules load on the first call.
# The commands call them by these names, so a caller can replace one here.

def run_plan(plan) -> RunResult:
    """engine.run_plan."""
    from . import engine

    return engine.run_plan(plan)


def run_serial(plan) -> RunResult:
    """engine.run_serial."""
    from . import engine

    return engine.run_serial(plan)


def compare_runs(result, serial_result) -> Metrics:
    """metrics.compare_runs."""
    from . import metrics

    return metrics.compare_runs(result, serial_result)


def _numeric(cmd):
    """cmd, run with numpy's floating-point warnings off: the package's
    finiteness checks report overflow as one JSON error, and numpy's warnings
    would add lines to stderr ahead of it."""
    @functools.wraps(cmd)
    def run(args) -> int:
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return cmd(args)
    return run


def _load(args) -> ExperimentConfig:
    if args.config is not None:
        return load_config(args.config)
    return ExperimentConfig.from_dict({})


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# json spells the non-finite floats this way; finite ones as float.__repr__
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_NON_FINITE.get(text, text)


def _json_list(items: str) -> str:
    """A list member of a top-level object, as _json_dumps indents it, from
    its items already indented and joined by ",\n"."""
    return f"[\n{items}\n  ]" if items else "[]"


def _trace_json(trace: RunTrace) -> str:
    """trace.json: byte for byte _json_dumps of {"busy": [...], "messages":
    [...]} with one object per event, written from one template per event
    because json's indenting encoder is pure Python."""
    s, f = _json_str, _json_float
    busy = ",\n".join(
        f'    {{\n      "device": {s(b.device)},\n      "end": {f(b.end)},\n'
        f'      "label": {s(b.label)},\n      "stage": {s(b.stage)},\n'
        f'      "start": {f(b.start)},\n      "step": {b.step}\n    }}'
        for b in trace.busy)
    messages = ",\n".join(
        f'    {{\n      "arrive": {f(m.arrive)},\n      "depart": {f(m.depart)},\n'
        f'      "dst": {s(m.dst)},\n      "kind": {s(m.kind)},\n'
        f'      "nbytes": {m.nbytes},\n      "src": {s(m.src)},\n'
        f'      "step": {m.step}\n    }}'
        for m in trace.messages)
    return (f'{{\n  "busy": {_json_list(busy)},\n'
            f'  "messages": {_json_list(messages)}\n}}\n')


@_numeric
def cmd_simulate(args) -> int:
    cfg = _load(args)
    variant = PlanVariant(args.variant) if args.variant else None
    seed = None if args.seed is None else _seed("--seed", args.seed)
    plan = cfg.to_plan(seed=seed, variant=variant)
    out_dir = args.out or cfg.out_dir
    if out_dir is None:
        raise PlanError("simulate needs an output directory (--out or config out_dir)")
    result = run_plan(plan)
    if plan.variant is PlanVariant.SERIAL:
        serial = result
    else:
        serial = run_serial(cfg.to_plan(seed=plan.seed, variant=PlanVariant.SERIAL))
    metrics = compare_runs(result, serial)
    os.makedirs(out_dir, exist_ok=True)
    payload = _json_dumps(metrics.to_dict())
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        fh.write(payload)
    _write_trace(result, out_dir)
    sys.stdout.write(payload)
    return 0


def _write_trace(result: RunResult, out_dir: str) -> None:
    rows = [TRACE_HEADER]
    for b in result.trace.busy:
        rows.append(f"busy,{b.step},{b.stage},{b.device},,,{b.label},,"
                    f"{_fmt(b.start)},{_fmt(b.end)},")
    for m in result.trace.messages:
        rows.append(f"message,{m.step},,,{m.src},{m.dst},,{m.kind},"
                    f"{_fmt(m.depart)},{_fmt(m.arrive)},{m.nbytes}")
    with open(os.path.join(out_dir, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
        fh.write(_trace_json(result.trace))


def curve_rows(cfg: ExperimentConfig) -> list[tuple[int, float, float, float, float]]:
    """Serial-trajectory discrepancy curve: (t, rel_mae, score_ratio, band_lo,
    band_hi) per step, descending t.

    The band is mean +/- 2 sample standard deviations of the per-condition
    discrepancy ratios across the batch.
    """
    from .engine import _branches, _Stack, initial_latents
    from .mixture import _condition_rows, _rel_mae_blocks, rel_mae, score_ratio_estimate
    from .schedules import cfg_combine, ddim_step

    plan = cfg.to_plan(variant=PlanVariant.SERIAL)
    gm, sched = plan.mixture, plan.schedule
    stack = _Stack(gm, sched, plan.guidance, _condition_rows(gm, plan.conditions))
    x = initial_latents(plan)[None]         # one seed: the kernels' (S, B, d)
    rows = []
    for t in range(sched.T, 0, -1):
        eps_c, eps_u = _branches(stack, x, t)
        m = rel_mae(eps_c, eps_u)
        ratio = score_ratio_estimate(gm, stack.rows.groups, sched, x[0], t)
        per_row = _rel_mae_blocks(eps_c[0], eps_u[0])
        sd = float(per_row.std(ddof=1)) if per_row.size > 1 else 0.0
        rows.append((t, m, ratio, m - 2.0 * sd, m + 2.0 * sd))
        x = ddim_step(x, t, cfg_combine(eps_c, eps_u, plan.guidance), sched)
    return rows


@_numeric
def cmd_curve(args) -> int:
    cfg = _load(args)
    rows = curve_rows(cfg)
    arg_min = min(range(len(rows)), key=lambda i: rows[i][1])
    lines = [CURVE_HEADER]
    for i, (t, m, ratio, lo, hi) in enumerate(rows):
        lines.append(f"{t},{_fmt(m)},{_fmt(ratio)},{_fmt(lo)},{_fmt(hi)},"
                     f"{1 if i == arg_min else 0}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def read_series_csv(path: str) -> list[tuple[int, float]]:
    """Parse (t, discrepancy) pairs from a curve CSV or a bare two-column file.

    A header row is detected by non-numeric first field; the columns named
    t and rel_mae are used then, else columns 0 and 1. Blank lines are
    skipped but counted in error line numbers. One pass over the lines:
    int and float ignore the whitespace around a field, so a field is
    stripped only to name a header column or to quote it in an error. A
    leading UTF-8 byte order mark, as spreadsheet exports write, is dropped.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SeriesParseError(f"series file is not valid UTF-8: {exc}") from exc
    pairs = []
    cols = None                 # (t_col, m_col), set by the first non-blank line
    for lineno, ln in enumerate(text.split("\n"), 1):
        ln = ln.strip()
        if not ln:
            continue
        fields = ln.split(",")
        if cols is None:
            cols = 0, 1
            try:
                float(fields[0])
            except ValueError:
                names = [f.strip() for f in fields]
                try:
                    cols = names.index("t"), names.index("rel_mae")
                except ValueError as exc:
                    raise SeriesParseError(f"header must name columns t and rel_mae, "
                                           f"got {names}", line=lineno) from exc
                need = max(cols) + 1
                continue
            need = 2
        if len(fields) < need:
            raise SeriesParseError(f"expected at least {need} columns, got {len(fields)}",
                                   line=lineno)
        t_col, m_col = cols
        try:
            pairs.append((int(fields[t_col]), float(fields[m_col])))
        except ValueError as exc:
            raise SeriesParseError(f"bad numeric fields {fields[t_col].strip()!r}, "
                                   f"{fields[m_col].strip()!r}", line=lineno) from exc
    if cols is None:
        raise SeriesParseError("series file is empty")
    return pairs


def cmd_detect(args) -> int:
    cfg = _load(args)
    pairs = read_series_csv(args.series)
    state, labels = replay_series(pairs, cfg.switch)
    # _json_dumps of {"stages": [...], "tau1": ..., "tau2": ...}, byte for byte
    stages = ",\n".join(f"    {_json_str(lab.value)}" for lab in labels)
    sys.stdout.write(f'{{\n  "stages": {_json_list(stages)},\n'
                     f'  "tau1": {json.dumps(state.tau1)},\n'
                     f'  "tau2": {json.dumps(state.tau2)}\n}}\n')
    return 0


def _parse_k_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return sorted({int(tok) for tok in text.replace(" ", "").split(",") if tok})
    except ValueError as exc:
        raise ParameterError(f"bad k list {text!r}; expected comma-separated "
                             "integers") from exc


@_numeric
def cmd_sweep(args) -> int:
    """Serial and one hybrid run per (seed, feasible k), seed by seed.

    Every run reads one ExactPath over all the seeds, built from the
    config's k = 0 hybrid plan (an error if there is none), so the numerics
    are stepped for all seeds at once: the exact trajectories on the first
    serial run, each k's windows on its first run. A k is infeasible if it
    is out of range (k < 0, or not k < T - tau_cap); with no feasible k no
    run is made, the serial baselines included.
    """
    import numpy as np

    from .engine import ExactPath

    cfg = _load(args)
    k_values = _parse_k_list(args.k)
    path = ExactPath(cfg.seeds, cfg.to_plan(variant=PlanVariant.HYBRID, k=0))
    serial_plans = [cfg.to_plan(seed=seed, variant=PlanVariant.SERIAL, exact_path=path)
                    for seed in cfg.seeds]
    hybrid = {}                 # k -> each seed's plan, for the feasible k
    for k in k_values:
        try:
            hybrid[k] = [cfg.to_plan(seed=seed, variant=PlanVariant.HYBRID, k=k,
                                     exact_path=path) for seed in cfg.seeds]
        except (PlanError, ParameterError):   # k out of range for this config
            pass
    per_k = {k: [] for k in hybrid}
    for i, serial_plan in enumerate(serial_plans if per_k else ()):
        serial = run_serial(serial_plan)
        for k, per_seed in per_k.items():
            per_seed.append(compare_runs(run_plan(hybrid[k][i]), serial))
    lines = [SWEEP_HEADER]
    for k in k_values:
        if k not in per_k:
            lines.append(f"{k},infeasible,,,,")
            continue
        per_seed = per_k[k]
        lat = float(np.mean([m.latency_s for m in per_seed]))
        spd = float(np.mean([m.speedup for m in per_seed]))
        l1 = float(np.mean([m.fidelity_l1 for m in per_seed]))
        psnrs = [m.psnr_analog for m in per_seed if m.psnr_analog is not None]
        psnr = _fmt(float(np.mean(psnrs))) if psnrs else ""
        lines.append(f"{k},ok,{_fmt(lat)},{_fmt(spd)},{_fmt(l1)},{psnr}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are ParameterErrors, which main prints as one JSON line."""

    def error(self, message):
        raise ParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hybridpar",
        description="Adaptive hybrid-parallel diffusion sampling on a "
                    "simulated device cluster.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one plan and write metrics + trace")
    p.add_argument("--config", help="experiment JSON; defaults apply if omitted")
    p.add_argument("--variant", choices=[v.value for v in PlanVariant],
                   help="override the config's plan variant")
    p.add_argument("--seed", type=int, help="override the first config seed")
    p.add_argument("--out", help="output directory (falls back to config out_dir)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("curve", help="emit the discrepancy curve CSV")
    p.add_argument("--config", help="experiment JSON; defaults apply if omitted")
    p.add_argument("--out", required=True, help="destination CSV path")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("detect", help="replay switch detection over a series CSV")
    p.add_argument("--series", required=True, help="CSV of (t, rel_mae) rows")
    p.add_argument("--config", help="experiment JSON supplying the switch config")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sweep", help="sweep the pipelined-window width k")
    p.add_argument("--config", help="experiment JSON; defaults apply if omitted")
    p.add_argument("--k", required=True, help="comma-separated k values")
    p.add_argument("--out", help="destination CSV; stdout if omitted")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (HybridparError, json.JSONDecodeError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SeriesParseError) and exc.line is not None:
            payload["line"] = exc.line
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
