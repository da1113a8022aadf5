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
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import TYPE_CHECKING

from .config import ExperimentConfig, _seed, load_config
from .errors import HybridparError, ParameterError, PlanError, SeriesParseError
# detect calls no replay_series; perfbench/spans.py wraps it here, and crashes without it
from .monitor import replay_columns, replay_series, stage_runs  # noqa: F401
from .plan import PlanVariant
from .trace import RunTrace

if TYPE_CHECKING:
    from collections.abc import Callable

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


# trace.json and detect's output are json.dumps(obj, sort_keys=True, indent=2)
# + "\n" byte for byte, written from templates: json's indenting encoder is
# pure Python.

# json spells the non-finite floats this way; finite ones as float.__repr__
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_NON_FINITE.get(text, text)


def _json_list(items: str) -> str:
    """A list member of a top-level object, as json.dumps indents it, from
    its items already indented and joined by ",\n"."""
    return f"[\n{items}\n  ]" if items else "[]"


class _Spelled(dict):
    """Each value's text by spell (a string's JSON escape, a time's digits),
    spelled on its first lookup. A zero is spelled on every lookup, because
    0.0 and -0.0 are one key but two spellings; a nan is a key only to
    itself, so each nan object is spelled."""

    def __init__(self, spell):
        super().__init__()
        self.spell = spell

    def __missing__(self, x) -> str:
        text = self.spell(x)
        if x != 0:
            self[x] = text
        return text


def _trace_json(trace: RunTrace) -> str:
    """trace.json: byte for byte json.dumps of {"busy": [...], "messages":
    [...]} with one object per event, written from one template per event.
    Each distinct device, stage, label and kind is escaped once per trace,
    and each distinct time spelled once."""
    s, f = _Spelled(_json_str), _Spelled(_json_float)
    busy = ",\n".join(
        f'    {{\n      "device": {s[b.device]},\n      "end": {f[b.end]},\n'
        f'      "label": {s[b.label]},\n      "stage": {s[b.stage]},\n'
        f'      "start": {f[b.start]},\n      "step": {b.step}\n    }}'
        for b in trace.busy)
    messages = ",\n".join(
        f'    {{\n      "arrive": {f[m.arrive]},\n      "depart": {f[m.depart]},\n'
        f'      "dst": {s[m.dst]},\n      "kind": {s[m.kind]},\n'
        f'      "nbytes": {m.nbytes},\n      "src": {s[m.src]},\n'
        f'      "step": {m.step}\n    }}'
        for m in trace.messages)
    return (f'{{\n  "busy": {_json_list(busy)},\n'
            f'  "messages": {_json_list(messages)}\n}}\n')


@_numeric
def cmd_simulate(args) -> int:
    seed = None if args.seed is None else _seed("--seed", _int("--seed", args.seed))
    cfg = _load(args)
    variant = PlanVariant(args.variant) if args.variant else None
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
    if not os.path.isdir(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    payload = json.dumps(metrics.to_dict(), sort_keys=True, indent=2) + "\n"
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        fh.write(payload)
    _write_trace(result, out_dir)
    sys.stdout.write(payload)
    return 0


def _write_trace(result: RunResult, out_dir: str) -> None:
    """trace.csv and trace.json; each distinct time is spelled once per file."""
    g = _Spelled(_fmt)
    rows = [TRACE_HEADER]
    rows += [f"busy,{b.step},{b.stage},{b.device},,,{b.label},,{g[b.start]},{g[b.end]},"
             for b in result.trace.busy]
    rows += [f"message,{m.step},,,{m.src},{m.dst},,{m.kind},{g[m.depart]},{g[m.arrive]},"
             f"{m.nbytes}" for m in result.trace.messages]
    with open(os.path.join(out_dir, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
        fh.write(_trace_json(result.trace))


def curve_rows(cfg: ExperimentConfig) -> list[tuple[int, float, float, float, float]]:
    """Serial-trajectory discrepancy curve: (t, rel_mae, score_ratio, band_lo,
    band_hi) per step, descending t, each step the engine's _exact_step.

    The band is mean +/- 2 sample standard deviations of the per-condition
    discrepancy ratios across the batch.
    """
    from .engine import _draw_latents, _exact_step
    from .mixture import _rel_mae_blocks, score_ratio_estimate

    plan = cfg.to_plan(variant=PlanVariant.SERIAL)
    x = _draw_latents(plan, plan.seed)[None]    # one seed: the kernels' (S, B, d)
    rows = []
    for t in range(plan.schedule.T, 0, -1):
        x_next, ms, eps_c, eps_u = _exact_step(plan, x, t)
        ratio = score_ratio_estimate(plan.mixture, plan._rows.groups, plan.schedule, x[0], t)
        m, (per_row, _) = float(ms[0]), _rel_mae_blocks(eps_c[0], eps_u[0])
        sd = float(per_row.std(ddof=1)) if per_row.size > 1 else 0.0
        rows.append((t, m, ratio, m - 2.0 * sd, m + 2.0 * sd))
        x = x_next
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


def read_series_columns(path: str) -> tuple[list[int], list[float]]:
    """The t and discrepancy columns (ints, floats) of a curve CSV or a bare file.

    A header row is detected by non-numeric first field; the columns named
    t and rel_mae are used then, else columns 0 and 1. Blank lines are
    skipped but counted in error line numbers. A leading UTF-8 byte order
    mark, as spreadsheet exports write, is dropped. A t or rel_mae field
    holding "_" or a non-ASCII character is rejected, though int and float
    would read "1_0" as 10 and Arabic-Indic digits as ASCII ones.

    Blank lines are dropped and the body (the lines after any header) is
    split once, joined by ",\n,". No field holds "\n", so every row is as
    wide as the first, w fields, exactly when the split holds n(w + 1) - 1
    fields and every (w + 1)-th of them is "\n"; column c is then
    flat[c::w + 1]. Only a file of mixed widths is read through per-row
    lists. _columns converts the two columns whole either way; only a file
    whose columns fail is re-read row by row, to name the first bad line.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SeriesParseError(f"series file is not valid UTF-8: {exc}") from exc
    lines = list(filter(None, map(str.strip, text.split("\n"))))
    if not lines:
        raise SeriesParseError("series file is empty")
    first = lines[0].split(",")
    try:
        float(first[0])
        head, cols = 0, (0, 1)
    except ValueError:
        head, names = 1, [f.strip() for f in first]
        try:
            cols = names.index("t"), names.index("rel_mae")
        except ValueError as exc:
            raise SeriesParseError(f"header must name columns t and rel_mae, got {names}",
                                   line=_line(text, 0)) from exc
    body = lines[head:]
    flat = ",\n,".join(body).split(",")
    n = len(body)
    w = flat.index("\n") if n > 1 else len(flat)
    if max(cols) < w and len(flat) == n * (w + 1) - 1 and flat[w::w + 1].count("\n") == n - 1:
        pick = _strided(flat, w + 1)
    else:
        pick = _by_row(list(map(str.split, body, repeat(","))))
    try:
        return _columns(pick, cols)
    except (IndexError, ValueError):
        pass
    for i, row in enumerate(map(str.split, body, repeat(","))):
        try:                            # some row fails alone, as the columns did
            _columns(_by_row([row]), cols)
        except IndexError as exc:
            raise SeriesParseError(f"expected at least {max(cols) + 1} columns, "
                                   f"got {len(row)}", line=_line(text, head + i)) from exc
        except ValueError as exc:
            t, m = (row[c].strip(_ASCII_SPACE) for c in cols)
            raise SeriesParseError(f"bad numeric fields {t!r}, {m!r}",
                                   line=_line(text, head + i)) from exc


def _strided(flat: list[str], step: int) -> Callable[[int], list[str]]:
    """A column picker over a split body whose rows are step - 1 fields wide:
    column c is flat[c::step]."""
    return lambda c: flat[c::step]


def _by_row(rows: list[list[str]]) -> Callable[[int], list[str]]:
    """A column picker over split rows: itemgetter, which raises IndexError
    at a short row."""
    return lambda c: list(map(itemgetter(c), rows))


def _columns(pick: Callable[[int], list[str]],
             cols: tuple[int, int]) -> tuple[list[int], list[float]]:
    """The t and rel_mae columns, pick(cols[0]) and pick(cols[1]), checked
    for typos joined and converted by map (ValueError)."""
    ts, ms = pick(cols[0]), pick(cols[1])
    if _typo("".join(ts)) or _typo("".join(ms)):
        raise ValueError("a number holds '_' or a non-ASCII character")
    return list(map(int, ts)), list(map(float, ms))


def _line(text: str, i: int) -> int:
    """The line number of text's i-th non-blank line (from 0): blank lines count."""
    return [n for n, ln in enumerate(text.split("\n"), 1) if ln.strip()][i]


# What str.strip removes of ASCII: a bad field is quoted without it, and so
# keeps the non-ASCII whitespace that made it bad.
_ASCII_SPACE = "".join(c for c in map(chr, range(128)) if c.isspace())


def _typo(field: str) -> bool:
    """Whether a number field (or a column of them, joined) holds "_" or a
    non-ASCII character, which int and float accept but no number typed
    into the CLI may hold: int reads "1_0" as 10 and "٣" as 3."""
    return "_" in field or not field.isascii()


def _int(name: str, text: str) -> int:
    """text as an integer, by the one rule of --seed, each --k token and
    each series t field (_columns applies it a column at a time): no typo,
    then int, which takes a sign and surrounding whitespace."""
    if not _typo(text):
        try:
            return int(text)
        except ValueError:
            pass
    raise ParameterError(f"{name} must be an integer, got {text!r}")


def cmd_detect(args) -> int:
    cfg = _load(args)
    ts, ms = read_series_columns(args.series)
    state = replay_columns(ts, ms, cfg.switch)
    # json.dumps of {"stages": [...], "tau1": ..., "tau2": ...}, byte for byte,
    # written one run of equal labels at a time (stage_runs: at most three)
    items = "".join(f"    {_json_str(stage.value)},\n" * count
                    for stage, count in stage_runs(len(ts), state.tau1, state.tau2))
    sys.stdout.write(f'{{\n  "stages": {_json_list(items[:-2])},\n'
                     f'  "tau1": {json.dumps(state.tau1)},\n'
                     f'  "tau2": {json.dumps(state.tau2)}\n}}\n')
    return 0


def _parse_k_list(text: str) -> list[int]:
    """The k values of a comma-separated list, ascending; none for an empty
    or blank list. Each token is an integer by _int's rule, and no value
    appears twice."""
    if not text.strip():
        return []
    try:
        ks = [_int("k", tok) for tok in text.split(",")]
    except ParameterError as exc:
        raise ParameterError(f"bad k list {text!r}; expected comma-separated "
                             "integers") from exc
    if len(set(ks)) < len(ks):
        raise ParameterError(f"bad k list {text!r}; each k may appear once")
    return sorted(ks)


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main() call and kept for
    the process: parsing keeps its state in the returned namespace, so later
    calls (a closed loop, a test suite) reuse the parser as it was built."""
    parser = _Parser(
        prog="hybridpar",
        description="Adaptive hybrid-parallel diffusion sampling on a "
                    "simulated device cluster.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one plan and write metrics + trace")
    p.add_argument("--config", help="experiment JSON; defaults apply if omitted")
    p.add_argument("--variant", choices=[v.value for v in PlanVariant],
                   help="override the config's plan variant")
    p.add_argument("--seed", help="override the first config seed")
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
    except (HybridparError, json.JSONDecodeError, OSError, MemoryError) as exc:
        # numpy raises a private subclass of MemoryError: report the builtin
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        payload = {"error": name, "message": str(exc)}
        if isinstance(exc, SeriesParseError) and exc.line is not None:
            payload["line"] = exc.line
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
