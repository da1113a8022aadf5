"""ExperimentConfig.from_dict against the hand-written parser it replaced.

The reference below is from_dict as it was when it parsed each section by
hand, with its helpers and the default constants it read, kept verbatim but
for its signature. For every fuzzed document (any JSON value under every
key, and candidate values that mostly parse) and every document of the
CLI's bad-value test, both parsers return configs equal field by field
(arrays compared by bytes) or both raise a HybridparError; a document with a
single bad key makes both raise the same class.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_config_fuzz import DOCUMENTS
from test_harness import BAD_CONFIG_VALUES

from hybridpar.config import (DEFAULT_LINK, DEFAULT_MIXTURE, DEFAULT_SCHEDULE,
                              MAX_CONDITION_BATCH, MAX_DEVICES, MAX_SEED, MAX_STACKED_ROWS,
                              MAX_STEPS, PRESETS, SCHEMA, ExperimentConfig)
from hybridpar.engine import PlanVariant
from hybridpar.errors import HybridparError, ParameterError
from hybridpar.mixture import Condition, GaussianMixture
from hybridpar.monitor import SwitchConfig
from hybridpar.schedules import GuidanceParams, build_schedule
from hybridpar.trace import DeviceSpec, LinkSpec

# reference: the hand-written parser ------------------------------------------------

_KNOWN_KEYS = frozenset({
    "preset", "variant", "seeds", "guidance_w", "schedule", "mixture",
    "conditions", "condition_batch", "switch", "devices", "link",
    "segment_fractions", "cfg_batching_factor", "out_dir",
})

DEFAULT_GUIDANCE_W = 2.0
DEFAULT_CONDITION_BATCH = 64
DEFAULT_SEEDS = tuple(range(32))

_VARIANTS = {v.value: v for v in PlanVariant}


def default_conditions(n_components: int, batch: int) -> tuple[Condition, ...]:
    """Singleton conditions cycled over the batch, one component each."""
    return tuple(Condition((i % n_components,)) for i in range(batch))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


def _is_int(value) -> bool:
    """JSON integers only: true and false are not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, key: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ParameterError(f"{key} must be a number within float range") from exc


def _at_most(value, key: str, bound: int):
    """value, unless it is an integer above bound; other bad values are left
    to the checks that follow."""
    _require(not (_is_int(value) and value > bound), f"{key} must be at most {bound}")
    return value


def _section(raw: dict, key: str, known) -> dict:
    """The JSON object under key ({} when absent); unknown keys are errors
    named by their dotted path."""
    sec = raw.get(key, {})
    _require(isinstance(sec, dict), f"{key} must be a JSON object, got {sec!r}")
    unknown = sorted(f"{key}.{k}" for k in set(sec) - set(known))
    _require(not unknown, f"unknown config keys: {unknown}")
    return sec


def _byte_size(value, key: str) -> int:
    """A message size in whole bytes, within float range: never truncated."""
    n = _number(value, key)
    if _is_int(value):
        return value
    _require(n.is_integer(), f"{key} must be a whole number of bytes, got {value!r}")
    return int(n)


_SWITCH_KEYS = ("L", "g_slope", "tau_cap", "k")
_MIXTURE_KEYS = ("weights", "means", "variances")


def ref_from_dict(raw: dict) -> ExperimentConfig:
        cls = ExperimentConfig
        _require(isinstance(raw, dict), "config document must be a JSON object")
        unknown = set(raw) - _KNOWN_KEYS
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")

        preset = raw.get("preset", "sdxl-like")
        _require(isinstance(preset, str) and preset in PRESETS,
                 f"preset must be one of {sorted(PRESETS)}, got {preset!r}")
        pre = PRESETS[preset]

        variant_name = raw.get("variant", "hybrid")
        _require(isinstance(variant_name, str) and variant_name in _VARIANTS,
                 f"variant must be one of {sorted(_VARIANTS)}, got {variant_name!r}")
        variant = _VARIANTS[variant_name]

        sched_raw = {**DEFAULT_SCHEDULE, **_section(raw, "schedule", DEFAULT_SCHEDULE)}
        schedule = build_schedule(sched_raw["kind"],
                                  _at_most(sched_raw["T"], "schedule.T", MAX_STEPS),
                                  _number(sched_raw["beta_start"], "schedule.beta_start"),
                                  _number(sched_raw["beta_end"], "schedule.beta_end"))

        if "mixture" in raw:
            m = _section(raw, "mixture", _MIXTURE_KEYS)
            _require(set(_MIXTURE_KEYS) <= set(m),
                     "mixture needs keys weights, means, variances")
            try:
                arrays = {key: np.asarray(m[key], dtype=float) for key in _MIXTURE_KEYS}
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParameterError(f"mixture arrays must be numeric: {exc}") from exc
            mixture = GaussianMixture(**arrays)
        else:
            mixture = GaussianMixture(**DEFAULT_MIXTURE)

        batch = _at_most(raw.get("condition_batch", DEFAULT_CONDITION_BATCH),
                         "condition_batch", MAX_CONDITION_BATCH)
        _require(_is_int(batch) and batch >= 1,
                 f"condition_batch must be an integer >= 1, got {batch!r}")
        seeds = raw.get("seeds", DEFAULT_SEEDS)
        _require(isinstance(seeds, (list, tuple)) and len(seeds) > 0,
                 f"seeds must be a nonempty list, got {seeds!r}")
        _require(len(seeds) * batch <= MAX_STACKED_ROWS,
                 f"seeds times condition_batch must be at most {MAX_STACKED_ROWS}, "
                 f"got {len(seeds)} seeds of {batch}")
        _require(all(_is_int(s) and 0 <= s <= MAX_SEED for s in seeds),
                 f"seeds must be integers in [0, {MAX_SEED}]")
        _require(len(set(seeds)) == len(seeds), f"seeds must be distinct, got {seeds!r}")
        seeds = tuple(seeds)

        if "conditions" in raw:
            c_raw = raw["conditions"]
            _require(isinstance(c_raw, list) and len(c_raw) > 0
                     and all(isinstance(c, list) and all(_is_int(i) for i in c)
                             for c in c_raw),
                     f"conditions must be a nonempty list of component-index "
                     f"lists, got {c_raw!r}")
            base = tuple(Condition(tuple(c)) for c in c_raw)
            conditions = tuple(base[i % len(base)] for i in range(batch))
        else:
            conditions = default_conditions(mixture.n_components, batch)

        guidance = GuidanceParams(_number(raw.get("guidance_w", DEFAULT_GUIDANCE_W),
                                          "guidance_w"))

        sw_raw = _section(raw, "switch", _SWITCH_KEYS)
        steps = {key: _at_most(sw_raw.get(key, pre[key]), f"switch.{key}", MAX_STEPS)
                 for key in ("L", "tau_cap", "k")}
        switch = SwitchConfig(g_slope=_number(sw_raw.get("g_slope", pre["g_slope"]),
                                              "switch.g_slope"), **steps)

        dev_raw = _at_most(raw.get("devices", _default_device_count(variant)),
                           "devices", MAX_DEVICES)
        if isinstance(dev_raw, list):
            _require(0 < len(dev_raw) <= MAX_DEVICES,
                     f"devices must list 1 to {MAX_DEVICES} step costs")
            costs = [_number(c, "devices") for c in dev_raw]
        else:
            _require(_is_int(dev_raw) and dev_raw >= 1,
                     f"devices must be an integer count >= 1 or a list of step "
                     f"costs, got {dev_raw!r}")
            costs = [pre["branch_step_cost"]] * dev_raw
        devices = tuple(DeviceSpec(name=f"dev{i}", branch_step_cost=c)
                        for i, c in enumerate(costs))

        link_raw = {**DEFAULT_LINK, **_section(raw, "link", DEFAULT_LINK)}
        bw = link_raw["bandwidth_bytes_per_s"]
        link = LinkSpec(
            bandwidth_bytes_per_s=(float("inf") if bw is None
                                   else _number(bw, "link.bandwidth_bytes_per_s")),
            base_latency_s=_number(link_raw["base_latency_s"], "link.base_latency_s"),
            message_bytes_latent=_byte_size(link_raw["latent_bytes"], "link.latent_bytes"),
            message_bytes_activation=_byte_size(link_raw["activation_bytes"],
                                                "link.activation_bytes"))

        fractions = raw.get("segment_fractions")
        if fractions is not None:
            _require(isinstance(fractions, list),
                     f"segment_fractions must be a list of numbers, got {fractions!r}")
            fractions = tuple(_number(f, "segment_fractions") for f in fractions)

        factor = _number(raw.get("cfg_batching_factor", 2.0), "cfg_batching_factor")

        out_dir = raw.get("out_dir")
        _require(out_dir is None or isinstance(out_dir, str),
                 "out_dir must be a string path")

        return cls(variant=variant, schedule=schedule,
                   mixture=mixture, conditions=conditions, guidance=guidance,
                   switch=switch, devices=devices, link=link,
                   segment_fractions=fractions, cfg_batching_factor=factor,
                   seeds=seeds, out_dir=out_dir)


def _default_device_count(variant: PlanVariant) -> int:
    return 1 if variant is PlanVariant.SERIAL else 2


# ---------------------------------------------------------------------------------

def assert_same(got, want, where="config") -> None:
    """Equal field by field: same types, floats by repr (so NaN and -0.0
    count), arrays by dtype, shape and bytes."""
    assert type(got) is type(want), where
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                         want.tobytes()), where
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(want, tuple):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert repr(got) == repr(want), where
    else:
        assert got == want, where


def parse(from_dict, raw):
    try:
        return from_dict(raw)
    except HybridparError as exc:
        return exc


def assert_parsers_agree(raw) -> None:
    got, want = parse(ExperimentConfig.from_dict, raw), parse(ref_from_dict, raw)
    if isinstance(want, HybridparError) or isinstance(got, HybridparError):
        assert isinstance(got, HybridparError) and isinstance(want, HybridparError), (got, want)
    else:
        assert_same(got, want)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENTS)
@example({})
@example({"segment_fractions": None, "out_dir": None,
          "link": {"bandwidth_bytes_per_s": None}})
def test_parsers_agree_on_any_json_document(raw):
    assert_parsers_agree(raw)


# per key, values that parse and values that do not: most documents drawn
# from these build a config, so the field-by-field comparison is exercised
CANDIDATES = {
    "preset": ["sdxl-like", "sd3-like", "sdxl"],
    "variant": [v.value for v in PlanVariant],
    "seeds": [[0], [5, 2], [MAX_SEED], [-1], [3, 3]],
    "guidance_w": [0, 2, 7.5, -1.0],
    "schedule.kind": ["linear", "scaled-linear"],
    "schedule.T": [1, 12, 50, MAX_STEPS],
    "schedule.beta_start": [0.001, 0.01, 1],
    "schedule.beta_end": [0.02, 0.12],
    "conditions": [[[0]], [[1], [0, 1]], [[0, 1, 2, 3]], [[0, 0]]],
    "condition_batch": [1, 5, 64],
    "switch.L": [1, 3, 12, MAX_STEPS],
    "switch.g_slope": [1e-4, 4e-4, 1, 0],
    "switch.tau_cap": [1, 4, 15],
    "switch.k": [0, 2, 5],
    "devices": [1, 3, MAX_DEVICES, [0.1], [0.1, 0.2, 0.3], [0.1, -1]],
    "link.base_latency_s": [0, 0.0025, 1],
    "link.bandwidth_bytes_per_s": [None, 1e9, 1, 0],
    "link.latent_bytes": [1, 4096.0, 2 ** 60 + 1, 0],
    "link.activation_bytes": [7, 16384],
    "segment_fractions": [None, [0.5, 0.5], [0.25, 0.75], []],
    "cfg_batching_factor": [1, 1.5, 2.0, 3],
    "out_dir": [None, "runs", ""],
}
MIXTURES = [{"weights": [1, 3], "means": [[0, 1], [2, 3]], "variances": [[1, 1], [0.5, 2]]},
            {"weights": [2], "means": [[0.5]], "variances": [[1.0]]},
            {"weights": [1, 1], "means": [[0], [1]], "variances": [[1], [-1]]}]


def plausible_documents():
    """Documents that set any of the candidate values, under their sections."""
    optional = {"mixture": st.sampled_from(MIXTURES)}
    for path, values in CANDIDATES.items():
        section, _, key = path.partition(".")
        if key:
            optional.setdefault(section, {})[key] = st.sampled_from(values)
        else:
            optional[path] = st.sampled_from(values)
    return st.fixed_dictionaries({}, optional={
        key: st.fixed_dictionaries({}, optional=value) if isinstance(value, dict) else value
        for key, value in optional.items()})


def test_the_candidates_cover_every_key():
    assert set(CANDIDATES) | {f"mixture.{key}" for key in MIXTURES[0]} == set(SCHEMA)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(plausible_documents())
def test_parsers_agree_on_plausible_documents(raw):
    assert_parsers_agree(raw)


@pytest.mark.parametrize("body", [body for body, _ in BAD_CONFIG_VALUES])
def test_parsers_agree_on_every_bad_value_document(body):
    assert_parsers_agree(body)


BAD = [None, True, False, 0, -1, 1.5, 2 ** 70, 10 ** 400, math.nan, math.inf, "x", "",
       [], [True], [0.5, "x"], {}, {"a": 1}]


@pytest.mark.parametrize("path", list(SCHEMA))
def test_a_single_bad_key_raises_the_same_class_in_both(path):
    section, _, key = path.partition(".")
    for value in BAD:
        raw = {section: {key: value}} if key else {section: value}
        got, want = parse(ExperimentConfig.from_dict, raw), parse(ref_from_dict, raw)
        if isinstance(want, HybridparError) or isinstance(got, HybridparError):
            assert type(got) is type(want), (raw, got, want)
        else:
            assert_same(got, want)


def test_a_config_keeps_no_preset_name():
    """The document's preset fills the defaults it is resolved with and is
    not kept: no plan or command reads its name."""
    assert "preset" not in {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert not hasattr(ExperimentConfig.from_dict({"preset": "sd3-like"}), "preset")
