"""Experiment configuration: defaults, presets, and JSON loading.

A config document is one JSON object checked against SCHEMA; every key is
optional and falls back to the preset (which fills controller parameters and
the per-step branch cost) or to a built-in default. The default data model is a
four-component mixture with two well-separated coarse clusters that split
into nearby fine modes, picked so the measured discrepancy curve dips in the
middle of the schedule and rises again near the end.

The module loads no numpy. A config's model objects (schedule, mixture,
conditions, guidance) are numpy-bound: from_dict builds the ones the document
sets, so a bad value fails there, and leaves the rest to their first read, so
parsing a document that sets none, which is all `detect` needs, loads no numpy.
"""
from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

from .errors import ParameterError
from .monitor import SwitchConfig
from .plan import _DEVICES, _STAGED, SCHEDULE_KINDS, ExecutionPlan, PlanVariant
from .trace import DeviceSpec, LinkSpec

if TYPE_CHECKING:
    import numpy as np

    from .engine import ExactPath
    from .mixture import Condition, GaussianMixture
    from .schedules import GuidanceParams, NoiseSchedule

PRESETS: dict[str, dict] = {
    # SDXL-scale cost model: 0.1649 s per branch step calibrated from the
    # 50-step serial reference of 16.49 s at batching factor 2
    "sdxl-like": {
        "branch_step_cost": 0.1649,
        "L": 12, "g_slope": 4e-4, "tau_cap": 15, "k": 5,
    },
    # SD3-scale: slower steps, later and stricter switch
    "sd3-like": {
        "branch_step_cost": 0.1936,
        "L": 15, "g_slope": 1e-4, "tau_cap": 40, "k": 5,
    },
}

# calibrated link residual: per-message setup cost only, no byte term; two
# latent messages per measured step add 0.005 s/step
DEFAULT_LINK = {
    "base_latency_s": 0.0025,
    "bandwidth_bytes_per_s": None,
    "latent_bytes": 4096,
    "activation_bytes": 16384,
}

DEFAULT_SCHEDULE = {"kind": "linear", "T": 50, "beta_start": 0.01, "beta_end": 0.12}

# two-scale testbed in R^8: coarse +/-3 split on axis 0, fine +/-0.2 on axis 1
DEFAULT_MIXTURE = {
    "weights": (0.25,) * 4,
    "means": tuple((x0, x1) + (0.0,) * 6 for x0 in (3.0, -3.0) for x1 in (0.2, -0.2)),
    "variances": ((0.15,) * 8,) * 4,
}

# Upper bounds on the counts a document may set, checked before anything is
# sized from them, so no document can ask for unbounded memory or time.
MAX_DEVICES = 64
MAX_CONDITION_BATCH = 4096
MAX_STEPS = 1000            # schedule.T, and switch.L, switch.tau_cap, switch.k
MAX_SEED = 2 ** 63 - 1
# len(seeds) * condition_batch: the rows of the (S*B, d) arrays a sweep's
# ExactPath stacks all seeds' batches on
MAX_STACKED_ROWS = 2 ** 18

_VARIANTS = {v.value: v for v in PlanVariant}


def build_schedule(kind: str, T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """schedules.build_schedule, imported on the first call: see the module
    docstring. The config code calls it by this name."""
    from . import schedules

    return schedules.build_schedule(kind, T, beta_start, beta_end)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


# Kinds: each checks one value a document sets, named by its dotted path,
# and returns it as from_dict uses it.

def _is(want: str, ok, convert=None):
    """The values ok accepts, passed through convert if it is given."""
    def check(path: str, value):
        if not ok(value):   # repr fails on an integer over 4300 digits: hex does not
            got = hex(value) if type(value) is int and value.bit_length() > 14000 else repr(value)
            raise ParameterError(f"{path} must be {want}, got {got}")
        return value if convert is None else convert(value)
    return check


def _count(lo: int, hi: int):
    return _is(f"an integer in [{lo}, {hi}]", lambda v: type(v) is int and lo <= v <= hi)


def _one_of(choices):
    return _is(f"one of {sorted(choices)}", lambda v: isinstance(v, str) and v in choices)


_number = _is("a number within float range", lambda v: isinstance(v, float) or (
    type(v) is int and abs(v) <= sys.float_info.max), float)


def _bytes(path: str, value) -> int:
    """A message size in whole bytes, within float range: never truncated."""
    n = _number(path, value)
    _require(n.is_integer(), f"{path} must be a whole number of bytes, got {value!r}")
    return value if type(value) is int else int(n)


def _array(path: str, value) -> np.ndarray:
    import numpy as np

    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{path} must be a numeric array: {exc}") from exc


def _list_of(item, lo: int, hi: int, count=None):
    """lo to hi values of kind item, as a tuple; or one of kind count."""
    def check(path: str, value):
        if count is not None and not isinstance(value, list):
            return count(path, value)
        _require(isinstance(value, list) and lo <= len(value) <= hi,
                 f"{path} must be a list of {lo} to {hi} items")
        return tuple(item(path, x) for x in value)
    return check


def _or_null(kind, null=None):
    return lambda path, value: null if value is None else kind(path, value)


_seed = _count(0, MAX_SEED)
_PRESET = object()         # the preset's value of the key's last name

# Every key a document may set, dotted under its section: its kind and its
# default. No conditions are the singletons [[0], ..., [K - 1]], cycled over
# the batch; no devices are the variant's fewest (see plan._DEVICES).
SCHEMA = {
    "preset": (_one_of(PRESETS), "sdxl-like"),
    "variant": (_one_of(_VARIANTS), "hybrid"),
    "seeds": (_list_of(_seed, 1, MAX_STACKED_ROWS), tuple(range(32))),
    "guidance_w": (_number, 2.0),
    "schedule.kind": (_one_of(SCHEDULE_KINDS), DEFAULT_SCHEDULE["kind"]),
    "schedule.T": (_count(1, MAX_STEPS), DEFAULT_SCHEDULE["T"]),
    "schedule.beta_start": (_number, DEFAULT_SCHEDULE["beta_start"]),
    "schedule.beta_end": (_number, DEFAULT_SCHEDULE["beta_end"]),
    "mixture.weights": (_array, DEFAULT_MIXTURE["weights"]),
    "mixture.means": (_array, DEFAULT_MIXTURE["means"]),
    "mixture.variances": (_array, DEFAULT_MIXTURE["variances"]),
    "conditions": (_list_of(_is("a list of component indices", lambda c: isinstance(c, list)
                                and all(type(i) is int for i in c)), 1, MAX_CONDITION_BATCH), None),
    "condition_batch": (_count(1, MAX_CONDITION_BATCH), 64),
    "switch.L": (_count(1, MAX_STEPS), _PRESET),
    "switch.g_slope": (_number, _PRESET),
    "switch.tau_cap": (_count(1, MAX_STEPS), _PRESET),
    "switch.k": (_count(0, MAX_STEPS), _PRESET),
    "devices": (_list_of(_number, 1, MAX_DEVICES, count=_count(1, MAX_DEVICES)), None),
    "link.base_latency_s": (_number, DEFAULT_LINK["base_latency_s"]),
    # null is a link of infinite bandwidth
    "link.bandwidth_bytes_per_s": (_or_null(_number, math.inf), math.inf),
    "link.latent_bytes": (_bytes, DEFAULT_LINK["latent_bytes"]),
    "link.activation_bytes": (_bytes, DEFAULT_LINK["activation_bytes"]),
    "segment_fractions": (_or_null(_list_of(_number, 0, MAX_DEVICES)), None),
    "cfg_batching_factor": (_number, 2.0),
    "out_dir": (_or_null(_is("a string", lambda v: isinstance(v, str))), None),
}
_SECTIONS = {path.split(".")[0] for path in SCHEMA if "." in path}


def _check(raw, prefix: str = "") -> dict:
    """The values raw sets, by dotted path, each checked by its kind; an
    unknown key at any level is an error that names its dotted path."""
    _require(isinstance(raw, dict), f"{prefix[:-1] or 'config document'} must be a JSON object")
    got = {}
    for key, value in raw.items():
        path = f"{prefix}{key}"
        if path in _SECTIONS:
            got.update(_check(value, path + "."))
        else:
            _require(path in SCHEMA and "." not in str(key), f"{path}: unknown config key")
            got[path] = SCHEMA[path][0](path, value)
    return got


def _fields(v: dict, section: str) -> dict:
    return {path.split(".")[1]: x for path, x in v.items() if path.startswith(section + ".")}


# The model objects a document's resolved values v describe, one function per
# model field of ExperimentConfig. Each imports its numpy-bound module when
# it first runs.

def _schedule(v: dict) -> NoiseSchedule:
    return build_schedule(**_fields(v, "schedule"))


def _mixture(v: dict) -> GaussianMixture:
    import numpy as np

    from .mixture import GaussianMixture

    # detect runs outside the numeric commands' errstate, and weights that
    # sum past float range make numpy warn on stderr before they are rejected
    with np.errstate(over="ignore"):
        return GaussianMixture(**_fields(v, "mixture"))


def _conditions(v: dict) -> tuple[Condition, ...]:
    from .mixture import Condition

    # no conditions are the singletons of the mixture's components; a
    # mixture the document sets was built, so checked, before this runs
    base = tuple(Condition(c) for c in v["conditions"]
                 or [(i,) for i in range(len(v["mixture.weights"]))])
    return tuple(base[i % len(base)] for i in range(v["condition_batch"]))


def _guidance(v: dict) -> GuidanceParams:
    from .schedules import GuidanceParams

    return GuidanceParams(v["guidance_w"])


class _Unbuilt(NamedTuple):
    """A model field not read yet, with the resolved values it is built from."""

    values: dict


class _Model:
    """A model field of ExperimentConfig, built by build(values) on its first
    read if it holds an _Unbuilt, and kept: every read of one config, so
    every plan it makes, sees one object. The oracle memo and
    engine.ExactPath.bind go by that identity."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, cfg, owner=None):
        if cfg is None:
            raise AttributeError(self.name)     # so the field has no default
        value = cfg.__dict__[self.name]
        if isinstance(value, _Unbuilt):
            value = cfg.__dict__[self.name] = self.build(value.values)
        return value

    def __set__(self, cfg, value):
        cfg.__dict__[self.name] = value


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment; see SCHEMA for its JSON document."""

    variant: PlanVariant
    preset: str
    schedule: NoiseSchedule = _Model(_schedule)
    mixture: GaussianMixture = _Model(_mixture)
    conditions: tuple[Condition, ...] = _Model(_conditions)
    guidance: GuidanceParams = _Model(_guidance)
    switch: SwitchConfig
    devices: tuple[DeviceSpec, ...]
    link: LinkSpec
    segment_fractions: tuple[float, ...] | None
    cfg_batching_factor: float
    seeds: tuple[int, ...]
    out_dir: str | None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        got = _check(raw)
        pre = PRESETS[got.get("preset", "sdxl-like")]
        v = {path: pre[path.split(".")[-1]] if default is _PRESET else default
             for path, (_, default) in SCHEMA.items()} | got
        variant = _VARIANTS[v["variant"]]

        def model(key: str, build):
            """build(v) now if the document sets key, so a bad value fails
            here; else left to the first read (see _Model)."""
            return build(v) if key in raw else _Unbuilt(v)

        schedule = model("schedule", _schedule)
        _require("mixture" not in raw or len(raw["mixture"]) == 3,
                 "mixture needs keys weights, means, variances")
        mixture = model("mixture", _mixture)
        batch, seeds = v["condition_batch"], v["seeds"]
        _require(len(seeds) * batch <= MAX_STACKED_ROWS,
                 f"seeds times condition_batch must be at most {MAX_STACKED_ROWS}, "
                 f"got {len(seeds)} seeds of {batch}")
        _require(len(set(seeds)) == len(seeds), f"seeds must be distinct, got {list(seeds)}")
        costs = v["devices"] or _DEVICES[variant][0]
        costs = costs if isinstance(costs, tuple) else (pre["branch_step_cost"],) * costs
        return cls(
            variant=variant, preset=v["preset"], schedule=schedule, mixture=mixture,
            conditions=model("conditions", _conditions), guidance=model("guidance_w", _guidance),
            switch=SwitchConfig(**_fields(v, "switch")),
            devices=tuple(DeviceSpec(name=f"dev{i}", branch_step_cost=c)
                          for i, c in enumerate(costs)),
            link=LinkSpec(bandwidth_bytes_per_s=v["link.bandwidth_bytes_per_s"],
                          base_latency_s=v["link.base_latency_s"],
                          message_bytes_latent=v["link.latent_bytes"],
                          message_bytes_activation=v["link.activation_bytes"]),
            segment_fractions=v["segment_fractions"],
            cfg_batching_factor=v["cfg_batching_factor"], seeds=seeds, out_dir=v["out_dir"])

    def to_plan(self, seed: int | None = None,
                variant: PlanVariant | None = None,
                k: int | None = None,
                exact_path: ExactPath | None = None) -> ExecutionPlan:
        """Build the executable plan, optionally overriding seed/variant/k.

        exact_path is passed through to the plan: plans of one seed that
        share it read that seed's exact trajectory instead of recomputing it.
        """
        variant = variant or self.variant
        switch = self.switch if k is None else replace(self.switch, k=k)
        fewest, most = _DEVICES[variant]
        # pad with clones of device 0 so variant overrides stay convenient
        devices = (self.devices + tuple(
            DeviceSpec(name=f"dev{i}", branch_step_cost=self.devices[0].branch_step_cost)
            for i in range(len(self.devices), fewest)))[:most]
        return ExecutionPlan(
            variant=variant, schedule=self.schedule, mixture=self.mixture,
            conditions=self.conditions, guidance=self.guidance,
            devices=devices, link=self.link,
            seed=self.seeds[0] if seed is None else seed,
            switch=switch if variant in _STAGED else None,
            segment_fractions=self.segment_fractions if variant in _STAGED else None,
            cfg_batching_factor=self.cfg_batching_factor,
            exact_path=exact_path)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is an error, not a last-wins overwrite."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        raise ParameterError(f"config key {repeated!r} is repeated")
    return obj


def load_config(path: str) -> ExperimentConfig:
    # utf-8-sig skips a byte order mark, as spreadsheet exports write
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, ParameterError):
            raise
        except (ValueError, RecursionError) as exc:
            # not UTF-8, nested too deep, or an integer literal over 4300 digits
            raise ParameterError(f"config document cannot be read: {exc}") from exc
    return ExperimentConfig.from_dict(raw)
