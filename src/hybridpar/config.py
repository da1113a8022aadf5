"""Experiment configuration: defaults, presets, and JSON loading.

A config document is one JSON object; every key is optional and falls back to
the preset (which fills controller parameters and the per-step branch cost)
and then to the built-in defaults below. The default data model is a
four-component mixture with two well-separated coarse clusters that split
into nearby fine modes, picked so the measured discrepancy curve dips in the
middle of the schedule and rises again near the end.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .engine import ExactPath, ExecutionPlan, PlanVariant
from .errors import ParameterError
from .mixture import Condition, GaussianMixture
from .monitor import SwitchConfig
from .plan import _STAGED
from .schedules import GuidanceParams, NoiseSchedule, build_schedule
from .trace import DeviceSpec, LinkSpec

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
DEFAULT_GUIDANCE_W = 2.0
DEFAULT_CONDITION_BATCH = 64
DEFAULT_SEEDS = tuple(range(32))

# Upper bounds on the counts a document may set, checked before anything is
# sized from them, so no document can ask for unbounded memory or time.
MAX_DEVICES = 64
MAX_CONDITION_BATCH = 4096
MAX_STEPS = 1000            # schedule.T, and switch.L, switch.tau_cap, switch.k
MAX_SEED = 2 ** 63 - 1
# len(seeds) * condition_batch: the rows of the (S*B, d) arrays a sweep's
# ExactPath stacks all seeds' batches on
MAX_STACKED_ROWS = 2 ** 18

_KNOWN_KEYS = frozenset({
    "preset", "variant", "seeds", "guidance_w", "schedule", "mixture",
    "conditions", "condition_batch", "switch", "devices", "link",
    "segment_fractions", "cfg_batching_factor", "out_dir",
})

_VARIANTS = {v.value: v for v in PlanVariant}


def default_mixture() -> GaussianMixture:
    """Two-scale testbed: coarse +/-3 split on axis 0, fine +/-0.2 on axis 1."""
    d, k = 8, 4
    means = np.zeros((k, d))
    for i in range(k):
        means[i, 0] = 3.0 if i < 2 else -3.0
        means[i, 1] = 0.2 if i % 2 == 0 else -0.2
    return GaussianMixture(weights=np.full(k, 0.25),
                           means=means,
                           variances=np.full((k, d), 0.15))


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


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment; see from_dict for the JSON schema."""

    variant: PlanVariant
    preset: str
    schedule: NoiseSchedule
    mixture: GaussianMixture
    conditions: tuple[Condition, ...]
    guidance: GuidanceParams
    switch: SwitchConfig
    devices: tuple[DeviceSpec, ...]
    link: LinkSpec
    segment_fractions: tuple[float, ...] | None
    cfg_batching_factor: float
    seeds: tuple[int, ...]
    out_dir: str | None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
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
            mixture = default_mixture()

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

        return cls(variant=variant, preset=preset, schedule=schedule,
                   mixture=mixture, conditions=conditions, guidance=guidance,
                   switch=switch, devices=devices, link=link,
                   segment_fractions=fractions, cfg_batching_factor=factor,
                   seeds=seeds, out_dir=out_dir)

    def to_plan(self, seed: int | None = None,
                variant: PlanVariant | None = None,
                k: int | None = None,
                exact_path: ExactPath | None = None) -> ExecutionPlan:
        """Build the executable plan, optionally overriding seed/variant/k.

        exact_path is passed through to the plan: plans of one seed that
        share it read that seed's exact trajectory instead of recomputing it.
        """
        variant = variant or self.variant
        switch = self.switch if k is None else SwitchConfig(
            L=self.switch.L, g_slope=self.switch.g_slope,
            tau_cap=self.switch.tau_cap, k=k)
        devices = self.devices
        if len(devices) < 2 and variant is not PlanVariant.SERIAL:
            # pad with clones of device 0 so variant overrides stay convenient
            devices = devices + tuple(
                DeviceSpec(name=f"dev{i}", branch_step_cost=devices[0].branch_step_cost)
                for i in range(len(devices), 2))
        if variant is PlanVariant.SERIAL:
            devices = devices[:1]
        elif variant in (PlanVariant.FULL_CONDITION_PARTITION, PlanVariant.HYBRID):
            devices = devices[:2]
        fractions = self.segment_fractions
        if variant not in (PlanVariant.HYBRID, PlanVariant.LAYER_WISE):
            fractions = None
        return ExecutionPlan(
            variant=variant, schedule=self.schedule, mixture=self.mixture,
            conditions=self.conditions, guidance=self.guidance,
            devices=devices, link=self.link,
            seed=self.seeds[0] if seed is None else seed,
            switch=switch if variant in _STAGED else None,
            segment_fractions=fractions,
            cfg_batching_factor=self.cfg_batching_factor,
            exact_path=exact_path)


def _default_device_count(variant: PlanVariant) -> int:
    return 1 if variant is PlanVariant.SERIAL else 2


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ParameterError(f"config file is not valid UTF-8: {exc}") from exc
        except RecursionError as exc:
            raise ParameterError("config document nests too deeply to parse") from exc
    return ExperimentConfig.from_dict(raw)
