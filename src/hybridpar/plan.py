"""Execution plans: what one simulated run does, checked on construction.

A plan names its variant, model, schedule, devices and link, and for staged
variants the switch rule and segment split. _DEVICES alone decides how many
devices each variant takes. A plan keeps the row layout of its conditions
(mixture.ConditionRows), which every branch kernel reads: an unbound plan
builds its own. A plan that brings an exact-path store is checked against it
here (see engine.ExactPath) and takes the layout of the store's template plan.

The module loads no numpy, so config parsing and `detect` can use the
choices a plan is built from (PlanVariant, _DEVICES, SCHEDULE_KINDS) without
it; a plan's numeric parts are imported where they are checked.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import PlanError
from .monitor import SwitchConfig
from .trace import DeviceSpec, LinkSpec

if TYPE_CHECKING:
    from .engine import ExactPath
    from .mixture import Condition, GaussianMixture
    from .schedules import GuidanceParams, NoiseSchedule

SCHEDULE_KINDS = ("linear", "scaled-linear")


class PlanVariant(enum.Enum):
    SERIAL = "serial"
    FULL_CONDITION_PARTITION = "full_condition_partition"
    HYBRID = "hybrid"
    BATCH_LEVEL = "batch_level"
    LAYER_WISE = "layer_wise"


_STAGED = (PlanVariant.HYBRID, PlanVariant.BATCH_LEVEL, PlanVariant.LAYER_WISE)

# Each variant's device count: (fewest, most), None for no upper bound. A
# batch_level plan runs N/2 hybrid pairs, so its count must also be even.
_DEVICES = {
    PlanVariant.SERIAL: (1, 1),
    PlanVariant.FULL_CONDITION_PARTITION: (2, 2),
    PlanVariant.HYBRID: (2, 2),
    PlanVariant.LAYER_WISE: (2, None),
    PlanVariant.BATCH_LEVEL: (2, None),
}


@dataclass(frozen=True)
class ExecutionPlan:
    """A fully specified run: model, schedule, devices, and strategy."""

    variant: PlanVariant
    schedule: NoiseSchedule
    mixture: GaussianMixture
    conditions: tuple[Condition, ...]
    guidance: GuidanceParams
    devices: tuple[DeviceSpec, ...]
    link: LinkSpec
    seed: int
    switch: SwitchConfig | None = None
    segment_fractions: tuple[float, ...] | None = None
    cfg_batching_factor: float = 2.0
    # the exact trajectories and windows this plan shares with other plans
    # (see ExactPath); it checks the plan on construction. None steps a
    # private one.
    exact_path: ExactPath | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.conditions) == 0:
            raise PlanError("plan needs at least one condition")
        if self.exact_path is None:
            from .mixture import _condition_rows

            # its own read-only layout, not a field: PlanError if out of range
            object.__setattr__(self, "_rows", _condition_rows(self.mixture, self.conditions))
        if type(self.seed) is not int or self.seed < 0:
            raise PlanError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not 1.0 <= self.cfg_batching_factor <= 2.0:
            raise PlanError(f"cfg_batching_factor must lie in [1, 2], "
                            f"got {self.cfg_batching_factor}")
        n, (fewest, most) = len(self.devices), _DEVICES[self.variant]
        even = self.variant is PlanVariant.BATCH_LEVEL
        if not fewest <= n <= (most or n) or (even and n % 2):
            want = fewest if most == fewest else f"{'an even number ' if even else ''}>= {fewest}"
            raise PlanError(f"{self.variant.value} plan: device count must be {want}, got {n}")
        if self.variant in _STAGED:
            self._check_switch()
            # one segment per device; two per pair of a batch_level plan
            need = 2 if even else n
            fr = self.segment_fractions
            if fr is None:
                fr = tuple(1.0 / need for _ in range(need))
                object.__setattr__(self, "segment_fractions", fr)
            if len(fr) != need:
                raise PlanError(f"segment_fractions must have {need} entries, got {len(fr)}")
            if not (all(f > 0 for f in fr) and abs(sum(fr) - 1.0) <= 1e-9):
                raise PlanError(f"segment_fractions must be positive and sum to 1, got {fr}")
        if self.exact_path is not None:
            self.exact_path.bind(self)      # the template's conditions and mixture
            object.__setattr__(self, "_rows", self.exact_path._template._rows)

    def _check_switch(self):
        sw = self.switch
        if sw is None:
            raise PlanError("staged plan needs a switch config")
        T = self.schedule.T
        if sw.L >= T:
            raise PlanError(f"slope window L={sw.L} must be < T={T}")
        if sw.tau_cap > T:
            raise PlanError(f"tau_cap={sw.tau_cap} exceeds T={T}")
        # guarantees the window fits and at least one exact step follows it,
        # whatever step detection fires on (tau1 <= tau_cap)
        if sw.k >= 1 and not sw.k < T - sw.tau_cap:
            raise PlanError(f"window k={sw.k} infeasible: need k < T - tau_cap "
                            f"= {T - sw.tau_cap}")
