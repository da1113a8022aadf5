"""Multi-device execution plans and their simulated runs.

Numeric semantics are exact everywhere except inside the pipelined window of
staged plans: measured steps evaluate both branches with classifier-free
guidance and step deterministically, so any plan whose window is empty
reproduces the serial trajectory bit for bit. That invariant is what lets
runs share an ExactPath: every step a run takes before its first pipelined
step is a step of the seed's all-exact trajectory, so serial, condition
partitioning and each staged run's warm-up (all of a k = 0 run) read one
computed trajectory instead of recomputing it. Pipelined steps evaluate only
the conditional branch, split into per-device segments, with segment d
evaluated at the input latent d steps stale and the blend weighted by segment
fraction. Guidance collapses there (the window is entered once the branches
agree), so the blended estimate is used directly.

Timing: measured steps behave like condition-partitioned steps (two branch
messages per step; the partner's output and the next latent each cross the
link once). The first pipelined step of a window pays the full sequential
chain (pipeline fill); subsequent ones overlap all segments. Each pipelined
step moves N-1 activation-sized messages; the hand-off is modeled as a
bidirectional exchange, so no extra message is charged to re-synchronize the
partner when measured stepping resumes.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PlanError, SequencingError
from .mixture import (Condition, GaussianMixture, _component_sampler, _singleton_eps,
                      eps_prediction)
from .mixture import sample_x0  # noqa: F401  (perfbench/spans.py wraps engine.sample_x0)
from .monitor import (DiscrepancySeries, Stage, StageState, SwitchConfig,
                      rel_mae, update_controller)
from .schedules import GuidanceParams, LatentState, NoiseSchedule, cfg_combine, ddim_step
from .trace import DeviceSpec, LinkSpec, RunTrace, Timeline, account_comm


class PlanVariant(enum.Enum):
    SERIAL = "serial"
    FULL_CONDITION_PARTITION = "full_condition_partition"
    HYBRID = "hybrid"
    BATCH_LEVEL = "batch_level"
    LAYER_WISE = "layer_wise"


_STAGED = (PlanVariant.HYBRID, PlanVariant.BATCH_LEVEL, PlanVariant.LAYER_WISE)


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
    # all-exact trajectory shared with other plans of the same seed (see
    # ExactPath); None steps a private one
    exact_path: ExactPath | None = field(default=None, compare=False, repr=False)
    # (condition, batch rows) per distinct subset, in first-seen order; the
    # row arrays are read-only
    condition_groups: tuple[tuple[Condition, np.ndarray], ...] = field(
        init=False, repr=False, compare=False)
    # (rows, component) of every singleton-conditioned row, ascending rows,
    # read-only; the conditional branch evaluates them in one gather
    singletons: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)
    # condition_groups with more than one index, evaluated group by group
    multi_groups: tuple[tuple[Condition, np.ndarray], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.conditions) == 0:
            raise PlanError("plan needs at least one condition")
        for c in self.conditions:
            if max(c.indices) >= self.mixture.n_components:
                raise PlanError(f"condition {c.indices} exceeds mixture components")
        groups = _condition_groups(self.conditions)
        object.__setattr__(self, "condition_groups", groups)
        object.__setattr__(self, "singletons", _singleton_rows(self.conditions))
        object.__setattr__(self, "multi_groups",
                           tuple(g for g in groups if len(g[0].indices) > 1))
        if type(self.seed) is not int or self.seed < 0:
            raise PlanError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not 1.0 <= self.cfg_batching_factor <= 2.0:
            raise PlanError(f"cfg_batching_factor must lie in [1, 2], "
                            f"got {self.cfg_batching_factor}")
        n = len(self.devices)
        if self.variant is PlanVariant.SERIAL:
            if n < 1:
                raise PlanError("serial plan needs one device")
        elif self.variant is PlanVariant.FULL_CONDITION_PARTITION:
            if n != 2:
                raise PlanError(f"condition partitioning needs exactly 2 devices, got {n}")
        elif self.variant in (PlanVariant.HYBRID, PlanVariant.LAYER_WISE):
            need = 2 if self.variant is PlanVariant.HYBRID else n
            if self.variant is PlanVariant.HYBRID and n != 2:
                raise PlanError(f"hybrid plan needs exactly 2 devices, got {n}")
            if self.variant is PlanVariant.LAYER_WISE and n < 2:
                raise PlanError(f"layer-wise plan needs >= 2 devices, got {n}")
            self._check_switch()
            fr = self.segment_fractions
            if fr is None:
                fr = tuple(1.0 / need for _ in range(need))
                object.__setattr__(self, "segment_fractions", fr)
            if len(fr) != need:
                raise PlanError(f"segment_fractions must have {need} entries, got {len(fr)}")
            if any(f <= 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
                raise PlanError(f"segment_fractions must be positive and sum to 1, got {fr}")
        elif self.variant is PlanVariant.BATCH_LEVEL:
            if n < 2 or n % 2 != 0:
                raise PlanError(f"batch-level plan needs an even device count >= 2, got {n}")
            self._check_switch()

    def _check_switch(self):
        sw = self.switch
        if sw is None:
            raise PlanError("staged plan needs a switch config")
        if sw.tau_cap < 1:
            raise PlanError("staged plan needs tau_cap >= 1 (at least one measured step)")
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


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated run."""

    x0: np.ndarray
    latency_s: float
    comm_bytes: int
    speedup: float
    throughput_samples_per_s: float
    tau1: int | None
    tau2: int | None
    trace: RunTrace
    series: tuple[tuple[int, float], ...]
    per_sample: tuple["RunResult", ...] | None = None


class ExactPath:
    """One seed's all-exact trajectory, stepped on demand.

    latents(plan, s) is the state after s exact steps (s = 0 gives
    initial_latents) and discrepancy(plan, s) the rel_mae step s measured.
    Each step is taken with _exact_update, so the entries hold the bits a run
    stepping on its own computes. A run reads the path until its first
    pipelined step: serial and condition partitioning end to end, a staged
    run up to tau1, a k = 0 run end to end.

    A shared path keeps every entry. Its latents are read-only, since runs
    return them as x0. A private path (keep_all=False) keeps only the latest
    latents; a run whose plan brings no path steps one. The first plan bound
    fixes the path's mixture, schedule, conditions and guidance (the same
    objects) and seed; binding a plan that differs in any of them raises
    PlanError. A step that raises stores nothing.
    """

    _BOUND = ("mixture", "schedule", "conditions", "guidance")

    def __init__(self, keep_all: bool = True):
        self._keep_all = keep_all
        self._key: tuple | None = None
        self._xs: list[np.ndarray] = []     # latents after steps _first, ...
        self._first = 0
        self._ms: list[float] = []          # discrepancy of steps 1, 2, ...

    def bind(self, plan: ExecutionPlan) -> "ExactPath":
        key = tuple(getattr(plan, name) for name in self._BOUND) + (plan.seed,)
        if self._key is None:
            self._key = key
            return self
        for name, a, b in zip(self._BOUND, key, self._key):
            if a is not b:
                raise PlanError(f"exact path is bound to another {name}")
        if key[-1] != self._key[-1]:
            raise PlanError(f"exact path is bound to seed {self._key[-1]}, "
                            f"got seed {key[-1]}")
        return self

    def latents(self, plan: ExecutionPlan, s: int) -> np.ndarray:
        """Latents after s exact steps; plan must be bound to this path."""
        if s < self._first:
            raise SequencingError(f"private exact path has moved past step {s}")
        self._extend(plan, s)
        return self._xs[s - self._first]

    def discrepancy(self, plan: ExecutionPlan, s: int) -> float:
        """rel_mae measured by exact step s >= 1; plan must be bound."""
        self._extend(plan, s)
        return self._ms[s - 1]

    def _extend(self, plan: ExecutionPlan, s: int) -> None:
        if not self._xs:
            x = initial_latents(plan)
            x.flags.writeable = False
            self._xs.append(x)
        T = plan.schedule.T
        while self._first + len(self._xs) <= s:
            done = self._first + len(self._xs) - 1
            state, m = _exact_update(plan, LatentState(self._xs[-1], T - done))
            state.x.flags.writeable = False
            if self._keep_all:
                self._xs.append(state.x)
            else:
                self._xs[0] = state.x
                self._first += 1
            self._ms.append(m)


def _path_of(plan: ExecutionPlan) -> ExactPath:
    """The plan's shared path, or a private one when it brings none."""
    path = plan.exact_path
    if path is None:
        path = ExactPath(keep_all=False)
    return path.bind(plan)


def serial_latency_ref(plan: ExecutionPlan) -> float:
    """Latency of the serial baseline on this plan's primary device.

    Accumulated step by step with the same arithmetic run_serial uses, so the
    baseline's own speedup is exactly 1.
    """
    clock = 0.0
    dur = plan.cfg_batching_factor * plan.devices[0].branch_step_cost
    for _ in range(plan.schedule.T):
        clock += dur
    return clock


def initial_latents(plan: ExecutionPlan) -> np.ndarray:
    """Seeded forward-noised draws, one row per condition.

    Row b draws x0 from the mixture restricted to condition b, then noises it
    to the t = T marginal. Identical across plan variants for a given seed.
    The stream is the one per-row sample_x0(gm, cond, rng, 1) calls consume
    (one uniform for the component, then d normals), so the draws match them
    bit for bit.
    """
    rng = np.random.default_rng(plan.seed)
    gm, sched = plan.mixture, plan.schedule
    b = len(plan.conditions)
    comp = np.empty(b, dtype=np.intp)
    noise = np.empty((b, gm.dim))
    for i, cond in enumerate(plan.conditions):
        cdf, comps = _component_sampler(gm, cond)
        comp[i] = comps[cdf.searchsorted(rng.random(), side="right")]
        rng.standard_normal(out=noise[i])
    x0 = gm.means[comp] + np.sqrt(gm.variances[comp]) * noise
    eps = rng.standard_normal((b, gm.dim))
    ab_t = sched.alpha_bar(sched.T)
    return np.sqrt(ab_t) * x0 + np.sqrt(1.0 - ab_t) * eps


def _condition_groups(conditions: tuple[Condition, ...]
                      ) -> tuple[tuple[Condition, np.ndarray], ...]:
    groups: dict[tuple[int, ...], tuple[Condition, list[int]]] = {}
    for i, c in enumerate(conditions):
        groups.setdefault(c.indices, (c, []))[1].append(i)
    out = []
    for cond, rows in groups.values():
        arr = np.asarray(rows)
        arr.flags.writeable = False
        out.append((cond, arr))
    return tuple(out)


def _singleton_rows(conditions: tuple[Condition, ...]) -> tuple[np.ndarray, np.ndarray]:
    rows = [i for i, c in enumerate(conditions) if len(c.indices) == 1]
    comps = [conditions[i].indices[0] for i in rows]
    out = (np.asarray(rows, dtype=np.intp), np.asarray(comps, dtype=np.intp))
    for arr in out:
        arr.flags.writeable = False
    return out


def _conditional_branch(plan: ExecutionPlan, x: np.ndarray, t: int) -> np.ndarray:
    """eps_c for the batch: every singleton row in one gather, then one
    eps_prediction call per multi-index group."""
    eps_c = np.empty_like(x)
    rows, comps = plan.singletons
    eps_c[rows] = _singleton_eps(plan.mixture, comps, plan.schedule,
                                 x.take(rows, axis=0), t)
    for cond, rows in plan.multi_groups:
        eps_c[rows] = eps_prediction(plan.mixture, cond, plan.schedule, x[rows], t)
    return eps_c


def _branches(plan: ExecutionPlan, x: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Both branch outputs for the whole batch at timestep t."""
    eps_u = eps_prediction(plan.mixture, None, plan.schedule, x, t)
    return _conditional_branch(plan, x, t), eps_u


def _exact_update(plan: ExecutionPlan, state: LatentState) -> tuple[LatentState, float]:
    """One measured guided step; returns the new state and its discrepancy."""
    eps_c, eps_u = _branches(plan, state.x, state.t)
    m = rel_mae(eps_c, eps_u)
    eps = cfg_combine(eps_c, eps_u, plan.guidance)
    return ddim_step(state, eps, plan.schedule), m


def run_serial(plan: ExecutionPlan) -> RunResult:
    """Both branches on one device, every step exact."""
    if plan.variant is not PlanVariant.SERIAL:
        raise PlanError(f"run_serial got a {plan.variant.value} plan")
    tl = Timeline(plan.link)
    series = DiscrepancySeries()
    dev = plan.devices[0]
    dur = plan.cfg_batching_factor * dev.branch_step_cost
    path = _path_of(plan)
    T = plan.schedule.T
    clock = 0.0
    for s in range(1, T + 1):
        series.record(T + 1 - s, path.discrepancy(plan, s))
        clock = tl.busy(dev.name, clock, dur, s, "", "cfg_branches")
    return _result(plan, tl, series, path.latents(plan, T))


def _result(plan: ExecutionPlan, tl: Timeline, series: DiscrepancySeries,
            x0: np.ndarray, ctrl: StageState | None = None) -> RunResult:
    latency = tl.trace.makespan()
    ref = serial_latency_ref(plan)
    return RunResult(x0=x0, latency_s=latency, comm_bytes=account_comm(tl.trace),
                     speedup=ref / latency, throughput_samples_per_s=1.0 / latency,
                     tau1=None if ctrl is None else ctrl.tau1,
                     tau2=None if ctrl is None else ctrl.tau2,
                     trace=tl.trace, series=tuple(series.items()))


def _measured_step(plan: ExecutionPlan, tl: Timeline, s: int, stage: str,
                   a_clock: float, b_avail: float) -> tuple[float, float]:
    """Timing of one condition-partitioned step; numerics happen elsewhere.

    Device 0 evaluates the conditional branch, device 1 the unconditional one;
    the partner output and the stepped latent each cross the link once.
    Returns (time device 0 finishes the update, time the latent reaches
    device 1).
    """
    da, db = plan.devices[0], plan.devices[1]
    a_end = tl.busy(da.name, a_clock, da.branch_step_cost, s, stage, "eps_c")
    b_end = tl.busy(db.name, b_avail, db.branch_step_cost, s, stage, "eps_u")
    arr = tl.send(db.name, da.name, "latent", b_end, s)
    combine = max(a_end, arr)
    return combine, tl.send(da.name, db.name, "latent", combine, s)


def run_full_condition_partition(plan: ExecutionPlan) -> RunResult:
    """One branch per device on every step; trajectories match serial exactly."""
    if plan.variant is not PlanVariant.FULL_CONDITION_PARTITION:
        raise PlanError(f"run_full_condition_partition got a {plan.variant.value} plan")
    tl = Timeline(plan.link)
    series = DiscrepancySeries()
    path = _path_of(plan)
    T = plan.schedule.T
    a_clock, b_avail = 0.0, 0.0
    for s in range(1, T + 1):
        series.record(T + 1 - s, path.discrepancy(plan, s))
        a_clock, b_avail = _measured_step(plan, tl, s, "", a_clock, b_avail)
    return _result(plan, tl, series, path.latents(plan, T))


def _pipelined_estimate(plan: ExecutionPlan, history: list[np.ndarray],
                        fractions: tuple[float, ...], t: int) -> np.ndarray:
    """Segment-blended conditional estimate; segment d is d steps stale."""
    est = np.zeros_like(history[0])
    for d, f in enumerate(fractions):
        x_d = history[min(d, len(history) - 1)]
        est += f * _conditional_branch(plan, x_d, t)
    return est


def _run_staged(plan: ExecutionPlan, fractions: tuple[float, ...]) -> RunResult:
    """Shared body of run_hybrid and run_layer_wise.

    Steps are read from the exact path until the first pipelined step; from
    there on the run steps its own state.
    """
    devs = plan.devices
    n = len(devs)
    tl = Timeline(plan.link)
    series = DiscrepancySeries()
    ctrl = StageState()
    path = _path_of(plan)
    T = plan.schedule.T
    state: LatentState | None = None    # set by the first pipelined step
    history: list[np.ndarray] = []
    a_clock, b_avail = 0.0, 0.0
    prev_stage = Stage.WARM_UP
    for s in range(1, T + 1):
        t = T + 1 - s
        history.insert(0, path.latents(plan, s - 1) if state is None else state.x)
        del history[n:]
        if ctrl.tau1 is None:
            series.record(t, path.discrepancy(plan, s))
            update_controller(ctrl, series, t, plan.switch)
            a_clock, b_avail = _measured_step(plan, tl, s, ctrl.stage.value,
                                              a_clock, b_avail)
        else:
            update_controller(ctrl, series, t, plan.switch)
            if ctrl.stage is Stage.PARALLELISM:
                eps_hat = _pipelined_estimate(plan, history, fractions, t)
                fill = prev_stage is not Stage.PARALLELISM
                a_clock = _pipelined_step(plan, tl, s, fill, a_clock, b_avail)
                b_avail = a_clock  # hand-off exchange re-syncs the partner
                state = ddim_step(LatentState(history[0], t), eps_hat, plan.schedule)
            else:
                if state is None:
                    m = path.discrepancy(plan, s)
                else:
                    state, m = _exact_update(plan, state)
                series.record(t, m)
                a_clock, b_avail = _measured_step(plan, tl, s, ctrl.stage.value,
                                                  a_clock, b_avail)
        prev_stage = ctrl.stage
    x0 = path.latents(plan, T) if state is None else state.x
    return _result(plan, tl, series, x0, ctrl)


def _pipelined_step(plan: ExecutionPlan, tl: Timeline, s: int, fill: bool,
                    a_clock: float, b_avail: float) -> float:
    """Timing of one pipelined step; returns the assembly time on device 0.

    Fill: segments run as a sequential chain ending at the assembler, one
    activation hand-off per hop. Steady state: all segments overlap and the
    N-1 contributions travel concurrently (links are contention-free).
    """
    devs = plan.devices
    fr = plan.segment_fractions
    n = len(devs)
    stage = Stage.PARALLELISM.value
    ready = [a_clock] * n
    if n > 1:
        ready[1] = max(b_avail, a_clock) if not fill else b_avail
    if fill:
        cur = ready[n - 1]
        for d in range(n - 1, 0, -1):
            end = tl.busy(devs[d].name, cur, fr[d] * devs[d].branch_step_cost,
                          s, stage, f"segment_{d}")
            cur = tl.send(devs[d].name, devs[d - 1].name, "activation", end, s)
        return tl.busy(devs[0].name, cur, fr[0] * devs[0].branch_step_cost,
                       s, stage, "segment_0")
    arrivals = []
    for d in range(1, n):
        end = tl.busy(devs[d].name, ready[d], fr[d] * devs[d].branch_step_cost,
                      s, stage, f"segment_{d}")
        arrivals.append(tl.send(devs[d].name, devs[0].name, "activation", end, s))
    end0 = tl.busy(devs[0].name, a_clock, fr[0] * devs[0].branch_step_cost,
                   s, stage, "segment_0")
    return max([end0] + arrivals)


def run_hybrid(plan: ExecutionPlan) -> RunResult:
    """Adaptive three-stage run on two devices."""
    if plan.variant is not PlanVariant.HYBRID:
        raise PlanError(f"run_hybrid got a {plan.variant.value} plan")
    return _run_staged(plan, plan.segment_fractions)


def run_layer_wise(plan: ExecutionPlan) -> RunResult:
    """Staged run with the pipelined window split across N segment devices.

    Measured stages use devices 0 and 1 for the two branches; the remaining
    devices idle outside the window. N = 2 reproduces run_hybrid exactly.
    """
    if plan.variant is not PlanVariant.LAYER_WISE:
        raise PlanError(f"run_layer_wise got a {plan.variant.value} plan")
    return _run_staged(plan, plan.segment_fractions)


def run_batch_level(plan: ExecutionPlan) -> RunResult:
    """N/2 device pairs each run an independent hybrid sample concurrently.

    Sample i uses seed + i. Latency is the slowest pair's makespan; the
    reported x0, tau1, tau2, and series come from sample 0.
    """
    if plan.variant is not PlanVariant.BATCH_LEVEL:
        raise PlanError(f"run_batch_level got a {plan.variant.value} plan")
    n_pairs = len(plan.devices) // 2
    results = []
    trace = RunTrace()
    for i in range(n_pairs):
        # only sample 0 runs the plan's seed, so only it may read the path
        sub = replace(plan, variant=PlanVariant.HYBRID,
                      devices=plan.devices[2 * i:2 * i + 2],
                      segment_fractions=None, seed=plan.seed + i,
                      exact_path=plan.exact_path if i == 0 else None)
        results.append(run_hybrid(sub))
        trace.merge(results[-1].trace)
    latency = max(r.latency_s for r in results)
    comm = sum(r.comm_bytes for r in results)
    ref = serial_latency_ref(plan)
    first = results[0]
    return RunResult(x0=first.x0, latency_s=latency, comm_bytes=comm,
                     speedup=n_pairs * ref / latency,
                     throughput_samples_per_s=n_pairs / latency,
                     tau1=first.tau1, tau2=first.tau2, trace=trace,
                     series=first.series, per_sample=tuple(results))


_RUNNERS = {
    PlanVariant.SERIAL: run_serial,
    PlanVariant.FULL_CONDITION_PARTITION: run_full_condition_partition,
    PlanVariant.HYBRID: run_hybrid,
    PlanVariant.LAYER_WISE: run_layer_wise,
    PlanVariant.BATCH_LEVEL: run_batch_level,
}


def run_plan(plan: ExecutionPlan) -> RunResult:
    return _RUNNERS[plan.variant](plan)
