"""Simulated runs of multi-device execution plans (the plans: see plan.py).

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

A seed is the leading axis of the latents: S seeds are one (S, B, d) array
x, seed i is x[i], and all share one batch's condition rows (axis 1). Every
kernel of a step is elementwise (broadcast over seeds) or reduces over one
row (over d and the mixture's K components), and the discrepancy over x[i]
alone, so each seed gets the bits it gets alone: ExactPath steps all of its
seeds, and every window they share, as one batch.

Timing is separate from the numerics: a run's virtual clock depends only on
its variant, devices, link, segment fractions, cfg_batching_factor, T and
its switch steps (tau1, tau2), never on latents. _timing builds it, and
ExactPath keeps each one it builds for the life of the store, one command,
so runs of one schedule share a read-only trace. Measured steps behave
like condition-partitioned steps (two branch messages per step; the
partner's output and the next latent each cross the link once). The first
pipelined step of a window pays the full sequential chain (pipeline fill);
subsequent ones overlap all segments. Each pipelined step moves N-1
activation-sized messages; the hand-off is modeled as a bidirectional
exchange, so no extra message is charged to re-synchronize the partner
when measured stepping resumes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import NumericError, PlanError
from .mixture import (Condition, ConditionRows, GaussianMixture, _component_sampler,
                      _condition_rows, _read_only, _rel_mae_blocks, _singleton_eps,
                      eps_prediction)
from .mixture import rel_mae  # noqa: F401  (perfbench/spans.py wraps engine.rel_mae)
from .mixture import sample_x0  # noqa: F401  (perfbench/spans.py wraps engine.sample_x0)
from .monitor import DiscrepancySeries, Stage, StageState, stage_at, update_controller
from .plan import _STAGED, ExecutionPlan, PlanVariant
from .schedules import GuidanceParams, NoiseSchedule, _guided, ddim_step
from .schedules import cfg_combine  # noqa: F401  (perfbench/spans.py wraps it here)
from .trace import RunTrace, Timeline, account_comm


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated run."""

    x0: np.ndarray
    latency_s: float
    comm_bytes: int
    throughput_samples_per_s: float
    tau1: int | None
    tau2: int | None
    trace: RunTrace
    series: tuple[tuple[int, float], ...]
    per_sample: tuple["RunResult", ...] | None = None


class _Stack(NamedTuple):
    """The step kernels' inputs besides the latents; all seeds share the rows."""

    mixture: GaussianMixture
    schedule: NoiseSchedule
    guidance: GuidanceParams
    rows: ConditionRows


class ExactPath:
    """The all-exact trajectories of a set of seeds, stepped as one batch,
    and the pipelined windows of the staged runs bound to them.

    Each step's latents are one (S, B, d) array, and seed i, x[i], gets the
    bits it gets stepped alone (see the module docstring). run(plan) runs a
    bound plan: serial and condition partitioning read the exact path end
    to end, and so does a k = 0 staged run; a staged run with k >= 1 reads
    it up to its switch, then its window's x0 and the discrepancies of the
    exact steps after the window. The store alone decides tau1, under its
    one switch rule (k only places tau2): it keeps one controller and
    series per seed, and after each exact step update_controller advances
    every seed yet to switch. The first run of a window computes the window
    with that k and those segment fractions of every seed that switched at
    the same step, as one batch.

    A template plan fixes the store when it is built: the model objects
    (_BOUND), the switch rule (a staged plan's switch config with k = 0;
    none for an unstaged plan) and the depth (a staged plan's segment
    count, whatever its k), the latents it keeps up to each seed's switch
    for windows to start from. bind only checks a plan against them, else
    PlanError: its seed is one of the store's distinct seeds, its model the
    template's objects, a staged plan's rule the store's, and a window
    (k >= 1) starts from no more latents than the depth. The store keeps
    only what bound plans read (per seed the discrepancies, x0, the latents
    up to its switch, and the computed windows). A run's x0 is a read-only
    view x[i] of an (S, B, d) array, the same object on every run that
    reads it, and a step that raises stores nothing.

    The store also memoizes the virtual clock of each schedule its runs
    take (_timing, keyed by every input of the clock but never the seed), so
    a sweep builds one trace per distinct (tau1, k), not one per run.
    """

    _BOUND = ("mixture", "schedule", "conditions", "guidance")

    def __init__(self, seeds, plan: ExecutionPlan):
        self._seeds = tuple(seeds)
        if not self._seeds:
            raise PlanError("exact path needs at least one seed")
        self._slot = {seed: i for i, seed in enumerate(self._seeds)}
        if len(self._slot) < len(self._seeds):
            raise PlanError(f"exact path seeds must be distinct, got {list(self._seeds)}")
        self._model = tuple(getattr(plan, name) for name in self._BOUND)
        gm, sched, conditions, guidance = self._model
        self._inputs = _Stack(gm, sched, guidance, _condition_rows(gm, conditions))
        staged = plan.variant in _STAGED
        self._switch = replace(plan.switch, k=0) if staged else None     # the rule
        self._depth = len(plan.segment_fractions) if staged else 0      # >= 2 if staged
        self._controls = [(StageState(), DiscrepancySeries())           # per seed
                          for _ in self._seeds] if staged else []
        self._done = -1             # exact steps taken; -1 before the initial latents
        self._recent: list[np.ndarray] = []            # latents after the last steps
        self._ms: list[np.ndarray] = []                # per step, each seed's rel_mae
        self._x0: tuple[np.ndarray, ...] = ()           # per seed, once step T is taken
        self._starts: dict[int, tuple] = {}            # tau1 -> (seeds, latents)
        self._windows: dict[tuple, tuple] = {}         # (seed, k, fractions) -> (x0, ms)
        self._timings: dict[tuple, _Timing] = {}       # see run

    def bind(self, plan: ExecutionPlan) -> None:
        """Check that the store serves the plan (see the class docstring)."""
        if plan.seed not in self._slot:
            raise PlanError(f"exact path holds seeds {list(self._seeds)}, "
                            f"got seed {plan.seed}")
        for name, bound in zip(self._BOUND, self._model):
            if getattr(plan, name) is not bound:
                raise PlanError(f"exact path is bound to another {name}")
        if plan.variant in _STAGED:
            if self._switch is None:
                raise PlanError("exact path has no switch rule: build it from a staged plan")
            if replace(plan.switch, k=0) != self._switch:
                raise PlanError("exact path is bound to another switch rule")
            n = len(plan.segment_fractions)
            if plan.switch.k >= 1 and n > self._depth:
                raise PlanError(f"the plan's window starts from {n} latents, "
                                f"the exact path keeps {self._depth}")

    def run(self, plan: ExecutionPlan) -> RunResult:
        """Run a bound plan: its seed's exact path up to the step it leaves
        it (T, or a staged run's tau1 when k >= 1), then its window. The
        series holds every exact step, none of the window's."""
        slot, T = self._slot[plan.seed], plan.schedule.T
        tau1 = tau2 = None
        if plan.variant in _STAGED:
            state, _ = self._controls[slot]
            while state.tau1 is None:
                self._extend(self._done + 1)
            tau1, tau2 = state.tau1, state.tau1 + plan.switch.k
        steps = T if tau1 == tau2 else tau1
        self._extend(steps)
        series = [(T - i, float(m[slot])) for i, m in enumerate(self._ms[:steps])]
        if tau1 == tau2:
            x0 = self._x0[slot]
        else:
            key = (slot, plan.switch.k, plan.segment_fractions)
            if key not in self._windows:
                self._fill(plan.switch.k, plan.segment_fractions, tau1)
            x0, ms = self._windows[key]
            series += [(T - tau2 - i, m) for i, m in enumerate(ms)]
        # every input of the virtual clock, and never the seed
        key = (plan.variant, plan.devices, plan.link, plan.segment_fractions,
               plan.cfg_batching_factor, T, tau1, tau2)
        timing = self._timings.get(key)
        if timing is None:
            timing = self._timings[key] = _timing(plan, tau1, tau2)
        return RunResult(x0=x0, latency_s=timing.latency_s, comm_bytes=timing.comm_bytes,
                         throughput_samples_per_s=1.0 / timing.latency_s,
                         tau1=tau1, tau2=tau2, trace=timing.trace, series=tuple(series))

    def _extend(self, s: int) -> None:
        gm, sched, conditions, _ = self._model
        while self._done < s:
            if self._done < 0:
                x = np.stack([_draw_latents(gm, sched, conditions, seed)
                              for seed in self._seeds])
            else:
                x, m = _exact_step(self._inputs, self._recent[-1], sched.T - self._done)
                self._ms.append(m)
            x.flags.writeable = False
            self._recent.append(x)
            self._done += 1
            if self._done == sched.T:
                self._x0 = tuple(x)             # seed i's x0 is the view x[i]
            if self._done:
                self._control(self._done)
            # keep as many steps as a window of a seed yet to switch starts from
            keep = self._depth if any(st.tau1 is None for st, _ in self._controls) else 1
            del self._recent[:-keep]

    def _control(self, s: int) -> None:
        """Record exact step s of every seed yet to switch and step its
        controller; keep the latents the windows of the seeds that switch
        here start from."""
        t = self._model[1].T + 1 - s
        slots = []
        for j, (state, series) in enumerate(self._controls):
            if state.tau1 is None:
                series.record(t, float(self._ms[s - 1][j]))
                update_controller(state, series, t, self._switch)
                if state.tau1 is not None:
                    slots.append(j)
        if slots:
            # the latents of the depth steps up to s (the initial ones repeated
            # where fewer exist), newest first; x itself when all seeds switch here
            every = len(slots) == len(self._seeds)
            self._starts[s] = tuple(slots), [
                x if every else _read_only(x[slots])
                for x in (self._recent[max(-1 - d, -1 - s)] for d in range(self._depth))]

    def _fill(self, k: int, fractions: tuple[float, ...], tau1: int) -> None:
        """Compute the window with this k and these segment fractions of
        every seed that switched at tau1, as one batch."""
        slots, starts = self._starts[tau1]
        x, ms = _window_steps(self._inputs, starts[:len(fractions)], fractions, tau1, k)
        for j, x0, window_ms in zip(slots, x, zip(*[m.tolist() for m in ms])):
            self._windows[j, k, fractions] = x0, window_ms


def initial_latents(plan: ExecutionPlan) -> np.ndarray:
    """Seeded forward-noised draws, one row per condition.

    Row b draws x0 from the mixture restricted to condition b, then noises it
    to the t = T marginal. Identical across plan variants for a given seed.
    The stream is the one per-row sample_x0(gm, cond, rng, 1) calls consume
    (one uniform for the component, then d normals), so the draws match them
    bit for bit.
    """
    return _draw_latents(plan.mixture, plan.schedule, plan.conditions, plan.seed)


def _draw_latents(gm: GaussianMixture, sched: NoiseSchedule,
                  conditions: tuple[Condition, ...], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    b = len(conditions)
    comp = np.empty(b, dtype=np.intp)
    noise = np.empty((b, gm.dim))
    for i, cond in enumerate(conditions):
        cdf, comps = _component_sampler(gm, cond)
        comp[i] = comps[cdf.searchsorted(rng.random(), side="right")]
        rng.standard_normal(out=noise[i])
    x0 = gm.means[comp] + np.sqrt(gm.variances[comp]) * noise
    eps = rng.standard_normal((b, gm.dim))
    ab_t = sched.alpha_bar(sched.T)
    return np.sqrt(ab_t) * x0 + np.sqrt(1.0 - ab_t) * eps


def _conditional_branch(stack: _Stack, x: np.ndarray, t: int) -> np.ndarray:
    """eps_c for (S, B, d) latents: every singleton row of every seed in one
    gather, then one eps_prediction call per multi-index group, on the
    group's rows of every seed as one flat batch."""
    gm, sched = stack.mixture, stack.schedule
    rows, comps = stack.rows.singletons
    if rows.size == x.shape[1]:     # every row is singleton-conditioned, in order
        return _singleton_eps(gm, comps, sched, x, t)
    eps_c = np.empty_like(x)
    eps_c[:, rows] = _singleton_eps(gm, comps, sched, x.take(rows, axis=1), t)
    for cond, rows in stack.rows.multi_groups:
        xs = x.take(rows, axis=1)
        eps_c[:, rows] = eps_prediction(gm, cond, sched, xs.reshape(-1, x.shape[2]),
                                        t).reshape(xs.shape)
    return eps_c


def _branches(stack: _Stack, x: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Both branch outputs for (S, B, d) latents at timestep t; eps_u is one
    eps_prediction call on the flat (S*B, d) view."""
    eps_u = eps_prediction(stack.mixture, None, stack.schedule, x.reshape(-1, x.shape[2]), t)
    return _conditional_branch(stack, x, t), eps_u.reshape(x.shape)


def _exact_step(stack: _Stack, x: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """One measured guided step of every seed in the stack: the new latents
    and each seed's discrepancy. The branch outputs are checked once, by the
    per-seed rel_mae; ddim_step checks the guided estimate."""
    eps_c, eps_u = _branches(stack, x, t)
    m = _rel_mae_blocks(eps_c, eps_u)
    eps = _guided(eps_c, eps_u, stack.guidance.w)
    del eps_c, eps_u        # freed before the update allocates
    return ddim_step(x, t, eps, stack.schedule), m


def _window_steps(stack: _Stack, history: list[np.ndarray], fractions: tuple[float, ...],
                  tau1: int, k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The k pipelined steps after a switch at step tau1, then the exact
    steps to the end; returns the final latents (read-only) and the
    discrepancies of the exact steps.

    history[d] holds the latents d steps before the window, the initial
    latents standing in where the path is shorter. Segment d is evaluated d
    steps stale and the blend is weighted by segment fraction.
    """
    sched = stack.schedule
    T, n = sched.T, len(history)
    for s in range(tau1 + 1, tau1 + k + 1):
        t = T + 1 - s
        est = np.zeros_like(history[0])
        for d, f in enumerate(fractions):
            eps_c = _conditional_branch(stack, history[d], t)
            eps_c *= f
            est += eps_c
        history.insert(0, ddim_step(history[0], t, est, sched))
        del history[n:]
    x, ms = history[0], []
    for s in range(tau1 + k + 1, T + 1):
        x, m = _exact_step(stack, x, T + 1 - s)
        ms.append(m)
    x.flags.writeable = False
    return x, ms


class _Timing(NamedTuple):
    """A run's virtual clock; shared by every run of the same schedule."""

    trace: RunTrace
    latency_s: float
    comm_bytes: int


def _timing(plan: ExecutionPlan, tau1: int | None, tau2: int | None) -> _Timing:
    """The virtual clock of a run of the plan that switched at step tau1
    (None: unstaged) and reconnects after step tau2.

    It reads no latents: stage_at(s, tau1, tau2) decides how step s runs
    (see the module docstring), and an unstaged run's intervals carry no
    stage label. ExactPath memoizes it per command. A makespan that overflows
    (inf or nan) is a NumericError, so no run reports an infinite latency or
    a nan speedup.
    """
    tl = Timeline(plan.link)
    T = plan.schedule.T
    devs, fr = plan.devices, plan.segment_fractions
    if plan.variant is PlanVariant.SERIAL:
        dur = plan.cfg_batching_factor * devs[0].branch_step_cost
        clock = 0.0
        for s in range(1, T + 1):
            clock = tl.busy(devs[0].name, clock, dur, s, "", "cfg_branches")
    else:
        a, b = devs[0], devs[1]
        # device 0's clock, and when the latent reaches device 1; after a
        # pipelined step the hand-off exchange has re-synced the partner
        clock = partner = 0.0

        def segment(d: int, start: float) -> float:
            """Segment d's interval in the loop's current step s."""
            return tl.busy(devs[d].name, start, fr[d] * devs[d].branch_step_cost,
                           s, label, f"segment_{d}")

        for s in range(1, T + 1):
            stage = stage_at(s, tau1, tau2)
            label = "" if tau1 is None else stage.value
            if stage is not Stage.PARALLELISM:      # measured: one branch per device
                a_end = tl.busy(a.name, clock, a.branch_step_cost, s, label, "eps_c")
                b_end = tl.busy(b.name, partner, b.branch_step_cost, s, label, "eps_u")
                clock = max(a_end, tl.send(b.name, a.name, "latent", b_end, s))
                partner = tl.send(a.name, b.name, "latent", clock, s)
            elif s == tau1 + 1:
                # fill: a sequential chain ending at device 0, one hand-off per
                # hop; it starts when the partner holds the latent (N = 2), else
                # at device 0's clock
                cur = partner if len(devs) == 2 else clock
                for d in range(len(devs) - 1, 0, -1):
                    cur = tl.send(devs[d].name, devs[d - 1].name, "activation",
                                  segment(d, cur), s)
                clock = partner = segment(0, cur)
            else:
                # steady state: the segments overlap, and the N-1 contributions
                # travel concurrently (links are contention-free)
                arrivals = [tl.send(devs[d].name, a.name, "activation", segment(d, clock), s)
                            for d in range(1, len(devs))]
                clock = partner = max([segment(0, clock)] + arrivals)
    trace = tl.trace()
    latency = trace.makespan()
    if not math.isfinite(latency):
        raise NumericError(f"virtual latency is not finite: {latency}")
    return _Timing(trace, latency, account_comm(trace))


def _run(plan: ExecutionPlan) -> RunResult:
    """One sample's run: every variant but batch_level, and each of its pairs."""
    return (plan.exact_path or ExactPath((plan.seed,), plan)).run(plan)


def run_serial(plan: ExecutionPlan) -> RunResult:
    """The serial baseline: both branches on one device, every step exact."""
    if plan.variant is not PlanVariant.SERIAL:
        raise PlanError(f"run_serial got a {plan.variant.value} plan")
    return _run(plan)


def run_plan(plan: ExecutionPlan) -> RunResult:
    """Run a plan of any variant.

    Condition partitioning puts one branch per device on every step, so its
    trajectory matches serial exactly. Hybrid and layer-wise runs are staged:
    measured stages use devices 0 and 1 for the two branches, and the window
    is split across the N segment devices (the rest idle outside it; N = 2
    is hybrid exactly). A batch_level plan runs N/2 device pairs, each an
    independent hybrid sample, concurrently: sample i uses seed + i. Latency
    is the slowest pair's makespan and throughput counts every pair; x0,
    tau1, tau2 and series come from sample 0, and the trace is the pairs'
    traces one after another.
    """
    if plan.variant is not PlanVariant.BATCH_LEVEL:
        return _run(plan)
    n_pairs = len(plan.devices) // 2
    # only sample 0 runs the plan's seed, so only it may read the path
    results = tuple(_run(replace(plan, variant=PlanVariant.HYBRID,
                                 devices=plan.devices[2 * i:2 * i + 2], seed=plan.seed + i,
                                 exact_path=plan.exact_path if i == 0 else None))
                    for i in range(n_pairs))
    trace = RunTrace(sum((r.trace.busy for r in results), ()),
                     sum((r.trace.messages for r in results), ()))
    latency = max(r.latency_s for r in results)
    first = results[0]
    return RunResult(x0=first.x0, latency_s=latency,
                     comm_bytes=sum(r.comm_bytes for r in results),
                     throughput_samples_per_s=n_pairs / latency,
                     tau1=first.tau1, tau2=first.tau2, trace=trace,
                     series=first.series, per_sample=results)
