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
agree), so the blended estimate is used directly. A latent is checked finite
by the oracle call that reads it, on window entry, else by the step that makes
it (_pipelined_steps; x0, which no oracle reads, _exact_step at t = 1); an
exact step's ddim_step checks its x_t a second time (schedules._check_pair).

A seed is the leading axis of the latents: S seeds are one (S, B, d) array
x, seed i is x[i], and all share one batch's condition rows (axis 1). Every
kernel of a step is elementwise (broadcast over seeds) or reduces over one
row (over d and the mixture's K components), and the discrepancy over x[i]
alone, so each seed gets the bits it gets alone: ExactPath steps its seeds
(a sweep's or a batch_level plan's pairs') and shared windows as one batch,
and a window's pipelined steps continue those of a narrower one.

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
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import NumericError, PlanError
from .mixture import _component_sampler, _rel_mae_blocks, _singleton_eps, eps_prediction
from .mixture import rel_mae  # noqa: F401  (perfbench/spans.py wraps engine.rel_mae)
from .mixture import sample_x0  # noqa: F401  (perfbench/spans.py wraps engine.sample_x0)
from .monitor import DiscrepancySeries, Stage, StageState, stage_at, update_controller
from .plan import _STAGED, ExecutionPlan, PlanVariant
from .schedules import _guided, _read_only, ddim_step
from .schedules import cfg_combine  # noqa: F401  (perfbench/spans.py wraps it here)
from .trace import RunTrace, Timeline, account_comm


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of one simulated run; equal only to itself (x0 is an array)."""

    x0: np.ndarray
    latency_s: float
    comm_bytes: int
    throughput_samples_per_s: float
    tau1: int | None
    tau2: int | None
    trace: RunTrace
    series: tuple[tuple[int, float], ...]


def _seeds(plan: ExecutionPlan) -> range:
    """The seeds a plan reads: a batch_level plan's pair i runs seed + i."""
    pairs = len(plan.devices) // 2 if plan.variant is PlanVariant.BATCH_LEVEL else 1
    return range(plan.seed, plan.seed + pairs)


class ExactPath:
    """The all-exact trajectories of a set of seeds, stepped as one batch,
    and the pipelined windows of the staged runs bound to them.

    Each step's latents are one (S, B, d) array, and seed i, x[i], gets the
    bits it gets stepped alone (see the module docstring). A plan bound to
    it runs through run_plan (_run): serial and condition partitioning read
    the exact path end to end, and so does a k = 0 staged run; a staged run
    with k >= 1 reads it up to its switch, then its window's x0 and the
    discrepancies of the exact steps after the window. The store alone
    decides tau1, under its one switch rule (k only places tau2): it keeps
    one controller and series per seed, and after each exact step
    update_controller advances every seed yet to switch. The first run of a
    window computes the window with that k and those segment fractions of
    every seed that switched at the same step, as one batch, its pipelined
    steps continuing the furthest computed (_fill). A batch_level plan runs
    its pairs' hybrid plans on it.

    A template plan, which the store keeps, fixes it when it is built: the
    model objects and condition layout (plan._rows) that every step reads
    and every bound plan takes over, the initial latents (drawn once per
    seed and command: _initial_latents), the switch rule (a staged plan's
    switch config with k = 0; none for an unstaged plan) and the depth (a
    staged plan's segment count, whatever its k), the latents it keeps up to
    each seed's switch for windows to start from. bind, its one public method,
    checks a plan against them, else PlanError: each seed it reads (_seeds)
    is one of the store's, its model the template's objects, a staged plan's
    rule the store's, and a window (k >= 1) starts from no more latents than
    the depth. The store keeps only what bound plans read (per seed the
    discrepancies, x0, the latents up to its switch and the windows' x0; per
    switch step and fractions, the N latents of the furthest pipelined step).
    A run's x0 is a read-only view x[i] of an (S, B, d) array, the same
    object on every run that reads it and checked by the step that made it,
    and a step that raises stores nothing.

    The store also memoizes the virtual clock of each schedule its runs
    take (_timing, keyed by every input of the clock but never the seed), so
    a sweep builds one trace per distinct (tau1, k), not one per run.
    """

    def __init__(self, seeds, plan: ExecutionPlan):
        self._seeds = tuple(seeds)
        if not self._seeds:
            raise PlanError("exact path needs at least one seed")
        self._slot = {seed: i for i, seed in enumerate(self._seeds)}
        if len(self._slot) < len(self._seeds):
            raise PlanError(f"exact path seeds must be distinct, got {list(self._seeds)}")
        self._template = plan
        staged = plan.variant in _STAGED
        self._switch = replace(plan.switch, k=0) if staged else None     # the rule
        self._depth = len(plan.segment_fractions) if staged else 0      # >= 2 if staged
        self._controls = [(StageState(), DiscrepancySeries())           # per seed
                          for _ in self._seeds] if staged else []
        self._pending = list(range(len(self._seeds))) if staged else []  # yet to switch
        x_T = _initial_latents(plan, self._seeds)
        self._recent = [_read_only(x_T)]               # x_T, then the last steps' latents
        self._ms: list[list[float]] = []               # per exact step, each seed's rel_mae
        self._x0: tuple[np.ndarray, ...] = ()           # per seed, once step T is taken
        self._starts: dict[int, tuple] = {}            # tau1 -> (seeds, latents)
        self._windows: dict[tuple, tuple] = {}         # (seed, k, fractions) -> (x0, ms)
        self._heads: dict[tuple, tuple] = {}           # (tau1, fractions) -> (k, latents)
        self._timings: dict[tuple, _Timing] = {}       # see _run

    def bind(self, plan: ExecutionPlan) -> None:
        """Check that the store serves the plan (see the class docstring)."""
        missing = [seed for seed in _seeds(plan) if seed not in self._slot]
        if missing:
            raise PlanError(f"exact path holds seeds {list(self._seeds)}, "
                            f"got seed {missing[0]}")
        for name in ("mixture", "schedule", "conditions", "guidance"):
            if getattr(plan, name) is not getattr(self._template, name):
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

    def _run(self, plan: ExecutionPlan) -> RunResult:
        """Run a bound plan: its seed's exact path up to the step it leaves
        it (T, or a staged run's tau1 when k >= 1), then its window. The
        series holds every exact step, none of the window's."""
        if plan.variant is PlanVariant.BATCH_LEVEL:     # see run_plan
            runs = [self._run(replace(plan, variant=PlanVariant.HYBRID, seed=seed,
                                      devices=plan.devices[2 * i:2 * i + 2], exact_path=self))
                    for i, seed in enumerate(_seeds(plan))]
            latency = max(r.latency_s for r in runs)
            return replace(runs[0], latency_s=latency,
                           throughput_samples_per_s=len(runs) / latency,
                           comm_bytes=sum(r.comm_bytes for r in runs),
                           trace=RunTrace(sum((r.trace.busy for r in runs), ()),
                                          sum((r.trace.messages for r in runs), ())))
        slot, T = self._slot[plan.seed], plan.schedule.T
        tau1 = tau2 = None
        if plan.variant in _STAGED:
            state, _ = self._controls[slot]
            while state.tau1 is None:
                self._extend(len(self._ms) + 1)
            tau1, tau2 = state.tau1, state.tau1 + plan.switch.k
        steps = T if tau1 == tau2 else tau1
        self._extend(steps)
        exact = zip(range(T, T - steps, -1), map(itemgetter(slot), self._ms[:steps]))
        if tau1 == tau2:
            x0, window = self._x0[slot], ()
        else:
            key = (slot, plan.switch.k, plan.segment_fractions)
            if key not in self._windows:
                self._fill(plan.switch.k, plan.segment_fractions, tau1)
            x0, ms = self._windows[key]
            window = zip(range(T - tau2, 0, -1), ms)
        # every input of the virtual clock, and never the seed
        key = (plan.variant, plan.devices, plan.link, plan.segment_fractions,
               plan.cfg_batching_factor, T, tau1, tau2)
        timing = self._timings.get(key)
        if timing is None:
            timing = self._timings[key] = _timing(plan, tau1, tau2)
        return RunResult(x0=x0, latency_s=timing.latency_s, comm_bytes=timing.comm_bytes,
                         throughput_samples_per_s=1.0 / timing.latency_s,
                         tau1=tau1, tau2=tau2, trace=timing.trace, series=(*exact, *window))

    def _extend(self, s: int) -> None:
        T = self._template.schedule.T
        while len(self._ms) < s:
            x, m, _, _ = _exact_step(self._template, self._recent[-1], T - len(self._ms))
            self._ms.append(m.tolist())
            self._recent.append(_read_only(x))
            if len(self._ms) == T:
                self._x0 = tuple(x)             # seed i's x0 is the view x[i]
            self._control(len(self._ms))
            # keep as many steps as a window of a seed yet to switch starts from
            keep = self._depth if self._pending else 1
            del self._recent[:-keep]

    def _control(self, s: int) -> None:
        """Record exact step s of every seed yet to switch and step its
        controller; keep the latents the windows of the seeds that switch
        here start from."""
        t = self._template.schedule.T + 1 - s
        ms, slots, pending = self._ms[s - 1], [], []
        for j in self._pending:
            state, series = self._controls[j]
            series.record(t, ms[j])
            update_controller(state, series, t, self._switch)
            (pending if state.tau1 is None else slots).append(j)
        self._pending = pending
        if slots:
            # the latents of the depth steps up to s (the initial ones repeated
            # where fewer exist), newest first; x itself when all seeds switch here
            every = len(slots) == len(self._seeds)
            self._starts[s] = tuple(slots), tuple(
                x if every else _read_only(x[slots])
                for x in (self._recent[max(-1 - d, -1 - s)] for d in range(self._depth)))

    def _fill(self, k: int, fractions: tuple[float, ...], tau1: int) -> None:
        """Compute the window with this k and these fractions of every seed
        that switched at tau1, as one batch: its pipelined steps continue the
        head (the furthest computed) if that is at most k steps in, else restart."""
        slots, starts = self._starts[tau1]
        j, head = self._heads.get((tau1, fractions), (0, starts[:len(fractions)]))
        if j > k:
            head = _pipelined_steps(self._template, starts[:len(fractions)], fractions, tau1, k)
        else:
            head = _pipelined_steps(self._template, head, fractions, tau1 + j, k - j)
            self._heads[tau1, fractions] = k, head
        x, ms = _exact_steps(self._template, head[0], tau1 + k)
        for j, x0, window_ms in zip(slots, x, zip(*[m.tolist() for m in ms])):
            self._windows[j, k, fractions] = x0, window_ms


def _initial_latents(plan: ExecutionPlan, seeds: tuple[int, ...]) -> np.ndarray:
    """The seeds' draws (_draw_latents) as one (S, B, d) array. The mixture
    keeps one slot, the last store's draws, read-only, with the conditions
    tuple and schedule key they were drawn for, compared by == (nothing is
    hashed). A store of that batch and schedule reads the kept draw of each
    of its seeds, so the stores of one command (a simulate's plan and its
    serial baseline) draw each seed once; any other store replaces the slot."""
    batch = plan.conditions, plan.schedule._key
    kept_batch, kept = plan.mixture._memo.get(("latents",), (None, {}))
    if kept_batch != batch:
        kept = {}
    draws = {seed: kept[seed] if seed in kept else _read_only(_draw_latents(plan, seed))
             for seed in seeds}
    plan.mixture._memo[("latents",)] = batch, draws
    return np.stack(list(draws.values()))


def _draw_latents(plan: ExecutionPlan, seed: int) -> np.ndarray:
    """Seeded forward-noised draws, one row per condition: row b draws x0
    from the mixture restricted to condition b, then noises it to the t = T
    marginal. They read only the plan's model objects and layout and the
    seed, so every plan variant starts from the same latents. The stream is
    the one per-row sample_x0(gm, cond, rng, 1) calls consume (one uniform
    for the component, then d normals), so the draws match them bit for bit;
    each condition's rows then take their components in one search of the
    uniforms.
    """
    gm, sched = plan.mixture, plan.schedule
    rng = np.random.default_rng(seed)
    b = len(plan.conditions)
    u, noise = np.empty(b), np.empty((b, gm.dim))
    for i in range(b):
        u[i] = rng.random()
        rng.standard_normal(out=noise[i])
    comp = np.empty(b, dtype=np.intp)
    for cond, rows in plan._rows.groups:
        cdf, comps = _component_sampler(gm, cond)
        comp[rows] = comps[cdf.searchsorted(u[rows], side="right")]
    x0 = gm.means[comp] + np.sqrt(gm.variances[comp]) * noise
    eps = rng.standard_normal((b, gm.dim))
    ab_t = sched.alpha_bar(sched.T)
    return np.sqrt(ab_t) * x0 + np.sqrt(1.0 - ab_t) * eps


def _conditional_branch(plan: ExecutionPlan, x: np.ndarray, t: int) -> np.ndarray:
    """eps_c for (S, B, d) latents: every singleton row of every seed in one
    gather, then one eps_prediction call per multi-index group, on the
    group's rows of every seed as one flat batch."""
    gm, sched = plan.mixture, plan.schedule
    rows, comps = plan._rows.singletons
    if rows.size == x.shape[1]:     # every row is singleton-conditioned, in order
        return _singleton_eps(gm, comps, sched, x, t)
    eps_c = np.empty_like(x)
    eps_c[:, rows] = _singleton_eps(gm, comps, sched, x.take(rows, axis=1), t)
    for cond, rows in plan._rows.multi_groups:
        xs = x.take(rows, axis=1)
        eps_c[:, rows] = eps_prediction(gm, cond, sched, xs.reshape(-1, x.shape[2]),
                                        t).reshape(xs.shape)
    return eps_c


def _branches(plan: ExecutionPlan, x: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Both branch outputs for (S, B, d) latents at timestep t; eps_u is one
    eps_prediction call on the flat (S*B, d) view, and its input check, which
    runs first, is the step's first check of x."""
    eps_u = eps_prediction(plan.mixture, None, plan.schedule, x.reshape(-1, x.shape[2]), t)
    return _conditional_branch(plan, x, t), eps_u.reshape(x.shape)


def _exact_step(plan: ExecutionPlan, x: np.ndarray, t: int) -> tuple[np.ndarray, ...]:
    """One measured guided step of every seed of x, curve's too, under the
    plan's model objects and layout: the new latents, each seed's
    discrepancy and the branch outputs eps_c, eps_u. The oracle checks x,
    rel_mae the branch outputs, ddim_step x again and the guided estimate
    (in rel_mae's eps_c - eps_u), and the step x0, which nothing reads."""
    eps_c, eps_u = _branches(plan, x, t)
    m, delta = _rel_mae_blocks(eps_c, eps_u)
    x = ddim_step(x, t, _guided(eps_c, delta, plan.guidance.w), plan.schedule)
    if t == 1:
        _check_latents(x, 0)
    return x, m, eps_c, eps_u


def _pipelined_steps(plan: ExecutionPlan, history: tuple[np.ndarray, ...],
                     fractions: tuple[float, ...], s: int, k: int) -> tuple[np.ndarray, ...]:
    """Pipelined steps s + 1 .. s + k from history, the read-only latents of the
    N steps up to s, newest first (the initial latents where the path is
    shorter), to those up to s + k; segment d reads the latents d steps stale.
    It checks each latent once, on entry or as it is made, so an overflowing
    step raises before any caller keeps its latents; the gather checks none."""
    sched = plan.schedule
    for d, x in enumerate(history):
        _check_latents(x, min(sched.T - s + d, sched.T))
    for t in range(sched.T - s, sched.T - s - k, -1):       # steps s + 1 .. s + k
        est = np.zeros_like(history[0])
        for d, f in enumerate(fractions):
            eps_c = _conditional_branch(plan, history[d], t)
            eps_c *= f
            est += eps_c
        x = ddim_step(history[0], t, est, sched)
        _check_latents(x, t - 1)
        history = (_read_only(x),) + history[:-1]
    return history


def _check_latents(x: np.ndarray, t: int) -> None:
    """Check latents at timestep t that no oracle call checks before use."""
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise NumericError(f"latents at t={t} are not finite")


def _exact_steps(plan: ExecutionPlan, x: np.ndarray, s: int) -> tuple[np.ndarray, list]:
    """Exact steps s + 1 .. T from x: the final latents and discrepancies."""
    ms = []
    for t in range(plan.schedule.T - s, 0, -1):
        x, m, _, _ = _exact_step(plan, x, t)
        ms.append(m)
    return _read_only(x), ms


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


def run_serial(plan: ExecutionPlan) -> RunResult:
    """The serial baseline: both branches on one device, every step exact."""
    if plan.variant is not PlanVariant.SERIAL:
        raise PlanError(f"run_serial got a {plan.variant.value} plan")
    return run_plan(plan)


def run_plan(plan: ExecutionPlan) -> RunResult:
    """Run a plan of any variant on its store, else on a private one.

    Condition partitioning puts one branch per device on every step, so its
    trajectory matches serial exactly. Hybrid and layer-wise runs are staged:
    measured stages use devices 0 and 1 for the two branches, and the window
    is split across the N segment devices (the rest idle outside it; N = 2
    is hybrid exactly). A batch_level plan runs N/2 device pairs, each an
    independent hybrid sample, concurrently: pair i uses seed + i, and one
    store steps seeds seed .. seed + N/2 - 1 as one batch. Latency is the
    slowest pair's makespan and throughput counts every pair; x0, tau1,
    tau2 and series come from pair 0, and the trace is the pairs' traces
    one after another.
    """
    return (plan.exact_path or ExactPath(_seeds(plan), plan))._run(plan)
