"""Analytic Gaussian-mixture model used as an exact stand-in for a denoiser.

All densities are diagonal-covariance mixtures, so scores, noised marginals
and branch noise predictions have closed forms. Shapes follow the convention
that the trailing axis is the data dimension d; batched inputs are (B, d).
The branch-discrepancy kernels (rel_mae and its score-ratio prediction) live
here too, so the controller in monitor.py runs without numpy.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateInputError, NumericError, ParameterError, PlanError,
                     ShapeError)
from .schedules import NoiseSchedule, _read_only, _reals


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Mixture of K diagonal Gaussians in R^d.

    Two mixtures are equal only if they are one object, and hash by identity:
    the oracle memo and engine.ExactPath.bind go by that identity, and so
    does plan equality. The memo holds what is compiled from the mixture
    itself, each subset's noised table per schedule ("noised") and component
    sampler ("sampler"), plus one slot of initial latents ("latents", see
    engine._initial_latents); a batch's layout is its plan's.

    Attributes:
        weights: (K,) strictly positive, normalized to sum to 1 on construction.
        means: (K, d).
        variances: (K, d) strictly positive diagonal entries.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = _reals(self.weights, "mixture weights")
        m = _reals(self.means, "mixture means")
        v = _reals(self.variances, "mixture variances")
        if w.ndim != 1 or m.ndim != 2 or v.ndim != 2:
            raise ShapeError("weights must be (K,), means and variances (K, d)")
        if m.shape != v.shape or m.shape[0] != w.shape[0]:
            raise ShapeError(f"inconsistent component shapes: weights {w.shape}, "
                             f"means {m.shape}, variances {v.shape}")
        if w.shape[0] < 1:
            raise ParameterError("mixture needs at least one component")
        if m.shape[1] < 1:
            raise ParameterError("mixture needs at least one dimension")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(m)) or not np.all(np.isfinite(v)):
            raise NumericError("mixture parameters must be finite")
        if np.any(w <= 0):
            raise ParameterError("mixture weights must be strictly positive")
        if np.any(v <= 0):
            raise ParameterError("mixture variances must be strictly positive")
        total = w.sum()
        if not np.isfinite(total):
            raise NumericError("mixture weights sum past float range")
        for name, arr in (("weights", w / total), ("means", m), ("variances", v)):
            object.__setattr__(self, name, _read_only(arr))
        # oracle entries compiled on first use, keyed by kind (see _memo); the
        # parameters above are read-only copies (_reals), so no entry goes stale
        object.__setattr__(self, "_memo", {})

    @property
    def n_components(self) -> int:
        return int(self.weights.shape[0])

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])


@dataclass(frozen=True)
class Condition:
    """A conditioning signal: a non-empty subset of component indices (0-based)."""

    indices: tuple[int, ...]

    def __post_init__(self):
        try:
            idx = tuple(map(_index, self.indices))
        except TypeError:           # not iterable: _index raises ParameterError
            raise ParameterError(f"condition is not a sequence: {self.indices!r}") from None
        if len(idx) == 0:
            raise ParameterError("condition subset must be non-empty")
        if len(set(idx)) != len(idx):
            raise ParameterError(f"condition subset has repeated indices: {idx}")
        if any(i < 0 for i in idx):
            raise ParameterError(f"condition indices must be >= 0: {idx}")
        object.__setattr__(self, "indices", idx)


def _index(i) -> int:
    """i as a component index: what operator.index takes (Python and numpy
    integers), but no bool, which it takes as 0 or 1."""
    if not isinstance(i, (bool, np.bool_)):
        try:
            return operator.index(i)
        except TypeError:
            pass
    raise ParameterError(f"condition indices must be integers, got {i!r}")


@dataclass(frozen=True)
class ScoreEval:
    """Score vector together with the log-density at the same point."""

    score: np.ndarray
    log_density: np.ndarray


def conditional(gm: GaussianMixture, cond: Condition) -> GaussianMixture:
    """Restrict the mixture to a component subset and renormalize weights."""
    idx = _subset(gm, cond)
    return GaussianMixture(gm.weights[idx], gm.means[idx], gm.variances[idx])


def _subset(gm: GaussianMixture, cond: Condition) -> np.ndarray:
    """cond's component indices as an array, checked against gm's K."""
    if max(cond.indices) >= gm.n_components:
        raise ParameterError(f"condition indices {cond.indices} exceed "
                             f"K={gm.n_components} components")
    return np.asarray(cond.indices, dtype=int)


def noised_mixture(gm: GaussianMixture, alpha_bar: float) -> GaussianMixture:
    """Marginal of x_t = sqrt(ab) x_0 + sqrt(1 - ab) eps when x_0 ~ gm.

    Component i maps to N(sqrt(ab) mu_i, ab var_i + (1 - ab)).
    """
    if not (0.0 < alpha_bar <= 1.0):
        raise ParameterError(f"alpha_bar must lie in (0, 1], got {alpha_bar}")
    return GaussianMixture(gm.weights, np.sqrt(alpha_bar) * gm.means,
                           alpha_bar * gm.variances + (1.0 - alpha_bar))


def _check_points(x: np.ndarray) -> None:
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise NumericError("evaluation points must be finite")


def _prep_x(gm: GaussianMixture, x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    _check_points(x)
    squeezed = x.ndim == 1
    if squeezed:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != gm.dim:
        raise ShapeError(f"x must be (d,) or (B, d) with d={gm.dim}, got {x.shape}")
    return x, squeezed


class _Terms(NamedTuple):
    """A mixture's parameters with the per-call constants of _log_resp hoisted."""

    means: np.ndarray           # (K, d)
    variances: np.ndarray       # (K, d)
    log_weights: np.ndarray     # (K,)
    log_norm: np.ndarray        # (K, d): log(2 pi var)

    @classmethod
    def of(cls, gm: GaussianMixture) -> "_Terms":
        """Read-only, like gm's own arrays: kernels must not write into them."""
        return cls(gm.means, gm.variances, _read_only(np.log(gm.weights)),
                   _read_only(np.log(2.0 * np.pi * gm.variances)))


def _log_resp(terms: _Terms, diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-component log joint and the log marginal density, batched.

    diff is means - x[:, None, :], (B, K, d), read and never written.
    """
    q = diff * diff                                                # (B, K, d)
    q /= terms.variances
    q += terms.log_norm
    log_joint = terms.log_weights - 0.5 * _sum_last(q)
    mx = _max_last(log_joint)
    log_density = mx + np.log(_sum_last(np.exp(log_joint - mx[:, None])))
    return log_joint, log_density


def _sum_last(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) as adds of whole columns in numpy's order for a row of
    n: one value at a time if n < 8; up to 128, eight running sums, then
    ((0+1)+(2+3))+((4+5)+(6+7)), then the rest. Longer rows take numpy's own
    sum, and so do fewer than 512 rows, where each add's fixed cost dominates."""
    n, m = a.shape[-1], a.shape[-1] // 8 * 8
    if not 0 < n <= 128 or a.size < 512 * n:
        return np.add.reduce(a, axis=-1)
    if m:
        r = a[..., :8]
        for i in range(8, m, 8):
            r = r + a[..., i:i + 8]
        r = r[..., 0::2] + r[..., 1::2]
        r = r[..., 0::2] + r[..., 1::2]
        res = r[..., 0] + r[..., 1]
    else:
        res, m = a[..., 0].copy(), 1
    for i in range(m, n):
        res += a[..., i]
    res += 0.0          # numpy's initial 0.0: it turns a sum of -0.0 into +0.0
    return res


def _max_last(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1) as np.maximum over whole columns: numpy's vector loop may
    break a -0.0/+0.0 tie the other way, which _log_resp's bits do not see."""
    mx = a[..., 0]
    for i in range(1, a.shape[-1]):
        mx = np.maximum(mx, a[..., i])
    return mx


def _score_rows(terms: _Terms, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score and log-density at each row of a (B, d) batch."""
    diff = np.empty((len(x),) + terms.means.shape)                 # (B, K, d)
    diff[...] = terms.means         # means - x, in two broadcasts faster than one
    diff -= x[:, None, :]
    log_joint, log_density = _log_resp(terms, diff)
    r = np.exp(log_joint - log_density[:, None])                   # (B, K)
    diff /= terms.variances                                        # the pull, in place
    return np.einsum("bk,bkd->bd", r, diff), log_density


def score(gm: GaussianMixture, x: np.ndarray) -> ScoreEval:
    """Exact gradient of the mixture log-density, with the log-density itself.

    Responsibilities are computed with max-subtracted softmax, so points far
    from every component stay numerically stable.
    """
    xb, squeezed = _prep_x(gm, x)
    s, log_density = _score_rows(_Terms.of(gm), xb)
    if squeezed:
        return ScoreEval(score=s[0], log_density=log_density[0])
    return ScoreEval(score=s, log_density=log_density)


def _memo(gm: GaussianMixture, key: tuple, build):
    """gm's entry for key, built by build() on first use. key starts with
    its kind, so the kinds share one dict; a build that raises stores nothing."""
    entry = gm._memo.get(key)
    if entry is None:
        entry = gm._memo[key] = build()
    return entry


def _noised_rows(base: GaussianMixture, alpha_bars: np.ndarray) -> tuple[_Terms, ...]:
    """Row t, for t = 0..T of a schedule's alpha_bars, is the _Terms.of
    noised_mixture(base, alpha_bar(t)) with its bits, built in one numpy
    pass: read-only views of three (T + 1, K, d) tables, and the log-weights
    every row shares. NoiseSchedule keeps each alpha_bar in (0, 1), where a
    valid base's noised means are finite and its variances finite and
    positive: every row would pass GaussianMixture's checks."""
    ab = np.concatenate(([1.0], alpha_bars))[:, None, None]  # t = 0: alpha_bar = 1
    means = _read_only(np.sqrt(ab) * base.means)
    variances = ab * base.variances
    variances += 1.0 - ab
    log_norm = 2.0 * np.pi * variances
    np.log(log_norm, out=log_norm)
    log_weights = _read_only(np.log(base.weights / base.weights.sum()))
    variances, log_norm = _read_only(variances), _read_only(log_norm)
    return tuple(_Terms(means[t], variances[t], log_weights, log_norm[t])
                 for t in range(len(ab)))


def _noised_terms(gm: GaussianMixture, cond: Condition | None, sched: NoiseSchedule,
                  t: int) -> _Terms:
    """Terms of noised_mixture(conditional(gm, cond), sched.alpha_bar(t)): row
    t of the subset's table for that alpha_bar array (keyed by its bytes),
    kept on gm. A t outside [0, T] raises the schedule's timestep error."""
    rows = _memo(gm, ("noised", None if cond is None else cond.indices, sched._key),
                 lambda: _noised_rows(gm if cond is None else conditional(gm, cond),
                                      sched.alpha_bars))
    if not 0 <= t < len(rows):
        sched.alpha_bar(t)                      # raises its timestep error
    return rows[t]


def eps_prediction(gm: GaussianMixture, cond: Condition | None, sched: NoiseSchedule,
                   x: np.ndarray, t: int) -> np.ndarray:
    """Oracle branch output at timestep t: eps = -sigma_t * score of the
    noised (conditional) mixture evaluated at x.

    It reads row t of the subset's noised table (_noised_terms), built once
    per schedule on gm: the same bits as scoring a freshly built mixture.
    """
    s = noised_score(gm, cond, sched, x, t)
    s *= -sched._sigma[t]           # eps = -sigma_t * s, in the score's buffer;
                                    # noised_score checked t
    return s


def _singleton_eps(gm: GaussianMixture, components: np.ndarray,
                   sched: NoiseSchedule, x: np.ndarray, t: int) -> np.ndarray:
    """eps_prediction for (S, B, d) latents whose row b of each seed is
    conditioned on the single component components[b], in one (B, d) gather
    broadcast over the seeds instead of one call per component.

    Noising acts on each component on its own, so component c of the
    unconditional table's row t holds exactly the bits of the singleton's,
    and a singleton's responsibility is exactly 1: eps[i, b] equals
    eps_prediction(gm, Condition((components[b],)), sched, x[i, b], t) bit
    for bit, whatever S is. components must be (B,) indices in [0, K);
    ExecutionPlan checks them once against the mixture, so not here. It is
    the gather alone: its callers check x (_check_points) before it.
    """
    terms = _noised_terms(gm, None, sched, t)
    # with the bits of -sigma * ((m - x) / v); take gathers faster than [components]
    eps = terms.means.take(components, axis=0) - x
    eps /= terms.variances.take(components, axis=0)
    eps *= -sched._sigma[t]         # _noised_terms checked t
    return eps


def noised_score(gm: GaussianMixture, cond: Condition | None, sched: NoiseSchedule,
                 x: np.ndarray, t: int) -> np.ndarray:
    """Score of the noised (conditional) mixture at timestep t, read from the
    table row t: the same bits as score(noised_mixture(...), x).score."""
    terms = _noised_terms(gm, cond, sched, t)
    xb, squeezed = _prep_x(gm, x)
    s, _ = _score_rows(terms, xb)
    return s[0] if squeezed else s


def rel_mae(eps_c: np.ndarray, eps_u: np.ndarray) -> float:
    """Relative mean absolute error between branch outputs.

    Computed as the ratio of batch-summed L1 norms, which equals the ratio of
    batch means; invariant to common rescaling of both inputs.
    """
    eps_c = np.asarray(eps_c, dtype=float)
    eps_u = np.asarray(eps_u, dtype=float)
    if eps_c.shape != eps_u.shape:
        raise ShapeError(f"branch outputs disagree: {eps_c.shape} vs {eps_u.shape}")
    # one block of every value; the reshape also gives a 0-d pair a buffer
    return float(_rel_mae_blocks(eps_c.reshape(1, -1), eps_u.reshape(1, -1))[0][0])


def _rel_mae_blocks(eps_c: np.ndarray, eps_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rel_mae of each pair (eps_c[i], eps_u[i]), summed over its values in
    memory order with the bits of np.abs(c - u).sum() / np.abs(u).sum() on
    that pair alone, and the new array delta = eps_c - eps_u it sums, which
    the guided step takes over. It is computed with numpy's warnings off. A
    finite m + denom implies finite outputs and nonzero, finite denominators
    (an overflowed one would make m 0) and a finite m: only where it is not
    do the checks run (finite outputs, nonzero denominators, denominators
    that did not overflow, finite m), in that order, for its error. The sum
    overflows nowhere m and denom are both finite, as m * denom is the
    finite numerator."""
    with np.errstate(all="ignore"):
        magnitude = np.abs(eps_u)
        denom = np.add.reduce(magnitude.reshape(len(eps_u), -1), axis=1)
        delta = eps_c - eps_u
        m = np.add.reduce(np.abs(delta, out=magnitude).reshape(len(delta), -1), axis=1) / denom
        finite = np.isfinite(m + denom)
    if not np.logical_and.reduce(finite, axis=None):
        if not (np.isfinite(eps_c).all() and np.isfinite(eps_u).all()):
            raise NumericError("non-finite branch outputs")
        if (denom == 0.0).any():
            raise DegenerateInputError("reference branch has zero L1 norm")
        if not np.isfinite(denom).all():
            raise NumericError("reference branch L1 norm overflows")
        raise NumericError("branch discrepancy is not finite")
    return m, delta


def score_ratio_estimate(gm: GaussianMixture,
                         groups: tuple[tuple[Condition, np.ndarray | slice], ...],
                         sched: NoiseSchedule, x: np.ndarray, t: int) -> float:
    """Discrepancy predicted from scores alone.

    groups holds (condition, rows) pairs, as ConditionRows.groups does: rows
    index x, and each condition's rows take its conditioning gradient
    s_c - s_u. The result is the ratio of batch-summed L1 norms of
    those gradients and of the unconditional score s_u, both at the noised
    marginal for timestep t. Identical to rel_mae of the two branch outputs
    because the sigma_t factor cancels.
    """
    s_u = noised_score(gm, None, sched, x, t)
    denom = float(np.abs(s_u).sum())
    if denom == 0.0:
        raise DegenerateInputError("unconditional score has zero L1 norm")
    return sum(float(np.abs(noised_score(gm, cond, sched, x[rows], t) - s_u[rows]).sum())
               for cond, rows in groups) / denom


def _component_sampler(gm: GaussianMixture, cond: Condition | None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(cdf, components) for drawing components of conditional(gm, cond),
    built once per subset and kept on gm.

    components[cdf.searchsorted(rng.random(n), side="right")] draws, from the
    same stream, exactly the components rng.choice(K, size=n, p=weights)
    would pick (as indices into gm), without choice's per-call validation of
    p. The subset's weights are gm's validated ones, renormalized as
    conditional renormalizes them (w / w.sum(), the same bits), so no
    conditional mixture is built or checked again.
    """
    def build():
        if cond is None:
            weights, comps = gm.weights, np.arange(gm.n_components)
        else:
            comps = _subset(gm, cond)
            weights = gm.weights[comps]
            weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        return _read_only(cdf), _read_only(comps)

    return _memo(gm, ("sampler", None if cond is None else cond.indices), build)


class ConditionRows(NamedTuple):
    """Where a batch's conditions put their rows; every array is read-only."""

    # (condition, batch rows) per distinct subset, in first-seen order
    groups: tuple[tuple[Condition, np.ndarray], ...]
    # (rows, component) of every singleton-conditioned row, ascending rows
    singletons: tuple[np.ndarray, np.ndarray]
    # the groups with more than one index
    multi_groups: tuple[tuple[Condition, np.ndarray], ...]


def _condition_rows(gm: GaussianMixture, conditions: tuple[Condition, ...]) -> ConditionRows:
    """The row layout of a batch of conditions on gm, built on every call
    and kept nowhere here: an unbound ExecutionPlan keeps the one it builds,
    and a plan bound to a store takes its template plan's. PlanError if a
    condition lies outside gm."""
    subsets: dict[tuple[int, ...], tuple[Condition, list[int]]] = {}
    for i, c in enumerate(conditions):
        subsets.setdefault(c.indices, (c, []))[1].append(i)
    for idx in subsets:
        if max(idx) >= gm.n_components:
            raise PlanError(f"condition {idx} exceeds mixture components")
    groups = tuple((cond, _read_only(np.asarray(rows))) for cond, rows in subsets.values())
    single = [i for i, c in enumerate(conditions) if len(c.indices) == 1]
    singletons = (_read_only(np.asarray(single, dtype=np.intp)),
                  _read_only(np.asarray([conditions[i].indices[0] for i in single],
                                        dtype=np.intp)))
    return ConditionRows(groups, singletons, tuple(g for g in groups if len(g[0].indices) > 1))


def sample_x0(gm: GaussianMixture, cond: Condition | None,
              rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n exact samples, conditioning by subset restriction when given."""
    if n < 0:
        raise ParameterError(f"sample count must be >= 0, got {n}")
    cdf, comps = _component_sampler(gm, cond)
    comp = comps[cdf.searchsorted(rng.random(n), side="right")]
    noise = rng.standard_normal((n, gm.dim))
    return gm.means[comp] + np.sqrt(gm.variances[comp]) * noise
