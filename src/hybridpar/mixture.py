"""Analytic Gaussian-mixture model used as an exact stand-in for a denoiser.

All densities are diagonal-covariance mixtures, so scores, noised marginals
and branch noise predictions have closed forms. Shapes follow the convention
that the trailing axis is the data dimension d; batched inputs are (B, d).
The branch-discrepancy kernels (rel_mae and its score-ratio prediction) live
here too, so the controller in monitor.py runs without numpy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateInputError, NumericError, ParameterError, PlanError,
                     ShapeError)
from .schedules import NoiseSchedule


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of K diagonal Gaussians in R^d.

    Attributes:
        weights: (K,) strictly positive, normalized to sum to 1 on construction.
        means: (K, d).
        variances: (K, d) strictly positive diagonal entries.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        v = np.asarray(self.variances, dtype=float)
        if w.ndim != 1 or m.ndim != 2 or v.ndim != 2:
            raise ShapeError("weights must be (K,), means and variances (K, d)")
        if m.shape != v.shape or m.shape[0] != w.shape[0]:
            raise ShapeError(f"inconsistent component shapes: weights {w.shape}, "
                             f"means {m.shape}, variances {v.shape}")
        if w.shape[0] < 1:
            raise ParameterError("mixture needs at least one component")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(m)) or not np.all(np.isfinite(v)):
            raise NumericError("mixture parameters must be finite")
        if np.any(w <= 0):
            raise ParameterError("mixture weights must be strictly positive")
        if np.any(v <= 0):
            raise ParameterError("mixture variances must be strictly positive")
        total = w.sum()
        if not np.isfinite(total):
            raise NumericError("mixture weights sum past float range")
        w = w / total
        for arr in (w, m, v):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)
        # oracle entries compiled on first use, keyed by kind (see _memo); the
        # parameters above are read-only, so an entry never goes stale
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
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise ParameterError("condition subset must be non-empty")
        if len(set(idx)) != len(idx):
            raise ParameterError(f"condition subset has repeated indices: {idx}")
        if any(i < 0 for i in idx):
            raise ParameterError(f"condition indices must be >= 0: {idx}")
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class ScoreEval:
    """Score vector together with the log-density at the same point."""

    score: np.ndarray
    log_density: np.ndarray


def conditional(gm: GaussianMixture, cond: Condition) -> GaussianMixture:
    """Restrict the mixture to a component subset and renormalize weights."""
    if max(cond.indices) >= gm.n_components:
        raise ParameterError(f"condition indices {cond.indices} exceed "
                             f"K={gm.n_components} components")
    idx = np.asarray(cond.indices, dtype=int)
    return GaussianMixture(weights=gm.weights[idx].copy(),
                           means=gm.means[idx].copy(),
                           variances=gm.variances[idx].copy())


def noised_mixture(gm: GaussianMixture, alpha_bar: float) -> GaussianMixture:
    """Marginal of x_t = sqrt(ab) x_0 + sqrt(1 - ab) eps when x_0 ~ gm.

    Component i maps to N(sqrt(ab) mu_i, ab var_i + (1 - ab)).
    """
    if not (0.0 < alpha_bar <= 1.0):
        raise ParameterError(f"alpha_bar must lie in (0, 1], got {alpha_bar}")
    return GaussianMixture(weights=gm.weights.copy(),
                           means=np.sqrt(alpha_bar) * gm.means,
                           variances=alpha_bar * gm.variances + (1.0 - alpha_bar))


def _prep_x(gm: GaussianMixture, x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise NumericError("evaluation points must be finite")
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
        log_weights = np.log(gm.weights)
        log_norm = np.log(2.0 * np.pi * gm.variances)
        log_weights.flags.writeable = False
        log_norm.flags.writeable = False
        return cls(gm.means, gm.variances, log_weights, log_norm)


def _log_resp(terms: _Terms, diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-component log joint and the log marginal density, batched.

    diff is x[:, None, :] - means, (B, K, d); it is read, never written.
    """
    q = diff * diff                                                # (B, K, d)
    q /= terms.variances
    q += terms.log_norm
    log_joint = terms.log_weights - 0.5 * q.sum(axis=2)
    mx = log_joint.max(axis=1, keepdims=True)
    log_density = mx[:, 0] + np.log(np.exp(log_joint - mx).sum(axis=1))
    return log_joint, log_density


def _score_rows(terms: _Terms, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score and log-density at each row of a (B, d) batch."""
    diff = x[:, None, :] - terms.means                             # (B, K, d)
    log_joint, log_density = _log_resp(terms, diff)
    r = np.exp(log_joint - log_density[:, None])                   # (B, K)
    # -(x - mean) is exactly mean - x, so the pull reuses diff's buffer
    pull = np.negative(diff, out=diff)
    pull /= terms.variances
    return np.einsum("bk,bkd->bd", r, pull), log_density


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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _memo(gm: GaussianMixture, key: tuple, build):
    """gm's entry for key, built by build() on first use. key starts with
    its kind, so the kinds share one dict; a build that raises stores nothing."""
    entry = gm._memo.get(key)
    if entry is None:
        entry = gm._memo[key] = build()
    return entry


def _conditional_of(gm: GaussianMixture, cond: Condition | None) -> GaussianMixture:
    """conditional(gm, cond), built once per subset and kept on gm."""
    if cond is None:
        return gm
    return _memo(gm, ("conditional", cond.indices), lambda: conditional(gm, cond))


def _noised_terms(gm: GaussianMixture, cond: Condition | None,
                  alpha_bar: float) -> _Terms:
    """Terms of noised_mixture(conditional(gm, cond), alpha_bar), kept on gm.

    Each (subset, alpha_bar) entry is built once with the public constructors,
    so it is validated once and holds exactly their bits.
    """
    return _memo(gm, ("noised", None if cond is None else cond.indices, alpha_bar),
                 lambda: _Terms.of(noised_mixture(_conditional_of(gm, cond), alpha_bar)))


def eps_prediction(gm: GaussianMixture, cond: Condition | None, sched: NoiseSchedule,
                   x: np.ndarray, t: int) -> np.ndarray:
    """Oracle branch output at timestep t: eps = -sigma_t * score of the
    noised (conditional) mixture evaluated at x.

    The noised mixture is compiled once per (subset, alpha_bar) on gm; the
    result has the same bits as scoring a freshly built noised mixture.
    """
    s = noised_score(gm, cond, sched, x, t)
    s *= -sched.sigma(t)            # eps = -sigma_t * s, in the score's buffer
    return s


def _singleton_eps(gm: GaussianMixture, components: np.ndarray,
                   sched: NoiseSchedule, x: np.ndarray, t: int) -> np.ndarray:
    """eps_prediction for (S, B, d) latents whose row b of each seed is
    conditioned on the single component components[b], in one (B, d) gather
    broadcast over the seeds instead of one call per component.

    Noising acts on each component on its own, so row c of the unconditional
    entry holds exactly the bits of the singleton entry for (c,), and a
    singleton's responsibility is exactly 1: eps[i, b] equals
    eps_prediction(gm, Condition((components[b],)), sched, x[i, b], t) bit
    for bit, whatever S is. components must be (B,) indices in [0, K);
    ExecutionPlan checks them once against the mixture, so not here.
    """
    terms = _noised_terms(gm, None, sched.alpha_bar(t))
    if not np.isfinite(x).all():
        raise NumericError("evaluation points must be finite")
    # with the bits of -sigma * ((m - x) / v); take gathers faster than [components]
    eps = terms.means.take(components, axis=0) - x
    eps /= terms.variances.take(components, axis=0)
    eps *= -sched.sigma(t)
    return eps


def noised_score(gm: GaussianMixture, cond: Condition | None, sched: NoiseSchedule,
                 x: np.ndarray, t: int) -> np.ndarray:
    """Score of the noised (conditional) mixture at timestep t, read from the
    compiled entry: the same bits as score(noised_mixture(...), x).score."""
    terms = _noised_terms(gm, cond, sched.alpha_bar(t))
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
    return float(_rel_mae_blocks(eps_c.reshape(1, -1), eps_u.reshape(1, -1))[0])


def _rel_mae_blocks(eps_c: np.ndarray, eps_u: np.ndarray) -> np.ndarray:
    """rel_mae of each pair (eps_c[i], eps_u[i]), summed over its values in
    memory order with the bits of np.abs(c - u).sum() / np.abs(u).sum() on
    that pair alone. Finite outputs can still sum past float range, so the
    results are checked too: no series may record a non-finite discrepancy."""
    if not (np.isfinite(eps_c).all() and np.isfinite(eps_u).all()):
        raise NumericError("non-finite branch outputs")
    denom = np.abs(eps_u).reshape(len(eps_u), -1).sum(axis=1)
    if (denom == 0.0).any():
        raise DegenerateInputError("reference branch has zero L1 norm")
    diff = eps_c - eps_u
    m = np.abs(diff, out=diff).reshape(len(diff), -1).sum(axis=1) / denom
    if not np.isfinite(m).all():
        raise NumericError("branch discrepancy is not finite")
    return m


def score_ratio_estimate(gm: GaussianMixture,
                         groups: tuple[tuple[Condition, np.ndarray | slice], ...],
                         sched: NoiseSchedule, x: np.ndarray, t: int) -> float:
    """Discrepancy predicted from scores alone.

    groups holds (condition, rows) pairs, as _condition_rows(...).groups
    does: rows index x, and each condition's rows take its conditioning
    gradient s_c - s_u. The result is the ratio of batch-summed L1 norms of
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
    p: the conditional mixture validated its weights when it was built.
    """
    def build():
        cdf = _conditional_of(gm, cond).weights.cumsum()
        cdf /= cdf[-1]
        comps = np.arange(gm.n_components) if cond is None else np.asarray(cond.indices)
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
    """The row layout of a batch of conditions, built once per conditions
    tuple and kept on gm, so every store of one config reads the same arrays."""
    def build():
        subsets: dict[tuple[int, ...], tuple[Condition, list[int]]] = {}
        for i, c in enumerate(conditions):
            subsets.setdefault(c.indices, (c, []))[1].append(i)
        for idx in subsets:
            if max(idx) >= gm.n_components:
                raise PlanError(f"condition {idx} exceeds mixture components")
        groups = tuple((cond, _read_only(np.asarray(rows)))
                       for cond, rows in subsets.values())
        single = [i for i, c in enumerate(conditions) if len(c.indices) == 1]
        singletons = (_read_only(np.asarray(single, dtype=np.intp)),
                      _read_only(np.asarray([conditions[i].indices[0] for i in single],
                                            dtype=np.intp)))
        return ConditionRows(groups, singletons,
                             tuple(g for g in groups if len(g[0].indices) > 1))

    return _memo(gm, ("rows", conditions), build)


def sample_x0(gm: GaussianMixture, cond: Condition | None,
              rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n exact samples, conditioning by subset restriction when given."""
    if n < 0:
        raise ParameterError(f"sample count must be >= 0, got {n}")
    cdf, comps = _component_sampler(gm, cond)
    comp = comps[cdf.searchsorted(rng.random(n), side="right")]
    noise = rng.standard_normal((n, gm.dim))
    return gm.means[comp] + np.sqrt(gm.variances[comp]) * noise
