"""The fused conditional branch and the in-place score kernel, bit for bit.

The engine evaluates every singleton-conditioned row of a batch in one gather
from the unconditional noised entry, and scores through a kernel that reuses
one (B, K, d) buffer. Both must return exactly the arrays of the plain path:
a per-group loop over the public eps_prediction, and the kernel as it was
before (copied verbatim below as the reference).
"""
import numpy as np
import pytest

import hybridpar.mixture as mixture_mod
from hybridpar.cli import CURVE_HEADER, main
from hybridpar.config import ExperimentConfig
from hybridpar.engine import (PlanVariant, _branches, _conditional_branch, _exact_step,
                              _Stack, initial_latents)
from hybridpar.errors import PlanError
from hybridpar.mixture import (Condition, _condition_rows, _noised_terms, _score_rows,
                               _Terms, conditional, eps_prediction, noised_mixture,
                               rel_mae)
from hybridpar.schedules import cfg_combine, ddim_step


# reference: the kernel before it reused its buffer ---------------------------------

def ref_log_resp(terms: _Terms, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-component log joint and the log marginal density, batched."""
    diff = x[:, None, :] - terms.means[None, :, :]                 # (B, K, d)
    log_joint = (terms.log_weights[None, :]
                 - 0.5 * np.sum(diff * diff / terms.variances[None, :, :]
                                + terms.log_norm[None, :, :], axis=2))
    mx = log_joint.max(axis=1, keepdims=True)
    log_density = mx[:, 0] + np.log(np.exp(log_joint - mx).sum(axis=1))
    return log_joint, log_density


def ref_score_rows(terms: _Terms, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score and log-density at each row of a (B, d) batch."""
    log_joint, log_density = ref_log_resp(terms, x)
    r = np.exp(log_joint - log_density[:, None])                   # (B, K)
    pull = (terms.means[None, :, :] - x[:, None, :]) / terms.variances[None, :, :]
    return np.einsum("bk,bkd->bd", r, pull), log_density


def ref_score(gm, x: np.ndarray) -> np.ndarray:
    s, _ = ref_score_rows(_Terms.of(gm), np.atleast_2d(x))
    return s


def ref_conditional_branch(plan, x: np.ndarray, t: int) -> np.ndarray:
    """One public eps_prediction call per distinct condition subset."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, cond in enumerate(plan.conditions):
        groups.setdefault(cond.indices, []).append(i)
    out = np.empty_like(x)
    for idx, rows in groups.items():
        out[rows] = eps_prediction(plan.mixture, Condition(idx), plan.schedule,
                                   x[rows], t)
    return out


# helpers ------------------------------------------------------------------------------

D = 8
MIXED = [[0], [1, 2], [3], [0, 1, 2, 3]]
SCHEDULES = ({"kind": "linear", "T": 12, "beta_start": 0.01, "beta_end": 0.3},
             {"kind": "scaled-linear", "T": 12, "beta_start": 0.001, "beta_end": 0.2})


def random_mixture_raw(seed: int, K: int = 4) -> dict:
    rng = np.random.default_rng(seed)
    return {"weights": rng.uniform(0.2, 2.0, K).tolist(),
            "means": rng.uniform(-3.0, 3.0, (K, D)).tolist(),
            "variances": rng.uniform(0.05, 1.5, (K, D)).tolist()}


def make_plan(B: int, conditions=None, schedule=None, mixture=None):
    raw = {"condition_batch": B, "seeds": [0]}
    if conditions is not None:
        raw["conditions"] = conditions
    if schedule is not None:
        raw["schedule"] = schedule
    if mixture is not None:
        raw["mixture"] = mixture
    return ExperimentConfig.from_dict(raw).to_plan(variant=PlanVariant.SERIAL)


def one_seed(plan):
    """What the branch kernels read of the plan; they take (S, B, d)
    latents, so a (B, d) batch goes in as one seed, x[None]."""
    gm = plan.mixture
    return _Stack(gm, plan.schedule, plan.guidance, _condition_rows(gm, plan.conditions))


def points(B: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    far = np.full((B, D), 40.0)
    far[::2] *= -1.0
    return {"near": rng.normal(0.0, 3.0, (B, D)), "far": far}


# the fused conditional branch -------------------------------------------------------

@pytest.mark.parametrize("conditions", [MIXED, None], ids=["mixed", "singletons"])
@pytest.mark.parametrize("B", [1, 7, 64])
@pytest.mark.parametrize("sched", SCHEDULES, ids=[s["kind"] for s in SCHEDULES])
def test_branches_match_per_group_loop_bitwise(conditions, B, sched):
    for mixture in (None, random_mixture_raw(seed=B)):
        plan = make_plan(B, conditions, sched, mixture)
        stack = one_seed(plan)
        for name, x in points(B, seed=B).items():
            x_before = x.copy()
            for t in range(plan.schedule.T + 1):
                want_c = ref_conditional_branch(plan, x, t)
                want_u = eps_prediction(plan.mixture, None, plan.schedule, x, t)
                assert np.array_equal(_conditional_branch(stack, x[None], t)[0],
                                      want_c), (name, t)
                eps_c, eps_u = _branches(stack, x[None], t)
                assert np.array_equal(eps_c[0], want_c), (name, t)
                assert np.array_equal(eps_u[0], want_u), (name, t)
            assert np.array_equal(x, x_before)


def test_singleton_rows_read_the_unconditional_entry(monkeypatch):
    """The gather builds no per-singleton entry and no conditional mixture."""
    built = []
    original = mixture_mod.conditional

    def counting(gm, cond):
        built.append(cond.indices)
        return original(gm, cond)

    monkeypatch.setattr(mixture_mod, "conditional", counting)
    plan = make_plan(16, schedule=SCHEDULES[0], mixture=random_mixture_raw(seed=3))
    x = points(16, seed=3)["near"]
    stack = one_seed(plan)
    for t in range(1, plan.schedule.T + 1):
        _conditional_branch(stack, x[None], t)
    assert built == []
    assert {key[1] for key in plan.mixture._memo if key[0] == "noised"} == {None}


def test_a_failed_rows_build_leaves_the_memo_unchanged():
    plan = make_plan(8, MIXED)
    gm = plan.mixture
    before = {key: id(entry) for key, entry in gm._memo.items()}
    assert ("rows", plan.conditions) in before
    with pytest.raises(PlanError, match="exceeds mixture components"):
        _condition_rows(gm, plan.conditions + (Condition((gm.n_components,)),))
    assert {key: id(entry) for key, entry in gm._memo.items()} == before


def test_plan_singleton_and_multi_groups():
    plan = make_plan(10, MIXED)
    layout = _condition_rows(plan.mixture, plan.conditions)
    rows, comps = layout.singletons
    assert rows.tolist() == [0, 2, 4, 6, 8]
    assert comps.tolist() == [0, 3, 0, 3, 0]
    assert [(c.indices, r.tolist()) for c, r in layout.multi_groups] == [
        ((1, 2), [1, 5, 9]), ((0, 1, 2, 3), [3, 7])]
    for arr in (rows, comps) + tuple(r for _, r in layout.multi_groups):
        with pytest.raises(ValueError):
            arr[0] = 1

    plan = make_plan(6)
    layout = _condition_rows(plan.mixture, plan.conditions)
    assert layout.singletons[0].tolist() == list(range(6))
    assert layout.singletons[1].tolist() == [0, 1, 2, 3, 0, 1]
    assert layout.multi_groups == ()

    plan = make_plan(3, [[0, 1]])
    layout = _condition_rows(plan.mixture, plan.conditions)
    assert layout.singletons[0].size == 0 and layout.singletons[1].size == 0
    x = points(3, seed=0)["near"]
    assert np.array_equal(_conditional_branch(one_seed(plan), x[None], 5)[0],
                          ref_conditional_branch(plan, x, 5))


@pytest.mark.parametrize("conditions", [None, MIXED, [[0, 1], [1, 2, 3]]],
                         ids=["singletons", "mixed", "multi-only"])
@pytest.mark.parametrize("S", [1, 3, 8])
def test_seed_axis_steps_equal_one_seed_steps_bitwise(conditions, S):
    """The step kernels on S seeds' (S, B, d) latents give seed i the bits
    of the same kernel on x[i] alone, along a whole trajectory."""
    plan = make_plan(7, conditions, SCHEDULES[1], random_mixture_raw(seed=S))
    stack = one_seed(plan)
    x = np.random.default_rng(S).normal(0.0, 3.0, (S, 7, D))
    for t in range(plan.schedule.T, 0, -1):
        eps_c = _conditional_branch(stack, x, t)
        x_next, m = _exact_step(stack, x, t)
        assert eps_c.shape == x_next.shape == x.shape and m.shape == (S,)
        for i in range(S):
            one_c = _conditional_branch(stack, x[i][None], t)
            one_x, one_m = _exact_step(stack, x[i][None], t)
            assert eps_c[i].tobytes() == one_c[0].tobytes(), (i, t)
            assert x_next[i].tobytes() == one_x[0].tobytes(), (i, t)
            assert m[i:i + 1].tobytes() == one_m.tobytes(), (i, t)
        x = x_next


# the in-place kernel ------------------------------------------------------------------

@pytest.mark.parametrize("K", [1, 2, 4, 5])
def test_score_kernel_matches_reference_bitwise(K):
    raw = random_mixture_raw(seed=20 + K, K=K)
    plan = make_plan(4, [[0]], SCHEDULES[1], raw)
    gm, sched = plan.mixture, plan.schedule
    rng = np.random.default_rng(K)
    batches = [rng.normal(0.0, 3.0, (B, D)) for B in (1, 7, 64)]
    batches += [np.full((3, D), 40.0), rng.normal(0.0, 3.0, (16, 2 * D))[:, ::2]]
    for t in range(1, sched.T + 1):
        for cond in (None, Condition(tuple(range(K)))):
            terms = _noised_terms(gm, cond, sched.alpha_bar(t))
            for x in batches:
                x_before = x.copy()
                s, log_density = _score_rows(terms, x)
                want_s, want_ld = ref_score_rows(terms, x)
                assert np.array_equal(s, want_s), (K, t, x.shape)
                assert np.array_equal(log_density, want_ld), (K, t, x.shape)
                assert np.array_equal(x, x_before)
            assert all(not a.flags.writeable for a in terms)


# the curve command reads the compiled oracle ----------------------------------------

def ref_curve_csv() -> str:
    """The curve command's CSV, computed with freshly built mixtures."""
    plan = ExperimentConfig.from_dict({}).to_plan(variant=PlanVariant.SERIAL)
    gm, sched = plan.mixture, plan.schedule
    x = initial_latents(plan)
    rows = []
    for t in range(sched.T, 0, -1):
        eps_c = ref_conditional_branch(plan, x, t)
        eps_u = eps_prediction(gm, None, sched, x, t)
        m = rel_mae(eps_c, eps_u)
        ab = sched.alpha_bar(t)
        s_u = ref_score(noised_mixture(gm, ab), x)
        num = sum(float(np.abs(ref_score(noised_mixture(conditional(gm, cond), ab), x[r])
                               - ref_score(noised_mixture(gm, ab), x[r])).sum())
                  for cond, r in _condition_rows(gm, plan.conditions).groups)
        ratio = num / float(np.abs(s_u).sum())
        per_row = np.abs(eps_c - eps_u).sum(axis=1) / np.abs(eps_u).sum(axis=1)
        sd = float(per_row.std(ddof=1))
        rows.append((t, m, ratio, m - 2.0 * sd, m + 2.0 * sd))
        x = ddim_step(x, t, cfg_combine(eps_c, eps_u, plan.guidance), sched)
    arg_min = min(range(len(rows)), key=lambda i: rows[i][1])
    lines = [CURVE_HEADER]
    for i, (t, m, ratio, lo, hi) in enumerate(rows):
        lines.append(f"{t},{m:.17g},{ratio:.17g},{lo:.17g},{hi:.17g},"
                     f"{1 if i == arg_min else 0}")
    return "\n".join(lines) + "\n"


def test_curve_csv_is_byte_identical_to_uncompiled_reference(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text(encoding="utf-8") == ref_curve_csv()
