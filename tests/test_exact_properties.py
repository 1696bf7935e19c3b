"""Property tests of exact policy evaluation: against the brute-force oracle, and
Monte Carlo against it."""
from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import _oracles as oracle
from active_smoothing import (
    EntropyConfig,
    StageSet,
    ValuePolicy,
    compare_policies,
    exact_policy_metrics,
    fingerprint,
    make_model,
)

MC_RUNS = 2000
MC_SIGMAS = 5.0


def _with_zeros(rng, pmfs: np.ndarray, fraction: float) -> np.ndarray:
    """Zero `fraction` of the entries of each pmf along the last axis, keeping its largest."""
    zero = (rng.random(pmfs.shape) < fraction) & (pmfs < pmfs.max(axis=-1, keepdims=True))
    pmfs = np.where(zero, 0.0, pmfs)
    return pmfs / pmfs.sum(axis=-1, keepdims=True)


@st.composite
def instances(draw):
    """A random model, costs, horizon 0-3, log base and decision rule.

    Models have N = 1-4 states, 1-3 observations and 1-3 controls. Priors and
    observation rows may have zero entries (observations of zero probability,
    beliefs on the simplex boundary), and a control's transition may be
    deterministic (one-hot columns). The rule is a value policy of random
    vectors, some duplicated with another control (exact ties), or a callable.
    """
    n = draw(st.integers(1, 4), label="states")
    ny = draw(st.integers(1, 3), label="observations")
    nu = draw(st.integers(1, 3), label="controls")
    t = draw(st.integers(0, 3), label="horizon")
    zeros = draw(st.sampled_from([0.0, 0.3, 0.6]), label="zero fraction")
    deterministic = draw(st.lists(st.booleans(), min_size=nu, max_size=nu),
                         label="deterministic controls")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))

    transition = np.stack([
        np.eye(n)[:, rng.integers(n, size=n)] if one_hot
        else _with_zeros(rng, rng.dirichlet(np.ones(n), size=n), zeros).T
        for one_hot in deterministic
    ])
    model = make_model(_with_zeros(rng, rng.dirichlet(np.ones(n)), zeros), transition,
                       _with_zeros(rng, rng.dirichlet(np.ones(ny), size=(nu, n)), zeros),
                       _with_zeros(rng, rng.dirichlet(np.ones(ny), size=n), zeros))
    costs = oracle.random_costs(rng, model, t)
    config = EntropyConfig(draw(st.sampled_from(["natural", "base-2"]), label="log base"))

    if draw(st.booleans(), label="value policy"):
        stages = []
        for _ in range(t):
            values = rng.normal(size=(int(rng.integers(1, 5)), n))
            actions = rng.integers(nu, size=len(values))
            copies = rng.integers(len(values), size=int(rng.integers(0, 3)))
            stages.append(StageSet(values=np.vstack([values, values[copies]]),
                                   actions=np.concatenate([actions,
                                                           rng.integers(nu, size=len(copies))])))
        stages.append(StageSet(values=np.zeros((1, n)), actions=None))
        policy = ValuePolicy(stages=tuple(stages), objective="smoother", density=1,
                             epsilon_interior=1e-4, log_base=config.log_base,
                             model_fingerprint=fingerprint(model, costs))
        return model, costs, config, policy, oracle.alpha_rule(policy)
    rule = oracle.random_rule(rng, model, t)
    return model, costs, config, rule, rule


@given(instance=instances())
def test_exact_policy_metrics_matches_the_oracle(instance):
    model, costs, config, policy, rule = instance
    got = exact_policy_metrics(model, costs, policy, config)
    term, tbe, smoother, stage = oracle.policy_metrics(model, costs, rule, config.log_scale)
    np.testing.assert_allclose(got.terminal_cost, term, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.total_belief_entropy, tbe, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.smoother_entropy, smoother, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.total_cost, smoother + stage + term, rtol=0, atol=1e-12)
    assert got.log_base == config.log_base


@given(instance=instances())
def test_monte_carlo_agrees_with_exact_evaluation(instance):
    """Each Monte Carlo mean lies within MC_SIGMAS standard errors of the exact one.

    The standard error comes from the exact per-run variance, not from the
    sample: the rollouts can miss a rare outcome altogether and show no
    variance at all.
    """
    model, costs, config, policy, rule = instance
    exact = exact_policy_metrics(model, costs, policy, config)
    [(_, mc)] = compare_policies(model, costs, [("policy", policy)], MC_RUNS, 11, config)
    _, variance = oracle.per_run_moments(model, costs, rule, config.log_scale)
    keys = ("terminal_cost", "total_belief_entropy", "smoother_entropy", "total_cost")
    for key, var in zip(keys, variance):
        got, want, se = getattr(mc, key), getattr(exact, key), np.sqrt(var / MC_RUNS)
        assert abs(got - want) <= MC_SIGMAS * se + 1e-12, (key, got, want, se)
