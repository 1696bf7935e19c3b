from __future__ import annotations

import math

import numpy as np
import pytest

import _oracles as oracle
from active_smoothing import (
    BoundaryBelief,
    EntropyConfig,
    belief_entropy,
    conditional_entropy_tangents,
    expected_next_entropy,
    expected_stage_cost,
    expected_terminal_cost,
    initial_update,
    make_cost_model,
    make_model,
    pointwise_smoother_entropy,
    stage_decomposition,
    stage_entropy_cost,
    step,
)

# conditional entropy of the current state given the next, grid agent,
# belief (0.5, 0.5, 0, 0), control east: 0.5 * H(0.8, 0.2)
GRID_STAGE_COST = 0.25020121176909393
BASE2 = EntropyConfig("2")


def test_belief_entropy_reference_points():
    assert belief_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    np.testing.assert_allclose(belief_entropy(np.full(4, 0.25)), math.log(4.0))
    np.testing.assert_allclose(belief_entropy(np.full(4, 0.25), BASE2), 2.0)
    p = np.array([0.3, 0.7])
    np.testing.assert_allclose(belief_entropy(p), oracle.entropy(p), atol=1e-15)


def test_entropy_config_normalisation():
    assert EntropyConfig("e").log_scale == 1.0
    assert EntropyConfig("natural").log_scale == 1.0
    np.testing.assert_allclose(EntropyConfig("2").log_scale, math.log(2.0))
    np.testing.assert_allclose(EntropyConfig("base-2").log_scale, math.log(2.0))
    with pytest.raises(ValueError):
        EntropyConfig("10")


def test_stage_entropy_cost_grid_value(grid):
    model, _ = grid
    belief = np.array([0.5, 0.5, 0.0, 0.0])
    got = stage_entropy_cost(model, belief, 2)
    np.testing.assert_allclose(got, GRID_STAGE_COST, atol=1e-15)
    expected = 0.5 * oracle.entropy([0.8, 0.2])
    np.testing.assert_allclose(got, expected, atol=1e-15)
    np.testing.assert_allclose(stage_entropy_cost(model, belief, 2, BASE2),
                               GRID_STAGE_COST / math.log(2.0), atol=1e-15)


def test_stage_entropy_cost_matches_joint_entropy_identity(rng):
    # H(X_k | X_{k+1}) = H(X_k, X_{k+1}) - H(X_{k+1})
    for _ in range(60):
        model = oracle.random_model(rng)
        belief = rng.dirichlet(np.ones(model.n_states))
        u = int(rng.integers(model.n_controls))
        joint = model.transition[u] * belief[None, :]
        expected = oracle.entropy(joint.ravel()) - oracle.entropy(joint.sum(axis=1))
        got = stage_entropy_cost(model, belief, u)
        np.testing.assert_allclose(got, max(expected, 0.0), atol=1e-12)
        np.testing.assert_allclose(got, oracle.stage_conditional_entropy(model, belief, u),
                                   atol=1e-12)
        assert got >= 0.0


def test_stage_entropy_cost_degenerate_transitions(rng):
    # identity transition: the next state reveals the current one
    model = make_model([0.3, 0.7], [np.eye(2)], [[0.5, 0.5], [0.5, 0.5]])
    assert stage_entropy_cost(model, np.array([0.3, 0.7]), 0) == 0.0
    # identical columns: next state carries no information about the current
    one = oracle.rank_one_model(np.random.default_rng(3))
    belief = np.array([0.2, 0.5, 0.3])
    np.testing.assert_allclose(stage_entropy_cost(one, belief, 0),
                               belief_entropy(belief), atol=1e-12)


def joint_weights(model, cost: str, u: int) -> np.ndarray:
    """weights[x, z, m] of the joint q(x, z) = sum_m weights[x, z, m] pi_m whose
    conditional entropy H(X | Z) the cost is."""
    n = model.n_states
    if cost == "terminal":  # H(x): Z takes a single value
        return np.eye(n)[:, None, :]
    a = model.transition[u]
    if cost == "smoother":  # H(x_k | x_{k+1}): q(x, z) = A[z, x] pi_x
        return np.eye(n)[:, None, :] * a[None, :, :]
    # belief-sum, H(x_{k+1} | y_{k+1}): q(x', y) = B[x', y] (A pi)[x']
    return model.observation[u][:, :, None] * a[:, None, :]


ORACLE_COSTS = {
    "terminal": lambda model, b, u, scale: oracle.entropy(b, scale),
    "smoother": oracle.stage_conditional_entropy,
    "belief-sum": oracle.next_belief_entropy,
}


def kernel_cases(rng):
    """Random models with N = 2..6, with and without zero transition entries,
    each in nats and in bits."""
    for n in range(2, 7):
        for zero_fraction in (0.0, 0.4):
            model = oracle.random_model(rng, n_states=n, n_obs=int(rng.integers(1, 4)),
                                        n_controls=2, zero_fraction=zero_fraction)
            for config in (EntropyConfig(), BASE2):
                yield model, config


def assert_tangents_match_directional_fd(rng, model, cost: str, u: int, config) -> None:
    n = model.n_states
    beliefs = oracle.interior_beliefs(rng, n, 4, margin=5e-3)
    alphas = conditional_entropy_tangents(joint_weights(model, cost, u), beliefs, config)
    for alpha, belief in zip(alphas, beliefs):
        for m in range(n):
            d = -np.full(n, 1.0 / n)
            d[m] += 1.0
            fd = oracle.directional_fd(
                lambda b: ORACLE_COSTS[cost](model, b, u, config.log_scale), belief, d)
            np.testing.assert_allclose(alpha @ d, fd, rtol=1e-6, atol=1e-9)


def test_stage_entropy_gradient_matches_directional_fd(rng):
    # the kernel's tangent is the gradient of both stage costs
    for model, config in kernel_cases(rng):
        for cost in ("smoother", "belief-sum"):
            for u in range(model.n_controls):
                assert_tangents_match_directional_fd(rng, model, cost, u, config)


def test_stage_entropy_gradient_boundary_raises(grid):
    model, _ = grid
    for cost in ("smoother", "belief-sum"):
        with pytest.raises(BoundaryBelief):
            conditional_entropy_tangents(joint_weights(model, cost, 2),
                                         np.array([[0.5, 0.5, 0.0, 0.0]]))


def test_terminal_entropy_gradient_formula_and_fd(rng):
    belief = np.array([[0.1, 0.2, 0.3, 0.4]])
    weights = np.eye(4)[:, None, :]
    np.testing.assert_allclose(conditional_entropy_tangents(weights, belief),
                               -np.log(belief), rtol=0, atol=1e-15)
    np.testing.assert_allclose(conditional_entropy_tangents(weights, belief, BASE2),
                               -np.log2(belief), rtol=0, atol=1e-15)
    with pytest.raises(BoundaryBelief):
        conditional_entropy_tangents(weights, np.array([[1.0, 0.0, 0.0, 0.0]]))
    for model, config in kernel_cases(rng):
        assert_tangents_match_directional_fd(rng, model, "terminal", 0, config)


def test_expected_costs_add_linear_terms(grid, rng):
    model, _ = grid
    costs = make_cost_model(3, rng.uniform(size=(3, 4, 3)), rng.uniform(size=4))
    belief = rng.dirichlet(np.ones(4))
    for u in range(3):
        for k in range(3):
            expected = stage_entropy_cost(model, belief, u) + belief @ costs.stage_cost[k][:, u]
            np.testing.assert_allclose(expected_stage_cost(model, costs, belief, u, k),
                                       expected, atol=1e-12)
    np.testing.assert_allclose(expected_terminal_cost(costs, belief),
                               belief_entropy(belief) + belief @ costs.terminal_cost,
                               atol=1e-12)


def test_stage_decomposition_identity(grid, rng):
    model, _ = grid
    belief = np.array([0.5, 0.5, 0.0, 0.0])
    h, mi = stage_decomposition(model, belief, 2)
    np.testing.assert_allclose(h, math.log(2.0), atol=1e-15)
    np.testing.assert_allclose(mi, math.log(2.0) - GRID_STAGE_COST, atol=1e-12)
    for _ in range(40):
        model_r = oracle.random_model(rng)
        b = rng.dirichlet(np.ones(model_r.n_states))
        u = int(rng.integers(model_r.n_controls))
        h, mi = stage_decomposition(model_r, b, u)
        assert mi >= 0.0
        np.testing.assert_allclose(h - mi, stage_entropy_cost(model_r, b, u), atol=1e-9)


def test_expected_next_entropy_matches_manual_average(rng):
    for _ in range(30):
        model = oracle.random_model(rng)
        belief = rng.dirichlet(np.ones(model.n_states))
        u = int(rng.integers(model.n_controls))
        got = expected_next_entropy(model, belief, u)
        np.testing.assert_allclose(got, oracle.next_belief_entropy(model, belief, u), atol=1e-12)
        # conditioning on the observation cannot raise expected entropy
        predicted = model.transition[u] @ belief
        assert got <= oracle.entropy(predicted) + 1e-12


def test_pointwise_smoother_entropy_matches_brute_force(rng):
    for _ in range(50):
        model = oracle.random_model(rng)
        t = int(rng.integers(1, 4))
        b = None
        ys = []
        us = []
        # sample a positive-probability record by following the filter
        y0 = int(rng.integers(model.n_observations))
        try:
            b = initial_update(model, y0)
        except Exception:
            continue
        ys.append(y0)
        ok = True
        for k in range(t):
            u = int(rng.integers(model.n_controls))
            probs = [oracle.obs_prob(model, b, u, y) for y in range(model.n_observations)]
            y = int(np.argmax(probs))
            if probs[y] <= 0.0:
                ok = False
                break
            us.append(u)
            ys.append(y)
            b = step(model, b, u, y)
        if not ok:
            continue
        got = pointwise_smoother_entropy(model, ys, us)
        want, _ = oracle.trajectory_entropy(model, ys, us)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_pointwise_smoother_entropy_grid_example(grid):
    model, _ = grid
    got = pointwise_smoother_entropy(model, [0, 1, 1, 0], [2, 2, 2])
    want, _ = oracle.trajectory_entropy(model, [0, 1, 1, 0], [2, 2, 2])
    np.testing.assert_allclose(got, want, atol=1e-10)
    # no controls: the smoother entropy is the posterior entropy after y0
    got0 = pointwise_smoother_entropy(model, [1], [])
    np.testing.assert_allclose(got0, belief_entropy(initial_update(model, 1)), atol=1e-12)


def test_pointwise_smoother_entropy_length_mismatch(grid):
    model, _ = grid
    with pytest.raises(ValueError):
        pointwise_smoother_entropy(model, [0, 1], [2, 2])


@pytest.mark.parametrize("n_states", [2, 4, 9, 13])
def test_batched_entropies_equal_single_sequences(rng, n_states):
    model = oracle.random_model(rng, n_states=n_states, n_obs=2, n_controls=2)
    beliefs = rng.dirichlet(np.ones(n_states), size=300)
    beliefs[rng.random(beliefs.shape) < 0.4] = 0.0
    beliefs[beliefs.sum(axis=1) == 0, 0] = 1.0
    for config in (EntropyConfig(), BASE2):
        batch = belief_entropy(beliefs.reshape(30, 10, n_states), config)
        assert batch.shape == (30, 10)
        assert batch.ravel().tolist() == [belief_entropy(b, config) for b in beliefs]

    t, rows = 3, 40
    observations = rng.integers(2, size=(rows, t + 1))
    controls = rng.integers(2, size=(rows, t))
    batch = pointwise_smoother_entropy(model, observations, controls, BASE2)
    assert batch.tolist() == [pointwise_smoother_entropy(model, list(y), list(u), BASE2)
                              for y, u in zip(observations, controls)]
