from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import _oracles as oracle
from active_smoothing import (
    EntropyConfig,
    belief_entropy,
    evaluate_pwl,
    generate_base_points,
    make_cost_model,
    stage_tangent_alphas,
    terminal_tangent_alphas,
)
from active_smoothing.pwl import simplex_lattice
from active_smoothing.solver import _belief_sum_stage_alphas

CONFIGS = (EntropyConfig(), EntropyConfig("2"))


def lattice_count(n: int, d: int) -> int:
    return math.comb(d - 1 + n - 1, n - 1) if d > 1 else 1


def test_generate_base_points_counts_and_interior():
    # (21, 2) is the 21 vertices and (10, 5) 715 points, though 2^21 and 5^10 are large
    for n, d in [(2, 1), (2, 4), (3, 3), (4, 5), (4, 2), (21, 2), (10, 5)]:
        bp = generate_base_points(n, d)
        assert len(bp) == lattice_count(n, d)
        assert bp.points.shape == (len(bp), n)
        np.testing.assert_allclose(bp.points.sum(axis=1), 1.0, atol=1e-12)
        assert bp.points.min() >= bp.epsilon_interior - 1e-15
        # rows are distinct
        assert len(np.unique(np.round(bp.points, 12), axis=0)) == len(bp)


def test_generate_base_points_density_one_is_barycentre():
    bp = generate_base_points(4, 1)
    np.testing.assert_allclose(bp.points, np.full((1, 4), 0.25))


def test_generate_base_points_projection():
    eps = 1e-3
    bp = generate_base_points(3, 2, epsilon_interior=eps)
    # projected vertices: (1 - 3 eps) e_i + eps
    assert len(bp) == 3
    np.testing.assert_allclose(np.sort(bp.points.max(axis=1)), 1.0 - 3 * eps + eps)
    np.testing.assert_allclose(bp.points.min(), eps)


def test_generate_base_points_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_base_points(4, 0)
    with pytest.raises(ValueError):
        generate_base_points(4, 2, epsilon_interior=0.2)
    with pytest.raises(ValueError):
        generate_base_points(4, 2, epsilon_interior=0.0)
    with pytest.raises(ValueError):
        generate_base_points(12, 100)
    with pytest.raises(ValueError, match="lattice of 2001460 points"):
        generate_base_points(4, 228)


def test_simplex_lattice_equals_the_filtered_product():
    for n in range(1, 7):
        for levels in range(2, 9):
            want = np.array([combo for combo in itertools.product(range(levels), repeat=n)
                             if sum(combo) == levels - 1], dtype=float) / (levels - 1)
            got = simplex_lattice(n, levels)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, levels)


def entropy_tangents(bp, config=EntropyConfig()):
    """Tangents of the belief entropy alone: the terminal tangents of a zero terminal cost."""
    n = bp.points.shape[1]
    return terminal_tangent_alphas(make_cost_model(0, np.zeros((n, 1)), np.zeros(n)), bp, config)


def test_terminal_entropy_tangents_bound_and_tangency(rng):
    bp = generate_base_points(4, 4)
    alphas = entropy_tangents(bp)
    assert alphas.shape == (len(bp), 4)
    np.testing.assert_allclose(alphas, -np.log(bp.points), atol=1e-14)
    for n in range(2, 7):
        bp = generate_base_points(n, 3)
        beliefs = rng.dirichlet(np.full(n, 0.5), size=2000)
        for config in CONFIGS:
            alphas = entropy_tangents(bp, config)
            np.testing.assert_allclose((alphas * bp.points).sum(axis=1),
                                       belief_entropy(bp.points, config),
                                       rtol=0, atol=1e-12)
            bound = (alphas @ beliefs.T).min(axis=0)
            assert (bound >= belief_entropy(beliefs, config) - 1e-12).all()


def test_terminal_tangent_alphas_add_linear_cost(grid):
    model, costs = grid
    bp = generate_base_points(4, 3)
    alphas = terminal_tangent_alphas(costs, bp)
    np.testing.assert_allclose(alphas, entropy_tangents(bp) + costs.terminal_cost[None, :],
                               atol=1e-14)
    for xi in bp.points:
        np.testing.assert_allclose(evaluate_pwl(alphas, xi),
                                   belief_entropy(xi) + xi @ costs.terminal_cost, atol=1e-9)


def stage_entropy_batch(model, cost: str, beliefs: np.ndarray, u: int, config) -> np.ndarray:
    """H(X | Z) = H(X, Z) - H(Z) for each belief, from the joint of the named stage cost."""
    if cost == "smoother":  # q[x, z] = pi_x A[z, x]
        joint = beliefs[:, :, None] * model.transition[u].T[None]
    else:  # belief-sum: q[x', y] = (A pi)[x'] B[x', y]
        joint = (beliefs @ model.transition[u].T)[:, :, None] * model.observation[u][None]
    return (belief_entropy(joint.reshape(len(joint), -1), config)
            - belief_entropy(joint.sum(axis=1), config))


STAGE_TANGENTS = {"smoother": stage_tangent_alphas, "belief-sum": _belief_sum_stage_alphas}


def test_stage_tangent_alphas_bound_and_tangency(grid, rng):
    # the grid agent, then random models with N = 2..6 and zero transition entries
    cases = [(grid[0], 4)] + [
        (oracle.random_model(rng, n_states=n, n_obs=int(rng.integers(1, 4)), n_controls=2,
                             zero_fraction=0.4), 3)
        for n in range(2, 7)
    ]
    for model, density in cases:
        n = model.n_states
        costs = make_cost_model(3, rng.uniform(size=(3, n, model.n_controls)),
                                rng.uniform(size=n))
        bp = generate_base_points(n, density)
        beliefs = rng.dirichlet(np.full(n, 0.5), size=2000)
        for config in CONFIGS:
            for cost, tangents in STAGE_TANGENTS.items():
                for u in range(model.n_controls):
                    alphas = tangents(model, costs, bp, 1, u, config)
                    assert alphas.shape == (len(bp), n)
                    linear = costs.stage_cost[1][:, u]
                    np.testing.assert_allclose(
                        (alphas * bp.points).sum(axis=1),
                        stage_entropy_batch(model, cost, bp.points, u, config) + bp.points @ linear,
                        rtol=0, atol=1e-12)
                    want = stage_entropy_batch(model, cost, beliefs, u, config) + beliefs @ linear
                    assert ((alphas @ beliefs.T).min(axis=0) >= want - 1e-12).all()


def test_evaluate_pwl_is_minimum_inner_product(rng):
    alphas = rng.normal(size=(7, 5))
    for b in rng.dirichlet(np.ones(5), size=20):
        np.testing.assert_allclose(evaluate_pwl(alphas, b),
                                   min(a @ b for a in alphas), atol=1e-12)
