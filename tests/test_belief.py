from __future__ import annotations

import numpy as np
import pytest

import _oracles as oracle
from active_smoothing import (
    ImpossibleEvidence,
    initial_update,
    make_model,
    marginalize_next,
    observation_marginal,
    predict_joint,
    step,
    update,
)
from active_smoothing.belief import children, initial_level


def test_predict_joint_matches_elementwise_product(grid):
    model, _ = grid
    belief = np.array([0.5, 0.5, 0.0, 0.0])
    joint = predict_joint(model, belief, 2)
    expected = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            expected[i, j] = model.transition[2][i, j] * belief[j]
    np.testing.assert_allclose(joint, expected)
    np.testing.assert_allclose(joint.sum(), 1.0)


def test_marginalize_next_is_transition_push_forward(grid):
    model, _ = grid
    belief = np.array([0.1, 0.2, 0.3, 0.4])
    joint = predict_joint(model, belief, 0)
    np.testing.assert_allclose(marginalize_next(joint), model.transition[0] @ belief, atol=1e-15)


def test_update_and_step_match_direct_bayes_filter(rng):
    for _ in range(60):
        model = oracle.random_model(rng)
        belief = rng.dirichlet(np.ones(model.n_states))
        u = int(rng.integers(model.n_controls))
        y = int(rng.integers(model.n_observations))
        joint = predict_joint(model, belief, u)
        post = update(model, joint, u, y)
        np.testing.assert_allclose(post, oracle.filter_step(model, belief, u, y),
                                   atol=1e-12)
        np.testing.assert_allclose(post.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(step(model, belief, u, y), post, atol=1e-15)


def test_initial_update_uses_initial_kernel(rng):
    for _ in range(20):
        model = oracle.random_model(rng)
        y = int(rng.integers(model.n_observations))
        np.testing.assert_allclose(initial_update(model, y),
                                   oracle.initial_filter(model, y), atol=1e-12)


def test_initial_update_differs_from_control_kernels():
    # distinct initial kernel must drive the first update
    model = make_model(
        prior=[0.5, 0.5],
        transition=[np.eye(2)],
        observation=[[[0.5, 0.5], [0.5, 0.5]]],
        initial_observation=[[0.9, 0.1], [0.2, 0.8]],
    )
    post = initial_update(model, 0)
    np.testing.assert_allclose(post, [0.9 / 1.1, 0.2 / 1.1])


def test_observation_marginal_is_a_distribution(rng):
    for _ in range(40):
        model = oracle.random_model(rng)
        belief = rng.dirichlet(np.ones(model.n_states))
        u = int(rng.integers(model.n_controls))
        marg = observation_marginal(model, belief, u)
        assert marg.shape == (model.n_observations,)
        np.testing.assert_allclose(marg.sum(), 1.0, atol=1e-12)
        for y in range(model.n_observations):
            np.testing.assert_allclose(marg[y], oracle.obs_prob(model, belief, u, y),
                                       atol=1e-12)


def test_impossible_evidence_raised_with_context():
    model = make_model(
        prior=[1.0, 0.0],
        transition=[np.eye(2)],
        observation=[[[1.0, 0.0], [0.0, 1.0]]],
    )
    belief = np.array([1.0, 0.0])
    joint = predict_joint(model, belief, 0)
    with pytest.raises(ImpossibleEvidence) as exc:
        update(model, joint, 0, 1, stage=2)
    assert exc.value.observation == 1
    assert exc.value.stage == 2
    assert isinstance(exc.value, ValueError)

    with pytest.raises(ImpossibleEvidence) as exc:
        initial_update(model, 1)
    assert exc.value.stage is None
    assert "initial stage" in str(exc.value)


def test_bad_control_raises_index_error(grid):
    model, _ = grid
    with pytest.raises(IndexError):
        predict_joint(model, np.full(4, 0.25), 3)


def test_filter_is_invariant_to_belief_scale_after_update(grid):
    # update renormalises, so a slightly unnormalised input is repaired
    model, _ = grid
    belief = np.array([0.3, 0.3, 0.2, 0.2])
    a = step(model, belief, 2, 1)
    b = step(model, belief * (1.0 + 1e-9), 2, 1)
    np.testing.assert_allclose(a, b, atol=1e-9)
    np.testing.assert_allclose(a.sum(), 1.0, atol=1e-12)


def _sparse_random_model(rng, n_states):
    """A random model whose transition columns have zeros, so beliefs have zeros."""
    model = oracle.random_model(rng, n_states=n_states, n_obs=3, n_controls=2)
    transition = model.transition * (rng.random(model.transition.shape) < 0.6)
    transition[:, 0, :] += 1e-3
    return make_model(model.prior, transition / transition.sum(axis=1, keepdims=True),
                      model.observation, model.initial_observation)


@pytest.mark.parametrize("n_states", [2, 5, 9, 12])
def test_batched_filter_rows_equal_single_beliefs(rng, n_states):
    model = _sparse_random_model(rng, n_states)
    rows = 64
    ys = rng.integers(model.n_observations, size=rows)
    us = rng.integers(model.n_controls, size=rows)
    beliefs = initial_update(model, ys)
    assert beliefs.shape == (rows, n_states)
    for i in range(rows):
        np.testing.assert_array_equal(beliefs[i], initial_update(model, int(ys[i])))
    nexts = step(model, beliefs, us, ys, stage=0)
    for i in range(rows):
        np.testing.assert_array_equal(nexts[i], step(model, beliefs[i], int(us[i]), int(ys[i])))


@pytest.mark.parametrize("rows", [4, 7])
def test_batched_observation_marginal_rows_equal_single_beliefs(grid, rng, rows):
    # R == N (4 on the grid agent) and R != N: a batch axis taken for the state
    # axis fails on shapes only when R != N
    for model in (grid[0], _sparse_random_model(rng, 5)):
        beliefs = rng.dirichlet(np.ones(model.n_states), size=rows)
        us = rng.integers(model.n_controls, size=rows)
        margs = observation_marginal(model, beliefs, us)
        assert margs.shape == (rows, model.n_observations)
        np.testing.assert_allclose(margs.sum(axis=1), 1.0, atol=1e-12)
        for i in range(rows):
            np.testing.assert_array_equal(margs[i],
                                          observation_marginal(model, beliefs[i], int(us[i])))


def test_batched_impossible_evidence_names_the_first_bad_row():
    model = make_model(
        prior=[1.0, 0.0],
        transition=[np.eye(2)],
        observation=[[[1.0, 0.0], [0.0, 1.0]]],
    )
    beliefs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ImpossibleEvidence) as exc:
        step(model, beliefs, np.zeros(3, dtype=int), np.array([0, 0, 1]), stage=4)
    assert (exc.value.observation, exc.value.stage) == (0, 4)
    with pytest.raises(IndexError):
        predict_joint(model, beliefs, np.array([0, 1, 0]))


@pytest.mark.parametrize("which", ["grid", "zero-observations"])
def test_tree_expansion_equals_observation_marginal_and_step_row_by_row(grid, rng, which):
    # the zero-observation model has observations of zero probability at every level
    # after the root, whose children must be dropped
    model = grid[0] if which == "grid" else oracle.zero_observation_model(rng)
    observations, probabilities, beliefs = initial_level(model)
    p0 = model.prior @ model.initial_observation
    np.testing.assert_array_equal(observations, np.flatnonzero(p0 > 0.0))
    np.testing.assert_array_equal(probabilities, p0[observations])
    for y0, belief in zip(observations, beliefs):
        np.testing.assert_array_equal(belief, initial_update(model, int(y0)))
    dropped = 0
    for stage in range(3):
        # every row under every control, as the solver's reachable levels expand them
        rows = np.repeat(beliefs, model.n_controls, axis=0)
        controls = np.tile(np.arange(model.n_controls), len(beliefs))
        parents, observations, probabilities, beliefs = children(
            model, predict_joint(model, rows, controls), controls, stage)
        marginal = observation_marginal(model, rows, controls)
        want_parents, want_observations = np.nonzero(marginal > 0.0)
        np.testing.assert_array_equal(parents, want_parents)
        np.testing.assert_array_equal(observations, want_observations)
        for parent, y, p, belief in zip(parents, observations, probabilities, beliefs):
            u = int(controls[parent])
            np.testing.assert_array_equal(p, observation_marginal(model, rows[parent], u)[y])
            np.testing.assert_array_equal(belief, step(model, rows[parent], u, int(y), stage))
        dropped += marginal.size - len(parents)
    assert (dropped > 0) == (which == "zero-observations")
