from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import QhullError

import _oracles as oracle
import active_smoothing.solver as solver_module
from active_smoothing import (
    ValuePolicy,
    backup,
    best_action,
    exact_policy_metrics,
    generate_base_points,
    load_policy,
    make_cost_model,
    prune,
    save_policy,
    solve,
    stage_tangent_alphas,
    terminal_tangent_alphas,
    value,
)
from active_smoothing.solver import EXACT_PRUNE_CAP

# grid agent, smoother objective, density 2: frozen regression values
GRID_D2_GAMMAS = [244, 66, 15, 4]
GRID_D2_EXACT_TOTAL = 1.8523955343318514
# exact optimum of the smoother objective on the grid agent (tree DP)
GRID_SMOOTHER_OPTIMUM = 1.6223923632239847


def zero_costs_grid(grid, horizon=3):
    model, costs = grid
    return make_cost_model(horizon, np.zeros((4, 3)), costs.terminal_cost)


# ------------------------------------------------------------------ pruning --

def test_prune_removes_dominated_and_keeps_envelope(rng):
    base = np.array([[1.0, 0.0], [0.0, 1.0]])
    dominated = np.array([[1.5, 1.5]])
    values = np.vstack([base, dominated])
    assert sorted(prune(values)) == [0, 1]


def test_prune_deduplicates_keeping_lowest_index():
    values = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.9]])
    kept = list(prune(values))
    assert 0 in kept
    assert 1 not in kept


def test_prune_rejects_empty_set():
    with pytest.raises(ValueError):
        prune(np.empty((0, 3)))


def test_prune_single_state_keeps_minimum():
    values = np.array([[3.0], [1.0], [2.0]])
    assert list(prune(values)) == [1]


def _random_prune_inputs(rng):
    for n in (2, 3, 4, 5):
        for _ in range(5):
            yield rng.normal(size=(50, n))
    for n in (3, 4):
        # exact duplicates of some rows
        values = rng.normal(size=(30, n))
        yield np.vstack([values, values[rng.choice(30, size=10)]])
        # pairs that tie along a face: equal except on one coordinate
        values = rng.normal(size=(30, n))
        twins = values[:15].copy()
        twins[np.arange(15), rng.integers(n, size=15)] += rng.normal(size=15)
        yield np.vstack([values, twins])


def test_prune_preserves_envelope_on_random_sets(rng):
    for values in _random_prune_inputs(rng):
        n = values.shape[1]
        beliefs = rng.dirichlet(np.ones(n), size=1000)
        full = (values @ beliefs.T).min(axis=0)
        kept = prune(values)
        reduced = (values[kept] @ beliefs.T).min(axis=0)
        np.testing.assert_allclose(reduced, full, atol=1e-8)
        # every strictly essential vector is kept (LP witness oracle)
        essential = oracle.essential_indices(values)
        assert set(essential) <= set(kept)


def test_prune_drops_vectors_dominated_only_by_the_envelope(rng):
    # three planes whose middle one no single other plane dominates componentwise
    values = np.array([[0.0, 2.0], [1.0, 1.01], [2.0, 0.0]])
    assert sorted(prune(values)) == [0, 2]


def _clustered_tangents(rng, n, size):
    """Entropy tangents -log(b) at beliefs clustered near the barycentre.

    Every vector is essential, and most win only on small regions.
    """
    return -np.log(rng.dirichlet(np.full(n, 400.0), size=size))


def test_prune_lp_builds_one_polytope(rng, monkeypatch):
    # every row's halfspace goes into one Qhull build, and nothing is added later
    real = solver_module.HalfspaceIntersection
    calls = {"build": 0, "add": 0}

    class Counting(real):
        def __init__(self, *args, **kwargs):
            calls["build"] += 1
            super().__init__(*args, **kwargs)

        def add_halfspaces(self, *args, **kwargs):
            calls["add"] += 1
            super().add_halfspaces(*args, **kwargs)

    monkeypatch.setattr(solver_module, "HalfspaceIntersection", Counting)
    values = _clustered_tangents(rng, 4, 200)
    assert len(prune(values)) == 200
    assert calls == {"build": 1, "add": 0}


def _raise_qhull(*args, **kwargs):
    raise QhullError("forced failure")


def test_prune_raises_a_named_error_when_qhull_fails(rng, monkeypatch):
    # there is no second prune path: the set's size and N go into the error
    monkeypatch.setattr(solver_module, "HalfspaceIntersection", _raise_qhull)
    tangents = _clustered_tangents(rng, 4, 40)
    values = np.vstack([tangents, tangents[:10] + 0.5])
    with pytest.raises(ValueError, match=r"envelope of 50 vectors in N=4") as info:
        prune(values)
    assert isinstance(info.value.__cause__, QhullError)


# ------------------------------------------------------------------- backup --

def test_backup_matches_brute_force_cross_sums(rng):
    for _ in range(10):
        model = oracle.random_model(rng, n_states=3, n_obs=2, n_controls=2)
        nxt = rng.normal(size=(3, 3))
        pieces = [rng.normal(size=(2, 3)), rng.normal(size=(1, 3))]
        values, actions = backup(model, nxt, pieces)
        assert len(values) == len(actions)
        brute, brute_actions = oracle.unpruned_backup(model, nxt, pieces)

        beliefs = rng.dirichlet(np.ones(3), size=300)
        got = (values @ beliefs.T).min(axis=0)
        want = (brute @ beliefs.T).min(axis=0)
        np.testing.assert_allclose(got, want, atol=1e-9)
        # actions label which control generated each vector: every kept row of
        # control u is a cross-sum of u (a whole control may be pruned away)
        for row, u in zip(values, actions):
            gaps = np.abs(brute[brute_actions == u] - row).max(axis=1)
            assert gaps.min() <= 1e-9


def test_backup_envelope_matches_unpruned(rng):
    model = oracle.random_model(rng, n_states=3, n_obs=2, n_controls=2)
    nxt = rng.normal(size=(4, 3))
    pieces = [rng.normal(size=(2, 3)) for _ in range(2)]
    beliefs = rng.dirichlet(np.ones(3), size=500)
    values, _ = backup(model, nxt, pieces)
    unpruned, _ = oracle.unpruned_backup(model, nxt, pieces)
    np.testing.assert_allclose((values @ beliefs.T).min(axis=0),
                               (unpruned @ beliefs.T).min(axis=0), atol=1e-8)


# ----------------------------------------------------------- cloud winners --
# Dyadic inputs: values are integers/8 and cloud coordinates k/8, so every
# product is exact in any summation order and the reference is exact too.

def _dyadic_values(rng, rows, n):
    # few distinct levels, so many rows tie exactly at some point
    return rng.integers(-3, 4, size=(rows, n)) / 8


def _dyadic_cloud(rng, points, n):
    return rng.multinomial(8, np.full(n, 1.0 / n), size=points) / 8


def _first_argmin(values, cloud):
    """Per point, the first row attaining the minimum, on exact integer scores."""
    scores = np.rint(cloud * 8).astype(np.int64) @ np.rint(values * 8).astype(np.int64).T
    return np.array([np.flatnonzero(row == row.min())[0] for row in scores])


@pytest.mark.parametrize("rows, points", [
    (40, 500),                                   # many exact ties
    (solver_module.CLOUD_CHUNK + 1, 3),          # one point per block
    (1000, 300),                                 # blocks of 131 points, the last one ragged
    (1, 50),                                     # one vector
    (200, 1),                                    # one point
])
def test_cloud_argmin_is_the_first_minimising_row(rng, rows, points):
    n = 3
    values = _dyadic_values(rng, rows, n)
    values[rows // 2:rows // 2 + 2] = values[0]  # exact duplicates of row 0
    cloud = _dyadic_cloud(rng, points, n)
    got = solver_module._cloud_argmin(values, cloud)
    want = _first_argmin(values, cloud)
    assert got.shape == (points,)
    np.testing.assert_array_equal(got, want)
    if rows > 1:
        assert not np.isin(got, [rows // 2, rows // 2 + 1]).any()  # ties go to row 0


@pytest.mark.parametrize("n_first, n_second", [(12, 1), (6, 23), (30, 9)])
def test_cross_cap_branch_sums_the_distinct_winner_pairs_in_order(rng, monkeypatch,
                                                                 n_first, n_second):
    n = 3
    first = _dyadic_values(rng, n_first, n)
    second = _dyadic_values(rng, n_second, n)
    cloud = _dyadic_cloud(rng, 400, n)
    monkeypatch.setattr(solver_module, "EXACT_PRUNE_CAP", 0)
    monkeypatch.setattr(solver_module, "_witness_cloud", lambda _: cloud)
    pairs = sorted(set(zip(_first_argmin(first, cloud).tolist(),
                           _first_argmin(second, cloud).tolist())))
    want = np.array([first[i] + second[j] for i, j in pairs])
    np.testing.assert_array_equal(solver_module._cross(first, second), want)


# -------------------------------------------------------------------- solve --

def test_costs_only_horizon_zero(grid):
    model, _ = grid
    costs = zero_costs_grid(grid, horizon=0)
    policy = solve(model, costs, "costs-only", generate_base_points(4, 1))
    assert policy.gamma_sizes() == [1]
    np.testing.assert_allclose(value(policy, np.array([0.0, 0.0, 0.0, 1.0]), 0), 0.0)
    np.testing.assert_allclose(value(policy, np.array([1.0, 0.0, 0.0, 0.0]), 0), 1.0)


def test_costs_only_horizon_one(grid):
    model, _ = grid
    costs = zero_costs_grid(grid, horizon=1)
    policy = solve(model, costs, "costs-only", generate_base_points(4, 1))
    e3 = np.array([0.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(value(policy, e3, 0), 0.2, atol=1e-12)
    assert best_action(policy, e3, 0) == 2
    # at the goal state stay [1, 1, 1, 0] and east [1, 1, 0.2, 0] both give 0, but
    # east is below stay elsewhere, so stay ties only on a face and is pruned: ties
    # go to the lowest control among the kept vectors
    e4 = np.array([0.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(value(policy, e4, 0), 0.0, atol=1e-12)
    assert best_action(policy, e4, 0) == 2


def test_costs_only_matches_exact_dp_on_random_models(rng):
    for _ in range(10):
        model = oracle.random_model(rng, n_states=3, n_obs=2)
        costs = oracle.random_costs(rng, model, horizon=2)
        policy = solve(model, costs, "costs-only", generate_base_points(3, 1))
        metrics = exact_policy_metrics(model, costs, policy)
        got = metrics.total_cost - metrics.smoother_entropy
        want = oracle.optimal_value(model, costs, "costs-only")
        # linear costs make the DP exact regardless of base points
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_grid_smoother_solve_frozen_regression(grid):
    model, costs = grid
    policy = solve(model, costs, "smoother", generate_base_points(4, 2))
    assert policy.gamma_sizes() == GRID_D2_GAMMAS
    metrics = exact_policy_metrics(model, costs, policy)
    np.testing.assert_allclose(metrics.total_cost, GRID_D2_EXACT_TOTAL, atol=1e-10)
    assert policy.objective == "smoother"
    assert policy.density == 2
    assert policy.horizon == 3


def test_grid_solve_moves_by_a_constant_added_to_the_terminal_cost(grid, rng):
    # a constant c on every terminal cost adds c to every stage's value function,
    # however large c is next to the entropy tangents
    model, costs = grid
    offset = 1e6
    shifted = make_cost_model(costs.horizon, costs.stage_cost, costs.terminal_cost + offset)
    base_points = generate_base_points(4, 2)
    plain = solve(model, costs, "smoother", base_points)
    moved = solve(model, shifted, "smoother", base_points)
    beliefs = rng.dirichlet(np.ones(4), size=5000)
    for k in range(costs.horizon + 1):
        np.testing.assert_allclose(
            (moved.stages[k].values @ beliefs.T).min(axis=0) - offset,
            (plain.stages[k].values @ beliefs.T).min(axis=0), rtol=0, atol=1e-8,
            err_msg=f"stage {k}")


def test_grid_smoother_policy_attains_exact_optimum(grid):
    # the density-5 tangent bound induces the exactly optimal policy
    model, costs = grid
    policy = solve(model, costs, "smoother", generate_base_points(4, 5))
    metrics = exact_policy_metrics(model, costs, policy)
    want = oracle.optimal_value(model, costs, "smoother")
    np.testing.assert_allclose(want, GRID_SMOOTHER_OPTIMUM, atol=1e-12)
    np.testing.assert_allclose(metrics.total_cost, want, atol=1e-10)


def test_solve_bound_dominates_exact_optimum(grid, rng):
    # the tangent construction yields an upper bound on the optimal value
    model, costs = grid
    for density in (1, 3):
        policy = solve(model, costs, "smoother", generate_base_points(4, density))
        beliefs = rng.dirichlet(np.ones(4), size=50)
        # pointwise: the stage-0 value bounds the optimal cost-to-go from above
        for b in beliefs:
            v_tree = oracle.optimal_value_from(model, costs, "smoother", b)
            assert value(policy, b, 0) >= v_tree - 1e-9


def test_solve_rejects_unknown_objective(grid):
    model, costs = grid
    with pytest.raises(ValueError):
        solve(model, costs, "variance", generate_base_points(4, 1))


def test_smoother_matches_unpruned_at_density_one(grid, rng):
    model, costs = grid
    bp = generate_base_points(4, 1)
    policy = solve(model, costs, "smoother", bp)
    unpruned = oracle.unpruned_stages(
        model, terminal_tangent_alphas(costs, bp),
        [[stage_tangent_alphas(model, costs, bp, k, u) for u in range(model.n_controls)]
         for k in range(costs.horizon)])
    assert [len(s) for s in unpruned] == [2187, 27, 3, 1]
    assert policy.gamma_sizes() == [1, 1, 1, 1]
    beliefs = rng.dirichlet(np.ones(4), size=1000)
    for stage in range(4):
        ref = (unpruned[stage] @ beliefs.T).min(axis=0)
        got = np.array([value(policy, b, stage) for b in beliefs])
        np.testing.assert_allclose(got, ref, atol=1e-8)


def test_preselection_cap_keeps_upper_bound(grid, rng, monkeypatch):
    # forcing the winner-cloud path still yields a valid (possibly looser) bound
    model, costs = grid
    bp = generate_base_points(4, 2)
    exact = solve(model, costs, "smoother", bp)
    monkeypatch.setattr(solver_module, "EXACT_PRUNE_CAP", 0)
    capped = solve(model, costs, "smoother", bp)
    beliefs = rng.dirichlet(np.ones(4), size=200)
    for b in beliefs:
        lo = value(exact, b, 0)
        hi = value(capped, b, 0)
        assert hi >= lo - 1e-9


def test_belief_sum_solve_evaluates_correctly(grid):
    model, costs = grid
    policy = solve(model, costs, "belief-sum", generate_base_points(4, 2))
    assert policy.objective == "belief-sum"
    metrics = exact_policy_metrics(model, costs, policy)
    # agreement between the packaged evaluator and the brute-force oracle
    rule = lambda b, k: best_action(policy, b, k)
    term, tbe, smoother, stage = oracle.policy_metrics(model, costs, rule)
    np.testing.assert_allclose(metrics.terminal_cost, term, atol=1e-9)
    np.testing.assert_allclose(metrics.total_belief_entropy, tbe, atol=1e-9)
    np.testing.assert_allclose(metrics.smoother_entropy, smoother, atol=1e-9)


# ---------------------------------------------------------- value and action --

def test_value_and_best_action_bounds(grid):
    model, costs = grid
    policy = solve(model, costs, "smoother", generate_base_points(4, 1))
    b = np.full(4, 0.25)
    assert isinstance(value(policy, b, 3), float)
    with pytest.raises(IndexError):
        best_action(policy, b, 3)
    with pytest.raises(IndexError):
        best_action(policy, b, -1)
    with pytest.raises(IndexError):
        value(policy, b, 4)
    assert best_action(policy, b, 0) in range(3)


def test_value_is_min_inner_product(grid, rng):
    model, costs = grid
    policy = solve(model, costs, "smoother", generate_base_points(4, 2))
    for stage in range(4):
        vals = policy.stages[stage].values
        for b in rng.dirichlet(np.ones(4), size=50):
            np.testing.assert_allclose(value(policy, b, stage),
                                       (vals @ b).min(), atol=1e-12)


# ------------------------------------------------------------- persistence --

def test_policy_save_load_round_trip(tmp_path, grid, rng):
    model, costs = grid
    policy = solve(model, costs, "smoother", generate_base_points(4, 2))
    path = tmp_path / "policy.json"
    save_policy(path, policy, extra_metadata={"note": "round-trip"})
    loaded = load_policy(path)
    assert isinstance(loaded, ValuePolicy)
    assert loaded.model_fingerprint == policy.model_fingerprint
    assert loaded.gamma_sizes() == policy.gamma_sizes()
    assert loaded.objective == policy.objective
    assert loaded.log_base == policy.log_base
    for stage in range(4):
        np.testing.assert_array_equal(loaded.stages[stage].values,
                                      policy.stages[stage].values)
    for b in rng.dirichlet(np.ones(4), size=100):
        for stage in range(3):
            assert best_action(loaded, b, stage) == best_action(policy, b, stage)
    # re-saving the loaded policy is byte-identical
    again = tmp_path / "policy2.json"
    save_policy(again, loaded, extra_metadata={"note": "round-trip"})
    assert path.read_bytes() == again.read_bytes()


def test_terminal_actions_are_absent(grid):
    model, costs = grid
    policy = solve(model, costs, "smoother", generate_base_points(4, 1))
    assert policy.stages[3].actions is None
    assert policy.stages[0].actions is not None
