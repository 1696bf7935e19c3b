from __future__ import annotations

import json

import numpy as np
import pytest
from scipy.spatial import QhullError

import _oracles as oracle
import active_smoothing.solver as solver_module
from active_smoothing import (
    SolveContext,
    ValuePolicy,
    best_action,
    build_grid_agent,
    exact_policy_metrics,
    generate_base_points,
    load_policy,
    make_cost_model,
    make_model,
    prune,
    save_policy,
    solve,
    stage_tangent_alphas,
    terminal_tangent_alphas,
    value,
)
from active_smoothing.solver import PolicyFormatError, backup, policy_to_dict
from test_prune_properties import SLIVER

# grid agent, smoother objective, density 2: frozen regression values of the global
# backup (every stage forced off the reachable tree) and of the default tree backup
GRID_D2_GAMMAS = [316, 66, 15, 4]
GRID_D2_TREE_GAMMAS = [2, 10, 10, 4]
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


@pytest.fixture()
def qhull_builds(monkeypatch):
    """A list that grows by one per Qhull build the solver makes."""
    real, builds = solver_module.HalfspaceIntersection, []

    def counting(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_module, "HalfspaceIntersection", counting)
    return builds


def test_prune_returns_a_single_row_before_deduplicating(qhull_builds, monkeypatch):
    monkeypatch.setattr(solver_module, "_first_copies",
                        lambda rows: pytest.fail("deduplicated one row"))
    np.testing.assert_array_equal(prune(np.array([[3.0, 1.0, 2.0]])), [0])
    assert qhull_builds == []


def test_prune_keeps_one_survivor_of_pointwise_domination_without_qhull(qhull_builds):
    # rows 1 and 2 lie above row 0 in every entry: row 0 is the envelope
    values = np.array([[1.0, 2.0, 0.5], [1.5, 2.5, 0.75], [1.0 + 1e-6, 4.0, 0.6]])
    np.testing.assert_array_equal(prune(values), [0])
    np.testing.assert_array_equal(prune(values[::-1]), [2])
    assert qhull_builds == []


def test_prune_keeps_vertex_witnesses_without_qhull(qhull_builds):
    # rows 0 and 2 are each the least at a vertex, row 1 lies above row 2 everywhere
    values = np.array([[0.0, 1.0, 1.0], [1.5, 0.5, 1.5], [1.0, 0.0, 0.5]])
    np.testing.assert_array_equal(prune(values), [0, 2])
    assert qhull_builds == []


def test_prune_keeps_a_row_witnessed_inside_the_simplex_without_qhull(qhull_builds):
    # row 3 is least at no vertex, but by 0.1 at the witness point (1/2, 1/4, 1/4)
    values = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.4, 0.4, 0.4]])
    np.testing.assert_array_equal(prune(values), [0, 1, 2, 3])
    assert qhull_builds == []


def test_prune_drops_a_row_above_a_two_row_mixture_without_qhull(qhull_builds):
    # row 2 lies above neither other row in every entry, but 0.1 above their average
    values = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.1, 1.1, 1.2]])
    np.testing.assert_array_equal(prune(values), [0, 1])
    assert qhull_builds == []


@pytest.mark.filterwarnings("error")
def test_prune_settles_rows_one_subnormal_apart_without_a_warning(qhull_builds):
    # the first two rows differ by 5e-324 in their last entry, which bounds the mixtures'
    # lam by gap / slope, an overflow to infinity: row 2 is still dropped
    values = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 5e-324], [2.0, 2.0, 2.0]])
    np.testing.assert_array_equal(prune(values), [0, 1])
    assert qhull_builds == []


@pytest.mark.parametrize("n, count", [(2, 5), (4, 35), (12, 364), (40, 40)])
def test_witness_points_are_a_capped_lattice_with_the_vertices(n, count):
    # steps of 1/4 while they give at most WITNESS_CAP points, then coarser, down to
    # the vertices alone
    points = solver_module._witness_points(n).T
    assert points.shape == (count, n)
    assert count <= max(solver_module.WITNESS_CAP, n)
    np.testing.assert_allclose(points.sum(axis=1), 1.0)
    assert {tuple(row) for row in np.eye(n)} <= {tuple(row) for row in points}
    assert not solver_module._witness_points(n).flags.writeable


def test_prune_leaves_mixtures_over_the_budget_to_qhull(qhull_builds, monkeypatch):
    # the two-row mixture drop of test_prune_drops_a_row_above_a_two_row_mixture_without_qhull
    monkeypatch.setattr(solver_module, "MIXTURE_BUDGET", 0)
    values = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.1, 1.1, 1.2]])
    np.testing.assert_array_equal(prune(values), [0, 1])
    assert len(qhull_builds) == 1


@pytest.mark.parametrize("values, kept", [
    # the third row is least only inside the simplex, at the witness point (1/2, 1/2)
    (np.array([[0.0, 1.0], [1.0, 0.0], [0.4, 0.4]]), [0, 1, 2]),
    # more than N+1 distinct rows, the last two a margin above the first in every entry
    (np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 3.0]]), [0, 1]),
], ids=["inner-winner", "over-n-plus-one"])
def test_prune_settles_small_sets_without_qhull(qhull_builds, values, kept):
    np.testing.assert_array_equal(prune(values), kept)
    assert qhull_builds == []


@pytest.mark.parametrize("values, kept", [
    # the second row ties the first on the face p_2 = 0 and lies above it elsewhere
    (np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 0.0]]), [0, 2]),
    # both rows are least on a region, the first only on one 2^-52 thin
    (SLIVER, [1]),
    # the last row lies above the average of the first three, and above no mixture of two
    (np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.7, 0.7, 0.7]]),
     [0, 1, 2]),
    # the last row is least only where every p_i < 0.4, between the witness points
    (np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.6, 0.6, 0.6]]),
     [0, 1, 2, 3]),
    # the last row lies 1e-12 above the average of the other two, less than the margin
    (np.array([[0.0, 1.0], [1.0, 0.0], [0.5 + 1e-12, 0.5 + 1e-12]]), [0, 1]),
    # more than 2(N+1) distinct rows
    (np.array([[0.0, 1.0], [1.0, 0.0], *([k, k] for k in range(2, 7))]), [0, 1]),
], ids=["face-tie", "sliver", "three-row-mixture", "between-witnesses", "mixture-near-miss",
        "over-bound"])
def test_prune_builds_qhull_when_pointwise_comparison_proves_nothing(qhull_builds, values,
                                                                     kept):
    np.testing.assert_array_equal(prune(values), kept)
    assert len(qhull_builds) == 1


def test_prune_raises_a_named_error_when_qhull_fails(rng, monkeypatch):
    # a set that reaches Qhull has no other way to be pruned: a failed build is retried
    # once with Q12, and if that fails too, the set's size and N go into the error
    options = []

    def failing_build(*args, qhull_options=None):
        options.append(qhull_options)
        raise QhullError("forced failure")

    monkeypatch.setattr(solver_module, "HalfspaceIntersection", failing_build)
    tangents = _clustered_tangents(rng, 4, 40)
    values = np.vstack([tangents, tangents[:10] + 0.5])
    with pytest.raises(ValueError, match=r"envelope of 50 vectors in N=4") as info:
        prune(values)
    assert isinstance(info.value.__cause__, QhullError)
    assert options == [None, "Q12"]


# six rows in N=5 that come in pairs 1e-9 to 1e-11 apart: neither the pointwise proof
# nor the witnesses settle them, and Qhull stops on them with QH6271 "wide merge"
# unless its options include Q12
NEAR_COPIES = np.array([
    [7.106881780731385, -33.28102983129548, 6.400735212013086, 1.8726184766410405,
     16.942273691074696],
    [-6.581076149319412, 5.415131667912438, 28.785305383537455, -29.935009366646025,
     9.439212820709015],
    [-7.018479294002132, -11.264278545431358, -7.530277238505678, 41.795663673934136,
     -31.771330958164114],
    [-7.018479294036288, -11.264278545395115, -7.530277238505678, 41.795663673934136,
     -31.77133095810126],
    [-15.414070497701495, 44.259054404880075, 20.849238238065087, -15.92920726862705,
     -21.509472147368975],
    [-6.5810761491491725, 5.415131669433619, 28.785305383553617, -29.935009366646025,
     9.439212822314552],
])


def test_prune_keeps_the_envelope_of_near_copy_pairs(rng, qhull_builds):
    # the default build fails and the retry with Q12 keeps rows 0-4; row 5 lies at or
    # above row 1 in every entry
    kept = prune(NEAR_COPIES)
    assert len(qhull_builds) == 2
    np.testing.assert_array_equal(kept, np.arange(5))
    beliefs = np.vstack([np.eye(5), rng.dirichlet(np.ones(5), size=2000)])
    np.testing.assert_allclose((NEAR_COPIES[kept] @ beliefs.T).min(axis=0),
                               (NEAR_COPIES @ beliefs.T).min(axis=0), atol=1e-8)


# ------------------------------------------------------------------- backup --

def test_backup_matches_brute_force_cross_sums(rng):
    for _ in range(10):
        model = oracle.random_model(rng, n_states=3, n_obs=2, n_controls=2)
        nxt = rng.normal(size=(3, 3))
        pieces = [rng.normal(size=(2, 3)), rng.normal(size=(1, 3))]
        values, actions = backup(solver_module._projections(model), nxt, pieces)
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


def test_backup_envelope_matches_unpruned(rng, monkeypatch):
    model = oracle.random_model(rng, n_states=3, n_obs=2, n_controls=2)
    nxt = rng.normal(size=(4, 3))
    pieces = [rng.normal(size=(2, 3)) for _ in range(2)]
    beliefs = rng.dirichlet(np.ones(3), size=500)
    # entropy tangents -log p: prune drops none of the 150 stage pieces, so a control's
    # observation sum crossed with them passes 2,000 rows
    tangents = -np.log(rng.dirichlet(np.full(3, 3.0), size=20))
    tangent_pieces = [-np.log(rng.dirichlet(np.full(3, 3.0), size=150)) for _ in range(2)]
    pruned_sizes = []

    def recording_prune(values):
        pruned_sizes.append(len(values))
        return prune(values)

    monkeypatch.setattr(solver_module, "prune", recording_prune)
    for nxt, pieces in [(nxt, pieces), (tangents, tangent_pieces)]:
        values, _ = backup(solver_module._projections(model), nxt, pieces)
        unpruned, _ = oracle.unpruned_backup(model, nxt, pieces)
        np.testing.assert_allclose((values @ beliefs.T).min(axis=0),
                                   (unpruned @ beliefs.T).min(axis=0), atol=1e-8)
    assert max(pruned_sizes) > 2000


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


def force_global(monkeypatch):
    """Every stage backs up globally: no level of the reachable tree is within the cap."""
    monkeypatch.setattr(solver_module, "TREE_LEVEL_CAP", 0)


def test_grid_smoother_solve_frozen_regression(grid, monkeypatch):
    model, costs = grid
    force_global(monkeypatch)
    policy = solve(model, costs, "smoother", generate_base_points(4, 2))
    assert policy.gamma_sizes() == GRID_D2_GAMMAS
    metrics = exact_policy_metrics(model, costs, policy)
    np.testing.assert_allclose(metrics.total_cost, GRID_D2_EXACT_TOTAL, atol=1e-10)
    assert policy.objective == "smoother"
    assert policy.density == 2
    assert policy.horizon == 3


def test_grid_smoother_tree_solve_frozen_regression(grid):
    model, costs = grid
    policy = solve(model, costs, "smoother", generate_base_points(4, 2))
    assert policy.gamma_sizes() == GRID_D2_TREE_GAMMAS
    metrics = exact_policy_metrics(model, costs, policy)
    np.testing.assert_allclose(metrics.total_cost, GRID_D2_EXACT_TOTAL, atol=1e-10)


def solve_with_a_duplicated_control(grid, density):
    """The grid agent's smoother policy with control 3 a copy of stay (control 1)."""
    model, costs = grid
    copied = make_model(
        prior=model.prior,
        transition=np.concatenate([model.transition, model.transition[1:2]]),
        observation=np.concatenate([model.observation, model.observation[1:2]]),
        initial_observation=model.initial_observation,
    )
    copied_costs = make_cost_model(
        costs.horizon, np.concatenate([costs.stage_cost, costs.stage_cost[..., 1:2]], axis=2),
        costs.terminal_cost)
    return solve(copied, copied_costs, "smoother", generate_base_points(4, density))


@pytest.mark.parametrize("density, gammas", [(2, GRID_D2_GAMMAS), (3, [680, 220, 48, 10])])
def test_a_duplicated_control_never_appears_in_the_policy(grid, monkeypatch, density, gammas):
    # the copy's vectors equal stay's bit for bit, and of equal rows the lowest index
    # survives a prune, so the copy adds no vector and no action
    force_global(monkeypatch)
    policy = solve_with_a_duplicated_control(grid, density)
    assert policy.gamma_sizes() == gammas
    for stage in policy.stages[:-1]:
        assert not (stage.actions == 3).any()


@pytest.mark.parametrize("density, gammas", [(2, GRID_D2_TREE_GAMMAS), (3, [2, 11, 17, 7])])
def test_a_duplicated_control_never_appears_in_the_tree_policy(grid, density, gammas):
    # the copy's candidates tie stay's, and the tree backup chooses the lowest tied control
    policy = solve_with_a_duplicated_control(grid, density)
    assert policy.gamma_sizes() == gammas
    for stage in policy.stages[:-1]:
        assert not (stage.actions == 3).any()


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


# -------------------------------------------------------- reachable tree --

def oracle_levels(model, horizon):
    """Per stage 0..horizon, the beliefs reachable under any controls, by the oracle filter,
    control-major: all children under control 0 first."""
    levels = [[oracle.initial_filter(model, y) for y in range(model.n_observations)
               if model.initial_observation[:, y] @ model.prior > 0.0]]
    for _ in range(horizon):
        levels.append([oracle.filter_step(model, b, u, y) for u in range(model.n_controls)
                       for b in levels[-1] for y in range(model.n_observations)
                       if oracle.obs_prob(model, b, u, y) > 0.0])
    return levels


def lower_envelope(values, beliefs):
    """Per belief, the least row of `values` there, a block of rows at a time."""
    blocks = np.array_split(values, -(-len(values) // 4096))
    return np.min([(block @ beliefs.T).min(axis=0) for block in blocks], axis=0)


def test_reachable_levels_stop_before_the_first_level_over_the_cap(grid, monkeypatch):
    model, _ = grid
    assert [len(b) for b in solver_module._reachable_levels(model, 6)] == [2, 12, 72, 432]
    assert [len(b) for b in solver_module._reachable_levels(model, 3)] == [2, 12, 72]
    assert solver_module._reachable_levels(model, 0) == []
    monkeypatch.setattr(solver_module, "TREE_LEVEL_CAP", 431)
    assert [len(b) for b in solver_module._reachable_levels(model, 6)] == [2, 12, 72]
    monkeypatch.setattr(solver_module, "TREE_LEVEL_CAP", 1)
    assert solver_module._reachable_levels(model, 6) == []
    # the levels are the oracle's reachable beliefs, in the filter's own arithmetic, on
    # the grid agent and on a model whose observations of zero probability drop children
    sparse = oracle.zero_observation_model(np.random.default_rng(2))
    monkeypatch.undo()  # the default cap
    for model, horizon in ((model, 3), (sparse, 4)):
        got_levels = solver_module._reachable_levels(model, horizon)
        want_levels = oracle_levels(model, horizon - 1)
        assert [len(level) for level in got_levels] == [len(level) for level in want_levels]
        for got, want in zip(got_levels, want_levels):
            np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-15)
    assert [len(level) for level in got_levels] == [3, 16, 75, 339]  # not 3 * 6**k


@pytest.mark.parametrize("density, horizon", [(1, 3), (2, 1), (2, 2), (3, 1)])
def test_tree_solve_is_the_unpruned_value_at_reachable_beliefs(grid, rng, density, horizon):
    # exact at every belief the policy can reach, an upper bound everywhere else
    model, costs = grid
    costs = make_cost_model(horizon, costs.stage_cost[0], costs.terminal_cost)
    bp = generate_base_points(4, density)
    policy = solve(model, costs, "smoother", bp)
    unpruned = oracle.unpruned_stages(
        model, terminal_tangent_alphas(costs, bp),
        [[stage_tangent_alphas(model, costs, bp, k, u) for u in range(model.n_controls)]
         for k in range(horizon)])
    anywhere = rng.dirichlet(np.ones(4), size=200)
    for k, reachable in enumerate(oracle_levels(model, horizon)):
        reachable = np.array(reachable)
        np.testing.assert_allclose((policy.stages[k].values @ reachable.T).min(axis=0),
                                   lower_envelope(unpruned[k], reachable),
                                   rtol=0, atol=1e-9, err_msg=f"stage {k}")
        above = (policy.stages[k].values @ anywhere.T).min(axis=0)
        assert (above >= lower_envelope(unpruned[k], anywhere) - 1e-9).all(), f"stage {k}"


@pytest.mark.parametrize("objective", ["smoother", "belief-sum"])
def test_global_stages_are_exact_at_every_reachable_belief(grid, monkeypatch, objective):
    # at T=6, d=5 the global stages 4-5 prune cross-sums of thousands of vectors; they
    # must still hold the lattice value function, which the all-tree solve holds at
    # every reachable belief
    model, costs = grid
    costs = make_cost_model(6, costs.stage_cost[0], costs.terminal_cost)
    bp = generate_base_points(4, 5)
    default = solve(model, costs, objective, bp)
    monkeypatch.setattr(solver_module, "TREE_LEVEL_CAP", 10**9)
    tree = solve(model, costs, objective, bp)
    levels = solver_module._reachable_levels(model, 6)
    assert len(levels) == 6
    for k, beliefs in enumerate(levels):
        np.testing.assert_allclose((default.stages[k].values @ beliefs.T).min(axis=0),
                                   (tree.stages[k].values @ beliefs.T).min(axis=0),
                                   rtol=0, atol=1e-12, err_msg=f"stage {k}")


def test_tree_solve_keeps_used_terminal_tangents_without_pruning(grid, monkeypatch):
    # every stage is on the tree: no prune runs, and the terminal set is a subset of
    # the tangents
    model, costs = grid
    bp = generate_base_points(4, 3)
    monkeypatch.setattr(solver_module, "prune", lambda values: pytest.fail("pruned"))
    policy = solve(model, costs, "smoother", bp)
    tangents = terminal_tangent_alphas(costs, bp)
    terminal = policy.stages[-1].values
    assert len(terminal) < len(tangents)
    assert all((tangents == row).all(axis=1).any() for row in terminal)


def looped_tree_backup(model, beliefs, next_values, pieces):
    """The tree backup with one product and one argmin per (control, observation) pair."""
    n_controls, n_beliefs = model.n_controls, len(beliefs)
    candidates = np.zeros((n_controls, n_beliefs, model.n_states))
    used = np.zeros(len(next_values), dtype=bool)
    for u in range(n_controls):
        for y in range(model.n_observations):
            projected = next_values @ (model.observation[u][:, y, None] * model.transition[u])
            pick = np.argmin(beliefs @ projected.T, axis=1)
            used[pick] = True
            candidates[u] += projected[pick]
        candidates[u] += pieces[u][np.argmin(beliefs @ pieces[u].T, axis=1)]
    scores = (candidates[:, :, None, :] @ beliefs[:, :, None])[..., 0, 0]
    chosen = [np.flatnonzero(s <= s.min() + solver_module.TIE_TOL)[0] for s in scores.T]
    values, actions = [], []
    for row, u in zip(candidates[chosen, np.arange(n_beliefs)], chosen):
        if not any(u == a and (row == v).all() for v, a in zip(values, actions)):
            values.append(row)
            actions.append(u)
    return np.array(values), np.array(actions), used, scores


def tree_backup_cases(grid):
    """(model, beliefs, next values, (U, P, N) pieces); every belief set has copied rows."""
    rng = np.random.default_rng(11)
    for zero_fraction in (0.0, 0.3) * 15:
        model = oracle.random_model(rng, n_states=int(rng.integers(2, 6)),
                                    n_obs=int(rng.integers(1, 4)),
                                    n_controls=int(rng.integers(1, 4)),
                                    zero_fraction=zero_fraction)
        n = model.n_states
        beliefs = oracle.interior_beliefs(rng, n, 20)[rng.integers(0, 20, size=40)]
        next_values = rng.normal(size=(int(rng.integers(1, 12)), n))
        pieces = rng.normal(size=(model.n_controls, int(rng.integers(1, 6)), n))
        yield model, beliefs, next_values, pieces
    # the grid agent's walls: at the vertices e_0 (e_3) west (east) and stay move no mass,
    # so under the zero stage costs of costs-only their candidates tie there exactly
    model, costs = grid
    bp = generate_base_points(4, 3)
    terminal = terminal_tangent_alphas(costs, bp)
    vertices = np.repeat(np.eye(4), 2, axis=0)
    for level in solver_module._reachable_levels(model, 3):
        beliefs = np.vstack([level, level[::-1], vertices])
        yield model, beliefs, terminal, costs.stage_cost[0].T[:, None, :]
        yield model, beliefs, terminal, np.stack(
            [stage_tangent_alphas(model, costs, bp, 0, u) for u in range(3)])


def test_stacked_tree_backup_equals_the_loop_over_pairs_bit_for_bit(grid):
    exact_ties = 0
    for model, beliefs, next_values, pieces in tree_backup_cases(grid):
        values, actions, used = solver_module._tree_backup(
            solver_module._projections(model), beliefs, next_values, pieces)
        want_values, want_actions, want_used, scores = looped_tree_backup(
            model, beliefs, next_values, pieces)
        np.testing.assert_array_equal(values, want_values)
        np.testing.assert_array_equal(actions, want_actions)
        np.testing.assert_array_equal(used, want_used)
        exact_ties += int(((scores == scores.min(axis=0)).sum(axis=0) > 1).sum())
    assert exact_ties > 0  # the lowest-control tie rule was exercised


def recorded_solve(monkeypatch, model, costs, objective, tangents_name):
    """(tangent calls as (stage, control), the stage pieces each stage backs up with)."""
    calls, pieces = [], []
    tangents = getattr(solver_module, tangents_name)
    tree_backup, global_backup = solver_module._tree_backup, solver_module.backup

    def counting(model, cost_model, base_points, stage, control, config):
        calls.append((stage, control))
        return tangents(model, cost_model, base_points, stage, control, config)

    def tree_recording(weights, beliefs, next_values, stage_pieces):
        pieces.insert(0, stage_pieces)
        return tree_backup(weights, beliefs, next_values, stage_pieces)

    def global_recording(weights, next_values, stage_pieces):
        pieces.insert(0, stage_pieces)
        return global_backup(weights, next_values, stage_pieces)

    monkeypatch.setattr(solver_module, tangents_name, counting)
    monkeypatch.setattr(solver_module, "_tree_backup", tree_recording)
    monkeypatch.setattr(solver_module, "backup", global_recording)
    solve(model, costs, objective, generate_base_points(4, 2))
    assert len(pieces) == costs.horizon
    return calls, pieces


TANGENTS = [("smoother", "stage_tangent_alphas"), ("belief-sum", "_belief_sum_stage_alphas")]


@pytest.mark.parametrize("objective, tangents_name", TANGENTS)
@pytest.mark.parametrize("horizon", [3, 6])
def test_stationary_costs_tangent_one_stage(grid, monkeypatch, objective, tangents_name,
                                           horizon):
    # T=6 backs stages 4-5 up globally, with the same pieces
    model, costs = grid
    costs = make_cost_model(horizon, costs.stage_cost[0], costs.terminal_cost)
    calls, pieces = recorded_solve(monkeypatch, model, costs, objective, tangents_name)
    assert calls == [(0, u) for u in range(3)]
    assert all(p is pieces[0] for p in pieces)


@pytest.mark.parametrize("objective, tangents_name", TANGENTS)
def test_tangents_follow_the_stage_cost_tables(grid, monkeypatch, objective, tangents_name):
    model, costs = grid
    table = np.random.default_rng(5).uniform(size=(4, 3))
    costs = make_cost_model(3, np.stack([np.zeros((4, 3)), table, np.zeros((4, 3))]),
                            costs.terminal_cost)
    calls, pieces = recorded_solve(monkeypatch, model, costs, objective, tangents_name)
    assert calls == [(k, u) for k in (0, 1) for u in range(3)]
    assert pieces[2] is pieces[0]
    # stage 0 costs nothing, so its pieces are the bare tangents
    np.testing.assert_array_equal(pieces[1], pieces[0] + table.T[:, None, :])
    # a signed zero is another table: reusing +0.0 pieces could flip a zero's sign
    signed = make_cost_model(3, np.stack([np.zeros((4, 3)), np.full((4, 3), -0.0)] * 2)[:3],
                             costs.terminal_cost)
    calls, _ = recorded_solve(monkeypatch, model, signed, objective, tangents_name)
    assert calls == [(k, u) for k in (0, 1) for u in range(3)]


def assert_tree_decides_as_global(monkeypatch, model, costs, objective, base_points):
    tree = solve(model, costs, objective, base_points)
    with monkeypatch.context() as patch:
        force_global(patch)
        forced = solve(model, costs, objective, base_points)
    assert exact_policy_metrics(model, costs, tree) == exact_policy_metrics(model, costs, forced)


@pytest.mark.parametrize("objective", ["smoother", "belief-sum", "costs-only"])
def test_tree_solve_evaluates_as_the_global_solve_on_the_grid(grid, monkeypatch, objective):
    model, costs = grid
    for density in range(1, 6):
        assert_tree_decides_as_global(monkeypatch, model, costs, objective,
                                      generate_base_points(4, density))


@pytest.mark.parametrize("objective", ["smoother", "belief-sum"])
def test_tree_and_global_stages_together_evaluate_as_the_global_solve(grid, monkeypatch,
                                                                      objective):
    # at T=6 the tree holds stages 0-3 and stages 4-5 back up globally
    model, costs = grid
    costs = make_cost_model(6, costs.stage_cost[0], costs.terminal_cost)
    assert_tree_decides_as_global(monkeypatch, model, costs, objective,
                                  generate_base_points(4, 1))


def test_tree_solve_evaluates_as_the_global_solve_on_random_models(rng, monkeypatch):
    for i in range(40):
        model = oracle.random_model(rng, zero_fraction=0.3 if i % 3 == 0 else 0.0)
        costs = oracle.random_costs(rng, model, horizon=int(rng.integers(1, 4)))
        objective = ("smoother", "belief-sum", "costs-only")[i % 3]
        bp = generate_base_points(model.n_states, int(rng.integers(1, 4)))
        assert_tree_decides_as_global(monkeypatch, model, costs, objective, bp)
        with monkeypatch.context() as patch:  # the shallow stages only on the tree
            patch.setattr(solver_module, "TREE_LEVEL_CAP", 2 * model.n_observations)
            assert_tree_decides_as_global(monkeypatch, model, costs, objective, bp)


# ---------------------------------------------------------- solve context --

# every objective at densities 1-5, in an order that mixes both
CONTEXT_ORDER = [(objective, density) for density in (3, 1, 5, 2, 4)
                 for objective in ("belief-sum", "costs-only", "smoother")]


def context_cases(grid):
    """(model, costs): the grid all on the tree (T=3), the grid with global stages 4-5
    (T=6), and a random model with a cost table per stage and a global stage 4 (T=5)."""
    model, costs = grid
    yield model, costs
    yield model, make_cost_model(6, costs.stage_cost[0], costs.terminal_cost)
    rng = np.random.default_rng(29)
    model = oracle.random_model(rng, n_states=3, n_obs=2, n_controls=3, zero_fraction=0.3)
    yield model, oracle.random_costs(rng, model, 5)


@pytest.mark.parametrize("case", range(3), ids=["grid-T3", "grid-T6", "random-T5"])
def test_solves_sharing_a_context_equal_independent_solves(grid, case):
    model, costs = list(context_cases(grid))[case]
    context = SolveContext(model, costs)
    for objective, density in CONTEXT_ORDER:
        base_points = generate_base_points(model.n_states, density)
        shared = solve(model, costs, objective, base_points, context=context)
        alone = solve(model, costs, objective, base_points)
        assert policy_to_dict(shared) == policy_to_dict(alone)


def test_a_context_is_refused_for_other_model_or_cost_objects(grid):
    model, costs = grid
    context = SolveContext(model, costs)
    base_points = generate_base_points(4, 1)
    equal_model, equal_costs = build_grid_agent()  # equal values, other objects
    for other_model, other_costs in ((equal_model, costs), (model, equal_costs)):
        with pytest.raises(ValueError, match="another model or cost model"):
            solve(other_model, other_costs, "smoother", base_points, context=context)
    solve(model, costs, "smoother", base_points, context=context)


def test_six_solves_on_one_context_enumerate_the_levels_once(grid, monkeypatch):
    model, costs = grid
    calls = []
    levels = solver_module._reachable_levels

    def counting(model, horizon):
        calls.append(horizon)
        return levels(model, horizon)

    monkeypatch.setattr(solver_module, "_reachable_levels", counting)
    context = SolveContext(model, costs)
    assert calls == []  # nothing runs before the first solve
    for objective, density in [("smoother", 5), ("belief-sum", 5)] + [
            ("smoother", d) for d in range(1, 5)]:
        solve(model, costs, objective, generate_base_points(4, density), context=context)
    assert calls == [3]
    # every solve reads the same arrays, so none of them can be written
    assert not any(a.flags.writeable for a in context.levels + [context.projections])
    solve(model, costs, "smoother", generate_base_points(4, 1))  # no context: a fresh one
    assert calls == [3, 3]


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


def test_a_policy_with_an_empty_stage_is_unreadable(tmp_path, grid):
    model, costs = grid
    d = policy_to_dict(solve(model, costs, "smoother", generate_base_points(4, 1)))
    d["stages"][1] = []
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(d))
    with pytest.raises(PolicyFormatError, match="^policy stages are not a non-empty list of "
                                                "non-empty lists of objects$"):
        load_policy(path)


def test_a_policy_that_fails_to_encode_writes_no_file(tmp_path, grid):
    # the JSON text is encoded whole before the file is opened
    model, costs = grid
    policy = solve(model, costs, "smoother", generate_base_points(4, 1))
    path = tmp_path / "policy.json"
    with pytest.raises(TypeError, match="set"):
        save_policy(path, policy, extra_metadata={"note": {1, 2}})
    assert not path.exists()


def test_terminal_actions_are_absent(grid):
    model, costs = grid
    policy = solve(model, costs, "smoother", generate_base_points(4, 1))
    assert policy.stages[3].actions is None
    assert policy.stages[0].actions is not None
