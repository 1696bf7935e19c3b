from __future__ import annotations

import numpy as np
import pytest

import _oracles as oracle
from active_smoothing import (
    EntropyConfig,
    PolicyModelMismatch,
    StageSet,
    ValuePolicy,
    as_decision_rule,
    best_action,
    check_policy,
    compare_policies,
    exact_policy_metrics,
    fingerprint,
    generate_base_points,
    make_cost_model,
    make_model,
    monte_carlo,
    pointwise_smoother_entropy,
    rollout,
    rollouts,
    solve,
)
from active_smoothing import sim
from active_smoothing.sim import ROLLOUT_CHUNK
from active_smoothing.solver import TIE_TOL

_MASK64 = (1 << 64) - 1


# --------------------------------------------------------------- policies --

def test_as_decision_rule_forms(grid):
    model, costs = grid
    assert as_decision_rule(0, 3)(np.full(4, 0.25), 0) == 0
    assert as_decision_rule("always-east", 3)(np.full(4, 0.25), 1) == 2
    assert as_decision_rule("fixed:1", 3)(np.full(4, 0.25), 2) == 1
    fn = lambda b, k: int(k % 3)
    assert as_decision_rule(fn, 3) is fn
    policy = solve(model, costs, "smoother", generate_base_points(4, 1))
    rule = as_decision_rule(policy, 3)
    assert rule(np.full(4, 0.25), 0) in range(3)
    with pytest.raises(ValueError):
        as_decision_rule(3, 3)
    with pytest.raises(ValueError):
        as_decision_rule("always-north", 3)
    with pytest.raises(TypeError):
        as_decision_rule(2.5, 3)


def test_check_policy_detects_mismatch(grid):
    model, costs = grid
    policy = solve(model, costs, "smoother", generate_base_points(4, 1))
    check_policy(model, costs, policy)

    other_costs = make_cost_model(3, np.zeros((4, 3)), np.zeros(4))
    with pytest.raises(PolicyModelMismatch):
        check_policy(model, other_costs, policy)

    short = make_cost_model(2, np.zeros((4, 3)), costs.terminal_cost)
    with pytest.raises(PolicyModelMismatch):
        check_policy(model, short, policy)

    # non-policy inputs never need a fingerprint
    check_policy(model, costs, "always-east")


# ---------------------------------------------------------------- rollout --

def test_rollout_is_reproducible_and_documented(grid):
    model, costs = grid
    a = rollout(model, costs, "always-east", seed=42, run_index=3)
    b = rollout(model, costs, "always-east", seed=42, run_index=3)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.observations, b.observations)
    c = rollout(model, costs, "always-east", seed=42, run_index=4)
    assert not (np.array_equal(a.states, c.states)
                and np.array_equal(a.observations, c.observations))

    # reproduce the draw layout: Philox key (seed, run_index), 2 + 2T uniforms
    u = oracle.run_uniforms(42, 3, 2 + 2 * costs.horizon)
    x0 = int(np.searchsorted(np.cumsum(model.prior), u[0]))
    assert a.states[0] == x0
    y0 = int(np.searchsorted(np.cumsum(model.initial_observation[x0]), u[1]))
    assert a.observations[0] == y0
    x, y = x0, y0
    for k in range(costs.horizon):
        x = int(np.searchsorted(np.cumsum(model.transition[2][:, x]), u[2 + 2 * k]))
        y = int(np.searchsorted(np.cumsum(model.observation[2][x]), u[3 + 2 * k]))
        assert a.states[k + 1] == x
        assert a.observations[k + 1] == y


def test_rollout_record_invariants(grid):
    model, costs = grid
    rec = rollout(model, costs, "always-east", seed=7)
    t = costs.horizon
    assert len(rec.states) == t + 1
    assert len(rec.observations) == t + 1
    assert len(rec.controls) == t
    assert rec.beliefs.shape == (t + 1, 4)
    np.testing.assert_allclose(rec.beliefs.sum(axis=1), 1.0, atol=1e-10)
    np.testing.assert_allclose(
        rec.total_cost,
        rec.smoother_entropy + rec.stage_costs.sum() + rec.terminal_cost,
        atol=1e-9)
    np.testing.assert_allclose(
        rec.smoother_entropy,
        pointwise_smoother_entropy(model, rec.observations, rec.controls),
        atol=1e-12)
    want, _ = oracle.trajectory_entropy(model, list(rec.observations),
                                        list(rec.controls))
    np.testing.assert_allclose(rec.smoother_entropy, want, atol=1e-10)
    # beliefs agree with the reference filter
    b = oracle.initial_filter(model, rec.observations[0])
    np.testing.assert_allclose(rec.beliefs[0], b, atol=1e-12)
    for k in range(t):
        b = oracle.filter_step(model, b, rec.controls[k], rec.observations[k + 1])
        np.testing.assert_allclose(rec.beliefs[k + 1], b, atol=1e-12)


def test_rollout_uses_realised_costs(grid, rng):
    model, _ = grid
    costs = make_cost_model(3, rng.uniform(size=(3, 4, 3)), rng.uniform(size=4))
    rec = rollout(model, costs, "always-east", seed=11)
    for k in range(3):
        np.testing.assert_allclose(
            rec.stage_costs[k], costs.stage_cost[k][rec.states[k], rec.controls[k]])
    np.testing.assert_allclose(rec.terminal_cost,
                               costs.terminal_cost[rec.states[-1]])


# ------------------------------------------------------------ monte carlo --

def test_monte_carlo_summary_matches_manual_average(grid):
    model, costs = grid
    runs = 40
    summary = monte_carlo(model, costs, "always-east", runs=runs, seed=5)
    records = [rollout(model, costs, "always-east", seed=5, run_index=i)
               for i in range(runs)]
    terminal = np.array([r.terminal_cost for r in records])
    tbe = np.array([r.belief_entropies.sum() for r in records])
    smoother = np.array([r.smoother_entropy for r in records])
    total = np.array([r.total_cost for r in records])
    np.testing.assert_allclose(summary.terminal_cost, terminal.mean(), atol=1e-12)
    np.testing.assert_allclose(summary.total_belief_entropy, tbe.mean(), atol=1e-12)
    np.testing.assert_allclose(summary.smoother_entropy, smoother.mean(), atol=1e-12)
    np.testing.assert_allclose(summary.total_cost, total.mean(), atol=1e-12)
    np.testing.assert_allclose(summary.tc_se,
                               total.std(ddof=1) / np.sqrt(runs), atol=1e-12)
    assert summary.runs == runs
    assert summary.seed == 5
    assert summary.log_base == "natural"


def test_monte_carlo_single_run_has_zero_se(grid):
    model, costs = grid
    summary = monte_carlo(model, costs, "always-east", runs=1, seed=9)
    assert summary.tc_se == 0.0
    with pytest.raises(ValueError):
        monte_carlo(model, costs, "always-east", runs=0, seed=9)


def test_rollouts_reject_fewer_than_one_run(grid):
    model, costs = grid
    for runs in (0, -1):
        with pytest.raises(ValueError, match=f"runs must be >= 1, got {runs}$"):
            rollouts(model, costs, "always-east", seed=9, runs=runs)


def test_common_random_numbers_align_trajectories(grid):
    model, costs = grid
    out = compare_policies(model, costs, [("a", "always-east"), ("b", 2)],
                           runs=30, seed=123)
    (_, sa), (_, sb) = out
    # the two names denote the same decision rule: identical summaries
    assert sa == sb
    # and a repeated call reproduces them exactly
    out2 = compare_policies(model, costs, [("a", "always-east")], runs=30, seed=123)
    assert out2[0][1] == sa


# ------------------------------------------------------------------ exact --

def test_exact_policy_metrics_against_brute_force(grid):
    model, costs = grid
    got = exact_policy_metrics(model, costs, "always-east")
    term, tbe, smoother, stage = oracle.policy_metrics(
        model, costs, lambda b, k: 2)
    np.testing.assert_allclose(got.terminal_cost, term, atol=1e-10)
    np.testing.assert_allclose(got.total_belief_entropy, tbe, atol=1e-10)
    np.testing.assert_allclose(got.smoother_entropy, smoother, atol=1e-10)
    np.testing.assert_allclose(got.total_cost, smoother + stage + term, atol=1e-10)
    assert got.runs == 0
    assert got.terminal_cost_se == 0.0


def test_exact_policy_metrics_random_models(rng):
    for _ in range(15):
        model = oracle.random_model(rng)
        t = int(rng.integers(1, 4))
        costs = oracle.random_costs(rng, model, t)
        rule = oracle.random_rule(rng, model, t)
        got = exact_policy_metrics(model, costs, rule)
        term, tbe, smoother, stage = oracle.policy_metrics(model, costs, rule)
        np.testing.assert_allclose(got.terminal_cost, term, atol=1e-9)
        np.testing.assert_allclose(got.total_belief_entropy, tbe, atol=1e-9)
        np.testing.assert_allclose(got.smoother_entropy, smoother, atol=1e-9)
        np.testing.assert_allclose(got.total_cost, smoother + stage + term,
                                   atol=1e-9)


def test_exact_policy_metrics_enumeration_guard(rng):
    # 4^11 observation paths of 4 x 4 joints: 6.7e7 terms
    model = oracle.random_model(rng, n_states=4, n_obs=4)
    costs = oracle.zero_costs(model, 10)
    with pytest.raises(ValueError, match="[0-9]"):
        exact_policy_metrics(model, costs, 0)


def test_exact_policy_metrics_grid_agent_at_horizon_eight(grid, rng):
    # 2^9 observation paths, the largest array 2^9 x 4 x 4 joints
    model, costs = grid
    costs = make_cost_model(8, np.repeat(costs.stage_cost[:1], 8, axis=0), costs.terminal_cost)
    by_belief = oracle.random_rule(rng, model, 8)
    for policy, rule in (("always-east", lambda b, k: 2), (by_belief, by_belief)):
        exact = exact_policy_metrics(model, costs, policy)
        np.testing.assert_allclose(exact.smoother_entropy,
                                   oracle.additive_smoother_expectation(model, 8, rule),
                                   rtol=0, atol=1e-12)
        mc = monte_carlo(model, costs, policy, runs=4000, seed=8)
        assert abs(mc.terminal_cost - exact.terminal_cost) <= 5 * mc.terminal_cost_se
        assert abs(mc.total_belief_entropy - exact.total_belief_entropy) <= 5 * mc.tbe_se
        assert abs(mc.smoother_entropy - exact.smoother_entropy) <= 5 * mc.se_se
        assert abs(mc.total_cost - exact.total_cost) <= 5 * mc.tc_se


def test_monte_carlo_converges_to_exact(grid):
    model, costs = grid
    exact = exact_policy_metrics(model, costs, "always-east")
    mc = monte_carlo(model, costs, "always-east", runs=4000, seed=2024)
    # plain 5-sigma agreement per metric
    assert abs(mc.terminal_cost - exact.terminal_cost) <= 5 * mc.terminal_cost_se
    assert abs(mc.total_belief_entropy - exact.total_belief_entropy) <= 5 * mc.tbe_se
    assert abs(mc.smoother_entropy - exact.smoother_entropy) <= 5 * mc.se_se
    assert abs(mc.total_cost - exact.total_cost) <= 5 * mc.tc_se


# ------------------------------------------------------- lockstep engine --

def _assert_matches_reference(batch, model, costs, rule, seed, scale=1.0):
    cache = {}
    for row in range(len(batch)):
        want = oracle.reference_rollout(model, costs, rule, seed, batch.start + row, scale, cache)
        rec = batch.record(row)
        assert rec.run_index == batch.start + row
        for field in ("states", "observations", "controls"):
            np.testing.assert_array_equal(getattr(rec, field), want[field], err_msg=field)
        for field in ("beliefs", "stage_costs", "terminal_cost", "smoother_entropy",
                      "belief_entropies"):
            np.testing.assert_allclose(getattr(rec, field), want[field], rtol=0, atol=1e-12,
                                       err_msg=field)


@pytest.fixture(scope="module")
def grid_policies(grid):
    model, costs = grid
    bp = generate_base_points(4, 2)
    return {
        "smoother": solve(model, costs, "smoother", bp),
        "belief-sum": solve(model, costs, "belief-sum", bp),
    }


@pytest.mark.parametrize("name", ["smoother", "belief-sum", "always-east", "callable"])
def test_lockstep_engine_matches_reference_rollouts(grid, grid_policies, name):
    model, costs = grid
    runs = ROLLOUT_CHUNK + 3
    if name in grid_policies:
        policy_like = grid_policies[name]
        rule = oracle.alpha_rule(policy_like)
    elif name == "always-east":
        policy_like, rule = name, (lambda b, k: 2)
    else:
        policy_like = rule = lambda b, k: int(np.argmax(b) + k) % 3
    batch = rollouts(model, costs, policy_like, 31, runs, start=5)
    assert len(batch) == runs
    _assert_matches_reference(batch, model, costs, rule, 31)

    # monte_carlo advances the same runs block by block
    summary = monte_carlo(model, costs, policy_like, runs, seed=31)
    whole = rollouts(model, costs, policy_like, 31, runs)
    np.testing.assert_allclose(summary.total_cost, whole.total_cost.mean(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(summary.total_belief_entropy,
                               whole.belief_entropies.sum(axis=1).mean(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_states", [2, 3, 4, 5, 6])
def test_lockstep_engine_matches_reference_on_random_models(n_states):
    rng = np.random.default_rng(100 + n_states)
    model = oracle.random_model(rng, n_states=n_states, n_obs=3, n_controls=2)
    for horizon, runs in ((0, 1), (0, 17), (1, 1), (3, 40)):
        costs = oracle.random_costs(rng, model, horizon)
        rule = oracle.random_rule(rng, model, max(horizon, 1))
        for policy_like, reference in ((1, lambda b, k: 1), (rule, rule)):
            for log_base in ("natural", "base-2"):
                config = EntropyConfig(log_base)
                batch = rollouts(model, costs, policy_like, 2024, runs, config)
                _assert_matches_reference(batch, model, costs, reference, 2024,
                                          config.log_scale)


def test_rollout_is_a_batch_of_one(grid, grid_policies):
    model, costs = grid
    policy = grid_policies["smoother"]
    batch = rollouts(model, costs, policy, 8, 12)
    for row in (0, 7, 11):
        one, rec = rollout(model, costs, policy, 8, run_index=row), batch.record(row)
        for field in ("states", "observations", "controls", "beliefs", "stage_costs",
                      "belief_entropies"):
            np.testing.assert_array_equal(getattr(one, field), getattr(rec, field))
        assert (one.smoother_entropy, one.terminal_cost, one.total_cost) == \
            (rec.smoother_entropy, rec.terminal_cost, rec.total_cost)


def _tie_policy(model, costs):
    """Stage sets where the vectors of controls 1 and 0 tie within TIE_TOL everywhere and
    control 2's vector wins near state 3."""
    values = np.array([[1.0, 1.0, 1.0, 1.0],
                       [1.0 + 5e-13, 1.0 + 5e-13, 1.0 + 5e-13, 1.0 + 5e-13],
                       [3.0, 3.0, 3.0, -2.0]])
    stage = StageSet(values=values, actions=np.array([1, 0, 2]))
    terminal = StageSet(values=np.zeros((1, 4)), actions=None)
    return ValuePolicy(stages=(stage,) * costs.horizon + (terminal,), objective="smoother",
                       density=1, epsilon_interior=1e-4, log_base="natural",
                       model_fingerprint=fingerprint(model, costs))


def test_ties_go_to_the_lowest_control_on_every_row(grid, rng):
    model, costs = grid
    policy = _tie_policy(model, costs)
    beliefs = np.vstack([rng.dirichlet(np.ones(4), size=200), np.eye(4)])
    actions = best_action(policy, beliefs, 0)
    assert actions.shape == (len(beliefs),)
    # vector 0 (control 1) is strictly smallest where control 2 loses, but control 0 ties it
    want = np.where(beliefs @ policy.stages[0].values[2] < 1.0 - TIE_TOL, 2, 0)
    np.testing.assert_array_equal(actions, want)
    assert set(actions) == {0, 2}
    assert [best_action(policy, b, 0) for b in beliefs] == list(actions)
    batch = rollouts(model, costs, policy, 3, 300)
    for row in range(len(batch)):
        for k in range(costs.horizon):
            assert batch.controls[row, k] == best_action(policy, batch.beliefs[row, k], k)
    assert 1 not in batch.controls


def test_fingerprint_runs_once_per_policy_per_call(grid, grid_policies, monkeypatch):
    model, costs = grid
    calls = []
    monkeypatch.setattr(sim, "fingerprint", lambda *a: calls.append(1) or fingerprint(*a))
    monte_carlo(model, costs, grid_policies["smoother"], ROLLOUT_CHUNK + 3, seed=1)
    assert len(calls) == 1
    calls.clear()
    compare_policies(model, costs, [("a", grid_policies["smoother"]),
                                    ("b", grid_policies["belief-sum"]),
                                    ("c", "always-east")], ROLLOUT_CHUNK + 3, seed=1)
    assert len(calls) == 2


# ------------------------------------------------------------------ draws --

@pytest.mark.parametrize("seed", [-1, 0, 2**63, 2**64 - 1])
@pytest.mark.parametrize("start", [0, -3, 2**64 - 2])
@pytest.mark.parametrize("horizon", [0, 1, 2, 6, 8])
def test_uniforms_equal_numpy_philox_bit_for_bit(seed, start, horizon):
    # 2 + 2T words fill the last counter block of four fully at T = 1, partly at even T
    runs = np.uint64(start & _MASK64) + np.arange(5, dtype=np.uint64)  # wraps past 2^64
    got = sim._uniforms(seed, start, start + len(runs), horizon)
    want = np.stack([oracle.run_uniforms(seed, int(run), 2 + 2 * horizon) for run in runs])
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("runs", [1, ROLLOUT_CHUNK + 3])
def test_compare_policies_matches_reference_rollouts(runs):
    rng = np.random.default_rng(runs)
    model = oracle.random_model(rng, n_states=3, n_obs=2, n_controls=2, zero_fraction=0.3)
    costs = oracle.random_costs(rng, model, 3)
    rule = oracle.random_rule(rng, model, 3)
    (_, got), = compare_policies(model, costs, [("rule", rule)], runs, seed=-1)
    cache = {}
    want = [oracle.reference_rollout(model, costs, rule, -1, run, smoother_cache=cache)
            for run in range(runs)]
    terminal = np.array([w["terminal_cost"] for w in want])
    tbe = np.array([w["belief_entropies"].sum() for w in want])
    smoother = np.array([w["smoother_entropy"] for w in want])
    total = smoother + np.array([w["stage_costs"].sum() for w in want]) + terminal
    for field, values in (("terminal_cost", terminal), ("total_belief_entropy", tbe),
                          ("smoother_entropy", smoother), ("total_cost", total)):
        np.testing.assert_allclose(getattr(got, field), values.mean(), rtol=0, atol=1e-12,
                                   err_msg=field)


@pytest.mark.parametrize("horizon", [0, 1, 4])
def test_shared_filter_gives_pointwise_smoother_entropy_exactly(horizon):
    rng = np.random.default_rng(40 + horizon)
    zero_rows = False
    for n_states in (1, 2, 4, 6):
        model = oracle.random_model(rng, n_states=n_states, n_obs=2, n_controls=2,
                                    zero_fraction=0.6)
        if n_states > 1:
            # control 0 never leads to state 0: that backward-kernel row has zero mass
            transition = model.transition.copy()
            transition[0, 1] += transition[0, 0]
            transition[0, 0] = 0.0
            model = make_model(model.prior, transition, model.observation,
                               model.initial_observation)
        costs = oracle.random_costs(rng, model, horizon)
        rule = oracle.random_rule(rng, model, max(horizon, 1))
        for config in (EntropyConfig("natural"), EntropyConfig("base-2")):
            batch = rollouts(model, costs, rule, 11, 200, config)
            want = pointwise_smoother_entropy(model, batch.observations, batch.controls, config)
            assert batch.smoother_entropy.tolist() == want.tolist()
            zero_rows |= n_states > 1 and bool((batch.controls == 0).any())
    assert zero_rows or horizon == 0
