from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import _oracles as oracle
from active_smoothing import (
    DEFAULT_CONFIG,
    EntropyConfig,
    PolicyModelMismatch,
    StageSet,
    ValuePolicy,
    best_action,
    build_grid_agent,
    check_policy,
    compare_policies,
    exact_policy_metrics,
    fingerprint,
    generate_base_points,
    initial_update,
    make_cost_model,
    make_model,
    monte_carlo,
    pointwise_smoother_entropy,
    rollout,
    rollouts,
    solve,
)
from active_smoothing import belief as belief_module
from active_smoothing import costs as costs_module
from active_smoothing import sim
from active_smoothing.solver import TIE_TOL

_MASK64 = (1 << 64) - 1
BLOCK_RUNS = 1024  # runs per one-policy block under the `grid_blocks` fixture


def _budget(block_runs: int, n_policies: int, model, costs) -> int:
    """The ROLLOUT_CHUNK at which compare_policies on (model, costs) with `n_policies`
    policies advances blocks of `block_runs` runs: the words such a block holds, which
    grow with the runs."""
    return sim._block_words(model, costs.horizon, n_policies, block_runs)


@pytest.fixture
def grid_blocks(grid, monkeypatch):
    """Monte Carlo of one grid-agent policy advances in blocks of BLOCK_RUNS runs."""
    monkeypatch.setattr(sim, "ROLLOUT_CHUNK", _budget(BLOCK_RUNS, 1, *grid))


# --------------------------------------------------------------- policies --

@pytest.mark.parametrize("policy_like, error, message", [
    (3, ValueError, r"^policy 3: control 3 out of range \[0, 3\)$"),
    ("always-north", ValueError, r"^unknown builtin policy 'always-north'$"),
    ("fixed:abc", ValueError, r"^malformed builtin policy 'fixed:abc': "),
    (2.5, TypeError, r"^cannot interpret float as a policy$"),
], ids=["control-3", "always-north", "fixed-abc", "float"])
def test_policies_that_name_no_control_are_refused_before_any_draw(
        grid, monkeypatch, policy_like, error, message):
    model, costs = grid
    monkeypatch.setattr(sim, "_uniforms", lambda *args: pytest.fail("drew uniforms"))
    with pytest.raises(error, match=message):
        rollout(model, costs, policy_like, seed=1)
    with pytest.raises(error, match=message):
        exact_policy_metrics(model, costs, policy_like)
    with pytest.raises(error, match=message):
        compare_policies(model, costs, [("east", "always-east"), ("bad", policy_like)], 10, 1)


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
    check_policy(model, costs, np.int64(1))
    check_policy(model, costs, lambda belief, stage: 9)  # its controls are checked on return

    # an integer or builtin reference must name one of the model's controls
    with pytest.raises(ValueError, match=r"^policy 'fixed:3': control 3 out of range \[0, 3\)$"):
        check_policy(model, costs, "fixed:3")
    two_controls = oracle.random_model(np.random.default_rng(3), n_states=3, n_obs=2,
                                       n_controls=2)
    two_costs = oracle.random_costs(np.random.default_rng(4), two_controls, horizon=2)
    with pytest.raises(ValueError, match=r"^policy 'always-east': control 2 out of range"):
        check_policy(two_controls, two_costs, "always-east")
    with pytest.raises(ValueError, match=r"^malformed builtin policy 'fixed:1_0': "):
        check_policy(model, costs, "fixed:1_0")
    with pytest.raises(ValueError, match=r"^unknown builtin policy 'always-north'$"):
        check_policy(model, costs, "always-north")
    with pytest.raises(TypeError, match=r"^cannot interpret list as a policy$"):
        check_policy(model, costs, [2])


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


def test_compare_policies_refuses_a_negative_trace_count_before_any_draw(grid, monkeypatch):
    model, costs = grid
    monkeypatch.setattr(sim, "_uniforms", lambda *args: pytest.fail("drew uniforms"))
    with pytest.raises(ValueError, match="trace_runs must be >= 0, got -2$"):
        compare_policies(model, costs, [("e", "always-east")], 5, 1, trace_runs=-2)


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


@pytest.mark.parametrize("horizon", [1, 3, 6])
def test_exact_evaluation_predicts_each_levels_joint_once(grid, monkeypatch, horizon):
    # the stage entropy, the observation probabilities and the children's beliefs all
    # read one joint per level; every module's own binding of predict_joint is counted
    model, costs = grid
    costs = make_cost_model(horizon, costs.stage_cost[0], costs.terminal_cost)
    policy = solve(model, costs, "smoother", generate_base_points(4, 2))
    calls = []
    for module in (belief_module, costs_module, sim):
        def counting(*args, predict=module.predict_joint):
            calls.append(module)
            return predict(*args)

        monkeypatch.setattr(module, "predict_joint", counting)
    for policy_like in ("always-east", policy):
        calls.clear()
        exact_policy_metrics(model, costs, policy_like)
        assert len(calls) == horizon


def _own_walk(model, costs, policy_like, config=DEFAULT_CONFIG) -> tuple:
    """One policy's exact (terminal, total belief entropy, smoother, total) expectations,
    walked alone level by level as a single-policy evaluation does."""
    decide = sim._rows_rule(model, policy_like)
    _, prob, beliefs = belief_module.initial_level(model)
    tbe = smoother = stage_c = 0.0
    for k in range(costs.horizon):
        tbe += prob @ costs_module.belief_entropy(beliefs, config)
        controls = decide(beliefs, np.arange(len(beliefs)), k)
        stage_c += prob @ (beliefs * costs.stage_cost[k].T[controls]).sum(axis=1)
        joint = belief_module.predict_joint(model, beliefs, controls)
        smoother += prob @ costs_module._conditional_entropy(joint, config)
        parents, _, p_next, beliefs = belief_module.children(model, joint, controls, stage=k)
        prob = prob[parents] * p_next
    final_entropy = prob @ costs_module.belief_entropy(beliefs, config)
    terminal = prob @ (beliefs @ costs.terminal_cost)
    smoother += final_entropy
    return terminal, tbe + final_entropy, smoother, smoother + stage_c + terminal


def _exact_cases():
    """(model, costs, named policies) of the grid agent at T=3 and T=6 and of a model
    whose kernels have zeros, each with value, fixed and callable policies."""
    model, costs = build_grid_agent()
    cases = []
    for horizon in (3, 6):
        c = make_cost_model(horizon, costs.stage_cost[0], costs.terminal_cost)
        cases.append((model, c, [
            ("smoother", solve(model, c, "smoother", generate_base_points(4, 2))),
            ("belief-sum", solve(model, c, "belief-sum", generate_base_points(4, 1))),
            ("east", "always-east"), ("fixed", 1),
            ("callable", lambda b, k: int(np.argmax(b) + k) % 3)]))
    rng = np.random.default_rng(30)
    zero = oracle.zero_observation_model(rng, n_states=4, n_obs=3, n_controls=2)
    assert (zero.observation == 0.0).any()
    c = oracle.random_costs(rng, zero, 4)
    cases.append((zero, c, [
        ("smoother", solve(zero, c, "smoother", generate_base_points(4, 3))),
        ("random", _random_value_policy(rng, zero, c)), ("fixed", "fixed:0"),
        ("callable", lambda b, k: int(b[0] > 0.3))]))
    return cases


@pytest.mark.parametrize("case", [0, 1, 2], ids=["grid-T3", "grid-T6", "zero-observations"])
def test_one_exact_pass_equals_each_policys_own_walk(case):
    model, costs, policies = _exact_cases()[case]
    batch = sim.compare_policies_exactly(model, costs, policies, seed=7)
    assert [name for name, _ in batch] == [name for name, _ in policies]
    for (_, policy_like), (_, summary) in zip(policies, batch):
        own = sim._summary(0, _own_walk(model, costs, policy_like), (0.0,) * 4,
                           DEFAULT_CONFIG, 7)
        assert summary == own
        assert exact_policy_metrics(model, costs, policy_like, seed=7) == own


@pytest.mark.parametrize("per_pass", [1, 2, 3])
def test_a_lowered_size_guard_splits_the_policies_into_passes_with_equal_results(
        monkeypatch, per_pass):
    model, costs, policies = _exact_cases()[1]
    whole = sim.compare_policies_exactly(model, costs, policies)
    passes, exact_pass = [], sim._exact_pass
    monkeypatch.setattr(sim, "_exact_pass",
                        lambda m, c, decides, config: passes.append(len(decides))
                        or exact_pass(m, c, decides, config))
    # the grid agent at T=6: 2^7 observation paths of 4 x 4 joints per policy
    monkeypatch.setattr(sim, "SIZE_GUARD", per_pass * 2 ** 7 * 16 + 1)
    assert sim.compare_policies_exactly(model, costs, policies) == whole
    assert passes == [per_pass] * (len(policies) // per_pass) + (
        [len(policies) % per_pass] if len(policies) % per_pass else [])


def test_exact_comparison_fingerprints_once_and_walks_every_policy_in_one_pass(
        grid, grid_policies, monkeypatch):
    model, costs = grid
    hashed, passes, exact_pass = [], [], sim._exact_pass
    monkeypatch.setattr(sim, "fingerprint", lambda *a: hashed.append(1) or fingerprint(*a))
    monkeypatch.setattr(sim, "_exact_pass",
                        lambda m, c, decides, config: passes.append(len(decides))
                        or exact_pass(m, c, decides, config))
    policies = [("a", grid_policies["smoother"]), ("b", grid_policies["belief-sum"]),
                ("c", "always-east")]
    sim.compare_policies_exactly(model, costs, policies)
    assert (hashed, passes) == ([1], [3])
    hashed.clear()
    sim.compare_policies_exactly(model, costs, [("c", "always-east"), ("d", 1)])
    assert hashed == []
    # a caller that holds the fingerprint passes it, and nothing is hashed
    sim.compare_policies_exactly(model, costs, policies,
                                 model_fingerprint=fingerprint(model, costs))
    assert hashed == []
    assert sim.compare_policies_exactly(model, costs, []) == []
    # a mismatch found against the shared fingerprint reads as check_policy's
    other = make_cost_model(3, np.zeros((4, 3)), np.zeros(4))
    with pytest.raises(PolicyModelMismatch) as want:
        check_policy(model, other, grid_policies["belief-sum"])
    with pytest.raises(PolicyModelMismatch) as got:
        sim.compare_policies_exactly(model, other, policies)
    assert str(got.value) == str(want.value)


def test_a_callable_is_called_per_row_in_row_order_within_its_range(grid):
    model, costs = grid

    def recording(calls):
        def rule(belief, stage):
            calls.append((stage, belief.tolist()))
            return int(np.argmax(belief)) % 3
        return rule

    a, b, alone, walked = [], [], [], []
    sim.compare_policies_exactly(model, costs, [("a", recording(a)), ("east", 2),
                                                ("b", recording(b))])
    exact_policy_metrics(model, costs, recording(alone))
    _own_walk(model, costs, recording(walked))
    assert a == b == alone == walked


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
    """`rule` decides every row, or is a list with one rule per row."""
    cache = {}
    for row in range(len(batch)):
        row_rule = rule[row] if isinstance(rule, list) else rule
        want = oracle.reference_rollout(model, costs, row_rule, seed, batch.start + row, scale,
                                        cache)
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


@pytest.mark.parametrize("name", ["smoother", "belief-sum", "always-east", "fixed:1", 0,
                                  "callable"])
def test_lockstep_engine_matches_reference_rollouts(grid, grid_policies, grid_blocks, name):
    model, costs = grid
    runs = BLOCK_RUNS + 3
    fixed = {"always-east": 2, "fixed:1": 1, 0: 0}
    if name in grid_policies:
        policy_like = grid_policies[name]
        rule = oracle.alpha_rule(policy_like)
    elif name in fixed:
        policy_like, rule = name, (lambda b, k: fixed[name])
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


def test_per_run_totals_equal_each_records_sums_bit_for_bit():
    # numpy sums 8 or more contiguous terms pairwise, so at T = 9 a running sum over
    # the stages would differ in the last bits from the records' own sums
    rng = np.random.default_rng(9)
    model = oracle.random_model(rng, n_states=5, n_obs=3, n_controls=2)
    costs = oracle.random_costs(rng, model, 9)
    rule = oracle.random_rule(rng, model, 9)
    summaries = compare_policies(model, costs, [("rule", rule), ("fixed", 1)], 150, seed=3)
    for policy_like, (_, summary) in zip((rule, 1), summaries):
        batch = rollouts(model, costs, policy_like, 3, 150)
        records = [rollout(model, costs, policy_like, 3, run_index=row) for row in range(150)]
        tbe = [r.belief_entropies.sum() for r in records]
        total = [r.smoother_entropy + r.stage_costs.sum() + r.terminal_cost for r in records]
        assert batch.total_belief_entropy.tolist() == tbe
        assert batch.belief_entropies.sum(axis=1).tolist() == tbe
        assert batch.total_cost.tolist() == total
        assert (summary.total_belief_entropy, summary.total_cost) == (np.mean(tbe), np.mean(total))
    running = [sum(r.belief_entropies.tolist()) for r in records]
    assert running != tbe  # the test sees the summation order


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


def test_value_policies_decide_once_per_distinct_history(grid, grid_policies, grid_blocks,
                                                        monkeypatch):
    model, costs = grid
    assert (model.n_observations, costs.horizon) == (2, 3)
    rows = []

    def counting(policy, beliefs, stage):
        rows.append((stage, len(beliefs)))
        return best_action(policy, beliefs, stage)

    monkeypatch.setattr(sim, "best_action", counting)
    policy = grid_policies["smoother"]
    rollouts(model, costs, policy, 31, BLOCK_RUNS + 3)
    monte_carlo(model, costs, policy, BLOCK_RUNS + 3, seed=31)
    # a deterministic policy's history at stage k is fixed by y_0..y_k: at most 2^(k+1)
    assert sorted({stage for stage, _ in rows}) == [0, 1, 2]
    for stage, count in rows:
        assert 1 <= count <= 2 ** (stage + 1)


def test_stateful_callable_is_called_once_per_row_in_row_order(grid, grid_blocks):
    model, costs = grid
    t, n_controls, runs = costs.horizon, model.n_controls, BLOCK_RUNS + 3
    calls = []

    def counter(belief, stage):
        calls.append((stage, belief.copy()))
        return len(calls) % n_controls

    batch = rollouts(model, costs, counter, 31, runs, start=5)
    assert len(calls) == runs * t
    assert [stage for stage, _ in calls] == np.repeat(np.arange(t), runs).tolist()
    seen = np.array([belief for _, belief in calls]).reshape(t, runs, -1)
    np.testing.assert_array_equal(seen, batch.beliefs[:, :t].swapaxes(0, 1))
    # call number k * runs + r + 1 decides row r at stage k
    want = (np.arange(t) * runs + np.arange(runs)[:, None] + 1) % n_controls
    np.testing.assert_array_equal(batch.controls, want)
    _assert_matches_reference(batch, model, costs,
                              [lambda b, k, r=row: want[r, k] for row in range(runs)], 31)

    calls.clear()
    compare_policies(model, costs, [("counter", counter)], runs, seed=31)
    assert len(calls) == runs * t


@pytest.mark.parametrize("bad", [-1, 3])
def test_out_of_range_callable_controls_are_rejected(grid, bad):
    # at stage 0, rows with y_0 = 0 choose control 2 and the others `bad`; with bad = -1
    # both give the same (group, control, observation) code, and at seed 16 a row of
    # control 2 comes first in each, so only a range check before grouping sees it
    model, costs = grid
    after_zero = initial_update(model, 0)
    rule = lambda b, k: 2 if k or np.array_equal(b, after_zero) else bad
    with pytest.raises(IndexError, match=rf"^control {bad} out of range \[0, 3\)$"):
        rollouts(model, costs, rule, 16, 50)


def test_stateful_callable_beside_value_policies_is_called_stage_major_per_block(
        grid, grid_policies, monkeypatch):
    model, costs = grid
    t, runs, block = costs.horizon, 50, 12
    calls = []

    def counter(belief, stage):
        calls.append((stage, belief.copy()))
        return len(calls) % model.n_controls

    policies = [("smoother", grid_policies["smoother"]), ("counter", counter),
                ("east", "always-east"), ("belief-sum", grid_policies["belief-sum"])]
    monkeypatch.setattr(sim, "ROLLOUT_CHUNK", _budget(block, len(policies), model, costs))
    summary = compare_policies(model, costs, policies, runs, seed=31)[1][1]
    joint = calls[:]
    assert len(joint) == runs * t
    # the calls of one-policy rollouts of each block in turn: stage by stage within a
    # block, rows in order within a stage
    calls.clear()
    batches = [rollouts(model, costs, counter, 31, min(block, runs - start), start=start)
               for start in range(0, runs, block)]
    assert [stage for stage, _ in joint] == [stage for stage, _ in calls] == np.concatenate(
        [np.repeat(np.arange(t), len(batch)) for batch in batches]).tolist()
    np.testing.assert_array_equal([b for _, b in joint], [b for _, b in calls])
    assert summary.total_cost == np.concatenate([b.total_cost for b in batches]).mean()


def test_compare_policies_does_not_depend_on_the_block_size(grid, grid_policies, monkeypatch):
    model, costs = grid
    rng = np.random.default_rng(17)
    other = oracle.random_model(rng, n_states=3, n_obs=3, n_controls=2, zero_fraction=0.4)
    other_costs = oracle.random_costs(rng, other, 4)
    cases = [(model, costs, [("smoother", grid_policies["smoother"]),
                             ("belief-sum", grid_policies["belief-sum"]),
                             ("east", "always-east"),
                             ("callable", lambda b, k: int(np.argmax(b) + k) % 3)]),
             (other, other_costs, [("rule", oracle.random_rule(rng, other, 4)), ("fixed", 1)])]
    blocks, advance = [], sim._advance
    monkeypatch.setattr(sim, "_advance",
                        lambda *args: blocks.append(args[5] - args[4]) or advance(*args))
    for chunk_model, chunk_costs, policies in cases:
        summaries = []
        # a budget below one run still advances one run at a time
        for budget, block in ((1, 1), (_budget(7, len(policies), chunk_model, chunk_costs), 7),
                              (_budget(300, len(policies), chunk_model, chunk_costs), 300)):
            monkeypatch.setattr(sim, "ROLLOUT_CHUNK", budget)
            blocks.clear()
            summaries.append(compare_policies(chunk_model, chunk_costs, policies, 300, seed=5))
            assert blocks == [block] * (300 // block) + [300 % block] * (300 % block > 0)
        assert summaries[0] == summaries[1] == summaries[2]


@pytest.mark.parametrize("horizon", [0, 3])
@pytest.mark.parametrize("block, runs", [(1, 12), (3, 12), (300, 12), (300, 4)],
                         ids=["block-1", "block-3", "one-block", "fewer-runs-than-head"])
def test_compare_policies_head_is_each_policys_leading_rollouts(
        grid, grid_policies, monkeypatch, horizon, block, runs):
    model, costs = grid
    costs = make_cost_model(horizon, costs.stage_cost[0], costs.terminal_cost)
    policies = [("east", "always-east"), ("fixed", 1),
                ("callable", lambda b, k: int(np.argmax(b) + k) % 3)]
    if horizon == 3:
        policies.insert(0, ("smoother", grid_policies["smoother"]))
    monkeypatch.setattr(sim, "ROLLOUT_CHUNK", _budget(block, len(policies), model, costs))
    summaries, (states, controls, observations) = compare_policies(
        model, costs, policies, runs, 9, trace_runs=10)
    assert summaries == compare_policies(model, costs, policies, runs, 9)
    n = min(10, runs)
    assert states.shape == observations.shape == (len(policies), n, horizon + 1)
    assert controls.shape == (len(policies), n, horizon)
    for p, (_, policy_like) in enumerate(policies):
        for i in range(n):
            record = rollout(model, costs, policy_like, 9, run_index=i)
            assert states[p, i].tolist() == record.states.tolist()
            assert controls[p, i].tolist() == record.controls.tolist()
            assert observations[p, i].tolist() == record.observations.tolist()


def test_compare_policies_head_of_no_runs_or_no_policies_is_empty(grid):
    model, costs = grid
    summaries, head = compare_policies(model, costs, [("east", "always-east")], 5, 1,
                                       trace_runs=0)
    assert summaries == compare_policies(model, costs, [("east", "always-east")], 5, 1)
    assert [h.shape for h in head] == [(1, 0, 4), (1, 0, 3), (1, 0, 4)]
    summaries, head = compare_policies(model, costs, [], 5, 1, trace_runs=3)
    assert summaries == [] and [h.shape for h in head] == [(0, 3, 4), (0, 3, 3), (0, 3, 4)]


def test_block_memory_stays_within_the_rollout_budget(monkeypatch):
    """A comparison's peak allocation is a small multiple of ROLLOUT_CHUNK floats: the
    (G, N, N) joint of each stage is freed with the stage, never kept for the block."""
    rng = np.random.default_rng(3)
    model = oracle.random_model(rng, n_states=20, n_obs=3, n_controls=3)
    costs = oracle.random_costs(rng, model, 8)
    monkeypatch.setattr(sim, "ROLLOUT_CHUNK", 1 << 16)
    tracemalloc.start()
    try:
        compare_policies(model, costs, [("zero", 0), ("one", 1)], 4000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * sim.ROLLOUT_CHUNK * 8


@pytest.fixture(scope="module")
def experiment_policies(grid):
    """`experiment`'s comparison: the two d=5 policies and always-east."""
    model, costs = grid
    bp = generate_base_points(model.n_states, 5)
    return [("smoother", solve(model, costs, "smoother", bp)),
            ("belief-sum", solve(model, costs, "belief-sum", bp)), ("east", "always-east")]


def test_block_memory_of_an_experiment_block_stays_under_half_the_budget(
        grid, experiment_policies):
    """One block of `experiment`'s comparison (two d=5 policies and always-east, 7,281
    runs) keeps only states and stage costs per row: its peak stays under half of
    ROLLOUT_CHUNK floats, uniforms and per-run metrics included."""
    model, costs = grid
    policies = experiment_policies
    runs = 7281
    assert sim._block_runs(model, costs.horizon, len(policies), runs) == runs  # one block
    tracemalloc.start()
    try:
        compare_policies(model, costs, policies, runs, seed=12345)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * sim.ROLLOUT_CHUNK * 8


def test_the_largest_experiment_block_peaks_within_the_budget(grid, experiment_policies):
    """The most runs `_block_runs` admits in one block of `experiment`'s comparison peak
    within ROLLOUT_CHUNK words, the (P, 4, runs) per-run metrics aside: at T=3 each
    policy has at most 518 histories, so a block fills the budget with runs."""
    model, costs = grid
    policies = experiment_policies
    runs = sim._block_runs(model, costs.horizon, len(policies), 10 ** 6)
    assert 10_000 < runs < 10 ** 6
    tracemalloc.start()
    try:
        compare_policies(model, costs, policies, runs, seed=12345)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - len(policies) * 4 * runs * 8 <= sim.ROLLOUT_CHUNK * 8


def test_every_block_of_a_comparison_reuses_one_workspace(grid, grid_policies, monkeypatch):
    model, costs = grid
    policies = [("smoother", grid_policies["smoother"]), ("east", "always-east")]
    monkeypatch.setattr(sim, "ROLLOUT_CHUNK", _budget(40, len(policies), model, costs))
    draws, states, advance, uniforms = [], [], sim._advance, sim._uniforms

    def spy(*args):
        batch = advance(*args)
        states.append(batch.states)
        return batch

    monkeypatch.setattr(sim, "_uniforms",
                        lambda *args: draws.append(uniforms(*args)) or draws[-1])
    monkeypatch.setattr(sim, "_advance", spy)
    compare_policies(model, costs, policies, 100, seed=4)
    assert [len(d) for d in draws] == [40, 40, 20]
    assert all(np.shares_memory(states[0], other) for other in states[1:])
    assert all(np.shares_memory(draws[0], other) for other in draws[1:])
    assert not np.shares_memory(draws[0], states[0])


def test_a_rollout_batch_keeps_its_memory_through_later_simulations(grid, grid_policies):
    model, costs = grid
    rng = np.random.default_rng(34)
    other = oracle.random_model(rng, n_states=4, n_obs=3, n_controls=2)
    other_costs = oracle.random_costs(rng, other, 9)
    batch = rollouts(other, other_costs, 1, 6, 50)
    kept = [getattr(batch, field).copy() for field in ("states", "stage_costs", "total_cost")]
    assert (kept[1] > 0).all()  # nonzero costs, so an overwrite would show
    later = rollouts(other, other_costs, 0, 7, 50)
    compare_policies(other, other_costs, [("zero", 0), ("one", 1)], 120, seed=8)
    compare_policies(model, costs, [("east", "always-east")], 300, seed=9)
    assert not np.shares_memory(batch.states, later.states)
    for field, want in zip(("states", "stage_costs", "total_cost"), kept):
        np.testing.assert_array_equal(getattr(batch, field), want, err_msg=field)


def test_a_rollout_batch_owns_its_states_and_stage_costs(grid):
    # the block's workspace also holds the draws and the Philox scratch: a batch kept
    # for long would keep all of it alive through views
    model, costs = grid
    costs = make_cost_model(6, costs.stage_cost[0], costs.terminal_cost)
    batch = rollouts(model, costs, "always-east", 6, 3000)
    owned = 0
    for field in ("states", "stage_costs"):
        array = owner = getattr(batch, field)
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == array.nbytes, field
        owned += owner.nbytes
    assert owned == 3000 * (7 + 6) * 8
    assert not np.shares_memory(batch.states, batch.stage_costs)
    one = rollout(model, costs, "always-east", 6, run_index=2999)
    assert batch.states[-1].tolist() == one.states.tolist()
    assert batch.total_cost[-1] == one.total_cost


_ROW_SUM_TERMS = [*range(41), 63, 64, 65, 127, 128, 129, 130, 255, 256, 257, 513]


@pytest.mark.parametrize("terms", _ROW_SUM_TERMS)
def test_row_sums_equal_numpys_sums_of_the_run_major_rows(terms):
    rng = np.random.default_rng(terms)
    rows = (rng.choice([-1.0, 1.0], size=(200, terms))
            * 10.0 ** rng.uniform(-8.0, 8.0, size=(200, terms)))
    rows[rng.random(rows.shape) < 0.1] = 0.0
    rows[rng.random(rows.shape) < 0.1] = -0.0
    rows[:3] = -0.0  # all negative zeros: numpy's sum is +0.0
    rows[3, ::2] = 0.0
    want = rows.sum(axis=-1)
    stage_major = np.ascontiguousarray(rows.T)
    got = sim._row_sums(stage_major)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    running = np.zeros(len(rows))
    for term in stage_major:
        running += term
    # from 8 terms on numpy's order is not a running sum, and these rows show it
    assert np.array_equal(running.view(np.uint64), want.view(np.uint64)) == (terms < 8)


def _random_value_policy(rng, model, costs) -> ValuePolicy:
    """Five random vectors with random controls at each stage, fingerprinted for (model, costs)."""
    stages = tuple(StageSet(values=rng.normal(size=(5, model.n_states)),
                            actions=rng.integers(0, model.n_controls, size=5))
                   for _ in range(costs.horizon))
    terminal = StageSet(values=np.zeros((1, model.n_states)), actions=None)
    return ValuePolicy(stages=stages + (terminal,), objective="smoother", density=1,
                       epsilon_interior=1e-4, log_base="natural",
                       model_fingerprint=fingerprint(model, costs))


@pytest.mark.parametrize("log_base", ["natural", "base-2"])
@pytest.mark.parametrize("n_states", [None, 3, 9], ids=["grid", "random-3", "random-9"])
def test_one_pass_equals_per_policy_passes(grid, grid_policies, monkeypatch, n_states, log_base):
    if n_states is None:
        model, costs = grid
        values = [grid_policies["smoother"], grid_policies["belief-sum"]]
    else:
        rng = np.random.default_rng(n_states)
        model = oracle.random_model(rng, n_states=n_states, n_obs=3, n_controls=3,
                                    zero_fraction=0.4)
        assert (model.transition == 0.0).any()
        costs = oracle.random_costs(rng, model, 3)
        values = [_random_value_policy(rng, model, costs) for _ in range(2)]
    policies = [("v0", values[0]), ("v1", values[1]), ("east", "always-east"),
                ("fixed", "fixed:1"), ("callable", lambda b, k: int(np.argmax(b) + k) % 3)]
    runs, config = 1000, EntropyConfig(log_base)
    # the joint pass advances four blocks; each policy alone fits in one
    monkeypatch.setattr(sim, "ROLLOUT_CHUNK", _budget(300, len(policies), model, costs))
    joint = compare_policies(model, costs, policies, runs, 23, config)
    assert [name for name, _ in joint] == [name for name, _ in policies]
    for (_, policy_like), (_, summary) in zip(policies, joint):
        assert summary == monte_carlo(model, costs, policy_like, runs, 23, config)


def test_compare_policies_of_no_policies_draws_nothing(grid, monkeypatch):
    model, costs = grid
    monkeypatch.setattr(sim, "_uniforms", lambda *args: pytest.fail("drew uniforms"))
    assert compare_policies(model, costs, [], 100, seed=1) == []
    with pytest.raises(ValueError, match="runs must be >= 1, got 0$"):
        compare_policies(model, costs, [], 0, seed=1)


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


def test_each_pass_checks_each_policy_once_through_check_policy(grid, grid_policies,
                                                               grid_blocks, monkeypatch):
    # every pass goes through the module's own check_policy, which the benchmark's tracer
    # wraps, once per policy, and hashes at most once, not at all given the fingerprint
    model, costs = grid
    checked, hashed, check = [], [], sim.check_policy
    monkeypatch.setattr(sim, "check_policy",
                        lambda *a, **k: checked.append(id(a[2])) or check(*a, **k))
    monkeypatch.setattr(sim, "fingerprint", lambda *a: hashed.append(1) or fingerprint(*a))
    policies = [("a", grid_policies["smoother"]), ("b", grid_policies["belief-sum"]),
                ("c", "always-east"), ("d", 1), ("e", lambda belief, stage: 0)]
    passes = [lambda **kw: compare_policies(model, costs, policies, BLOCK_RUNS + 3, 1, **kw),
              lambda **kw: sim.compare_policies_exactly(model, costs, policies, **kw)]
    for evaluate in passes:
        for given, hashes in (({}, [1]), ({"model_fingerprint": fingerprint(model, costs)}, [])):
            checked.clear()
            hashed.clear()
            evaluate(**given)
            assert checked == [id(policy) for _, policy in policies]
            assert hashed == hashes
    for policy, hashes in ((grid_policies["smoother"], [1]), ("always-east", [])):
        checked.clear()
        hashed.clear()
        rollouts(model, costs, policy, 1, 5)
        assert (checked, hashed) == ([id(policy)], hashes)
        checked.clear()
        rollout(model, costs, policy, 1)
        assert checked == [id(policy)]


def test_fingerprint_runs_once_per_comparison(grid, grid_policies, grid_blocks, monkeypatch):
    model, costs = grid
    calls = []
    monkeypatch.setattr(sim, "fingerprint", lambda *a: calls.append(1) or fingerprint(*a))
    monte_carlo(model, costs, grid_policies["smoother"], BLOCK_RUNS + 3, seed=1)
    assert len(calls) == 1
    calls.clear()
    compare_policies(model, costs, [("a", grid_policies["smoother"]),
                                    ("b", grid_policies["belief-sum"]),
                                    ("c", "always-east")], BLOCK_RUNS + 3, seed=1)
    assert len(calls) == 1
    calls.clear()
    compare_policies(model, costs, [("c", "always-east"), ("d", 1)], 10, seed=1)
    assert calls == []
    # a caller that holds the fingerprint passes it, and nothing is hashed
    compare_policies(model, costs, [("a", grid_policies["smoother"])], 10, seed=1,
                     model_fingerprint=fingerprint(model, costs))
    assert calls == []
    # a mismatch found against the shared fingerprint reads as check_policy's
    other = make_cost_model(3, np.zeros((4, 3)), np.zeros(4))
    with pytest.raises(PolicyModelMismatch) as want:
        check_policy(model, other, grid_policies["belief-sum"])
    with pytest.raises(PolicyModelMismatch) as got:
        compare_policies(model, other, [("a", grid_policies["smoother"]),
                                        ("b", grid_policies["belief-sum"])], 10, seed=1)
    assert str(got.value) == str(want.value)


# ------------------------------------------------------------------ draws --

@pytest.mark.parametrize("seed", [-1, 0, 2**63, 2**64 - 1])
@pytest.mark.parametrize("start", [0, -3, 2**64 - 2])
@pytest.mark.parametrize("horizon", [0, 1, 2, 6, 8])
def test_uniforms_equal_numpy_philox_bit_for_bit(seed, start, horizon):
    # 2 + 2T words fill the last counter block of four fully at T = 1, partly at even T
    runs = np.uint64(start & _MASK64) + np.arange(5, dtype=np.uint64)  # wraps past 2^64
    got = sim._uniforms(seed, start, start + len(runs), horizon,
                        sim._workspace(horizon, 0, len(runs)))
    want = np.stack([oracle.run_uniforms(seed, int(run), 2 + 2 * horizon) for run in runs])
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sample_equals_searchsorted_clipped_to_the_last_outcome():
    columns = [
        np.cumsum(np.full(10, 0.1)),                             # last entry rounds below 1
        np.array([0.5, 0.5, 0.5, 0.75, 0.75, 0.75, 0.75, 0.9, 1.0, 1.0]),  # flat segments
        np.cumsum([0.0, 0.0, 0.0, 0.25, 0.25, 0.0, 0.0, 0.5, 0.0, 0.0]),  # leading zeros
    ]
    assert columns[0][-1] < 1.0
    entries = np.concatenate(columns)
    draws = np.concatenate([[0.0, 1.0 - 2.0 ** -53], entries, np.nextafter(entries, 0.0),
                            np.nextafter(entries, 1.0), np.random.default_rng(3).random(200)])
    table = np.stack(columns, axis=1)  # (outcome, code)
    for code, cdf in enumerate(columns):
        got = sim._sample(table, np.full(len(draws), code), draws)
        want = np.minimum(np.searchsorted(cdf, draws, side="right"), len(cdf) - 1)
        np.testing.assert_array_equal(got, want)
    mixed = np.arange(len(draws)) % len(columns)
    want = [min(np.searchsorted(columns[c], d, side="right"), 9) for c, d in zip(mixed, draws)]
    np.testing.assert_array_equal(sim._sample(table, mixed, draws), want)


def test_sample_compares_each_runs_draw_against_every_policys_row():
    rng = np.random.default_rng(5)
    table = np.cumsum(rng.dirichlet(np.ones(4), size=6).T, axis=0)  # (outcome, code)
    code = rng.integers(0, 6, size=(3, 50))  # (policy, run)
    draws = rng.random(50)
    got = sim._sample(table, code, draws)
    assert got.shape == code.shape
    for p in range(3):
        np.testing.assert_array_equal(got[p], sim._sample(table, code[p], draws))


@pytest.mark.parametrize("path, top", [(path, top) for path in ("table", "sort")
                                       for top in (200, 60_000, 2**16, 2**20, 2**40)
                                       if (path, top) != ("table", 2**40)])
def test_regroup_equals_np_unique(monkeypatch, path, top):
    rng = np.random.default_rng(top)
    code = np.concatenate([rng.integers(0, top, 3000), rng.integers(0, 40, 3000), [top]])
    code = rng.permutation(code).astype(np.int64)
    # TABLE_SPAN 0 sorts every input; top + 1 code values per row fit any input in a table
    monkeypatch.setattr(sim, "TABLE_SPAN", top + 1 if path == "table" else 0)
    values, inverse = sim._regroup(code, top + 1)
    want = np.unique(code, return_inverse=True)
    np.testing.assert_array_equal(values, want[0])
    np.testing.assert_array_equal(inverse, want[1])
    assert values.dtype == inverse.dtype == np.intp
    np.testing.assert_array_equal(values[inverse], code)  # any row of a group carries its code


@pytest.mark.parametrize("per_row", [sim.TABLE_SPAN, sim.TABLE_SPAN + 1, 2**40])
def test_regroup_memory_stays_within_a_few_per_row_arrays(per_row):
    # the block's per-row arrays hold at least 8 int64 per row (T >= 1): the regroup of
    # any code span stays below them, by a table up to TABLE_SPAN values per row and a
    # sort above
    rows = 10_000
    code = np.random.default_rng(per_row).integers(0, per_row * rows, rows)
    tracemalloc.start()
    try:
        values, inverse = sim._regroup(code, per_row * rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(values[inverse], code)
    assert peak <= 8 * code.nbytes


def _same_classes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether equal rows of `a` and equal rows of `b` split the row indices alike."""
    _, ia = np.unique(a, axis=0, return_inverse=True)
    _, ib = np.unique(b, axis=0, return_inverse=True)
    pairs = np.unique(np.stack([ia.ravel(), ib.ravel()], axis=1), axis=0)
    return len(pairs) == ia.max() + 1 == ib.max() + 1


@pytest.mark.parametrize("horizon", [0, 3])
def test_a_group_is_a_history(grid, grid_policies, horizon):
    # rows share a group at stage k exactly when they share their policy, y_0..y_k and
    # u_0..u_{k-1}; each row's paths are the ones its own rollout sees
    rng = np.random.default_rng(26 + horizon)
    model, costs = grid
    costs = make_cost_model(horizon, costs.stage_cost[0], costs.terminal_cost)
    cases = [(model, costs, ["always-east", lambda b, k: int(np.argmax(b) + k) % 3]
              + ([grid_policies["smoother"], grid_policies["belief-sum"]] if horizon else []))]
    for n_states, n_obs, n_controls, zeros in ((3, 3, 2, 0.0), (5, 2, 3, 0.4)):
        other = oracle.random_model(rng, n_states, n_obs, n_controls, zero_fraction=zeros)
        other_costs = oracle.random_costs(rng, other, horizon)
        cases.append((other, other_costs,
                      [1, oracle.random_rule(rng, other, max(horizon, 1)),
                       _random_value_policy(rng, other, other_costs)]))
    runs, start, seed = 60, 4, 19
    for case_model, case_costs, policies in cases:
        rules = [sim._rows_rule(case_model, policy) for policy in policies]
        batch = sim._advance(case_model, case_costs, rules, seed, start, start + runs,
                             DEFAULT_CONFIG, sim._workspace(horizon, len(rules), runs))
        assert len(batch) == len(policies) * runs
        policy = np.repeat(np.arange(len(policies)), runs)[:, None]
        groups, observations, controls = batch.groups, batch.observations, batch.controls
        assert groups.shape == observations.shape == (len(batch), horizon + 1)
        assert controls.shape == (len(batch), horizon)
        np.testing.assert_array_equal(groups[:, -1], batch.final_group)
        for k in range(horizon + 1):
            history = np.hstack([policy, observations[:, :k + 1], controls[:, :k]])
            assert _same_classes(history, groups[:, k:k + 1]), k
        for row in range(0, len(batch), 7):
            p, r = divmod(row, runs)
            want = rollout(case_model, case_costs, policies[p], seed, run_index=start + r)
            got = batch.record(row)
            for field in ("states", "observations", "controls", "beliefs", "stage_costs",
                          "belief_entropies"):
                assert getattr(got, field).tolist() == getattr(want, field).tolist(), field
            assert (got.run_index, got.terminal_cost, got.smoother_entropy) == \
                (want.run_index, want.terminal_cost, want.smoother_entropy)


def test_batch_beliefs_gather_the_records_beliefs(grid, grid_policies):
    model, costs = grid
    for policy in (grid_policies["belief-sum"], "always-east"):
        batch = rollouts(model, costs, policy, 5, 40, start=3)
        beliefs = batch.beliefs
        assert beliefs.shape == (40, costs.horizon + 1, model.n_states)
        for row in (0, 17, 39):
            assert beliefs[row].tobytes() == batch.record(row).beliefs.tobytes()
            one = rollout(model, costs, policy, 5, run_index=3 + row)
            assert beliefs[row].tobytes() == one.beliefs.tobytes()


@pytest.mark.parametrize("runs", [1, BLOCK_RUNS + 3])
def test_compare_policies_matches_reference_rollouts(monkeypatch, runs):
    rng = np.random.default_rng(runs)
    model = oracle.random_model(rng, n_states=3, n_obs=2, n_controls=2, zero_fraction=0.3)
    costs = oracle.random_costs(rng, model, 3)
    # blocks of BLOCK_RUNS runs per policy: the last block of BLOCK_RUNS + 3 runs is partial
    monkeypatch.setattr(sim, "ROLLOUT_CHUNK", _budget(BLOCK_RUNS, 2, model, costs))
    rule = oracle.random_rule(rng, model, 3)
    got = compare_policies(model, costs, [("rule", rule), ("fixed", 1)], runs, seed=-1)
    assert [name for name, _ in got] == ["rule", "fixed"]
    cache = {}
    for (_, summary), reference_rule in zip(got, (rule, lambda belief, stage: 1)):
        want = [oracle.reference_rollout(model, costs, reference_rule, -1, run,
                                         smoother_cache=cache)
                for run in range(runs)]
        terminal = np.array([w["terminal_cost"] for w in want])
        tbe = np.array([w["belief_entropies"].sum() for w in want])
        smoother = np.array([w["smoother_entropy"] for w in want])
        total = smoother + np.array([w["stage_costs"].sum() for w in want]) + terminal
        assert summary.runs == runs
        for field, se_field, values in (
                ("terminal_cost", "terminal_cost_se", terminal),
                ("total_belief_entropy", "tbe_se", tbe),
                ("smoother_entropy", "se_se", smoother),
                ("total_cost", "tc_se", total)):
            se = values.std(ddof=1) / np.sqrt(runs) if runs > 1 else 0.0
            np.testing.assert_allclose(getattr(summary, field), values.mean(), rtol=0,
                                       atol=1e-12, err_msg=field)
            np.testing.assert_allclose(getattr(summary, se_field), se, rtol=0, atol=1e-12,
                                       err_msg=se_field)


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
