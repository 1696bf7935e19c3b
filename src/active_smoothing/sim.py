"""Monte Carlo rollout harness and exact policy evaluation by enumeration.

Rollouts draw their randomness from a counter-based generator keyed by
(seed, run index), so run i sees the same uniform stream regardless of the
policy under test: comparisons across policies use common random numbers.
All runs of a block advance together, one stage at a time, as arrays with the
run on the leading axis (states and observations (R, T+1), beliefs (R, N),
backward kernels (R, N, N)); a single rollout is a block of one. Every row is
computed with the operations of a single run, so results do not depend on the
block it was simulated in.
Exact evaluation enumerates all observation sequences with their probabilities
under a deterministic policy and, per sequence, the full joint distribution of
the hidden trajectory; it refuses above a term-count guard.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import initial_update, observation_marginal, step
from .costs import (
    DEFAULT_CONFIG,
    EntropyConfig,
    belief_entropy,
    pointwise_smoother_entropy,
)
from .model import ControlledHMM, CostModel, fingerprint
from .solver import ValuePolicy, best_action

SIZE_GUARD = 10_000_000
ROLLOUT_CHUNK = 1024
_MASK64 = (1 << 64) - 1


class PolicyModelMismatch(ValueError):
    """Policy was solved for a different model/cost file than the one supplied."""


@dataclass(frozen=True)
class RolloutRecord:
    seed: int
    run_index: int
    states: np.ndarray           # (T+1,) sampled hidden states
    observations: np.ndarray     # (T+1,) y_0..y_T
    controls: np.ndarray         # (T,)
    beliefs: np.ndarray          # (T+1, N) filtered beliefs after each update
    stage_costs: np.ndarray      # (T,) realised c_k(x_k, u_k)
    terminal_cost: float         # c_T(x_T)
    smoother_entropy: float      # entropy of the trajectory given this data
    belief_entropies: np.ndarray  # (T+1,)

    @property
    def total_cost(self) -> float:
        return self.smoother_entropy + float(self.stage_costs.sum()) + self.terminal_cost


@dataclass(frozen=True)
class RolloutBatch:
    """Runs start, start + 1, ... of one seed; row r holds run start + r."""
    seed: int
    start: int
    states: np.ndarray            # (R, T+1)
    observations: np.ndarray      # (R, T+1)
    controls: np.ndarray          # (R, T)
    beliefs: np.ndarray           # (R, T+1, N)
    stage_costs: np.ndarray       # (R, T)
    terminal_cost: np.ndarray     # (R,)
    smoother_entropy: np.ndarray  # (R,)
    belief_entropies: np.ndarray  # (R, T+1)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def total_cost(self) -> np.ndarray:
        return self.smoother_entropy + self.stage_costs.sum(axis=1) + self.terminal_cost

    def record(self, row: int) -> RolloutRecord:
        return RolloutRecord(
            seed=self.seed,
            run_index=self.start + row,
            states=self.states[row],
            observations=self.observations[row],
            controls=self.controls[row],
            beliefs=self.beliefs[row],
            stage_costs=self.stage_costs[row],
            terminal_cost=float(self.terminal_cost[row]),
            smoother_entropy=float(self.smoother_entropy[row]),
            belief_entropies=self.belief_entropies[row],
        )


@dataclass(frozen=True)
class MetricsSummary:
    runs: int                    # 0 marks exact evaluation
    terminal_cost: float
    terminal_cost_se: float
    total_belief_entropy: float  # sum over stages 0..T of filtered-belief entropies
    tbe_se: float
    smoother_entropy: float
    se_se: float
    total_cost: float
    tc_se: float
    log_base: str
    seed: int


def as_decision_rule(policy_like, n_controls: int):
    """Normalise a policy-like input to a callable (belief, stage) -> control."""
    if isinstance(policy_like, ValuePolicy):
        return lambda belief, stage: best_action(policy_like, belief, stage)
    if isinstance(policy_like, (int, np.integer)):
        u = int(policy_like)
        if not 0 <= u < n_controls:
            raise ValueError(f"fixed control {u} out of range [0, {n_controls})")
        return lambda belief, stage: u
    if isinstance(policy_like, str):
        if policy_like == "always-east":
            return as_decision_rule(2, n_controls)
        if policy_like.startswith("fixed:"):
            return as_decision_rule(int(policy_like.split(":", 1)[1]), n_controls)
        raise ValueError(f"unknown builtin policy {policy_like!r}")
    if callable(policy_like):
        return policy_like
    raise TypeError(f"cannot interpret {type(policy_like).__name__} as a policy")


def _rows_rule(policy_like, n_controls: int):
    """The decision rule for a (R, N) belief array: one control per row.

    Value policies and fixed controls decide every row at once; a user
    callable (belief, stage) -> control is called once per row.
    """
    rule = as_decision_rule(policy_like, n_controls)
    if rule is not policy_like:
        return rule
    return lambda beliefs, stage: [int(rule(belief, stage)) for belief in beliefs]


def check_policy(model: ControlledHMM, cost_model: CostModel, policy_like) -> None:
    if isinstance(policy_like, ValuePolicy):
        expected = fingerprint(model, cost_model)
        if policy_like.model_fingerprint != expected:
            raise PolicyModelMismatch(
                f"policy fingerprint {policy_like.model_fingerprint[:12]}... does not match "
                f"the supplied model/costs ({expected[:12]}...)"
            )
        if policy_like.horizon != cost_model.horizon:
            raise PolicyModelMismatch(
                f"policy has horizon {policy_like.horizon}, costs have {cost_model.horizon}"
            )


def _uniforms(seed: int, start: int, stop: int, horizon: int) -> np.ndarray:
    """Row r: the 2 + 2T uniforms of run start + r, from its own Philox key (seed, run)."""
    out = np.empty((stop - start, 2 + 2 * horizon))
    for row, run in enumerate(range(start, stop)):
        key = np.array([seed & _MASK64, run & _MASK64], dtype=np.uint64)
        out[row] = np.random.Generator(np.random.Philox(key=key)).random(out.shape[1])
    return out


def _sample(cumulative: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per row, searchsorted(cumulative, u, side="right") clipped to the last index."""
    index = (cumulative <= uniforms[:, None]).sum(axis=1)
    return np.minimum(index, cumulative.shape[1] - 1)


def _advance(model: ControlledHMM, cost_model: CostModel, decide, seed: int, start: int,
             uniforms: np.ndarray, config: EntropyConfig) -> RolloutBatch:
    """Simulate one block of runs in lockstep from their (R, 2 + 2T) uniforms."""
    runs, t = len(uniforms), cost_model.horizon
    states = np.empty((runs, t + 1), dtype=int)
    observations = np.empty((runs, t + 1), dtype=int)
    controls = np.empty((runs, t), dtype=int)
    beliefs = np.empty((runs, t + 1, model.n_states))
    stage_costs = np.empty((runs, t))
    transition_cdf = np.cumsum(model.transition, axis=1)      # [u, :, x] over next states
    observation_cdf = np.cumsum(model.observation, axis=2)    # [u, x, :] over observations

    states[:, 0] = _sample(np.broadcast_to(np.cumsum(model.prior), (runs, model.n_states)),
                           uniforms[:, 0])
    observations[:, 0] = _sample(np.cumsum(model.initial_observation, axis=1)[states[:, 0]],
                                 uniforms[:, 1])
    beliefs[:, 0] = initial_update(model, observations[:, 0])
    for k in range(t):
        controls[:, k] = decide(beliefs[:, k], k)
        u, x = controls[:, k], states[:, k]
        stage_costs[:, k] = cost_model.stage_cost[k][x, u]
        states[:, k + 1] = _sample(transition_cdf[u, :, x], uniforms[:, 2 + 2 * k])
        observations[:, k + 1] = _sample(observation_cdf[u, states[:, k + 1]],
                                         uniforms[:, 3 + 2 * k])
        beliefs[:, k + 1] = step(model, beliefs[:, k], u, observations[:, k + 1], stage=k)

    return RolloutBatch(
        seed=seed,
        start=start,
        states=states,
        observations=observations,
        controls=controls,
        beliefs=beliefs,
        stage_costs=stage_costs,
        terminal_cost=cost_model.terminal_cost[states[:, t]],
        smoother_entropy=pointwise_smoother_entropy(model, observations, controls, config),
        belief_entropies=belief_entropy(beliefs, config),
    )


def rollouts(model: ControlledHMM, cost_model: CostModel, policy_like, seed: int, runs: int,
             config: EntropyConfig = DEFAULT_CONFIG, start: int = 0) -> RolloutBatch:
    """Simulate runs start .. start + runs - 1 together; row r equals rollout(run_index=start + r)."""
    check_policy(model, cost_model, policy_like)
    return _advance(model, cost_model, _rows_rule(policy_like, model.n_controls), seed, start,
                    _uniforms(seed, start, start + runs, cost_model.horizon), config)


def rollout(model: ControlledHMM, cost_model: CostModel, policy_like, seed: int,
            config: EntropyConfig = DEFAULT_CONFIG, run_index: int = 0) -> RolloutRecord:
    """Simulate one trajectory; identical (seed, run_index) yields identical records.

    The uniform stream is drawn up front with a fixed layout (two draws for the
    initial state/observation, two per stage), so trajectories are comparable
    across policies under common random numbers. A batch of one.
    """
    return rollouts(model, cost_model, policy_like, seed, 1, config, start=run_index).record(0)


def _summarise(per_run: dict[str, np.ndarray], runs: int, config: EntropyConfig,
               seed: int) -> MetricsSummary:
    def mean_se(x: np.ndarray) -> tuple[float, float]:
        if runs <= 1:
            return float(x.mean()), 0.0
        return float(x.mean()), float(x.std(ddof=1) / np.sqrt(runs))

    terminal, terminal_se = mean_se(per_run["terminal"])
    tbe, tbe_se = mean_se(per_run["tbe"])
    smoother, smoother_se = mean_se(per_run["smoother"])
    total, total_se = mean_se(per_run["total"])
    return MetricsSummary(
        runs=runs,
        terminal_cost=terminal,
        terminal_cost_se=terminal_se,
        total_belief_entropy=tbe,
        tbe_se=tbe_se,
        smoother_entropy=smoother,
        se_se=smoother_se,
        total_cost=total,
        tc_se=total_se,
        log_base=config.log_base,
        seed=seed,
    )


def monte_carlo(model: ControlledHMM, cost_model: CostModel, policy_like, runs: int,
                seed: int, config: EntropyConfig = DEFAULT_CONFIG) -> MetricsSummary:
    """Mean and standard error of each metric over runs 0 .. runs - 1."""
    return compare_policies(model, cost_model, [("", policy_like)], runs, seed, config)[0][1]


def _joint_trajectory_entropy(model: ControlledHMM, observations, controls,
                              config: EntropyConfig) -> float:
    """Entropy of p(x_0..x_T | y_0..y_T, u_0..u_{T-1}) by full enumeration."""
    joint = model.prior * model.initial_observation[:, observations[0]]
    for k, u in enumerate(controls):
        w = model.transition[u].T * model.observation[u][:, observations[k + 1]][None, :]
        joint = joint[..., None] * w
    flat = joint.ravel()
    norm = flat.sum()
    q = flat[flat > 0] / norm
    return float(-(q @ np.log(q))) / config.log_scale


def exact_policy_metrics(model: ControlledHMM, cost_model: CostModel, policy_like,
                         config: EntropyConfig = DEFAULT_CONFIG,
                         seed: int = 0) -> MetricsSummary:
    """Exact expectations by enumerating all observation sequences.

    Refuses when |Y|^(T+1) * |X|^(T+1) exceeds the term guard.
    """
    check_policy(model, cost_model, policy_like)
    t, ny, n = cost_model.horizon, model.n_observations, model.n_states
    terms = (ny ** (t + 1)) * (n ** (t + 1))
    if terms > SIZE_GUARD:
        raise ValueError(
            f"exact evaluation needs {terms} joint terms, over the {SIZE_GUARD} guard"
        )
    rule = as_decision_rule(policy_like, model.n_controls)
    totals = {"terminal": 0.0, "tbe": 0.0, "smoother": 0.0, "stage_c": 0.0}

    def walk(belief: np.ndarray, k: int, prob: float, ys: list[int], us: list[int]) -> None:
        totals["tbe"] += prob * belief_entropy(belief, config)
        if k == t:
            totals["terminal"] += prob * float(belief @ cost_model.terminal_cost)
            totals["smoother"] += prob * _joint_trajectory_entropy(model, ys, us, config)
            return
        u = int(rule(belief, k))
        totals["stage_c"] += prob * float(belief @ cost_model.stage_cost[k][:, u])
        p_next = observation_marginal(model, belief, u)
        for y in range(ny):
            if p_next[y] <= 0.0:
                continue
            walk(step(model, belief, u, y, stage=k), k + 1, prob * float(p_next[y]),
                 ys + [y], us + [u])

    p0 = model.prior @ model.initial_observation
    for y0 in range(ny):
        if p0[y0] <= 0.0:
            continue
        walk(initial_update(model, y0), 0, float(p0[y0]), [y0], [])

    total = totals["smoother"] + totals["stage_c"] + totals["terminal"]
    return MetricsSummary(
        runs=0,
        terminal_cost=totals["terminal"],
        terminal_cost_se=0.0,
        total_belief_entropy=totals["tbe"],
        tbe_se=0.0,
        smoother_entropy=totals["smoother"],
        se_se=0.0,
        total_cost=total,
        tc_se=0.0,
        log_base=config.log_base,
        seed=seed,
    )


def compare_policies(model: ControlledHMM, cost_model: CostModel,
                     policies: list[tuple[str, object]], runs: int, seed: int,
                     config: EntropyConfig = DEFAULT_CONFIG) -> list[tuple[str, MetricsSummary]]:
    """One summary per named policy, on common random numbers across policies.

    Runs advance in blocks of ROLLOUT_CHUNK, which bounds memory for any run
    count; each block's uniforms are drawn once and shared by every policy.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    rules = []
    for _, policy_like in policies:
        check_policy(model, cost_model, policy_like)
        rules.append(_rows_rule(policy_like, model.n_controls))
    per_run = [{key: np.empty(runs) for key in ("terminal", "tbe", "smoother", "total")}
               for _ in policies]
    for start in range(0, runs, ROLLOUT_CHUNK):
        stop = min(start + ROLLOUT_CHUNK, runs)
        uniforms = _uniforms(seed, start, stop, cost_model.horizon)
        for rule, metrics in zip(rules, per_run):
            batch = _advance(model, cost_model, rule, seed, start, uniforms, config)
            metrics["terminal"][start:stop] = batch.terminal_cost
            metrics["tbe"][start:stop] = batch.belief_entropies.sum(axis=1)
            metrics["smoother"][start:stop] = batch.smoother_entropy
            metrics["total"][start:stop] = batch.total_cost
    return [(name, _summarise(metrics, runs, config, seed))
            for (name, _), metrics in zip(policies, per_run)]
