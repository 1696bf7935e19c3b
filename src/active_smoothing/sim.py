"""Monte Carlo rollout harness and exact policy evaluation over the observation tree.

Rollouts draw their randomness from the counter-based Philox4x64-10 keyed by
(seed, run index), so run i sees the same uniform stream regardless of the
policy under test: comparisons across policies use common random numbers. A
block's draws are one array computation over its keys.
All runs of a block advance together, one stage at a time, as arrays with the
run on the leading axis (states and observations (R, T+1), beliefs (R, N),
backward kernels (R, N, N)); a single rollout is a block of one. One filter
pass gives both the beliefs and, from the backward kernels, the realised
smoother entropy. Every row is computed with the operations of a single run,
so results do not depend on the block it was simulated in.
Exact evaluation walks the observation tree breadth-first with the same batched
filter and decision rules, one level of (L, N) beliefs per stage, and charges
the smoother entropy in its belief-state form; it refuses above a size guard.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import initial_update, observation_marginal, predict_joint, step, update
from .costs import (
    DEFAULT_CONFIG,
    EntropyConfig,
    backward_entropy,
    backward_kernel,
    belief_entropy,
    pointwise_smoother_entropy,  # noqa: F401  kept importable: the benchmark's tracer wraps sim.pointwise_smoother_entropy by name
    stage_entropy_cost,
)
from .model import ControlledHMM, CostModel, fingerprint
from .solver import ValuePolicy, best_action

SIZE_GUARD = 10_000_000
ROLLOUT_CHUNK = 1024
_MASK64 = (1 << 64) - 1
_LOW32 = (1 << 32) - 1
_PHILOX_MULT = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


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


def _mulhilo(multiplier: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of multiplier * x, the high word built from 32-bit halves."""
    m_hi, m_lo = multiplier >> 32, multiplier & _LOW32
    x_hi, x_lo = x >> 32, x & _LOW32
    lo_lo, hi_lo, lo_hi = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    carry = ((lo_lo >> 32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)) >> 32
    return x_hi * m_hi + (hi_lo >> 32) + (lo_hi >> 32) + carry, x * multiplier


def _uniforms(seed: int, start: int, stop: int, horizon: int) -> np.ndarray:
    """Row r: the 2 + 2T uniforms of run start + r, numpy's Philox(key=(seed, run)) stream.

    Philox4x64-10 (Salmon et al., SC 2011) is counter-based, so the whole block is one
    array computation: key words (seed, run) mod 2^64, counters 1, 2, ... (numpy
    increments before each block of four words), and each double (word >> 11) * 2^-53.
    All arithmetic is on uint64 arrays, which wrap mod 2^64 without a warning.
    """
    width = 2 + 2 * horizon
    key0 = np.full((stop - start, 1), seed & _MASK64, dtype=np.uint64)
    key1 = (np.uint64(start & _MASK64) + np.arange(stop - start, dtype=np.uint64))[:, None]
    x0 = np.arange(1, (width + 3) // 4 + 1, dtype=np.uint64)[None, :]
    x1 = x2 = x3 = np.zeros_like(x0)
    for rnd in range(10):
        if rnd:
            key0, key1 = key0 + _PHILOX_WEYL[0], key1 + _PHILOX_WEYL[1]
        hi0, lo0 = _mulhilo(_PHILOX_MULT[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_MULT[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ key0, lo1, hi0 ^ x3 ^ key1, lo0
    words = np.stack(np.broadcast_arrays(x0, x1, x2, x3), axis=-1).reshape(len(key0), -1)
    return (words[:, :width] >> 11) * 2.0 ** -53


def _check_runs(runs: int) -> None:
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")


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
    kernels = []
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
        joint = predict_joint(model, beliefs[:, k], u)
        kernels.append(backward_kernel(joint))
        beliefs[:, k + 1] = update(model, joint, u, observations[:, k + 1], stage=k)

    return RolloutBatch(
        seed=seed,
        start=start,
        states=states,
        observations=observations,
        controls=controls,
        beliefs=beliefs,
        stage_costs=stage_costs,
        terminal_cost=cost_model.terminal_cost[states[:, t]],
        smoother_entropy=backward_entropy(beliefs[:, t], kernels, config),
        belief_entropies=belief_entropy(beliefs, config),
    )


def rollouts(model: ControlledHMM, cost_model: CostModel, policy_like, seed: int, runs: int,
             config: EntropyConfig = DEFAULT_CONFIG, start: int = 0) -> RolloutBatch:
    """Simulate runs start .. start + runs - 1 together; row r equals rollout(run_index=start + r)."""
    _check_runs(runs)
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


# bench/tracer.py patches this name for its "sim.exact_leaf" span; nothing calls it
_joint_trajectory_entropy = None


def exact_refusal(model: ControlledHMM, horizon: int) -> str | None:
    """Why exact evaluation refuses, or None: its largest array, the (Y^(T+1), N, N)
    joint predicted beliefs of the last level's children, is over SIZE_GUARD entries."""
    terms = model.n_observations ** (horizon + 1) * model.n_states ** 2
    if terms > SIZE_GUARD:
        return f"exact evaluation needs {terms} joint terms, over the {SIZE_GUARD} guard"
    return None


def exact_policy_metrics(model: ControlledHMM, cost_model: CostModel, policy_like,
                         config: EntropyConfig = DEFAULT_CONFIG,
                         seed: int = 0) -> MetricsSummary:
    """Exact expectations over the observation tree; ValueError if `exact_refusal` refuses.

    Walks the tree breadth-first: level k holds the (L, N) beliefs of its L
    nodes and their (L,) path probabilities, decides every row as Monte Carlo
    does and expands it into its children of positive probability with the
    batched filter. The smoother entropy is charged in its belief-state form,
    E[sum_k H(x_k | x_{k+1}, data to k) + H(b_T)]: prob * stage_entropy_cost
    at each node and prob * H(b_T) at each leaf.
    """
    check_policy(model, cost_model, policy_like)
    refusal = exact_refusal(model, cost_model.horizon)
    if refusal:
        raise ValueError(refusal)
    decide = _rows_rule(policy_like, model.n_controls)

    p0 = model.prior @ model.initial_observation
    observations = np.flatnonzero(p0 > 0.0)
    prob, beliefs = p0[observations], initial_update(model, observations)
    tbe = smoother = stage_c = 0.0
    for k in range(cost_model.horizon):
        tbe += prob @ belief_entropy(beliefs, config)
        controls = np.broadcast_to(np.asarray(decide(beliefs, k), dtype=int), len(beliefs))
        stage_c += prob @ (beliefs * cost_model.stage_cost[k].T[controls]).sum(axis=1)
        smoother += prob @ stage_entropy_cost(model, beliefs, controls, config)
        p_next = observation_marginal(model, beliefs, controls)
        parents, observations = np.nonzero(p_next > 0.0)
        prob = prob[parents] * p_next[parents, observations]
        beliefs = step(model, beliefs[parents], controls[parents], observations, stage=k)
    final_entropy = prob @ belief_entropy(beliefs, config)
    terminal = prob @ (beliefs @ cost_model.terminal_cost)
    smoother += final_entropy

    return MetricsSummary(
        runs=0,
        terminal_cost=float(terminal),
        terminal_cost_se=0.0,
        total_belief_entropy=float(tbe + final_entropy),
        tbe_se=0.0,
        smoother_entropy=float(smoother),
        se_se=0.0,
        total_cost=float(smoother + stage_c + terminal),
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
    _check_runs(runs)
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
