"""Entropy-based cost functions on beliefs.

Stage cost: the conditional entropy of the current state given the next state
under the joint predicted belief, whose accumulated expectation (plus the
terminal belief entropy) equals the expected entropy of the full hidden
trajectory given all data. Also provides expected costs including the linear
c-terms, the entropy/mutual-information decomposition, the realised
(pointwise) trajectory entropy, and the expected next-step belief entropy used
by the belief-sum baseline. Their tangents come from one kernel,
`pwl.conditional_entropy_tangents`.

All conventions are term-wise: 0 log 0 = 0 and 0 log(0/0) = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief import initial_update, marginalize_next, predict_joint, update
from .model import ControlledHMM, CostModel

BOUNDARY_TOL = 1e-12


class BoundaryBelief(ValueError):
    """Tangent requested at a simplex boundary point; project to the interior first."""


@dataclass(frozen=True)
class EntropyConfig:
    log_base: str = "natural"  # "natural" (nats) or "base-2" (bits)

    def __post_init__(self):
        base = {"e": "natural", "natural": "natural", "2": "base-2", "base-2": "base-2"}.get(
            self.log_base
        )
        if base is None:
            raise ValueError(f"log_base must be one of e/natural/2/base-2, got {self.log_base!r}")
        object.__setattr__(self, "log_base", base)

    @property
    def log_scale(self) -> float:
        """Divisor converting nats to the configured unit."""
        return 1.0 if self.log_base == "natural" else math.log(2.0)


DEFAULT_CONFIG = EntropyConfig()


def _sum_where(terms: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Sum of the terms where pos holds, along the last axis.

    One row is summed over its selected entries only. A batch reproduces that
    sum bit for bit: each row's selected terms move, in order, to the front,
    and rows with the same count of them form one contiguous 2-D sum (zeros
    left in place would shift numpy's pairwise summation lanes).
    """
    if terms.ndim == 1:
        return np.sum(terms[pos])
    rows = terms.reshape(-1, terms.shape[-1])
    pos = pos.reshape(rows.shape)
    rows = np.take_along_axis(rows, np.argsort(~pos, axis=-1, kind="stable"), axis=-1)
    counts = pos.sum(axis=-1)
    out = np.zeros(len(rows))
    for count in np.unique(counts):
        group = np.flatnonzero(counts == count)
        out[group] = rows[np.ix_(group, np.arange(count))].sum(axis=-1)
    return out.reshape(terms.shape[:-1])


def belief_entropy(belief: np.ndarray, config: EntropyConfig = DEFAULT_CONFIG):
    """Entropy of a belief (a float), or of each belief along the last axis (an array)."""
    p = np.asarray(belief, dtype=float)
    pos = p > 0
    entropy = -_sum_where(p * np.log(np.where(pos, p, 1.0)), pos) / config.log_scale
    return float(entropy) if entropy.ndim == 0 else entropy


def stage_entropy_cost(model: ControlledHMM, belief: np.ndarray, control,
                       config: EntropyConfig = DEFAULT_CONFIG):
    """Conditional entropy of the current state given the next state.

    Equals -sum_ij J[i,j] log(J[i,j] / rowsum_i J) for the joint predicted
    belief J; terms with J[i,j] = 0 contribute 0. One belief gives a float; a
    batch (R, N) with one control per row gives one cost per row, each with
    the operations of a single belief.
    """
    joint = predict_joint(model, belief, control)
    pos = joint > 0
    rows = np.where(pos, marginalize_next(joint)[..., None], 1.0)
    terms = joint * np.log(np.where(pos, joint / rows, 1.0))
    flat = joint.shape[:-2] + (-1,)
    val = np.maximum(-_sum_where(terms.reshape(flat), pos.reshape(flat)), 0.0) / config.log_scale
    return float(val) if val.ndim == 0 else val


def expected_stage_cost(model: ControlledHMM, cost_model: CostModel, belief: np.ndarray,
                        control: int, stage: int,
                        config: EntropyConfig = DEFAULT_CONFIG) -> float:
    """g_k: stage entropy cost plus the expected linear stage cost."""
    linear = float(np.asarray(belief) @ cost_model.stage_cost[stage][:, control])
    return stage_entropy_cost(model, belief, control, config) + linear


def expected_terminal_cost(cost_model: CostModel, belief: np.ndarray,
                           config: EntropyConfig = DEFAULT_CONFIG) -> float:
    """g_T: belief entropy plus the expected terminal cost."""
    return belief_entropy(belief, config) + float(np.asarray(belief) @ cost_model.terminal_cost)


def stage_decomposition(model: ControlledHMM, belief: np.ndarray, control: int,
                        config: EntropyConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """(current-state entropy, current/next mutual information) from the joint.

    Their difference equals stage_entropy_cost.
    """
    joint = predict_joint(model, belief, control)
    rows = marginalize_next(joint)
    cols = joint.sum(axis=0)
    outer = np.outer(rows, cols)
    pos = joint > 0
    mi = float(np.sum(joint[pos] * np.log(joint[pos] / outer[pos])))
    return belief_entropy(belief, config), max(mi, 0.0) / config.log_scale


def expected_next_entropy(model: ControlledHMM, belief: np.ndarray, control: int,
                          config: EntropyConfig = DEFAULT_CONFIG) -> float:
    """E over the next observation of the updated belief's entropy."""
    joint = predict_joint(model, belief, control)
    predicted = marginalize_next(joint)
    p_y = predicted @ model.observation[control]
    total = 0.0
    for y in np.flatnonzero(p_y > 0):
        total += p_y[y] * belief_entropy(update(model, joint, control, int(y)), config)
    return float(total)


def pointwise_smoother_entropy(model: ControlledHMM, observations, controls,
                               config: EntropyConfig = DEFAULT_CONFIG):
    """Entropy of the hidden trajectory given one realised data sequence.

    Runs the filter along (y_0..y_T, u_0..u_{T-1}), extracts the backward
    kernel p(x_k | x_{k+1}, data to k) from each joint predicted belief, and
    accumulates H(final belief) plus the smoothed-marginal-weighted backward
    conditional entropies. Equals the entropy of p(x_0..x_T | all data).

    Sequences of shape (T+1,) and (T,) give a float; (R, T+1) and (R, T) give
    one entropy per row, computed with the same operations as one sequence.
    """
    observations = np.asarray(observations, dtype=int)
    controls = np.asarray(controls, dtype=int)
    if observations.shape[-1] != controls.shape[-1] + 1:
        raise ValueError(
            f"need one more observation than controls, got {observations.shape[-1]} "
            f"observations and {controls.shape[-1]} controls"
        )
    pi = initial_update(model, observations[..., 0])
    backward = []
    for k in range(controls.shape[-1]):
        u = controls[..., k]
        joint = predict_joint(model, pi, u)
        rows = marginalize_next(joint)[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            bk = np.where(rows > 0, joint / rows, 0.0)
        backward.append(bk)
        pi = update(model, joint, u, observations[..., k + 1], stage=k)

    total = belief_entropy(pi, config)
    gamma = pi[..., None, :]
    for bk in reversed(backward):
        pos = bk > 0
        row_ent = -np.where(pos, bk * np.where(pos, np.log(np.where(pos, bk, 1.0)), 0.0), 0.0).sum(axis=-1)
        # a stacked @ runs one dot / gemv per row: the same bits as 1-D operands
        total = total + (gamma @ row_ent[..., None])[..., 0, 0] / config.log_scale
        gamma = gamma @ bk
    return float(total) if np.ndim(total) == 0 else total
