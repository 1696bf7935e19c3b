"""Entropy-based cost functions on beliefs.

Stage cost: the conditional entropy of the current state given the next state
under the joint predicted belief, whose accumulated expectation (plus the
terminal belief entropy) equals the expected entropy of the full hidden
trajectory given all data. Also provides the entropy/mutual-information
decomposition, the realised (pointwise) trajectory entropy carried forward
with the filter, and the expected next-step belief entropy used by the
belief-sum baseline. Both entropy costs the solver plans with are
conditional entropies H(X | Z) of a joint linear in the belief: their values
share one kernel, `_conditional_entropy`, and their tangents another,
`pwl.conditional_entropy_tangents`.

All conventions are term-wise: 0 log 0 = 0 and 0 log(0/0) = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief import initial_update, marginalize_next, predict_joint, update
from .model import ControlledHMM

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


def _conditional_entropy(joint: np.ndarray, config: EntropyConfig):
    """H(X | Z) of the joint q[..., z, x] over its last two axes; terms with q = 0 add 0.

    Each leading index sums its whole (z, x) block as one row, so a batch row
    is computed with exactly the operations of a single joint. A single joint
    gives a float.
    """
    pos = joint > 0
    marginal = np.where(pos, joint.sum(axis=-1, keepdims=True), 1.0)
    terms = joint * np.log(np.where(pos, joint / marginal, 1.0))
    total = terms.reshape(joint.shape[:-2] + (-1,)).sum(axis=-1)
    val = np.maximum(-total, 0.0) / config.log_scale
    return float(val) if val.ndim == 0 else val


def belief_entropy(belief: np.ndarray, config: EntropyConfig = DEFAULT_CONFIG):
    """Entropy of a belief (a float), or of each belief along the last axis (an array)."""
    p = np.asarray(belief, dtype=float)
    entropy = -np.sum(p * np.log(np.where(p > 0, p, 1.0)), axis=-1) / config.log_scale
    return float(entropy) if entropy.ndim == 0 else entropy


def stage_entropy_cost(model: ControlledHMM, belief: np.ndarray, control,
                       config: EntropyConfig = DEFAULT_CONFIG):
    """Conditional entropy of the current state given the next state.

    Equals -sum_ij J[i,j] log(J[i,j] / rowsum_i J) for the joint predicted
    belief J; terms with J[i,j] = 0 contribute 0. One belief gives a float; a
    batch (R, N) with one control per row gives one cost per row.
    """
    return _conditional_entropy(predict_joint(model, belief, control), config)


def stage_decomposition(model: ControlledHMM, belief: np.ndarray, control: int,
                        config: EntropyConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """(current-state entropy, current/next mutual information) from the joint.

    Their difference equals stage_entropy_cost. `demos/01` teaches the per-stage
    decomposition with it.
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
    """E over the next observation of the updated belief's entropy: H(x_{k+1} | y_{k+1})."""
    predicted = marginalize_next(predict_joint(model, belief, control))
    joint = predicted[..., :, None] * model.observation[control]  # q[x', y]
    return _conditional_entropy(np.swapaxes(joint, -1, -2), config)


def past_entropy(joint: np.ndarray, past: np.ndarray) -> np.ndarray:
    """Entropy in nats of the past given each next state i: sum_j K[i, j] (past[j] -
    log K[i, j]), where K = p(x_k | x_{k+1}, data to k) is the joint's rows over their
    sums (a row of zero mass stays zero) and past (zeros at stage 0) is this map's
    previous output."""
    rows = marginalize_next(joint)[..., None]
    kernel = joint / np.where(rows > 0, rows, 1.0)
    # kernel >= 0, so the log argument 1 at kernel = 0 makes that term an exact 0;
    # the terms are formed in one buffer, so no further (G, N, N) temporaries
    terms = np.where(kernel > 0, kernel, 1.0)
    np.log(terms, out=terms)
    terms *= kernel
    row_ent = -terms.sum(axis=-1)
    # a stacked @ runs one dot / gemv per row: the same bits as 1-D operands
    return (kernel @ past[..., None])[..., 0] + row_ent


def trajectory_entropy(final_belief: np.ndarray, past: np.ndarray, config: EntropyConfig):
    """H(final belief) + final belief . past: the entropy of the whole trajectory."""
    total = belief_entropy(final_belief, config) + (
        final_belief[..., None, :] @ past[..., None])[..., 0, 0] / config.log_scale
    return float(total) if np.ndim(total) == 0 else total


def pointwise_smoother_entropy(model: ControlledHMM, observations, controls,
                               config: EntropyConfig = DEFAULT_CONFIG):
    """Entropy of the hidden trajectory given one realised data sequence.

    Runs the filter along (y_0..y_T, u_0..u_{T-1}), advancing `past_entropy`
    with each joint predicted belief, and closes it with the final belief.
    Equals the entropy of p(x_0..x_T | all data). `demos/01` computes a
    record's trajectory entropy with it, and it is the per-sequence reference
    the lockstep Monte Carlo engine is tested against.

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
    past = np.zeros_like(pi)
    for k in range(controls.shape[-1]):
        u = controls[..., k]
        joint = predict_joint(model, pi, u)
        past = past_entropy(joint, past)
        pi = update(model, joint, u, observations[..., k + 1], stage=k)
    return trajectory_entropy(pi, past, config)
