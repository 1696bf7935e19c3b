"""Exact Bayesian filtering on the belief simplex.

The filter is expressed through the joint predicted belief J with entry
(i, j) = p(next = i, current = j | data), from which both the one-step
prediction (row sums) and the measurement update follow. Beliefs are
renormalised after every update to absorb floating-point drift.

Every map takes either one belief of shape (N,) with scalar control and
observation, or a batch of shape (R, N) with one control and observation per
row; a batch row is computed with exactly the operations of a single belief.

`initial_level` and `children` grow the tree of reachable beliefs for the
solver, exact evaluation and the reported bound.
"""
from __future__ import annotations

import numpy as np

from .model import ControlledHMM


class ImpossibleEvidence(ValueError):
    """Observation with zero probability under the current belief."""

    def __init__(self, observation: int, stage: int | None = None):
        self.observation = observation
        self.stage = stage
        where = "initial stage" if stage is None else f"stage {stage}"
        super().__init__(f"observation {observation} has zero probability at {where}")


def _normalise(unnorm: np.ndarray, observation, stage: int | None) -> np.ndarray:
    """unnorm / its sum along the last axis; ImpossibleEvidence if any sum is <= 0."""
    norm = unnorm.sum(axis=-1, keepdims=True)
    if norm.min() <= 0.0:
        impossible = norm[..., 0] <= 0.0
        raise ImpossibleEvidence(int(np.broadcast_to(observation, impossible.shape)[impossible][0]),
                                 stage)
    return unnorm / norm


def check_controls(model: ControlledHMM, control) -> None:
    """IndexError naming the first control, scalar or array, outside [0, U)."""
    n = model.n_controls
    if isinstance(control, np.ndarray) and control.ndim:
        in_range = 0 <= control.min() and control.max() < n
    else:
        in_range = 0 <= control < n
    if not in_range:
        controls = np.ravel(control)
        bad = controls[(controls < 0) | (controls >= n)][0]
        raise IndexError(f"control {int(bad)} out of range [0, {n})")


def predict_joint(model: ControlledHMM, belief: np.ndarray, control) -> np.ndarray:
    """Joint predicted belief J[..., i, j] = A(u)[i, j] * belief[..., j]."""
    check_controls(model, control)
    return model.transition[control] * np.asarray(belief)[..., None, :]


def marginalize_next(joint: np.ndarray) -> np.ndarray:
    """One-step predicted belief: row sums of the joint."""
    return joint.sum(axis=-1)


def update(model: ControlledHMM, joint: np.ndarray, control,
           observation, stage: int | None = None) -> np.ndarray:
    """Measurement update: belief[..., i] proportional to B(u)[i, y] * row sum i."""
    unnorm = model.observation[control, :, observation] * marginalize_next(joint)
    return _normalise(unnorm, observation, stage)


def initial_update(model: ControlledHMM, observation) -> np.ndarray:
    """Condition the prior on the pre-control observation y0."""
    unnorm = model.initial_observation.T[observation] * model.prior
    return _normalise(unnorm, observation, None)


def step(model: ControlledHMM, belief: np.ndarray, control,
         observation, stage: int | None = None) -> np.ndarray:
    """Composed filter map: predict under the control, then update on the observation."""
    return update(model, predict_joint(model, belief, control), control, observation, stage)


def observation_marginal(model: ControlledHMM, belief: np.ndarray, control) -> np.ndarray:
    """Distribution of the next observation: p(y) = sum_i B(u)[i, y] * (A(u) belief)(i)."""
    predicted = marginalize_next(predict_joint(model, belief, control))
    return (model.observation[control] * predicted[..., None]).sum(axis=-2)


def initial_level(model: ControlledHMM) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The belief tree's root: (observations, probabilities, beliefs) of each initial
    observation y0 of positive probability, in increasing order."""
    p0 = model.prior @ model.initial_observation
    observations = np.flatnonzero(p0 > 0.0)
    return observations, p0[observations], initial_update(model, observations)


def children(model: ControlledHMM, joint: np.ndarray, controls: np.ndarray,
             stage: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(parents, observations, probabilities, beliefs) of the children of positive
    probability of L rows, whose (L, N, N) joints were predicted under (L,) controls,
    in (parent, observation) order. p(y | row) has the bits of `observation_marginal`
    and the updated belief those of `step`: both read one likelihood array."""
    likelihood = model.observation[controls] * marginalize_next(joint)[:, :, None]  # (L, N, Y)
    marginal = likelihood.sum(axis=1)
    parents, observations = np.nonzero(marginal > 0.0)
    beliefs = _normalise(likelihood[parents, :, observations], observations, stage)
    return parents, observations, marginal[parents, observations], beliefs
