"""Piecewise-linear upper bounds of concave belief costs.

A concave cost g on the simplex is bounded above by the minimum of its tangent
hyperplanes at a finite set of base points; each tangent is stored as a length-N
alpha vector whose inner product with a belief evaluates the plane. Linear cost
terms enter the alpha vectors exactly, so only the entropy part carries
approximation error.

Every entropy cost here is a conditional entropy H(X | Z) of a joint that is
linear in the belief, q(x, z) = sum_m weights[x, z, m] pi_m. Such a cost is
concave and homogeneous of degree 1, so by Euler's theorem its tangent alpha at
a base point is its gradient, and one kernel serves every cost.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .costs import BOUNDARY_TOL, DEFAULT_CONFIG, BoundaryBelief, EntropyConfig
from .model import ControlledHMM, CostModel

MAX_LATTICE = 2_000_000


@dataclass(frozen=True)
class BasePointSet:
    points: np.ndarray        # (P, N), strictly interior beliefs
    density: int              # lattice points per coordinate used to generate them
    epsilon_interior: float

    def __len__(self) -> int:
        return len(self.points)


def generate_base_points(n_states: int, density: int,
                         epsilon_interior: float = 1e-4) -> BasePointSet:
    """Simplex lattice with `density` coordinate levels, projected to the interior.

    Coordinates take values {0, 1/(density-1), ..., 1}; points not summing to 1
    are discarded. density=1 yields the single barycentre. Each point is then
    mixed with the uniform belief: point <- (1 - N eps) point + eps.
    """
    if density < 1:
        raise ValueError(f"density must be >= 1, got {density}")
    if not 0.0 < epsilon_interior < 1.0 / (2 * n_states):
        raise ValueError(
            f"epsilon_interior must lie in (0, 1/(2N)) = (0, {1.0 / (2 * n_states)}), "
            f"got {epsilon_interior}"
        )
    if density == 1:
        points = np.full((1, n_states), 1.0 / n_states)
    else:
        if density ** n_states > MAX_LATTICE:
            raise ValueError(
                f"lattice of {density}^{n_states} candidate points is too large"
            )
        rows = [
            np.array(combo, dtype=float) / (density - 1)
            for combo in itertools.product(range(density), repeat=n_states)
            if sum(combo) == density - 1
        ]
        points = np.array(rows)
    points = (1.0 - n_states * epsilon_interior) * points + epsilon_interior

    order = np.lexsort(points.T[::-1])
    sorted_pts = points[order]
    keep = np.ones(len(points), dtype=bool)
    if len(points) > 1:
        keep[1:] = np.abs(np.diff(sorted_pts, axis=0)).max(axis=1) > 1e-12
    points = points[np.sort(order[keep])]
    points.setflags(write=False)
    return BasePointSet(points=points, density=density, epsilon_interior=epsilon_interior)


def conditional_entropy_tangents(weights: np.ndarray, points: np.ndarray,
                                 config: EntropyConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Tangent alphas of H(X | Z) at each base point, one row per point.

    The joint is q_p(x, z) = sum_m weights[x, z, m] points[p, m], and
    alpha[p, m] = -sum_{x,z} weights[x, z, m] log(q_p(x, z) / q_p(z)), zero
    terms dropped: the gradient, which for a degree-1 homogeneous cost is also
    the tangent plane. Defined only on the simplex interior.
    """
    points = np.asarray(points, dtype=float)
    if (points <= BOUNDARY_TOL).any():
        raise BoundaryBelief(
            "entropy tangents are undefined at the simplex boundary; "
            "project the belief to the interior first"
        )
    joint = np.einsum("xzm,pm->pxz", weights, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(joint > 0, np.log(joint / joint.sum(axis=1, keepdims=True)), 0.0)
    return -np.einsum("pxz,xzm->pm", logs, weights) / config.log_scale


def entropy_tangent_alphas(base_points: BasePointSet,
                           config: EntropyConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Tangents of the belief entropy H(x); the plane at xi reduces to -log xi."""
    n = base_points.points.shape[1]
    return conditional_entropy_tangents(np.eye(n)[:, None, :], base_points.points, config)


def terminal_tangent_alphas(cost_model: CostModel, base_points: BasePointSet,
                            config: EntropyConfig = DEFAULT_CONFIG) -> np.ndarray:
    return entropy_tangent_alphas(base_points, config) + cost_model.terminal_cost[None, :]


def stage_tangent_alphas(model: ControlledHMM, cost_model: CostModel,
                         base_points: BasePointSet, stage: int, control: int,
                         config: EntropyConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Tangents of g_k(., u): H(x_k | x_{k+1}) tangents plus the exact linear c_k part."""
    # weights[x, z, m] = A(u)[z, m] where x = m: current state x, next state z
    weights = np.eye(model.n_states)[:, None, :] * model.transition[control][None, :, :]
    linear = cost_model.stage_cost[stage][:, control]
    return conditional_entropy_tangents(weights, base_points.points, config) + linear


def evaluate_pwl(alphas: np.ndarray, belief: np.ndarray) -> float:
    """Minimum inner product over the alpha set: the PWL upper bound at `belief`."""
    return float(np.min(np.asarray(alphas) @ np.asarray(belief)))
