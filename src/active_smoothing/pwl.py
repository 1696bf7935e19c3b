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
import math
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


def simplex_lattice(n: int, levels: int) -> np.ndarray:
    """Beliefs whose coordinates lie in {0, 1/(levels-1), ..., 1}, in lexicographic order.

    The C(levels + n - 2, n - 1) points are enumerated directly by stars and
    bars: each choice of n - 1 bar positions among levels + n - 2 slots, in
    lexicographic order, cuts the levels - 1 units into n coordinates.
    """
    slots, count = levels + n - 2, math.comb(levels + n - 2, n - 1)
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(slots), n - 1)),
                       dtype=int, count=count * (n - 1)).reshape(count, n - 1)
    cuts = np.column_stack((np.full(count, -1), bars, np.full(count, slots)))
    return (np.diff(cuts, axis=1) - 1) / (levels - 1)


def generate_base_points(n_states: int, density: int,
                         epsilon_interior: float = 1e-4) -> BasePointSet:
    """Simplex lattice with `density` coordinate levels, projected to the interior.

    density=1 yields the single barycentre. Each point is then mixed with the
    uniform belief, point <- (1 - N eps) point + eps; as 1 - N eps > 1/2, distinct
    lattice points stay distinct. A lattice of more than MAX_LATTICE points,
    C(density + N - 2, N - 1) of them, is refused.
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
        count = math.comb(density + n_states - 2, n_states - 1)
        if count > MAX_LATTICE:
            raise ValueError(f"lattice of {count} points is over the {MAX_LATTICE} limit")
        points = simplex_lattice(n_states, density)
    points = (1.0 - n_states * epsilon_interior) * points + epsilon_interior
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


def terminal_tangent_alphas(cost_model: CostModel, base_points: BasePointSet,
                            config: EntropyConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Tangents of g_T: the belief entropy H(x), whose plane at xi reduces to -log xi,
    plus the exact linear c_T part."""
    n = base_points.points.shape[1]
    entropy = conditional_entropy_tangents(np.eye(n)[:, None, :], base_points.points, config)
    return entropy + cost_model.terminal_cost[None, :]


def stage_tangent_alphas(model: ControlledHMM, cost_model: CostModel,
                         base_points: BasePointSet, stage: int, control: int,
                         config: EntropyConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Tangents of g_k(., u): H(x_k | x_{k+1}) tangents plus the exact linear c_k part."""
    # weights[x, z, m] = A(u)[z, m] where x = m: current state x, next state z
    weights = np.eye(model.n_states)[:, None, :] * model.transition[control][None, :, :]
    linear = cost_model.stage_cost[stage][:, control]
    return conditional_entropy_tangents(weights, base_points.points, config) + linear


def evaluate_pwl(alphas: np.ndarray, belief: np.ndarray) -> float:
    """Minimum inner product over the alpha set: the PWL upper bound at `belief`.

    `solver.value` reads a policy's stage with it, and `demos/02` measures the
    tangent bounds' gaps with it.
    """
    return float(np.min(np.asarray(alphas) @ np.asarray(belief)))
