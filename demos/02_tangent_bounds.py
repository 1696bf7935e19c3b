"""Tangent-plane upper bounds on the concave belief costs.

The per-stage smoothing cost and the terminal entropy are concave in the
belief, so any tangent hyperplane lies above them. Taking tangents at a
lattice of interior base points gives a piecewise-linear upper bound: the
minimum over the tangent planes. Denser lattices tighten the bound, and the
bound is exact at every base point.
"""
from __future__ import annotations

import numpy as np

from active_smoothing import (
    belief_entropy,
    build_grid_agent,
    evaluate_pwl,
    generate_base_points,
    stage_entropy_cost,
    stage_tangent_alphas,
    terminal_tangent_alphas,
)

model, costs = build_grid_agent()
rng = np.random.default_rng(2)
beliefs = rng.dirichlet(np.ones(4), size=2000)


def terminal_cost(belief):
    """g_T: the belief entropy plus the expected linear cell penalty."""
    return belief_entropy(belief) + belief @ costs.terminal_cost


print("terminal cost bound: entropy plus a linear cell penalty")
print(f"{'density':>8} {'points':>7} {'mean gap':>10} {'max gap':>10} "
      f"{'worst tangency':>15}")
for density in (1, 2, 3, 5, 8):
    bp = generate_base_points(4, density)
    alphas = terminal_tangent_alphas(costs, bp)
    gaps = [evaluate_pwl(alphas, b) - terminal_cost(b) for b in beliefs]
    touch = max(abs(evaluate_pwl(alphas, xi) - terminal_cost(xi)) for xi in bp.points)
    print(f"{density:>8} {len(bp):>7} {np.mean(gaps):>10.4f} "
          f"{np.max(gaps):>10.4f} {touch:>15.2e}")

print("\nper-stage smoothing cost bound, control = east")
print(f"{'density':>8} {'points':>7} {'mean gap':>10} {'max gap':>10}")
for density in (1, 2, 3, 5, 8):
    bp = generate_base_points(4, density)
    alphas = stage_tangent_alphas(model, costs, bp, 0, 2)
    gaps = [evaluate_pwl(alphas, b) - stage_entropy_cost(model, b, 2)
            for b in beliefs]
    assert min(gaps) >= -1e-9  # never below the true cost
    print(f"{density:>8} {len(bp):>7} {np.mean(gaps):>10.4f} {np.max(gaps):>10.4f}")

# The density-2 lattice is the projected simplex vertices. Entropy tangents
# taken there are extremely steep, so that row's worst-case gap is huge even
# though the bound is still valid; interior lattices behave far better.
