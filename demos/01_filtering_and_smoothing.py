"""Bayesian filtering on the bundled corridor agent, and how well the whole
hidden trajectory can be recovered after the fact.

The corridor agent lives in one of four cells. Controls are west/stay/east;
moves succeed with probability 0.8. Observations are binary and noisy: cells
0-1 mostly emit symbol 0, cells 2-3 mostly emit symbol 1.
"""
from __future__ import annotations

import itertools

import numpy as np

from active_smoothing import (
    belief_entropy,
    build_grid_agent,
    initial_update,
    observation_marginal,
    pointwise_smoother_entropy,
    stage_decomposition,
    stage_entropy_cost,
    step,
)

model, costs = build_grid_agent()
print(f"states={model.n_states} controls={model.n_controls} "
      f"observations={model.n_observations} horizon={costs.horizon}")

# One concrete record: always push east, observations 0, 1, 1, 0.
observations = [0, 1, 1, 0]
controls = [2, 2, 2]

belief = initial_update(model, observations[0])
print(f"\nstage 0: y={observations[0]}  belief={np.round(belief, 4)}  "
      f"H={belief_entropy(belief):.4f} nats")
for k, (u, y) in enumerate(zip(controls, observations[1:])):
    marginal = observation_marginal(model, belief, u)
    belief = step(model, belief, u, y)
    print(f"stage {k + 1}: u={u} p(y={y})={marginal[y]:.3f}  "
          f"belief={np.round(belief, 4)}  H={belief_entropy(belief):.4f} nats")

# The smoother entropy scores the joint uncertainty of all four states given
# the full record; it is far below the sum of the per-stage belief entropies
# because consecutive states are strongly dependent.
h_joint = pointwise_smoother_entropy(model, observations, controls)
print(f"\njoint trajectory entropy given the record: {h_joint:.4f} nats")

# Each stage splits into "current-state entropy" minus "information the next
# state carries about it"; the leftover is the per-stage smoothing cost the
# planner charges. On a single record the residuals need not sum to that
# record's joint entropy, but averaged over records the two sides coincide,
# which is what makes the stage-by-stage formulation plannable.
belief = initial_update(model, observations[0])
for k, u in enumerate(controls):
    h_now, mutual = stage_decomposition(model, belief, u)
    print(f"stage {k}: H(X_k)={h_now:.4f}  I(X_k; X_k+1)={mutual:.4f}  "
          f"residual={h_now - mutual:.4f}")
    belief = step(model, belief, u, observations[k + 1])

expected_additive = 0.0
for record in itertools.product(range(2), repeat=4):
    prob = float(model.initial_observation[:, record[0]] @ model.prior)
    b = initial_update(model, record[0])
    acc = 0.0
    for k, y in enumerate(record[1:]):
        acc += stage_entropy_cost(model, b, 2)
        prob *= observation_marginal(model, b, 2)[y]
        b = step(model, b, 2, y)
    expected_additive += prob * (acc + belief_entropy(b))

# The same expectation from the other side: per record, the joint distribution
# of all four states as a 4x4x4x4 tensor, whose mass is the record's probability.
expected_joint = 0.0
for record in itertools.product(range(2), repeat=4):
    joint = model.prior * model.initial_observation[:, record[0]]
    for y in record[1:]:
        joint = joint[..., None] * (model.transition[2].T * model.observation[2][:, y])
    mass = joint.sum()
    q = joint[joint > 0] / mass
    expected_joint -= mass * float(q @ np.log(q))
print(f"\nE[sum of residuals + final entropy]  = {expected_additive:.10f}")
print(f"E[joint trajectory entropy]          = {expected_joint:.10f}")
