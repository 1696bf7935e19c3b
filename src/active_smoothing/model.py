"""Controlled hidden Markov models and cost tables.

A model is the tuple (prior, A, B, B0): a prior belief over N hidden states,
per-control column-stochastic transition matrices A(u) with entry (i, j) =
p(next = i | current = j, control = u), per-control row-stochastic observation
kernels B(u) with entry (i, y) = p(y | state = i, previous control = u), and a
separate kernel B0 for the observation received before any control is applied.
Costs live in a CostModel: a horizon T, per-stage state/control costs c_k(i, u),
and a terminal state cost c_T(i).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

COLUMN_TOL = 1e-12
COST_LIMIT = 1e100  # largest cost entry; see validate_costs


@dataclass(frozen=True)
class ControlledHMM:
    n_states: int
    n_controls: int
    n_observations: int
    prior: np.ndarray          # (N,)
    transition: np.ndarray     # (U, N, N), column-stochastic per control
    observation: np.ndarray    # (U, N, Y), row-stochastic per control
    initial_observation: np.ndarray  # (N, Y), row-stochastic


@dataclass(frozen=True)
class CostModel:
    horizon: int
    stage_cost: np.ndarray     # (T, N, U), c_k(i, u) >= 0
    terminal_cost: np.ndarray  # (N,), c_T(i) >= 0


def make_model(prior, transition, observation, initial_observation=None) -> ControlledHMM:
    """Assemble a ControlledHMM from array-likes, defaulting B0 to B(u=0).

    The arrays are taken as given: an entry that is not a number or an array of the
    wrong rank raises what numpy or the unpacking of its shape raises (TypeError,
    ValueError, IndexError). `model_from_dict` checks the fields of a model file.
    """
    transition = np.asarray(transition, dtype=float)
    observation = np.asarray(observation, dtype=float)
    prior = np.asarray(prior, dtype=float)
    if observation.ndim == 2:
        observation = np.broadcast_to(
            observation, (transition.shape[0],) + observation.shape
        ).copy()
    if initial_observation is None:
        initial_observation = observation[0]
    initial_observation = np.asarray(initial_observation, dtype=float)
    u, n, _ = transition.shape
    y = observation.shape[2]
    model = ControlledHMM(
        n_states=n,
        n_controls=u,
        n_observations=y,
        prior=prior,
        transition=transition,
        observation=observation,
        initial_observation=initial_observation,
    )
    for a in (model.prior, model.transition, model.observation, model.initial_observation):
        a.setflags(write=False)
    return model


def make_cost_model(horizon, stage_cost, terminal_cost) -> CostModel:
    """Assemble a CostModel; stage_cost may be (N, U) (stage-independent) or (T, N, U)."""
    terminal_cost = np.asarray(terminal_cost, dtype=float)
    stage_cost = np.asarray(stage_cost, dtype=float)
    if stage_cost.ndim == 2:
        stage_cost = np.broadcast_to(stage_cost, (horizon,) + stage_cost.shape).copy()
    cm = CostModel(horizon=horizon, stage_cost=stage_cost, terminal_cost=terminal_cost)
    cm.stage_cost.setflags(write=False)
    cm.terminal_cost.setflags(write=False)
    return cm


def validate_model(model: ControlledHMM) -> list[str]:
    """Check every type invariant; returns one message per violation (empty if valid)."""
    out = []
    n, u, y = model.n_states, model.n_controls, model.n_observations
    if model.prior.shape != (n,):
        out.append(f"prior has shape {model.prior.shape}, expected ({n},)")
        return out
    if model.transition.shape != (u, n, n):
        out.append(f"transition has shape {model.transition.shape}, expected {(u, n, n)}")
        return out
    if model.observation.shape != (u, n, y):
        out.append(f"observation has shape {model.observation.shape}, expected {(u, n, y)}")
        return out
    if model.initial_observation.shape != (n, y):
        out.append(
            f"initial_observation has shape {model.initial_observation.shape}, expected {(n, y)}"
        )
        return out

    # NaN fails every comparison below, so non-finite entries are named here
    for name, a in (("prior", model.prior), ("transition", model.transition),
                    ("observation", model.observation),
                    ("initial_observation", model.initial_observation)):
        for idx in np.argwhere(~np.isfinite(a)):
            where = "".join(f"[{i}]" for i in idx)
            out.append(f"{name}{where} = {float(a[tuple(idx)])!r} is not finite")

    for idx in np.flatnonzero(model.prior < 0):
        out.append(f"prior[{idx}] = {float(model.prior[idx])!r} is negative")
    s = model.prior.sum()
    if abs(s - 1.0) > COLUMN_TOL:
        out.append(f"prior sums to {float(s)!r}, residual {float(s - 1.0)!r}")

    for uu in range(u):
        a = model.transition[uu]
        if ((a < 0) | (a > 1)).any():
            i, j = np.argwhere((a < 0) | (a > 1))[0]
            out.append(f"transition[{uu}][{i}][{j}] = {float(a[i, j])!r} outside [0, 1]")
        cols = a.sum(axis=0)
        for j in np.flatnonzero(np.abs(cols - 1.0) > COLUMN_TOL):
            out.append(
                f"transition[{uu}] column {j} sums to {float(cols[j])!r}, residual {float(cols[j] - 1.0)!r}"
            )

    kernels = [(f"observation[{uu}]", model.observation[uu]) for uu in range(u)]
    kernels.append(("initial_observation", model.initial_observation))
    for name, b in kernels:
        if ((b < 0) | (b > 1)).any():
            i, j = np.argwhere((b < 0) | (b > 1))[0]
            out.append(f"{name}[{i}][{j}] = {float(b[i, j])!r} outside [0, 1]")
        rows = b.sum(axis=1)
        for i in np.flatnonzero(np.abs(rows - 1.0) > COLUMN_TOL):
            out.append(f"{name} row {i} sums to {float(rows[i])!r}, residual {float(rows[i] - 1.0)!r}")
    return out


def validate_costs(costs: CostModel, model: ControlledHMM) -> list[str]:
    """Violations of the cost tables' shapes and entries, which must be nonnegative and at
    most COST_LIMIT (so finite).

    The bound keeps every statistic of an evaluation finite. A run's total cost, its
    stage and terminal costs plus its smoother entropy of at most (T+1) log N, is below
    2 (T+1) COST_LIMIT. So the total, its square, and the sums of either over R runs
    that a mean and a standard error form stay below the float maximum whenever
    R (T+1)^2 < 10^100, far past any horizon and run count that fit in memory.
    """
    out = []
    t, n, u = costs.horizon, model.n_states, model.n_controls
    if costs.horizon < 0:
        out.append(f"horizon {costs.horizon} must be nonnegative")
    if costs.stage_cost.shape != (t, n, u):
        out.append(f"stage_cost has shape {costs.stage_cost.shape}, expected {(t, n, u)}")
    if costs.terminal_cost.shape != (n,):
        out.append(f"terminal_cost has shape {costs.terminal_cost.shape}, expected ({n},)")
    if out:
        return out
    for name, table in (("stage_cost", costs.stage_cost), ("terminal_cost", costs.terminal_cost)):
        if not ((table >= 0.0) & (table <= COST_LIMIT)).all():  # NaN fails both
            out.append(f"{name} entries must be finite and nonnegative, at most {COST_LIMIT:g}")
    return out


def build_grid_agent() -> tuple[ControlledHMM, CostModel]:
    """The bundled 4-cell corridor agent.

    Controls: 0 = west, 1 = stay, 2 = east. A move succeeds with probability 0.8
    and leaves the agent in place with probability 0.2; moves off the grid leave
    it in place with probability 1. Observations: y = 0 has probability 0.8 in
    the two west cells and 0.2 in the two east cells. The prior is uniform,
    stage costs are zero, and the terminal cost charges 1 in every cell except
    the east-most goal cell. Horizon T = 3.
    """
    n = 4
    west = np.zeros((n, n))
    east = np.zeros((n, n))
    for j in range(n):
        if j == 0:
            west[0, 0] = 1.0
        else:
            west[j - 1, j] = 0.8
            west[j, j] = 0.2
        if j == n - 1:
            east[n - 1, n - 1] = 1.0
        else:
            east[j + 1, j] = 0.8
            east[j, j] = 0.2
    stay = np.eye(n)
    b = np.array([[0.8, 0.2], [0.8, 0.2], [0.2, 0.8], [0.2, 0.8]])
    model = make_model(
        prior=np.full(n, 0.25),
        transition=np.stack([west, stay, east]),
        observation=b,
    )
    costs = make_cost_model(
        horizon=3,
        stage_cost=np.zeros((n, 3)),
        terminal_cost=np.array([1.0, 1.0, 1.0, 0.0]),
    )
    return model, costs


def _floats(a: np.ndarray):
    # tolist() gives Python floats, whose repr is that of float(x) per numpy scalar
    return list(map(repr, np.asarray(a, dtype=float).ravel().tolist()))


def _canonical_dict(model: ControlledHMM, costs: CostModel | None) -> dict:
    d = {
        "n_states": model.n_states,
        "n_controls": model.n_controls,
        "n_observations": model.n_observations,
        "prior": _floats(model.prior),
        "transition": _floats(model.transition),
        "observation": _floats(model.observation),
        "initial_observation": _floats(model.initial_observation),
    }
    if costs is not None:
        d["horizon"] = costs.horizon
        d["stage_cost"] = _floats(costs.stage_cost)
        d["terminal_cost"] = _floats(costs.terminal_cost)
    return d


def fingerprint(model: ControlledHMM, costs: CostModel | None = None) -> str:
    """sha256 of the canonicalised model (and cost) arrays; stable across runs."""
    payload = json.dumps(_canonical_dict(model, costs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _nested(a: np.ndarray) -> list:
    return np.asarray(a, dtype=float).tolist()


def model_to_dict(model: ControlledHMM, costs: CostModel) -> dict:
    return {
        "n_states": model.n_states,
        "n_controls": model.n_controls,
        "n_observations": model.n_observations,
        "prior": _nested(model.prior),
        "transition": [_nested(model.transition[u]) for u in range(model.n_controls)],
        "observation": [_nested(model.observation[u]) for u in range(model.n_controls)],
        "initial_observation": _nested(model.initial_observation),
        "horizon": costs.horizon,
        "stage_cost": [_nested(costs.stage_cost[k]) for k in range(costs.horizon)],
        "terminal_cost": _nested(costs.terminal_cost),
    }


class ModelFormatError(ValueError):
    """A model dict whose fields are not of the written format."""


def _numbers(x) -> bool:
    """A JSON number, or a list of them at any depth: no bool, string, null or object."""
    return type(x) in (int, float) or (type(x) is list and all(map(_numbers, x)))


def _field(d: dict, key: str, ranks: tuple[int, ...]) -> np.ndarray:
    """Field `key` of a model dict as a float array of one of `ranks`; ModelFormatError if
    it is missing, is not numbers, is ragged or has another rank. Values are not checked."""
    if key not in d:
        raise ModelFormatError(f"model field {key!r} is missing")
    try:  # an object, a string, a ragged list or an integer beyond float raises
        a = np.array(d[key], dtype=float)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None or a.ndim not in ranks or not _numbers(d[key]):
        raise ModelFormatError(f"model field {key!r} is not an array of numbers of rank "
                               + " or ".join(map(str, ranks)))
    return a


def model_from_dict(d: dict) -> tuple[ControlledHMM, CostModel]:
    """The model and costs of a dict in the format `model_to_dict` writes.

    ModelFormatError if it is not one: not an object, or a field missing, not numbers,
    ragged or of the wrong rank, or a horizon that is not an integer.
    `initial_observation` and `stage_cost` may be left out (B(u=0) and zero costs).
    The values are for `validate_model` and `validate_costs`.
    """
    if type(d) is not dict:
        raise ModelFormatError("model is not an object")
    model = make_model(
        prior=_field(d, "prior", (1,)),
        transition=_field(d, "transition", (3,)),
        observation=_field(d, "observation", (2, 3)),
        initial_observation=(_field(d, "initial_observation", (2,))
                             if "initial_observation" in d else None),
    )
    if "horizon" not in d:
        raise ModelFormatError("model field 'horizon' is missing")
    horizon = d["horizon"]
    if type(horizon) is not int:  # exact type: int() would run true as T=1 and 2.7 as T=2
        raise ModelFormatError(f"model field 'horizon' is not an integer: {horizon!r}")
    if "stage_cost" not in d:
        stage = np.zeros((model.n_states, model.n_controls))
    elif d["stage_cost"] == []:  # the empty table `model_to_dict` writes at T = 0
        stage = np.zeros((0, model.n_states, model.n_controls))
    else:
        stage = _field(d, "stage_cost", (2, 3))
    costs = make_cost_model(
        horizon=horizon,
        stage_cost=stage,
        terminal_cost=_field(d, "terminal_cost", (1,)),
    )
    return model, costs


def save_model(path, model: ControlledHMM, costs: CostModel) -> None:
    """Write the model and costs as JSON, encoded whole before the file is opened."""
    text = json.dumps(model_to_dict(model, costs), indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_model(path) -> tuple[ControlledHMM, CostModel]:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
