"""Output checks that do not use the package's own computations.

Each check reads what the command line wrote (policy JSON, result CSVs) and
compares it with `tests/_oracles.py` or with a property the method must have.
A check returns a list of messages, empty when the output is correct.
"""
from __future__ import annotations

import csv
import json
from types import SimpleNamespace

import numpy as np

import _oracles as oracle

METRICS = [("terminal_cost", "terminal_cost_se"), ("total_belief_entropy", "tbe_se"),
           ("smoother_entropy", "se_se"), ("total_cost", "tc_se")]
# Monte Carlo and exact evaluation must agree within this many standard errors.
# Ten runs of each of the three workloads compare 280 pairs: at 4 SE correct
# code would trip one in about 1 set of 57, at 5 SE in about 1 set of 6,000.
MC_SIGMAS = 5.0
EXACT_TOL = 1e-9
# belief-sum tangents come from finite differences, so they bound only to ~1e-10
BOUND_TOL = {"smoother": 1e-9, "belief-sum": 1e-8}
TIE_TOL = 1e-12


def read_csv(path) -> list[dict]:
    """Rows of a result CSV; the first line is a '#' metadata comment."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_model(path):
    """Model and costs from a model JSON file, as plain attribute bags."""
    with open(path) as fh:
        d = json.load(fh)
    model = SimpleNamespace(
        prior=np.array(d["prior"]), transition=np.array(d["transition"]),
        observation=np.array(d["observation"]),
        initial_observation=np.array(d["initial_observation"]),
        n_states=d["n_states"], n_controls=d["n_controls"], n_observations=d["n_observations"])
    costs = SimpleNamespace(horizon=d["horizon"], stage_cost=np.array(d["stage_cost"]),
                            terminal_cost=np.array(d["terminal_cost"]))
    return model, costs


def read_policy(path) -> dict:
    with open(path) as fh:
        d = json.load(fh)
    stages = [(np.array([e["values"] for e in entries]),
               np.array([-1 if e["action"] is None else e["action"] for e in entries]))
              for entries in d["stages"]]
    return {"objective": d["objective"], "stages": stages}


def policy_rule(policy: dict):
    """Greedy control of the minimising vector; ties go to the lowest control."""

    def rule(belief, stage):
        values, actions = policy["stages"][stage]
        v = values @ belief
        return int(actions[v <= v.min() + TIE_TOL].min())

    return rule


def constant_rule(control: int):
    return lambda belief, stage: control


def initial_beliefs(model):
    """(p(y0), belief after y0) for every y0 of positive probability."""
    out = []
    for y in range(model.n_observations):
        p = float(model.initial_observation[:, y] @ model.prior)
        if p > 0.0:
            out.append((p, oracle.initial_filter(model, y)))
    return out


def bound(model, policy: dict) -> float:
    """The solver's bound E_y0[min over stage-0 vectors at b0], plus H(b0) for belief-sum."""
    values = policy["stages"][0][0]
    total = 0.0
    for p, b in initial_beliefs(model):
        v = float(np.min(values @ b))
        if policy["objective"] == "belief-sum":
            v += oracle.entropy(b)
        total += p * v
    return total


def tree_expectations(model, costs, rule) -> dict:
    """Expected terms of every objective under `rule`, by walking the observation tree.

    `smoother` uses the additive form sum_k H(x_k | x_k+1) + H(b_T), which
    equals the trajectory entropy; `belief_sum` is the sum of H(b_0..b_T).
    """
    t = costs.horizon
    acc = dict.fromkeys(("stage", "terminal", "smoother", "belief_sum", "final_entropy"), 0.0)

    def walk(b, k, p):
        acc["belief_sum"] += p * oracle.entropy(b)
        if k == t:
            acc["terminal"] += p * float(b @ costs.terminal_cost)
            acc["smoother"] += p * oracle.entropy(b)
            acc["final_entropy"] += p * oracle.entropy(b)
            return
        u = rule(b, k)
        acc["stage"] += p * float(b @ costs.stage_cost[k][:, u])
        acc["smoother"] += p * oracle.stage_conditional_entropy(model, b, u)
        for y in range(model.n_observations):
            q = oracle.obs_prob(model, b, u, y)
            if q > 0.0:
                walk(oracle.filter_step(model, b, u, y), k + 1, p * q)

    for p, b in initial_beliefs(model):
        walk(b, 0, p)
    return acc


def objective_value(objective: str, terms: dict) -> float:
    """Exact value of the objective a policy was solved for.

    The belief-sum solve charges H(b_T) both in its last stage tangent and in
    the entropy-plus-cost terminal set, so its objective carries it twice.
    """
    costs = terms["stage"] + terms["terminal"]
    if objective == "smoother":
        return terms["smoother"] + costs
    return terms["belief_sum"] + terms["final_entropy"] + costs


def optimum(model, costs, objective: str) -> float:
    """Oracle optimum of the objective, on the same footing as `objective_value`."""
    value = oracle.optimal_value(model, costs, objective)
    if objective == "belief-sum":
        value += sum(p * oracle.entropy(b) for p, b in initial_beliefs(model))
    return value


def close(name: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{name}: {got!r} differs from {want!r} by more than {tol}"]


def _row_matches(row: dict, want: dict) -> list[str]:
    return [msg for key, value in want.items()
            for msg in close(f"exact {key}", float(row[key]), value, EXACT_TOL)]


def exact_matches_oracle(row: dict, model, costs, rule) -> list[str]:
    """Exact row against brute-force trajectory enumeration (affordable for T <= 3)."""
    term, tbe, smoother, stage = oracle.policy_metrics(model, costs, rule)
    return _row_matches(row, {"terminal_cost": term, "total_belief_entropy": tbe,
                              "smoother_entropy": smoother,
                              "total_cost": smoother + stage + term})


def exact_matches_tree(row: dict, terms: dict) -> list[str]:
    """Exact row against the observation-tree walk (any horizon the walk affords)."""
    return _row_matches(row, {"terminal_cost": terms["terminal"],
                              "total_belief_entropy": terms["belief_sum"],
                              "smoother_entropy": terms["smoother"],
                              "total_cost": terms["smoother"] + terms["stage"] + terms["terminal"]})


def mc_matches_exact(mc: dict, exact: dict, terminal_cost, sigmas: float = MC_SIGMAS) -> list[str]:
    """Monte Carlo row against the exact row, metric by metric.

    The terminal cost takes few values, so the rollouts can miss a rare one
    altogether and show no variance at all. Its standard error is therefore at
    least the Bhatia-Davis bound: a variable in [lo, hi] with mean mu has
    variance at most (hi - mu)(mu - lo), taken at the exact mean.
    """
    lo, hi = float(np.min(terminal_cost)), float(np.max(terminal_cost))
    out = []
    for key, se_key in METRICS:
        got, want, se = float(mc[key]), float(exact[key]), float(mc[se_key])
        if key == "terminal_cost":
            se = max(se, np.sqrt(max((hi - want) * (want - lo), 0.0) / int(mc["runs"])))
        if abs(got - want) > sigmas * se + 1e-12:
            out.append(f"Monte Carlo {key} {got!r} is more than {sigmas} SE ({se!r}) "
                       f"from exact {want!r}")
    return out


def bound_holds(objective: str, bound_value: float, exact_value: float,
                optimum_value: float | None = None) -> list[str]:
    """bound >= exact value of the policy >= optimum (when the optimum is known)."""
    tol = BOUND_TOL[objective]
    out = []
    if bound_value < exact_value - tol:
        out.append(f"{objective} bound {bound_value!r} is below the policy's exact value "
                   f"{exact_value!r}")
    if optimum_value is not None and exact_value < optimum_value - tol:
        out.append(f"{objective} exact value {exact_value!r} is below the optimum "
                   f"{optimum_value!r}")
    return out


def all_essential(values: np.ndarray) -> list[str]:
    kept = oracle.essential_indices(values)
    if len(kept) == len(values):
        return []
    return [f"{len(values) - len(kept)} of {len(values)} stage-0 vectors are not essential"]


def common_start(trace_rows: list[dict]) -> list[str]:
    """Run i starts from one state and y_0 under every policy (common random numbers)."""
    starts: dict[str, set] = {}
    for row in trace_rows:
        if row["stage"] == "0":
            starts.setdefault(row["run"], set()).add((row["state"], row["observation"]))
    bad = sorted(run for run, seen in starts.items() if len(seen) != 1)
    if not starts:
        return ["no realisation rows to compare"]
    return [f"run {run} starts differently across policies" for run in bad]
