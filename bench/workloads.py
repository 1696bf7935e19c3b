"""The benchmark's workloads: how each builds its inputs, runs and is checked.

Every workload drives the package through its command line (`cli.main`),
one call after another, as a single user in a closed loop would. A round is
the workload's fixed list of commands; each command yields named operations,
and the checks report failures per operation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from active_smoothing import build_grid_agent, make_cost_model, make_model, save_model
from active_smoothing import pwl

import checks

GRID_EAST = 2
EXPERIMENT_DENSITIES = (1, 2, 3, 4, 5)
EXPERIMENT_POLICIES = ("active-smoothing", "belief-sum", "always-east")

# random-solve: a fixed pool of random models. The seed relabels their states,
# controls and observations, which gives new inputs of unchanged difficulty;
# redrawing the models would swing a solve between 0.3 s and 40 s. Key 8's
# first model solves in about 2 s, so a run holds several rounds.
POOL_KEY = 8
POOL_SIZE = 1
RANDOM_STATES, RANDOM_CONTROLS, RANDOM_OBSERVATIONS = 5, 3, 3
RANDOM_HORIZON = 2
RANDOM_DENSITY = 3
RANDOM_RUNS = 2000

ROLLOUT_HORIZON = 6
ROLLOUT_RUNS = 1000
ROLLOUT_POLICIES = (("smoother", "smoother.json"), ("belief_sum", "belief_sum.json"),
                    ("always-east", "always-east"))


@dataclass
class Workload:
    """setup builds the model, costs and base-point lattices the commands will
    need, so that `setup_s` shows work moved there, even where the command
    line then builds its own."""
    setup: Callable[[int], dict]                 # seed -> inputs (written files included)
    commands: Callable[[dict], list]             # inputs -> [(argv, [operation names])]
    check: Callable[[dict], dict]                # inputs -> {operation: [messages]}


# ------------------------------------------------------- paper-experiment --

def _experiment_setup(seed: int) -> dict:
    model, _ = build_grid_agent()
    for d in EXPERIMENT_DENSITIES:
        pwl.generate_base_points(model.n_states, d)
    return {"seed": seed}


def _experiment_ops() -> list[str]:
    return ([f"solve:smoother-d{d}" for d in EXPERIMENT_DENSITIES] + ["solve:belief-sum-d5"]
            + [f"{kind}:{p}" for kind in ("mc", "exact") for p in EXPERIMENT_POLICIES])


def _experiment_commands(inputs: dict) -> list:
    return [(["experiment", "--out", "experiment", "--seed", str(inputs["seed"])],
             _experiment_ops())]


def _experiment_check(inputs: dict) -> dict:
    fail: dict[str, list[str]] = {}
    model, costs = checks.read_model("experiment/model.json")
    rows = checks.read_csv("experiment/table1.csv")
    mc = {r["policy"]: r for r in rows if int(r["runs"]) > 0}
    exact = {r["policy"]: r for r in rows if int(r["runs"]) == 0}
    policies = {"active-smoothing": checks.read_policy("experiment/active_smoothing.json"),
                "belief-sum": checks.read_policy("experiment/belief_sum.json")}
    rules = {name: checks.policy_rule(p) for name, p in policies.items()}
    rules["always-east"] = checks.constant_rule(GRID_EAST)

    for name in EXPERIMENT_POLICIES:
        fail.setdefault(f"exact:{name}", []).extend(
            checks.exact_matches_oracle(exact[name], model, costs, rules[name]))
        fail.setdefault(f"mc:{name}", []).extend(
            checks.mc_matches_exact(mc[name], exact[name], costs.terminal_cost))

    smoother_opt = checks.optimum(model, costs, "smoother")
    for row in checks.read_csv("experiment/sweep.csv"):
        op = f"solve:smoother-d{row['density']}"
        fail.setdefault(op, []).extend(checks.bound_holds(
            "smoother", float(row["bound_value"]), float(row["total_cost"]), smoother_opt))
    top = f"solve:smoother-d{max(EXPERIMENT_DENSITIES)}"
    fail[top].extend(checks.close("d5 smoother exact total vs optimum",
                                  float(exact["active-smoothing"]["total_cost"]),
                                  smoother_opt, checks.EXACT_TOL))
    sweep_top = checks.read_csv("experiment/sweep.csv")[-1]
    fail[top].extend(checks.close("reported d5 bound vs policy file",
                                  float(sweep_top["bound_value"]),
                                  checks.bound(model, policies["active-smoothing"]),
                                  checks.EXACT_TOL))

    terms = checks.tree_expectations(model, costs, rules["belief-sum"])
    fail["solve:belief-sum-d5"] = checks.bound_holds(
        "belief-sum", checks.bound(model, policies["belief-sum"]),
        checks.objective_value("belief-sum", terms), checks.optimum(model, costs, "belief-sum"))
    return fail


# ----------------------------------------------------------- random-solve --

def random_pool_model(index: int, seed: int):
    """Pool model `index`, with states, controls and observations relabelled by `seed`."""
    n, u, y, t = RANDOM_STATES, RANDOM_CONTROLS, RANDOM_OBSERVATIONS, RANDOM_HORIZON
    rng = np.random.Generator(np.random.Philox(key=[POOL_KEY, index]))
    prior = rng.dirichlet(np.ones(n))
    transition = np.stack([rng.dirichlet(np.ones(n), size=n).T for _ in range(u)])
    observation = np.stack([rng.dirichlet(np.ones(y), size=n) for _ in range(u)])
    initial = rng.dirichlet(np.ones(y), size=n)
    stage = rng.uniform(0.0, 1.0, size=(t, n, u))
    terminal = rng.uniform(0.0, 1.0, size=n)

    relabel = np.random.Generator(np.random.Philox(key=[seed, index]))
    ps, pu, py = relabel.permutation(n), relabel.permutation(u), relabel.permutation(y)
    model = make_model(prior[ps], transition[pu][:, ps][:, :, ps],
                       observation[pu][:, ps][:, :, py], initial[ps][:, py])
    costs = make_cost_model(t, stage[:, ps][:, :, pu], terminal[ps])
    return model, costs


def _random_setup(seed: int) -> dict:
    for i in range(POOL_SIZE):
        save_model(f"model{i}.json", *random_pool_model(i, seed))
    pwl.generate_base_points(RANDOM_STATES, RANDOM_DENSITY)
    return {"seed": seed}


def _random_commands(inputs: dict) -> list:
    seed = str(inputs["seed"])
    out = []
    for i in range(POOL_SIZE):
        model = ["--model", f"model{i}.json"]
        out += [
            (["solve", *model, "--objective", "smoother", "--base-points", str(RANDOM_DENSITY),
              "--out", f"policy{i}.json"], [f"solve:m{i}"]),
            (["simulate", *model, "--policy", f"policy{i}.json", "--runs", str(RANDOM_RUNS),
              "--seed", seed, "--out", f"mc{i}.csv"], [f"mc:m{i}"]),
            (["simulate", "--exact", *model, "--policy", f"policy{i}.json", "--seed", seed,
              "--out", f"exact{i}.csv"], [f"exact:m{i}"]),
        ]
    return out


def _random_check(inputs: dict) -> dict:
    fail: dict[str, list[str]] = {}
    for i in range(POOL_SIZE):
        model, costs = checks.read_model(f"model{i}.json")
        policy = checks.read_policy(f"policy{i}.json")
        rule = checks.policy_rule(policy)
        (mc,), (exact,) = checks.read_csv(f"mc{i}.csv"), checks.read_csv(f"exact{i}.csv")
        fail[f"exact:m{i}"] = checks.exact_matches_oracle(exact, model, costs, rule)
        fail[f"mc:m{i}"] = checks.mc_matches_exact(mc, exact, costs.terminal_cost)
        fail[f"solve:m{i}"] = checks.bound_holds(
            "smoother", checks.bound(model, policy), float(exact["total_cost"]),
            checks.optimum(model, costs, "smoother")) + checks.all_essential(policy["stages"][0][0])
    return fail


# --------------------------------------------------------------- rollouts --

def _rollouts_setup(seed: int) -> dict:
    model, costs = build_grid_agent()
    costs = make_cost_model(ROLLOUT_HORIZON, costs.stage_cost[0], costs.terminal_cost)
    pwl.generate_base_points(model.n_states, 1)
    return {"seed": seed, "model": model, "costs": costs}


def _rollouts_commands(inputs: dict) -> list:
    horizon = ["--horizon", str(ROLLOUT_HORIZON)]
    policies = [arg for _, ref in ROLLOUT_POLICIES for arg in ("--policy", ref)]
    seed = str(inputs["seed"])
    return [
        (["solve", *horizon, "--objective", "smoother", "--base-points", "1",
          "--out", "smoother.json"], ["solve:smoother"]),
        (["solve", *horizon, "--objective", "belief-sum", "--base-points", "1",
          "--out", "belief_sum.json"], ["solve:belief-sum"]),
        (["simulate", *horizon, *policies, "--runs", str(ROLLOUT_RUNS), "--seed", seed,
          "--out", "mc.csv", "--trace", "realisations.csv"],
         [f"mc:{name}" for name, _ in ROLLOUT_POLICIES]),
        (["simulate", "--exact", *horizon, *policies, "--seed", seed, "--out", "exact.csv"],
         [f"exact:{name}" for name, _ in ROLLOUT_POLICIES]),
    ]


def _rollouts_check(inputs: dict) -> dict:
    fail: dict[str, list[str]] = {}
    model, costs = inputs["model"], inputs["costs"]
    mc = {r["policy"]: r for r in checks.read_csv("mc.csv")}
    exact = {r["policy"]: r for r in checks.read_csv("exact.csv")}
    crn = checks.common_start(checks.read_csv("realisations.csv"))
    for name, ref in ROLLOUT_POLICIES:
        if ref.endswith(".json"):
            policy = checks.read_policy(ref)
            rule = checks.policy_rule(policy)
        else:
            rule = checks.constant_rule(GRID_EAST)
        terms = checks.tree_expectations(model, costs, rule)
        fail[f"exact:{name}"] = checks.exact_matches_tree(exact[name], terms)
        fail[f"mc:{name}"] = (checks.mc_matches_exact(mc[name], exact[name], costs.terminal_cost)
                              + crn)
        if ref.endswith(".json"):
            # the belief DP over T=6 is too large for the oracle; bound vs exact only
            objective = policy["objective"]
            fail[f"solve:{objective}"] = checks.bound_holds(
                objective, checks.bound(model, policy), checks.objective_value(objective, terms))
    return fail


WORKLOADS = {
    "paper-experiment": Workload(_experiment_setup, _experiment_commands, _experiment_check),
    "random-solve": Workload(_random_setup, _random_commands, _random_check),
    "rollouts": Workload(_rollouts_setup, _rollouts_commands, _rollouts_check),
}
