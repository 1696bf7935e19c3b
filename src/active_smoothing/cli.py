"""Command-line entry point.

Subcommands: validate a model file, solve a policy, simulate/exactly evaluate
policies to a results CSV, sweep base-point densities, and run the bundled
corridor-agent experiment end to end. Every output embeds the resolved run
configuration and the model fingerprint (as a single JSON comment line in
CSVs, as a key in JSON files); re-running a command with the same inputs
reproduces its outputs byte for byte.

Exit codes: 0 success, 1 domain violation (invalid model, mismatched policy,
guard refusal), 2 I/O or usage error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .belief import ImpossibleEvidence, initial_update
from .costs import EntropyConfig, belief_entropy
from .model import (
    build_grid_agent,
    fingerprint,
    load_model,
    make_cost_model,
    save_model,
    validate_costs,
    validate_model,
)
from .pwl import generate_base_points
from .sim import (
    SIZE_GUARD,
    PolicyModelMismatch,
    check_policy,
    compare_policies,
    exact_policy_metrics,
    monte_carlo,
    rollout,  # noqa: F401  kept importable: the benchmark's tracer wraps cli.rollout by name
    rollouts,
)
from .solver import load_policy, save_policy, solve, value

RESULTS_HEADER = [
    "policy", "runs", "terminal_cost", "terminal_cost_se",
    "total_belief_entropy", "tbe_se", "smoother_entropy", "se_se",
    "total_cost", "tc_se", "log_base", "seed",
]
TRACE_HEADER = ["policy", "run", "stage", "state", "control", "observation"]
SWEEP_HEADER = ["density", "total_cost", "bound_value", "gamma_sizes", "exact"]
MAX_TRACE_RUNS = 10


class UsageError(Exception):
    pass


# ------------------------------------------------------------- plumbing --

def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, metadata: dict, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(metadata, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def read_csv(path) -> tuple[dict, list[dict]]:
    """Read back a CSV written by this module: (metadata, list of row dicts)."""
    with open(path, newline="") as fh:
        first = fh.readline()
        metadata = json.loads(first[1:].strip()) if first.startswith("#") else {}
        if not first.startswith("#"):
            fh.seek(0)
        reader = csv.DictReader(fh)
        return metadata, list(reader)


def _load_model_and_costs(args):
    """The model and costs the command runs on; invalid ones raise ValueError (exit 1)."""
    if getattr(args, "model", None):
        model, costs = load_model(args.model)
    else:
        model, costs = build_grid_agent()
    violations = validate_model(model) + validate_costs(costs, model)
    if violations:
        raise ValueError(f"invalid model, {len(violations)} violation(s):\n  "
                         + "\n  ".join(violations))
    horizon = getattr(args, "horizon", None)
    if horizon is not None and horizon != costs.horizon:
        base = costs.stage_cost[0]
        if any(not np.array_equal(costs.stage_cost[k], base) for k in range(costs.horizon)):
            raise UsageError("cannot override the horizon of a stage-dependent cost table")
        costs = make_cost_model(horizon=horizon, stage_cost=base,
                                terminal_cost=costs.terminal_cost)
    return model, costs


def _config_dict(args, model, costs, **extra) -> dict:
    d = {"model": getattr(args, "model", None) or "builtin:grid-agent",
         "horizon": costs.horizon,
         "model_fingerprint": fingerprint(model, costs),
         "rng": "philox key=(seed, run_index)"}
    for key in ("objective", "base_points", "epsilon", "prune", "log_base", "runs", "seed"):
        if getattr(args, key, None) is not None:
            d[key] = getattr(args, key)
    d.update(extra)
    return d


def _summary_row(name: str, s) -> list:
    return [name, s.runs, s.terminal_cost, s.terminal_cost_se,
            s.total_belief_entropy, s.tbe_se, s.smoother_entropy, s.se_se,
            s.total_cost, s.tc_se, s.log_base, s.seed]


def _resolve_policy(ref: str, model, costs):
    """A --policy value is a builtin name or a policy JSON path; returns (name, policy)."""
    if ref == "always-east" or ref.startswith("fixed:"):
        return ref, ref
    path = Path(ref)
    if not path.exists():
        raise UsageError(
            f"policy {ref!r} is neither a builtin (always-east, fixed:<k>) nor an existing file"
        )
    policy = load_policy(path)
    check_policy(model, costs, policy)
    return path.stem, policy


def _parse_densities(raw: str) -> list[int]:
    try:
        densities = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad base-point list {raw!r}: {exc}") from None
    if not densities:
        raise UsageError("base-point density list is empty")
    if any(d < 1 for d in densities):
        raise UsageError(f"base-point densities must be >= 1, got {raw!r}")
    return densities


def _reported_bound(model, costs, policy, config) -> float:
    """Expected solver value at the initial updated belief.

    For the belief-sum objective the constant initial belief entropy is not
    part of the solved stage costs and is added here, at reporting time.
    """
    p0 = model.prior @ model.initial_observation
    total = 0.0
    for y0 in np.flatnonzero(p0 > 0):
        b = initial_update(model, int(y0))
        v = value(policy, b, 0)
        if policy.objective == "belief-sum":
            v += belief_entropy(b, config)
        total += float(p0[y0]) * v
    return total


def _trace_rows(model, costs, name: str, policy_like, runs: int, seed: int, config) -> list[list]:
    batch = rollouts(model, costs, policy_like, seed, min(runs, MAX_TRACE_RUNS), config)
    t = costs.horizon
    rows = []
    for i in range(len(batch)):
        for k in range(t + 1):
            control = batch.controls[i, k] if k < t else ""
            rows.append([name, i, k, batch.states[i, k], control, batch.observations[i, k]])
    return rows


# ----------------------------------------------------------- subcommands --

def cmd_validate(args) -> int:
    model, costs = load_model(args.model)
    violations = validate_model(model) + validate_costs(costs, model)
    for v in violations:
        print(v)
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    print("ok")
    return 0


def cmd_solve(args) -> int:
    model, costs = _load_model_and_costs(args)
    config = EntropyConfig(args.log_base)
    base_points = generate_base_points(model.n_states, args.base_points, args.epsilon)
    start = time.perf_counter()
    policy = solve(model, costs, args.objective, base_points, args.prune, config)
    elapsed = time.perf_counter() - start
    save_policy(args.out, policy, extra_metadata=_config_dict(args, model, costs))
    sizes = policy.gamma_sizes()
    for k, size in enumerate(sizes):
        print(f"stage {k}: {size} vectors")
    print(f"solved {args.objective} in {elapsed:.2f}s -> {args.out}")
    return 0


def cmd_evaluate_exact(args) -> int:
    model, costs = _load_model_and_costs(args)
    config = EntropyConfig(args.log_base)
    pairs = [_resolve_policy(ref, model, costs) for ref in args.policy]
    rows = [
        _summary_row(name, exact_policy_metrics(model, costs, pol, config, seed=args.seed))
        for name, pol in pairs
    ]
    metadata = _config_dict(args, model, costs, exact=True)
    _write_csv(args.out, metadata, RESULTS_HEADER, rows)
    for row in rows:
        print(f"{row[0]}: total_cost={row[8]!r} (exact)")
    if args.trace:
        trace = []
        for name, pol in pairs:
            trace.extend(_trace_rows(model, costs, name, pol, 1, args.seed, config))
        _write_csv(args.trace, metadata, TRACE_HEADER, trace)
    return 0


def cmd_simulate(args) -> int:
    if args.exact:
        return cmd_evaluate_exact(args)
    model, costs = _load_model_and_costs(args)
    config = EntropyConfig(args.log_base)
    pairs = [_resolve_policy(ref, model, costs) for ref in args.policy]
    results = compare_policies(model, costs, pairs, args.runs, args.seed, config)
    rows = [_summary_row(name, s) for name, s in results]
    metadata = _config_dict(args, model, costs)
    _write_csv(args.out, metadata, RESULTS_HEADER, rows)
    for name, s in results:
        print(f"{name}: terminal={s.terminal_cost:.4f} tbe={s.total_belief_entropy:.4f} "
              f"smoother={s.smoother_entropy:.4f} total={s.total_cost:.4f}")
    if args.trace:
        trace = []
        for (name, pol) in pairs:
            trace.extend(_trace_rows(model, costs, name, pol, args.runs, args.seed, config))
        _write_csv(args.trace, metadata, TRACE_HEADER, trace)
    return 0


def cmd_sweep(args) -> int:
    model, costs = _load_model_and_costs(args)
    config = EntropyConfig(args.log_base)
    densities = _parse_densities(args.base_points)
    exact_feasible = (
        model.n_observations ** (costs.horizon + 1) * model.n_states ** (costs.horizon + 1)
        <= SIZE_GUARD
    )
    rows = []
    for density in densities:
        base_points = generate_base_points(model.n_states, density, args.epsilon)
        start = time.perf_counter()
        policy = solve(model, costs, args.objective, base_points, args.prune, config)
        elapsed = time.perf_counter() - start
        bound = _reported_bound(model, costs, policy, config)
        if exact_feasible:
            summary = exact_policy_metrics(model, costs, policy, config, seed=args.seed)
        else:
            summary = monte_carlo(model, costs, policy, args.runs, args.seed, config)
        rows.append([density, summary.total_cost, bound,
                     ";".join(str(x) for x in policy.gamma_sizes()),
                     1 if exact_feasible else 0])
        print(f"d={density}: total_cost={summary.total_cost!r} bound={bound!r} "
              f"gammas={policy.gamma_sizes()} ({elapsed:.2f}s)")
    _write_csv(args.out, _config_dict(args, model, costs), SWEEP_HEADER, rows)
    return 0


def cmd_experiment(args) -> int:
    model, costs = _load_model_and_costs(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = EntropyConfig(args.log_base)
    densities = _parse_densities(args.base_points)
    d_main = max(densities)
    base_points = generate_base_points(model.n_states, d_main, args.epsilon)

    save_model(out_dir / "model.json", model, costs)

    print(f"solving smoother objective at d={d_main} ...")
    start = time.perf_counter()
    active = solve(model, costs, "smoother", base_points, args.prune, config)
    t_active = time.perf_counter() - start
    print(f"  gammas={active.gamma_sizes()} ({t_active:.2f}s)")
    print(f"solving belief-sum objective at d={d_main} ...")
    start = time.perf_counter()
    baseline = solve(model, costs, "belief-sum", base_points, args.prune, config)
    t_baseline = time.perf_counter() - start
    print(f"  gammas={baseline.gamma_sizes()} ({t_baseline:.2f}s)")

    metadata = _config_dict(
        args, model, costs,
        gamma_sizes_smoother=active.gamma_sizes(),
        gamma_sizes_belief_sum=baseline.gamma_sizes(),
    )
    save_policy(out_dir / "active_smoothing.json", active, extra_metadata=metadata)
    save_policy(out_dir / "belief_sum.json", baseline, extra_metadata=metadata)

    policies = [("active-smoothing", active), ("belief-sum", baseline), ("always-east", "always-east")]
    print(f"simulating {args.runs} runs per policy ...")
    results = compare_policies(model, costs, policies, args.runs, args.seed, config)
    rows = [_summary_row(name, s) for name, s in results]
    for name, policy_like in policies:
        rows.append(_summary_row(name, exact_policy_metrics(model, costs, policy_like,
                                                            config, seed=args.seed)))
    _write_csv(out_dir / "table1.csv", metadata, RESULTS_HEADER, rows)
    for name, s in results:
        print(f"  {name}: terminal={s.terminal_cost:.4f} tbe={s.total_belief_entropy:.4f} "
              f"smoother={s.smoother_entropy:.4f} total={s.total_cost:.4f}")

    print(f"density sweep over {densities} ...")
    sweep_rows = []
    for density in densities:
        if density == d_main:
            policy = active
        else:
            bp = generate_base_points(model.n_states, density, args.epsilon)
            policy = solve(model, costs, "smoother", bp, args.prune, config)
        summary = exact_policy_metrics(model, costs, policy, config, seed=args.seed)
        bound = _reported_bound(model, costs, policy, config)
        sweep_rows.append([density, summary.total_cost, bound,
                           ";".join(str(x) for x in policy.gamma_sizes()), 1])
        print(f"  d={density}: total_cost={summary.total_cost!r}")
    _write_csv(out_dir / "sweep.csv", metadata, SWEEP_HEADER, sweep_rows)

    trace = []
    for name, policy_like in policies:
        trace.extend(_trace_rows(model, costs, name, policy_like, 1, args.seed, config))
    _write_csv(out_dir / "realisations.csv", metadata, TRACE_HEADER, trace)

    with open(out_dir / "metadata.json", "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"artifacts written to {out_dir}")
    return 0


# ---------------------------------------------------------------- parser --

def _add_common(p: argparse.ArgumentParser, *, model_required: bool) -> None:
    p.add_argument("--model", required=model_required,
                   help="model JSON path" + ("" if model_required else " (default: bundled corridor agent)"))
    p.add_argument("--horizon", type=int, default=None, help="override the cost-table horizon")
    p.add_argument("--log-base", dest="log_base", choices=["e", "2"], default="e",
                   help="entropy unit: e for nats, 2 for bits")


def _add_solver_flags(p: argparse.ArgumentParser, multi_density: bool) -> None:
    if multi_density:
        p.add_argument("--base-points", dest="base_points", default="1,2,3,4,5",
                       help="comma-separated base-point densities")
    else:
        p.add_argument("--base-points", dest="base_points", type=int, default=5,
                       help="base points per belief dimension")
    p.add_argument("--epsilon", type=float, default=1e-4,
                   help="interior projection mixed into each base point")
    p.add_argument("--prune", choices=["none", "pairwise", "lp"], default="lp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="active-smoothing",
        description="Trajectory-entropy-minimising planning for controlled hidden Markov models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file's type invariants")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve a policy and write it as JSON")
    _add_common(p, model_required=False)
    _add_solver_flags(p, multi_density=False)
    p.add_argument("--objective", choices=["smoother", "belief-sum", "costs-only"],
                   default="smoother")
    p.add_argument("--out", required=True, help="policy JSON output path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo or exact policy evaluation to CSV")
    _add_common(p, model_required=False)
    p.add_argument("--policy", action="append", required=True,
                   help="policy JSON path or builtin (always-east, fixed:<k>); repeatable")
    p.add_argument("--runs", type=int, default=10000)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--out", required=True, help="results CSV output path")
    p.add_argument("--exact", action="store_true",
                   help="exact evaluation by enumeration instead of Monte Carlo")
    p.add_argument("--trace", default=None,
                   help="also write a per-rollout trace CSV to this path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="solve at several base-point densities, evaluate each")
    _add_common(p, model_required=False)
    _add_solver_flags(p, multi_density=True)
    p.add_argument("--objective", choices=["smoother", "belief-sum", "costs-only"],
                   default="smoother")
    p.add_argument("--runs", type=int, default=10000,
                   help="Monte Carlo runs when exact evaluation is infeasible")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--out", required=True, help="sweep CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("experiment",
                       help="solve, simulate, sweep, and trace the bundled benchmark")
    _add_common(p, model_required=False)
    _add_solver_flags(p, multi_density=True)
    p.add_argument("--runs", type=int, default=10000)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError) as exc:
        print(f"error: unreadable input file ({exc})", file=sys.stderr)
        return 2
    except (PolicyModelMismatch, ImpossibleEvidence, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
