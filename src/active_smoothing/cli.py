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
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .belief import ImpossibleEvidence, initial_level
from .costs import EntropyConfig, belief_entropy
from .model import (
    ModelFormatError,
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
    MetricsSummary,
    PolicyModelMismatch,
    _builtin_control,
    check_policy,
    compare_policies,
    compare_policies_exactly,
    exact_policy_metrics,  # noqa: F401  kept importable: the benchmark's tracer wraps cli.exact_policy_metrics by name
    exact_refusal,
    monte_carlo,  # noqa: F401  kept importable: the benchmark's tracer wraps cli.monte_carlo by name
    rollout,  # noqa: F401  kept importable: the benchmark's tracer wraps cli.rollout by name
)
from .solver import (
    OBJECTIVES,
    PolicyFormatError,
    SolveContext,
    load_policy,
    save_policy,
    solve,
    value,
)

RESULTS_HEADER = ["policy"] + [field.name for field in dataclasses.fields(MetricsSummary)]
TRACE_HEADER = ["policy", "run", "stage", "state", "control", "observation"]
SWEEP_HEADER = ["density", "total_cost", "bound_value", "gamma_sizes", "exact"]
MAX_TRACE_RUNS = 10


class UsageError(Exception):
    pass


# ------------------------------------------------------------- plumbing --

def _fmt(x) -> str:
    """A CSV cell: floats, numpy's included, as repr(float(x)); anything else as str(x)."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, metadata: dict, header: list[str], rows: list[list], *,
               floats: bool = True) -> None:
    """Write the metadata comment, the header and the rows, each cell through `_fmt`.

    Rows written with floats=False hold only Python ints and strings, which
    csv.writer writes with the bytes `_fmt` gives, so they are written as they are.
    """
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(metadata, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        if floats:
            rows = ([_fmt(x) for x in row] for row in rows)
        writer.writerows(rows)


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
    """The model and costs the command runs on; invalid ones, a negative --horizon or
    --runs below 1 raise ValueError (exit 1) before the command does any work."""
    if getattr(args, "model", None):
        model, costs = load_model(args.model)
    else:
        model, costs = build_grid_agent()
    violations = validate_model(model) + validate_costs(costs, model)
    if violations:
        raise ValueError(f"invalid model, {len(violations)} violation(s):\n  "
                         + "\n  ".join(violations))
    horizon = getattr(args, "horizon", None)
    if horizon is not None and horizon < 0:
        raise ValueError(f"horizon {horizon} must be nonnegative")
    runs = getattr(args, "runs", None)
    if runs is not None and runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if horizon is not None and horizon != costs.horizon:
        if costs.horizon == 0:
            raise UsageError("cannot override the horizon of a model with no stage costs")
        base = costs.stage_cost[0]
        if any(not np.array_equal(costs.stage_cost[k], base) for k in range(costs.horizon)):
            raise UsageError("cannot override the horizon of a stage-dependent cost table")
        costs = make_cost_model(horizon=horizon, stage_cost=base,
                                terminal_cost=costs.terminal_cost)
    return model, costs


def _config_dict(args, costs, model_fingerprint: str, **extra) -> dict:
    d = {"model": getattr(args, "model", None) or "builtin:grid-agent",
         "horizon": costs.horizon,
         "model_fingerprint": model_fingerprint,
         "rng": "philox key=(seed, run_index)"}
    for key in ("objective", "base_points", "epsilon", "prune", "log_base", "runs", "seed"):
        if getattr(args, key, None) is not None:
            d[key] = getattr(args, key)
    d.update(extra)
    return d


def _summary_row(name: str, s: MetricsSummary) -> list:
    return [name, *dataclasses.astuple(s)]


def _resolve_policy(ref: str):
    """A --policy value is a builtin reference, which wins over a file of the same name and
    is a usage error if malformed, or a policy JSON path, loaded but not checked: the
    evaluating pass checks every policy. Returns (name, policy)."""
    try:
        if _builtin_control(ref) is not None:
            return ref, ref
    except ValueError as exc:
        raise UsageError(f"--policy: {exc}") from None
    path = Path(ref)
    if not path.exists():
        raise UsageError(
            f"policy {ref!r} is neither a builtin (always-east, fixed:<k>) nor an existing file"
        )
    return path.stem, load_policy(path)


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


def _reported_bound(model, policy, config) -> float:
    """Expected solver value at the initial updated belief.

    For the belief-sum objective the constant initial belief entropy is not
    part of the solved stage costs and is added here, at reporting time.
    """
    _, probabilities, beliefs = initial_level(model)
    total = 0.0
    for p, b in zip(probabilities, beliefs):
        v = value(policy, b, 0)
        if policy.objective == "belief-sum":
            v += belief_entropy(b, config)
        total += float(p) * v
    return total


def _solve(context: SolveContext, lattices: dict, args, objective: str, density: int,
           config):
    """The policy solved on the `density` lattice, and the seconds the solve took.

    Every solve of a command gets the command's one `context`, through `solve`
    itself, so the work the context shares runs inside the first solve.
    `lattices` maps a density to the command's one base-point set of it, built
    on first use, so solves at one density share it and its terminal tangents.
    """
    model = context.model
    if density not in lattices:
        lattices[density] = generate_base_points(model.n_states, density, args.epsilon)
    start = time.perf_counter()
    policy = solve(model, context.cost_model, objective, lattices[density], config,
                   context=context)
    return policy, time.perf_counter() - start


def _evaluate(model, costs, pairs, exact: bool, args, config, model_fingerprint: str,
              trace_runs: int = 0):
    """(name, summary) per (name, policy) pair, from one pass over every policy, exact or by
    Monte Carlo on common random numbers, and the `compare_policies` head of each policy's
    first `trace_runs` runs. The pass checks every policy, value policies against the
    command's `model_fingerprint`, before any draw or tree walk and so before the command
    writes anything; a command fingerprints its model once.

    The Monte Carlo head comes out of the evaluating pass itself. Exact evaluation
    simulates nothing, so its head, None without `trace_runs`, is one lockstep pass of
    `trace_runs` runs over every policy.
    """
    if not exact:
        return compare_policies(model, costs, pairs, args.runs, args.seed, config,
                                trace_runs=trace_runs, model_fingerprint=model_fingerprint)
    results = compare_policies_exactly(model, costs, pairs, config, seed=args.seed,
                                       model_fingerprint=model_fingerprint)
    if not trace_runs:
        return results, None
    return results, compare_policies(model, costs, pairs, trace_runs, args.seed, config,
                                     trace_runs=trace_runs, model_fingerprint=model_fingerprint)[1]


def _summary_line(name: str, s) -> str:
    return (f"{name}: terminal={s.terminal_cost:.4f} tbe={s.total_belief_entropy:.4f} "
            f"smoother={s.smoother_entropy:.4f} total={s.total_cost:.4f}")


def _sweep(model, config, densities: list[int], solves: dict, summaries: dict,
           exact: bool) -> list[list]:
    """sweep.csv's rows, each also printed: per density, the cost of its policy that
    `summaries` records under str(density), exact or by Monte Carlo as `exact` says, the
    reported bound and the stage sizes; `solves` maps a density to (policy, solve seconds)."""
    rows = []
    for density in densities:
        policy, elapsed = solves[density]
        rows.append([density, summaries[str(density)].total_cost,
                     _reported_bound(model, policy, config),
                     ";".join(str(x) for x in policy.gamma_sizes()), int(exact)])
        print(f"d={density}: total_cost={rows[-1][1]!r} bound={rows[-1][2]!r} "
              f"gammas={policy.gamma_sizes()} ({elapsed:.2f}s)")
    return rows


def _trace_rows(pairs, head) -> list[list]:
    """One row per stage of each policy's head runs, the (states, controls, observations)
    that `compare_policies` copied out of the leading runs of its pass: no run is
    simulated again for its trace. Every cell is a Python int or ""."""
    rows = []
    for (name, _), *runs in zip(pairs, *(a.tolist() for a in head)):
        for i, (states, controls, observations) in enumerate(zip(*runs)):
            stages = zip(states, controls + [""], observations)  # no control at stage T
            rows += ([name, i, k, *cells] for k, cells in enumerate(stages))
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
    if args.base_points < 1:
        raise UsageError(f"base-point density must be >= 1, got {args.base_points}")
    model, costs = _load_model_and_costs(args)
    config = EntropyConfig(args.log_base)
    context = SolveContext(model, costs)
    policy, elapsed = _solve(context, {}, args, args.objective, args.base_points, config)
    save_policy(args.out, policy,
                extra_metadata=_config_dict(args, costs, context.model_fingerprint))
    for k, size in enumerate(policy.gamma_sizes()):
        print(f"stage {k}: {size} vectors")
    print(f"solved {args.objective} in {elapsed:.2f}s -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    model, costs = _load_model_and_costs(args)
    config = EntropyConfig(args.log_base)
    pairs = [_resolve_policy(ref) for ref in args.policy]
    model_fingerprint = fingerprint(model, costs)
    trace_runs = (1 if args.exact else MAX_TRACE_RUNS) if args.trace else 0
    results, head = _evaluate(model, costs, pairs, args.exact, args, config, model_fingerprint,
                              trace_runs)
    metadata = _config_dict(args, costs, model_fingerprint,
                            **({"exact": True} if args.exact else {}))
    _write_csv(args.out, metadata, RESULTS_HEADER, [_summary_row(name, s) for name, s in results])
    for name, s in results:
        print(f"{name}: total_cost={s.total_cost!r} (exact)" if args.exact
              else _summary_line(name, s))
    if args.trace:
        _write_csv(args.trace, metadata, TRACE_HEADER, _trace_rows(pairs, head), floats=False)
    return 0


def cmd_sweep(args) -> int:
    model, costs = _load_model_and_costs(args)
    config = EntropyConfig(args.log_base)
    densities = _parse_densities(args.base_points)
    context = SolveContext(model, costs)
    solves = {density: _solve(context, {}, args, args.objective, density, config)
              for density in dict.fromkeys(densities)}
    exact = exact_refusal(model, costs.horizon) is None
    results, _ = _evaluate(model, costs, [(str(d), policy) for d, (policy, _) in solves.items()],
                           exact, args, config, context.model_fingerprint)
    rows = _sweep(model, config, densities, solves, dict(results), exact)
    _write_csv(args.out, _config_dict(args, costs, context.model_fingerprint), SWEEP_HEADER,
               rows)
    return 0


def cmd_experiment(args) -> int:
    model, costs = _load_model_and_costs(args)
    config = EntropyConfig(args.log_base)
    densities = _parse_densities(args.base_points)
    refusal = exact_refusal(model, costs.horizon)
    if refusal:
        raise ValueError(refusal)
    check_policy(model, costs, "always-east")  # the fixed baseline must be a control of the model
    d_main = max(densities)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    context, lattices = SolveContext(model, costs), {}
    solved = {}
    for objective in ("smoother", "belief-sum"):
        print(f"solving {objective} objective at d={d_main} ...")
        policy, elapsed = solved[objective] = _solve(context, lattices, args, objective, d_main,
                                                     config)
        print(f"  gammas={policy.gamma_sizes()} ({elapsed:.2f}s)")
    (active, active_s), (baseline, _) = solved["smoother"], solved["belief-sum"]

    save_model(out_dir / "model.json", model, costs)
    metadata = _config_dict(
        args, costs, context.model_fingerprint,
        gamma_sizes_smoother=active.gamma_sizes(),
        gamma_sizes_belief_sum=baseline.gamma_sizes(),
    )
    save_policy(out_dir / "active_smoothing.json", active, extra_metadata=metadata)
    save_policy(out_dir / "belief_sum.json", baseline, extra_metadata=metadata)

    policies = [("active-smoothing", active), ("belief-sum", baseline), ("always-east", "always-east")]
    print(f"simulating {args.runs} runs per policy ...")
    results, head = _evaluate(model, costs, policies, False, args, config,
                              context.model_fingerprint, trace_runs=1)
    # the sweep's other densities join table1's policies in one exact pass
    others = {d: _solve(context, lattices, args, "smoother", d, config)
              for d in dict.fromkeys(densities) if d != d_main}
    exact_results, _ = _evaluate(
        model, costs, policies + [(str(d), policy) for d, (policy, _) in others.items()],
        True, args, config, context.model_fingerprint)
    rows = [_summary_row(name, s) for name, s in results + exact_results[:len(policies)]]
    _write_csv(out_dir / "table1.csv", metadata, RESULTS_HEADER, rows)
    for name, s in results:
        print("  " + _summary_line(name, s))

    print(f"density sweep over {densities} ...")
    # the main density's row reuses table1's exact record of its smoother policy
    summaries = {**dict(exact_results), str(d_main): exact_results[0][1]}
    sweep_rows = _sweep(model, config, densities, {**others, d_main: (active, active_s)},
                        summaries, True)
    _write_csv(out_dir / "sweep.csv", metadata, SWEEP_HEADER, sweep_rows)

    _write_csv(out_dir / "realisations.csv", metadata, TRACE_HEADER, _trace_rows(policies, head),
               floats=False)

    (out_dir / "metadata.json").write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
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
    # the one pruning method, recorded in each run's config
    p.set_defaults(prune="lp")


@functools.cache  # built once per process; parsing never mutates it
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
    p.add_argument("--objective", choices=OBJECTIVES, default="smoother")
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
    p.add_argument("--objective", choices=OBJECTIVES, default="smoother")
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
    except (UsageError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, ModelFormatError, PolicyFormatError) as exc:
        print(f"error: unreadable input file ({exc})", file=sys.stderr)
        return 2
    except (PolicyModelMismatch, ImpossibleEvidence, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
