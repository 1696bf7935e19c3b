"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload rollouts --seed 1 --seconds 15 --trace 0

Rounds of the workload repeat until `--seconds` have passed. With `--trace 0`
the end-to-end metrics are printed: per-round times averaged over the run,
timed with tracing off except around the few top-level solve and Monte Carlo
calls. With `--trace 1` every layer call is traced and the per-layer metrics,
medians over rounds, are printed instead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("paper-experiment", "random-solve", "rollouts")
SETUP_SAMPLES = 5

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("solve_s", "s"),
    ("mc_rollouts_per_s", "rollouts/s"),
    ("peak_rss_mb", "MiB"),
]

# (metric, unit, kind, span names); kind is calls, self (seconds), in or out.
# Every span name sits in exactly one "self" metric, so the self times add up
# to the traced wall time.
PER_LAYER = [
    ("solver.backup_s", "s", "self", ["solver.solve", "solver.backup", "solver.cap_cloud"]),
    ("solver.prune_calls", "count", "calls", ["solver.prune"]),
    ("solver.prune_s", "s", "self", ["solver.prune", "solver.witness_lp"]),
    ("solver.prune_vectors_in", "count", "in", ["solver.prune"]),
    ("solver.prune_vectors_out", "count", "out", ["solver.prune"]),
    ("solver.qhull_builds", "count", "calls", ["solver.qhull"]),
    ("solver.qhull_s", "s", "self", ["solver.qhull"]),
    ("solver.witness_lp_calls", "count", "calls", ["solver.witness_lp"]),
    ("solver.cap_hits", "count", "calls", ["solver.cap_cloud"]),
    ("solver.stage0_vectors", "count", "out", ["solver.solve"]),
    ("solver.best_action_calls", "count", "calls", ["solver.best_action"]),
    ("solver.best_action_s", "s", "self", ["solver.best_action"]),
    ("pwl.base_points_s", "s", "self", ["pwl.base_points"]),
    ("pwl.tangent_calls", "count", "calls", ["pwl.tangent"]),
    ("pwl.tangent_s", "s", "self", ["pwl.tangent", "costs.expected_next_entropy"]),
    ("costs.smoother_entropy_calls", "count", "calls", ["costs.smoother_entropy"]),
    ("costs.smoother_entropy_s", "s", "self", ["costs.smoother_entropy"]),
    ("costs.expected_next_entropy_calls", "count", "calls", ["costs.expected_next_entropy"]),
    ("belief.step_calls", "count", "calls", ["belief.step"]),
    ("belief.step_s", "s", "self", ["belief.step"]),
    ("model.fingerprint_calls", "count", "calls", ["model.fingerprint"]),
    ("model.fingerprint_s", "s", "self", ["model.fingerprint"]),
    ("sim.rollouts", "count", "calls", ["sim.rollout"]),
    ("sim.rollout_self_s", "s", "self",
     ["sim.rollout", "sim.monte_carlo", "sim.compare_policies"]),
    ("sim.check_policy_s", "s", "self", ["sim.check_policy"]),
    ("sim.exact_s", "s", "self", ["sim.exact"]),
    ("sim.exact_leaves", "count", "calls", ["sim.exact_leaf"]),
    ("sim.exact_leaf_s", "s", "self", ["sim.exact_leaf"]),
    ("cli.write_s", "s", "self", ["cli.write"]),
    ("cli.self_s", "s", "self", ["cli.main"]),
    ("bench.self_s", "s", "self", ["bench.setup", "bench.round"]),
]
DERIVED = [
    ("solver.prune_keep_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.attributed_ratio", "ratio"),
    ("trace.overhead_s", "s"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process, print it and exit")
    return p.parse_args(argv)


def machine_info() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    from active_smoothing import sim, solver

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*.so*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "EXACT_PRUNE_CAP": solver.EXACT_PRUNE_CAP, "SIZE_GUARD": sim.SIZE_GUARD,
    }


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def outputs_digest(workdir: Path) -> str:
    """sha256 over every file the round left in the work directory (policies, CSVs)."""
    h = hashlib.sha256()
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(workdir)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def remembered_digest(key: str, digest: str) -> str | None:
    """Store the digest under `key`; return an earlier run's digest if it differs."""
    path = OUT_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    earlier = known.setdefault(key, digest)
    tmp = path.with_suffix(f".{os.getpid()}")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return earlier if earlier != digest else None


def setup_samples(args) -> list[float]:
    """Set-up times from fresh interpreters, so each pays the imports again."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def layer_values(root: dict) -> dict:
    spans = root["spans"]
    values = {}
    for name, _, kind, members in PER_LAYER:
        key = {"calls": "calls", "self": "self_s", "in": "in", "out": "out"}[kind]
        values[name] = sum(spans[m][key] for m in members if m in spans)
    values["trace.spans"] = sum(s["calls"] for s in spans.values())
    values["trace.wall_s"] = root["wall_s"]
    return values


def per_layer_metrics(setup_root: dict, rounds: list[dict], span_cost: float) -> dict:
    """Median over rounds of the traced set-up plus the traced round, per metric."""
    setup = layer_values(setup_root)
    per_round = []
    for r in rounds:
        v = {k: setup[k] + x for k, x in layer_values(r).items()}
        v["solver.prune_keep_ratio"] = (v["solver.prune_vectors_out"]
                                        / max(v["solver.prune_vectors_in"], 1))
        program = sum(v[name] for name, _, kind, _ in PER_LAYER
                      if kind == "self" and not name.startswith("bench."))
        v["trace.attributed_ratio"] = program / v["trace.wall_s"]
        v["trace.overhead_s"] = span_cost * v["trace.spans"]
        per_round.append(v)
    units = {name: unit for name, unit, _, _ in PER_LAYER} | dict(DERIVED)
    values = {name: statistics.median(v[name] for v in per_round) for name in units}
    return {name: {"value": int(values[name]) if units[name] == "count"
                   and float(values[name]).is_integer() else values[name],
                   "unit": units[name]} for name in units}


def end_to_end_metrics(setup: list[float], rounds: list[dict]) -> dict:
    """Set-up median, and per-round times averaged over all of the run's rounds."""
    none = {"in": 0, "total_s": 0.0}  # a round whose commands failed early
    mc = [r["spans"].get("sim.compare_policies", none) for r in rounds]
    mc_seconds = sum(s["total_s"] for s in mc)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(r["wall_s"] for r in rounds),
        "solve_s": statistics.fmean(r["spans"].get("solver.solve", none)["total_s"]
                                    for r in rounds),
        "mc_rollouts_per_s": sum(s["in"] for s in mc) / mc_seconds if mc_seconds else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_round(workload, inputs, tracer, cli_main) -> dict[str, list[str]]:
    """Run the round's commands in order; {operation: error messages}."""
    errors: dict[str, list[str]] = {}
    with tracer.root_span("bench.round"):
        for argv, ops in workload.commands(inputs):
            try:
                with redirect_stdout(io.StringIO()):
                    code = cli_main(argv)
            except Exception:  # one failed command must not stop the round
                code = traceback.format_exc(limit=3)
            for op in ops:
                errors[op] = [] if code == 0 else [f"{argv[0]} returned {code}"]
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "active_smoothing").is_dir() or not (ROOT / "tests" / "_oracles.py").is_file():
        print(f"error: {ROOT} has no src/active_smoothing or tests/_oracles.py", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    home = os.getcwd()
    os.chdir(workdir)
    try:
        return run(args, workdir)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)


def check_round(workload, inputs, key: str, digest: str) -> dict[str, list[str]]:
    """Output checks and the cross-run digest check; {operation: messages}."""
    try:
        found = workload.check(inputs)
    except Exception:
        return {"check": ["check raised: " + traceback.format_exc(limit=3)]}
    earlier = remembered_digest(key, digest)
    if earlier is not None:
        found.setdefault("reproducible", []).append(
            f"outputs digest {digest} differs from an earlier run's {earlier}")
    return found


def run(args, workdir: Path) -> int:
    start = time.perf_counter()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    import tracer as tracing
    from active_smoothing import cli

    tracer = tracing.Tracer()
    if args.trace:
        tracer.patch(tracing.LAYERS)
        with tracer.root_span("bench.setup"):
            inputs = workload.setup(args.seed)
    else:
        inputs = workload.setup(args.seed)
        setup = [time.perf_counter() - start]
        tracer.patch(tracing.TIMERS)
    cli_main = tracer.wrap("cli.main", cli.main)

    failures: list[str] = []
    check_failed = False
    attempted = failed = 0
    digest = None
    began = time.perf_counter()
    while True:
        errors = run_round(workload, inputs, tracer, cli_main)
        round_digest = outputs_digest(workdir)
        found: dict[str, list[str]] = {}
        if digest is None:
            digest = round_digest
            if not any(errors.values()):  # a failed command leaves nothing whole to check
                found = check_round(workload, inputs,
                                    f"{args.workload} seed={args.seed} code={code_hash()}", digest)
        elif round_digest != digest:
            found = {"reproducible": [f"round digest {round_digest} differs from {digest}"]}
        # a failure not tied to one operation fails every operation of the round
        shared = [m for op, ms in found.items() if op not in errors for m in ms]
        for op in errors:
            messages = errors[op] + found.get(op, []) + shared
            check_failed |= len(messages) > len(errors[op])
            failed += bool(messages)
            failures += [f"round {attempted // len(errors) + 1} {op}: {m}" for m in messages]
        attempted += len(errors)
        if time.perf_counter() - began >= args.seconds:
            break
    tracer.restore()

    roots = tracer.totals()
    rounds = [r for r in roots if r["root"] == "bench.round"]
    if args.trace:
        metrics = per_layer_metrics(roots[0], rounds, tracing.span_cost())
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        metrics = end_to_end_metrics(setup + setup_samples(args), rounds)

    machine = machine_info()
    result = {"correct": not check_failed, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "digest": digest,
              "machine": machine, "failures": failures, **result}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    print("machine " + json.dumps(machine))
    print(f"rounds {len(rounds)} digest {digest}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
