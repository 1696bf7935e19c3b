"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from active_smoothing import build_grid_agent, cli, make_cost_model  # noqa: E402


@pytest.fixture()
def tiny_rollouts(tmp_path, monkeypatch):
    """The rollouts workload at T=2 and 200 runs per policy, run once in tmp_path."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(workloads, "ROLLOUT_HORIZON", 2)
    monkeypatch.setattr(workloads, "ROLLOUT_RUNS", 200)
    workload = workloads.WORKLOADS["rollouts"]
    inputs = workload.setup(7)
    tracer = tracing.Tracer()
    tracer.patch(tracing.LAYERS)
    try:
        with tracer.root_span("bench.setup"):
            pass
        errors = run.run_round(workload, inputs, tracer, tracer.wrap("cli.main", cli.main))
    finally:
        tracer.restore()
    assert errors and not any(errors.values())
    return workload, inputs, tracer


def rewrite_csv(path, column, shift, row=0):
    """Add `shift` to one numeric cell of a result CSV, keeping its comment line."""
    lines = Path(path).read_text().splitlines(keepends=True)
    comment, body = lines[0], lines[1:]
    rows = list(csv.reader(body))
    col = rows[0].index(column)
    rows[row + 1][col] = repr(float(rows[row + 1][col]) + shift)
    with open(path, "w", newline="") as fh:
        fh.write(comment)
        csv.writer(fh).writerows(rows)


def failing(found: dict) -> set:
    return {op for op, messages in found.items() if messages}


def test_rollouts_checks_pass_then_catch_a_shifted_exact_total(tiny_rollouts):
    workload, inputs, _ = tiny_rollouts
    assert failing(workload.check(inputs)) == set()
    rewrite_csv("exact.csv", "total_cost", 1e-3)
    assert failing(workload.check(inputs)) == {"exact:smoother"}


def test_rollouts_checks_catch_monte_carlo_drift(tiny_rollouts):
    workload, inputs, _ = tiny_rollouts
    mc = {r["policy"]: r for r in checks.read_csv("mc.csv")}
    rewrite_csv("mc.csv", "smoother_entropy", 6 * float(mc["smoother"]["se_se"]) + 1e-6)
    assert failing(workload.check(inputs)) == {"mc:smoother"}


def test_rollouts_checks_catch_a_changed_policy(tiny_rollouts):
    workload, inputs, _ = tiny_rollouts
    d = json.loads(Path("belief_sum.json").read_text())
    for entry in d["stages"][0]:
        entry["values"] = [v - 10.0 for v in entry["values"]]
    Path("belief_sum.json").write_text(json.dumps(d))
    assert failing(workload.check(inputs)) == {"solve:belief-sum"}


def test_monte_carlo_check_allows_a_missed_rare_terminal_cost():
    exact = {"terminal_cost": "0.004656", "total_belief_entropy": "1.0",
             "smoother_entropy": "1.0", "total_cost": "1.0"}
    mc = dict(exact, runs="1000", terminal_cost="0.0", terminal_cost_se="0.0",
              tbe_se="0.01", se_se="0.01", tc_se="0.01")
    terminal = np.array([1.0, 1.0, 1.0, 0.0])
    assert checks.mc_matches_exact(mc, exact, terminal) == []
    mc["terminal_cost"] = "0.05"
    assert checks.mc_matches_exact(mc, exact, terminal)


def test_rollouts_checks_catch_different_starts(tiny_rollouts):
    rows = checks.read_csv("realisations.csv")
    first = next(r for r in rows if r["policy"] == "always-east" and r["stage"] == "0")
    first["state"] = str((int(first["state"]) + 1) % 4)
    assert checks.common_start(rows)
    assert not checks.common_start(checks.read_csv("realisations.csv"))


def test_traced_self_times_add_up_to_the_traced_wall_time(tiny_rollouts):
    _, _, tracer = tiny_rollouts
    setup, round_ = tracer.totals()
    total_self = sum(s["self_s"] for s in round_["spans"].values())
    assert total_self == pytest.approx(round_["wall_s"], rel=1e-9)
    metrics = run.per_layer_metrics(setup, [round_], span_cost=1e-6)
    self_metrics = [name for name, _, kind, _ in run.PER_LAYER if kind == "self"]
    assert (sum(metrics[name]["value"] for name in self_metrics)
            == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9))
    assert 0.9 < metrics["trace.attributed_ratio"]["value"] <= 1.0
    assert metrics["sim.rollouts"]["value"] == 3 * 200 + 3 * cli.MAX_TRACE_RUNS


def test_every_span_is_in_exactly_one_self_metric():
    spans = {span for _, _, span, _ in tracing.LAYERS} | {"cli.main", "bench.setup", "bench.round"}
    owners = [span for _, _, kind, members in run.PER_LAYER if kind == "self" for span in members]
    assert sorted(owners) == sorted(spans)


def test_random_solve_checks_catch_an_inessential_vector(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(workloads, "RANDOM_HORIZON", 1)
    monkeypatch.setattr(workloads, "RANDOM_DENSITY", 2)
    monkeypatch.setattr(workloads, "RANDOM_RUNS", 200)
    monkeypatch.setattr(workloads, "POOL_SIZE", 1)
    workload = workloads.WORKLOADS["random-solve"]
    inputs = workload.setup(3)
    errors = run.run_round(workload, inputs, tracing.Tracer(), cli.main)
    assert not any(errors.values())
    assert failing(workload.check(inputs)) == set()
    d = json.loads(Path("policy0.json").read_text())
    first = d["stages"][0][0]
    d["stages"][0].append({"values": [v + 1.0 for v in first["values"]], "action": first["action"]})
    Path("policy0.json").write_text(json.dumps(d))
    assert failing(workload.check(inputs)) == {"solve:m0"}
    rewrite_csv("exact0.csv", "terminal_cost", 1e-3)
    assert failing(workload.check(inputs)) == {"solve:m0", "exact:m0"}


def test_relabelling_keeps_the_problem_and_changes_the_input():
    a, ca = workloads.random_pool_model(0, seed=1)
    b, cb = workloads.random_pool_model(0, seed=2)
    assert not np.array_equal(a.transition, b.transition)
    assert sorted(a.prior) == sorted(b.prior)
    assert sorted(ca.terminal_cost) == sorted(cb.terminal_cost)


def test_bound_and_optimum_checks_on_the_grid_agent():
    model, costs = build_grid_agent()
    costs = make_cost_model(1, costs.stage_cost[0], costs.terminal_cost)
    opt = checks.optimum(model, costs, "smoother")
    assert checks.bound_holds("smoother", opt + 1e-3, opt, opt) == []
    assert checks.bound_holds("smoother", opt - 1e-3, opt, opt)
    assert checks.bound_holds("smoother", opt + 1e-3, opt - 1e-3, opt)


def test_remembered_digest_flags_a_different_rerun(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.remembered_digest("w seed=1", "aaa") is None
    assert run.remembered_digest("w seed=1", "aaa") is None
    assert run.remembered_digest("w seed=1", "bbb") == "aaa"


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    per_layer = [(name, unit) for name, unit, _, _ in run.PER_LAYER] + run.DERIVED
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer


def test_run_fails_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rollouts", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
