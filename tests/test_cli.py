from __future__ import annotations

import json

import numpy as np
import pytest

import _oracles as oracle
from active_smoothing import (
    build_grid_agent,
    exact_policy_metrics,
    fingerprint,
    load_policy,
    make_cost_model,
    save_model,
)
from active_smoothing.cli import (
    RESULTS_HEADER,
    SWEEP_HEADER,
    TRACE_HEADER,
    main,
    read_csv,
)

GRID_D2_EXACT_TOTAL = 1.8523955343318514


def write_grid(tmp_path, mutate=None):
    model, costs = build_grid_agent()
    path = tmp_path / "model.json"
    save_model(path, model, costs)
    if mutate is not None:
        d = json.loads(path.read_text())
        mutate(d)
        path.write_text(json.dumps(d))
    return path


# ---------------------------------------------------------------- validate --

def test_validate_accepts_builtin_and_files(tmp_path, capsys):
    path = write_grid(tmp_path)
    assert main(["validate", "--model", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    def break_column(d):
        d["transition"][0][0][0] = 0.9
    path = write_grid(tmp_path, break_column)
    assert main(["validate", "--model", str(path)]) == 1
    out = capsys.readouterr().out
    assert "violation" in out


def test_validate_missing_file_exits_two(tmp_path, capsys):
    assert main(["validate", "--model", str(tmp_path / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    assert main(["validate", "--model", str(path)]) == 2
    path.write_text(json.dumps({"prior": [1.0]}))
    assert main(["validate", "--model", str(path)]) == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _nan_transition(d):
    d["transition"][0][1][2] = float("nan")


def _nan_prior(d):
    d["prior"][0] = float("nan")


def _column_sums_to_one_and_a_half(d):
    d["transition"][0][1][0] = 0.5


def _nan_terminal_cost(d):
    d["terminal_cost"][0] = float("nan")


BAD_MODELS = [_nan_transition, _nan_prior, _column_sums_to_one_and_a_half, _nan_terminal_cost]


@pytest.mark.parametrize("mutate", BAD_MODELS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("command", [
    ["solve", "--base-points", "1", "--out", "p.json"],
    ["simulate", "--policy", "always-east", "--runs", "5", "--out", "r.csv"],
    ["sweep", "--base-points", "1", "--out", "s.csv"],
    ["experiment", "--base-points", "1", "--runs", "5", "--out", "exp"],
], ids=lambda argv: argv[0])
def test_commands_reject_invalid_models(tmp_path, monkeypatch, capsys, command, mutate):
    path = write_grid(tmp_path, mutate)
    monkeypatch.chdir(tmp_path)
    assert main([command[0], "--model", str(path), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert "invalid model" in err
    assert "not finite" in err or "sums to 1.5" in err or "finite and nonnegative" in err
    assert not (tmp_path / command[-1]).exists()
    # validate still gives its own report of the same file
    assert main(["validate", "--model", str(path)]) == 1
    assert "violation" in capsys.readouterr().out


# ------------------------------------------------------------------- solve --

def test_solve_writes_reproducible_policy(tmp_path, capsys):
    out1 = tmp_path / "p1.json"
    out2 = tmp_path / "p2.json"
    argv = ["solve", "--objective", "smoother", "--base-points", "2", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    printed = capsys.readouterr().out
    assert "stage 0: 245 vectors" in printed

    policy = load_policy(out1)
    assert policy.gamma_sizes() == [245, 66, 15, 4]
    model, costs = build_grid_agent()
    assert policy.model_fingerprint == fingerprint(model, costs)
    metrics = exact_policy_metrics(model, costs, policy)
    np.testing.assert_allclose(metrics.total_cost, GRID_D2_EXACT_TOTAL, atol=1e-10)

    stored = json.loads(out1.read_text())
    assert stored["run_config"]["model"] == "builtin:grid-agent"
    assert stored["run_config"]["model_fingerprint"] == fingerprint(model, costs)


def test_solve_horizon_override(tmp_path):
    out = tmp_path / "p.json"
    assert main(["solve", "--objective", "costs-only", "--base-points", "1",
                 "--horizon", "1", "--out", str(out)]) == 0
    policy = load_policy(out)
    assert policy.horizon == 1


# ---------------------------------------------------------------- simulate --

def test_simulate_csv_is_byte_identical_across_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["simulate", "--policy", "always-east", "--runs", "64", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    metadata, rows = read_csv(a)
    assert metadata["runs"] == 64
    assert metadata["seed"] == 7
    assert metadata["model_fingerprint"] == fingerprint(*build_grid_agent())
    assert "rng" in metadata
    assert list(rows[0].keys()) == RESULTS_HEADER
    assert rows[0]["policy"] == "always-east"
    assert int(rows[0]["runs"]) == 64


def test_simulate_matches_library_monte_carlo(tmp_path):
    from active_smoothing import monte_carlo

    out = tmp_path / "r.csv"
    assert main(["simulate", "--policy", "always-east", "--runs", "50",
                 "--seed", "3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    model, costs = build_grid_agent()
    summary = monte_carlo(model, costs, "always-east", runs=50, seed=3)
    assert float(rows[0]["total_cost"]) == summary.total_cost
    assert float(rows[0]["se_se"]) == summary.se_se


def test_simulate_exact_evaluation(tmp_path):
    out = tmp_path / "exact.csv"
    assert main(["simulate", "--exact", "--policy", "always-east",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert int(rows[0]["runs"]) == 0
    model, costs = build_grid_agent()
    exact = exact_policy_metrics(model, costs, "always-east")
    assert float(rows[0]["total_cost"]) == exact.total_cost
    assert float(rows[0]["tc_se"]) == 0.0


def test_simulate_trace_format(tmp_path):
    out = tmp_path / "r.csv"
    trace = tmp_path / "t.csv"
    assert main(["simulate", "--policy", "always-east", "--runs", "25",
                 "--seed", "11", "--out", str(out), "--trace", str(trace)]) == 0
    _, rows = read_csv(trace)
    assert list(rows[0].keys()) == TRACE_HEADER
    # traces are capped at ten rollouts, horizon+1 rows each
    assert len(rows) == 10 * 4
    by_run = {}
    for r in rows:
        by_run.setdefault(int(r["run"]), []).append(r)
    assert sorted(by_run) == list(range(10))
    for run_rows in by_run.values():
        assert [int(r["stage"]) for r in run_rows] == [0, 1, 2, 3]
        assert all(r["control"] == "2" for r in run_rows[:3])
        assert run_rows[3]["control"] == ""
        for r in run_rows:
            assert r["state"] in {"0", "1", "2", "3"}
            assert r["observation"] in {"0", "1"}


def test_trace_rows_are_the_first_runs_of_the_batch(tmp_path):
    from active_smoothing import rollout

    out, trace = tmp_path / "r.csv", tmp_path / "t.csv"
    assert main(["simulate", "--policy", "fixed:1", "--policy", "always-east", "--runs", "12",
                 "--seed", "5", "--out", str(out), "--trace", str(trace)]) == 0
    _, rows = read_csv(trace)
    model, costs = build_grid_agent()
    want = []
    for name, policy in (("fixed:1", 1), ("always-east", 2)):
        for i in range(10):
            rec = rollout(model, costs, policy, 5, run_index=i)
            want += [[name, str(i), str(k), str(rec.states[k]),
                      str(rec.controls[k]) if k < 3 else "", str(rec.observations[k])]
                     for k in range(4)]
    assert [list(r.values()) for r in rows] == want


def test_simulate_policy_file_and_mismatch(tmp_path):
    policy_path = tmp_path / "p.json"
    assert main(["solve", "--objective", "smoother", "--base-points", "1",
                 "--out", str(policy_path)]) == 0
    out = tmp_path / "r.csv"
    assert main(["simulate", "--policy", str(policy_path), "--runs", "10",
                 "--seed", "1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows[0]["policy"] == "p"

    # a policy solved for a different horizon is rejected
    assert main(["simulate", "--policy", str(policy_path), "--horizon", "2",
                 "--runs", "10", "--seed", "1", "--out", str(out)]) == 1


def test_simulate_unknown_policy_exits_two(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["simulate", "--policy", "always-north", "--runs", "5",
                 "--seed", "1", "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------------------- sweep --

def test_sweep_rows_and_exact_column(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--base-points", "1,2", "--out", str(out)]) == 0
    metadata, rows = read_csv(out)
    assert list(rows[0].keys()) == SWEEP_HEADER
    assert [int(r["density"]) for r in rows] == [1, 2]
    assert all(int(r["exact"]) == 1 for r in rows)
    np.testing.assert_allclose(float(rows[0]["total_cost"]), 1.65745209904789,
                               atol=1e-10)
    np.testing.assert_allclose(float(rows[1]["total_cost"]), GRID_D2_EXACT_TOTAL,
                               atol=1e-10)
    assert rows[1]["gamma_sizes"] == "245;66;15;4"
    # the reported tangent bound dominates the achieved cost at every density
    for r in rows:
        assert float(r["bound_value"]) >= float(r["total_cost"]) - 1e-9


def test_sweep_rejects_bad_densities(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--base-points", "0,2", "--out", str(out)]) == 2
    assert main(["sweep", "--base-points", "", "--out", str(out)]) == 2
    assert main(["sweep", "--base-points", "two", "--out", str(out)]) == 2


# ------------------------------------------------------------ file errors --

def test_horizon_override_with_stage_dependent_costs(tmp_path):
    model, _ = build_grid_agent()
    stage = np.zeros((3, 4, 3))
    stage[1, 0, 0] = 0.5
    costs = make_cost_model(3, stage, np.zeros(4))
    path = tmp_path / "model.json"
    save_model(path, model, costs)
    out = tmp_path / "r.csv"
    code = main(["simulate", "--model", str(path), "--horizon", "2",
                 "--policy", "always-east", "--runs", "5", "--seed", "1",
                 "--out", str(out)])
    assert code == 2
