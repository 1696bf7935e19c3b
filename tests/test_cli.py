from __future__ import annotations

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as oracle
from active_smoothing import (
    build_grid_agent,
    exact_policy_metrics,
    fingerprint,
    load_policy,
    make_cost_model,
    save_model,
)
from active_smoothing import cli, sim, solver
from active_smoothing.cli import (
    SWEEP_HEADER,
    TRACE_HEADER,
    main,
    read_csv,
)
from active_smoothing.model import COST_LIMIT, model_to_dict

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


@pytest.mark.parametrize("horizon", [2.7, 3.0, True, "3", None],
                         ids=["fraction", "float", "bool", "string", "null"])
def test_validate_rejects_a_non_integer_horizon(tmp_path, capsys, horizon):
    def set_horizon(d):
        d["horizon"] = horizon
    path = write_grid(tmp_path, set_horizon)
    assert main(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: unreadable input file (model field 'horizon' is not an integer: {horizon!r})\n")


def test_validate_missing_file_exits_two(tmp_path, capsys):
    assert main(["validate", "--model", str(tmp_path / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    assert main(["validate", "--model", str(path)]) == 2
    path.write_text(json.dumps({"prior": [1.0]}))
    assert main(["validate", "--model", str(path)]) == 2
    path.write_text("[]")
    assert main(["validate", "--model", str(path)]) == 2


@pytest.mark.parametrize("field, entry", [
    ("prior", {}), ("terminal_cost", {}), ("observation", 0),
    ("stage_cost", [[[0.0, 0.0, 0.0]], [[0.0, 0.0]]]), ("transition", [[[1.0]], [[{}]]]),
    ("prior", [0.25, 0.25, 0.25, True]), ("prior", [0.25, 0.25, 0.25, "0.25"]),
    ("prior", [0.25, 0.25, 0.25, 10**400]), ("initial_observation", None),
], ids=["object-prior", "object-terminal-cost", "scalar-observation", "ragged-stage-cost",
        "nested-object", "bool-entry", "string-entry", "beyond-float-entry",
        "null-initial-observation"])
def test_commands_refuse_an_unreadable_model_field_with_exit_two(tmp_path, capsys, field,
                                                                  entry):
    def set_field(d):
        d[field] = entry
    path = write_grid(tmp_path, set_field)
    out = tmp_path / "r.csv"
    for argv in (["validate", "--model", str(path)],
                 ["simulate", "--model", str(path), "--policy", "always-east", "--runs", "5",
                  "--out", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: unreadable input file (model field {field!r} is not")
    assert not out.exists()


# one field of the written grid model deleted or set to another JSON value
DELETED = object()
MODEL_MUTATIONS = [DELETED, None, True, 2.7, -1, "x", [], {}, [[0.5], [0.5, 0.5]],
                   float("nan"), 1e308]


@given(field=st.sampled_from(sorted(model_to_dict(*build_grid_agent()))),
       entry=st.sampled_from(MODEL_MUTATIONS))
def test_a_mutated_model_file_exits_with_a_documented_code(tmp_path_factory, field, entry):
    tmp = tmp_path_factory.mktemp("mutated")

    def mutate(d):
        if entry is DELETED:
            del d[field]
        else:
            d[field] = entry
    path = write_grid(tmp, mutate)
    out = tmp / "r.csv"
    for argv in (["validate", "--model", str(path)],
                 ["simulate", "--model", str(path), "--policy", "always-east", "--runs", "5",
                  "--out", str(out)]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)  # an exception escaping main is a traceback at the command line
        assert code in (0, 1, 2)
        err = stderr.getvalue()
        if argv[0] == "validate" and not err:  # its report, on stdout
            assert stdout.getvalue().endswith("ok\n" if code == 0 else "violation(s)\n")
        else:
            assert err == "" if code == 0 else err.startswith("error: ")
        assert out.exists() == (argv[0] == "simulate" and code == 0)


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


def test_costs_past_the_limit_are_refused_and_costs_at_it_give_finite_statistics(
        tmp_path, capsys):
    def huge_terminal_cost(d):
        d["terminal_cost"] = [1e308] * 4
    path = write_grid(tmp_path, huge_terminal_cost)
    assert main(["validate", "--model", str(path)]) == 1
    assert "terminal_cost entries must be finite and nonnegative, at most 1e+100" in (
        capsys.readouterr().out)

    def at_the_limit(d):
        d["terminal_cost"] = [COST_LIMIT] * 4
        d["stage_cost"] = [[[COST_LIMIT] * 3] * 4] * 3
    path = write_grid(tmp_path, at_the_limit)
    assert main(["validate", "--model", str(path)]) == 0
    out = tmp_path / "r.csv"
    for exact in ([], ["--exact"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow in any mean or SE would raise
            assert main(["simulate", "--model", str(path), "--policy", "always-east",
                         "--policy", "fixed:0", "--runs", "50", "--out", str(out),
                         *exact]) == 0
        for row in read_csv(out)[1]:
            numbers = [float(row[field]) for field in row if field not in ("policy", "log_base")]
            assert np.isfinite(numbers).all()
            assert float(row["total_cost"]) > 3 * COST_LIMIT


# ------------------------------------------------------------------- solve --

def test_solve_writes_reproducible_policy(tmp_path, capsys):
    out1 = tmp_path / "p1.json"
    out2 = tmp_path / "p2.json"
    argv = ["solve", "--objective", "smoother", "--base-points", "2", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    printed = capsys.readouterr().out
    assert "stage 0: 2 vectors" in printed

    policy = load_policy(out1)
    assert policy.gamma_sizes() == [2, 10, 10, 4]  # the reachable tree's backup
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


@pytest.mark.parametrize("command", [["solve"], ["simulate", "--policy", "always-east"],
                                     ["sweep"]])
def test_negative_horizon_override_is_rejected(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main(command + ["--horizon", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: horizon -1 must be nonnegative\n"
    assert not out.exists()


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
    # the results file format: src derives these columns from MetricsSummary's fields
    assert list(rows[0].keys()) == [
        "policy", "runs", "terminal_cost", "terminal_cost_se",
        "total_belief_entropy", "tbe_se", "smoother_entropy", "se_se",
        "total_cost", "tc_se", "log_base", "seed",
    ]
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


def _grid_block_budget(block_runs: int, n_policies: int) -> int:
    """The sim.ROLLOUT_CHUNK at which Monte Carlo of `n_policies` policies on the grid agent
    advances blocks of `block_runs` runs: the words such a block holds."""
    model, costs = build_grid_agent()
    return sim._block_words(model, costs.horizon, n_policies, block_runs)


def test_trace_rows_are_the_first_runs_of_the_batch(tmp_path, monkeypatch):
    from active_smoothing import rollout

    policy_path = tmp_path / "p.json"
    assert main(["solve", "--base-points", "1", "--out", str(policy_path)]) == 0
    refs = [(str(policy_path), "p", load_policy(policy_path)), ("fixed:1", "fixed:1", 1),
            ("always-east", "always-east", 2)]
    model, costs = build_grid_agent()
    want = []
    for _, name, policy in refs:
        for i in range(10):
            rec = rollout(model, costs, policy, 5, run_index=i)
            want += [[name, str(i), str(k), str(rec.states[k]),
                      str(rec.controls[k]) if k < 3 else "", str(rec.observations[k])]
                     for k in range(4)]
    out, trace = tmp_path / "r.csv", tmp_path / "t.csv"
    # one block of 12 runs, then blocks of 3: the ten traced runs span four, the last partial
    for chunk in (sim.ROLLOUT_CHUNK, _grid_block_budget(3, len(refs))):
        monkeypatch.setattr(sim, "ROLLOUT_CHUNK", chunk)
        assert main(["simulate", *(arg for ref, _, _ in refs for arg in ("--policy", ref)),
                     "--runs", "12", "--seed", "5", "--out", str(out),
                     "--trace", str(trace)]) == 0
        _, rows = read_csv(trace)
        assert [list(r.values()) for r in rows] == want


@pytest.mark.parametrize("block, starts", [(None, [(0, 10)]), (4, [(0, 4), (4, 8), (8, 10)])],
                         ids=["one-block", "blocks-of-4"])
def test_traced_commands_draw_each_monte_carlo_block_once(tmp_path, monkeypatch, block, starts):
    # the trace rows come out of the Monte Carlo pass: no traced run is drawn a second time
    drawn, uniforms = [], sim._uniforms
    monkeypatch.setattr(sim, "_uniforms",
                        lambda *args: drawn.append(args[1:3]) or uniforms(*args))
    if block is not None:
        monkeypatch.setattr(sim, "ROLLOUT_CHUNK", _grid_block_budget(block, 3))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--policy", "always-east", "--policy", "fixed:0", "--policy",
                 "fixed:1", "--runs", "10", "--out", "r.csv", "--trace", "t.csv"]) == 0
    assert drawn == starts
    drawn.clear()
    assert main(["experiment", "--base-points", "1", "--runs", "10", "--out", "exp"]) == 0
    assert drawn == starts


def test_experiments_default_comparison_is_one_block(tmp_path, monkeypatch):
    # 10^4 runs of three policies at T=3, with at most 518 histories per policy: the
    # block counts those groups, not one per row, so every run fits in one block
    blocks, advance = [], sim._advance
    monkeypatch.setattr(sim, "_advance",
                        lambda *args: blocks.append(args[5] - args[4]) or advance(*args))
    assert main(["experiment", "--out", str(tmp_path / "exp")]) == 0
    assert blocks == [10_000]


def test_simulate_exact_trace_is_one_lockstep_pass_of_every_policy(tmp_path, monkeypatch):
    from active_smoothing import rollout

    passes, advance = [], sim._advance
    monkeypatch.setattr(sim, "_advance",
                        lambda *args: passes.append((len(args[2]), args[5] - args[4]))
                        or advance(*args))
    trace = tmp_path / "t.csv"
    assert main(["simulate", "--exact", "--policy", "fixed:1", "--policy", "always-east",
                 "--seed", "8", "--out", str(tmp_path / "r.csv"), "--trace", str(trace)]) == 0
    assert passes == [(2, 1)]  # both policies' rules, one run
    metadata, rows = read_csv(trace)
    assert metadata["exact"] is True
    model, costs = build_grid_agent()
    want = []
    for name, policy in (("fixed:1", 1), ("always-east", 2)):
        rec = rollout(model, costs, policy, 8)
        want += [[name, "0", str(k), str(rec.states[k]),
                  str(rec.controls[k]) if k < 3 else "", str(rec.observations[k])]
                 for k in range(4)]
    assert [list(r.values()) for r in rows] == want


def test_csv_cells_write_numpy_scalars_as_python_values(tmp_path):
    cells = [np.float64(0.5), np.int64(-3), 0.1, np.float32(0.25), 1 / 3, "x"]
    assert [cli._fmt(x) for x in cells] == ["0.5", "-3", "0.1", "0.25", repr(1 / 3), "x"]
    path = tmp_path / "c.csv"
    cli._write_csv(path, {}, ["a", "b", "c"], [[np.float64(0.1), np.int64(2), 0.1]])
    assert read_csv(path)[1] == [{"a": "0.1", "b": "2", "c": "0.1"}]


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


def _actions_out_of_range(d):
    for entry in d["stages"][0]:
        entry["action"] = 7


def _three_state_rows(d):
    for entry in d["stages"][1]:
        entry["values"] = entry["values"][:3]


@pytest.mark.parametrize("exact", [False, True], ids=["monte-carlo", "exact"])
@pytest.mark.parametrize("mutate, message", [
    (_actions_out_of_range, "error: policy stage 0 has actions outside the model's controls"),
    (_three_state_rows, "error: policy stage 1 value rows do not have the model's 4 states"),
], ids=["actions", "width"])
def test_simulate_rejects_policy_arrays_that_do_not_fit_the_model(tmp_path, capsys,
                                                                  mutate, message, exact):
    # the fingerprint matches, so only the policy's own arrays are wrong
    policy_path = tmp_path / "p.json"
    assert main(["solve", "--base-points", "1", "--out", str(policy_path)]) == 0
    d = json.loads(policy_path.read_text())
    mutate(d)
    policy_path.write_text(json.dumps(d))
    capsys.readouterr()
    out = tmp_path / "r.csv"
    argv = ["simulate", "--policy", str(policy_path), "--runs", "10", "--out", str(out)]
    assert main(argv + (["--exact"] if exact else [])) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.fixture(scope="module")
def grid_d2_policy(tmp_path_factory):
    path = tmp_path_factory.mktemp("policy") / "p.json"
    assert main(["solve", "--base-points", "2", "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("exact", [False, True], ids=["monte-carlo", "exact"])
@pytest.mark.parametrize("stage, field, entry", [
    (0, "action", None), (0, "action", 1.5), (0, "action", True), (0, "action", "1"),
    (0, "action", 10**30), (-1, "action", 0),
    # the value rows of the first entry: every other row has the model's 4 states
    (0, "values", [0.0, float("nan"), 0.0, 0.0]), (0, "values", [float("inf"), 0.0, 0.0, 0.0]),
    (0, "values", [0.0, 0.0, 0.0]), (0, "values", [0.0, "1", 0.0, 0.0]),
    (0, "values", [0.0, True, 0.0, 0.0]), (0, "values", [10**400, 0.0, 0.0, 0.0]),
    (-1, "values", None),
    # stage None: a top-level field; field None: the stage's first entry; both: the
    # policy wrapped in a list
    (None, "base_point_density", 2.7), (None, "base_point_density", True),
    (None, "base_point_density", 0), (None, "objective", 5), (None, "objective", "bogus"),
    (None, "epsilon_interior", float("nan")), (None, "epsilon_interior", "abc"),
    (None, "epsilon_interior", 10**400), (None, "log_base", "7"),
    (None, "model_fingerprint", 3), (None, "stages", 5), (None, "stages", []),
    (0, None, 5), (None, None, None),
], ids=["null", "fraction", "bool", "string", "beyond-int64", "terminal-integer",
        "nan-value", "infinite-value", "short-row", "string-value", "bool-value",
        "beyond-float-value", "null-row",
        "fractional-density", "bool-density", "zero-density", "number-objective",
        "unknown-objective", "nan-epsilon", "string-epsilon", "beyond-float-epsilon",
        "unknown-log-base", "number-fingerprint", "number-stages", "no-stages",
        "number-entry", "top-level-list"])
def test_simulate_rejects_unreadable_policy_actions(
        tmp_path, capsys, grid_d2_policy, stage, field, entry, exact):
    d = json.loads(json.dumps(grid_d2_policy))
    if stage is None and field is None:
        d = [d]
    elif stage is None:
        d[field] = entry
    elif field is None:
        d["stages"][stage][0] = entry
    else:
        d["stages"][stage][0][field] = entry
    policy_path = tmp_path / "p.json"
    policy_path.write_text(json.dumps(d))
    capsys.readouterr()
    out = tmp_path / "r.csv"
    argv = ["simulate", "--policy", str(policy_path), "--runs", "10", "--out", str(out)]
    assert main(argv + (["--exact"] if exact else [])) == 2
    assert capsys.readouterr().err.startswith("error: unreadable input file (")
    assert not out.exists()


@pytest.mark.parametrize("exact", [False, True], ids=["monte-carlo", "exact"])
def test_simulate_refuses_a_policy_with_an_empty_stage(tmp_path, capsys, grid_d2_policy, exact):
    d = json.loads(json.dumps(grid_d2_policy))
    d["stages"][1] = []
    policy_path = tmp_path / "p.json"
    policy_path.write_text(json.dumps(d))
    capsys.readouterr()
    out = tmp_path / "r.csv"
    argv = ["simulate", "--policy", str(policy_path), "--runs", "10", "--out", str(out)]
    assert main(argv + (["--exact"] if exact else [])) == 2
    assert capsys.readouterr().err == (
        "error: unreadable input file (policy stages are not a non-empty list of non-empty "
        "lists of objects)\n")
    assert not out.exists()


# one top-level field of the written grid policy, or the values or action of one
# stage's first entry (stage 3 is the terminal one)
POLICY_TARGETS = ([(None, key) for key in ("base_point_density", "epsilon_interior", "log_base",
                                           "model_fingerprint", "objective", "run_config",
                                           "stages")]
                  + [(k, key) for k in range(4) for key in ("values", "action")])


@given(target=st.sampled_from(POLICY_TARGETS), entry=st.sampled_from(MODEL_MUTATIONS))
def test_a_mutated_policy_file_exits_with_a_documented_code(tmp_path_factory, grid_d2_policy,
                                                            target, entry):
    tmp = tmp_path_factory.mktemp("mutated")
    d = json.loads(json.dumps(grid_d2_policy))
    stage, key = target
    holder = d if stage is None else d["stages"][stage][0]
    if entry is DELETED:
        del holder[key]
    else:
        holder[key] = entry
    path = tmp / "p.json"
    path.write_text(json.dumps(d))
    out = tmp / "r.csv"
    for exact in ([], ["--exact"]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["simulate", "--policy", str(path), "--runs", "5", "--out", str(out),
                         *exact])  # an exception escaping main is a traceback
        err = stderr.getvalue()
        if code == 0:  # a mutation the policy does not read, or a value it accepts
            assert err == "" and out.exists()
            out.unlink()
        else:
            assert code in (1, 2)
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()


def test_simulate_unknown_policy_exits_two(tmp_path, monkeypatch, capsys):
    # neither a builtin nor a file, or a malformed builtin: refused before any evaluation
    monkeypatch.chdir(tmp_path)
    for name in ("compare_policies", "compare_policies_exactly"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("evaluated"))
    for ref in ("always-north", "fixed:abc", "fixed:", "fixed: 1", "fixed:1_0"):
        for exact in ([], ["--exact"]):
            assert main(["simulate", "--policy", "always-east", "--policy", ref, "--runs", "5",
                         "--out", "r.csv", "--trace", "t.csv", *exact]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"policy {ref!r}" in err
            assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exact", [False, True], ids=["monte-carlo", "exact"])
@pytest.mark.parametrize("ref, n_controls", [("fixed:9", 3), ("always-east", 2)])
def test_simulate_out_of_range_builtin_exits_one_naming_it(tmp_path, capsys, ref, n_controls,
                                                           exact):
    rng = np.random.default_rng(n_controls)
    model = oracle.random_model(rng, n_states=3, n_obs=2, n_controls=n_controls)
    model_path, out = tmp_path / "model.json", tmp_path / "r.csv"
    save_model(model_path, model, oracle.random_costs(rng, model, 2))
    argv = ["simulate", "--model", str(model_path), "--policy", ref, "--runs", "5",
            "--out", str(out)]
    assert main(argv + (["--exact"] if exact else [])) == 1
    control = ref.rpartition(":")[2] if ref.startswith("fixed:") else "2"
    assert capsys.readouterr().err == (f"error: policy {ref!r}: control {control} out of range "
                                       f"[0, {n_controls})\n")
    assert not out.exists()


def test_builtin_wins_over_a_file_of_the_same_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fixed:1").write_text("not a policy")
    assert main(["simulate", "--policy", "fixed:1", "--runs", "5", "--out", "r.csv"]) == 0
    assert read_csv(tmp_path / "r.csv")[1][0]["policy"] == "fixed:1"


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
    assert rows[1]["gamma_sizes"] == "2;10;10;4"
    # the reported tangent bound dominates the achieved cost at every density
    for r in rows:
        assert float(r["bound_value"]) >= float(r["total_cost"]) - 1e-9


def test_experiment_and_sweep_write_the_same_sweep_rows(tmp_path):
    # one loop builds both commands' rows: experiment's main-density row reuses its
    # table1.csv solve and record, sweep solves and evaluates every density itself
    assert main(["experiment", "--seed", "12345", "--out", str(tmp_path / "exp")]) == 0
    assert main(["sweep", "--seed", "12345", "--out", str(tmp_path / "sweep.csv")]) == 0
    experiment_rows = (tmp_path / "exp" / "sweep.csv").read_text().splitlines()[1:]
    sweep_rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(sweep_rows) == 1 + 5  # the header and the default densities 1-5
    assert experiment_rows == sweep_rows


def test_out_of_memory_exits_one_with_an_error_line(tmp_path, monkeypatch, capsys):
    message = "Unable to allocate 9.04 GiB for an array with shape (17420, 17420, 4)"

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "solve", no_memory)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--base-points", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: out of memory ({message})\n"
    assert not out.exists()


@pytest.mark.parametrize("guard, exact", [(256, 1), (255, 0)])
def test_size_guard_sets_exact_evaluation_and_the_sweep_together(tmp_path, monkeypatch,
                                                                  guard, exact):
    # the grid agent at T=3: 2^4 observation paths of 4 x 4 joints, 256 entries
    monkeypatch.setattr(sim, "SIZE_GUARD", guard)
    model, costs = build_grid_agent()
    if exact:
        exact_policy_metrics(model, costs, "always-east")
    else:
        with pytest.raises(ValueError, match="256 joint terms"):
            exact_policy_metrics(model, costs, "always-east")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--base-points", "1", "--runs", "50", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert int(rows[0]["exact"]) == exact


def _spy_exact_passes(monkeypatch) -> list:
    """Record each exact pass's policy names: one list per `cli.compare_policies_exactly`
    call, and its passes' sizes after it."""
    calls, batch, exact_pass = [], cli.compare_policies_exactly, sim._exact_pass

    def recording_batch(model, costs, policies, *args, **kwargs):
        calls.append([name for name, _ in policies])
        return batch(model, costs, policies, *args, **kwargs)

    monkeypatch.setattr(cli, "compare_policies_exactly", recording_batch)
    monkeypatch.setattr(sim, "_exact_pass",
                        lambda model, costs, decides, config: calls.append(len(decides))
                        or exact_pass(model, costs, decides, config))
    return calls


def test_experiment_evaluates_each_policy_exactly_once(tmp_path, monkeypatch):
    # one exact pass holds table1's three policies and the sweep's other densities;
    # sweep.csv's row at the main density reuses table1.csv's exact record of the policy
    calls = _spy_exact_passes(monkeypatch)
    out = tmp_path / "exp"
    assert main(["experiment", "--runs", "10", "--out", str(out)]) == 0
    assert calls == [["active-smoothing", "belief-sum", "always-east", "1", "2", "3", "4"], 7]
    _, table = read_csv(out / "table1.csv")
    _, sweep = read_csv(out / "sweep.csv")
    active = next(r for r in table if r["policy"] == "active-smoothing" and r["runs"] == "0")
    assert sweep[-1]["total_cost"] == active["total_cost"]


@pytest.mark.parametrize("command, names", [
    (["simulate", "--exact", "--policy", "always-east", "--policy", "fixed:1",
      "--policy", "fixed:0", "--out", "r.csv"], ["always-east", "fixed:1", "fixed:0"]),
    (["sweep", "--base-points", "3,1,2", "--out", "s.csv"], ["3", "1", "2"]),
], ids=["simulate", "sweep"])
def test_an_exact_command_makes_one_pass(tmp_path, monkeypatch, command, names):
    monkeypatch.chdir(tmp_path)
    calls = _spy_exact_passes(monkeypatch)
    assert main(command) == 0
    assert calls == [names, len(names)]


def test_a_monte_carlo_sweep_makes_one_pass(tmp_path, monkeypatch):
    # the grid agent at T=3 needs 256 joint terms, so under a guard of 255 the sweep
    # evaluates every density in one Monte Carlo pass, hashing the model once in it
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sim, "SIZE_GUARD", 255)
    calls, hashed, compare = [], [], cli.compare_policies

    def recording_compare(model, costs, policies, *args, **kwargs):
        calls.append([name for name, _ in policies])
        return compare(model, costs, policies, *args, **kwargs)

    monkeypatch.setattr(cli, "compare_policies", recording_compare)
    for name in ("monte_carlo", "compare_policies_exactly"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("evaluated apart"))
    for module in (cli, sim, solver):
        monkeypatch.setattr(module, "fingerprint",
                            lambda *args: hashed.append(1) or fingerprint(*args))
    assert main(["sweep", "--base-points", "3,1,2", "--runs", "50", "--out", "s.csv"]) == 0
    assert calls == [["3", "1", "2"]]
    assert hashed == [1]


def test_a_monte_carlo_sweeps_rows_are_each_densitys_own_monte_carlo(tmp_path, monkeypatch):
    # the joint pass of three policies advances three blocks of 100, each density alone two
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sim, "SIZE_GUARD", 255)
    monkeypatch.setattr(sim, "ROLLOUT_CHUNK", _grid_block_budget(100, 3))
    assert main(["sweep", "--base-points", "3,1,2", "--runs", "300", "--seed", "4",
                 "--out", "s.csv"]) == 0
    _, rows = read_csv(tmp_path / "s.csv")
    model, costs = build_grid_agent()
    assert [row["density"] for row in rows] == ["3", "1", "2"]
    for row in rows:
        assert main(["solve", "--base-points", row["density"], "--out", "p.json"]) == 0
        alone = sim.monte_carlo(model, costs, load_policy("p.json"), 300, 4)
        assert (row["total_cost"], row["exact"]) == (repr(alone.total_cost), "0")


@pytest.mark.parametrize("exact", [False, True], ids=["monte-carlo", "exact"])
def test_simulate_fingerprints_once(tmp_path, monkeypatch, capsys, exact):
    # the command hashes once for its policy files and its run config, and the evaluating
    # pass checks every policy against that hash
    monkeypatch.chdir(tmp_path)
    for objective in ("smoother", "belief-sum"):
        assert main(["solve", "--objective", objective, "--base-points", "1",
                     "--out", f"{objective}.json"]) == 0
    hashed, checked, check = [], [], sim.check_policy
    for module in (cli, sim, solver):
        monkeypatch.setattr(module, "fingerprint",
                            lambda *args, module=module: hashed.append(module.__name__)
                            or fingerprint(*args))
    for module in (cli, sim):  # every check, whichever module makes it
        monkeypatch.setattr(module, "check_policy",
                            lambda *args, module=module: checked.append(module.__name__)
                            or check(*args))
    argv = ["simulate", "--policy", "smoother.json", "--policy", "belief-sum.json",
            "--policy", "always-east", "--runs", "20", *(["--exact"] if exact else [])]
    assert main(argv + ["--out", "r.csv"]) == 0
    assert hashed == ["active_smoothing.cli"]
    assert checked == ["active_smoothing.sim"] * 3  # once per policy, in the pass
    # a traced run's head pass checks against the same hash; an exact run's head is a
    # second pass, which checks every policy again
    hashed.clear()
    checked.clear()
    assert main(argv + ["--out", "t.csv", "--trace", "t-trace.csv"]) == 0
    assert hashed == ["active_smoothing.cli"]
    assert checked == ["active_smoothing.sim"] * (6 if exact else 3)
    # a mismatched file exits 1 on the command's hash, before any draw or tree walk
    hashed.clear()
    capsys.readouterr()
    monkeypatch.setattr(sim, "_uniforms", lambda *args: pytest.fail("drew uniforms"))
    monkeypatch.setattr(sim, "_exact_pass", lambda *args: pytest.fail("walked a tree"))
    assert main(argv + ["--horizon", "2", "--out", "mismatch.csv"]) == 1
    assert capsys.readouterr().err.startswith("error: policy fingerprint ")
    assert hashed == ["active_smoothing.cli"]
    assert not (tmp_path / "mismatch.csv").exists()
    # every --policy resolves before the pass checks any, so a malformed builtin beside a
    # mismatched file is the usage error
    assert main(argv + ["--policy", "fixed:abc", "--horizon", "2", "--out", "mismatch.csv"]) == 2
    assert capsys.readouterr().err.startswith("error: --policy: malformed builtin policy ")
    assert not (tmp_path / "mismatch.csv").exists()


@pytest.mark.parametrize("command, solves", [
    (["solve", "--base-points", "1", "--out", "p.json"], 1),
    (["sweep", "--base-points", "2,1", "--runs", "10", "--out", "s.csv"], 2),
    (["experiment", "--base-points", "1,2", "--runs", "10", "--out", "exp"], 3),
], ids=["solve", "sweep", "experiment"])
def test_a_solving_command_enumerates_and_fingerprints_once(tmp_path, monkeypatch, command,
                                                            solves):
    # one context for every solve of the command, whose work runs inside the first
    # solve, and the run config and every evaluating pass read the context's hash
    monkeypatch.chdir(tmp_path)
    contexts, enumerated, hashed = [], [], []
    solve, levels, fingerprint_ = cli.solve, solver._reachable_levels, solver.fingerprint

    def recording_solve(*args, context, **kwargs):
        contexts.append(context)
        return solve(*args, context=context, **kwargs)

    monkeypatch.setattr(cli, "solve", recording_solve)
    monkeypatch.setattr(solver, "_reachable_levels",
                        lambda *args: enumerated.append(len(contexts)) or levels(*args))
    for module in (cli, sim, solver):
        monkeypatch.setattr(module, "fingerprint",
                            lambda *args: hashed.append(len(contexts)) or fingerprint_(*args))
    assert main(command) == 0
    assert len(contexts) == solves
    assert all(context is contexts[0] for context in contexts)
    assert enumerated == [1]  # during the first solve
    assert hashed == [1]


def test_experiment_builds_each_lattice_and_its_terminal_tangents_once(tmp_path, monkeypatch):
    # both objectives solve on the main density's one lattice and share its terminal
    # tangents; every other density is solved once
    monkeypatch.chdir(tmp_path)
    lattices, terminals = [], []
    lattice, terminal = cli.generate_base_points, solver.terminal_tangent_alphas
    monkeypatch.setattr(cli, "generate_base_points",
                        lambda n, density, eps: lattices.append(density) or lattice(n, density, eps))
    monkeypatch.setattr(solver, "terminal_tangent_alphas",
                        lambda costs, points, config: terminals.append(points.density)
                        or terminal(costs, points, config))
    assert main(["experiment", "--base-points", "1,3,2", "--runs", "10", "--out", "exp"]) == 0
    assert sorted(lattices) == [1, 2, 3]
    assert sorted(terminals) == [1, 2, 3]


def test_experiment_refuses_before_writing_anything(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sim, "SIZE_GUARD", 255)
    out = tmp_path / "exp"
    assert main(["experiment", "--base-points", "1", "--runs", "10", "--out", str(out)]) == 1
    assert "256 joint terms" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_checks_always_east_before_writing_anything(tmp_path, monkeypatch, capsys):
    # the fixed baseline is control 2, which a two-control model does not have
    model = oracle.random_model(np.random.default_rng(3), n_states=3, n_obs=2, n_controls=2)
    save_model(tmp_path / "model.json", model, oracle.random_costs(np.random.default_rng(4),
                                                                     model, horizon=2))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "solve", lambda *args: pytest.fail("solved before checking"))
    assert main(["experiment", "--model", "model.json", "--base-points", "1", "--runs", "10",
                 "--out", "exp"]) == 1
    assert capsys.readouterr().err == (
        "error: policy 'always-east': control 2 out of range [0, 2)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


@pytest.mark.parametrize("command", [
    ["experiment", "--base-points", "1,2", "--out", "exp"],
    ["simulate", "--policy", "always-east", "--trace", "t.csv", "--out", "r.csv"],
    ["sweep", "--base-points", "1", "--out", "s.csv"],
], ids=lambda argv: argv[0])
def test_commands_check_runs_before_writing_anything(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "solve", lambda *args: pytest.fail("solved before checking --runs"))
    assert main([*command, "--runs", "0"]) == 1
    assert capsys.readouterr().err == "error: runs must be >= 1, got 0\n"
    assert list(tmp_path.iterdir()) == []


def test_pruning_is_recorded_but_not_a_flag(tmp_path):
    # "prune": "lp" stays in every run config, in its place, so artifacts keep their bytes
    policy_path = tmp_path / "p.json"
    assert main(["solve", "--base-points", "1", "--out", str(policy_path)]) == 0
    run_config = json.loads(policy_path.read_text())["run_config"]
    assert list(run_config) == ["model", "horizon", "model_fingerprint", "rng", "objective",
                                "base_points", "epsilon", "prune", "log_base"]
    assert run_config["prune"] == "lp"
    out = tmp_path / "exp"
    assert main(["experiment", "--base-points", "1", "--runs", "10", "--out", str(out)]) == 0
    assert json.loads((out / "metadata.json").read_text())["prune"] == "lp"
    for command in (["solve"], ["sweep"], ["experiment"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--prune", "lp", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


def test_sweep_rejects_bad_densities(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--base-points", "0,2", "--out", str(out)]) == 2
    assert main(["sweep", "--base-points", "", "--out", str(out)]) == 2
    assert main(["sweep", "--base-points", "two", "--out", str(out)]) == 2
    # solve takes one density and refuses it before it loads the model or solves
    monkeypatch.setattr(cli, "_load_model_and_costs", lambda args: pytest.fail("loaded"))
    capsys.readouterr()
    for density in ("0", "-3"):
        assert main(["solve", "--base-points", density, "--out", str(tmp_path / "p.json")]) == 2
        assert capsys.readouterr().err == f"error: base-point density must be >= 1, got {density}\n"
    assert not (tmp_path / "p.json").exists()


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


@pytest.mark.parametrize("stage_cost", ["written", "missing"])
def test_horizon_override_of_a_model_with_no_stages(tmp_path, capsys, stage_cost):
    model, costs = build_grid_agent()
    path = tmp_path / "model.json"
    save_model(path, model, make_cost_model(0, costs.stage_cost[0], costs.terminal_cost))
    if stage_cost == "missing":
        d = json.loads(path.read_text())
        del d["stage_cost"]
        path.write_text(json.dumps(d))
    out = tmp_path / "r.csv"
    code = main(["simulate", "--model", str(path), "--horizon", "2",
                 "--policy", "always-east", "--runs", "5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: cannot override the horizon of a model with no stage costs\n"
    assert not out.exists()
