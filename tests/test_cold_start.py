"""Which scipy modules a fresh interpreter loads, and which names the solver calls.

scipy loads on first use, so these run in subprocesses: the test process has
imported scipy long before they run.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import active_smoothing
from active_smoothing import build_grid_agent, generate_base_points, save_model, save_policy, solve

SRC = str(Path(active_smoothing.__file__).resolve().parents[1])

SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def fresh(code: str, cwd: Path) -> dict:
    """Run `code` in a new interpreter; it prints one JSON line last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_import_loads_no_scipy(tmp_path):
    out = fresh(f"""
        import json, sys
        import active_smoothing, active_smoothing.cli
        print(json.dumps({SCIPY_MODULES}))
    """, tmp_path)
    assert out == []


def test_validate_and_simulate_load_no_scipy(tmp_path):
    model, costs = build_grid_agent()
    save_model(tmp_path / "model.json", model, costs)
    save_policy(tmp_path / "p.json", solve(model, costs, "smoother", generate_base_points(4, 1)))
    out = fresh(f"""
        import json, sys
        from active_smoothing.cli import main
        codes = [main(["validate", "--model", "model.json"]),
                 main(["simulate", "--policy", "p.json", "--runs", "20", "--out", "mc.csv"]),
                 main(["simulate", "--exact", "--policy", "p.json", "--out", "exact.csv"])]
        print(json.dumps({{"codes": codes, "scipy": {SCIPY_MODULES}}}))
    """, tmp_path)
    assert out == {"codes": [0, 0, 0], "scipy": []}


def test_default_solve_and_experiment_load_no_scipy(tmp_path):
    # at the default T=3 every stage backs up on the reachable tree: no prune runs
    out = fresh(f"""
        import json, sys
        from active_smoothing.cli import main
        codes = [main(["solve", "--out", "p.json"]),
                 main(["experiment", "--runs", "10", "--out", "exp"])]
        print(json.dumps({{"codes": codes, "scipy": {SCIPY_MODULES}}}))
    """, tmp_path)
    assert out == {"codes": [0, 0], "scipy": []}


# At T=6 the stages past the reachable tree's cap back up globally, with Qhull.

def test_d1_smoother_solves_load_no_scipy_and_belief_sum_still_does(tmp_path):
    # at d=1 every prune of a smoother solve is settled by pointwise comparison; a d=1
    # belief-sum solve at T=6 still makes 6 Qhull builds, so it loads scipy.spatial
    out = fresh(f"""
        import json, sys
        from active_smoothing import cli, solver
        real, builds = solver._envelope_hull, []

        def counting(*args):
            builds.append(1)
            return real(*args)

        solver._envelope_hull = counting
        runs = {{}}
        for horizon in ("6", "7", "20"):
            code = cli.main(["solve", "--horizon", horizon, "--base-points", "1",
                             "--out", "p.json"])
            runs[horizon] = [code, len(builds), {SCIPY_MODULES}]
        code = cli.main(["solve", "--horizon", "6", "--objective", "belief-sum",
                         "--base-points", "1", "--out", "p.json"])
        runs["belief-sum"] = [code, len(builds), "scipy.spatial" in sys.modules]
        print(json.dumps(runs))
    """, tmp_path)
    assert out == {"6": [0, 0, []], "7": [0, 0, []], "20": [0, 0, []],
                   "belief-sum": [0, 6, True]}


def test_solve_loads_qhull_but_not_linprog(tmp_path):
    out = fresh("""
        import json, sys
        from active_smoothing.cli import main
        code = main(["solve", "--horizon", "6", "--base-points", "2", "--out", "p.json"])
        print(json.dumps({"code": code, "spatial": "scipy.spatial" in sys.modules,
                          "optimize": "scipy.optimize" in sys.modules}))
    """, tmp_path)
    assert out == {"code": 0, "spatial": True, "optimize": False}


def test_qhull_build_set_before_the_first_solve_is_the_one_called(tmp_path):
    # what the benchmark's tracer does: read the solver's name, then replace it
    out = fresh("""
        import json
        from active_smoothing import cli, solver
        real = solver.HalfspaceIntersection
        builds = []

        def counting(*args, **kwargs):
            builds.append(1)
            return real(*args, **kwargs)

        solver.HalfspaceIntersection = counting
        code = cli.main(["solve", "--horizon", "6", "--base-points", "2", "--out", "p.json"])
        import scipy.spatial
        print(json.dumps({"code": code, "builds": len(builds),
                          "real": real is scipy.spatial.HalfspaceIntersection}))
    """, tmp_path)
    assert out.pop("builds") > 0
    assert out == {"code": 0, "real": True}


def test_forced_qhull_failure_exits_1_without_scipy_optimize(tmp_path):
    # QhullError is first read by prune's except clause, after the set Qhull build raises it
    out = fresh("""
        import contextlib, io, json, sys
        from scipy.spatial import QhullError
        from active_smoothing import cli, solver

        def failing_build(*args, **kwargs):
            raise QhullError("forced failure")

        solver.HalfspaceIntersection = failing_build
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["solve", "--horizon", "6", "--base-points", "2", "--out", "p.json"])
        print(json.dumps({"code": code, "stderr": err.getvalue(),
                          "optimize": "scipy.optimize" in sys.modules}))
    """, tmp_path)
    assert out.pop("stderr").startswith("error: Qhull could not build the envelope of ")
    assert out == {"code": 1, "optimize": False}
    assert not (tmp_path / "p.json").exists()


def test_a_set_name_is_returned_without_importing_its_scipy_module(tmp_path):
    # the solver reads its scipy names through the module __getattr__ on every call
    out = fresh(f"""
        import json, sys
        from active_smoothing import solver

        def fake_build(*args, **kwargs):
            raise AssertionError("not called here")

        solver.HalfspaceIntersection = fake_build
        print(json.dumps({{"same": solver.__getattr__("HalfspaceIntersection") is fake_build,
                          "scipy": {SCIPY_MODULES}}}))
    """, tmp_path)
    assert out == {"same": True, "scipy": []}
