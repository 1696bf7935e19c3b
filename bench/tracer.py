"""In-memory spans around calls into the package's layers.

The package imports its functions by name, so a call is traced by replacing
the name in the module that makes the call (``sim.step`` is the filter step as
``sim.rollout`` sees it). Nothing under ``src/`` changes. Each span keeps its
name, start, end, parent and root; a span's self time is its duration minus
the durations of its direct children.
"""
from __future__ import annotations

import csv
import time
from array import array
from contextlib import contextmanager

import numpy as np

from active_smoothing import cli, pwl, sim, solver


def _stage0(args, kwargs, policy):
    return 0, len(policy.stages[0])


def _rollouts(args, kwargs, result):
    policies, runs = args[2], args[3]
    return len(policies) * runs, 0


def _prune_sizes(args, kwargs, kept):
    return len(args[0]), len(kept)


# (module, name in that module, span name, optional sizes(args, kwargs, result) -> (in, out))
TIMERS = [
    (cli, "solve", "solver.solve", _stage0),
    (cli, "compare_policies", "sim.compare_policies", _rollouts),
]

LAYERS = TIMERS + [
    (pwl, "generate_base_points", "pwl.base_points", None),
    (cli, "monte_carlo", "sim.monte_carlo", None),
    (cli, "exact_policy_metrics", "sim.exact", None),
    (cli, "rollout", "sim.rollout", None),
    (cli, "check_policy", "sim.check_policy", None),
    (cli, "fingerprint", "model.fingerprint", None),
    (cli, "generate_base_points", "pwl.base_points", None),
    (cli, "_write_csv", "cli.write", None),
    (cli, "save_policy", "cli.write", None),
    (cli, "save_model", "cli.write", None),
    (sim, "monte_carlo", "sim.monte_carlo", None),
    (sim, "rollout", "sim.rollout", None),
    (sim, "check_policy", "sim.check_policy", None),
    (sim, "fingerprint", "model.fingerprint", None),
    (sim, "best_action", "solver.best_action", None),
    (sim, "step", "belief.step", None),
    (sim, "pointwise_smoother_entropy", "costs.smoother_entropy", None),
    (sim, "_joint_trajectory_entropy", "sim.exact_leaf", None),
    (solver, "backup", "solver.backup", None),
    (solver, "prune", "solver.prune", _prune_sizes),
    (solver, "HalfspaceIntersection", "solver.qhull", None),
    (solver, "linprog", "solver.witness_lp", None),
    (solver, "_witness_cloud", "solver.cap_cloud", None),
    (solver, "stage_tangent_alphas", "pwl.tangent", None),
    (solver, "terminal_tangent_alphas", "pwl.tangent", None),
    (solver, "_belief_sum_stage_alphas", "pwl.tangent", None),
    (solver, "expected_next_entropy", "costs.expected_next_entropy", None),
    (solver, "fingerprint", "model.fingerprint", None),
]


class Tracer:
    """Records spans for the names it patches; `restore` puts the originals back."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("d")
        self.end = array("d")
        self.items_in = array("q")
        self.items_out = array("q")
        self._stack: list[int] = []
        self._root = -1
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.root.append(self._root)
        self.items_in.append(0)
        self.items_out.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, span: str, fn, sizes=None):
        nid = self._id(span)

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if sizes is not None:
                self.items_in[i], self.items_out[i] = sizes(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, table) -> None:
        for module, attr, span, sizes in table:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original, sizes))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def root_span(self, span: str):
        """A top-level span; spans opened inside it are grouped under it."""
        if self._stack:
            raise RuntimeError("root spans cannot nest")
        i = self._open(self._id(span))
        self.root[i] = i
        self._root = i
        try:
            yield i
        finally:
            self._close(i)
            self._root = -1

    def totals(self) -> list[dict]:
        """Per root span: its wall time and, per span name, calls, self and total seconds, items."""
        n = len(self.name)
        if n == 0:
            return []
        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        root = np.frombuffer(self.root, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        items_in = np.frombuffer(self.items_in, dtype=np.int64)
        items_out = np.frombuffer(self.items_out, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = []
        for r in np.flatnonzero(root == np.arange(n)):
            members = root == r
            spans = {}
            for nid in np.unique(name[members]):
                sel = members & (name == nid)
                spans[self.names[nid]] = {
                    "calls": int(sel.sum()),
                    "self_s": float(self_time[sel].sum()),
                    "total_s": float(dur[sel].sum()),
                    "in": int(items_in[sel].sum()),
                    "out": int(items_out[sel].sum()),
                }
            out.append({"root": self.names[name[r]], "wall_s": float(dur[r]), "spans": spans})
        return out

    def write(self, path) -> None:
        """All spans as CSV: index, name, parent, root, start, end, items in, items out."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "parent", "root", "start", "end", "in", "out"])
            for i in range(len(self.name)):
                writer.writerow([i, self.names[self.name[i]], self.parent[i], self.root[i],
                                 repr(self.start[i]), repr(self.end[i]),
                                 self.items_in[i], self.items_out[i]])


def span_cost(calls: int = 20000) -> float:
    """Measured seconds one span adds to a call, from a traced and a bare no-op."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        with tracer.root_span("calibrate"):
            start = time.perf_counter()
            for _ in range(calls):
                traced()
            wrapped = time.perf_counter() - start
        best = min(best, (wrapped - bare) / calls)
    return max(best, 0.0)
