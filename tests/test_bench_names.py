"""The package names the benchmark harness reaches by attribute must keep resolving.

`bench/tracer.py` wraps each (module, name) of its LAYERS table, and
`bench/run.machine_info` records package constants. A renamed or deleted name
would otherwise surface only in the slower benchmark runs. Both files are read,
never run: loading the tracer defines its tables and patches nothing.
"""
from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

from active_smoothing import sim, solver

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_name_the_tracer_patches_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module.__name__}.{name}" for module, name, *_ in tracer.LAYERS
               if not hasattr(module, name)]
    assert missing == []


def test_every_constant_machine_info_reads_resolves():
    tree = ast.parse((BENCH / "run.py").read_text())
    machine_info = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "machine_info")
    modules = {"sim": sim, "solver": solver}
    read = {(node.value.id, node.attr) for node in ast.walk(machine_info)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {("solver", "EXACT_PRUNE_CAP"), ("sim", "SIZE_GUARD")} <= read
    assert [f"{module}.{name}" for module, name in sorted(read)
            if not hasattr(modules[module], name)] == []
