"""Every name the package exports has a user outside its own module.

A name in `active_smoothing.__all__` is used when one of these refers to it:
a `src` module other than the one that defines it, a demo, the README (in
backticks or in its python block), or the annotations of another exported
name (a field type or a return type, as `StageSet` and `RolloutRecord` are).
An import alone is not a use: a name imported only to keep it reachable, as
with a `# noqa: F401` alias, is not referred to. The files are parsed, never
run, and a use is only counted through the binding its import made, so a
local variable that happens to share an exported name counts for nothing.

No `src` module imports a name it never reads, either. A name listed in the
module's `__all__` is read, as the package's re-exports are; an import kept
only so that a name stays reachable says so with `# noqa: F401` on the line
that names it.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import active_smoothing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "active_smoothing"
PACKAGE = "active_smoothing"
EXPORTED = set(active_smoothing.__all__)


def _imported_module(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from ("" for the package), None for others."""
    if node.level:
        return node.module or ""
    if node.module == PACKAGE:
        return ""
    if node.module and node.module.startswith(PACKAGE + "."):
        return node.module[len(PACKAGE) + 1:]
    return None


def _uses(tree: ast.AST) -> set[str]:
    """Exported names the code refers to through an import of the package or its modules."""
    names: dict[str, str] = {}  # local binding -> exported name
    modules: set[str] = set()   # local bindings of package modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _imported_module(node) is not None:
            for alias in node.names:
                local = alias.asname or alias.name
                if alias.name in EXPORTED:
                    names[local] = alias.name
                elif (SRC / f"{alias.name}.py").is_file():
                    modules.add(local)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == PACKAGE or alias.name.startswith(PACKAGE + "."):
                    modules.add(alias.asname or alias.name.split(".")[0])
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
            used.add(names[node.id])
        elif isinstance(node, ast.Attribute) and node.attr in EXPORTED:
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                used.add(node.attr)
    return used


def _definitions() -> dict[str, tuple[str, ast.AST]]:
    """Exported name -> (defining module, its top-level definition)."""
    found = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in targets:
                if name in EXPORTED:
                    found[name] = (path.stem, node)
    return found


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read in the annotations of a function or of a class's fields and methods."""
    annotations = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.AnnAssign):
            annotations.append(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = sub.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None and a.annotation]
            if sub.returns is not None:
                annotations.append(sub.returns)
    return {n.id for a in annotations for n in ast.walk(a) if isinstance(n, ast.Name)}


def _readme_uses() -> set[str]:
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    assert blocks, "the README has no python block"
    used = set().union(*(_uses(ast.parse(block)) for block in blocks))
    prose = re.sub(r"^```.*?^```$", "", text, flags=re.S | re.M)
    for span in re.findall(r"`([^`\n]+)`", prose):
        used |= EXPORTED & set(re.findall(r"[A-Za-z_]\w*", span))
    return used


def test_every_exported_name_has_a_user():
    definitions = _definitions()
    assert set(definitions) == EXPORTED, "an exported name with no top-level definition"
    used = _readme_uses()
    for path in sorted((ROOT / "demos").glob("*.py")):
        used |= _uses(ast.parse(path.read_text()))
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            used |= {name for name in _uses(ast.parse(path.read_text()))
                     if definitions[name][0] != path.stem}
    for name, (_, node) in definitions.items():
        used |= (_annotation_names(node) & EXPORTED) - {name}
    assert sorted(EXPORTED - used) == []


def test_an_import_alone_is_not_a_use():
    tree = ast.parse("from active_smoothing import solve  # noqa: F401\n"
                     "from .solver import value\n"
                     "import active_smoothing.sim as sim\n"
                     "step = 1\n"
                     "value(sim.rollout, step)\n")
    assert _uses(tree) == {"value", "rollout"}


def _unread_imports(source: str) -> list[str]:
    """Names the source imports and never reads, but for those on a `# noqa: F401` line.

    A read is a load of the bound name, the base of an attribute included, or
    the name's string in a top-level `__all__`. `from __future__` binds nothing.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(alias, alias.asname or alias.name) for alias in node.names]
        else:
            continue
        unread += [name for alias, name in bound
                   if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]]
    return unread


def test_no_src_module_imports_a_name_it_never_reads():
    unread = {path.name: _unread_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in unread.items() if names} == {}


def test_an_unread_import_is_found_unless_its_line_is_marked():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "from json import dumps  # noqa: F401\n"
              "from .solver import (\n"
              "    backup,\n"
              "    prune,  # noqa: F401\n"
              "    solve as run,\n"
              ")\n"
              "__all__ = ['dataclass']\n"
              "x = np.zeros(1)\n"
              "run(x)\n")
    assert _unread_imports(source) == ["os", "field", "backup"]
