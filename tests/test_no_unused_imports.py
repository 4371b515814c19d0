"""Every name a ``repro`` module imports is used by that module.

No linter runs in CI, so this wall does the one check that matters for
dead code: a name bound by an ``import`` in a non-``__init__`` module of
``src/repro`` must be referenced somewhere in that module -- as a name in
code, in an annotation (also inside a string annotation), or listed in
``__all__``.  Package ``__init__`` modules are exempt: their imports are
the package's public re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by imports anywhere in the module -> first line."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name, node.lineno)
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree: ast.Module) -> set[str]:
    """Names the module's code, annotations and ``__all__`` refer to."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    for node in tree.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign)
            else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return names


def unused_imports(path: Path) -> list[str]:
    """``"<line>: <name>"`` for each imported name ``path`` never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced(tree)
    return [
        f"{line}: {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_sources_found():
    assert len(MODULES) > 50


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_checker_sees_every_kind_of_use(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import os.path\n"
        "import json as js\n"
        "from math import inf, pi, tau\n"
        "from typing import Callable, Sequence\n"
        "from dataclasses import field\n"
        "__all__ = ['pi']\n"
        "def f(x: 'Sequence[int]') -> Callable:\n"
        "    return os.path.join(js.dumps(inf))\n"
    )
    assert unused_imports(module) == ["3: tau", "5: field"]
