"""No module of ``src/repro`` imports a name at top level that it never uses.

An unused import is dead weight a reader has to rule out, and it survives
the deletion of the code that needed it.  The scan uses only :mod:`ast`:
a name bound by a module-level ``import`` or ``from ... import`` counts
as used when it appears as a name anywhere in the module, including
inside a string annotation (``-> "WorkloadGraph"``), or when the
module's ``__all__`` lists it.  Package ``__init__.py`` files are
skipped: what they import is what the package re-exports.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, List, Set

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _imported(tree: ast.Module) -> Dict[str, int]:
    """Each name a module-level import binds, with its line."""
    bound: Dict[str, int] = {}
    for statement in tree.body:
        if isinstance(statement, ast.Import):
            for alias in statement.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = statement.lineno
        elif (
            isinstance(statement, ast.ImportFrom)
            and statement.module != "__future__"
        ):
            for alias in statement.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = statement.lineno
    return bound


def _annotations(tree: ast.Module) -> List[ast.expr]:
    found: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                found.append(node.returns)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            found.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def _used(tree: ast.Module) -> Set[str]:
    """Every name the module reads, ``__all__`` and annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expression = ast.parse(node.value, mode="eval")
                used |= {
                    name.id
                    for name in ast.walk(expression)
                    if isinstance(name, ast.Name)
                }
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in statement.targets
        ):
            used |= set(ast.literal_eval(statement.value))
    return used


def unused_imports(source: str) -> List[str]:
    """``line: name`` for each top-level import the source never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return [
        f"{line}: {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda item: item[1])
        if name not in used
    ]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(SRC.parent)}:{entry}"
        for path in MODULES
        for entry in unused_imports(path.read_text())
    ]
    assert found == []


def test_the_scan_reads_every_kind_of_use():
    source = '''
from __future__ import annotations

import os.path
import json as codec
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

__all__ = ["Sequence"]


@dataclass
class Point:
    x: "Optional[int]" = None


def load(text) -> "List[Point]":
    return codec.loads(os.path.join(text))
'''
    assert unused_imports(source) == ["6: field"]
