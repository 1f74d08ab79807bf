"""No module of ``src/`` imports a name it never uses.

Checked with the stdlib ``ast`` module: a name an ``import`` binds must be
read somewhere in the module, as a name or inside a quoted annotation.
Package ``__init__`` modules re-export their imports and are skipped, as
are ``__future__`` imports.  An import kept for its side effects says so
with ``# noqa: F401`` on its line (the suite modules
``bench_programs/registry._load_all`` imports so that they register their
benchmarks).
"""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
_MODULES = sorted(p for p in _SRC.rglob("*.py") if p.name != "__init__.py")


def _annotation_names(tree):
    """Names read inside quoted annotations (``x: "Foo | None"``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                for name in ast.walk(ast.parse(part.value, mode="eval")):
                    if isinstance(name, ast.Name):
                        yield name.id


def unused_imports(path):
    """``(line, name)`` of each imported name *path* never reads."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(_annotation_names(tree))
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: str(p.relative_to(_SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_checker_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import Callable, Sequence\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(module) == [(1, "os"), (3, "Callable")]
