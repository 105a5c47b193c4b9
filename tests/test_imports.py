"""No module under ``src/`` imports a name it never reads.

A leftover import costs an import at start-up and misleads a reader about
what a module depends on.  The check is plain ``ast``: every name an import
binds must be read somewhere in its module (an attribute access ``a.b``
reads ``a``), or be listed in ``__all__``.  Annotations count as reads,
quoted ones too.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _read_names(tree: ast.Module) -> set[str]:
    """The names ``tree`` reads, including those inside quoted annotations
    and ``__all__``."""
    read: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    for ann in annotations:
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                read |= _read_names(ast.parse(c.value, mode="eval"))
    return read


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s imports bind and that it never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = _read_names(tree)
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from operator import attrgetter, itemgetter\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from x import Feed\n"
        "def f(a: 'Feed') -> int:\n"
        "    return os.path.sep + itemgetter(0)(a)\n"
    )
    assert unused_imports(source) == ["attrgetter (line 3)"]
