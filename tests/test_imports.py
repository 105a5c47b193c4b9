"""No module under ``src/`` imports a name it never reads, and no
function, method or class defined there goes unread.

A leftover import costs an import at start-up and misleads a reader about
what a module depends on.  The check is plain ``ast``: every name an import
binds must be read somewhere in its module (an attribute access ``a.b``
reads ``a``), or be listed in ``__all__``.  Annotations count as reads,
quoted ones too.

A leftover definition misleads the same way.  Every function, method and
class under ``src/repro`` (dunders excepted) must be read by name somewhere
in the project's code: as a loaded ``Name``, as a loaded attribute, or as
an identifier string, such as the attribute names of ``perfbench``'s
tracing targets.  The check goes by name, so a method is read once any
object's attribute of that name is.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
#: the directories whose code may read a definition under ``src``
READERS = [SRC.parent / d for d in ("src", "tests", "perfbench", "jobs")]


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


def definitions(source: str) -> dict[str, int]:
    """The functions, methods and classes ``source`` defines, dunders
    excepted, each with the line of its first definition."""
    found: dict[str, int] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                found.setdefault(node.name, node.lineno)
    return found


def identifiers_read(source: str) -> set[str]:
    """The loaded names and attributes of ``source``, and its string
    constants that are identifiers."""
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                read.add(node.value)
    return read


def dead_definitions(source: str, readers: list[str]) -> list[str]:
    """The definitions of ``source`` that none of the ``readers`` sources
    (``source`` among them, if it reads itself) reads."""
    read = set().union(*map(identifiers_read, readers))
    dead = sorted((line, name) for name, line in definitions(source).items() if name not in read)
    return [f"{name} (line {line})" for line, name in dead]


def test_no_dead_definition():
    readers = [p.read_text() for d in READERS for p in sorted(d.rglob("*.py"))]
    dead = {
        str(path.relative_to(SRC)): found
        for path in sorted((SRC / "repro").rglob("*.py"))
        if (found := dead_definitions(path.read_text(), readers))
    }
    assert dead == {}


def test_check_sees_a_dead_definition():
    source = (
        "class Engine:\n"
        "    def __len__(self): ...\n"
        "    def run(self): ...\n"
        "    def traced(self): ...\n"
        "    def orphan(self): ...\n"
        "def helper(): ...\n"
    )
    reader = "e = Engine()\ne.run()\nTARGETS = [('m', 'Engine', 'traced')]\ne.helper = 1\n"
    assert dead_definitions(source, [source, reader]) == ["orphan (line 5)", "helper (line 6)"]
