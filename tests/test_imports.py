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

No two modules under ``src/repro`` import each other, directly or through
others, at module level.  Imports under ``if TYPE_CHECKING:`` count: a
cycle there is a dependency a reader has to follow both ways, even if it
never runs.  Imports inside a function, made when it is called (such as
``make_engine``'s), do not.
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


def module_imports(source: str, module: str, known: set[str]) -> set[str]:
    """The modules of ``known`` that ``source``, the code of ``module``,
    imports at module level, including inside module-level ``if`` and
    ``try`` blocks but not inside functions or classes.  ``from a import
    b`` imports ``a``, and ``a.b`` too if that is a module."""
    package = module.rpartition(".")[0]
    found: set[str] = set()
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.If):
            todo += node.body + node.orelse
        elif isinstance(node, ast.Try):
            todo += node.body + node.orelse + node.finalbody
            todo += [s for h in node.handlers for s in h.body]
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: level 1 is the module's own package
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1] + [base]
                base = ".".join(p for p in parts if p)
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found & known


def import_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """The strongly connected components of ``graph`` (module -> the
    modules it imports) that hold a cycle, each sorted, a self-import
    included (Tarjan's algorithm)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    cycles: list[list[str]] = []

    def visit(v: str) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in sorted(graph[v]):
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            if len(comp) > 1 or v in graph[v]:
                cycles.append(sorted(comp))

    for v in sorted(graph):
        if v not in index:
            visit(v)
    return sorted(cycles)


def import_graph(root: Path) -> dict[str, set[str]]:
    """Each module under ``root`` (a package directory) to the modules
    under it that it imports at module level."""
    names = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names[".".join(parts)] = path
    known = set(names)
    graph = {}
    for name, path in names.items():
        module = name if path.name != "__init__.py" else f"{name}.__init__"
        graph[name] = module_imports(path.read_text(), module, known) - {name}
    return graph


def test_no_import_cycle():
    assert import_cycles(import_graph(SRC / "repro")) == []


def test_check_sees_an_import_cycle():
    sources = {
        "p.a": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from p.b import X\n",
        "p.b": "from p import c\n",
        "p.c": "from .a import Y\n",
        "p.d": "def f():\n    from p.a import Y\n",
        "p.e": "try:\n    import p.d\nexcept ImportError:\n    pass\n",
    }
    graph = {m: module_imports(src, m, set(sources)) for m, src in sources.items()}
    assert graph == {"p.a": {"p.b"}, "p.b": {"p.c"}, "p.c": {"p.a"}, "p.d": set(), "p.e": {"p.d"}}
    assert import_cycles(graph) == [["p.a", "p.b", "p.c"]]
