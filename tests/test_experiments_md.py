"""EXPERIMENTS.md's measured tables are the tables the jobs saved.

Each ``<!-- BEGIN:<name> -->`` … ``<!-- END:<name> -->`` block must equal
``fill_experiments.render(name)``, the rendering of ``results/<name>.json``'s
table, and every row of a block must split on unescaped ``|`` into as many
cells as its header: a bare ``|`` in a label like ``|G_E|=2000`` would
shift every value of its row two columns right on GitHub.
"""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = dict(
    re.findall(
        r"<!-- BEGIN:(\w+) -->\n(.*?)\n<!-- END:\1 -->",
        (ROOT / "EXPERIMENTS.md").read_text(),
        flags=re.S,
    )
)


def cells(line: str) -> list[str]:
    """The cells of one markdown table row, split on unescaped ``|``."""
    return [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]


def test_every_result_has_a_block():
    assert set(BLOCKS) == {p.stem for p in (ROOT / "results").glob("*.json")}


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_block_is_the_rendered_result(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "jobs"))
    import fill_experiments

    rendered = fill_experiments.render(name)
    assert "_results missing" not in rendered
    assert BLOCKS[name] == rendered


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_block_rows_are_as_wide_as_the_header(name):
    header, *rows = [ln for ln in BLOCKS[name].splitlines() if ln.startswith("|")]
    assert rows
    for row in rows:
        assert len(cells(row)) == len(cells(header)), row
