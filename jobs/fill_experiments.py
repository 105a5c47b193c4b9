"""Inject measured results into EXPERIMENTS.md.

Replaces each ``<!-- MEASURED:<name> -->`` marker with the table saved in
``results/<name>.json`` by its job, rendered by the same
:func:`~repro.bench.harness.markdown_table` the job printed it with.
Idempotent: a marker line is kept in place and the generated block between
``<!-- BEGIN:<name> -->`` / ``<!-- END:<name> -->`` is rewritten.
"""
import json
import os
import re
import sys

HERE = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from repro.bench.harness import markdown_table  # noqa: E402

RESULTS = os.path.join(HERE, "..", "results")
EXPERIMENTS = os.path.join(HERE, "..", "EXPERIMENTS.md")


def render(name: str) -> str:
    path = os.path.join(RESULTS, f"{name}.json")
    table = None
    if os.path.exists(path):
        with open(path) as f:
            table = json.load(f).get("table")
    if table is None:
        return "_results missing — run the corresponding job_"
    return markdown_table(table)


def main() -> None:
    with open(EXPERIMENTS) as f:
        text = f.read()
    names = re.findall(r"<!-- MEASURED:(\w+) -->", text)
    for n in names:
        block = f"<!-- MEASURED:{n} -->\n<!-- BEGIN:{n} -->\n{render(n)}\n<!-- END:{n} -->"
        text = re.sub(
            rf"<!-- MEASURED:{n} -->(?:\n<!-- BEGIN:{n} -->.*?<!-- END:{n} -->)?",
            lambda _: block,
            text,
            flags=re.S,
        )
    with open(EXPERIMENTS, "w") as f:
        f.write(text)
    print(f"filled {len(names)} sections: {', '.join(names)}")


if __name__ == "__main__":
    sys.exit(main())
