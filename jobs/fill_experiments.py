"""Inject measured results into EXPERIMENTS.md.

Replaces each ``<!-- MEASURED:<name> -->`` marker with a markdown table
rendered from ``results/<name>.json`` (as produced by the per-table jobs).
Idempotent: a marker line is kept in place and the generated block between
``<!-- BEGIN:<name> -->`` / ``<!-- END:<name> -->`` is rewritten.
"""
import json
import os
import re
import sys

HERE = os.path.dirname(__file__)
RESULTS = os.path.join(HERE, "..", "results")
EXPERIMENTS = os.path.join(HERE, "..", "EXPERIMENTS.md")


def _fmt_cell(m: dict) -> str:
    v = f"{m['avg_ms_per_update']:.3f}"
    if m.get("timed_out"):
        v += f"\\* @{m['processed']}"
    return v


def render(name: str) -> str:
    path = os.path.join(RESULTS, f"{name}.json")
    if not os.path.exists(path):
        return "_results missing — run the corresponding job_"
    with open(path) as f:
        data = json.load(f)
    if name == "table1_memory":
        algos = list(data["algorithms"])
        dss = list(next(iter(data["algorithms"].values())))
        heads = [f"{ds} ({data['updates'][ds]} updates)" for ds in dss]
        lines = ["| algorithm | " + " | ".join(heads) + " |",
                 "|---|" + "---|" * len(dss)]
        for a in algos:
            cells = [f"{data['algorithms'][a][ds] / (1 << 20):.1f} MiB" for ds in dss]
            lines.append(f"| {a} | " + " | ".join(cells) + " |")
        return "\n".join(lines)
    if name == "table_indexing":
        algos = list(data["batches"][0])
        lines = ["| batch | " + " | ".join(algos) + " |",
                 "|---|" + "---|" * len(algos)]
        for i, b in enumerate(data["batches"]):
            cells = [f"{b[a] * 1000:.1f}" for a in algos]
            lines.append(f"| {(i + 1) * 100} | " + " | ".join(cells) + " |")
        cells = [f"{data['end_indexing'][a] * 1000:.1f}" for a in algos]
        lines.append("| end_indexing | " + " | ".join(cells) + " |")
        return "\n".join(lines) + (
            "\n\n(ms per batch of 100 queries, then one `end_indexing()` call "
            f"after the fifth batch; median of {data['reps']} runs)"
        )
    algos = list(data["configs"][0]["results"])
    lines = ["| | " + " | ".join(algos) + " |", "|---|" + "---|" * len(algos)]
    for cfg in data["configs"]:
        cells = [_fmt_cell(cfg["results"][a]) for a in algos]
        lines.append(f"| {cfg['label']} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n\n(ms/update; \\* = hit threshold after N updates)"


def main() -> None:
    with open(EXPERIMENTS) as f:
        text = f.read()
    names = re.findall(r"<!-- MEASURED:(\w+) -->", text)
    for n in names:
        block = f"<!-- MEASURED:{n} -->\n<!-- BEGIN:{n} -->\n{render(n)}\n<!-- END:{n} -->"
        text = re.sub(
            rf"<!-- MEASURED:{n} -->(?:\n<!-- BEGIN:{n} -->.*?<!-- END:{n} -->)?",
            block.replace("\\", "\\\\"),
            text,
            flags=re.S,
        )
    with open(EXPERIMENTS, "w") as f:
        f.write(text)
    print(f"filled {len(names)} sections: {', '.join(names)}")


if __name__ == "__main__":
    sys.exit(main())
