"""Benchmark harness: workload builder, sweep runner, memory measurement,
table formatting."""
import json
import math
import os
import subprocess
import sys

from repro.bench.harness import (
    build_workload,
    cell,
    markdown_table,
    measure_memory,
    run_algorithms,
    save_results,
)


class TestBuildWorkload:
    def test_deterministic(self):
        a = build_workload("snb", n_updates=100, n_queries=10, seed=0)
        b = build_workload("snb", n_updates=100, n_queries=10, seed=0)
        assert a[0] == b[0]
        assert [(q.vertices, q.edges) for q in a[1]] == [
            (q.vertices, q.edges) for q in b[1]
        ]

    def test_sizes(self):
        updates, queries = build_workload("biogrid", n_updates=123, n_queries=7, seed=1)
        assert len(updates) == 123 and len(queries) == 7


class TestRunAlgorithms:
    def test_metrics_fields(self):
        updates, queries = build_workload("snb", n_updates=80, n_queries=8, seed=0)
        res = run_algorithms(updates, queries, ["tric", "graphdb"])
        assert set(res) == {"tric", "graphdb"}
        m = res["tric"]
        assert m["processed"] == 80 and not m["timed_out"]
        assert m["index_s"] >= 0 and not math.isnan(m["avg_ms_per_update"])
        assert res["tric"]["n_matched"] == res["graphdb"]["n_matched"]

    def test_time_limit_marks_timeout(self):
        updates, queries = build_workload("snb", n_updates=400, n_queries=40, seed=0)
        res = run_algorithms(updates, queries, ["inv"], time_limit_s=1e-4)
        assert res["inv"]["timed_out"]


class TestMemory:
    def test_positive_and_same_magnitude(self):
        updates, queries = build_workload("snb", n_updates=150, n_queries=15, seed=0)
        plain = measure_memory("tric", updates, queries)
        cached = measure_memory("tric+", updates, queries)
        assert plain > 0 and cached > 0
        # the cached/uncached Table-1 ordering only emerges at bench scale;
        # at test scale just require the same order of magnitude
        assert 0.2 < cached / plain < 5

    def test_first_call_in_a_process_agrees_with_second(self):
        """One-time allocations and uncollected cycles would otherwise count
        toward the first measurement in a fresh process."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        script = (
            "from repro.bench.harness import build_workload, measure_memory\n"
            "u, q = build_workload('biogrid', 300, 80)\n"
            "print(measure_memory('tric', u, q), measure_memory('tric', u, q))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True, timeout=300,
        ).stdout
        first, second = map(int, out.split())
        assert abs(first - second) <= 0.01 * second

    def test_update_cap_respected(self):
        updates, queries = build_workload("snb", n_updates=600, n_queries=60, seed=0)
        prefix = measure_memory("tric", updates, queries, max_updates=100)
        assert 0 < prefix < measure_memory("tric", updates, queries)


class TestFormatting:
    def test_cell_plain_and_timeout(self):
        assert cell({"avg_ms_per_update": 1.23456, "timed_out": False}) == "1.235"
        s = cell({"avg_ms_per_update": 9.9, "timed_out": True, "processed": 42})
        assert s == "9.900* @42"

    def test_markdown_table_contains_all_cells(self):
        table = {"columns": ["x", "tric"], "rows": [["a", "1.0"], ["b", "2.0"]], "note": ""}
        assert markdown_table(table) == "| x | tric |\n|---|---|\n| a | 1.0 |\n| b | 2.0 |"

    def test_markdown_table_escapes_pipes_and_asterisks(self):
        """``|`` and ``*`` are escaped in every cell and in the note; an
        empty cell renders as one space."""
        table = {
            "columns": ["", "tric|x"],
            "rows": [["|G_E|=2000", "9.900* @42"]],
            "note": "(* = timeout | cap)",
        }
        assert markdown_table(table).splitlines() == [
            "| | tric\\|x |",
            "|---|---|",
            "| \\|G_E\\|=2000 | 9.900\\* @42 |",
            "",
            "(\\* = timeout \\| cap)",
        ]

    def test_save_results_roundtrip(self, tmp_path):
        p = tmp_path / "sub" / "r.json"
        save_results({"a": 1}, str(p))
        assert json.loads(p.read_text()) == {"a": 1}
