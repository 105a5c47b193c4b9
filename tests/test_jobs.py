"""The jobs in ``jobs/``.  The eight answering-time jobs each sweep their
figure's x-axis over the right workloads and print and save one table.  The
indexing job (Fig. 15) times five batches of ``add_query`` and then one
``end_indexing()`` per engine; the memory job (Table 1) measures each
dataset's prefix; ``fill_experiments.py`` renders the saved tables into
EXPERIMENTS.md.

The engines, the workload builder and the results file are stubbed, so the
test pins what a job asks for, not what the engines measure.  Each job runs
as ``make_all.py`` runs it: a script with ``jobs/`` on ``sys.path``, run as
``__main__``.
"""
import json
import runpy
import sys
from pathlib import Path

import pytest

from repro.engine.base import ALGORITHMS
from tests.test_experiments_md import cells

JOBS = Path(__file__).resolve().parent.parent / "jobs"

#: job -> (title, [(label, x-value argument and value)]), at --scale 1
SWEEPS = {
    "table_snb_answering": (
        "Fig 13(a) — SNB answering time (ms/update), Q=300, l=5, sigma=25%, o=35%",
        [(f"|G_E|={n}", {"n_updates": n}) for n in (2000, 3000)],
    ),
    "table_snb_selectivity": (
        "Fig 13(b) — SNB answering time (ms/update) vs selectivity sigma",
        [(f"sigma={p}%", {"selectivity": p / 100}) for p in (10, 15, 20, 25, 30)],
    ),
    "table_snb_qdb": (
        "Fig 13(c) — SNB answering time (ms/update) vs |Q_DB|",
        [(f"|Q_DB|={n}", {"n_queries": n}) for n in (100, 300, 500)],
    ),
    "table_snb_qlen": (
        "Fig 13(d) — SNB answering time (ms/update) vs query size l",
        [(f"l={n}", {"avg_len": n}) for n in (3, 5, 7, 9)],
    ),
    "table_snb_overlap": (
        "Fig 13(e) — SNB answering time (ms/update) vs overlap o",
        [(f"o={p}%", {"overlap": p / 100}) for p in (25, 35, 45, 55, 65)],
    ),
    "table_snb_scale": (
        "Fig 13(f)+14 — SNB scale-up (ms/update), with timeout markers",
        [(f"|G_E|={n}", {"n_updates": n}) for n in (2000, 6000, 12000, 24000)],
    ),
    "table_nyc": (
        "Fig 16(a) — NYC answering time (ms/update), with timeout markers",
        [(f"|G_E|={n}", {"n_updates": n}) for n in (1000, 3000, 8000)],
    ),
    "table_biogrid": (
        "Fig 16(b,c) — BioGRID answering time (ms/update), with timeout markers",
        [(f"|G_E|={n}", {"n_updates": n}) for n in (1000, 3000, 8000)],
    ),
}

DATASET = {"table_nyc": "nyc", "table_biogrid": "biogrid"}


def expected_workload(job, x, scale, seed):
    """The ``build_workload`` kwargs of one config: 2000 updates and 300
    queries, with the counts scaled, and the x-value in place."""
    kw = {
        "dataset": DATASET.get(job, "snb"),
        "n_updates": int(2000 * scale),
        "n_queries": int(300 * scale),
    }
    for k, v in x.items():
        kw[k] = int(v * scale) if k.startswith("n_") else v
    kw["seed"] = seed
    return kw


def run_job(monkeypatch, job, *argv):
    """Run one job script with stubbed engines; returns what it asked the
    harness for, what it saved and what it printed to stdout."""
    monkeypatch.syspath_prepend(str(JOBS))
    import _common

    built, ran, saved = [], [], []

    def build_workload(**kw):
        built.append(kw)
        return [("u", len(built))], [("q", len(built))]

    def run_algorithms(updates, queries, algos, time_limit_s=None):
        ran.append((updates, queries, list(algos), time_limit_s))
        return {
            a: {"avg_ms_per_update": i + 0.25, "timed_out": a == "inv", "processed": 42}
            for i, a in enumerate(algos)
        }

    monkeypatch.setattr(_common, "build_workload", build_workload)
    monkeypatch.setattr(_common, "run_algorithms", run_algorithms)
    monkeypatch.setattr(_common, "save_results", lambda p, path: saved.append((p, path)))
    monkeypatch.setattr(sys, "argv", [f"{job}.py", *argv])
    runpy.run_path(str(JOBS / f"{job}.py"), run_name="__main__")
    return built, ran, saved


@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("job", list(SWEEPS))
def test_job_sweeps_its_figure(monkeypatch, capsys, job, scale):
    title, points = SWEEPS[job]
    built, ran, saved = run_job(
        monkeypatch, job, "--scale", str(scale), "--seed", "7", "--time-limit", "3"
    )
    want = [expected_workload(job, x, scale, 7) for _, x in points]
    assert built == want
    # every config runs all algorithms on its own workload, under the cap
    assert ran == [
        ([("u", i)], [("q", i)], ALGORITHMS, 3.0) for i in range(1, len(points) + 1)
    ]
    ((payload, path),) = saved
    assert Path(path).name == f"{job}.json"
    assert payload["title"] == title
    assert [c["label"] for c in payload["configs"]] == [label for label, _ in points]
    assert [c["workload"] for c in payload["configs"]] == want
    assert all(list(c["results"]) == ALGORITHMS for c in payload["configs"])
    assert [r[0] for r in payload["table"]["rows"]] == [label for label, _ in points]
    out = capsys.readouterr().out
    table = out[out.index(title):].split("\n\n")[0].splitlines()
    assert cells(table[1]) == ["", *ALGORITHMS]
    inv = f"{ALGORITHMS.index('inv') + 0.25:.3f}\\* @42"
    for (label, _), line in zip(points, table[3:], strict=True):
        row = cells(line)
        assert row[0] == label.replace("|", "\\|") and inv in row
    assert out.rstrip().endswith(f"results written to results/{job}.json")


def test_sweep_time_limit_defaults_to_20s(monkeypatch):
    """EXPERIMENTS.md's tables come from the default cap of 20 s."""
    _, ran, _ = run_job(monkeypatch, "table_snb_answering")
    assert [r[3] for r in ran] == [20.0, 20.0]


def test_make_all_runs_every_sweep_job():
    sys.path.insert(0, str(JOBS))
    try:
        import make_all
    finally:
        sys.path.remove(str(JOBS))
    assert {f"{job}.py" for job in SWEEPS} <= set(make_all.JOBS)


def test_make_all_passes_time_limit_to_sweep_jobs_only(monkeypatch):
    """Every job gets every option but ``--time-limit``, which goes to the
    eight sweep jobs alone."""
    import subprocess

    runs = []
    monkeypatch.setattr(subprocess, "run", lambda cmd, check: runs.append(cmd))
    argv = ["make_all.py", "--scale", "0.5", "--time-limit", "3", "--verify"]
    monkeypatch.setattr(sys, "argv", argv)
    job = runpy.run_path(str(JOBS / "make_all.py"), run_name="__main__")

    assert [Path(cmd[1]).name for cmd in runs] == job["JOBS"]
    assert all(cmd[0] == sys.executable for cmd in runs)
    timed = {f"{j}.py" for j in SWEEPS}
    for cmd in runs:
        limit = ["--time-limit", "3"] if Path(cmd[1]).name in timed else []
        assert cmd[2:] == ["--scale", "0.5", "--verify", *limit]
    assert sum("--time-limit" in cmd for cmd in runs) == 8


class NoEngine:
    def __init__(self, name):
        pass

    def add_query(self, q):
        pass

    def end_indexing(self):
        pass


def run_untimed_job(monkeypatch, job, *argv):
    """Run the indexing or the memory job with its workloads, engines,
    memory probe, ground-truth check and results file stubbed; returns the
    workloads it built and those it verified, as ``(updates, queries)``."""
    import repro.bench.harness as harness
    import repro.engine.base as base

    monkeypatch.syspath_prepend(str(JOBS))
    import _common

    built, verified = [], []

    def build_workload(dataset, **kw):
        built.append(([("u", dataset)], [("q", i) for i in range(kw["n_queries"])]))
        return built[-1]

    monkeypatch.setattr(harness, "build_workload", build_workload)
    monkeypatch.setattr(harness, "measure_memory", lambda *a, **kw: 0)
    monkeypatch.setattr(base, "make_engine", NoEngine)
    monkeypatch.setattr(_common, "verify_sample", lambda u, q: verified.append((u, q)))
    monkeypatch.setattr(_common, "save_results", lambda p, path: None)
    monkeypatch.setattr(sys, "argv", [f"{job}.py", *argv])
    runpy.run_path(str(JOBS / f"{job}.py"), run_name="__main__")
    return built, verified


@pytest.mark.parametrize("job, n_workloads", [("table_indexing", 1), ("table1_memory", 3)])
def test_untimed_job_verifies_each_workload(monkeypatch, job, n_workloads):
    built, verified = run_untimed_job(monkeypatch, job, "--scale", "0.1", "--verify")
    assert len(built) == n_workloads
    assert verified == built
    _, verified = run_untimed_job(monkeypatch, job, "--scale", "0.1")
    assert verified == []


@pytest.mark.parametrize("job", ["table_indexing", "table1_memory"])
def test_untimed_job_rejects_time_limit(monkeypatch, capsys, job):
    """The indexing and memory jobs answer no updates under a time limit,
    so ``--time-limit`` is a usage error, not an option they ignore."""
    with pytest.raises(SystemExit) as exc:
        run_untimed_job(monkeypatch, job, "--scale", "0.1", "--time-limit", "3")
    assert exc.value.code == 2
    assert "--time-limit" in capsys.readouterr().err


def test_indexing_job_times_batches_then_end_indexing(monkeypatch, capsys):
    """Fig. 15 at --scale 0.1: five batches of 10 queries, then one
    ``end_indexing()`` per engine, repeated ``REPS`` times on fresh engines;
    the table has one row per batch and an ``end_indexing`` row."""
    import repro.bench.harness as harness
    import repro.engine.base as base

    queries = [("q", i) for i in range(50)]
    built, calls, saved = [], [], []

    class Stub:
        def __init__(self, name):
            self.name = name

        def add_query(self, q):
            calls.append((self.name, q))

        def end_indexing(self):
            calls.append((self.name, "end"))

    def build_workload(dataset, **kw):
        built.append((dataset, kw))
        return [], queries[: kw["n_queries"]]

    monkeypatch.syspath_prepend(str(JOBS))
    import _common

    monkeypatch.setattr(harness, "build_workload", build_workload)
    monkeypatch.setattr(_common, "save_results", lambda p, path: saved.append((p, path)))
    monkeypatch.setattr(base, "make_engine", Stub)
    monkeypatch.setattr(sys, "argv", ["table_indexing.py", "--scale", "0.1", "--seed", "7"])
    job = runpy.run_path(str(JOBS / "table_indexing.py"), run_name="__main__")

    assert built == [("snb", {"n_updates": 200, "n_queries": 50, "seed": 7})]
    reps = job["REPS"]
    for name in ALGORITHMS:
        mine = [c for n, c in calls if n == name]
        assert mine == (queries + ["end"]) * reps
    ((payload, path),) = saved
    assert Path(path).name == "table_indexing.json"
    assert payload["reps"] == reps
    assert [list(b) for b in payload["batches"]] == [ALGORITHMS] * 5
    assert list(payload["end_indexing"]) == ALGORITHMS
    out = capsys.readouterr().out
    title = "Fig 15 — indexing time (ms) per batch of 10 queries"
    table = out[out.index(title):].split("\n\n")[0].splitlines()
    assert table[0].endswith(f"then end_indexing() once, median of {reps} runs")
    assert cells(table[1]) == ["batch", *ALGORITHMS]
    labels = [str(n) for n in (10, 20, 30, 40, 50)] + ["end_indexing"]
    assert [cells(line)[0] for line in table[3:]] == labels
    assert "(ms per batch of 10 queries, then one `end_indexing()` call" in out


def test_memory_job_measures_each_prefix(monkeypatch, capsys):
    """Table 1 at --scale 0.5: every engine answers each dataset's scaled
    prefix; the table has one row per algorithm, one column per dataset."""
    import repro.bench.harness as harness

    built, measured, saved = [], [], []

    def build_workload(dataset, **kw):
        built.append((dataset, kw))
        return [("u", dataset)], [("q", dataset)]

    def measure_memory(name, updates, queries, max_updates=None):
        measured.append((name, updates, queries, max_updates))
        return 3 << 19

    monkeypatch.syspath_prepend(str(JOBS))
    import _common

    monkeypatch.setattr(harness, "build_workload", build_workload)
    monkeypatch.setattr(harness, "measure_memory", measure_memory)
    monkeypatch.setattr(_common, "save_results", lambda p, path: saved.append((p, path)))
    monkeypatch.setattr(sys, "argv", ["table1_memory.py", "--scale", "0.5", "--seed", "7"])
    runpy.run_path(str(JOBS / "table1_memory.py"), run_name="__main__")

    prefix = {"snb": 1000, "nyc": 750, "biogrid": 150}
    assert built == [(ds, {"n_updates": 1000, "n_queries": 150, "seed": 7}) for ds in prefix]
    assert measured == [
        (name, [("u", ds)], [("q", ds)], n) for name in ALGORITHMS for ds, n in prefix.items()
    ]
    ((payload, path),) = saved
    assert Path(path).name == "table1_memory.json"
    assert payload["updates"] == prefix
    assert payload["algorithms"] == {name: dict.fromkeys(prefix, 3 << 19) for name in ALGORITHMS}
    columns = ["algorithm", "snb (1000 updates)", "nyc (750 updates)", "biogrid (150 updates)"]
    assert payload["table"]["columns"] == columns
    out = capsys.readouterr().out
    table = out[out.index("Table 1 — memory usage"):].split("\n\n")[0].splitlines()
    assert cells(table[1]) == columns
    assert [cells(line) for line in table[3:]] == [[name] + ["1.5 MiB"] * 3 for name in ALGORITHMS]


def test_fill_experiments_renders_each_marker(monkeypatch, tmp_path):
    """A marker gains the block of its saved table, a second run changes no
    byte, and a results file that is absent or has no table is reported."""
    monkeypatch.syspath_prepend(str(JOBS))
    import fill_experiments

    results = tmp_path / "results"
    results.mkdir()
    table = {"columns": ["", "tric"], "rows": [["|G_E|=10", "1.000* @5"]], "note": "(* = cap)"}
    (results / "table_a.json").write_text(json.dumps({"title": "A", "table": table}))
    (results / "table_b.json").write_text(json.dumps({"title": "B"}))
    md = tmp_path / "EXPERIMENTS.md"
    md.write_text(
        "# E\n\n<!-- MEASURED:table_a -->\n\ntext\n\n<!-- MEASURED:table_b -->\n"
        "<!-- MEASURED:table_c -->\n"
    )
    monkeypatch.setattr(fill_experiments, "RESULTS", str(results))
    monkeypatch.setattr(fill_experiments, "EXPERIMENTS", str(md))

    fill_experiments.main()
    first = md.read_bytes()
    missing = "_results missing — run the corresponding job_"
    assert first.decode() == (
        "# E\n\n<!-- MEASURED:table_a -->\n<!-- BEGIN:table_a -->\n"
        "| | tric |\n|---|---|\n| \\|G_E\\|=10 | 1.000\\* @5 |\n\n(\\* = cap)\n"
        "<!-- END:table_a -->\n\ntext\n\n"
        f"<!-- MEASURED:table_b -->\n<!-- BEGIN:table_b -->\n{missing}\n<!-- END:table_b -->\n"
        f"<!-- MEASURED:table_c -->\n<!-- BEGIN:table_c -->\n{missing}\n<!-- END:table_c -->\n"
    )
    fill_experiments.main()
    assert md.read_bytes() == first
