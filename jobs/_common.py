"""Shared CLI scaffolding for the per-table jobs.

Each job reproduces one evaluation artifact of the paper (see DESIGN.md §6).
The eight answering-time figures are one experiment, :func:`sweep_job`: it
sweeps the paper's x-axis at the scaled-down workload and builds the rows
the paper reports (x-value × algorithm → answering time per update in ms,
with timeout markers).  Every job builds its table once, prints it and
saves it with its payload under ``results/`` (:func:`report`), where
``fill_experiments.py`` renders it into EXPERIMENTS.md.

Run directly (``python jobs/table_snb_answering.py``) or via ``spark-submit``.
``--verify`` additionally checks, through a SparkSession, that the engines'
first-match events equal the Catalyst/DuckDB-validated ground truth on a
sample of queries of every workload the job builds.  Only the sweep jobs
answer updates under a time limit, so only they take ``--time-limit``.
"""
from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.harness import (  # noqa: E402
    build_workload,
    cell,
    markdown_table,
    run_algorithms,
    save_results,
)
from repro.engine.base import ALGORITHMS  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")
#: queries whose first matches ``--verify`` checks
N_VERIFY = 10


def parser(desc: str) -> argparse.ArgumentParser:
    """The options every job takes."""
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--verify",
        action="store_true",
        help="verify engine events vs the Catalyst ground truth (needs Spark)",
    )
    return p


def verify_sample(updates, queries) -> None:
    """Check tric+'s first-match map against the Catalyst BGP ground truth."""
    from pyspark.sql import SparkSession

    from repro.engine.base import make_engine
    from repro.engine.runner import index_queries, run_stream
    from repro.spark_ops.batch_match import first_match_spark
    from repro.streams.datasets import stream_to_spark

    spark = (
        SparkSession.builder.appName("repro-verify")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    sample = queries[:N_VERIFY]
    engine = make_engine("tric+")
    index_queries(engine, sample)
    res = run_stream(engine, updates)
    truth = first_match_spark(stream_to_spark(spark, updates), sample)
    assert res.first_match == truth, (res.first_match, truth)
    print(f"[verify] tric+ first-match equals Catalyst ground truth on {len(sample)} queries")


def sweep_job(
    doc: str,
    title: str,
    out_name: str,
    dataset: str,
    vary: str,
    values: tuple,
    label: str,
) -> None:
    """One answering-time figure: for each of ``values``, build the workload
    (2000 updates, 300 queries, both scaled by ``--scale``) with its
    ``build_workload`` argument ``vary`` set to the value (scaled too when
    ``vary`` is a count), run every algorithm, and print and save the table.
    ``label.format(value)`` names each config."""
    p = parser(doc)
    p.add_argument("--time-limit", type=float, default=20.0, help="per-run cap (s)")
    args = p.parse_args()
    s = args.scale
    payload = {"title": title, "configs": []}
    for value in values:
        kw = dict(dataset=dataset, n_updates=int(2000 * s), n_queries=int(300 * s))
        kw[vary] = int(value * s) if vary in ("n_updates", "n_queries") else value
        kw["seed"] = args.seed
        name = label.format(value)
        updates, queries = build_workload(**kw)
        if args.verify:
            verify_sample(updates, queries)
        res = run_algorithms(updates, queries, ALGORITHMS, time_limit_s=args.time_limit)
        payload["configs"].append({"label": name, "workload": kw, "results": res})
        print(f"[done] {name}")
    report(title, payload, sweep_table(payload), out_name)


def sweep_table(payload: dict) -> dict:
    """A sweep's table: one row per config, one column per algorithm."""
    algos = list(payload["configs"][0]["results"])
    rows = [[c["label"], *(cell(c["results"][a]) for a in algos)] for c in payload["configs"]]
    note = "(ms/update; * = hit threshold after N updates)"
    return {"columns": ["", *algos], "rows": rows, "note": note}


def report(title: str, payload: dict, table: dict, out_name: str) -> None:
    """Print ``title`` and ``table``; save ``payload``, table added, in ``results/``."""
    payload["table"] = table
    print(f"\n{title}")
    print(markdown_table(table))
    save_results(payload, os.path.join(RESULTS_DIR, out_name))
    print(f"\nresults written to results/{out_name}")
