"""Shared CLI scaffolding for the per-table jobs.

Each job reproduces one evaluation artifact of the paper (see DESIGN.md §6).
The eight answering-time figures are one experiment, :func:`sweep_job`: it
sweeps the paper's x-axis at the scaled-down workload, prints the same rows
the paper reports (algorithm × x-value → answering time per update in ms,
with "timeout at |G_E|=X" markers), and dumps JSON under ``results/`` so
EXPERIMENTS.md can diff paper vs measured.

Run directly (``python jobs/table_snb_answering.py``) or via ``spark-submit``.
``--verify`` additionally checks, through a SparkSession, that the engines'
first-match events equal the Catalyst/DuckDB-validated ground truth on a
sample of queries.
"""
from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.harness import (  # noqa: E402
    build_workload,
    cell,
    fmt_table,
    run_algorithms,
    save_results,
)
from repro.engine.base import ALGORITHMS  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")
#: queries whose first matches ``--verify`` checks
N_VERIFY = 10


def parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    p.add_argument("--time-limit", type=float, default=30.0, help="per-run cap (s)")
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
) -> dict:
    """One answering-time figure: for each of ``values``, build the workload
    (2000 updates, 300 queries, both scaled by ``--scale``) with its
    ``build_workload`` argument ``vary`` set to the value (scaled too when
    ``vary`` is a count), run every algorithm, and print and save the table.
    ``label.format(value)`` names each config."""
    args = parser(doc).parse_args()
    s = args.scale
    rows = []
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
        rows.append({"x": name} | {algo: cell(m) for algo, m in res.items()})
        payload["configs"].append({"label": name, "workload": kw, "results": res})
        print(f"[done] {name}")
    print()
    print(fmt_table(title, rows, ["x"] + ALGORITHMS))
    save_results(payload, os.path.join(RESULTS_DIR, out_name))
    print(f"\nresults written to results/{out_name}")
    return payload
