"""The Spark operator's layer (``spark_ops.*``), run in a fresh process.

    python3 perfbench/spark_job.py --input INPUT.pkl --engine tric+ \
        --work DIR --out RESULT.json

Starts a cold local SparkSession and runs one trivial Python-worker job
(together the set-up time), turns the input stream into a DataFrame with
``stream_to_spark``, runs one ``match_updates`` job that is discarded as the
warm-up, then times one more ``match_updates(...).collect()``.  The engine
runs inside the job's single Python worker partition; events come back as
``(t, qid)`` rows.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import shlex
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: local[N] cores; the matcher runs in one coalesced partition anyway
CORES = 2


def _configure(work: Path) -> None:
    """Keep the JVM, the Python workers and Spark's scratch files in ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{CORES}]",
            "--driver-memory 1g",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.local.dir={tmp}"),
            "--conf " + shlex.quote(f"spark.sql.warehouse.dir={work / 'warehouse'}"),
            "--driver-java-options " + shlex.quote(f"-Djava.io.tmpdir={tmp}"),
            "pyspark-shell",
        ]
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--engine", default="tric+")
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    _configure(Path(args.work))

    with open(args.input, "rb") as f:
        updates, queries = pickle.load(f)

    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    from repro.spark_ops.matcher import match_updates
    from repro.streams.datasets import stream_to_spark

    t0 = time.perf_counter()
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", str(CORES))
        .getOrCreate()
    )
    session_s = time.perf_counter() - t0
    gateway = SparkContext._gateway
    try:
        spark.sparkContext.setLogLevel("ERROR")
        t1 = time.perf_counter()
        spark.sparkContext.parallelize(range(8), 1).map(lambda x: x * x).sum()
        trivial_s = time.perf_counter() - t1

        t = time.perf_counter()
        frame = stream_to_spark(spark, updates)
        input_s = time.perf_counter() - t

        def job() -> tuple[float, list]:
            t = time.perf_counter()
            rows = match_updates(frame, queries, args.engine).collect()
            return time.perf_counter() - t, rows

        first_job_s, _ = job()
        job_s, rows = job()
    finally:
        spark.stop()
        proc = getattr(gateway, "proc", None)
        if gateway is not None:
            gateway.shutdown()
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)

    with open(args.out, "w") as f:
        json.dump(
            {
                "session_s": session_s,
                "trivial_job_s": trivial_s,
                "setup_s": session_s + trivial_s,
                "input_s": input_s,
                "first_job_s": first_job_s,
                "job_s": job_s,
                "events": sorted((r.t, r.qid) for r in rows),
            },
            f,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
