"""Structured Streaming integration: continuous evaluation via foreachBatch.

Demonstrates the paper's setting on a real streaming runtime: the update
stream is replayed through a file source one file per micro-batch;
``foreachBatch`` feeds each micro-batch (sorted by ``t``) into a single
shared engine held on the driver — the shared-state multi-query matching
operator.  Because updates are additions only, the final matched set is
independent of batch boundaries (monotone), which the integration test
asserts against an offline run.
"""
from __future__ import annotations

import os
import uuid

import pandas as pd
from pyspark.sql import SparkSession

from repro.engine.base import Engine
from repro.spark_ops.matcher import frame_events


def run_structured_stream(
    spark: SparkSession,
    updates_pdf: pd.DataFrame,
    engine: Engine,
    workdir: str,
    n_files: int = 4,
) -> list[tuple[int, int]]:
    """Replay ``updates_pdf`` (t,s,p,o) through a file-source stream into an
    already-indexed ``engine``, whose indexing phase this ends; returns the
    collected (t, qid) match events."""
    engine.end_indexing()
    data_dir = os.path.join(workdir, f"stream-{uuid.uuid4().hex[:8]}")
    ckpt_dir = data_dir + "-ckpt"
    os.makedirs(data_dir, exist_ok=True)

    n = len(updates_pdf)
    step = max(1, (n + n_files - 1) // n_files)
    for i in range(0, n, step):
        chunk = updates_pdf.iloc[i : i + step]
        spark.createDataFrame(chunk).coalesce(1).write.mode("overwrite").parquet(
            os.path.join(data_dir, f"chunk-{i // step:04d}")
        )

    events: list[tuple[int, int]] = []

    def on_batch(batch_df, batch_id: int) -> None:
        events.extend(frame_events(engine, batch_df.toPandas().sort_values("t")))

    stream = (
        spark.readStream.schema("t long, s string, p string, o string")
        .option("maxFilesPerTrigger", 1)
        .parquet(os.path.join(data_dir, "chunk-*"))
    )
    query = (
        stream.writeStream.foreachBatch(on_batch)
        .option("checkpointLocation", ckpt_dir)
        .trigger(availableNow=True)
        .start()
    )
    query.awaitTermination()
    return events
