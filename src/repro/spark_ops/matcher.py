"""The continuous multi-query matching operator as a DataFrame→DataFrame
transformation (see DESIGN.md §3 for the layering rationale).

``match_updates`` takes the update-stream DataFrame ``(t, s, p, o)`` and the
query set, and returns a DataFrame of match events ``(t, qid)``: query
``qid`` gained new embeddings at update ``t``.  The engine (TRIC, INV, …)
runs *inside* the plan via ``mapInPandas`` over a single time-ordered
partition — the physical-operator escape hatch for contributions that are
per-tuple stateful streaming indexes.  State is scoped to the partition
iterator, which spans the whole stream because the stream is coalesced into
one partition (the paper's engine is single-node sequential; a distributed
variant would need keyed state per trie root plus a driver-side coordinator
for cross-trie final joins, out of scope here).
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame

from repro.engine.base import Engine, make_engine
from repro.engine.runner import index_queries
from repro.graph.model import QueryPattern, Triple


def frame_events(engine: Engine, pdf: pd.DataFrame) -> list[tuple[int, int]]:
    """Feed the updates of frame ``pdf`` ``(t, s, p, o)`` to ``engine`` in
    row order; returns their ``(t, qid)`` match events."""
    return [
        (int(t), qid)
        for t, s, p, o in zip(pdf["t"], pdf["s"], pdf["p"], pdf["o"])
        for qid in engine.process_update(Triple(str(s), str(p), str(o)))
    ]


def match_updates(
    updates: DataFrame,
    queries: list[QueryPattern],
    engine_name: str = "tric+",
) -> DataFrame:
    """Match event stream for ``queries`` over the ordered update stream."""

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        engine = make_engine(engine_name)
        index_queries(engine, queries)
        for pdf in batches:
            events = frame_events(engine, pdf)
            yield pd.DataFrame(events, columns=["t", "qid"], dtype="int64")

    ordered = updates.coalesce(1).sortWithinPartitions("t")
    return ordered.mapInPandas(run, schema="t long, qid long")
