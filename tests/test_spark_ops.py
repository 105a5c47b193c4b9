"""Spark operators: the mapInPandas continuous matcher and the Structured
Streaming wrapper must agree with the plain engine run and with the
Catalyst ground truth."""
import pytest

from repro.bench.harness import build_workload
from repro.engine.base import make_engine
from repro.engine.runner import index_queries, run_stream
from repro.spark_ops.batch_match import first_match_spark
from repro.spark_ops.matcher import match_updates
from repro.spark_ops.streaming import run_structured_stream
from repro.streams.datasets import stream_to_pandas, stream_to_spark


@pytest.fixture(scope="module")
def workload(spark):
    updates, queries = build_workload("snb", n_updates=200, n_queries=15, avg_len=4, seed=6)
    return updates, queries


@pytest.fixture(scope="module")
def offline(workload):
    updates, queries = workload
    engine = make_engine("tric+")
    index_queries(engine, queries)
    return run_stream(engine, updates)


class TestMapInPandasMatcher:
    @pytest.mark.parametrize("engine_name", ["tric+", "inv", "graphdb"])
    def test_events_equal_offline_run(self, spark, workload, offline, engine_name):
        updates, queries = workload
        df = stream_to_spark(spark, updates)
        rows = match_updates(df, queries, engine_name).collect()
        got = sorted((r["t"], r["qid"]) for r in rows)
        assert got == sorted(offline.events)

    def test_survives_shuffled_input(self, spark, workload, offline):
        """The operator sorts within its single partition, so the input
        DataFrame's row order must not matter."""
        updates, queries = workload
        pdf = stream_to_pandas(updates).sample(frac=1.0, random_state=0)
        df = spark.createDataFrame(pdf)
        rows = match_updates(df, queries, "tric+").collect()
        assert sorted((r["t"], r["qid"]) for r in rows) == sorted(offline.events)

    def test_matched_set_equals_catalyst_ground_truth(self, spark, workload, offline):
        updates, queries = workload
        df = stream_to_spark(spark, updates)
        fm = first_match_spark(df, queries)
        assert offline.first_match == fm


class TestStructuredStreaming:
    def test_foreachbatch_matches_offline(self, spark, workload, offline, tmp_path):
        updates, queries = workload
        engine = make_engine("tric+")
        index_queries(engine, queries)
        events = run_structured_stream(
            spark, stream_to_pandas(updates), engine, str(tmp_path), n_files=3
        )
        # batch boundaries don't change the final matched set (monotone)
        assert {q for _, q in events} == offline.matched
        # nor the event stream, the contract: each micro-batch is answered
        # in t order, and the file source takes one chunk file per trigger,
        # oldest first (its default, latestFirst=false), which is the order
        # the chunks were written in, so the engine sees the updates in
        # stream order
        assert sorted(events) == sorted(offline.events)

    def test_single_batch_equals_event_stream(self, spark, workload, offline, tmp_path):
        updates, queries = workload
        engine = make_engine("inc+")
        index_queries(engine, queries)
        events = run_structured_stream(
            spark, stream_to_pandas(updates), engine, str(tmp_path), n_files=1
        )
        assert sorted(events) == sorted(offline.events)
