"""Catalyst BGP matcher ⟷ DuckDB oracle.

Every query-result check goes through ``repro.oracle.assert_equivalent``:
the Spark DataFrame produced by the Catalyst matcher is diffed row-for-row
against the same BGP expressed as SQL on DuckDB over the identical triples
table.  This is what certifies the ground truth that all engines are then
compared against.
"""
import pytest

from repro.bench.harness import build_workload
from repro.graph.bruteforce import embeddings, first_match_index
from repro.oracle import assert_equivalent
from repro.spark_ops.batch_match import bgp_to_sql, first_match_spark, spark_bgp_match
from repro.streams.datasets import stream_to_pandas, stream_to_spark
from repro.streams.querygen import generate_queries


@pytest.fixture(scope="module")
def snb(spark):
    updates, queries = build_workload("snb", n_updates=220, n_queries=16, avg_len=4, seed=4)
    return updates, queries, stream_to_spark(spark, updates)


@pytest.mark.parametrize("qi", range(16))
def test_catalyst_matches_duckdb(snb, qi):
    """Per generated query: Catalyst self-join plan == DuckDB SQL."""
    updates, queries, triples_df = snb
    q = queries[qi]
    got = spark_bgp_match(triples_df, q)
    assert_equivalent(got, bgp_to_sql(q), g=stream_to_pandas(updates))


@pytest.mark.parametrize("qi", [0, 3, 7, 11])
def test_catalyst_matches_bruteforce(snb, qi):
    updates, queries, triples_df = snb
    q = queries[qi]
    rows = spark_bgp_match(triples_df, q).collect()
    var_vids = [v for v, term in enumerate(q.vertices) if term is None]
    got = sorted(tuple(r[f"v{v}"] for v in var_vids) for r in rows)
    exp = sorted({tuple(e[v] for v in var_vids) for e in embeddings(q, updates)})
    assert got == exp


def test_first_match_spark_equals_bruteforce(snb):
    updates, queries, triples_df = snb
    got = first_match_spark(triples_df, queries[:8])
    exp = {}
    for q in queries[:8]:
        fm = first_match_index(q, updates)
        if fm is not None:
            exp[q.qid] = fm
    assert got == exp


class TestHandwrittenPatterns:
    """Directed shapes checked against DuckDB on a tiny explicit graph."""

    @pytest.fixture(scope="class")
    def tiny(self, spark):
        import pandas as pd

        rows = [
            (0, "a", "knows", "b"),
            (1, "b", "knows", "c"),
            (2, "c", "knows", "a"),
            (3, "a", "likes", "p1"),
            (4, "b", "likes", "p1"),
            (5, "a", "knows", "c"),
        ]
        pdf = pd.DataFrame(rows, columns=["t", "s", "p", "o"])
        return pdf, spark.createDataFrame(pdf)

    def q(self, vertices, edges):
        from repro.graph.model import QueryPattern

        return QueryPattern(qid=0, vertices=vertices, edges=edges)

    @pytest.mark.parametrize(
        "vertices,edges",
        [
            ([None, None], [(0, "knows", 1)]),  # single edge
            ([None, None, None], [(0, "knows", 1), (1, "knows", 2)]),  # chain
            ([None, None], [(0, "knows", 1), (1, "knows", 0)]),  # 2-cycle
            ([None, None, None], [(0, "knows", 1), (1, "knows", 2), (2, "knows", 0)]),
            ([None, None, "p1"], [(0, "knows", 1), (0, "likes", 2), (1, "likes", 2)]),
            (["a", None], [(0, "knows", 1)]),  # literal source
            ([None, "p1"], [(0, "likes", 1)]),  # literal target
            (["a", "b"], [(0, "knows", 1)]),  # no variables at all
        ],
    )
    def test_pattern(self, tiny, vertices, edges):
        pdf, df = tiny
        q = self.q(vertices, edges)
        assert_equivalent(spark_bgp_match(df, q), bgp_to_sql(q), g=pdf)


class TestTriplesOracle:
    """The DuckDB bridge itself on the SNB triples table: float columns go
    through the rounding in ``assert_equivalent``, and several tables, Spark
    and pandas, are registered at once."""

    def test_predicate_float_aggregate(self, snb):
        from pyspark.sql import functions as F

        _, _, triples_df = snb
        got = triples_df.groupBy("p").agg(
            F.count("*").alias("cnt"), F.avg("t").alias("mean_t")
        )
        assert_equivalent(
            got,
            "SELECT p, count(*) AS cnt, avg(t) AS mean_t FROM g GROUP BY p",
            g=triples_df,
        )

    def test_two_table_join(self, snb):
        from pyspark.sql import functions as F

        updates, _, triples_df = snb
        g, g2 = triples_df.alias("g"), triples_df.alias("g2")
        got = (
            g.join(g2, F.col("g.o") == F.col("g2.s"))
            .groupBy(F.col("g.p").alias("p1"), F.col("g2.p").alias("p2"))
            .agg(F.count("*").alias("cnt"))
        )
        assert_equivalent(
            got,
            "SELECT g.p AS p1, g2.p AS p2, count(*) AS cnt FROM g JOIN g2 "
            "ON g.o = g2.s GROUP BY g.p, g2.p",
            g=triples_df,
            g2=stream_to_pandas(updates),
        )
