"""Dataset stream generators: determinism, schema, and the structural
properties each paper dataset is used for."""
import pytest

from repro.graph.model import Triple
from repro.streams.datasets import (
    DATASETS,
    biogrid_stream,
    nyc_stream,
    snb_stream,
    stream_to_pandas,
    stream_to_spark,
)


@pytest.mark.parametrize("name", list(DATASETS))
class TestCommon:
    def test_length_and_type(self, name):
        s = DATASETS[name](200, seed=0)
        assert len(s) == 200
        assert all(isinstance(u, Triple) for u in s)

    def test_deterministic_in_seed(self, name):
        assert DATASETS[name](150, seed=7) == DATASETS[name](150, seed=7)

    def test_seed_changes_stream(self, name):
        assert DATASETS[name](150, seed=1) != DATASETS[name](150, seed=2)

    def test_to_pandas_schema(self, name, spark):
        updates = DATASETS[name](50, seed=0)
        pdf = stream_to_pandas(updates)
        assert list(pdf.columns) == ["t", "s", "p", "o"]
        assert pdf["t"].tolist() == list(range(50))
        # the Spark frame holds the same rows
        got = stream_to_spark(spark, updates).toPandas()
        assert got.sort_values("t").reset_index(drop=True).equals(pdf)


class TestSNB:
    def test_predicate_vocabulary(self):
        preds = {u.p for u in snb_stream(2000, seed=0)}
        assert preds == {
            "locatedIn",
            "knows",
            "hasModerator",
            "hasMember",
            "posted",
            "containedIn",
            "replyOf",
            "hasCreator",
            "likes",
        }

    def test_contains_reciprocal_knows(self):
        s = snb_stream(2000, seed=0)
        knows = {(u.s, u.o) for u in s if u.p == "knows"}
        assert any((b, a) in knows for a, b in knows), "no 2-cycles for cycle queries"

    def test_posts_are_contained_in_forums(self):
        s = snb_stream(1000, seed=0)
        posted = {u.o for u in s if u.p == "posted"}
        contained = {u.s for u in s if u.p == "containedIn"}
        assert contained <= posted


class TestNYC:
    def test_predicate_vocabulary(self):
        preds = {u.p for u in nyc_stream(1000, seed=0)}
        assert preds == {"by_taxi", "picked_at", "dropped_at", "paid_with", "connects"}

    def test_zone_skew(self):
        """Zipf zones: the hottest zone dominates (the join blow-up driver)."""
        s = nyc_stream(5000, seed=0)
        from collections import Counter

        pick = Counter(u.o for u in s if u.p == "picked_at")
        counts = sorted(pick.values(), reverse=True)
        assert counts[0] > 4 * counts[len(counts) // 2]

    def test_connects_deduped(self):
        s = nyc_stream(3000, seed=0)
        con = [(u.s, u.o) for u in s if u.p == "connects"]
        assert len(con) == len(set(con))


class TestBioGRID:
    def test_single_predicate_single_vertex_type(self):
        """The paper's stress property: one edge label, one vertex label."""
        s = biogrid_stream(1000, seed=0)
        assert {u.p for u in s} == {"interacts"}
        assert all(u.s.startswith("P") and u.o.startswith("P") for u in s)

    def test_no_self_loops(self):
        assert all(u.s != u.o for u in biogrid_stream(1000, seed=0))

    def test_preferential_attachment_skew(self):
        from collections import Counter

        s = biogrid_stream(4000, seed=0)
        deg = Counter()
        for u in s:
            deg[u.s] += 1
            deg[u.o] += 1
        counts = sorted(deg.values(), reverse=True)
        assert counts[0] > 5 * counts[len(counts) // 2]

    def test_contains_reciprocal_interactions(self):
        s = biogrid_stream(1000, seed=0)
        edges = {(u.s, u.o) for u in s}
        assert any((b, a) in edges for a, b in edges)
