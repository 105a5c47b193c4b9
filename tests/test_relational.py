"""Relational kernel: views, hash joins, cached indexes, work counters."""
import gc

import pandas as pd
import pytest

from repro.relational import relation
from repro.relational.relation import (
    COUNTERS,
    HashIndex,
    View,
    hash_join,
    probe_join,
    reset_counters,
)


@pytest.fixture(autouse=True)
def _reset():
    reset_counters()


class TestView:
    def test_add_dedups(self):
        v = View()
        assert v.add(("a", "b"))
        assert not v.add(("a", "b"))
        assert len(v) == 1

    def test_add_all_returns_delta(self):
        v = View()
        v.add(("a", "b"))
        delta = v.add_all([("a", "b"), ("c", "d"), ("c", "d")])
        assert delta == [("c", "d")]
        assert len(v) == 2

    def test_contains(self):
        v = View()
        assert ("a", "b") not in v  # no row stored yet, so no duplicate set
        v.add(("a", "b"))
        assert ("a", "b") in v and ("x", "y") not in v

    def test_uncached_view_has_no_index(self):
        assert View(cached=False).index((0,)) is None

    def test_cached_index_maintained_on_insert(self):
        v = View(cached=True)
        idx = v.index((0,))
        v.add(("a", "b"))
        v.add(("a", "c"))
        assert sorted(idx.get(("a",))) == [("a", "b"), ("a", "c")]

    def test_cached_index_backfills_existing_rows(self):
        v = View(cached=True)
        v.add(("a", "b"))
        assert list(v.index((0,)).get(("a",))) == [("a", "b")]

    @pytest.mark.parametrize("cached", [False, True])
    def test_where_probes_if_cached_and_scans_otherwise(self, cached):
        v = View(cached=cached)
        v.add_all([("a", "b"), ("c", "b"), ("a", "d")])
        assert list(v.where(0, "a")) == [("a", "b"), ("a", "d")]
        assert list(v.where(1, "b")) == [("a", "b"), ("c", "b")]
        assert list(v.where(1, "z")) == []
        if cached:
            assert COUNTERS == {"build_rows": 0, "probe_rows": 3, "out_rows": 0}
        else:
            assert COUNTERS == {"build_rows": 9, "probe_rows": 0, "out_rows": 0}


class TestHashIndex:
    def test_multi_column_key(self):
        idx = HashIndex((0, 2))
        idx.add(("a", "x", "b"))
        idx.add(("a", "y", "b"))
        assert len(idx.get(("a", "b"))) == 2
        assert len(idx) == 2


def pandas_join(left, right, lk, rk):
    lf = pd.DataFrame(left, columns=[f"l{i}" for i in range(len(left[0]))])
    rf = pd.DataFrame(right, columns=[f"r{i}" for i in range(len(right[0]))])
    m = lf.merge(rf, left_on=[f"l{i}" for i in lk], right_on=[f"r{i}" for i in rk])
    return sorted(map(tuple, m.values.tolist()))


class TestHashJoin:
    @pytest.mark.parametrize("cached", [False, True])
    def test_matches_pandas_merge(self, cached):
        left = [("a", "x"), ("b", "y"), ("a", "z")]
        right_rows = [("x", "1"), ("x", "2"), ("y", "3"), ("w", "4")]
        v = View(cached=cached)
        for r in right_rows:
            v.add(r)
        got = hash_join(left, (1,), v, (0,), lambda a, b: a + b)
        expected = pandas_join(left, right_rows, [1], [0])
        assert sorted(got) == expected

    def test_empty_probe(self):
        v = View()
        v.add(("a", "b"))
        assert hash_join([], (0,), v, (0,), lambda a, b: a + b) == []

    def test_empty_build(self):
        assert hash_join([("a",)], (0,), View(), (0,), lambda a, b: a + b) == []

    def test_uncached_pays_build_cost_every_call(self):
        v = View()
        for i in range(10):
            v.add((f"k{i}", str(i)))
        hash_join([("k1",)], (0,), v, (0,), lambda a, b: a + b)
        hash_join([("k1",)], (0,), v, (0,), lambda a, b: a + b)
        assert COUNTERS["build_rows"] == 20  # rebuilt both times

    def test_cached_skips_build_cost(self):
        v = View(cached=True)
        for i in range(10):
            v.add((f"k{i}", str(i)))
        hash_join([("k1",)], (0,), v, (0,), lambda a, b: a + b)
        hash_join([("k1",)], (0,), v, (0,), lambda a, b: a + b)
        assert COUNTERS["build_rows"] == 0

    def test_probe_join_equals_hash_join(self):
        rows = [("a", "1"), ("b", "2"), ("a", "3")]
        v = View(cached=True)
        for r in rows:
            v.add(r)
        probe = [("a",), ("b",), ("c",)]
        got = probe_join(probe, (0,), v.index((0,)), lambda a, b: a + b)
        ref = hash_join(probe, (0,), v, (0,), lambda a, b: a + b)
        assert sorted(got) == sorted(ref)

    def test_multi_key_join(self):
        v = View(cached=False)
        v.add(("a", "b", "1"))
        v.add(("a", "c", "2"))
        got = hash_join([("a", "b")], (0, 1), v, (0, 1), lambda a, b: (b[2],))
        assert got == [("1",)]


class TestHashIndexKeys:
    ROWS = [("a", "x", "1"), ("a", "y", "1"), ("b", "x", "2")]

    def test_get_one_and_multi_column_tuple_keys(self):
        one = HashIndex((0,), self.ROWS)
        multi = HashIndex((0, 2), self.ROWS)
        assert list(one.get(("a",))) == self.ROWS[:2]
        assert list(multi.get(("a", "1"))) == self.ROWS[:2]
        assert list(multi.get(("b", "2"))) == [self.ROWS[2]]
        assert list(one.get(("z",))) == [] and list(multi.get(("a", "2"))) == []

    @pytest.mark.parametrize("probe_key,build_key", [((1,), (0,)), ((0, 1), (1, 0))])
    def test_probe_join_on_built_index_equals_hash_join(self, probe_key, build_key):
        v = View()
        for r in [("x", "a"), ("y", "b"), ("x", "c"), ("a", "x")]:
            v.add(r)
        probe = [("a", "x"), ("b", "y"), ("q", "q")]
        emit = lambda a, b: a + b  # noqa: E731
        got = probe_join(probe, probe_key, HashIndex(build_key, v.rows), emit)
        assert got == hash_join(probe, probe_key, v, build_key, emit)
        assert got


class TestUncachedBuildKeepsMatchableRows:
    """An uncached join reads every view row but, when the probe side is the
    smaller input, indexes only the rows whose key some probe row holds.
    Its output equals a cached join's, list for list."""

    #: build rows; under key (0,) "a" has 3 rows, under (0, 1) ("a", "x") 2
    ROWS = [("a", "x", "1"), ("b", "y", "2"), ("a", "x", "3"),
            ("c", "x", "4"), ("a", "y", "5")]
    PROBES = {
        "none": [],
        "one": [("a", "x")],
        "repeated_and_absent": [("a", "x"), ("q", "q"), ("a", "x"), ("a", "y")],
        "as_many_as_build": [("c", "x"), ("a", "y"), ("z", "z"), ("a", "y"),
                             ("a", "x")],
        "more_than_build": [("a", "y"), ("z", "x"), ("a", "x"), ("z", "x"),
                            ("q", "q"), ("a", "y")],
    }
    KEYS = [(0,), (0, 1)]

    @classmethod
    def view(cls, cached: bool) -> View:
        v = View(cached=cached)
        v.add_all(cls.ROWS)
        return v

    @staticmethod
    def emit(pr, br):
        return pr + br[2:]

    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("probe", PROBES)
    def test_same_list_as_cached_join(self, probe, key):
        rows = self.PROBES[probe]
        got = hash_join(rows, key, self.view(False), key, self.emit)
        assert got == hash_join(rows, key, self.view(True), key, self.emit)
        want = [pr + br[2:] for pr in rows for br in self.ROWS
                if all(pr[c] == br[c] for c in key)]
        assert got == want

    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("probe", PROBES)
    def test_counts_every_build_probe_and_output_row(self, probe, key):
        rows = self.PROBES[probe]
        v = self.view(False)
        out = hash_join(rows, key, v, key, self.emit)
        assert COUNTERS == {"build_rows": len(v), "probe_rows": len(rows),
                            "out_rows": len(out)}
        out2 = hash_join(rows, key, v, key, self.emit)
        assert COUNTERS == {"build_rows": 2 * len(v),
                            "probe_rows": 2 * len(rows),
                            "out_rows": len(out) + len(out2)}

    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("probe", PROBES)
    def test_build_indexes_matchable_rows_only_when_probe_is_smaller(
        self, monkeypatch, probe, key
    ):
        built = []
        build = relation._build

        def spy(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(relation, "_build", spy)
        rows = self.PROBES[probe]
        hash_join(rows, key, self.view(True), key, self.emit)
        assert built == []
        hash_join(rows, key, self.view(False), key, self.emit)
        assert len(built) == 1
        keys = {tuple(pr[c] for c in key) for pr in rows}
        matchable = [r for r in self.ROWS if tuple(r[c] for c in key) in keys]
        indexed = [r for bucket in built[0].buckets.values() for r in bucket]
        if len(rows) < len(self.ROWS):
            assert sorted(indexed) == sorted(matchable)
        else:
            assert sorted(indexed) == sorted(self.ROWS)


class TestBuckets:
    """A bucket with one row is a 1-tuple, which the cyclic collector stops
    tracking; its second row turns it into a list, which later rows extend
    in place.  Readers see the same rows, in insertion order, either way."""

    #: key "a": 3 rows, key "b": 1 row, key "z": none
    ROWS = [("a", "1"), ("b", "2"), ("a", "3"), ("a", "4")]

    def index(self, incremental: bool) -> HashIndex:
        if not incremental:
            return HashIndex((0,), self.ROWS)
        idx = HashIndex((0,))
        for r in self.ROWS:
            idx.add(r)
        return idx

    @pytest.mark.parametrize("incremental", [False, True])
    def test_get_zero_one_and_many_rows(self, incremental):
        idx = self.index(incremental)
        assert list(idx.get(("z",))) == []
        assert list(idx.get(("b",))) == [("b", "2")]
        assert list(idx.get(("a",))) == [("a", "1"), ("a", "3"), ("a", "4")]
        assert len(idx) == 4

    def test_one_row_bucket_is_untracked_tuple_then_list_grown_in_place(self):
        idx = HashIndex((0,))
        idx.add(("a", "1"))
        gc.collect()
        assert type(idx.buckets["a"]) is tuple
        assert not gc.is_tracked(idx.buckets["a"])
        idx.add(("a", "2"))
        bucket = idx.buckets["a"]
        assert type(bucket) is list
        idx.extend([("a", "3")])
        idx.add(("a", "4"))
        assert idx.buckets["a"] is bucket
        assert bucket == [("a", "1"), ("a", "2"), ("a", "3"), ("a", "4")]

    def test_len_counts_rows_over_both_kinds(self):
        idx = HashIndex((0,))
        assert len(idx) == 0
        idx.add(("a", "1"))
        assert len(idx) == 1
        idx.add(("b", "1"))
        idx.add(("a", "2"))
        assert len(idx) == 3

    @pytest.mark.parametrize("cached", [False, True])
    def test_where_same_rows_in_insertion_order(self, cached):
        v = View(cached=cached)
        v.add_all(self.ROWS)
        assert list(v.where(0, "z")) == []
        assert list(v.where(0, "b")) == [("b", "2")]
        assert list(v.where(0, "a")) == [("a", "1"), ("a", "3"), ("a", "4")]

    @pytest.mark.parametrize("incremental", [False, True])
    def test_probe_join_zero_one_and_many_rows(self, incremental):
        idx = self.index(incremental)
        probe = [("z",), ("b",), ("a",)]
        got = probe_join(probe, (0,), idx, lambda pr, br: br)
        assert got == [("b", "2"), ("a", "1"), ("a", "3"), ("a", "4")]
        assert COUNTERS == {"build_rows": 0, "probe_rows": 3, "out_rows": 4}
