"""Relational kernel: views, hash joins, cached indexes, work counters."""
import pandas as pd
import pytest

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
        assert v.index((0,)).get(("a",)) == [("a", "b")]


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
        assert one.get(("a",)) == self.ROWS[:2]
        assert multi.get(("a", "1")) == self.ROWS[:2]
        assert multi.get(("b", "2")) == [self.ROWS[2]]
        assert one.get(("z",)) == [] and multi.get(("a", "2")) == []

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
