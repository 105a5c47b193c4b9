"""All seven engines must agree — with each other and with brute force —
on the matched query set and the first-match update index, across datasets
and seeds.  This is the core correctness gate of the reproduction."""
import pytest

from repro.bench.harness import build_workload
from repro.engine.base import ALGORITHMS, make_engine
from repro.engine.runner import index_queries, run_stream
from repro.graph.bruteforce import first_match_index
from repro.relational.relation import COUNTERS


def run(name, updates, queries):
    e = make_engine(name)
    index_queries(e, queries)
    return run_stream(e, updates)


@pytest.fixture(scope="module")
def workloads():
    """Small deterministic workloads with reference (brute-force) answers."""
    out = {}
    for ds in ("snb", "nyc", "biogrid"):
        for seed in (0, 1):
            updates, queries = build_workload(
                ds, n_updates=160, n_queries=18, avg_len=4, seed=seed
            )
            bf = {q.qid: first_match_index(q, updates) for q in queries}
            out[(ds, seed)] = (updates, queries, bf)
    return out


@pytest.mark.parametrize("ds", ["snb", "nyc", "biogrid"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("engine", ALGORITHMS)
class TestAgainstBruteForce:
    def test_matched_set_and_first_match(self, workloads, ds, seed, engine):
        updates, queries, bf = workloads[(ds, seed)]
        r = run(engine, updates, queries)
        expected_matched = {q for q, t in bf.items() if t is not None}
        assert r.matched == expected_matched
        assert r.first_match == {q: t for q, t in bf.items() if t is not None}


@pytest.mark.parametrize("ds", ["snb", "nyc", "biogrid"])
class TestCachedVariantsIdentical:
    """The + variants must produce bit-identical event streams (not just
    matched sets) to their uncached counterparts."""

    @pytest.mark.parametrize("base", ["tric", "inv", "inc"])
    def test_event_stream_identical(self, workloads, ds, base):
        updates, queries, _ = workloads[(ds, 0)]
        r_plain = run(base, updates, queries)
        r_cached = run(base + "+", updates, queries)
        assert r_plain.events == r_cached.events


@pytest.mark.parametrize("ds", ["snb", "nyc", "biogrid"])
def test_selectivity_control_is_exact(workloads, ds):
    """σ by construction: exactly the generator-marked satisfiable queries
    match by the end of the stream."""
    updates, queries, bf = workloads[(ds, 0)]
    sat = {q.qid for q in queries if q.meta["satisfiable"]}
    assert {q for q, t in bf.items() if t is not None} == sat


def view_sizes(e):
    """Row counts of every base, trie and canonical view of a tric/inv/inc
    engine."""
    views = list(e.base.values())
    views += [v for asm in e.assemblers.values() for v in asm.canon_views]
    if hasattr(e, "forest"):
        views += [n.matv for n in e.forest.all_nodes()]
    return [len(v) for v in views]


class TestEdgeCases:
    def test_duplicate_update_is_idempotent(self):
        """Each update sent twice in a row: the events are the original
        stream's at doubled indexes, and for tric/inv/inc the repeat costs
        no join work and adds no row to any view."""
        updates, queries = build_workload("snb", n_updates=120, n_queries=10, seed=5)
        doubled = [u for u in updates for _ in range(2)]
        for name in ALGORITHMS:
            r1 = run(name, updates, queries)
            r2 = run(name, doubled, queries)
            assert r1.events, "workload must fire for the comparison to bite"
            assert r2.events == [(2 * t, q) for t, q in r1.events], name
            if name == "graphdb":
                continue
            e = make_engine(name)
            index_queries(e, queries)
            for u in updates:
                e.process_update(u)
                before = (dict(COUNTERS), view_sizes(e))
                assert e.process_update(u) == [], (name, u)
                assert (dict(COUNTERS), view_sizes(e)) == before, (name, u)

    def test_no_queries_no_events(self):
        updates, _ = build_workload("snb", n_updates=50, n_queries=5, seed=0)
        for name in ALGORITHMS:
            e = make_engine(name)
            r = run_stream(e, updates)
            assert r.events == [] and r.processed == len(updates)

    def test_unindexed_predicate_is_skipped(self):
        from repro.graph.model import QueryPattern, Triple

        q = QueryPattern(qid=0, vertices=[None, "X"], edges=[(0, "p", 1)])
        for name in ALGORITHMS:
            e = make_engine(name)
            e.add_query(q)
            assert e.process_update(Triple("a", "nope", "b")) == []
            assert e.process_update(Triple("a", "p", "X")) == [0]

    def test_events_are_monotone_nondecreasing_in_t(self):
        updates, queries = build_workload("nyc", n_updates=150, n_queries=12, seed=2)
        for name in ALGORITHMS:
            r = run(name, updates, queries)
            ts = [t for t, _ in r.events]
            assert ts == sorted(ts)

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_add_query_after_update_is_refused(self, name):
        """Queries are indexed before the first update.  Accepting a later
        one made the engines disagree: tric..inc+ never matched it on the
        stream below, graphdb did."""
        from repro.graph.model import QueryPattern, Triple

        e = make_engine(name)
        e.add_query(QueryPattern(qid=0, vertices=[None, None], edges=[(0, "a", 1)]))
        e.add_query(QueryPattern(qid=2, vertices=[None, None], edges=[(0, "c", 1)]))
        assert e.process_update(Triple("x", "b", "y")) == []  # no indexed signature
        late = QueryPattern(
            qid=1, vertices=[None, None, None], edges=[(0, "b", 1), (1, "c", 2)]
        )
        with pytest.raises(RuntimeError, match="add_query after process_update"):
            e.add_query(late)
        assert e.process_update(Triple("y", "c", "z")) == [2]

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_index_queries_ends_the_indexing_phase(self, workloads, name):
        """``index_queries`` calls ``end_indexing``: later queries are
        refused, and the events equal those of an engine whose first
        update ends the phase.  A second ``end_indexing`` does nothing."""
        updates, queries, _ = workloads[("snb", 0)]
        e = make_engine(name)
        index_queries(e, queries[1:])
        with pytest.raises(RuntimeError, match="add_query after"):
            e.add_query(queries[0])
        e.end_indexing()
        if name.startswith("tric"):
            for n in e.forest.all_nodes():
                assert sum(len(f.members) for f in n.feeds) == len(n.registered)
        lazy = make_engine(name)
        for q in queries[1:]:
            lazy.add_query(q)
        events = run_stream(e, updates).events
        assert events and events == run_stream(lazy, updates).events

    @pytest.mark.parametrize("name", ["nope", "graphdb+", "tric++"])
    def test_engine_factory_rejects_unknown(self, name):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine(name)

    def test_engine_names(self):
        for name in ALGORITHMS:
            assert make_engine(name).name == name
