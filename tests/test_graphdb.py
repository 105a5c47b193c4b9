"""GraphDB (Neo4j stand-in): store, indexes, planner, parameterized
execution, plan cache."""
import pytest

from repro.baselines.graphdb import GraphDBEngine
from repro.engine.base import EngineOverflow
from repro.graph.model import QueryPattern, Triple


def engine(*queries, latency=0.0):
    e = GraphDBEngine(exec_latency_us=latency)
    for q in queries:
        e.add_query(q)
    return e


def chain_q(qid=0):
    # ?x -a-> ?y -b-> L
    return QueryPattern(
        qid=qid, vertices=[None, None, "L"], edges=[(0, "a", 1), (1, "b", 2)]
    )


class TestStore:
    def test_insert_and_indexes(self):
        e = engine()
        assert e._insert(Triple("x", "p", "y"))
        assert e.by_p["p"] == 1
        assert e.by_ps[("p", "x")] == ["y"]
        assert e.by_po[("p", "y")] == ["x"]

    def test_duplicate_insert_rejected(self):
        e = engine()
        assert e._insert(Triple("x", "p", "y"))
        assert not e._insert(Triple("x", "p", "y"))
        assert e.by_p["p"] == 1


class TestAnsweringPhase:
    def test_simple_chain_matches_in_order(self):
        e = engine(chain_q())
        assert e.process_update(Triple("u", "a", "v")) == []
        assert e.process_update(Triple("v", "b", "L")) == [0]

    def test_reverse_arrival_order(self):
        e = engine(chain_q())
        assert e.process_update(Triple("v", "b", "L")) == []
        assert e.process_update(Triple("u", "a", "v")) == [0]

    def test_unaffected_update_cheap_skip(self):
        e = engine(chain_q())
        assert e.process_update(Triple("u", "zzz", "v")) == []

    def test_wrong_literal_never_matches(self):
        e = engine(chain_q())
        e.process_update(Triple("u", "a", "v"))
        assert e.process_update(Triple("v", "b", "NotL")) == []

    def test_multiple_queries_affected(self):
        q2 = QueryPattern(qid=1, vertices=[None, None], edges=[(0, "a", 1)])
        e = engine(chain_q(0), q2)
        assert e.process_update(Triple("u", "a", "v")) == [1]
        assert e.process_update(Triple("v", "b", "L")) == [0]

    def test_cycle_query(self):
        q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "a", 1), (1, "a", 0)])
        e = engine(q)
        assert e.process_update(Triple("x", "a", "y")) == []
        assert e.process_update(Triple("y", "a", "x")) == [0]

    def test_self_loop_pattern(self):
        q = QueryPattern(qid=0, vertices=[None], edges=[(0, "p", 0)])
        e = engine(q)
        assert e.process_update(Triple("x", "p", "y")) == []
        assert e.process_update(Triple("z", "p", "z")) == [0]


class TestPlanner:
    def test_plan_cached_per_query_and_anchor(self):
        e = engine(chain_q())
        e.process_update(Triple("u", "a", "v"))
        e.process_update(Triple("v", "b", "L"))
        assert (0, 0) in e.plan_cache and (0, 1) in e.plan_cache

    def test_plan_covers_all_non_anchor_edges(self):
        q = chain_q()
        e = engine(q)
        e.process_update(Triple("u", "a", "v"))
        plan = e._plan(q, 0)
        assert sorted(plan + [0]) == [0, 1]

    def test_plan_respects_connectivity(self):
        # chain of 3: anchored in the middle, plan should expand outward
        q = QueryPattern(
            qid=0,
            vertices=[None, None, None, None],
            edges=[(0, "a", 1), (1, "b", 2), (2, "c", 3)],
        )
        e = engine(q)
        plan = e._plan(q, 1)
        assert set(plan) == {0, 2}


class TestOverflow:
    def test_result_cap_raises(self):
        q = QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "p", 1), (0, "p", 2)]
        )
        e = GraphDBEngine(max_rows=10, exec_latency_us=0.0)
        e.add_query(q)
        for i in range(20):
            e.process_update(Triple("hub", "p", f"x{i}"))
            if i > 5:
                break
        with pytest.raises(EngineOverflow):
            for i in range(20, 60):
                e.process_update(Triple("hub", "p", f"x{i}"))


class TestLatencySimulation:
    def test_latency_floor_applied(self):
        import time

        q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "a", 1)])
        fast = engine(q, latency=0.0)
        slow = engine(q, latency=2000.0)  # 2 ms per execution
        t0 = time.perf_counter()
        fast.process_update(Triple("x", "a", "y"))
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        slow.process_update(Triple("x", "a", "y"))
        t_slow = time.perf_counter() - t0
        assert t_slow > t_fast + 0.0015

    def test_latency_floor_applied_when_self_loop_anchor_misses(self):
        """An execution anchored at a self-loop edge pays the floor even
        when the update is no self-loop and so binds nothing."""
        import time

        q = QueryPattern(qid=0, vertices=[None], edges=[(0, "a", 0)])
        slow = engine(q, latency=2000.0)  # 2 ms per execution
        t0 = time.perf_counter()
        assert slow.process_update(Triple("x", "a", "y")) == []
        assert time.perf_counter() - t0 >= 0.002

    def test_latency_does_not_change_results(self):
        q = chain_q()
        a, b = engine(q, latency=0.0), engine(q, latency=100.0)
        ups = [Triple("u", "a", "v"), Triple("v", "b", "L")]
        assert [a.process_update(u) for u in ups] == [
            b.process_update(u) for u in ups
        ]


class TestMemory:
    def test_execute_leaves_no_reference_cycle(self):
        """Each execution's records are freed when it returns, not when the
        cyclic collector next runs."""
        import gc

        e = engine(chain_q(), QueryPattern(qid=1, vertices=[None, None], edges=[(0, "b", 1)]))
        ups = [Triple("u", "a", "v"), Triple("v", "b", "L"), Triple("w", "a", "v"),
               Triple("v", "b", "M")]
        gc.collect()
        gc.disable()
        try:
            assert [e.process_update(u) for u in ups] == [[], [0, 1], [0], [1]]
            assert gc.collect() == 0
        finally:
            gc.enable()
