"""TRIC engine internals: delta propagation through tries, view sharing,
pruning, and the TRIC+ caching contract."""
import pytest

from repro.core.tric import TricEngine
from repro.graph.model import QueryPattern, Triple
from repro.relational.relation import COUNTERS, reset_counters


def chain_q(qid=0, preds=("a", "b"), last_lit="L"):
    n = len(preds) + 1
    verts = [None] * (n - 1) + [last_lit]
    return QueryPattern(
        qid=qid, vertices=verts, edges=[(i, preds[i], i + 1) for i in range(len(preds))]
    )


class TestDeltaPropagation:
    def test_in_order_arrival(self):
        e = TricEngine()
        e.add_query(chain_q())
        assert e.process_update(Triple("u", "a", "v")) == []
        assert e.process_update(Triple("v", "b", "L")) == [0]

    def test_out_of_order_arrival(self):
        """The old(parent) ⋈ {u} term: a late prefix edge must still complete
        matches whose suffix arrived first... and vice versa."""
        e = TricEngine()
        e.add_query(chain_q())
        assert e.process_update(Triple("v", "b", "L")) == []
        assert e.process_update(Triple("u", "a", "v")) == [0]

    def test_three_edge_chain_all_arrival_orders(self):
        import itertools

        ups = [Triple("u", "a", "v"), Triple("v", "b", "w"), Triple("w", "c", "L")]
        for perm in itertools.permutations(range(3)):
            e = TricEngine()
            e.add_query(chain_q(preds=("a", "b", "c")))
            results = [e.process_update(ups[i]) for i in perm]
            assert results[:2] == [[], []] and results[2] == [0], perm

    def test_repeated_signature_chain(self):
        """BioGRID-style: same signature at several trie depths."""
        q = QueryPattern(
            qid=0,
            vertices=[None, None, None],
            edges=[(0, "i", 1), (1, "i", 2)],
        )
        e = TricEngine()
        e.add_query(q)
        assert e.process_update(Triple("x", "i", "y")) == []
        # y->z completes x->y->z AND starts y->z->? ; one emission
        assert e.process_update(Triple("y", "i", "z")) == [0]
        # new head w->x completes w->x->y (new embedding)
        assert e.process_update(Triple("w", "i", "x")) == [0]

    def test_matv_shared_across_queries(self):
        e = TricEngine()
        e.add_query(chain_q(qid=0, last_lit="L1"))
        e.add_query(chain_q(qid=1, last_lit="L1"))  # identical pattern
        e.process_update(Triple("u", "a", "v"))
        assert e.forest.n_nodes() == 2  # fully clustered
        assert sorted(e.process_update(Triple("v", "b", "L1"))) == [0, 1]

    def test_duplicate_update_no_reemit(self):
        e = TricEngine()
        e.add_query(chain_q())
        e.process_update(Triple("u", "a", "v"))
        assert e.process_update(Triple("v", "b", "L")) == [0]
        assert e.process_update(Triple("v", "b", "L")) == []

    def test_multi_sig_update_hits_all_variants(self):
        # two queries: one with literal source, one generic
        qa = QueryPattern(qid=0, vertices=["S", None], edges=[(0, "p", 1)])
        qb = QueryPattern(qid=1, vertices=[None, None], edges=[(0, "p", 1)])
        e = TricEngine()
        e.add_query(qa)
        e.add_query(qb)
        assert sorted(e.process_update(Triple("S", "p", "x"))) == [0, 1]
        assert e.process_update(Triple("T", "p", "x")) == [1]

    def test_star_query(self):
        q = QueryPattern(
            qid=0, vertices=[None, "X", "Y"], edges=[(0, "a", 1), (0, "b", 2)]
        )
        e = TricEngine()
        e.add_query(q)
        assert e.process_update(Triple("c", "a", "X")) == []
        assert e.process_update(Triple("d", "b", "Y")) == []  # different center
        assert e.process_update(Triple("c", "b", "Y")) == [0]

    def test_cycle_closure_enforced(self):
        q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "k", 1), (1, "k", 0)])
        e = TricEngine()
        e.add_query(q)
        assert e.process_update(Triple("x", "k", "y")) == []
        assert e.process_update(Triple("y", "k", "z")) == []  # open, not closed
        assert e.process_update(Triple("y", "k", "x")) == [0]

    @pytest.mark.parametrize("cached", [False, True])
    def test_closing_node_stores_only_closed_walks(self, cached):
        """a→b→a→c: the inner node for the edge back to ``a`` keeps only
        rows whose third slot equals the first, in both semi-naive terms."""
        q = QueryPattern(
            qid=0,
            vertices=[None, None, None],
            edges=[(0, "k", 1), (1, "k", 0), (0, "m", 2)],
        )
        e = TricEngine(cached=cached)
        e.add_query(q)
        root = e.forest.roots[(("k", None, None), None)]
        closing = root.children[(("k", None, None), 0)]
        assert closing.ref == 0 and closing.children
        ups = [
            Triple("x", "k", "y"),
            Triple("y", "k", "z"),  # extends x→y to an open walk: not kept
            Triple("y", "k", "x"),  # closes x→y→x (and y→x→y)
            Triple("z", "k", "y"),  # closes y→z→y
            Triple("x", "m", "w"),
        ]
        fired = [e.process_update(u) for u in ups]
        assert fired == [[], [], [], [], [0]]
        assert sorted(closing.matv.rows) == [
            ("x", "y", "x"), ("y", "x", "y"), ("y", "z", "y"), ("z", "y", "z")
        ]

    @pytest.mark.parametrize("cached", [False, True])
    def test_self_loop_root_takes_only_loops(self, cached):
        e = TricEngine(cached=cached)
        e.add_query(
            QueryPattern(qid=0, vertices=[None, None], edges=[(0, "a", 0), (0, "b", 1)])
        )
        root = e.forest.roots[(("a", None, None), 0)]
        assert root.children
        assert e.process_update(Triple("x", "a", "y")) == []
        assert e.process_update(Triple("x", "a", "x")) == []
        assert e.process_update(Triple("x", "b", "z")) == [0]
        assert root.matv.rows == [("x", "x")]


class TestPruning:
    def test_unrelated_trie_not_traversed(self):
        e = TricEngine()
        e.add_query(chain_q(qid=0, preds=("a", "b")))
        e.add_query(chain_q(qid=1, preds=("x", "y")))
        e.process_update(Triple("u", "a", "v"))
        # the x-rooted trie's views must stay empty
        root_x = e.forest.roots[(("x", None, None), None)]
        assert len(root_x.matv) == 0

    def test_empty_delta_prunes_subtree(self):
        e = TricEngine()
        e.add_query(chain_q(qid=0, preds=("a", "b", "c")))
        # update matches 'b' but no 'a' prefix exists -> no view entries
        e.process_update(Triple("v", "b", "w"))
        nodes = e.forest.all_nodes()
        assert all(len(n.matv) == 0 for n in nodes if n.depth > 0)


class TestCachingContract:
    def test_tric_plus_skips_build_phases(self):
        ups = [Triple(f"u{i}", "a", f"v{i}") for i in range(30)] + [
            Triple(f"v{i}", "b", "L") for i in range(30)
        ]
        reset_counters()
        e = TricEngine(cached=False)
        e.add_query(chain_q())
        for u in ups:
            e.process_update(u)
        uncached_build = COUNTERS["build_rows"]

        reset_counters()
        e = TricEngine(cached=True)
        e.add_query(chain_q())
        for u in ups:
            e.process_update(u)
        cached_build = COUNTERS["build_rows"]
        assert cached_build < uncached_build

    @pytest.mark.parametrize("cached", [False, True])
    def test_name(self, cached):
        assert TricEngine(cached=cached).name == ("tric+" if cached else "tric")


class TestOverflowGuard:
    def test_overflow_propagates_as_engine_overflow(self):
        from repro.engine.base import EngineOverflow

        q = QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "a", 1), (0, "b", 2)]
        )
        e = TricEngine(max_rows=5)
        e.add_query(q)
        for i in range(10):
            e.process_update(Triple("hub", "a", f"x{i}"))
        with pytest.raises(EngineOverflow):
            for i in range(10):
                e.process_update(Triple("hub", "b", f"y{i}"))
