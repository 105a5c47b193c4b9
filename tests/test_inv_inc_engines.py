"""INV / INC engine internals: inverted indexes, full vs incremental path
materialization, caching contract."""
import pytest

from repro.baselines.inv import IncEngine, InvEngine
from repro.graph.model import QueryPattern, Triple
from repro.relational.relation import COUNTERS, reset_counters


def chain_q(qid=0, preds=("a", "b"), last_lit="L"):
    n = len(preds) + 1
    verts = [None] * (n - 1) + [last_lit]
    return QueryPattern(
        qid=qid, vertices=verts, edges=[(i, preds[i], i + 1) for i in range(len(preds))]
    )


@pytest.mark.parametrize("cls", [InvEngine, IncEngine])
class TestIndexingPhase:
    def test_edge_ind_maps_sig_to_qids(self, cls):
        e = cls()
        e.add_query(chain_q(qid=3))
        assert e.edge_ind[("a", None, None)] == {3}
        assert e.edge_ind[("b", None, "L")] == {3}

    def test_base_views_shared_across_queries(self, cls):
        e = cls()
        e.add_query(chain_q(qid=0))
        e.add_query(chain_q(qid=1))
        assert len(e.base) == 2  # one view per distinct signature

    def test_query_ind_has_paths(self, cls):
        e = cls()
        e.add_query(chain_q(qid=0))
        chains = e.query_ind[0]
        assert len(chains) == 1 and chains[0][0] == ("a", None, None)


@pytest.mark.parametrize("cls", [InvEngine, IncEngine])
class TestAnswering:
    def test_chain_in_and_out_of_order(self, cls):
        for order in ([0, 1], [1, 0]):
            e = cls()
            e.add_query(chain_q())
            ups = [Triple("u", "a", "v"), Triple("v", "b", "L")]
            res = [e.process_update(ups[i]) for i in order]
            assert res[0] == [] and res[1] == [0], (cls.__name__, order)

    def test_affected_but_incomplete_query_not_emitted(self, cls):
        e = cls()
        e.add_query(chain_q())
        assert e.process_update(Triple("u", "a", "v")) == []

    def test_duplicate_update_no_reemit(self, cls):
        e = cls()
        e.add_query(chain_q())
        e.process_update(Triple("u", "a", "v"))
        assert e.process_update(Triple("v", "b", "L")) == [0]
        assert e.process_update(Triple("v", "b", "L")) == []

    def test_unaffected_predicate_skipped(self, cls):
        e = cls()
        e.add_query(chain_q())
        assert e.process_update(Triple("u", "zzz", "v")) == []


class TestIncIncremental:
    def test_extension_both_directions(self):
        # middle edge arrives last: extension must go left AND right
        e = IncEngine()
        e.add_query(chain_q(preds=("a", "b", "c")))
        assert e.process_update(Triple("u", "a", "v")) == []
        assert e.process_update(Triple("w", "c", "L")) == []
        assert e.process_update(Triple("v", "b", "w")) == [0]

    def test_repeated_sig_positions(self):
        q = QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "i", 1), (1, "i", 2)]
        )
        e = IncEngine()
        e.add_query(q)
        assert e.process_update(Triple("x", "i", "y")) == []
        assert e.process_update(Triple("y", "i", "z")) == [0]


class TestCachingContract:
    def workload(self):
        ups = [Triple(f"u{i}", "a", f"v{i}") for i in range(25)]
        ups += [Triple(f"v{i}", "b", "L") for i in range(25)]
        return ups

    @pytest.mark.parametrize("cls", [InvEngine, IncEngine])
    def test_plus_variant_reduces_build_work(self, cls):
        reset_counters()
        e = cls(cached=False)
        e.add_query(chain_q())
        for u in self.workload():
            e.process_update(u)
        plain = COUNTERS["build_rows"]

        reset_counters()
        e = cls(cached=True)
        e.add_query(chain_q())
        for u in self.workload():
            e.process_update(u)
        assert COUNTERS["build_rows"] < plain

    def test_inv_does_full_recompute_each_update(self):
        """INV's probe work grows with the base views (full recompute);
        INC's stays bounded by the delta."""
        reset_counters()
        e = InvEngine()
        e.add_query(chain_q())
        for u in self.workload():
            e.process_update(u)
        inv_probe = COUNTERS["probe_rows"]

        reset_counters()
        e = IncEngine()
        e.add_query(chain_q())
        for u in self.workload():
            e.process_update(u)
        inc_probe = COUNTERS["probe_rows"]
        assert inv_probe > inc_probe

    @pytest.mark.parametrize("cls", [InvEngine, IncEngine])
    def test_names(self, cls):
        assert cls(cached=False).name in ("inv", "inc")
        assert cls(cached=True).name in ("inv+", "inc+")


class TestOverflowGuard:
    @pytest.mark.parametrize("cls", [InvEngine, IncEngine])
    def test_join_overflow_raises(self, cls):
        from repro.engine.base import EngineOverflow

        # star on a shared variable center: 10 x 10 final join >> cap
        q = QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "a", 1), (0, "b", 2)]
        )
        e = cls(max_rows=8)
        e.add_query(q)
        with pytest.raises(EngineOverflow):
            for i in range(10):
                e.process_update(Triple("hub", "a", f"x{i}"))
            for j in range(10):
                e.process_update(Triple("hub", "b", f"y{j}"))
