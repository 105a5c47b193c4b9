"""TRIC engine internals: delta propagation through tries, view sharing,
pruning, and the TRIC+ caching contract."""
import pytest

from repro.core.tric import TricEngine
from repro.graph.bruteforce import embeddings
from repro.graph.model import QueryPattern, Triple, update_sigs
from repro.relational.relation import COUNTERS, reset_counters
from tests.test_trie import fig5_queries


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

    @pytest.mark.parametrize("cached", [False, True])
    def test_deeper_node_fires_below_empty_entry(self, cached):
        """Update ``(z a w)`` satisfies both ``a`` nodes' signature, but
        only the deeper one's parent holds ``z`` at its new slot: the topmost
        ``a`` node's ``old(parent) ⋈ {u}`` would be empty, so the deeper
        node is the one candidate, and it fires."""
        q = QueryPattern(
            qid=0,
            vertices=[None, None, None, None],
            edges=[(0, "r", 1), (1, "a", 2), (2, "a", 3)],
        )
        stream = [Triple("x", "r", "y"), Triple("y", "a", "z"), Triple("z", "a", "w")]
        e = TricEngine(cached=cached)
        e.add_query(q)
        got = [e.process_update(u) for u in stream[:2]]
        root = e.forest.roots[(("r", None, None), None)]
        mid = root.children[(("a", None, None), None)]
        (leaf,) = mid.children.values()
        sigs = [s for s in update_sigs(stream[2]) if s in e.base]
        assert e.forest.affected_roots(sigs, stream[2]) == [leaf]
        # root's view holds (y,) only: the topmost node's u-term is empty
        assert e._delta(root, mid, [], ("z", "w")) == []
        got.append(e.process_update(stream[2]))
        want = [
            [0] if len(embeddings(q, stream[: t + 1])) > len(embeddings(q, stream[:t])) else []
            for t in range(len(stream))
        ]
        assert got == want == [[], [], [0]]

    @pytest.mark.parametrize("cached", [False, True])
    def test_source_held_by_no_parent_probes_nothing(self, cached):
        """The update's signature is carried by ten non-root nodes, but no
        parent's view holds its source vertex: it has no candidate, and no
        parent view is probed or scanned."""
        e = TricEngine(cached=cached)
        for i in range(10):
            e.add_query(chain_q(qid=i, preds=(f"r{i}", "a"), last_lit=None))
        for i in range(10):
            e.process_update(Triple("x", f"r{i}", "y"))
        u = Triple("q", "a", "w")
        sigs = [s for s in update_sigs(u) if s in e.base]
        assert sum(n.sig in sigs for n in e.forest.all_nodes()) == 10
        assert e.forest.affected_roots(sigs, u) == []
        reset_counters()
        assert e.process_update(u) == []
        assert (COUNTERS["build_rows"], COUNTERS["probe_rows"]) == (0, 0)
        # from the vertex the parents hold, all ten fire
        assert e.forest.affected_roots(sigs, Triple("y", "a", "w")) == [
            n for n in e.forest.all_nodes() if n.sig in sigs
        ]
        assert e.process_update(Triple("y", "a", "w")) == list(range(10))

    def test_matv_shared_across_queries(self):
        e = TricEngine()
        e.add_query(chain_q(qid=0, last_lit="L1"))
        e.add_query(chain_q(qid=1, last_lit="L1"))  # identical pattern
        e.process_update(Triple("u", "a", "v"))
        assert e.forest.n_nodes() == 2  # fully clustered
        assert sorted(e.process_update(Triple("v", "b", "L1"))) == [0, 1]

    def test_canonical_view_shared_across_queries(self):
        """Two queries register the path ?c -a-> X at one node: both read
        one canonical view, and each fires when its other path arrives."""
        qs = [
            QueryPattern(
                qid=i, vertices=[None, "X", lit], edges=[(0, "a", 1), (0, p, 2)]
            )
            for i, (p, lit) in enumerate([("b", "Y"), ("d", "Z")])
        ]
        e = TricEngine()
        for q in qs:
            e.add_query(q)
        assert e.process_update(Triple("c", "a", "X")) == []
        (node,) = [n for n in e.forest.all_nodes() if n.sig[0] == "a"]
        members = [m for feed in node.feeds for m in feed.members]
        assert sorted(qid for qid, _ in members) == [0, 1]
        views = [e.assemblers[qid].canon_views[pidx] for qid, pidx in members]
        assert views[0] is views[1] and views[0].rows == [("c",)]
        assert e.process_update(Triple("c", "b", "Y")) == [0]
        assert e.process_update(Triple("c", "d", "Z")) == [1]

    @pytest.mark.parametrize("cached", [False, True])
    def test_shared_view_stored_once_per_update(self, cached, monkeypatch):
        """Two queries share the canonical view of ?c -a-> X at one node:
        each update with a delta there stores it with one ``add_all``, and
        both queries still fire as brute force says."""
        from repro.relational.relation import View

        qs = [
            QueryPattern(
                qid=i, vertices=[None, "X", lit], edges=[(0, "a", 1), (0, p, 2)]
            )
            for i, (p, lit) in enumerate([("b", "Y"), ("d", "Z")])
        ]
        e = TricEngine(cached=cached)
        for q in qs:
            e.add_query(q)
        stream = [
            Triple("c", "b", "Y"), Triple("c", "a", "X"), Triple("e", "a", "X"),
            Triple("c", "d", "Z"), Triple("e", "d", "Z"), Triple("f", "a", "X"),
        ]
        e.process_update(Triple("s", "unindexed", "o"))  # freezes the trie
        (node,) = [n for n in e.forest.all_nodes() if n.sig[0] == "a"]
        (feed,) = node.feeds
        assert sorted(feed.members) == [(0, 0), (1, 0)]
        add_all = View.add_all
        stores = []

        def counting(self, rows):
            if self is feed.view:
                stores.append(list(rows))
            return add_all(self, rows)

        monkeypatch.setattr(View, "add_all", counting)
        got, per_update = [], []
        for u in stream:
            before = len(stores)
            got.append(sorted(e.process_update(u)))
            per_update.append(len(stores) - before)
        assert per_update == [0, 1, 1, 0, 0, 1]
        assert stores == [[("c",)], [("e",)], [("f",)]]
        want = [
            [
                q.qid
                for q in qs
                if len(embeddings(q, stream[: t + 1])) > len(embeddings(q, stream[:t]))
            ]
            for t in range(len(stream))
        ]
        assert got == want == [[], [0], [], [1], [1], []]

    def test_feed_stores_each_projection_once(self, monkeypatch):
        """The ``a`` node keeps slot 2 for query 1's child, but query 0's
        path there joins on slots 0 and 1 only: its two delta rows of the
        last update project to one canonical row, stored once."""
        from repro.relational.relation import View

        qs = [
            QueryPattern(
                qid=0, vertices=[None, None, None, "Y"],
                edges=[(0, "r", 1), (1, "a", 2), (1, "b", 3)],
            ),
            QueryPattern(
                qid=1, vertices=[None, None, None, "Z"],
                edges=[(0, "r", 1), (1, "a", 2), (2, "d", 3)],
            ),
        ]
        e = TricEngine()
        for q in qs:
            e.add_query(q)
        stream = [
            Triple("c", "a", "x1"), Triple("c", "a", "x2"),
            Triple("c", "b", "Y"), Triple("p", "r", "c"),
        ]
        e.process_update(Triple("s", "unindexed", "o"))  # freezes the trie
        (node,) = [n for n in e.forest.all_nodes() if n.sig[0] == "a"]
        (feed,) = node.feeds
        assert node.keep == (0, 1, 2) and feed.members == [(0, 0)]
        add_all = View.add_all
        stores = []

        def counting(self, rows):
            if self is feed.view:
                stores.append(list(rows))
            return add_all(self, rows)

        monkeypatch.setattr(View, "add_all", counting)
        got = [sorted(e.process_update(u)) for u in stream]
        assert stores == [[("p", "c")]]
        want = [
            [
                q.qid
                for q in qs
                if len(embeddings(q, stream[: t + 1])) > len(embeddings(q, stream[:t]))
            ]
            for t in range(len(stream))
        ]
        assert got == want == [[], [], [], [0]]

    def test_finish_only_queries_whose_join_found_a_row(self, monkeypatch):
        """While the b path of query 0 has no row, its a rows find no join
        row and its update is not finished; the lone path of query 1 finds
        one on every update."""
        from repro.engine.assembler import QueryAssembler

        e = TricEngine()
        e.add_query(
            QueryPattern(
                qid=0, vertices=[None, "X", "Y"], edges=[(0, "a", 1), (0, "b", 2)]
            )
        )
        e.add_query(QueryPattern(qid=1, vertices=[None, "X"], edges=[(0, "a", 1)]))
        finish = QueryAssembler.finish_update
        finished = []

        def counting(self):
            finished.append(self.q.qid)
            return finish(self)

        monkeypatch.setattr(QueryAssembler, "finish_update", counting)
        for i in range(5):
            assert e.process_update(Triple(f"c{i}", "a", "X")) == [1]
        assert finished == [1] * 5
        assert e.process_update(Triple("c3", "b", "Y")) == [0]
        assert finished == [1] * 5 + [0]

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
        closed walks, in both semi-naive terms, projected onto the one slot
        its child reads (its new slot, which equals slot 0)."""
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
            Triple("y", "k", "z"),  # extends x→y to an open walk, ending at z
            Triple("y", "k", "x"),  # closes x→y→x (and y→x→y)
            Triple("x", "m", "w"),
        ]
        fired = [e.process_update(u) for u in ups]
        assert fired == [[], [], [], [0]]
        assert (root.keep, closing.keep) == ((0, 1), (2,))
        assert sorted(closing.matv.rows) == [("x",), ("y",)]

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
        assert root.keep == (1,) and root.matv.rows == [("x",)]


class TestLiveSlots:
    """Trie and canonical rows carry only the slots something reads."""

    CASES = {
        # ?x -a-> ?y, ?x -b-> ?z: path a's canonical row is (h,) again at t=2
        "two paths joined on ?x": (
            QueryPattern(
                qid=0, vertices=[None, None, None], edges=[(0, "a", 1), (0, "b", 2)]
            ),
            [Triple("h", "a", "1"), Triple("h", "b", "1"), Triple("h", "a", "2")],
            [1, 2],
        ),
        # a lone path has width 0: every embedding projects to ()
        "lone path of width 0": (
            chain_q(last_lit=None),
            [Triple("u", "a", "v"), Triple("v", "b", "w"),
             Triple("p", "a", "q"), Triple("q", "b", "r")],
            [1, 3],
        ),
        # the root's row (v,) is stored at t=0 and derived again at t=3
        "inner projection repeats": (
            chain_q(preds=("a", "b", "c")),
            [Triple("u", "a", "v"), Triple("v", "b", "w"),
             Triple("w", "c", "L"), Triple("p", "a", "v")],
            [2, 3],
        ),
    }

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_new_embedding_with_stored_projection_fires(self, case, cached):
        q, ups, want = self.CASES[case]
        e = TricEngine(cached=cached)
        e.add_query(q)
        assert [t for t, u in enumerate(ups) if e.process_update(u)] == want

    def test_keep_on_paper_fig8_trie(self):
        e = TricEngine()
        for q in fig5_queries():
            e.add_query(q)
        e.process_update(Triple("s", "unindexed", "o"))  # freezes the trie
        keep = {
            tuple((n.sig[0], n.sig[2]) for n in chain): chain[-1].keep
            for r in e.forest.roots.values()
            for chain in _chains(r)
        }
        assert keep == {
            # Q2's lone path ends here; the child reads slots 0 and 1
            (("hasMod", None),): (0, 1),
            # Q1.P1 joins Q1.P2 on slots 0 and 1; Q4's child extends slot 2
            (("hasMod", None), ("posted", "pst1")): (0, 1, 2),
            (("hasMod", None), ("posted", "pst1"), ("containedIn", None)): (),
            (("hasMod", None), ("posted", "pst2")): (0, 1),
            # Q1.P3 meets the other paths only at the literal pst2
            (("reply", "pst2"),): (),
            (("hasCreator", None),): (1,),
            (("hasCreator", None), ("posted", "pst1")): (2,),
            (("hasCreator", None), ("posted", "pst1"), ("containedIn", None)): (),
        }


class TestArming:
    """The descent hands a node's delta only to the armed members of its
    feeds, the paths whose join partners' views all hold rows; the first
    rows of a view arm the paths waiting on it before any member of its
    feed is handed the delta."""

    STAR2 = QueryPattern(
        qid=0, vertices=[None, "X", "Y"], edges=[(0, "a", 1), (0, "b", 2)]
    )
    #: ?c -a-> ?x and ?c -a-> ?y: partners in one feed of one node
    ONE_FEED = QueryPattern(
        qid=0, vertices=[None, None, None], edges=[(0, "a", 1), (0, "a", 2)]
    )

    @staticmethod
    def index(qs, cached):
        e = TricEngine(cached=cached)
        for q in qs:
            e.add_query(q)
        return e

    @staticmethod
    def run(e, qs, stream, monkeypatch):
        """Process ``stream`` on ``e``, which indexed ``qs``, with
        ``on_path_delta`` spied on; returns the events per update, which
        must equal brute force, and the ``(qid, pidx)`` of each
        ``on_path_delta`` call per update."""
        from repro.engine.assembler import QueryAssembler

        on_path_delta = QueryAssembler.on_path_delta
        calls = []

        def spy(self, pidx, rows):
            calls[-1].append((self.q.qid, pidx))
            return on_path_delta(self, pidx, rows)

        monkeypatch.setattr(QueryAssembler, "on_path_delta", spy)
        got = []
        for u in stream:
            calls.append([])
            got.append(sorted(e.process_update(u)))
        want = [
            [
                q.qid
                for q in qs
                if len(embeddings(q, stream[: t + 1])) > len(embeddings(q, stream[:t]))
            ]
            for t in range(len(stream))
        ]
        assert got == want
        return got, calls

    @staticmethod
    def feed_of(e, label):
        (node,) = [n for n in e.forest.all_nodes() if n.sig[0] == label]
        (feed,) = node.feeds
        return feed

    @pytest.mark.parametrize("cached", [False, True])
    def test_no_call_while_partner_view_is_empty(self, cached, monkeypatch):
        stream = [Triple("c", "a", "X"), Triple("d", "a", "X"), Triple("e", "a", "X")]
        e = self.index([self.STAR2], cached)
        got, calls = self.run(e, [self.STAR2], stream, monkeypatch)
        assert got == [[], [], []] and calls == [[], [], []]
        a, b = self.feed_of(e, "a"), self.feed_of(e, "b")
        assert len(a.view) == 3 and a.armed == [] and b.armed == [(0, 1)]

    @pytest.mark.parametrize("cached", [False, True])
    def test_partner_first_rows_arm_the_path(self, cached, monkeypatch):
        stream = [
            Triple("c", "a", "X"), Triple("d", "b", "Y"), Triple("c", "b", "Y"),
            Triple("d", "a", "X"), Triple("e", "a", "X"),
        ]
        e = self.index([self.STAR2], cached)
        got, calls = self.run(e, [self.STAR2], stream, monkeypatch)
        assert got == [[], [], [0], [0], []]
        # b's first rows arm the a path; b itself was armed by a's first rows
        assert calls == [[], [(0, 1)], [(0, 1)], [(0, 0)], [(0, 0)]]
        assert self.feed_of(e, "a").armed == [(0, 0)]

    @pytest.mark.parametrize("cached", [False, True])
    def test_partners_in_one_feed_fire_on_its_first_rows(self, cached, monkeypatch):
        stream = [Triple("c", "a", "x"), Triple("c", "a", "y")]
        e = self.index([self.ONE_FEED], cached)
        feed = self.feed_of(e, "a")
        assert feed.members == [(0, 0), (0, 1)] and feed.armed == []
        got, calls = self.run(e, [self.ONE_FEED], stream, monkeypatch)
        assert got == [[0], [0]]
        assert calls == [[(0, 0), (0, 1)], [(0, 0), (0, 1)]]

    @pytest.mark.parametrize("cached", [False, True])
    def test_lone_path_armed_from_the_start(self, cached, monkeypatch):
        qs = [chain_q()]
        e = self.index(qs, cached)
        (feed,) = [f for n in e.forest.all_nodes() for f in n.feeds]
        assert feed.slots == () and feed.armed == feed.members == [(0, 0)]
        assert feed.waiting == []
        stream = [Triple("v", "b", "L"), Triple("u", "a", "v")]
        got, calls = self.run(e, qs, stream, monkeypatch)
        assert got == [[], [0]] and calls == [[], [(0, 0)]]


def _chains(node, prefix=()):
    chain = prefix + (node,)
    yield chain
    for c in node.children.values():
        yield from _chains(c, chain)


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


class TestEmptyBaseView:
    """A child whose signature has no edge yet is skipped without a join:
    ``Δ(parent) ⋈ base`` is empty, and the update, which base views take
    first, lacks the signature, so the child gets no u-term either."""

    STREAM = [Triple("u", "a", "v"), Triple("v", "b", "w"), Triple("w", "c", "L")]

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize(
        "order, joins",
        [
            # each child is reached while its base view is still empty
            ((0, 1, 2), [0, 0, 0]),
            # the root's edge comes last: both children join non-empty views
            ((2, 1, 0), [0, 0, 2]),
        ],
    )
    def test_empty_base_view_costs_no_join(self, order, joins, cached, monkeypatch):
        import repro.core.tric as tric

        q = chain_q(preds=("a", "b", "c"))
        stream = [self.STREAM[i] for i in order]
        e = TricEngine(cached=cached)
        e.add_query(q)
        hash_join = tric.hash_join
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return hash_join(*args)

        monkeypatch.setattr(tric, "hash_join", counting)
        got, per_update = [], []
        for u in stream:
            before = calls
            got.append(e.process_update(u))
            per_update.append(calls - before)
        assert per_update == joins
        want = [
            [0] if len(embeddings(q, stream[: t + 1])) > len(embeddings(q, stream[:t])) else []
            for t in range(len(stream))
        ]
        assert got == want == [[], [], [0]]

    def test_nodes_read_their_signatures_base_view(self):
        e = TricEngine()
        for q in fig5_queries():
            e.add_query(q)
        e.process_update(Triple("s", "unindexed", "o"))  # freezes the trie
        assert all(n.base is e.base[n.sig] for n in e.forest.all_nodes())


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
        """Ten distinct targets below one new root row: the child's
        projected delta keeps its new slot (its own child extends it), so
        it holds ten rows, past the cap of five."""
        from repro.engine.base import EngineOverflow

        e = TricEngine(max_rows=5)
        e.add_query(chain_q(preds=("a", "b", "c")))
        for i in range(10):
            e.process_update(Triple("hub", "b", f"y{i}"))
        with pytest.raises(EngineOverflow):
            e.process_update(Triple("x", "a", "hub"))
