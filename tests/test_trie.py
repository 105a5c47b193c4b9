"""Trie forest (rootInd / registered queries) — clustering behaviour,
incl. the paper's Fig. 5/8 worked example, and the candidates an update's
signatures and source vertex reach (``src_ind``)."""
import pytest

from repro.core.trie import TrieForest
from repro.graph.covering import covering_paths
from repro.graph.model import QueryPattern, Triple


def index_query(forest: TrieForest, q: QueryPattern):
    paths = covering_paths(q)
    for pidx, p in enumerate(paths):
        forest.insert_path(q.qid, pidx, p.chain, p.refs)
    return paths


def freeze(forest: TrieForest) -> TrieForest:
    """Freeze the forest's shape, as the first update does."""
    forest.freeze(lambda qid, pidx: ())
    return forest


def subtree(node):
    """The nodes of ``node``'s subtree, ``node`` first."""
    yield node
    for c in node.children.values():
        yield from subtree(c)


def fig5_queries():
    """The four query graph patterns of the paper's Fig. 5(a)."""
    q1 = QueryPattern(
        qid=1,
        vertices=[None, None, "pst1", "pst2", None],
        edges=[(0, "hasMod", 1), (1, "posted", 2), (1, "posted", 3), (4, "reply", 3)],
    )
    q2 = QueryPattern(qid=2, vertices=[None, None], edges=[(0, "hasMod", 1)])
    q3 = QueryPattern(
        qid=3,
        vertices=["com1", None, "pst1", None],
        edges=[(0, "hasCreator", 1), (1, "posted", 2), (2, "containedIn", 3)],
    )
    q4 = QueryPattern(
        qid=4,
        vertices=[None, None, "pst1", None],
        edges=[(0, "hasMod", 1), (1, "posted", 2), (2, "containedIn", 3)],
    )
    return [q1, q2, q3, q4]


class TestInsertPath:
    def test_single_path_creates_chain(self):
        f = TrieForest(cached=False)
        q = QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "a", 1), (1, "b", 2)]
        )
        index_query(f, q)
        assert len(f.roots) == 1
        root = next(iter(f.roots.values()))
        assert root.sig == ("a", None, None)
        assert list(root.children.values())[0].sig == ("b", None, None)
        assert f.n_nodes() == 2

    def test_shared_prefix_shares_nodes(self):
        f = TrieForest(cached=False)
        qa = QueryPattern(
            qid=0, vertices=[None, None, "x"], edges=[(0, "a", 1), (1, "b", 2)]
        )
        qb = QueryPattern(
            qid=1, vertices=[None, None, "y"], edges=[(0, "a", 1), (1, "c", 2)]
        )
        index_query(f, qa)
        index_query(f, qb)
        # one root 'a', two children b/c — 3 nodes, not 4
        assert len(f.roots) == 1
        assert f.n_nodes() == 3

    def test_identical_paths_fully_shared(self):
        f = TrieForest(cached=False)
        for qid in range(5):
            q = QueryPattern(
                qid=qid, vertices=[None, None, None], edges=[(0, "a", 1), (1, "b", 2)]
            )
            index_query(f, q)
        assert f.n_nodes() == 2
        leaf = list(next(iter(f.roots.values())).children.values())[0]
        assert len(leaf.registered) == 5

    def test_query_registered_at_last_node(self):
        f = TrieForest(cached=False)
        q = QueryPattern(
            qid=7, vertices=[None, None, None], edges=[(0, "a", 1), (1, "b", 2)]
        )
        index_query(f, q)
        root = next(iter(f.roots.values()))
        leaf = list(root.children.values())[0]
        assert root.registered == []
        assert leaf.registered == [(7, 0)]
        assert [n for n in f.all_nodes() if n.registered] == [leaf]

    def test_roots_of_a_signature_are_its_candidates(self):
        f = TrieForest(cached=False)
        a, b = ("a", None, None), ("b", None, None)
        q = QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "a", 1), (1, "b", 2)]
        )
        index_query(f, q)
        root = f.roots[(a, None)]
        (child,) = root.children.values()
        assert (root.parent, child.parent) == (None, root)
        # a second path adds only the roots it creates
        index_query(
            f,
            QueryPattern(
                qid=1,
                vertices=[None, None, None, None],
                edges=[(0, "b", 1), (1, "a", 2), (2, "b", 3)],
            ),
        )
        b_root = f.roots[(b, None)]
        assert set(f.roots) == {(a, None), (b, None)}
        freeze(f)
        # empty views: a signature's candidates are its roots, each once,
        # not the non-root nodes that carry it
        assert f.affected_roots([a], Triple("v", "a", "w")) == [root]
        assert f.affected_roots([b], Triple("v", "b", "w")) == [b_root]
        assert f.affected_roots([b, a], Triple("v", "b", "w")) == [root, b_root]

    def test_affected_roots_none_safe_and_deduped(self):
        f = TrieForest(cached=False)
        qa = QueryPattern(qid=0, vertices=[None, "x"], edges=[(0, "a", 1)])
        qb = QueryPattern(qid=1, vertices=[None, None], edges=[(0, "a", 1)])
        index_query(f, qa)
        index_query(f, qb)
        freeze(f)
        u = Triple("v", "a", "x")
        roots = f.affected_roots([("a", None, "x"), ("a", None, None)], u)
        # two distinct tries, each returned once, in creation order
        assert [r.sig for r in roots] == [("a", None, "x"), ("a", None, None)]
        assert f.affected_roots([("z", None, None)], Triple("v", "z", "w")) == []


def src_values(forest: TrieForest, node) -> list:
    """The vertices ``src_ind`` registers ``node`` under."""
    return [v for v, nodes in forest.sources(node.sig).items() if node in nodes]


class TestEntryNodes:
    """``affected_roots`` returns the update's candidates: the roots its
    signature reaches, and the nodes ``src_ind`` registers under its
    signature and source vertex, i.e. whose parent's view holds that
    vertex at its new slot.  ``add_sources`` registers a node's children
    under the new-slot values of rows added to its view."""

    SIG = ("i", None, None)

    def chain3(self):
        f = TrieForest(cached=False)
        index_query(
            f,
            QueryPattern(
                qid=0,
                vertices=[None, None, None, None],
                edges=[(0, "i", 1), (1, "i", 2), (2, "i", 3)],
            ),
        )
        freeze(f)
        root = f.roots[(self.SIG, None)]
        mid = root.children[(self.SIG, None)]
        return f, root, mid, mid.children[(self.SIG, None)]

    def test_repeated_signature_chain_enters_at_root(self):
        f, root, mid, leaf = self.chain3()
        # empty views: the signature reaches three nodes, the update the root
        assert f.affected_roots([self.SIG], Triple("y", "i", "w")) == [root]
        # root's view holds y at its new slot (its one live slot)
        assert root.keep == (1,)
        f.add_sources(root, [("y",)])
        assert f.sources(self.SIG) == {"y": [mid]}
        assert f.affected_roots([self.SIG], Triple("y", "i", "w")) == [root, mid]
        assert f.affected_roots([self.SIG], Triple("x", "i", "w")) == [root]
        # candidates come ancestors first, whatever the registration order
        f.add_sources(mid, [("x",), ("y",)])
        assert f.sources(self.SIG) == {"y": [mid, leaf], "x": [leaf]}
        assert f.affected_roots([self.SIG], Triple("y", "i", "w")) == [root, mid, leaf]

    def test_add_sources_registers_each_value_once(self):
        f, root, mid, leaf = self.chain3()
        f.add_sources(root, [("y",), ("z",), ("y",)])
        # a later row with a value the view already holds registers nothing
        f.add_sources(root, [("z",), ("w",)])
        assert f.sources(self.SIG) == {"y": [mid], "z": [mid], "w": [mid]}
        assert src_values(f, leaf) == []

    def test_bare_root_above_literal_variants(self):
        f = TrieForest(cached=False)
        for qid, lit in enumerate(("L", "M")):
            index_query(
                f,
                QueryPattern(
                    qid=qid, vertices=[None, None, lit], edges=[(0, "a", 1), (1, "a", 2)]
                ),
            )
        freeze(f)
        bare, sig_l, sig_m = ("a", None, None), ("a", None, "L"), ("a", None, "M")
        root = f.roots[(bare, None)]
        child_l = root.children[(sig_l, None)]
        child_m = root.children[(sig_m, None)]
        # every child of a node is registered under the values of its view
        f.add_sources(root, [("v",)])
        assert (src_values(f, child_l), src_values(f, child_m)) == (["v"], ["v"])
        u = Triple("v", "a", "L")
        assert f.affected_roots([sig_l, bare], u) == [root, child_l]
        assert f.affected_roots([sig_l, sig_m], u) == [child_l, child_m]
        # the children's signatures match, but root's view does not hold u
        assert f.affected_roots([sig_l, sig_m], Triple("u", "a", "L")) == []

    def test_sibling_branches_each_returned_once(self):
        f = TrieForest(cached=False)
        r, a = ("r", None, None), ("a", None, None)
        # r -> a (open) -> a, and r -> a (closing back to slot 1) -> a
        index_query(
            f,
            QueryPattern(
                qid=0,
                vertices=[None, None, None, None],
                edges=[(0, "r", 1), (1, "a", 2), (2, "a", 3)],
            ),
        )
        index_query(
            f,
            QueryPattern(
                qid=1,
                vertices=[None, None, None],
                edges=[(0, "r", 1), (1, "a", 1), (1, "a", 2)],
            ),
        )
        freeze(f)
        root = f.roots[(r, None)]
        assert set(root.children) == {(a, None), (a, 1)}
        assert all(len(c.children) == 1 for c in root.children.values())
        f.add_sources(root, [("y",)])
        u = Triple("y", "a", "w")
        assert f.affected_roots([a], u) == list(root.children.values())
        assert f.affected_roots([r, a], u) == [root, *root.children.values()]
        assert f.affected_roots([r], u) == [root]

    def test_order_is_creation(self):
        f = TrieForest(cached=False)
        a = ("a", None, None)
        # the depth-2 `a` node is created before the depth-1 one below `s`
        index_query(
            f,
            QueryPattern(
                qid=0,
                vertices=[None, None, None, None],
                edges=[(0, "r", 1), (1, "a", 2), (2, "a", 3)],
            ),
        )
        index_query(
            f, QueryPattern(qid=1, vertices=[None, None, None], edges=[(0, "s", 1), (1, "a", 2)])
        )
        freeze(f)
        r_root, s_root = f.roots[(("r", None, None), None)], f.roots[(("s", None, None), None)]
        r_a = r_root.children[(a, None)]
        deep, shallow = r_a.children[(a, None)], s_root.children[(a, None)]
        # candidates are registered deepest and latest-created first
        f.add_sources(r_a, [("v",)])
        f.add_sources(s_root, [("v",)])
        f.add_sources(r_root, [("v",)])
        assert f.sources(a)["v"] == [deep, shallow, r_a]
        # ... and come in creation order, which puts ancestors first
        assert f.affected_roots([a], Triple("v", "a", "w")) == [r_a, deep, shallow]


class TestBackRefs:
    """Trie nodes are keyed by (signature, back-reference): the edge that
    closes a cycle gets its own node."""

    SIG = ("a", None, None)

    def test_closing_and_open_paths_split_at_closing_node(self):
        f = TrieForest(cached=False)
        closing = QueryPattern(
            qid=0, vertices=[None, None], edges=[(0, "a", 1), (1, "a", 0)]
        )
        open_ = QueryPattern(
            qid=1, vertices=[None, None, None], edges=[(0, "a", 1), (1, "a", 2)]
        )
        (p_closing,) = index_query(f, closing)
        (p_open,) = index_query(f, open_)
        assert p_closing.refs == (None, 0)
        assert p_open.refs == (None, None)
        # one shared root, two children that differ only in the back-reference
        assert set(f.roots) == {(self.SIG, None)}
        root = f.roots[(self.SIG, None)]
        assert set(root.children) == {(self.SIG, 0), (self.SIG, None)}
        assert root.children[(self.SIG, 0)].registered == [(0, 0)]
        assert root.children[(self.SIG, None)].registered == [(1, 0)]
        assert f.n_nodes() == 3

    def test_self_loop_root(self):
        f = TrieForest(cached=False)
        q = QueryPattern(qid=0, vertices=[None], edges=[(0, "a", 0)])
        index_query(f, q)
        (root,) = f.roots.values()
        assert (root.sig, root.ref, root.depth) == (self.SIG, 0, 0)
        assert set(f.roots) == {(self.SIG, 0)}

    def test_repeated_literal_gets_no_back_reference(self):
        f = TrieForest(cached=False)
        q = QueryPattern(qid=0, vertices=["L", None], edges=[(0, "a", 1), (1, "a", 0)])
        (path,) = index_query(f, q)
        assert path.slots == (0, 1, 0)
        assert path.refs == (None, None)
        root = f.roots[(("a", "L", None), None)]
        assert set(root.children) == {(("a", None, "L"), None)}

    def test_self_loop_root_is_a_candidate_of_self_loops_only(self):
        f = TrieForest(cached=False)
        index_query(f, QueryPattern(qid=0, vertices=[None], edges=[(0, "a", 0)]))
        index_query(
            f, QueryPattern(qid=1, vertices=[None, None], edges=[(0, "a", 1), (1, "a", 0)])
        )
        # one signature, three nodes: the self-loop root, the plain root
        # and its closing child; a self-loop enters at both roots
        loop_root, plain_root = f.roots[(self.SIG, 0)], f.roots[(self.SIG, None)]
        assert set(plain_root.children) == {(self.SIG, 0)}
        freeze(f)
        roots = f.affected_roots([self.SIG], Triple("v", "a", "v"))
        assert [(r.sig, r.ref) for r in roots] == [(self.SIG, 0), (self.SIG, None)]
        assert f.affected_roots([self.SIG], Triple("v", "a", "w")) == [plain_root]


class TestPaperFig8:
    """Clustering of Fig. 5(b)'s covering paths, per Fig. 8."""

    def test_clustering(self):
        f = TrieForest(cached=False)
        for q in fig5_queries():
            index_query(f, q)
        # Tries rooted at hasMod, reply, hasCreator (paper's T1, T2, T3)
        assert set(f.roots) == {
            (("hasMod", None, None), None),
            (("reply", None, "pst2"), None),
            (("hasCreator", "com1", None), None),
        }
        # T1 clusters Q1.P1, Q1.P2, Q2.P1 and Q4.P1:
        t1 = f.roots[(("hasMod", None, None), None)]
        assert {qid for n in subtree(t1) for qid, _ in n.registered} == {1, 2, 4}
        # posted=(?var,pst1) appears under both T1 (Q1/Q4) and T3 (Q3)
        t3 = f.roots[(("hasCreator", "com1", None), None)]
        posted = (("posted", None, "pst1"), None)
        assert posted in t1.children and posted in t3.children
        # Q1 was registered under 3 nodes (its 3 covering paths)
        assert len([n for n in f.all_nodes() for qid, _ in n.registered if qid == 1]) == 3

    def test_shared_posted_pst1_node(self):
        f = TrieForest(cached=False)
        for q in fig5_queries():
            index_query(f, q)
        t1 = f.roots[(("hasMod", None, None), None)]
        # hasMod -> posted:pst1 shared by Q1.P1 and Q4.P1 prefix
        child = t1.children[(("posted", None, "pst1"), None)]
        regs = {qid for qid, _ in child.registered}
        assert 1 in regs  # Q1's P1 terminates here
        # Q4 continues below with containedIn
        assert (("containedIn", "pst1", None), None) in child.children


@pytest.mark.parametrize("cached", [False, True])
def test_cached_flag_propagates_to_views(cached):
    f = TrieForest(cached=cached)
    q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "a", 1)])
    index_query(f, q)
    root = next(iter(f.roots.values()))
    assert root.matv.cached is cached
