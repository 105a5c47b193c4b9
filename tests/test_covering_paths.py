"""Covering-path extraction (Definition 6) — properties and paper examples."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import build_workload
from repro.graph.covering import CoverPath, covering_paths, _is_subpath
from repro.graph.model import QueryPattern


def check_covering_invariants(q: QueryPattern, paths: list[CoverPath]):
    """The properties Definition 6 promises."""
    # every edge in at least one path
    covered_edges = {e for p in paths for e in p.edge_idxs}
    assert covered_edges == set(range(len(q.edges))), "edges not covered"
    # every vertex in at least one path
    covered_v = {v for p in paths for v in p.slots}
    assert covered_v == set(range(len(q.vertices))), "vertices not covered"
    # paths are valid walks: slot i/i+1 are the endpoints of edge i
    for p in paths:
        assert len(p.slots) == len(p.edge_idxs) + 1
        for i, e in enumerate(p.edge_idxs):
            s, _, o = q.edges[e]
            assert p.slots[i] == s and p.slots[i + 1] == o
    # no sub-path redundancy
    for a in paths:
        assert not any(_is_subpath(a, b) for b in paths if b is not a)


def chain_query(length=4, qid=0):
    return QueryPattern(
        qid=qid,
        vertices=[None] * (length + 1),
        edges=[(i, f"p{i}", i + 1) for i in range(length)],
    )


class TestShapes:
    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8])
    def test_chain_is_single_path(self, length):
        q = chain_query(length)
        paths = covering_paths(q)
        check_covering_invariants(q, paths)
        assert len(paths) == 1
        assert paths[0].edge_idxs == tuple(range(length))

    @pytest.mark.parametrize("arms", [2, 3, 5])
    def test_star_out_one_path_per_arm(self, arms):
        q = QueryPattern(
            qid=0,
            vertices=[None] * (arms + 1),
            edges=[(0, f"p{i}", i + 1) for i in range(arms)],
        )
        paths = covering_paths(q)
        check_covering_invariants(q, paths)
        assert len(paths) == arms
        assert all(len(p) == 1 for p in paths)

    @pytest.mark.parametrize("arms", [2, 4])
    def test_star_in(self, arms):
        q = QueryPattern(
            qid=0,
            vertices=[None] * (arms + 1),
            edges=[(i + 1, f"p{i}", 0) for i in range(arms)],
        )
        paths = covering_paths(q)
        check_covering_invariants(q, paths)
        assert len(paths) == arms

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_cycle_is_single_path(self, n):
        q = QueryPattern(
            qid=0,
            vertices=[None] * n,
            edges=[(i, "p", (i + 1) % n) for i in range(n)],
        )
        paths = covering_paths(q)
        check_covering_invariants(q, paths)
        assert len(paths) == 1
        # the walk wraps: first and last slot are the same vertex
        assert paths[0].slots[0] == paths[0].slots[-1]

    def test_diamond(self):
        #   0 -> 1 -> 3,  0 -> 2 -> 3
        q = QueryPattern(
            qid=0,
            vertices=[None] * 4,
            edges=[(0, "a", 1), (1, "b", 3), (0, "c", 2), (2, "d", 3)],
        )
        paths = covering_paths(q)
        check_covering_invariants(q, paths)
        assert len(paths) == 2
        assert all(len(p) == 2 for p in paths)

    def test_mixed_star_walks_through_center(self):
        # in-arm then out-arm can chain through the center (leaf->c->leaf)
        q = QueryPattern(
            qid=0,
            vertices=[None, None, None],
            edges=[(1, "in", 0), (0, "out", 2)],
        )
        paths = covering_paths(q)
        check_covering_invariants(q, paths)
        assert len(paths) == 1 and len(paths[0]) == 2

    def test_self_loop(self):
        q = QueryPattern(qid=0, vertices=[None], edges=[(0, "p", 0)])
        paths = covering_paths(q)
        check_covering_invariants(q, paths)


class TestPaperExample:
    """Fig. 5: the four SNB-style query graph patterns and their paths."""

    def q1(self):
        # ?m -hasMod-> ?f ... two posted edges to pst1/pst2 + reply to pst2
        # vertices: 0=?var 1=?var 2=pst1 3=pst2 4=?var(replier)
        return QueryPattern(
            qid=1,
            vertices=[None, None, "pst1", "pst2", None],
            edges=[
                (0, "hasMod", 1),
                (1, "posted", 2),
                (1, "posted", 3),
                (4, "reply", 3),
            ],
        )

    def test_q1_three_paths(self):
        q = self.q1()
        paths = covering_paths(q)
        check_covering_invariants(q, paths)
        chains = sorted(tuple(s[0] for s in p.sig_chain(q)) for p in paths)
        # paper Fig. 5(b): {hasMod, posted->pst1}, {hasMod, posted->pst2}, {reply}
        assert len(paths) == 3
        assert ("reply",) in chains
        assert sum(c[0] == "hasMod" for c in chains) == 2

    def test_q2_single_edge(self):
        q = QueryPattern(qid=2, vertices=[None, None], edges=[(0, "hasMod", 1)])
        paths = covering_paths(q)
        check_covering_invariants(q, paths)
        assert len(paths) == 1

    def test_q3_chain(self):
        # com1 -hasCreator-> ?v -posted-> pst1 -containedIn-> ?v2
        q = QueryPattern(
            qid=3,
            vertices=["com1", None, "pst1", None],
            edges=[(0, "hasCreator", 1), (1, "posted", 2), (2, "containedIn", 3)],
        )
        paths = covering_paths(q)
        check_covering_invariants(q, paths)
        assert len(paths) == 1
        assert [s[0] for s in paths[0].sig_chain(q)] == [
            "hasCreator",
            "posted",
            "containedIn",
        ]


@st.composite
def random_query(draw):
    n = draw(st.integers(2, 7))
    n_edges = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    edges = []
    # random connected-ish multigraph: chain spine + random extra edges
    for i in range(min(n - 1, n_edges)):
        edges.append((i, f"p{rng.integers(3)}", i + 1))
    while len(edges) < n_edges:
        a, b = int(rng.integers(n)), int(rng.integers(n))
        edges.append((a, f"p{rng.integers(3)}", b))
    q = QueryPattern(qid=0, vertices=[None] * n, edges=edges)
    if not q.is_connected():
        # connect leftovers through vertex 0
        touched = {v for s, _, o in edges for v in (s, o)}
        for v in range(n):
            if v not in touched:
                edges.append((0, "px", v))
    return QueryPattern(qid=0, vertices=[None] * n, edges=edges)


class TestPropertyBased:
    @settings(max_examples=80, deadline=None)
    @given(random_query())
    def test_invariants_on_random_multigraphs(self, q):
        check_covering_invariants(q, covering_paths(q))


# -- reference: the edge-scanning extractor, kept verbatim as an oracle ------
# It scans every edge of the query at each step and sorts its candidates;
# covering_paths must return exactly its paths, in its order.


def _ref_reaches_unvisited(q: QueryPattern, start_v: int, unvisited: set[int], banned: set[int]) -> bool:
    """Whether a walk from ``start_v`` (not using ``banned`` edges) can still
    traverse an edge that is globally unvisited."""
    seen_v = {start_v}
    stack = [start_v]
    while stack:
        v = stack.pop()
        for eidx, (s, _, o) in enumerate(q.edges):
            if s != v or eidx in banned:
                continue
            if eidx in unvisited:
                return True
            if o not in seen_v:
                seen_v.add(o)
                stack.append(o)
    return False


def _ref_walk(q: QueryPattern, start: int, unvisited: set[int]) -> CoverPath:
    edge_idxs: list[int] = []
    slots: list[int] = [start]
    used: set[int] = set()
    cur = start
    while True:
        cands = [e for e in range(len(q.edges)) if q.edges[e][0] == cur and e not in used]
        if not cands:
            break
        fresh = sorted(e for e in cands if e in unvisited)
        if fresh:
            nxt = fresh[0]
        else:
            leading = sorted(
                e
                for e in cands
                if _ref_reaches_unvisited(q, q.edges[e][2], unvisited, used | {e})
            )
            nxt = leading[0] if leading else sorted(cands)[0]
        used.add(nxt)
        unvisited.discard(nxt)
        edge_idxs.append(nxt)
        cur = q.edges[nxt][2]
        slots.append(cur)
    return CoverPath(tuple(edge_idxs), tuple(slots))


def reference_covering_paths(q: QueryPattern) -> list[CoverPath]:
    unvisited = set(range(len(q.edges)))
    paths: list[CoverPath] = []
    indeg = {v: 0 for v in range(len(q.vertices))}
    for _, _, o in q.edges:
        indeg[o] += 1
    # Start walks at source vertices (in-degree 0 first, as the paper's
    # example does) among those that can still reach an unvisited edge.
    while unvisited:
        starts = sorted(
            (
                v
                for v in range(len(q.vertices))
                if _ref_reaches_unvisited(q, v, unvisited, set())
            ),
            key=lambda v: (indeg[v] != 0, v),
        )
        # starts[0] reaches an unvisited edge, so it has an outgoing edge
        # and the walk takes at least one
        paths.append(_ref_walk(q, starts[0], unvisited))
    paths = [p for p in paths if not any(_is_subpath(p, o) for o in paths if o is not p)]
    return paths


class TestMatchesReference:
    """The adjacency-list walk returns the reference's paths, element for
    element: the same covering paths, in the same order, and so the same
    tries, base views and final joins."""

    @settings(max_examples=300, deadline=None)
    @given(random_query())
    def test_random_multigraphs(self, q):
        assert covering_paths(q) == reference_covering_paths(q)

    @pytest.mark.parametrize("dataset", ["snb", "biogrid", "nyc"])
    @pytest.mark.parametrize("seed", range(4))
    def test_generated_workloads(self, dataset, seed):
        _, queries = build_workload(dataset, 1500, 300, seed=seed)
        for q in queries:
            assert covering_paths(q) == reference_covering_paths(q), q.qid
