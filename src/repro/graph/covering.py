"""Covering-path extraction (paper §4.1 Step 1, Definitions 5–6).

Greedy algorithm, verbatim from the paper: starting from graph vertices,
perform depth-first walks over *unvisited* edges until a leaf (no outgoing
unvisited edge) is reached; repeat until every vertex and edge of the query
graph has been visited at least once; finally drop any path that is a
sub-path of another discovered path.

Each query's out-edge and in-edge lists are built once, in edge order, and
every search runs over them.  A walk step reads the current vertex's own
out-edges and takes the first qualifying one in edge order.  A round's
start vertex is the first vertex, in-degree-0 vertices first and then by
id, among those that can still reach an unvisited edge; that set is found
by one search backwards along the in-edges from the unvisited edges'
sources.

A covering path is represented as :class:`CoverPath` — the ordered edge
indexes plus the vertex-id slots they thread through, so later stages know
(a) the edge-signature chain for trie indexing and (b) which trie-view
columns correspond to which original query vertices ("intersection"
information used during the final per-query join, §4.1 Variable Handling).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.graph.model import EdgeSig, QueryPattern


@dataclass(frozen=True)
class CoverPath:
    """One covering path of a query pattern.

    ``edge_idxs``: indexes into ``q.edges`` along the walk.
    ``slots``: the ``len(edge_idxs) + 1`` query-vertex ids visited; slot ``i``
    is the source of edge ``i`` and slot ``i+1`` its target (Definition 5).
    """

    edge_idxs: tuple[int, ...]
    slots: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edge_idxs)

    def sig_chain(self, q: QueryPattern) -> tuple[EdgeSig, ...]:
        return tuple(q.edge_sig(e) for e in self.edge_idxs)

    def back_refs(self, q: QueryPattern) -> tuple[Optional[int], ...]:
        """Per edge ``i``: the first earlier slot holding the variable that
        edge ``i``'s target (slot ``i + 1``) repeats, or ``None``.

        A back-reference closes a cycle: an embedding of the path must bind
        slot ``i + 1`` to the same vertex as that slot.  Literal slots get
        none, since their edge signatures already fix their values.
        """
        first: dict[int, int] = {}
        refs: list[Optional[int]] = []
        for i, vid in enumerate(self.slots):
            if i:
                refs.append(first.get(vid))
            if q.vertices[vid] is None:
                first.setdefault(vid, i)
        return tuple(refs)


#: per vertex: its out-edges as ``(edge index, target)``, in edge order
OutEdges = list[list[tuple[int, int]]]


def _reaches_unvisited(out: OutEdges, start_v: int, unvisited: set[int], banned: set[int]) -> bool:
    """Whether a walk from ``start_v`` over the out-edge lists ``out`` (not
    using ``banned`` edges) can still traverse an edge that is globally
    unvisited."""
    seen_v = {start_v}
    stack = [start_v]
    while stack:
        for eidx, o in out[stack.pop()]:
            if eidx in banned:
                continue
            if eidx in unvisited:
                return True
            if o not in seen_v:
                seen_v.add(o)
                stack.append(o)
    return False


def _walk(out: OutEdges, start: int, unvisited: set[int]) -> CoverPath:
    """One greedy DFS walk from ``start`` over the out-edge lists ``out``.

    As in the paper's Fig. 5 example, a walk may re-traverse *globally*
    visited edges (so paths stay maximal and share prefixes — e.g. Q1's P2
    reuses the already-visited ``hasMod`` edge), but never the same edge
    twice within one walk (cycle protection = "no new vertex to visit").
    Preference order at each step: an unvisited edge, then a visited edge
    that still leads to unvisited territory, then any remaining edge (walk
    to a leaf); within each, the first in edge order.
    """
    edge_idxs: list[int] = []
    slots: list[int] = [start]
    used: set[int] = set()
    cur = start
    while True:
        step = out[cur]
        # an unvisited edge is unused too
        nxt = next((c for c in step if c[0] in unvisited), None)
        if nxt is None:
            cands = [c for c in step if c[0] not in used]
            if not cands:
                break
            nxt = next(
                (
                    (e, o)
                    for e, o in cands
                    if _reaches_unvisited(out, o, unvisited, used | {e})
                ),
                cands[0],
            )
        e, cur = nxt
        used.add(e)
        unvisited.discard(e)
        edge_idxs.append(e)
        slots.append(cur)
    return CoverPath(tuple(edge_idxs), tuple(slots))


def _is_subpath(a: CoverPath, b: CoverPath) -> bool:
    """``a`` is a contiguous sub-path of ``b`` (and shorter)."""
    if len(a) >= len(b):
        return False
    n, m = len(a.edge_idxs), len(b.edge_idxs)
    return any(b.edge_idxs[i : i + n] == a.edge_idxs for i in range(m - n + 1))


def covering_paths(q: QueryPattern) -> list[CoverPath]:
    """Extract the set of covering paths :math:`CP(Q_i)` of a query pattern.

    Guarantees (tested): every edge and every vertex appears in at least one
    path (a walk may re-traverse edges an earlier walk visited), consecutive
    edges of a path chain source→target, and no path is a sub-path of another.
    The paths come in the order their walks were taken.
    """
    n = len(q.vertices)
    out: OutEdges = [[] for _ in range(n)]
    into: list[list[int]] = [[] for _ in range(n)]  # per vertex: its in-edges' sources
    for e, (s, _, o) in enumerate(q.edges):
        out[s].append((e, o))
        into[o].append(s)
    # Start walks at source vertices (in-degree 0 first, as the paper's
    # example does, then by id) among those that can still reach an
    # unvisited edge.
    order = [v for v in range(n) if not into[v]] + [v for v in range(n) if into[v]]
    unvisited = set(range(len(q.edges)))
    paths: list[CoverPath] = []
    while unvisited:
        # the vertices that reach an unvisited edge: its source, and
        # whatever reaches that source along the in-edges
        reach = {q.edges[e][0] for e in unvisited}
        stack = list(reach)
        while stack:
            for s in into[stack.pop()]:
                if s not in reach:
                    reach.add(s)
                    stack.append(s)
        # the start reaches an unvisited edge, so it has an outgoing edge
        # and the walk takes at least one
        start = next(v for v in order if v in reach)
        paths.append(_walk(out, start, unvisited))
    if len(paths) > 1:
        paths = [p for p in paths if not any(_is_subpath(p, o) for o in paths if o is not p)]
    return paths
