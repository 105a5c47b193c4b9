"""Data and query model of the paper (§3).

The paper's attribute graphs use vertex labels as identities in all worked
examples (``posted = (p2, pst1)``), i.e. the graph is a set of labeled
triples ``(s, p, o)`` and an update adds one triple.  A query graph pattern
is a directed labeled multigraph whose vertices are either *literals*
(concrete labels) or *variables*; following §4.1 "Variable Handling", all
variables are represented by the generic label ``?var`` for indexing, while
the join structure (which occurrences denote the same vertex) is kept
separately via per-query vertex ids.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

@dataclass(frozen=True)
class Triple:
    """One graph edge / stream update: source label, predicate, target label."""

    s: str
    p: str
    o: str


#: Edge signature ``(p, s_literal_or_None, o_literal_or_None)`` — the unit of
#: indexing in TRIC's tries and the baselines' inverted indexes.  ``None``
#: stands for the generic ``?var``.
EdgeSig = tuple[str, Optional[str], Optional[str]]


def update_sigs(u: Triple) -> tuple[EdgeSig, EdgeSig, EdgeSig, EdgeSig]:
    """The four signatures an update can satisfy, most-specific first."""
    return (
        (u.p, u.s, u.o),
        (u.p, u.s, None),
        (u.p, None, u.o),
        (u.p, None, None),
    )


@dataclass
class QueryPattern:
    """A query graph pattern :math:`Q_i` (Definition 4).

    ``vertices[i]`` is the term of vertex ``i``: a literal label, or ``None``
    for a variable (each vertex id is its own variable — two variable
    vertices are distinct variables).  ``edges`` are ``(src_vid, predicate,
    dst_vid)`` and may repeat vertex ids (multigraph, cycles allowed).
    """

    qid: int
    vertices: list[Optional[str]]
    edges: list[tuple[int, str, int]]
    #: free-form provenance (shape, satisfiable-by-construction, dataset seed)
    meta: dict = field(default_factory=dict)

    # -- structural helpers -------------------------------------------------
    def edge_sig(self, eidx: int) -> EdgeSig:
        s, p, o = self.edges[eidx]
        return (p, self.vertices[s], self.vertices[o])

    def is_connected(self) -> bool:
        """Weak connectivity of the pattern graph (queries must be connected)."""
        if not self.edges:
            return len(self.vertices) <= 1
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.vertices))}
        for s, _, o in self.edges:
            adj[s].add(o)
            adj[o].add(s)
        seen = {self.edges[0][0]}
        stack = [self.edges[0][0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def validate(self) -> None:
        """Raise ``ValueError`` on malformed patterns (used by generators)."""
        n = len(self.vertices)
        if not self.edges:
            raise ValueError(f"Q{self.qid}: query pattern has no edges")
        for s, p, o in self.edges:
            if not (0 <= s < n and 0 <= o < n):
                raise ValueError(f"Q{self.qid}: edge ({s},{p},{o}) out of range")
            if not p:
                raise ValueError(f"Q{self.qid}: empty predicate")
        touched = {v for s, _, o in self.edges for v in (s, o)}
        if touched != set(range(n)):
            raise ValueError(f"Q{self.qid}: isolated vertices {set(range(n)) - touched}")
        if not self.is_connected():
            raise ValueError(f"Q{self.qid}: pattern is not connected")
