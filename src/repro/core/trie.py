"""Trie forest clustering covering paths by edge-signature chains (§4.1
Step 2, Figs. 6 & 8).

Data structures, named as in the paper:

* ``rootInd``  → :attr:`TrieForest.roots`: signature of a first edge → root.
* ``edgeInd``  → :attr:`TrieForest.edge_ind`: signature → set of tries (roots)
  that index it somewhere — the entry point of the answering phase.

The paper's ``queryInd`` (query id → the nodes its covering paths end at)
has no reader here: the answering phase reaches a query only through
:attr:`TrieNode.registered` at the node that got the delta, so the forest
keeps just that reverse link.

Each node additionally keeps ``below_sigs`` (every signature occurring at a
strict descendant) so the answering phase can prune sub-tries that cannot
contain the update's edge — the paper's pruning (Fig. 9 / Example 4)
generalized to the case where one signature occurs at several depths
(BioGRID-style).  A sub-trie is skipped when neither its root's signature
nor ``below_sigs`` matches; a node whose delta came back empty is entered
only when ``below_sigs`` matches.
"""
from __future__ import annotations

from repro.graph.covering import CoverPath
from repro.graph.model import EdgeSig, QueryPattern
from repro.relational.relation import View


class TrieNode:
    """One trie node indexing one edge signature at depth ``depth``.

    An inner node's materialized view holds every embedding of the
    root→node signature chain into the current graph, as ``depth + 2``
    vertex-label slots.  Only its children's ``old(parent) ⋈ {u}`` term
    reads it, so a leaf stores no rows: its deltas go to the registered
    queries' assemblers and nowhere else.  This needs the trie's shape fixed
    before the first update, which is why engines refuse late queries.  The
    view keeps no duplicate set (``distinct=False``): every row TRIC's
    semi-naive descent adds for a new triple uses that triple's edge, so it
    is absent from the view and derived only once.
    """

    __slots__ = ("sig", "depth", "children", "matv", "registered", "below_sigs")

    def __init__(self, sig: EdgeSig, depth: int, cached: bool):
        self.sig = sig
        self.depth = depth
        self.children: dict[EdgeSig, TrieNode] = {}
        self.matv = View(arity=depth + 2, cached=cached, distinct=False)
        self.registered: list[tuple[int, int]] = []  # (qid, path_idx)
        self.below_sigs: set[EdgeSig] = set()

    def walk(self):
        """DFS iterator over this subtree (self first)."""
        yield self
        for c in self.children.values():
            yield from c.walk()


class TrieForest:
    """The forest of tries plus the paper's root and edge indexes."""

    def __init__(self, cached: bool):
        self.cached = cached
        self.roots: dict[EdgeSig, TrieNode] = {}  # rootInd
        self.edge_ind: dict[EdgeSig, set[EdgeSig]] = {}  # sig -> root sigs

    def insert_path(self, q: QueryPattern, pidx: int, path: CoverPath) -> TrieNode:
        """Index one covering path (Fig. 6): descend along the existing trie
        path that matches the signature chain, creating the missing suffix,
        then register the query id at the last node."""
        chain = path.sig_chain(q)
        root_sig = chain[0]
        node = self.roots.get(root_sig)
        if node is None:
            node = self.roots[root_sig] = TrieNode(root_sig, 0, self.cached)
        self.edge_ind.setdefault(root_sig, set()).add(root_sig)
        ancestors = [node]
        for d, sig in enumerate(chain[1:], start=1):
            child = node.children.get(sig)
            if child is None:
                child = node.children[sig] = TrieNode(sig, d, self.cached)
            node = child
            ancestors.append(node)
            self.edge_ind.setdefault(sig, set()).add(root_sig)
        for a in ancestors:
            a.below_sigs.update(chain[a.depth + 1:])
        node.registered.append((q.qid, pidx))
        return node

    def affected_roots(self, sigs: list[EdgeSig]) -> list[TrieNode]:
        """Tries containing any of the update's signatures (answering Step 1)."""
        root_sigs: set[EdgeSig] = set()
        for s in sigs:
            root_sigs.update(self.edge_ind.get(s, ()))
        # deterministic order (None-safe: signatures contain None for ?var)
        return [
            self.roots[r]
            for r in sorted(root_sigs, key=lambda x: (x[0], x[1] or "", x[2] or ""))
        ]

    # -- introspection used by tests -----------------------------------
    def n_nodes(self) -> int:
        return sum(1 for r in self.roots.values() for _ in r.walk())

    def all_nodes(self) -> list[TrieNode]:
        return [n for r in self.roots.values() for n in r.walk()]
