"""Trie forest clustering covering paths by edge-signature chains (§4.1
Step 2, Figs. 6 & 8).

Data structures, named as in the paper:

* ``rootInd``  → :attr:`TrieForest.roots`: key of a first edge → root.
* ``edgeInd``  → :attr:`TrieForest.edge_ind`: signature → set of tries (root
  keys) that index it somewhere — the entry point of the answering phase.

A node's key is ``(signature, back-reference)``
(:meth:`~repro.graph.covering.CoverPath.back_refs`).  The paper indexes
paths by signature alone and leaves a cycle's closure to the final join
(§4.1 "Variable Handling"), so its tries materialize every open walk of a
cyclic path.  Here the edge that closes a cycle gets its own node, which
keeps only the walks whose new vertex equals the one the back-reference
names: paths share nodes up to the step where their equality patterns
differ, and split there.

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

from typing import Optional

from repro.graph.covering import CoverPath
from repro.graph.model import EdgeSig, QueryPattern
from repro.relational.relation import View

#: a trie node's key among its siblings: (edge signature, back-reference)
NodeKey = tuple[EdgeSig, Optional[int]]


class TrieNode:
    """One trie node indexing one edge signature at depth ``depth``.

    An inner node's materialized view holds every embedding of the
    root→node signature chain into the current graph, as ``depth + 2``
    vertex-label slots, that closes the cycles the chain's back-references
    name: with ``ref = k`` the new slot ``depth + 1`` equals slot ``k`` (a
    root with ``ref = 0`` matches self-loops only).  Only its children's
    ``old(parent) ⋈ {u}`` term reads the view, so a leaf stores no rows: its
    deltas go to the registered queries' assemblers and nowhere else.  This
    needs the trie's shape fixed before the first update, which is why
    engines refuse late queries.  A node appends an update's delta to its
    view after its children have read the view, so during that read the
    view is exactly ``old(parent)`` of the semi-naive rule.  The view keeps
    no duplicate set (``distinct=False``): that order, together with every
    row TRIC's descent adds for a new triple using that triple's edge,
    means a delta row is absent from the view and derived only once.
    """

    __slots__ = ("sig", "ref", "depth", "children", "matv", "registered", "below_sigs")

    def __init__(self, sig: EdgeSig, ref: Optional[int], depth: int, cached: bool):
        self.sig = sig
        self.ref = ref
        self.depth = depth
        self.children: dict[NodeKey, TrieNode] = {}
        self.matv = View(cached=cached, distinct=False)
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
        self.roots: dict[NodeKey, TrieNode] = {}  # rootInd
        self.edge_ind: dict[EdgeSig, set[NodeKey]] = {}  # sig -> root keys

    def insert_path(self, q: QueryPattern, pidx: int, path: CoverPath) -> TrieNode:
        """Index one covering path (Fig. 6): descend along the existing trie
        path that matches the (signature, back-reference) chain, creating
        the missing suffix, then register the query id at the last node."""
        chain = path.sig_chain(q)
        keys = list(zip(chain, path.back_refs(q)))
        root_key = keys[0]
        node = self.roots.get(root_key)
        if node is None:
            node = self.roots[root_key] = TrieNode(*root_key, 0, self.cached)
        ancestors = [node]
        for d, key in enumerate(keys[1:], start=1):
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = TrieNode(*key, d, self.cached)
            node = child
            ancestors.append(node)
        for sig in chain:
            self.edge_ind.setdefault(sig, set()).add(root_key)
        for a in ancestors:
            a.below_sigs.update(chain[a.depth + 1:])
        node.registered.append((q.qid, pidx))
        return node

    def affected_roots(self, sigs: list[EdgeSig]) -> list[TrieNode]:
        """Tries containing any of the update's signatures (answering Step 1)."""
        root_keys: set[NodeKey] = set()
        for s in sigs:
            root_keys.update(self.edge_ind.get(s, ()))
        # deterministic order (None-safe: signatures contain None for ?var,
        # and a root's back-reference is None or 0)
        return [
            self.roots[r]
            for r in sorted(
                root_keys,
                key=lambda x: (x[0][0], x[0][1] or "", x[0][2] or "", x[1] is not None),
            )
        ]

    # -- introspection used by tests -----------------------------------
    def n_nodes(self) -> int:
        return sum(1 for r in self.roots.values() for _ in r.walk())

    def all_nodes(self) -> list[TrieNode]:
        return [n for r in self.roots.values() for n in r.walk()]
