"""Trie forest clustering covering paths by edge-signature chains (§4.1
Step 2, Figs. 6 & 8).

Data structures, named as in the paper:

* ``rootInd``  → :attr:`TrieForest.roots`: key of a first edge → root.
* ``edgeInd``  → :attr:`TrieForest.edge_ind`: signature → the nodes that
  carry it, in creation order — the entry point of the answering phase.

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

An update enters the forest at its *entry nodes*
(:meth:`TrieForest.affected_roots`): the nodes whose signature it
satisfies and none of whose strict ancestors' signatures
(:attr:`TrieNode.above_sigs`) it does.  A delta starts only at a node
whose signature matches, so no node above an entry node gets one, and the
answering phase starts there instead of walking down from each root.

Once the forest's shape is final, :meth:`TrieForest.freeze` gives every
node its live slots (:attr:`TrieNode.keep`), the only slots its rows carry,
the probe key and emit function of its step from its parent's rows, and
its ancestors' signatures.
"""
from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.graph.covering import CoverPath
from repro.graph.model import EdgeSig, QueryPattern
from repro.relational.relation import Row, View, append_target, getter

#: a trie node's key among its siblings: (edge signature, back-reference)
NodeKey = tuple[EdgeSig, Optional[int]]


def _target(pr: Row, br: Row) -> Row:
    """Join emit of a node that keeps only its new slot: the target of the
    matching base-view row ``(s, o)``."""
    return br[1:]


class TrieNode:
    """One trie node indexing one edge signature at depth ``depth``.

    The node's embeddings are those of the root→node signature chain into
    the current graph, as ``depth + 2`` vertex-label slots, that close the
    cycles the chain's back-references name: with ``ref = k`` the new slot
    ``depth + 1`` equals slot ``k`` (a root with ``ref = 0`` matches
    self-loops only).  Its rows are these embeddings projected onto its
    *live slots* :attr:`keep`, the slots something reads:

    * slot ``depth + 1``, if the node has children (their extension key);
    * every child's ``ref``, and every slot ``<= depth + 1`` a child keeps;
    * per path registered here, the first slot of each variable that
      :attr:`QueryAssembler.var_slots` names (its join variables).

    Every other slot is existential: an event only asks whether a new
    embedding exists.  The view is the set of these projections.  Only its
    children's ``old(parent) ⋈ {u}`` term reads it, so a leaf stores no rows:
    its deltas go to the registered queries' assemblers and nowhere else.
    The live slots, and so the view, need the trie's shape fixed before the
    first update (:meth:`TrieForest.freeze`), which is why engines refuse
    late queries.  A node appends an update's delta to its view after its
    children have read the view, so during that read the view is exactly
    ``old(parent)`` of the semi-naive rule.

    ``freeze`` also fixes the node's step from its parent's rows:
    :attr:`probe`, the columns of the parent's row holding slot ``depth``
    (the parent's new slot) and, when the node closes a cycle, slot
    ``ref``; and :attr:`emit`, which maps a parent row and a base row
    ``(s, o)`` to the node's row.  It also sets :attr:`above_sigs`, the
    distinct signatures of the node's strict ancestors (a tuple: most are
    one or two long, and a tuple is a quarter of a small set's size).
    """

    __slots__ = (
        "sig", "ref", "depth", "parent", "children", "matv", "registered",
        "below_sigs", "above_sigs", "keep", "probe", "emit",
    )

    def __init__(
        self, sig: EdgeSig, ref: Optional[int], parent: Optional[TrieNode], cached: bool
    ):
        self.sig = sig
        self.ref = ref
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.children: dict[NodeKey, TrieNode] = {}
        self.matv = View(cached=cached)
        self.registered: list[tuple[int, int]] = []  # (qid, path_idx)
        self.below_sigs: set[EdgeSig] = set()
        self.above_sigs: tuple[EdgeSig, ...] = ()
        self.keep: tuple[int, ...] = ()
        self.probe: tuple[int, ...] = ()
        self.emit: Callable[[Row, Row], Row] = append_target

    def walk(self):
        """DFS iterator over this subtree (self first)."""
        yield self
        for c in self.children.values():
            yield from c.walk()

    def _freeze_keep(self, path_slots: Callable[[int, int], Iterable[int]]) -> None:
        """Set :attr:`keep` for this subtree, children first."""
        new = self.depth + 1
        keep = {s for qid, pidx in self.registered for s in path_slots(qid, pidx)}
        for c in self.children.values():
            c._freeze_keep(path_slots)
            keep.update(s for s in c.keep if s <= new)
            if c.ref is not None:
                keep.add(c.ref)
        if self.children:
            keep.add(new)
        self.keep = tuple(sorted(keep))

    def _freeze_step(self, parent_keep: tuple[int, ...]) -> None:
        """Set :attr:`probe`, :attr:`emit` and :attr:`above_sigs` for this
        subtree, given the parent's live slots (``(0,)`` for a root: its
        "parent row" is the update's source)."""
        self.probe = tuple(
            parent_keep.index(s) for s in (self.depth, self.ref) if s is not None
        )
        cols = tuple(parent_keep.index(s) for s in self.keep if s <= self.depth)
        g = getter(cols)
        if self.depth + 1 not in self.keep:
            # the new slot is dropped: the base row only has to exist
            self.emit = lambda pr, br: g(pr)
        elif len(cols) == len(parent_keep):
            self.emit = append_target
        elif not cols:
            self.emit = _target
        else:
            self.emit = lambda pr, br: g(pr) + br[1:]
        # one tuple per parent, shared by its children (and down a chain of
        # one signature, as on BioGRID)
        above = self.above_sigs
        if self.sig not in above:
            above += (self.sig,)
        for c in self.children.values():
            c.above_sigs = above
            c._freeze_step(self.keep)


class TrieForest:
    """The forest of tries plus the paper's root and edge indexes."""

    def __init__(self, cached: bool):
        self.cached = cached
        self.roots: dict[NodeKey, TrieNode] = {}  # rootInd
        self.edge_ind: dict[EdgeSig, list[TrieNode]] = {}  # sig -> nodes

    def insert_path(self, q: QueryPattern, pidx: int, path: CoverPath) -> TrieNode:
        """Index one covering path (Fig. 6): descend along the existing trie
        path that matches the (signature, back-reference) chain, creating
        the missing suffix, then register the query id at the last node."""
        chain = path.sig_chain(q)
        ancestors: list[TrieNode] = []
        level = self.roots
        node = None
        for key in zip(chain, path.back_refs(q)):
            child = level.get(key)
            if child is None:
                child = level[key] = TrieNode(*key, node, self.cached)
                self.edge_ind.setdefault(key[0], []).append(child)
            node = child
            level = node.children
            ancestors.append(node)
        for a in ancestors:
            a.below_sigs.update(chain[a.depth + 1:])
        node.registered.append((q.qid, pidx))
        return node

    def freeze(self, path_slots: Callable[[int, int], Iterable[int]]) -> None:
        """Fix every node's live slots, step and ancestors' signatures once
        the trie's shape is final; ``path_slots(qid, pidx)`` gives the slots
        whose values a registered path's final join reads."""
        for root in self.roots.values():
            root._freeze_keep(path_slots)
            root._freeze_step((0,))

    def affected_roots(self, sigs: list[EdgeSig]) -> list[TrieNode]:
        """The update's entry nodes (answering Step 1): the nodes whose
        signature is in ``sigs`` and none of whose strict ancestors' is,
        per signature in ``sigs`` order, then in creation order.  Valid once
        the forest is frozen."""
        sig_set = set(sigs)
        return [
            n for s in sigs for n in self.edge_ind.get(s, ()) if sig_set.isdisjoint(n.above_sigs)
        ]

    # -- introspection used by tests -----------------------------------
    def n_nodes(self) -> int:
        return sum(1 for r in self.roots.values() for _ in r.walk())

    def all_nodes(self) -> list[TrieNode]:
        return [n for r in self.roots.values() for n in r.walk()]
