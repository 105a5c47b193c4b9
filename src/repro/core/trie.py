"""Trie forest clustering covering paths by edge-signature chains (§4.1
Step 2, Figs. 6 & 8).

Data structures, named as in the paper:

* ``rootInd``  → :attr:`TrieForest.roots`: key of a first edge → root.
* ``edgeInd``  → :attr:`TrieForest.edge_ind`: signature → the roots that
  carry it, in creation order.

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

Below the roots an update is routed by its source vertex as well as its
signature.  An update ``u`` can start a delta at a non-root node only
through ``old(parent) ⋈ {u}``, which is empty unless the parent's view
holds a row whose new slot is ``u.s``.  :attr:`TrieForest.src_ind` maps a
signature and a vertex to exactly the non-root nodes of that signature
whose parent's view holds that vertex at its new slot; the answering phase
keeps it up to date as it writes the views
(:meth:`TrieForest.add_sources`).  :meth:`TrieForest.affected_roots`
gives an update's *candidates*, the matching roots plus the nodes
``src_ind`` names for ``(sig, u.s)``, ancestors first; no other node can
get ``u``'s own term.  This is the delta-query principle of Graphflow
(Ammar et al., PVLDB 2018): start from the update's endpoint, not from
every place its label occurs.

Once the forest's shape is final, :meth:`TrieForest.freeze` gives every
node its live slots (:attr:`TrieNode.keep`), the only slots its rows carry,
and the probe key and emit function of its step from its parent's rows.
The engine then gives each node its signature's base view
(:attr:`TrieNode.base`) and its :attr:`TrieNode.feeds`.
"""
from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.graph.covering import CoverPath
from repro.graph.model import EdgeSig, QueryPattern
from repro.relational.relation import Row, View, append_target, getter

if TYPE_CHECKING:
    from repro.engine.assembler import Feed

#: a trie node's key among its siblings: (edge signature, back-reference)
NodeKey = tuple[EdgeSig, Optional[int]]

#: candidates' order: by depth, so ancestors come first, then by creation,
#: which fixes the order in which one depth's deltas reach the assemblers
_rank = attrgetter("depth", "order")


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
    ``(s, o)`` to the node's row.  :attr:`order` is the node's creation
    index in its forest.

    Once frozen, the answering engine also sets :attr:`base`, the base view
    of the node's signature, which its step joins against, and
    :attr:`feeds`, the :class:`~repro.engine.assembler.Feed` objects that
    group the registered paths by the slots their final join reads, in the
    order of their first registered path.
    """

    __slots__ = (
        "sig", "ref", "depth", "parent", "children", "matv", "registered",
        "order", "keep", "probe", "emit", "base", "feeds",
    )

    def __init__(
        self,
        sig: EdgeSig,
        ref: Optional[int],
        parent: Optional[TrieNode],
        cached: bool,
        order: int,
    ):
        self.sig = sig
        self.ref = ref
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.children: dict[NodeKey, TrieNode] = {}
        self.matv = View(cached=cached)
        self.registered: list[tuple[int, int]] = []  # (qid, path_idx)
        self.order = order
        self.keep: tuple[int, ...] = ()
        self.probe: tuple[int, ...] = ()
        self.emit: Callable[[Row, Row], Row] = append_target
        self.base: Optional[View] = None
        self.feeds: tuple[Feed, ...] = ()

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
        """Set :attr:`probe` and :attr:`emit` for this subtree, given the
        parent's live slots (``(0,)`` for a root: its "parent row" is the
        update's source)."""
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
        for c in self.children.values():
            c._freeze_step(self.keep)


class TrieForest:
    """The forest of tries, the paper's root and edge indexes, and the
    vertex-keyed entry index ``src_ind``."""

    def __init__(self, cached: bool):
        self.cached = cached
        self.roots: dict[NodeKey, TrieNode] = {}  # rootInd
        self.edge_ind: dict[EdgeSig, list[TrieNode]] = {}  # sig -> roots
        #: sig -> vertex -> the non-root nodes of that signature whose
        #: parent's view holds the vertex at its new slot
        self.src_ind: dict[EdgeSig, dict[object, list[TrieNode]]] = defaultdict(dict)
        self._created = 0

    def insert_path(self, q: QueryPattern, pidx: int, path: CoverPath) -> TrieNode:
        """Index one covering path (Fig. 6): descend along the existing trie
        path that matches the (signature, back-reference) chain, creating
        the missing suffix, then register the query id at the last node."""
        level = self.roots
        node = None
        for key in zip(path.sig_chain(q), path.back_refs(q)):
            child = level.get(key)
            if child is None:
                child = level[key] = TrieNode(*key, node, self.cached, self._created)
                self._created += 1
                if node is None:
                    self.edge_ind.setdefault(key[0], []).append(child)
            node = child
            level = node.children
        node.registered.append((q.qid, pidx))
        return node

    def freeze(self, path_slots: Callable[[int, int], Iterable[int]]) -> None:
        """Fix every node's live slots and step once the trie's shape is
        final; ``path_slots(qid, pidx)`` gives the slots whose values a
        registered path's final join reads."""
        for root in self.roots.values():
            root._freeze_keep(path_slots)
            root._freeze_step((0,))

    def affected_roots(self, sigs: Iterable[EdgeSig], src: object) -> list[TrieNode]:
        """The candidates of an update with signatures ``sigs`` and source
        vertex ``src`` (answering Step 1): the roots that carry one of
        ``sigs``, and the nodes ``src_ind`` names for one of them and
        ``src``, ancestors first.  A new list, since ``src_ind`` grows while
        the update is answered.  Valid once the forest is frozen."""
        out: list[TrieNode] = []
        for s in sigs:
            roots = self.edge_ind.get(s)
            if roots:
                out += roots
            by_src = self.src_ind.get(s)
            if by_src:
                nodes = by_src.get(src)
                if nodes:
                    out += nodes
        if len(out) > 1:
            out.sort(key=_rank)
        return out

    def add_sources(self, node: TrieNode, rows: list[Row]) -> None:
        """Register ``node``'s children in ``src_ind`` under each new-slot
        value of ``rows``, the rows just added to ``node``'s view, that is
        new to the view.  All children are registered under the same
        values, so the first child's list tells which are new."""
        children = list(node.children.values())
        first = children[0]
        col = first.probe[0]  # node's new slot, which every child probes
        src_ind = self.src_ind
        firsts = src_ind[first.sig]
        for v in dict.fromkeys(r[col] for r in rows):
            if first in firsts.get(v, ()):
                continue
            for c in children:
                by_src = src_ind[c.sig]
                nodes = by_src.get(v)
                if nodes is None:
                    by_src[v] = [c]
                else:
                    nodes.append(c)

    # -- introspection used by tests -----------------------------------
    def n_nodes(self) -> int:
        return sum(1 for r in self.roots.values() for _ in r.walk())

    def all_nodes(self) -> list[TrieNode]:
        return [n for r in self.roots.values() for n in r.walk()]
