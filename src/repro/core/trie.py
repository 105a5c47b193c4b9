"""Trie forest clustering covering paths by edge-signature chains (§4.1
Step 2, Figs. 6 & 8).

Data structures, named as in the paper:

* ``rootInd``  → :attr:`TrieForest.roots`: key of a first edge → root.
* ``edgeInd`` (signature → the roots that carry it) has no structure of
  its own.  A root's back-reference is ``None``, or ``0`` for a self-loop
  edge, so ``rootInd`` finds a signature's roots in at most two lookups.

Every node is created after its parent, so the forest's node list in
creation order puts ancestors first.  It is the forest's one enumeration:
:meth:`TrieForest.freeze` walks it backwards and forwards,
:meth:`TrieForest.all_nodes` returns it, and candidates come in its order.

A node's key is ``(signature, back-reference)``, a covering path's
:attr:`~repro.graph.covering.CoverPath.chain` and ``refs``.  The paper indexes
paths by signature alone and leaves a cycle's closure to the final join
(§4.1 "Variable Handling"), so its tries materialize every open walk of a
cyclic path.  Here the edge that closes a cycle gets its own node, which
keeps only the walks whose new vertex equals the one the back-reference
names: paths share nodes up to the step where their equality patterns
differ, and split there.

The paper's ``queryInd`` (query id → the nodes its covering paths end at)
has no reader here: the answering phase reaches a path only through the
:attr:`TrieNode.feeds` of the node that got the delta, so the forest keeps
just that reverse link.  A :class:`Feed` groups the paths ending at a node
that read its rows through the same slots, owns the canonical view
they share, and knows which of its paths are armed, those whose join
partners' views all hold rows; :meth:`TrieForest.join_feed` puts a path
in one.  The final join (:mod:`repro.engine.assembler`) only reads those
views, and knows nothing of the trie.

Below the roots an update is routed by its source vertex as well as its
signature.  An update ``u`` can start a delta at a non-root node only
through ``old(parent) ⋈ {u}``, which is empty unless the parent's view
holds a row whose new slot is ``u.s``.  :attr:`TrieForest.src_ind` maps a
signature and a vertex to exactly the non-root nodes of that signature
whose parent's view holds that vertex at its new slot; the answering phase
keeps it up to date as it writes the views
(:meth:`TrieForest.add_sources`).  An entry is a tuple of node creation
indices, resolved through the forest's node list, so the cyclic collector
stops tracking it (a list of nodes would stay tracked for the whole stream
and bring full collections closer, as :mod:`~repro.relational.relation`
explains).  :meth:`TrieForest.affected_roots` gives an update's
*candidates*, the matching roots plus the nodes
``src_ind`` names for ``(sig, u.s)``, in creation order; no other node can
get ``u``'s own term.  This is the delta-query principle of Graphflow
(Ammar et al., PVLDB 2018): start from the update's endpoint, not from
every place its label occurs.

The forest owns the base views, one per edge signature, and a node gets
its signature's view when it is created.  Once the forest's shape is
final, :meth:`TrieForest.freeze` gives every node its live slots
(:attr:`TrieNode.keep`), the only slots its rows carry, the probe key and
emit function of its step from its parent's rows, and the projection of
each of its feeds; nodes with the same step share one emit function.
"""
from __future__ import annotations

from collections import defaultdict
from functools import cache
from typing import Callable, Iterable, Optional

from repro.graph.model import EdgeSig, Triple
from repro.relational.relation import Row, View, append_target, getter

#: a trie node's key among its siblings: (edge signature, back-reference)
NodeKey = tuple[EdgeSig, Optional[int]]
#: what a feed's first rows re-check of one query (:meth:`Feed.wake`): its
#: id, the feed of each of its paths and each path's join partners, both
#: in path order
Waiter = tuple[int, list["Feed"], list[list[int]]]


def _target(pr: Row, br: Row) -> Row:
    """Join emit of a node that keeps only its new slot: the target of the
    matching base-view row ``(s, o)``."""
    return br[1:]


@cache
def _step_emit(cols: tuple[int, ...], new: bool) -> Callable[[Row, Row], Row]:
    """The emit of a step that carries the parent row's columns ``cols``,
    then the base row's target if ``new``.  One function per step, shared
    by every node that takes it (snb's 1,811 nodes take 10 steps), as
    :func:`~repro.relational.relation.getter` shares its getters."""
    if new and not cols:
        return _target
    g = getter(cols)
    if not new:
        # the new slot is dropped: the base row only has to exist
        return lambda pr, br: g(pr)
    return lambda pr, br: g(pr) + br[1:]


class Feed:
    """The covering paths ending at one trie node that read its rows
    through the same ``slots``, the first slots of their join variables:
    ``members`` lists them as ``(qid, pidx)``, ``view`` is the canonical
    view they share, and ``project``, set when the trie freezes, maps the
    node's row to their canonical row.  A lone path has no join variable,
    so its feed's ``slots`` are ``()`` and its view stays empty: the
    descent stores projections only for a feed with slots.

    A member is *armed* once the canonical view of each of its join
    partners holds rows; until then no delta of its path can join, so the
    descent hands deltas to the members in :attr:`armed` alone.  Views only
    grow, so an armed member stays armed.  :meth:`TrieForest.join_feed`
    arms a lone path at once.  Any other path's query waits on the path's
    feed (:attr:`waiting`): every view is empty while queries are indexed,
    so a member's partners hold rows once the feed of each of them has
    taken its first rows, and :meth:`wake` then arms it."""

    __slots__ = ("slots", "view", "members", "armed", "waiting", "project")
    project: Callable[[Row], Row]

    def __init__(self, slots: tuple[int, ...], view: View):
        self.slots = slots
        self.view = view
        self.members: list[tuple[int, int]] = []
        #: the members handed deltas, in the order they were armed
        self.armed: list[tuple[int, int]] = []
        #: the queries with a path here that has join partners, once per
        #: such path, as :data:`Waiter`; emptied by :meth:`wake`
        self.waiting: list[Waiter] = []

    def wake(self) -> None:
        """Arm, once this feed's view holds its first rows, each path of
        the queries waiting here that is not armed yet and whose partners'
        views all hold rows.  The others still have a partner whose feed's
        view is empty, and that feed's first rows wake them."""
        for qid, feeds, partners in self.waiting:
            for pidx, ps in enumerate(partners):
                feed, member = feeds[pidx], (qid, pidx)
                if member not in feed.armed and all(feeds[j].view.rows for j in ps):
                    feed.armed.append(member)
        self.waiting = []


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
    * per feed, the first slot of each join variable of its paths
      (:attr:`Feed.slots`).

    Every other slot is existential: an event only asks whether a new
    embedding exists.  The view is the set of these projections.  Only its
    children's ``old(parent) ⋈ {u}`` term reads it, so a leaf stores no rows:
    its deltas go to its feeds' assemblers and nowhere else.
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
    index in its forest, :attr:`base` the base view of its signature, which
    its step joins against, and :attr:`feeds` groups the covering paths
    that end here into :class:`Feed` objects, in the order of their first
    path.
    """

    __slots__ = (
        "sig", "ref", "depth", "parent", "children", "matv", "order", "keep",
        "probe", "emit", "base", "feeds",
    )

    def __init__(
        self,
        sig: EdgeSig,
        ref: Optional[int],
        parent: Optional[TrieNode],
        base: View,
        cached: bool,
        order: int,
    ):
        self.sig = sig
        self.ref = ref
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.children: dict[NodeKey, TrieNode] = {}
        self.matv = View(cached=cached)
        self.order = order
        self.keep: tuple[int, ...] = ()
        self.probe: tuple[int, ...] = ()
        self.emit: Callable[[Row, Row], Row] = append_target
        self.base = base
        self.feeds: tuple[Feed, ...] = ()


class TrieForest:
    """The forest of tries, the paper's root index, its nodes in creation
    order, its base views and the vertex-keyed entry index ``src_ind``."""

    def __init__(self, cached: bool):
        self.cached = cached
        #: base materialized view per edge signature (matV[e_i], §4.1)
        self.base: dict[EdgeSig, View] = {}
        self.roots: dict[NodeKey, TrieNode] = {}  # rootInd
        #: sig -> vertex -> the creation indices (:attr:`TrieNode.order`)
        #: of the non-root nodes of that signature whose parent's view
        #: holds the vertex at its new slot
        self.src_ind: dict[EdgeSig, dict[object, tuple[int, ...]]] = defaultdict(dict)
        #: every node, in creation order, so ancestors first: the forest's
        #: one enumeration, which ``src_ind`` entries and candidates index
        self._nodes: list[TrieNode] = []

    def insert_path(
        self, chain: tuple[EdgeSig, ...], refs: tuple[Optional[int], ...]
    ) -> TrieNode:
        """Index a covering path (Fig. 6), given as its
        :class:`~repro.graph.covering.CoverPath` ``chain`` and ``refs``:
        descend along the existing trie path that matches the (signature,
        back-reference) chain, creating the missing suffix, and return the
        last node, whose feeds the caller joins the path to
        (:meth:`join_feed`)."""
        level, base = self.roots, self.base
        node = None
        for key in zip(chain, refs):
            child = level.get(key)
            if child is None:
                sig = key[0]
                if sig not in base:
                    base[sig] = View(cached=self.cached)
                child = TrieNode(*key, node, base[sig], self.cached, len(self._nodes))
                level[key] = child
                self._nodes.append(child)
            node = child
            level = node.children
        return node

    def join_feed(
        self,
        node: TrieNode,
        slots: tuple[int, ...],
        member: tuple[int, int],
        waiter: Waiter,
    ) -> Feed:
        """Put ``member``, a covering path ``(qid, pidx)`` that ends at
        ``node`` and reads its rows through ``slots``, in the node's feed
        with those slots, or in a new one, and return that feed: its view
        is the path's canonical view.  Paths fed the same rows through the
        same slots hold the same projections, so one view serves them all.

        A lone path, whose ``slots`` are ``()``, is armed at once; for any
        other, ``waiter``, the path's query as :data:`Waiter`, waits on
        the feed for its first rows.  The caller fills ``waiter``'s feeds
        as its paths join theirs, before the first update."""
        for feed in node.feeds:
            if feed.slots == slots:
                break
        else:
            feed = Feed(slots, View(cached=self.cached))
            node.feeds += (feed,)
        feed.members.append(member)
        if slots:
            feed.waiting.append(waiter)
        else:
            feed.armed.append(member)
        return feed

    def freeze(self) -> None:
        """Fix every node's live slots, its step and its feeds' projections
        once the trie's shape is final."""
        nodes = self._nodes
        # children first: a node keeps every slot its children read
        for node in reversed(nodes):
            new = node.depth + 1
            keep = {s for f in node.feeds for s in f.slots}
            for c in node.children.values():
                keep.update(s for s in c.keep if s <= new)
                if c.ref is not None:
                    keep.add(c.ref)
            if node.children:
                keep.add(new)
            node.keep = tuple(sorted(keep))
        # parents first: a step reads its parent's live slots, and a root's
        # "parent row" is the update's source, ``(0,)``
        for node in nodes:
            keep = node.keep
            parent_keep = (0,) if node.parent is None else node.parent.keep
            node.probe = tuple(
                parent_keep.index(s) for s in (node.depth, node.ref) if s is not None
            )
            cols = tuple(parent_keep.index(s) for s in keep if s <= node.depth)
            new = node.depth + 1 in keep
            if new and len(cols) == len(parent_keep):
                node.emit = append_target
            else:
                node.emit = _step_emit(cols, new)
            for f in node.feeds:
                f.project = getter(tuple(keep.index(s) for s in f.slots))

    def affected_roots(self, sigs: Iterable[EdgeSig], u: Triple) -> list[TrieNode]:
        """The candidates of update ``u``, whose signatures are ``sigs``
        (answering Step 1): the roots ``rootInd`` holds under one of
        ``sigs`` and back-reference ``None`` (or ``0``, the self-loop roots,
        if ``u`` is a self-loop), and the nodes ``src_ind`` names for one
        of ``sigs`` and ``u.s``; in creation order, so ancestors first.  A
        new list, since ``src_ind`` grows while the update is answered.
        Valid once the forest is frozen."""
        roots, src_ind, src = self.roots, self.src_ind, u.s
        loop = src == u.o
        orders: list[int] = []
        for s in sigs:
            root = roots.get((s, None))
            if root is not None:
                orders.append(root.order)
            if loop:
                root = roots.get((s, 0))
                if root is not None:
                    orders.append(root.order)
            by_src = src_ind.get(s)
            if by_src:
                orders += by_src.get(src, ())
        orders.sort()
        nodes = self._nodes
        return [nodes[i] for i in orders]

    def add_sources(self, node: TrieNode, rows: list[Row]) -> None:
        """Register ``node``'s children in ``src_ind`` under each new-slot
        value of ``rows``, the rows just added to ``node``'s view, that is
        new to the view.  All children are registered under the same
        values, so the first child's entries tell which are new.

        An entry grows by tuple concatenation, which stays cheap: it holds
        at most the nodes of one signature (16 at most on the snb benchmark
        input)."""
        children = node.children.values()
        first = next(iter(children))
        col = first.probe[0]  # node's new slot, which every child probes
        src_ind = self.src_ind
        firsts, first_order = src_ind[first.sig], first.order
        for v in dict.fromkeys(r[col] for r in rows):
            if first_order in firsts.get(v, ()):
                continue
            for c in children:
                by_src = src_ind[c.sig]
                by_src[v] = by_src.get(v, ()) + (c.order,)

    def sources(self, sig: EdgeSig) -> dict[object, list[TrieNode]]:
        """``src_ind``'s entries for ``sig`` with their nodes resolved: each
        vertex to the nodes registered under it, in registration order."""
        nodes = self._nodes
        return {
            v: [nodes[i] for i in orders]
            for v, orders in self.src_ind.get(sig, {}).items()
        }

    def n_nodes(self) -> int:
        return len(self._nodes)

    def all_nodes(self) -> list[TrieNode]:
        """Every node, in creation order (ancestors first)."""
        return self._nodes
