"""TRIC / TRIC+ — the paper's contribution (§4).

Indexing (§4.1): each query is decomposed into covering paths, which are
clustered by their ``chain`` and ``refs`` into the
:class:`~repro.core.trie.TrieForest`; shared path prefixes across queries
share trie nodes and therefore share materialized views and join work.
:meth:`TricEngine.add_query` indexes each path completely, base views
and feeds included, so ending the indexing phase only freezes the trie.
It is the one place that wires the trie to the final join: it puts each
path in a feed of the node the path ends at, which arms a lone path
there at once and makes any other path's query wait on the feed, and
gives the query's assembler that feed's view as the path's canonical
view.

Answering (§4.2): each trie node's delta is computed top-down,
semi-naively.  On whole slot rows, with ``last = parent.depth + 1`` and
``k = child.ref``:

    Δ(child) = Δ(parent) ⋈[last = s, k = o] base[child.sig]
             ∪ {pr + (u.o,) : pr ∈ old(parent), pr[last] = u.s, pr[k] = u.o}

(the ``k`` conditions only where the child closes a cycle, ``k`` not
``None``; a root's delta is ``u``'s row).  The second term, ``u``'s own,
can be non-empty only at the update's *candidates*
(:meth:`~repro.core.trie.TrieForest.affected_roots`): the roots whose
signature ``u`` satisfies (a root with ``k = 0`` only if ``u`` is a
self-loop), and the nodes whose signature ``u`` satisfies and whose
parent's view holds ``u.s`` at its new slot, which the forest's
``src_ind`` names.  So every root candidate's delta is ``u``'s row.  They
come in creation order, so ancestors first.  A candidate that no earlier
descent has reached is an *entry*: its parent got no delta in this update
(a delta there would have come from an ancestor candidate, whose descent
reaches this one), so its delta is ``old(parent) ⋈ {u}`` alone.
Below an entry, :meth:`TricEngine._descend` enters a child only with a
non-empty delta, and adds ``u``'s term only at a child that is a
candidate, which it marks reached.  One helper,
:meth:`TricEngine._delta`, computes a node's delta for the entries and
inside the descent.  So TRIC closes a cycle in the trie step that reaches
its repeated vertex; INV and INC still leave the closure to their
:class:`~repro.engine.assembler.FullJoinAssembler`.  Rows hold only each node's live slots
(:attr:`~repro.core.trie.TrieNode.keep`, fixed when
:meth:`TricEngine.end_indexing` freezes the trie, at the latest in the
first update): ``probe`` finds ``last`` and ``k`` in the parent's row,
and ``emit`` builds the child's row from a parent row and a base row, for
``u`` too.  Projections of distinct embeddings can coincide, so each child
delta is de-duplicated within the update, but never against the child's
view: a new embedding whose projection is already stored must still reach
its descendants and queries.  A node appends its delta to its view (the
rows it does not hold) only after its children have been processed, so
while they read it the view *is* ``old(parent)`` and needs no "minus this
update's delta" filter; a leaf's delta goes to its feeds alone.  After
the append, the node's children are registered in ``src_ind`` under each
new-slot value that is new to the view.
Base views take ``u`` before any descent, so a child whose base view
(:attr:`~repro.core.trie.TrieNode.base`) is empty has a signature ``u``
lacks: it is no candidate, its ``Δ(parent) ⋈ base`` is empty, and the
descent skips it without a join.
A child delta above ``max_rows`` rows raises
:class:`~repro.engine.base.EngineOverflow`.  A node's delta goes to the
:class:`~repro.engine.assembler.QueryAssembler` (TRIC's final join across
covering paths) of each path ending there, which joins it at once with
the path's partners' views as they stand: a partner whose delta arrives
later joins against this path's new rows.  Only a query whose assembler's
join found a row is finished after the descent.  The paths ending at
one node that read the same join slots form one
:class:`~repro.core.trie.Feed`, which owns the canonical view they share:
the descent projects and de-duplicates the node's delta once per feed,
stores it in the feed's view unless the feed's paths are lone (no join
slot, so nothing is stored), then hands the projections to each armed
member's assembler.  A member's delta cannot join while a partner's view
is empty, so until then it is not handed one; when a feed's view takes
its first rows, the feed arms the paths of the queries waiting on it
whose partners all hold rows (:meth:`~repro.core.trie.Feed.wake`) before
its own members are handed the delta, since partners can share one feed.
``cached=True`` gives TRIC+: all views
keep their hash-join build structures (indexes) incrementally instead of
rebuilding them per join, so ``u``'s term, which reads the rows of the
parent's view whose new slot is ``u.s``
(:meth:`~repro.relational.relation.View.where`), probes an index where
TRIC scans the view.  Both variants route through the same indexes.
"""
from __future__ import annotations

from typing import Optional

from repro.engine.assembler import QueryAssembler
from repro.engine.base import MAX_ROWS, Engine, EngineOverflow
from repro.core.trie import Feed, TrieForest, TrieNode
from repro.graph.covering import covering_paths
from repro.graph.model import QueryPattern, Triple, update_sigs
from repro.relational.relation import Row, hash_join


class TricEngine(Engine):
    """Algorithm TRIC (``cached=False``) / TRIC+ (``cached=True``)."""

    def __init__(self, cached: bool = False, max_rows: int = MAX_ROWS):
        self.cached = cached
        self.name = "tric+" if cached else "tric"
        self.max_rows = max_rows
        self.forest = TrieForest(cached)
        self.base = self.forest.base  # matV[e_i] per edge signature (§4.1)
        self.assemblers: dict[int, QueryAssembler] = {}

    # -- indexing phase -------------------------------------------------
    def add_query(self, q: QueryPattern) -> None:
        self._check_indexing()
        q.validate()
        paths = covering_paths(q)
        asm = QueryAssembler(q, paths, self.max_rows)
        self.assemblers[q.qid] = asm
        forest = self.forest
        feeds: list[Feed] = []
        waiter = (q.qid, feeds, asm.partners)
        for pidx, p in enumerate(paths):
            node = forest.insert_path(p.chain, p.refs)
            feed = forest.join_feed(node, asm.var_slots[pidx], (q.qid, pidx), waiter)
            asm.canon_views.append(feed.view)
            feeds.append(feed)

    # -- answering phase ------------------------------------------------
    def end_indexing(self) -> None:
        """End the indexing phase: freeze the trie, which fixes every
        node's live slots, its step and the projection each of its feeds
        reads.  Later calls do nothing."""
        if self.answering:
            return
        self.answering = True
        self.forest.freeze()

    def process_update(self, u: Triple) -> list[int]:
        if not self.answering:
            self.end_indexing()
        sigs = [s for s in update_sigs(u) if s in self.base]
        if not sigs:
            return []
        row: Row = (u.s, u.o)
        # update base views first: trie deltas join against base *including* u.
        # A repeated triple adds no edge and so no embedding; stopping here
        # means every delta row stands for an embedding new with u.  (A
        # list, not a generator: every base view must take the row.)
        if not any([self.base[sig].add(row) for sig in sigs]):
            return []
        cands = self.forest.affected_roots(sigs, u)
        pending = set(cands)  # candidates not reached yet (never iterated)
        affected: set[int] = set()
        for node in cands:
            if node not in pending:
                continue  # reached inside an ancestor's descent
            parent = node.parent
            if parent is None:
                delta = [node.emit(row[:1], row)]
            else:
                # no descent reached the node, so Δ(parent) is empty
                delta = self._delta(parent, node, [], row)
            if delta:
                self._descend(node, delta, pending, affected, row)
        return [qid for qid in sorted(affected) if self.assemblers[qid].finish_update()]

    def _delta(
        self,
        node: TrieNode,
        child: TrieNode,
        delta: list[Row],
        u_row: Optional[Row],
    ) -> list[Row]:
        """Δ(child) from ``delta`` = Δ(node), de-duplicated: ``delta ⋈
        base[child.sig]``, plus ``old(node) ⋈ {u}`` if ``u_row``, ``u``'s
        row, is given (``child`` is a candidate)."""
        probe, k = child.probe, child.ref
        child_rows: list[Row] = []
        if delta:
            build_key = (0,) if k is None else (0, 1)
            child_rows = hash_join(delta, probe, child.base, build_key, child.emit)
        if u_row is not None:
            # old(node) ⋈ {u}: node's view, which takes this update's delta
            # only after its children have read it, filtered to rows whose
            # last slot equals u's source, and slot k u's target
            u_s, u_o = u_row
            old = node.matv.where(probe[0], u_s)
            if k is not None:
                kc = probe[1]
                old = [pr for pr in old if pr[kc] == u_o]
            emit = child.emit
            child_rows += [emit(pr, u_row) for pr in old]
        n = len(child_rows)
        if n > self.max_rows:
            raise EngineOverflow(
                f"{self.name}: trie delta at depth {child.depth} exceeded "
                f"{self.max_rows} rows"
            )
        # the two terms, and rows that differ only in dropped slots, can
        # yield one projection more than once
        if n > 1:
            child_rows = list(dict.fromkeys(child_rows))
        return child_rows

    def _descend(
        self,
        node: TrieNode,
        delta: list[Row],
        pending: set[TrieNode],
        affected: set[int],
        u_row: Row,
    ) -> None:
        assemblers = self.assemblers
        for feed in node.feeds:
            project = feed.project
            new = [project(r) for r in delta]
            if len(new) > 1:
                new = list(dict.fromkeys(new))
            if feed.slots:
                view = feed.view
                first = not view.rows
                view.add_all(new)
                if first:
                    # before this feed's members: a partner can share it
                    feed.wake()
            for qid, pidx in feed.armed:
                if assemblers[qid].on_path_delta(pidx, new):
                    affected.add(qid)
        if not node.children:  # a leaf's view is never read
            return
        for child in node.children.values():
            if not child.base.rows:
                continue  # u lacks child's signature: an empty join, no u-term
            if child in pending:
                pending.discard(child)
                child_rows = self._delta(node, child, delta, u_row)
            else:
                child_rows = self._delta(node, child, delta, None)
            if child_rows:
                self._descend(child, child_rows, pending, affected, u_row)
        new = node.matv.add_all(delta)
        if new:
            self.forest.add_sources(node, new)
