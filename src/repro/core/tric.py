"""TRIC / TRIC+ — the paper's contribution (§4).

Indexing (§4.1): each query is decomposed into covering paths, which are
clustered into the :class:`~repro.core.trie.TrieForest`; shared path
prefixes across queries share trie nodes and therefore share materialized
views and join work.

Answering (§4.2): for update ``u``, the affected tries come from ``edgeInd``;
each is traversed top-down computing *delta* views semi-naively.  With
``last = parent.depth + 1`` and ``k = child.ref``:

    Δ(child) = Δ(parent) ⋈[last = s, k = o] base[child.sig]
             ∪ {pr + (u.o,) : pr ∈ old(parent), pr[last] = u.s, pr[k] = u.o}

(the second term only where the child's signature matches ``u``; the
``k`` conditions only where the child closes a cycle, ``k`` not ``None``,
and a root with ``k = 0`` takes ``u`` only if it is a self-loop).  So TRIC
closes a cycle in the trie step that reaches its repeated vertex, and its
views never hold an open walk of a cyclic path; INV and INC still leave the
closure to the assembler.  A node appends its delta to its view only after
its children have been processed, so while they read it the view *is*
``old(parent)`` and needs no "minus this update's delta" filter; a leaf's
delta goes to its registered queries alone.  This order, together with
every new row using the new triple's edge, is why trie views keep no
duplicate set: a delta row is absent from the view and derived once.
A child delta above ``max_rows`` rows raises
:class:`~repro.engine.base.EngineOverflow`.  Sub-tries with an empty delta
and no matching signature below are pruned.  Queries registered at nodes
that received deltas are assembled via the shared
:class:`~repro.engine.assembler.QueryAssembler` (final join across covering
paths).  ``cached=True`` gives TRIC+: all views keep their hash-join build
structures (indexes) incrementally instead of rebuilding them per join.
"""
from __future__ import annotations

from repro.engine.assembler import QueryAssembler
from repro.engine.base import Engine, EngineOverflow
from repro.core.trie import TrieForest, TrieNode
from repro.graph.covering import covering_paths
from repro.graph.model import EdgeSig, QueryPattern, Triple, update_sigs
from repro.relational.relation import COUNTERS, Row, View, append_target, hash_join


class TricEngine(Engine):
    """Algorithm TRIC (``cached=False``) / TRIC+ (``cached=True``)."""

    def __init__(self, cached: bool = False, max_rows: int = 2_000_000):
        self.cached = cached
        self.name = "tric+" if cached else "tric"
        self.max_rows = max_rows
        self.forest = TrieForest(cached)
        #: base materialized view per edge signature (matV[e_i], §4.1)
        self.base: dict[EdgeSig, View] = {}
        self.assemblers: dict[int, QueryAssembler] = {}

    # -- indexing phase -------------------------------------------------
    def add_query(self, q: QueryPattern) -> None:
        self._check_indexing()
        q.validate()
        paths = covering_paths(q)
        for pidx, p in enumerate(paths):
            self.forest.insert_path(q, pidx, p)
            for sig in p.sig_chain(q):
                if sig not in self.base:
                    self.base[sig] = View(cached=self.cached)
        self.assemblers[q.qid] = QueryAssembler(
            q, paths, self.cached, self.max_rows, fresh_rows=True
        )

    # -- answering phase ------------------------------------------------
    def process_update(self, u: Triple) -> list[int]:
        self.answering = True
        sigs = [s for s in update_sigs(u) if s in self.base]
        if not sigs:
            return []
        row: Row = (u.s, u.o)
        # update base views first: trie deltas join against base *including* u.
        # A repeated triple adds no edge and so no embedding; stopping here is
        # what lets the trie views skip duplicate checks.  (A list, not a
        # generator: every base view must take the row.)
        if not any([self.base[sig].add(row) for sig in sigs]):
            return []
        sig_set = set(sigs)

        loop = u.s == u.o
        affected: set[int] = set()
        for root in self.forest.affected_roots(sigs):
            hit = root.sig in sig_set and (root.ref is None or loop)
            self._descend(root, [row] if hit else [], sig_set, affected, row)
        return [qid for qid in sorted(affected) if self.assemblers[qid].finish_update()]

    def _descend(
        self,
        node: TrieNode,
        delta: list[Row],
        sig_set: set[EdgeSig],
        affected: set[int],
        u_row: Row,
    ) -> None:
        if delta and node.registered:
            for qid, pidx in node.registered:
                self.assemblers[qid].on_path_delta(pidx, delta)
                affected.add(qid)
        last = node.depth + 1
        for child in node.children.values():
            # pruning: nothing in this sub-trie can change
            if (
                not delta
                and child.sig not in sig_set
                and sig_set.isdisjoint(child.below_sigs)
            ):
                continue
            child_rows: list[Row] = []
            k = child.ref
            if delta:
                if k is None:
                    probe_key, build_key = (last,), (0,)
                else:
                    probe_key, build_key = (last, k), (0, 1)
                child_rows = hash_join(
                    delta, probe_key, self.base[child.sig], build_key, append_target
                )
            if child.sig in sig_set:
                # old(parent) ⋈ {u}: the parent's view, which takes this
                # update's delta only after this loop, filtered to rows
                # whose last slot equals u's source, and slot k u's target
                u_s, u_o = u_row
                idx = node.matv.index((last,))
                if idx is not None:
                    COUNTERS["probe_rows"] += 1
                    old = idx.get((u_s,))
                else:
                    # uncached: the build phase scans the whole parent view
                    # on every call (§4.2 Caching — this is what TRIC+ saves)
                    rows = node.matv.rows
                    COUNTERS["build_rows"] += len(rows)
                    old = [pr for pr in rows if pr[last] == u_s]
                child_rows += [pr + (u_o,) for pr in old if k is None or pr[k] == u_o]
            if len(child_rows) > self.max_rows:
                raise EngineOverflow(
                    f"{self.name}: trie delta at depth {child.depth} exceeded "
                    f"{self.max_rows} rows"
                )
            # a matching child whose delta is empty is entered only when a
            # signature below it matches
            if child_rows or not sig_set.isdisjoint(child.below_sigs):
                self._descend(child, child_rows, sig_set, affected, u_row)
        if delta and node.children:  # a leaf's view is never read
            node.matv.add_all(delta)
