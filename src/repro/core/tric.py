"""TRIC / TRIC+ — the paper's contribution (§4).

Indexing (§4.1): each query is decomposed into covering paths, which are
clustered into the :class:`~repro.core.trie.TrieForest`; shared path
prefixes across queries share trie nodes and therefore share materialized
views and join work.

Answering (§4.2): update ``u`` enters the forest at its *entry nodes*,
which ``edgeInd`` gives (:meth:`~repro.core.trie.TrieForest.affected_roots`):
the nodes whose signature ``u`` satisfies and none of whose strict
ancestors' signatures it does.  A delta starts only where a signature
matches, so nothing above an entry node changes, and each entry's subtree
is traversed top-down computing *delta* views semi-naively.  On whole slot
rows, with ``last = parent.depth + 1`` and ``k = child.ref``:

    Δ(child) = Δ(parent) ⋈[last = s, k = o] base[child.sig]
             ∪ {pr + (u.o,) : pr ∈ old(parent), pr[last] = u.s, pr[k] = u.o}

(the second term only where the child's signature matches ``u``; the
``k`` conditions only where the child closes a cycle, ``k`` not ``None``,
and a root with ``k = 0`` takes ``u`` only if it is a self-loop).  An entry
node's parent gets no delta, so its delta is the second term alone, or
``u``'s row at a root; one helper, :meth:`TricEngine._delta`, computes a
node's delta for the entries and inside the traversal.  So TRIC
closes a cycle in the trie step that reaches its repeated vertex; INV and
INC still leave the closure to the assembler.  Rows hold only each node's
live slots (:attr:`~repro.core.trie.TrieNode.keep`, fixed when the first
update freezes the trie): ``probe`` finds ``last`` and ``k`` in the
parent's row, and ``emit`` builds the child's row from a parent row and a
base row, for ``u`` too.  Projections of distinct embeddings can coincide,
so each child delta is de-duplicated within the update, but never against
the child's view: a new embedding whose projection is already stored must
still reach its descendants and queries.  A node appends its delta to its
view (the rows it does not hold) only after its children have been
processed, so while they read it the view *is* ``old(parent)`` and needs no
"minus this update's delta" filter; a leaf's delta goes to its registered
queries alone.
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
from repro.relational.relation import COUNTERS, Row, View, hash_join


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
            q, paths, self.cached, self.max_rows, projected=True
        )

    # -- answering phase ------------------------------------------------
    def _freeze(self) -> None:
        """End the indexing phase: fix every trie node's live slots, and
        tell each assembler which slots its path's rows carry."""
        self.answering = True
        self.forest.freeze(lambda qid, pidx: self.assemblers[qid].var_slots[pidx])
        for node in self.forest.all_nodes():
            for qid, pidx in node.registered:
                self.assemblers[qid].bind_columns(pidx, node.keep)

    def process_update(self, u: Triple) -> list[int]:
        if not self.answering:
            self._freeze()
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
        sig_set = set(sigs)

        loop = u.s == u.o
        affected: set[int] = set()
        for node in self.forest.affected_roots(sigs):
            parent = node.parent
            if parent is None:
                delta = [node.emit(row[:1], row)] if node.ref is None or loop else []
            else:
                # no ancestor matches u, so Δ(parent) is empty
                delta = self._delta(parent, node, [], sig_set, row)
            if delta or not sig_set.isdisjoint(node.below_sigs):
                self._descend(node, delta, sig_set, affected, row)
        return [qid for qid in sorted(affected) if self.assemblers[qid].finish_update()]

    def _delta(
        self,
        node: TrieNode,
        child: TrieNode,
        delta: list[Row],
        sig_set: set[EdgeSig],
        u_row: Row,
    ) -> list[Row]:
        """Δ(child) from ``delta`` = Δ(node), de-duplicated: ``delta ⋈
        base[child.sig]``, plus ``old(node) ⋈ {u}`` if ``child``'s
        signature matches ``u``."""
        sig = child.sig
        probe, k = child.probe, child.ref
        child_rows: list[Row] = []
        if delta:
            build_key = (0,) if k is None else (0, 1)
            child_rows = hash_join(delta, probe, self.base[sig], build_key, child.emit)
        if sig in sig_set:
            # old(node) ⋈ {u}: node's view, which takes this update's delta
            # only after its children have read it, filtered to rows whose
            # last slot equals u's source, and slot k u's target
            u_s, u_o = u_row
            last = probe[0]
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
        sig_set: set[EdgeSig],
        affected: set[int],
        u_row: Row,
    ) -> None:
        if delta and node.registered:
            for qid, pidx in node.registered:
                self.assemblers[qid].on_path_delta(pidx, delta)
                affected.add(qid)
        for child in node.children.values():
            # pruning: nothing in this sub-trie can change
            if not delta and child.sig not in sig_set and sig_set.isdisjoint(child.below_sigs):
                continue
            child_rows = self._delta(node, child, delta, sig_set, u_row)
            # a matching child whose delta is empty is entered only when a
            # signature below it matches
            if child_rows or not sig_set.isdisjoint(child.below_sigs):
                self._descend(child, child_rows, sig_set, affected, u_row)
        if delta and node.children:  # a leaf's view is never read
            node.matv.add_all(delta)
