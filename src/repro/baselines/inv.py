"""Algorithms INV / INV+ / INC / INC+ (paper §5.1–5.2).

Both index queries with inverted indexes at edge granularity (``edgeInd``:
signature → query ids, plus ``queryInd``: query id → the signature chains of
its covering paths) and keep one base materialized view per distinct edge
signature.  Neither clusters queries — shared paths across queries are
processed once *per query*.

* **INV**: per update, every affected query's covering paths are
  re-materialized **in full** by joining the base views left-to-right
  ("utilizes all tuples of each materialized view"), then the final
  cross-path join runs.  Nothing but the base views persists.
* **INC**: per update, only the update tuple is extended left/right along
  each affected path through the base views, yielding the path's *delta*
  ("makes use of only the update u_i"); per-(query, path) results persist in
  the query's assembler's canonical views.  Still no sharing across queries.
* Both end each affected query with the final join among all its paths,
  computed in full (§5.1 Step 3), and report the query when that join's
  row count grows (:meth:`~repro.engine.assembler.FullJoinAssembler.full_join`):
  one join per component, no delta join beside it.
* The ``+`` variants cache the hash-join build structures: base views and
  assembler views keep incrementally maintained hash indexes (§4.2 Caching).
"""
from __future__ import annotations

from abc import abstractmethod

from repro.engine.assembler import FullJoinAssembler
from repro.engine.base import MAX_ROWS, Engine, EngineOverflow
from repro.graph.covering import covering_paths
from repro.graph.model import EdgeSig, QueryPattern, Triple, update_sigs
from repro.relational.relation import Row, View, append_target, hash_join


class _InvertedBase(Engine):
    """Shared indexing phase and answering loop of INV and INC (§5.1–5.2);
    the engines differ only in how :meth:`_feed` materializes path rows."""

    def __init__(self, cached: bool, max_rows: int = MAX_ROWS):
        self.cached = cached
        self.max_rows = max_rows
        #: matV[e_i] per signature, shared across queries
        self.base: dict[EdgeSig, View] = {}
        #: edgeInd: signature -> query ids
        self.edge_ind: dict[EdgeSig, set[int]] = {}
        #: queryInd: qid -> per covering path, its signature chain
        self.query_ind: dict[int, list[tuple[EdgeSig, ...]]] = {}
        self.assemblers: dict[int, FullJoinAssembler] = {}

    def add_query(self, q: QueryPattern) -> None:
        self._check_indexing()
        q.validate()
        paths = covering_paths(q)
        self.query_ind[q.qid] = [p.chain for p in paths]
        for p in paths:
            for sig in p.chain:
                self.edge_ind.setdefault(sig, set()).add(q.qid)
                if sig not in self.base:
                    self.base[sig] = View(cached=self.cached)
        self.assemblers[q.qid] = FullJoinAssembler(q, paths, self.cached, self.max_rows)

    def process_update(self, u: Triple) -> list[int]:
        if not self.answering:
            self.end_indexing()
        sigs = [s for s in update_sigs(u) if s in self.base]
        if not sigs:
            return []
        row: Row = (u.s, u.o)
        if not any([self.base[sig].add(row) for sig in sigs]):
            return []  # repeated triple: no new edge, no new embedding
        sig_set = set(sigs)

        qids: set[int] = set()
        for s in sigs:
            qids.update(self.edge_ind[s])
        out: list[int] = []
        for qid in sorted(qids):
            asm = self.assemblers[qid]
            # Step 3: the final join among all paths, computed in full
            # (§5.1); it fires when its row count grows
            if self._feed(qid, asm, sig_set, row) and asm.full_join():
                out.append(qid)
        return out

    @abstractmethod
    def _feed(
        self, qid: int, asm: FullJoinAssembler, sig_set: set[EdgeSig], u_row: Row
    ) -> bool:
        """Feed query ``qid``'s path rows for this update to ``asm``; False
        skips the query's final join."""

    # -- answering helpers ---------------------------------------------
    def _guard(self, rows: list[Row], qid: int) -> None:
        if len(rows) > self.max_rows:
            raise EngineOverflow(
                f"{self.name}: Q{qid} path materialization exceeded {self.max_rows} rows"
            )

    def _extend_right(
        self, rows: list[Row], chain: tuple[EdgeSig, ...], start: int, qid: int
    ) -> list[Row]:
        """Extend ``rows`` (spanning slots ``0..start``) rightward along
        ``chain[start:]`` through the base views: last slot == base.s."""
        for i in range(start, len(chain)):
            rows = hash_join(rows, (i,), self.base[chain[i]], (0,), append_target)
            if not rows:
                return []
            self._guard(rows, qid)
        return rows


class InvEngine(_InvertedBase):
    """Algorithm INV (``cached=False``) / INV+ (``cached=True``)."""

    def __init__(self, cached: bool = False, max_rows: int = MAX_ROWS):
        super().__init__(cached, max_rows)
        self.name = "inv+" if cached else "inv"

    def _feed(self, qid, asm, sig_set, u_row) -> bool:
        chains = self.query_ind[qid]
        # Step 1: a query with an empty base view has no embedding
        if not all(len(self.base[s]) for chain in chains for s in chain):
            return False
        for pidx, chain in enumerate(chains):
            # full left-to-right materialization of the path from the
            # base views, recomputed on every update (INV's cost)
            rows = self._extend_right(self.base[chain[0]].rows, chain, 1, qid)
            asm.add_rows(pidx, rows)
        return True


class IncEngine(_InvertedBase):
    """Algorithm INC (``cached=False``) / INC+ (``cached=True``)."""

    def __init__(self, cached: bool = False, max_rows: int = MAX_ROWS):
        super().__init__(cached, max_rows)
        self.name = "inc+" if cached else "inc"

    def _feed(self, qid, asm, sig_set, u_row) -> bool:
        # INC differs from INV only inside the *path* joins (§5.2): each
        # position of the update's signature in a path seeds one delta
        chains = self.query_ind[qid]
        for pidx, chain in enumerate(chains):
            for k, sig in enumerate(chain):
                if sig in sig_set:
                    asm.add_rows(pidx, self._extend(chain, k, u_row, qid))
        return True

    def _extend(self, chain: tuple[EdgeSig, ...], k: int, u_row: Row, qid: int) -> list[Row]:
        """Extend the update tuple (at position ``k``) left and right along
        the path through the base views — INC's incremental join."""
        rows: list[Row] = [u_row]  # covers slots k, k+1
        for i in range(k - 1, -1, -1):  # leftward: base.o == first slot
            rows = hash_join(
                rows, (0,), self.base[chain[i]], (1,), lambda pr, br: (br[0],) + pr
            )
            if not rows:
                return []
            self._guard(rows, qid)
        return self._extend_right(rows, chain, k + 1, qid)
