"""Neo4j-style graph database baseline (paper §5.3).

The paper extends embedded Neo4j with auxiliary structures: queries are
translated to Cypher, an inverted edge index (``edgeInd``) finds the queries
affected by an update, "the appropriate parameters are set", and the
affected queries are executed.  We reproduce that behavioural profile with
an in-memory substitute since no Neo4j is available offline:

* an indexed triple store (label indexes on ``p``, ``(p, s)``, ``(p, o)`` —
  the paper's "indexes on all labels of the schema");
* a backtracking pattern executor (Neo4j's expand-based runtime) with a
  greedy selectivity-ordered join plan; queries are validated as
  connected, so every step expands from a vertex already bound and no step
  scans a whole label;
* *parameterized* execution: for every pattern edge the update can bind, the
  query runs with that edge's endpoints bound to the update — which is both
  what the paper's parameter syntax does and why Neo4j beats INV/INC: the
  search is anchored at the new edge instead of re-joining full views;
* a per-(query, anchor) **plan cache**, the paper's parameter-syntax plan
  caching.

Every returned embedding uses the (new) update edge, so all results are new
— the same delta semantics as the other engines.  Unlike TRIC there is no
shared or incremental state across queries: each affected query searches the
whole stored graph, so cost grows with graph size and fan-out.
"""
from __future__ import annotations

import time

from repro.engine.base import Engine, EngineOverflow
from repro.graph.model import QueryPattern, Triple, update_sigs


class GraphDBEngine(Engine):
    """The Neo4j stand-in ("graphdb" in result tables).

    ``exec_latency_us`` simulates the per-invocation floor cost of an
    embedded Cypher call (transaction scope, operator-tree instantiation,
    result streaming) that the raw Python search below does not have.
    Embedded parameterized reads cost on the order of 100 µs on the paper's
    hardware; the default 50 µs is deliberately conservative (favourable to
    Neo4j).  Result rows are additionally materialized for real (one dict
    per row, as a driver would return), so cost grows with result sizes and
    graph size as it does for the real system.  Set ``exec_latency_us=0``
    to benchmark the raw search instead; correctness is unaffected either
    way.  See DESIGN.md §5 (dataset/comparator substitutions).

    An execution is anchored at a pattern edge whose signature the update
    satisfies, so its literals agree with the update, and extends only
    from bound vertices, since ``add_query`` validates queries as connected.
    """

    name = "graphdb"

    def __init__(self, max_rows: int = 500_000, exec_latency_us: float = 50.0):
        self.max_rows = max_rows
        self.exec_latency_s = exec_latency_us * 1e-6
        # --- the stored graph + label indexes ---
        self.triples: set[tuple[str, str, str]] = set()
        self.by_p: dict[str, list[tuple[str, str]]] = {}
        self.by_ps: dict[tuple[str, str], list[str]] = {}
        self.by_po: dict[tuple[str, str], list[str]] = {}
        # --- query layer ---
        self.queries: dict[int, QueryPattern] = {}
        self.edge_ind: dict[tuple, set[int]] = {}
        self.plan_cache: dict[tuple[int, int], list[int]] = {}

    # -- indexing phase -------------------------------------------------
    def add_query(self, q: QueryPattern) -> None:
        self._check_indexing()
        q.validate()
        self.queries[q.qid] = q
        for i in range(len(q.edges)):
            self.edge_ind.setdefault(q.edge_sig(i), set()).add(q.qid)

    # -- answering phase ------------------------------------------------
    def _insert(self, u: Triple) -> bool:
        t = (u.s, u.p, u.o)
        if t in self.triples:
            return False
        self.triples.add(t)
        self.by_p.setdefault(u.p, []).append((u.s, u.o))
        self.by_ps.setdefault((u.p, u.s), []).append(u.o)
        self.by_po.setdefault((u.p, u.o), []).append(u.s)
        return True

    def process_update(self, u: Triple) -> list[int]:
        if not self.answering:
            self.end_indexing()
        if not self._insert(u):
            return []
        sigs = update_sigs(u)
        qids: set[int] = set()
        for sig in sigs:
            qids.update(self.edge_ind.get(sig, ()))
        out: list[int] = []
        for qid in sorted(qids):
            q = self.queries[qid]
            # Neo4j runs the parameterized query once per bindable position
            # and returns *all* rows — no existence early-exit.
            found = False
            for eidx in range(len(q.edges)):
                if q.edge_sig(eidx) in sigs:
                    found |= self._execute(q, eidx, u) > 0
            if found:
                out.append(qid)
        return out

    # -- executor -------------------------------------------------------
    def _plan(self, q: QueryPattern, anchor: int) -> list[int]:
        """Greedy selectivity-ordered, connectivity-respecting order of the
        non-anchor edges; cached per (query, anchor)."""
        key = (q.qid, anchor)
        plan = self.plan_cache.get(key)
        if plan is not None:
            return plan
        remaining = set(range(len(q.edges))) - {anchor}
        bound = {q.edges[anchor][0], q.edges[anchor][2]}
        plan = []
        while remaining:
            # the query is connected: some remaining edge touches a bound vertex
            cands = [e for e in remaining if q.edges[e][0] in bound or q.edges[e][2] in bound]
            e = min(cands, key=lambda e: (self._est(q, e, bound), e))
            plan.append(e)
            bound.update((q.edges[e][0], q.edges[e][2]))
            remaining.discard(e)
        self.plan_cache[key] = plan
        return plan

    def _est(self, q: QueryPattern, eidx: int, bound: set[int]) -> int:
        """Cardinality estimate of a pattern edge with a bound or literal end."""
        s, p, o = q.edges[eidx]
        s_fixed = q.vertices[s] is not None or s in bound
        o_fixed = q.vertices[o] is not None or o in bound
        if s_fixed and o_fixed:
            return 1
        if s_fixed and q.vertices[s] is not None:
            return len(self.by_ps.get((p, q.vertices[s]), ()))
        if o_fixed and q.vertices[o] is not None:
            return len(self.by_po.get((p, q.vertices[o]), ()))
        n = len(self.by_p.get(p, ()))
        keys = len(self.by_ps) if s_fixed else len(self.by_po)
        return max(1, n // max(1, keys))

    def _execute(self, q: QueryPattern, anchor: int, u: Triple) -> int:
        """Run ``q`` with edge ``anchor`` bound to the update (parameterized
        execution), enumerating all embeddings; returns their count."""
        t0 = time.perf_counter()
        s_a, _, o_a = q.edges[anchor]
        # bind anchor endpoints to the update (literal agreement is implied
        # by the signature match, but the same *variable* may be both ends)
        if s_a == o_a and u.s != u.o:
            return 0
        binding: dict[int, str] = {
            i: t for i, t in enumerate(q.vertices) if t is not None
        }
        rows: list[dict[str, str]] = []  # materialized result records
        binding[s_a] = u.s
        binding[o_a] = u.o
        plan = self._plan(q, anchor)
        n_results = 0

        def rec(step: int) -> None:
            nonlocal n_results
            if step == len(plan):
                n_results += 1
                if n_results > self.max_rows:
                    raise EngineOverflow(
                        f"graphdb: Q{q.qid} returned > {self.max_rows} rows"
                    )
                # materialize the record as a driver would return it
                rows.append({f"v{i}": v for i, v in binding.items()})
                return
            # the plan extends only from bound vertices: bs or bo is set
            s, p, o = q.edges[plan[step]]
            bs, bo = binding.get(s), binding.get(o)
            if bs is not None and bo is not None:
                if (bs, p, bo) in self.triples:
                    rec(step + 1)
                return
            if bs is not None:
                for cand in self.by_ps.get((p, bs), ()):
                    binding[o] = cand
                    rec(step + 1)
                binding.pop(o, None)
                return
            for cand in self.by_po.get((p, bo), ()):
                binding[s] = cand
                rec(step + 1)
            binding.pop(s, None)

        try:
            rec(0)
        finally:
            # rec refers to itself through its closure cell: clear the cell
            # so this call's records are freed now, not by the cyclic GC
            del rec
        # per-invocation latency floor of the embedded runtime (see class doc)
        deadline = t0 + self.exec_latency_s
        while time.perf_counter() < deadline:
            pass
        return n_results
