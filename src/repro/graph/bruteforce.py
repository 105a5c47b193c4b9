"""Naive brute-force BGP matcher — an *independent* correctness oracle.

Deliberately written in the most obvious way (per-edge candidate scan +
recursive consistency check, no indexes, no join ordering) so that it shares
no code with the engines under test.  Only usable for small graphs/tests.
"""
from __future__ import annotations

from typing import Optional, Sequence

from repro.graph.model import QueryPattern, Triple


def embeddings(q: QueryPattern, triples: Sequence[Triple]) -> list[tuple[str, ...]]:
    """All homomorphic embeddings of ``q`` into ``triples``.

    Returns distinct bindings as tuples over ``q``'s vertex ids in order
    (literal positions included, holding their literal).
    """
    binds: list[dict[int, str]] = [{}]
    for s_vid, p, o_vid in q.edges:
        nxt: dict[tuple, dict[int, str]] = {}
        for b in binds:
            for t in triples:
                if t.p != p:
                    continue
                s_term = q.vertices[s_vid] if q.vertices[s_vid] is not None else b.get(s_vid)
                o_term = q.vertices[o_vid] if q.vertices[o_vid] is not None else b.get(o_vid)
                if s_term is not None and s_term != t.s:
                    continue
                if o_term is not None and o_term != t.o:
                    continue
                if s_vid == o_vid and t.s != t.o:
                    continue  # a self-loop edge needs a self-loop triple
                nb = dict(b)
                nb[s_vid] = t.s
                nb[o_vid] = t.o
                nxt[tuple(sorted(nb.items()))] = nb  # dedup per step
        binds = list(nxt.values())
        if not binds:
            return []
    out = {tuple(b[v] for v in range(len(q.vertices))) for b in binds}
    return sorted(out)


def is_satisfied(q: QueryPattern, triples: Sequence[Triple]) -> bool:
    """Whether ``q`` has at least one embedding in ``triples``."""
    return bool(embeddings(q, triples))


def first_match_index(q: QueryPattern, stream: Sequence[Triple]) -> Optional[int]:
    """Earliest update index ``t`` such that ``q`` is satisfied by
    ``stream[:t+1]`` — i.e. min over embeddings of the latest triple's
    arrival.  ``None`` if the query never matches.

    Computed from embeddings over the *final* graph with arrival times, which
    is equivalent because updates are additions only (monotone).
    """
    # arrival time of each distinct triple = its first occurrence
    arrival: dict[Triple, int] = {}
    for i, t in enumerate(stream):
        arrival.setdefault(t, i)
    distinct = list(arrival)

    best: Optional[int] = None
    # Recompute embeddings but track the max arrival time used; dedup per
    # step keeping the *earliest* completion time per partial binding.
    binds: list[tuple[dict[int, str], int]] = [({}, -1)]
    for s_vid, p, o_vid in q.edges:
        nxt: dict[tuple, tuple[dict[int, str], int]] = {}
        for b, tm in binds:
            for t in distinct:
                if t.p != p:
                    continue
                s_term = q.vertices[s_vid] if q.vertices[s_vid] is not None else b.get(s_vid)
                o_term = q.vertices[o_vid] if q.vertices[o_vid] is not None else b.get(o_vid)
                if s_term is not None and s_term != t.s:
                    continue
                if o_term is not None and o_term != t.o:
                    continue
                if s_vid == o_vid and t.s != t.o:
                    continue  # a self-loop edge needs a self-loop triple
                nb = dict(b)
                nb[s_vid] = t.s
                nb[o_vid] = t.o
                ntm = max(tm, arrival[t])
                key = tuple(sorted(nb.items()))
                if key not in nxt or ntm < nxt[key][1]:
                    nxt[key] = (nb, ntm)
        binds = list(nxt.values())
        if not binds:
            return None
    # same binding can be produced at several times; keep the earliest
    per_bind: dict[tuple, int] = {}
    for b, tm in binds:
        key = tuple(b[v] for v in range(len(q.vertices)))
        if key not in per_bind or tm < per_bind[key]:
            per_bind[key] = tm
    best = min(per_bind.values())
    return best
