"""Naive brute-force BGP matcher — an *independent* correctness oracle.

Deliberately written in the most obvious way (per-edge candidate scan +
consistency check, no indexes, no join ordering) so that it shares no code
with the engines under test.  Only usable for small graphs/tests.

One enumeration, ``_bindings``, serves all three entry points: it extends
partial bindings one query edge at a time over the distinct triples, and
keeps for each binding the earliest update index by which all of its
triples have arrived.
"""
from __future__ import annotations

from typing import Optional, Sequence

from repro.graph.model import QueryPattern, Triple


def _bindings(q: QueryPattern, stream: Sequence[Triple]) -> dict[tuple[str, ...], int]:
    """Every embedding of ``q`` into ``stream``, as a tuple over ``q``'s
    vertex ids (literal positions holding their literal), mapped to the
    earliest index ``t`` such that ``stream[:t+1]`` holds all its triples."""
    # arrival time of each distinct triple = its first occurrence
    arrival: dict[Triple, int] = {}
    for i, t in enumerate(stream):
        arrival.setdefault(t, i)
    # partial binding (sorted (vertex, term) items) -> earliest completion;
    # a binding reached in several ways keeps its earliest time
    binds: dict[tuple, int] = {(): -1}
    for s_vid, p, o_vid in q.edges:
        nxt: dict[tuple, int] = {}
        for items, tm in binds.items():
            b = dict(items)
            s_term = q.vertices[s_vid] if q.vertices[s_vid] is not None else b.get(s_vid)
            o_term = q.vertices[o_vid] if q.vertices[o_vid] is not None else b.get(o_vid)
            for t, at in arrival.items():
                if t.p != p:
                    continue
                if s_term is not None and s_term != t.s:
                    continue
                if o_term is not None and o_term != t.o:
                    continue
                if s_vid == o_vid and t.s != t.o:
                    continue  # a self-loop edge needs a self-loop triple
                nb = dict(b)
                nb[s_vid] = t.s
                nb[o_vid] = t.o
                key = tuple(sorted(nb.items()))
                ntm = max(tm, at)
                if ntm < nxt.get(key, ntm + 1):
                    nxt[key] = ntm
        binds = nxt
    vids = range(len(q.vertices))
    return {tuple(map(dict(items).__getitem__, vids)): tm for items, tm in binds.items()}


def embeddings(q: QueryPattern, triples: Sequence[Triple]) -> list[tuple[str, ...]]:
    """All homomorphic embeddings of ``q`` into ``triples``.

    Returns distinct bindings as tuples over ``q``'s vertex ids in order
    (literal positions included, holding their literal).
    """
    return sorted(_bindings(q, triples))


def is_satisfied(q: QueryPattern, triples: Sequence[Triple]) -> bool:
    """Whether ``q`` has at least one embedding in ``triples``."""
    return bool(_bindings(q, triples))


def first_match_index(q: QueryPattern, stream: Sequence[Triple]) -> Optional[int]:
    """Earliest update index ``t`` such that ``q`` is satisfied by
    ``stream[:t+1]`` — i.e. min over embeddings of the latest triple's
    arrival.  ``None`` if the query never matches.

    Computed from embeddings over the *final* graph with arrival times, which
    is equivalent because updates are additions only (monotone).
    """
    return min(_bindings(q, stream).values(), default=None)
