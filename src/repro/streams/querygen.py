"""Continuous query-set generator (paper §6.1 "Query Set Configuration").

Shapes *chain*, *star*, *cycle* are drawn equiprobably; each query has
ℓ ± 1 edges.  The paper's two workload knobs are reproduced by
construction:

* **selectivity σ** — the fraction of queries that is eventually satisfied.
  A satisfiable query is *lifted* from a concrete walk/star/cycle of the
  final graph (the walk itself is an embedding, so satisfaction is
  guaranteed); an unsatisfiable query additionally swaps one literal vertex
  for a fresh phantom label that never occurs in the stream — it still loads
  the indexes through its other edges but can never match.
* **overlap o** — the probability that a chain query is seeded from a pool
  of previously generated lifted path fragments, so its covering-path
  signature prefix is shared verbatim with earlier queries (what TRIC's
  tries cluster on).

Vertices are lifted to variables with probability ``var_prob`` with at least
one literal anchor kept per query.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.model import QueryPattern, Triple

#: query shapes, drawn equiprobably
SHAPES = ("chain", "star", "cycle")
#: random walks tried per length before :func:`_walk` tries a shorter one
WALK_TRIES = 40


@dataclass
class _Adj:
    out: dict[str, list[tuple[str, str]]]  # s -> [(p, o)]
    inn: dict[str, list[tuple[str, str]]]  # o -> [(p, s)]
    sources: list[str]
    vertices: list[str]


def _adjacency(updates: list[Triple]) -> _Adj:
    out: dict[str, list[tuple[str, str]]] = {}
    inn: dict[str, list[tuple[str, str]]] = {}
    seen: set[tuple[str, str, str]] = set()
    for u in updates:
        k = (u.s, u.p, u.o)
        if k in seen:
            continue
        seen.add(k)
        out.setdefault(u.s, []).append((u.p, u.o))
        inn.setdefault(u.o, []).append((u.p, u.s))
    verts = sorted(set(out) | set(inn))
    return _Adj(out, inn, sorted(out), verts)


def _pick(rng: np.random.Generator, lst: list):
    return lst[rng.integers(len(lst))]


def _walk_from(rng, adj: _Adj, start: str, length: int) -> list[tuple[str, str, str]] | None:
    """Random directed walk of exactly ``length`` edges, or None."""
    triples = []
    cur = start
    for _ in range(length):
        nxt = adj.out.get(cur)
        if not nxt:
            return None
        p, o = _pick(rng, nxt)
        triples.append((cur, p, o))
        cur = o
    return triples


def _walk(rng, adj: _Adj, length: int) -> list[tuple[str, str, str]]:
    for want in range(length, 1, -1):
        for _ in range(WALK_TRIES):
            w = _walk_from(rng, adj, _pick(rng, adj.sources), want)
            if w is not None:
                return w
    # last resort: a single edge
    s = _pick(rng, adj.sources)
    p, o = _pick(rng, adj.out[s])
    return [(s, p, o)]


def _star(rng, adj: _Adj, length: int) -> list[tuple[str, str, str]] | None:
    """``length`` distinct edges incident to one center vertex (mixed dirs)."""
    for _ in range(60):
        c = _pick(rng, adj.vertices)
        inc = [(c, p, o) for p, o in adj.out.get(c, ())] + [
            (s, p, c) for p, s in adj.inn.get(c, ())
        ]
        inc = list(dict.fromkeys(inc))
        if len(inc) >= length:
            idx = rng.permutation(len(inc))[:length]
            return [inc[i] for i in idx]
    return None


def _cycle(rng, adj: _Adj, length: int) -> list[tuple[str, str, str]] | None:
    """A directed cycle, padded with a chain tail up to ``length`` edges."""
    for cyc_len in (length, 3, 2):
        if cyc_len > length:
            continue
        for _ in range(60):
            start = _pick(rng, adj.sources)
            w = _walk_from(rng, adj, start, cyc_len - 1)
            if w is None:
                continue
            last = w[-1][2]
            closing = [p for p, o in adj.out.get(last, ()) if o == start]
            if last != start and closing:
                cycle = w + [(last, _pick(rng, closing), start)]
                tail = length - cyc_len
                if tail > 0:
                    t = _walk_from(rng, adj, start, tail)
                    if t is None:
                        continue
                    cycle += t
                return cycle
    return None


def _lift(
    rng,
    triples: list[tuple[str, str, str]],
    var_prob: float,
    qid: int,
    fixed_terms: dict[str, str | None] | None = None,
) -> QueryPattern:
    """Concrete subgraph → pattern: dedup vertices by label, lift to vars."""
    labels = _labels(triples)
    vid = {lab: i for i, lab in enumerate(labels)}
    terms: list[str | None] = []
    for lab in labels:
        if fixed_terms is not None and lab in fixed_terms:
            terms.append(fixed_terms[lab])
        else:
            terms.append(None if rng.random() < var_prob else lab)
    if all(t is None for t in terms):  # keep >= 1 literal anchor
        keep = int(rng.integers(len(terms)))
        terms[keep] = labels[keep]
    edges = [(vid[s], p, vid[o]) for s, p, o in triples]
    return QueryPattern(qid=qid, vertices=terms, edges=edges)


def generate_queries(
    updates: list[Triple],
    n_queries: int,
    avg_len: int = 5,
    selectivity: float = 0.25,
    overlap: float = 0.35,
    var_prob: float = 0.5,
    seed: int = 0,
) -> list[QueryPattern]:
    """Generate the query database Q_DB against the stream's final graph."""
    rng = np.random.default_rng(seed)
    adj = _adjacency(updates)
    pool: list[tuple[list[tuple[str, str, str]], dict[str, str | None]]] = []
    queries: list[QueryPattern] = []
    for qid in range(n_queries):
        length = max(2, avg_len + int(rng.integers(-1, 2)))
        shape = SHAPES[rng.integers(len(SHAPES))]
        fixed: dict[str, str | None] | None = None
        triples: list[tuple[str, str, str]] | None = None
        if shape == "chain" and pool and rng.random() < overlap:
            frag, frag_terms = pool[rng.integers(len(pool))]
            ext = _walk_from(rng, adj, frag[-1][2], max(0, length - len(frag)))
            triples = frag + (ext or [])
            fixed = frag_terms
        elif shape == "star":
            triples = _star(rng, adj, length)
        elif shape == "cycle":
            triples = _cycle(rng, adj, length)
        if triples is None:  # shape not found in this graph → chain fallback
            shape = "chain"
            triples = _walk(rng, adj, length)
        q = _lift(rng, triples, var_prob, qid, fixed)
        satisfiable = rng.random() < selectivity
        if not satisfiable:
            lits = [i for i, t in enumerate(q.vertices) if t is not None]
            q.vertices[lits[int(rng.integers(len(lits)))]] = f"__phantom{qid}__"
        q.meta = {"shape": shape, "satisfiable": satisfiable, "len": len(triples)}
        q.validate()
        queries.append(q)
        # Pool only satisfiable chains: a pooled phantom literal would leak
        # unsatisfiability into later "satisfiable" queries and break σ.
        if shape == "chain" and satisfiable and len(triples) >= 2:
            k = max(2, (len(triples) + 1) // 2)
            frag = triples[:k]
            pool.append((frag, _frag_terms(frag, q)))
    return queries


def _labels(triples: list[tuple[str, str, str]]) -> list[str]:
    labels: list[str] = []
    seen: set[str] = set()
    for s, _, o in triples:
        for x in (s, o):
            if x not in seen:
                seen.add(x)
                labels.append(x)
    return labels


def _frag_terms(
    frag: list[tuple[str, str, str]], q: QueryPattern
) -> dict[str, str | None]:
    """Term assignment of the fragment's vertices as lifted in query ``q`` —
    reusing it verbatim is what makes overlapping queries share signatures."""
    # q's vertices were created in first-appearance order over its triples,
    # and frag is a prefix of those triples, so labels line up by order.
    out: dict[str, str | None] = {}
    for i, lab in enumerate(_labels(frag)):
        out[lab] = q.vertices[i] if i < len(q.vertices) else None
    return out
