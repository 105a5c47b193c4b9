"""Differential test: all seven engines against brute force on small random
streams and queries, one update at a time.

The generator draws from a tiny label alphabet so that the inputs which
break engines in practice are common rather than rare: duplicate triples,
self-loops, one edge signature at several trie depths, literal-only paths
(whose canonical rows project to ``()``), and query components that meet
only at a literal.  After every update each engine must report exactly the
queries whose embedding set grew, and TRIC's trie views must hold no
duplicate row (they keep no duplicate set; see ``TrieNode``).
"""
from hypothesis import given, settings, strategies as st

from repro.engine.base import ALGORITHMS, make_engine
from repro.graph.bruteforce import embeddings, first_match_index
from repro.graph.model import QueryPattern, Triple

LABELS = ("a", "b", "c")
PREDS = ("p", "q")

triples = st.builds(
    Triple, st.sampled_from(LABELS), st.sampled_from(PREDS), st.sampled_from(LABELS)
)


@st.composite
def streams(draw):
    """Random triples, with earlier ones drawn again to force duplicates."""
    out = draw(st.lists(triples, min_size=1, max_size=12))
    for pos in draw(st.lists(st.integers(0, 100), max_size=4)):
        out.insert(pos % (len(out) + 1), out[draw(st.integers(0, len(out) - 1))])
    return out


@st.composite
def queries(draw, qid):
    """A connected pattern: a random spanning tree plus extra edges, which
    may be self-loops; each vertex is a literal with a per-query chance, so
    some patterns are literal-only and some join only through a literal."""
    n = draw(st.integers(1, 4))
    literal_tenths = draw(st.sampled_from((0, 3, 6, 10)))
    vertices = [
        draw(st.sampled_from(LABELS)) if draw(st.integers(0, 9)) < literal_tenths else None
        for _ in range(n)
    ]
    vid = st.integers(0, n - 1)
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        pair = (u, v) if draw(st.booleans()) else (v, u)
        edges.append((pair[0], draw(st.sampled_from(PREDS)), pair[1]))
    for _ in range(draw(st.integers(0 if n > 1 else 1, 2))):
        edges.append((draw(vid), draw(st.sampled_from(PREDS)), draw(vid)))
    q = QueryPattern(qid=qid, vertices=vertices, edges=edges)
    q.validate()
    return q


@st.composite
def workloads(draw):
    qs = [draw(queries(qid)) for qid in range(draw(st.integers(1, 4)))]
    return qs, draw(streams())


def trie_views(engine):
    forest = getattr(engine, "forest", None)
    return [n.matv for n in forest.all_nodes()] if forest else []


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(workloads())
def test_engines_match_bruteforce(workload):
    qs, stream = workload
    engines = [make_engine(name) for name in ALGORITHMS]
    for e in engines:
        for q in qs:
            e.add_query(q)
    n_emb = {q.qid: 0 for q in qs}
    events = {e.name: [] for e in engines}
    for t, u in enumerate(stream):
        grew = []
        for q in qs:
            n = len(embeddings(q, stream[: t + 1]))
            if n > n_emb[q.qid]:
                grew.append(q.qid)
            n_emb[q.qid] = n
        for e in engines:
            got = e.process_update(u)
            assert sorted(got) == grew, (e.name, t, u)
            events[e.name].extend((t, qid) for qid in got)
            for v in trie_views(e):
                assert len(set(v.rows)) == len(v.rows), (e.name, t, u)
    for q in qs:
        expected = first_match_index(q, stream)
        for name, ev in events.items():
            assert min((t for t, qid in ev if qid == q.qid), default=None) == expected, name
