"""Differential test: all seven engines against brute force on small random
streams and queries, one update at a time.

The generator draws from a tiny label alphabet so that the inputs which
break engines in practice are common rather than rare: duplicate triples,
self-loops, one edge signature at several trie depths, literal-only paths
(whose canonical rows project to ``()``), and query components that meet
only at a literal.  After every update each engine must report exactly the
queries whose embedding set grew, and TRIC must hold only the state it
reads: every inner trie view equal, as a set, to the brute-force embeddings
of its root-to-node chain into the stream so far projected onto the node's
live slots (``TrieNode.keep``; the chain binds the slot a back-reference
names and the new slot to one vertex, so it encodes each cycle's closure),
no row in a leaf
trie view or in the canonical view of a path alone in its component, and
every other canonical view equal, as a set, to the one INC derives
projected onto the path's join variables, and one such view object shared
by exactly the covering paths ending at one trie node with the same join
slots.  Its routing index ``src_ind``
must register each non-root node under exactly the vertices its parent's
view holds at its new slot, and each feed must have armed, once, exactly
those of its paths whose join partners' views all hold rows.
"""
from hypothesis import given, settings, strategies as st

from repro.engine.base import ALGORITHMS, make_engine
from repro.graph.bruteforce import embeddings, first_match_index
from repro.graph.covering import covering_paths
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


def chain_embeddings(keys, triples):
    """Brute-force rows of a root-to-node chain of ``(sig, ref)`` trie keys:
    its embeddings into ``triples``, as slot tuples."""
    slot_vid = [0]
    vertices = [keys[0][0][1]]  # slot 0: the root signature's source literal or None
    edges = []
    for i, ((p, _, o_lit), ref) in enumerate(keys):
        if ref is None:
            slot_vid.append(len(vertices))
            vertices.append(o_lit)
        else:
            slot_vid.append(slot_vid[ref])
        edges.append((slot_vid[i], p, slot_vid[i + 1]))
    q = QueryPattern(qid=-1, vertices=vertices, edges=edges)
    return {tuple(b[v] for v in slot_vid) for b in embeddings(q, triples)}


def check_inner_views(node, keys, triples):
    keys = keys + [(node.sig, node.ref)]
    if node.children:
        want = {tuple(r[s] for s in node.keep) for r in chain_embeddings(keys, triples)}
        assert set(node.matv.rows) == want, (
            "an inner trie view differs from its chain's embeddings on its live slots"
        )
    else:
        assert not node.matv.rows, "a leaf view stored rows"
    for child in node.children.values():
        check_inner_views(child, keys, triples)


def check_src_ind(forest):
    """``src_ind`` is exact: every non-root node is registered, once within
    each list, under exactly the new-slot values of its parent's view, and
    no root is registered."""
    registered = {}
    for sig in forest.src_ind:
        for v, nodes in forest.sources(sig).items():
            assert len(set(nodes)) == len(nodes), "src_ind list repeats a node"
            for n in nodes:
                assert n.sig == sig and n.parent is not None
                registered.setdefault(n, set()).add(v)
    for node in forest.all_nodes():
        if node.parent is None:
            continue
        want = {r[node.probe[0]] for r in node.parent.matv.rows}
        got = registered.get(node, set())
        assert not want - got, "src_ind misses a parent vertex: a missed event"
        assert not got - want, "src_ind names a vertex the parent lacks: a wasted probe"


def check_tric_state(tric, inc, triples):
    for root in tric.forest.roots.values():
        check_inner_views(root, [], triples)
    check_src_ind(tric.forest)
    for qid, asm in tric.assemblers.items():
        full = inc.assemblers[qid]
        for pidx, v in enumerate(asm.canon_views):
            if len(asm.components[asm.path_comp[pidx]]) == 1:
                assert asm.path_vars[pidx] == ()
                assert not v.rows, "a lone path's canonical view stored rows"
            else:
                cols = [full.path_vars[pidx].index(x) for x in asm.path_vars[pidx]]
                want = {tuple(r[c] for c in cols) for r in full.canon_views[pidx].rows}
                assert set(v.rows) == want
    check_shared_canon_views(tric)
    check_armed(tric)


def check_armed(tric):
    """A feed's member is armed, once, iff every partner's canonical view
    holds rows: the descent hands deltas to armed members alone."""
    for node in tric.forest.all_nodes():
        for feed in node.feeds:
            assert len(set(feed.armed)) == len(feed.armed), "armed twice"
            for qid, pidx in feed.members:
                asm = tric.assemblers[qid]
                ready = all(asm.canon_views[j].rows for j in asm.partners[pidx])
                assert ((qid, pidx) in feed.armed) == ready, "armed iff partners hold rows"


def path_ends(tric):
    """Each trie node to the covering paths ending there, as ``(qid,
    pidx)`` in the order they were indexed, found by walking each path's
    ``chain`` and ``refs`` down from the forest's roots."""
    ends: dict[int, list] = {}  # id(node) -> [(qid, pidx)]
    for qid, asm in tric.assemblers.items():
        for pidx, p in enumerate(covering_paths(asm.q)):
            level = tric.forest.roots
            for key in zip(p.chain, p.refs):
                node = level[key]
                level = node.children
            ends.setdefault(id(node), []).append((qid, pidx))
    return ends


def check_shared_canon_views(tric):
    """Paths with join partners share a canonical view exactly when they
    end at one trie node with the same ``var_slots``; a node's feeds
    partition the paths ending there, one feed per ``var_slots``, and a
    feed's view is the canonical view of each member (for lone paths, whose
    feed has no slots, an empty one)."""
    groups: dict[int, tuple] = {}  # id(view) -> (node, var_slots)
    ends = path_ends(tric)
    for node in tric.forest.all_nodes():
        ending = ends.get(id(node), [])
        members = [m for feed in node.feeds for m in feed.members]
        assert sorted(members) == sorted(ending), "feeds do not partition"
        assert len(set(members)) == len(members)
        feed_slots = []
        for feed in node.feeds:
            slots = {tric.assemblers[qid].var_slots[pidx] for qid, pidx in feed.members}
            assert len(slots) == 1, "a feed mixes var_slots"
            feed_slots += slots
            for qid, pidx in feed.members:
                asm = tric.assemblers[qid]
                lone = len(asm.components[asm.path_comp[pidx]]) == 1
                assert lone == (feed.slots == ()), "join slots where none belong"
                assert asm.canon_views[pidx] is feed.view
                if lone:
                    assert not feed.view.rows, "a lone feed's view stored rows"
        assert len(set(feed_slots)) == len(feed_slots), "two feeds share var_slots"
        firsts = [ending.index(f.members[0]) for f in node.feeds]
        assert firsts == sorted(firsts), "feeds out of indexing order"
        linked = {}
        for qid, pidx in ending:
            asm = tric.assemblers[qid]
            if len(asm.components[asm.path_comp[pidx]]) == 1:
                continue
            slots, v = asm.var_slots[pidx], asm.canon_views[pidx]
            assert linked.setdefault(slots, v) is v
            assert groups.setdefault(id(v), (id(node), slots)) == (id(node), slots)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(workloads())
def test_engines_match_bruteforce(workload):
    qs, stream = workload
    engines = [make_engine(name) for name in ALGORITHMS]
    by_name = {e.name: e for e in engines}
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
        for name in ("tric", "tric+"):
            check_tric_state(by_name[name], by_name["inc"], stream[: t + 1])
    for q in qs:
        expected = first_match_index(q, stream)
        for name, ev in events.items():
            assert min((t for t, qid in ev if qid == q.qid), default=None) == expected, name
