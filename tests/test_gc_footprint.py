"""The answering phase leaves no long-lived GC-tracked container per stored
key or per trie node.

CPython starts a full collection once the tracked objects that survived
young collections exceed a quarter of those that survived the last full
one, so every tracked container an update leaves behind brings the next
full pause closer.  The checks below are exact on any machine: they count
objects, not time.  The stream is ``tests/test_work_counters.py``'s pinned
300-update SNB stream with 30 queries.
"""
import gc

import pytest

from repro.bench.harness import build_workload
from repro.core.trie import TrieNode
from repro.engine.base import make_engine
from repro.engine.runner import index_queries, run_stream


@pytest.fixture(scope="module")
def engine():
    updates, queries = build_workload(
        "snb", 300, 30, seed=0, avg_len=5, selectivity=0.25, overlap=0.35
    )
    e = make_engine("tric+")
    index_queries(e, queries)
    r = run_stream(e, updates)
    assert not r.timed_out and len(r.events) == 51
    gc.collect()
    return e


def indexes(e):
    views = [n.matv for n in e.forest.all_nodes()] + list(e.base.values())
    views += [v for a in e.assemblers.values() for v in a.canon_views]
    return [idx for v in views for idx in v._indexes.values()]


def step(node: TrieNode):
    """What a node's emit computes from a parent row and a base row: the
    parent row's columns it carries and whether it appends the target.
    Carrying every column and appending is one step whatever the width."""
    parent_keep = node.parent.keep if node.parent is not None else (0,)
    cols = tuple(parent_keep.index(s) for s in node.keep if s <= node.depth)
    new = node.depth + 1 in node.keep
    if new and cols == tuple(range(len(parent_keep))):
        return "append"
    return cols, new


def test_single_row_buckets_are_untracked(engine):
    buckets = [b for idx in indexes(engine) for b in idx.buckets.values()]
    single = [b for b in buckets if len(b) == 1]
    assert single and len(single) < len(buckets)  # both kinds occur
    assert not any(gc.is_tracked(b) for b in single)


def test_src_ind_entries_are_untracked(engine):
    entries = [t for by_src in engine.forest.src_ind.values() for t in by_src.values()]
    assert entries
    assert not any(gc.is_tracked(t) for t in entries)


def test_nodes_with_one_step_share_one_emit(engine):
    nodes = engine.forest.all_nodes()
    emits = {id(n.emit) for n in nodes}
    assert len(emits) == len({step(n) for n in nodes}) < len(nodes)
