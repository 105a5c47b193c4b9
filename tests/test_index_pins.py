"""Indexed structure pinned on one small fixed workload.

Indexing has to build the same structure whatever code path produces it:
the same covering paths give the same tries, base views and final joins.
Events and join counters (``tests/test_work_counters.py``) would show a
changed structure only through its effect on answering, so this file pins
the structure itself, right after the last ``add_query``, on the same
30-query SNB workload, and TRIC's frozen layout after ``end_indexing``.
Long values are pinned by the SHA-256 digest of their ``repr``; on a
mismatch, print the value to see what moved.
"""
import hashlib

import pytest

from repro.bench.harness import build_workload
from repro.engine.base import make_engine

#: TRIC and TRIC+: trie nodes, and digests of ``base``'s keys in insertion
#: order, of every node's feeds as (members, whether the feed stores no
#: view) in creation order, and of every node's (parent's creation index,
#: signature, back-reference)
TRIE = (
    155,
    "0982ff2be28ff851",
    "526cc68c87866a3e",
    "70d70d155db9d071",
)

#: TRIC and TRIC+ after ``end_indexing``: digests of every node's (live
#: slots, probe columns) and of its feeds as (members, whether the feed
#: stores no view), both in creation order
FROZEN = ("666b95bc22ab2f9b", "526cc68c87866a3e")

#: INV and INC: digests of ``base``'s keys in insertion order and of
#: ``query_ind``
INVERTED = ("0982ff2be28ff851", "efb8e4a9424fec15")


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def queries():
    _, qs = build_workload(
        "snb", 300, 30, seed=0, avg_len=5, selectivity=0.25, overlap=0.35
    )
    return qs


def indexed(name, queries):
    e = make_engine(name)
    for q in queries:
        e.add_query(q)
    return e


@pytest.mark.parametrize("name", ["tric", "tric+"])
def test_trie_structure_is_pinned(queries, name):
    e = indexed(name, queries)
    nodes = e.forest.all_nodes()
    got = (
        e.forest.n_nodes(),
        digest(list(e.base)),
        digest([[(f.members, f.slots == ()) for f in n.feeds] for n in nodes]),
        digest([
            (None if n.parent is None else n.parent.order, n.sig, n.ref)
            for n in nodes
        ]),
    )
    assert got == TRIE


@pytest.mark.parametrize("name", ["tric", "tric+"])
def test_frozen_layout_is_pinned(queries, name):
    e = indexed(name, queries)
    e.end_indexing()
    nodes = e.forest.all_nodes()
    got = (
        digest([(n.keep, n.probe) for n in nodes]),
        digest([[(f.members, f.slots == ()) for f in n.feeds] for n in nodes]),
    )
    assert got == FROZEN


@pytest.mark.parametrize("name", ["inv", "inv+", "inc", "inc+"])
def test_inverted_structure_is_pinned(queries, name):
    e = indexed(name, queries)
    got = (digest(list(e.base)), digest(e.query_ind))
    assert got == INVERTED
