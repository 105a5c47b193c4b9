"""Join work pinned on one small fixed workload.

Timing is noisy; the join counters (``build_rows``, ``probe_rows``,
``out_rows``) are exact on any machine.  The numbers below are what each
engine does on a 300-update SNB stream with 30 queries.  A change that
alters the join work of an engine fails here deterministically: a rise is
a work regression, a fall must be explained and the numbers updated.  The
same holds for TRIC's trie walk, counted as ``TricEngine._descend`` calls,
for INV and INC's final join, counted as ``FullJoinAssembler._join`` calls,
and for graphdb's parameterized executions and the result rows they return.
"""
import pytest

from repro.baselines.graphdb import GraphDBEngine
from repro.bench.harness import build_workload
from repro.core.tric import TricEngine
from repro.engine.assembler import FullJoinAssembler
from repro.engine.base import make_engine
from repro.engine.runner import index_queries, run_stream
from repro.relational.relation import COUNTERS, reset_counters

#: engine -> (build_rows, probe_rows, out_rows, events)
EXPECTED = {
    "tric": (10145, 714, 778, 51),
    "tric+": (0, 928, 778, 51),
    "inv": (4622, 21681, 26503, 51),
    "inv+": (0, 21681, 26503, 51),
    "inc": (26855, 4329, 3552, 51),
    "inc+": (0, 4329, 3552, 51),
}

#: engine -> ``TricEngine._descend`` calls over the stream
DESCEND_CALLS = {"tric": 867, "tric+": 867}

#: graphdb -> (events, ``_execute`` calls, result rows over all calls)
GRAPHDB_WORK = (51, 1870, 613)


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        "snb", 300, 30, seed=0, avg_len=5, selectivity=0.25, overlap=0.35
    )


@pytest.mark.parametrize("name", list(EXPECTED))
def test_join_work_is_pinned(workload, name):
    updates, queries = workload
    e = make_engine(name)
    index_queries(e, queries)
    reset_counters()
    r = run_stream(e, updates)
    assert not r.timed_out and r.processed == len(updates)
    got = (
        COUNTERS["build_rows"],
        COUNTERS["probe_rows"],
        COUNTERS["out_rows"],
        len(r.events),
    )
    assert got == EXPECTED[name]


@pytest.mark.parametrize("name", list(DESCEND_CALLS))
def test_trie_walk_is_pinned(workload, name, monkeypatch):
    updates, queries = workload
    e = make_engine(name)
    index_queries(e, queries)
    descend = TricEngine._descend
    calls = 0

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return descend(self, *args)

    monkeypatch.setattr(TricEngine, "_descend", counting)
    r = run_stream(e, updates)
    assert not r.timed_out and len(r.events) == EXPECTED[name][3]
    assert calls == DESCEND_CALLS[name]


@pytest.mark.parametrize("name", ["inv", "inv+", "inc", "inc+"])
def test_one_final_join_per_component(workload, name, monkeypatch):
    """INV and INC join each variable-connected component once per query
    that ``_feed`` accepts: the full final join decides the event, with no
    delta join beside it."""
    updates, queries = workload
    e = make_engine(name)
    index_queries(e, queries)
    feed, join = type(e)._feed, FullJoinAssembler._join
    expected = calls = 0

    def counting_feed(self, qid, asm, *args):
        nonlocal expected
        accepted = feed(self, qid, asm, *args)
        if accepted:
            expected += len(asm.components)
        return accepted

    def counting_join(self, *args):
        nonlocal calls
        calls += 1
        return join(self, *args)

    monkeypatch.setattr(type(e), "_feed", counting_feed)
    monkeypatch.setattr(FullJoinAssembler, "_join", counting_join)
    r = run_stream(e, updates)
    assert not r.timed_out and len(r.events) == EXPECTED[name][3]
    assert expected > 0 and calls == expected


def test_graphdb_work_is_pinned(workload, monkeypatch):
    """graphdb runs one anchored execution per (affected query, edge whose
    signature the update satisfies) and materializes every result row."""
    updates, queries = workload
    e = GraphDBEngine(exec_latency_us=0)
    index_queries(e, queries)
    execute = GraphDBEngine._execute
    calls = rows = 0

    def counting(self, *args):
        nonlocal calls, rows
        n = execute(self, *args)
        calls += 1
        rows += n
        return n

    monkeypatch.setattr(GraphDBEngine, "_execute", counting)
    r = run_stream(e, updates)
    assert not r.timed_out and r.processed == len(updates)
    assert (len(r.events), calls, rows) == GRAPHDB_WORK
