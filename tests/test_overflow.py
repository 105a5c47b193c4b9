"""Bounded failure: a row-cap overflow stops a run as a timeout, in every
engine, without a wrong or a missing event before it."""
import pytest

from repro.bench.harness import build_workload
from repro.engine.base import ALGORITHMS, make_engine
from repro.engine.runner import index_queries, run_stream

#: small enough that every engine overflows on the stream below
CAP = 150


@pytest.fixture(scope="module")
def workload():
    return build_workload("biogrid", n_updates=300, n_queries=30, seed=0)


def run(name, workload, **kw):
    updates, queries = workload
    e = make_engine(name, **kw)
    index_queries(e, queries)
    return run_stream(e, updates)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_overflow_is_a_timeout_with_the_events_before_it(workload, name):
    capped = run(name, workload, max_rows=CAP)
    n = len(workload[0])
    assert capped.timed_out and capped.processed < n
    assert capped.timeout_reason.startswith("overflow")
    full = run(name, workload)
    assert not full.timed_out
    assert capped.events == [ev for ev in full.events if ev[0] < capped.processed]


@pytest.mark.parametrize("name", ["tric", "tric+"])
def test_tric_descent_is_bounded(workload, name):
    """The cap reaches TRIC's trie descent, not only its final join."""
    capped = run(name, workload, max_rows=CAP)
    assert "trie delta" in capped.timeout_reason
