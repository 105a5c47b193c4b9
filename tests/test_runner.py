"""Stream runner: timing, events, first-match, timeout & overflow handling."""
import time

import pytest

from repro.engine.base import Engine, EngineOverflow
from repro.engine.runner import RunResult, index_queries, run_stream
from repro.graph.model import QueryPattern, Triple


class FakeEngine(Engine):
    """Scripted engine for runner tests."""

    name = "fake"

    def __init__(self, matches=None, delay_s=0.0, overflow_at=None):
        self.matches = matches or {}
        self.delay_s = delay_s
        self.overflow_at = overflow_at
        self.seen = []
        self.queries = []

    def add_query(self, q):
        self.queries.append(q)

    def process_update(self, u):
        i = len(self.seen)
        self.seen.append(u)
        if self.overflow_at is not None and i == self.overflow_at:
            raise EngineOverflow("boom")
        if self.delay_s:
            time.sleep(self.delay_s)
        return self.matches.get(i, [])


UPDATES = [Triple(f"s{i}", "p", f"o{i}") for i in range(10)]


class TestRunStream:
    def test_processes_all_and_collects_events(self):
        e = FakeEngine(matches={2: [7], 5: [7, 8]})
        r = run_stream(e, UPDATES)
        assert r.processed == 10 and not r.timed_out
        assert r.events == [(2, 7), (5, 7), (5, 8)]

    def test_matched_and_first_match(self):
        r = run_stream(FakeEngine(matches={2: [7], 5: [7, 8]}), UPDATES)
        assert r.matched == {7, 8}
        assert r.first_match == {7: 2, 8: 5}

    def test_avg_ms(self):
        r = run_stream(FakeEngine(delay_s=0.002), UPDATES)
        assert 1.5 < r.avg_ms_per_update < 50

    def test_time_limit_stops_early(self):
        r = run_stream(FakeEngine(delay_s=0.05), UPDATES, time_limit_s=0.12)
        assert r.timed_out and r.processed < 10
        assert "time limit" in r.timeout_reason

    def test_overflow_is_timeout(self):
        r = run_stream(FakeEngine(overflow_at=3), UPDATES)
        assert r.timed_out and r.processed == 3
        assert "overflow" in r.timeout_reason

    def test_empty_stream(self):
        r = run_stream(FakeEngine(), [])
        assert r.processed == 0 and r.avg_ms_per_update != r.avg_ms_per_update  # NaN


class TestIndexQueries:
    def test_indexes_all_and_times(self):
        e = FakeEngine()
        qs = [
            QueryPattern(qid=i, vertices=[None, "x"], edges=[(0, "p", 1)])
            for i in range(5)
        ]
        secs = index_queries(e, qs)
        assert len(e.queries) == 5 and secs >= 0


class TestRunResult:
    def test_avg_nan_when_nothing_processed(self):
        r = RunResult("x", 0, 0, 0.0, False, "", [])
        assert r.avg_ms_per_update != r.avg_ms_per_update

    def test_first_match_keeps_earliest(self):
        r = RunResult("x", 5, 5, 1.0, False, "", [(4, 1), (2, 1), (3, 1)])
        assert r.first_match == {1: 2}
