"""The benchmark's contract with the program.

``perfbench/tracing.py`` wraps engine entry points by module, class and
attribute name, ``perfbench/replay.py`` reads engine state by attribute
name, and ``perfbench/reference.py`` computes the events every run must
equal.  A refactor that renames or moves one of them, or makes the
reference disagree with TRIC, must fail here, not only when the benchmark
runs.
"""
import inspect
import json
import pickle
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.bench.harness import build_workload
from repro.core.tric import TricEngine
from repro.engine.base import make_engine
from repro.engine.runner import index_queries, run_stream

_PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
_PATH = list(sys.path)
sys.path.insert(0, _PERFBENCH)
try:
    import reference
    import replay
    import tracing
finally:
    sys.path[:] = _PATH  # reference.py and replay.py add entries on import


def test_every_target_resolves():
    for module, cls, attr, _ in tracing.TARGETS:
        owner = tracing._owner(module, cls)
        # methods are patched on the class that defines them
        fn = owner.__dict__.get(attr) if cls else getattr(owner, attr, None)
        assert callable(fn), f"{module}.{cls or ''}.{attr} not found"


def test_every_target_records_spans():
    """A traced uncached-TRIC run calls every target under the name the
    tracer wraps, so a refactor that keeps a name but stops calling it
    fails here.  The one exception is ``relation.hash_join``: ``tric``,
    ``assembler`` and ``inv`` bind ``hash_join`` at import, so no caller
    looks it up on its own module."""
    updates, queries = build_workload("snb", 300, 30, seed=0)
    rec = tracing.Recorder()
    rec.install()
    try:
        engine = TricEngine(cached=False)
        index_queries(engine, queries)
        run_stream(engine, updates)
    finally:
        rec.uninstall()
    spans = Counter(rec.names[i] for i in rec.span_name)
    idle = [name for *_, name in tracing.TARGETS if not spans[name]]
    assert [name for name in idle if name != "join.hash_join"] == []


def test_install_then_uninstall_leaves_no_wrapper():
    rec = tracing.Recorder()
    try:
        rec.install()
        assert len(tracing.active_wrappers()) == len(tracing.TARGETS)
    finally:
        rec.uninstall()
    assert tracing.active_wrappers() == []


def test_descend_useful_tally_reads_the_delta(monkeypatch):
    """``tracing`` counts a ``_descend`` call as useful from its third
    positional argument; that argument must be the delta.  The engine
    enters a node only with a non-empty delta, so the test adds one call
    with an empty delta."""
    descend = TricEngine.__dict__["_descend"]
    sig = inspect.signature(descend)
    seen = {"calls": 0, "useful": 0}

    def counting(*args, **kwargs):
        seen["calls"] += 1
        seen["useful"] += bool(sig.bind(*args, **kwargs).arguments["delta"])
        if seen["calls"] == 1:
            # inside an update's span, through the tracing wrapper; an empty
            # delta changes no state
            TricEngine._descend(args[0], args[1], [], set(), set(), ("x", "y"))
        return descend(*args, **kwargs)

    monkeypatch.setattr(TricEngine, "_descend", counting)
    updates, queries = build_workload("snb", 200, 20, seed=0)
    rec = tracing.Recorder()
    rec.install()
    try:
        engine = TricEngine(cached=True)
        index_queries(engine, queries)
        answer_from = len(rec.span_name)
        res = run_stream(engine, updates)
    finally:
        rec.uninstall()
    layers = tracing.layer_metrics(rec, res.elapsed_s, res.elapsed_s, answer_from)
    assert 0 < seen["useful"] < seen["calls"]
    assert layers["core.tric.descend_calls"] == seen["calls"]
    assert layers["core.tric.descend_useful"] == seen["useful"]
    assert layers["trace.stray_spans"] == 0


@pytest.mark.parametrize("name", ["tric", "tric+"])
def test_replay_state_reads(name):
    """``replay.state_rows`` and ``replay.route_hits`` read the trie's nodes
    and views, the base views, the assemblers' canonical views and the
    views' indexes; only TRIC+ keeps indexes."""
    updates, queries = build_workload("snb", 200, 20, seed=0)
    engine = make_engine(name)
    index_queries(engine, queries)
    run_stream(engine, updates)
    rows = replay.state_rows(engine)
    assert sorted(rows) == ["base_rows", "canon_rows", "index_rows", "trie_rows"]
    assert all(type(n) is int for n in rows.values())
    assert rows["trie_rows"] > 0 and rows["base_rows"] > 0 and rows["canon_rows"] > 0
    assert (rows["index_rows"] > 0) is engine.cached
    hits = replay.route_hits(engine, updates)
    assert type(hits) is int and 0 < hits < len(updates)


def test_reference_matches_tric(tmp_path, monkeypatch):
    """The benchmark's correctness gate: ``reference.py`` replays a pickled
    workload through graphdb and writes sorted events, which must equal
    tric+'s."""
    updates, queries = build_workload("snb", 300, 30, seed=0)
    path, out = tmp_path / "input.pkl", tmp_path / "events.json"
    with open(path, "wb") as f:
        pickle.dump((updates, queries), f)
    monkeypatch.setattr(sys, "argv", ["reference.py", "--input", str(path), "--out", str(out)])
    assert reference.main() == 0
    engine = make_engine("tric+")
    index_queries(engine, queries)
    res = run_stream(engine, updates)
    assert res.processed == len(updates) and res.events
    assert json.loads(out.read_text()) == [list(e) for e in sorted(res.events)]
