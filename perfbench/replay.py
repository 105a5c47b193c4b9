"""One measured replay of a workload input, run in a fresh process.

    python3 perfbench/replay.py --input INPUT.pkl --engine tric+ \
        --mode timed|traced|setup --out RESULT.json [--spans SPANS.npz]

``setup`` only times engine construction plus ``add_query`` over the query
database.  ``timed`` replays the stream with no instrumentation, timing each
``process_update`` call (closed loop: the next update is sent when the
previous call returns).  ``traced`` installs the span wrappers of
:mod:`tracing`, replays through ``repro.engine.runner.run_stream`` and
reports per-layer metrics.  ``setup`` and ``timed`` take host-speed samples
(:mod:`hostspeed`) between engine calls, outside the timed calls.  The
replay modes collect garbage before each timed phase, record the work
counters, the event stream and the engine's state sizes, and write one JSON
result.
"""
from __future__ import annotations

import argparse
import gc
import json
import pickle
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.engine.base import EngineOverflow, make_engine  # noqa: E402
from repro.graph.model import update_sigs  # noqa: E402
from repro.relational.relation import COUNTERS, reset_counters  # noqa: E402

import tracing  # noqa: E402
from hostspeed import Probe  # noqa: E402

#: answering cap per replay; updates left when it is hit count as failed
CAP_S = 60.0
#: engine seconds between host-speed samples during set-up, which is short
SETUP_PROBE_EVERY_S = 0.01


def state_rows(engine) -> dict[str, int]:
    """Row counts held by a TRIC engine after its run."""
    views = [n.matv for n in engine.forest.all_nodes()]
    base = list(engine.base.values())
    canon = [v for a in engine.assemblers.values() for v in a.canon_views]
    return {
        "trie_rows": sum(len(v) for v in views),
        "base_rows": sum(len(v) for v in base),
        "canon_rows": sum(len(v) for v in canon),
        "index_rows": sum(
            len(idx) for v in views + base + canon for idx in v._indexes.values()
        ),
    }


def route_hits(engine, updates) -> int:
    """Updates with at least one indexed signature."""
    return sum(1 for u in updates if any(s in engine.base for s in update_sigs(u)))


def setup(engine_name: str, queries, probe: Probe | None = None):
    """Engine construction plus ``add_query`` over Q_DB; returns (engine, s).
    With a ``probe``, host-speed samples are taken between ``add_query``
    calls, outside the timed calls."""
    gc.collect()
    clock = time.perf_counter
    t0 = clock()
    engine = make_engine(engine_name)
    took = clock() - t0
    for q in queries:
        t0 = clock()
        engine.add_query(q)
        t1 = clock()
        took += t1 - t0
        if probe is not None:
            probe.tick(t1 - t0)
    return engine, took


def replay_timed(engine, updates) -> dict:
    """Replay ``updates`` one call at a time; host-speed samples are taken
    between calls, outside the timed calls."""
    reset_counters()
    gc.collect()
    lat: list[float] = []
    events: list[tuple[int, int]] = []
    overflow = ""
    probe = Probe()
    answer_s = 0.0
    clock = time.perf_counter
    with tracing.GcClock() as gcc:
        for i, u in enumerate(updates):
            t0 = clock()
            try:
                matched = engine.process_update(u)
            except EngineOverflow as e:
                overflow = str(e)
                break
            took = clock() - t0
            lat.append(took)
            answer_s += took
            if matched:
                events.extend((i, q) for q in matched)
            probe.tick(took)
            if answer_s > CAP_S:
                break
    return {
        "answer_s": answer_s,
        "slowdown": probe.slowdown(),
        "probe_s": probe.samples,
        "probe_at": probe.at,
        "latencies_s": lat,
        "processed": len(lat),
        "overflow": overflow,
        "events": events,
        "gc": {"s": gcc.total_s, "max_pause_s": gcc.max_s, "gen2": gcc.gen2},
    }


def replay_traced(engine_name: str, queries, updates, spans: str):
    from repro.engine.runner import run_stream

    rec = tracing.Recorder()
    rec.install()
    try:
        engine, setup_s = setup(engine_name, queries)
        nodes = engine.forest.n_nodes()
        reset_counters()
        gc.collect()
        answer_from = len(rec.span_name)
        t0 = time.perf_counter()
        res = run_stream(engine, updates, time_limit_s=CAP_S)
        run_stream_s = time.perf_counter() - t0
    finally:
        rec.uninstall()
    out = {
        "setup_s": setup_s,
        "answer_s": run_stream_s,
        "processed": res.processed,
        "overflow": res.timeout_reason if res.timeout_reason.startswith("overflow") else "",
        "events": res.events,
        "layers": tracing.layer_metrics(rec, run_stream_s, res.elapsed_s, answer_from),
        "nodes": nodes,
    }
    if spans:
        rec.save(spans)
    return out, engine


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--engine", required=True)
    ap.add_argument("--mode", choices=["timed", "traced", "setup"], required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    with open(args.input, "rb") as f:
        updates, queries = pickle.load(f)
    if args.mode == "setup":
        tracing.assert_clean()
        probe = Probe(SETUP_PROBE_EVERY_S)
        _, setup_s = setup(args.engine, queries, probe)
        with open(args.out, "w") as f:
            json.dump({"mode": "setup", "setup_s": setup_s,
                       "setup_slowdown": probe.slowdown()}, f)
        return 0
    if args.mode == "timed":
        tracing.assert_clean()
        probe = Probe(SETUP_PROBE_EVERY_S)
        engine, setup_s = setup(args.engine, queries, probe)
        out = replay_timed(engine, updates)
        out["setup_s"] = setup_s
        out["setup_slowdown"] = probe.slowdown()
        tracing.assert_clean()
    else:
        out, engine = replay_traced(args.engine, queries, updates, args.spans)
    out["mode"] = args.mode
    # ru_maxrss is KiB on Linux; read before any post-run bookkeeping
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["counters"] = dict(COUNTERS)
    out["state"] = state_rows(engine)
    out["route_hits"] = route_hits(engine, updates[: out["processed"]])
    with open(args.out, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
