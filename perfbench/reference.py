"""Reference events of one workload input, run in a fresh process.

    python3 perfbench/reference.py --input INPUT.pkl --out EVENTS.json

Replays the input through ``GraphDBEngine(exec_latency_us=0)`` — an engine
that shares no trie, view, join or assembler code with TRIC — and writes its
sorted ``(t, qid)`` events.  Exits non-zero if the engine cannot finish.
"""
from __future__ import annotations

import argparse
import json
import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines.graphdb import GraphDBEngine  # noqa: E402
from repro.engine.runner import run_stream  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(args.input, "rb") as f:
        updates, queries = pickle.load(f)
    engine = GraphDBEngine(exec_latency_us=0)
    for q in queries:
        engine.add_query(q)
    res = run_stream(engine, updates)
    if res.timed_out or res.processed != len(updates):
        print(f"reference failed: {res.timeout_reason}", file=sys.stderr)
        return 1
    with open(args.out, "w") as f:
        json.dump(sorted(res.events), f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
