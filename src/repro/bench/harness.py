"""Shared harness for the per-table jobs.

Each evaluation artifact of the paper maps to one job in ``jobs/`` (prints
the same rows the paper reports: x-value × algorithm → answering time per
update in ms, with "timeout at |G_E| = X" markers).  Results are also
dumped as JSON under ``results/`` so EXPERIMENTS.md can diff paper vs
measured.
"""
from __future__ import annotations

import gc
import json
import os
import tracemalloc
from typing import Optional, Sequence

from repro.engine.base import make_engine
from repro.engine.runner import RunResult, index_queries, run_stream
from repro.graph.model import QueryPattern, Triple
from repro.streams.datasets import DATASETS
from repro.streams.querygen import generate_queries

#: variable-lifting probability per dataset.  NYC/BioGRID queries
#: are more literal-anchored (concrete zones / proteins, as in the paper's
#: workloads); 0.5 on the hub-heavy graphs explodes every engine's views.
VAR_PROB = {"snb": 0.5, "nyc": 0.35, "biogrid": 0.35}


def build_workload(
    dataset: str = "snb",
    n_updates: int = 3000,
    n_queries: int = 300,
    avg_len: int = 5,
    selectivity: float = 0.25,
    overlap: float = 0.35,
    seed: int = 0,
) -> tuple[list[Triple], list[QueryPattern]]:
    """Deterministic (stream, query set) pair for one experiment config."""
    updates = DATASETS[dataset](n_updates, seed=seed)
    queries = generate_queries(
        updates,
        n_queries,
        avg_len=avg_len,
        selectivity=selectivity,
        overlap=overlap,
        var_prob=VAR_PROB[dataset],
        seed=seed + 1,
    )
    return updates, queries


def run_algorithms(
    updates: Sequence[Triple],
    queries: Sequence[QueryPattern],
    algos: Sequence[str],
    time_limit_s: Optional[float] = None,
) -> dict[str, dict]:
    """Index + stream each algorithm on a fresh engine; returns per-algo
    metrics (the paper's answering / indexing time and timeout markers)."""
    out: dict[str, dict] = {}
    for name in algos:
        engine = make_engine(name)
        idx_s = index_queries(engine, queries)
        res: RunResult = run_stream(engine, updates, time_limit_s=time_limit_s)
        out[name] = {
            "engine": name,
            "index_s": idx_s,
            "avg_ms_per_update": res.avg_ms_per_update,
            "elapsed_s": res.elapsed_s,
            "processed": res.processed,
            "total_updates": res.total_updates,
            "timed_out": res.timed_out,
            "timeout_reason": res.timeout_reason,
            "n_matched": len(res.matched),
        }
    return out


def measure_memory(
    name: str,
    updates: Sequence[Triple],
    queries: Sequence[QueryPattern],
    max_updates: Optional[int] = None,
) -> int:
    """Resident tracemalloc bytes held after indexing + answering the first
    ``max_updates`` updates (all of them if ``None``) — the analogue of
    Table 1's resident MB (peak would be dominated by the uncached variants'
    *transient* build tables, which the paper's resident measurement does
    not see).

    The cap is an update count, not a wall-clock limit, so every engine
    measured on the same prefix holds the state of the same stream; an
    engine that overflows before the prefix ends raises ``RuntimeError``
    rather than report memory at less work.  An untraced warm-up (indexing
    and the first update) and a collection before the reading make a cell
    independent of what ran before it in the process.
    """
    prefix = updates[:max_updates]
    # one-time allocations (lazy imports, caches) must not count toward the
    # first call in a process, nor uncollected cycles toward any call
    warm = make_engine(name)
    index_queries(warm, queries)
    run_stream(warm, prefix[:1])
    del warm
    gc.collect()
    tracemalloc.start()
    try:
        engine = make_engine(name)
        index_queries(engine, queries)
        res = run_stream(engine, prefix)
        res.events.clear()  # the run's output, not the engine's state
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        del engine
        tracemalloc.stop()
    if res.timed_out:
        raise RuntimeError(
            f"{name}: {res.timeout_reason} after {res.processed} of {len(prefix)} updates"
        )
    return current


def fmt_table(title: str, rows: list[dict], columns: list[str]) -> str:
    """Fixed-width text table in the style of the paper's reported rows."""
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    lines = [title, "-" * len(title)]
    lines.append("  ".join(c.ljust(widths[c]) for c in columns))
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


#: decimals of a result cell's ms/update
CELL_DIGITS = 3


def cell(m: dict) -> str:
    """One result cell: avg ms/update, with the paper's timeout asterisk."""
    v = f"{m['avg_ms_per_update']:.{CELL_DIGITS}f}"
    if m["timed_out"]:
        v += f"* (timeout at |G_E|={m['processed']})"
    return v


def save_results(payload: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=str)
