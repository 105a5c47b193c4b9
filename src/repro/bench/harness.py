"""Shared harness for the per-table jobs.

Each evaluation artifact of the paper maps to one job in ``jobs/``, which
builds its table once (x-value × algorithm → answering time per update in
ms, as the paper reports), prints it with :func:`markdown_table` and saves
it under ``results/``, where ``jobs/fill_experiments.py`` renders it into
EXPERIMENTS.md.
"""
from __future__ import annotations

import gc
import json
import os
import re
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


def cell(m: dict) -> str:
    """One result cell: avg ms/update, ``0.201``, or ``10.172* @1975`` for a
    run that hit the time limit after answering 1975 updates."""
    v = f"{m['avg_ms_per_update']:.3f}"
    if m["timed_out"]:
        v += f"* @{m['processed']}"
    return v


def markdown_table(table: dict) -> str:
    """A job's ``table`` (``columns``, ``rows`` of strings, ``note``) as
    markdown, the note a paragraph below; ``|`` and ``*`` are escaped in
    every cell and the note, so a label like ``|G_E|=2000`` is one cell."""

    def esc(text: str) -> str:
        return re.sub(r"([|*])", r"\\\1", text)

    def line(cells: list[str]) -> str:
        return "|" + "|".join(f" {esc(c)} " if c else " " for c in cells) + "|"

    lines = [line(table["columns"]), "|" + "---|" * len(table["columns"])]
    lines += [line(r) for r in table["rows"]]
    if table["note"]:
        lines += ["", esc(table["note"])]
    return "\n".join(lines)


def save_results(payload: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=str)
