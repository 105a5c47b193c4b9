"""Stream runner: indexing-phase and answering-phase timing, with the
paper's execution-time threshold (their 24 h cap, scaled to seconds here).
An engine that exceeds the wall-clock cap or a row-cap (:class:`EngineOverflow`)
is reported as *timed out at* |G_E| = processed, mirroring the asterisks in
the paper's plots (Figs. 13(f), 14, 16)."""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.engine.base import Engine, EngineOverflow
from repro.graph.model import QueryPattern, Triple


@dataclass
class RunResult:
    """Outcome of streaming one update sequence through one engine."""

    engine: str
    processed: int
    total_updates: int
    elapsed_s: float
    timed_out: bool
    timeout_reason: str
    events: list[tuple[int, int]] = field(default_factory=list)  # (t, qid)

    @property
    def avg_ms_per_update(self) -> float:
        """The paper's headline metric: answering time per update (ms)."""
        return (self.elapsed_s * 1000.0 / self.processed) if self.processed else float("nan")

    @property
    def matched(self) -> set[int]:
        return {q for _, q in self.events}

    @property
    def first_match(self) -> dict[int, int]:
        fm: dict[int, int] = {}
        for t, q in self.events:
            if q not in fm or t < fm[q]:
                fm[q] = t
        return fm


def index_queries(engine: Engine, queries: Iterable[QueryPattern]) -> float:
    """The whole indexing phase: ``add_query`` for each of ``queries``, then
    :meth:`~repro.engine.base.Engine.end_indexing`, after which the engine
    takes no more queries; returns elapsed wall-clock seconds."""
    t0 = time.perf_counter()
    for q in queries:
        engine.add_query(q)
    engine.end_indexing()
    return time.perf_counter() - t0


def run_stream(
    engine: Engine,
    updates: Sequence[Triple],
    time_limit_s: Optional[float] = None,
) -> RunResult:
    """Feed ``updates`` in order; only engine time is accounted.

    ``time_limit_s`` is checked between updates (an engine cannot be
    interrupted mid-update, exactly as the paper's threshold works on whole
    runs); :class:`EngineOverflow` also counts as a timeout.
    """
    events: list[tuple[int, int]] = []
    elapsed = 0.0
    processed = 0
    timed_out = False
    reason = ""
    for i, u in enumerate(updates):
        t0 = time.perf_counter()
        try:
            matched = engine.process_update(u)
        except EngineOverflow as e:
            elapsed += time.perf_counter() - t0
            timed_out, reason = True, f"overflow: {e}"
            break
        elapsed += time.perf_counter() - t0
        processed = i + 1
        if matched:
            events.extend((i, q) for q in matched)
        if time_limit_s is not None and elapsed > time_limit_s:
            timed_out = processed < len(updates)
            reason = f"time limit {time_limit_s}s" if timed_out else ""
            break
    return RunResult(
        engine=engine.name,
        processed=processed,
        total_updates=len(updates),
        elapsed_s=elapsed,
        timed_out=timed_out,
        timeout_reason=reason,
        events=events,
    )
