"""Common engine interface + factory for the seven evaluated algorithms."""
from __future__ import annotations

from abc import ABC, abstractmethod

from repro.graph.model import QueryPattern, Triple


class EngineOverflow(RuntimeError):
    """An engine blew past a safety row cap (treated as a timeout by the
    runner — the scaled-down analogue of the paper's 24 h threshold)."""


#: default ``max_rows`` of TRIC, INV, INC and the final joins (graphdb caps
#: its results at its own 500,000)
MAX_ROWS = 2_000_000


class Engine(ABC):
    """A continuous multi-query processing engine.

    Life cycle: ``add_query`` for every pattern (indexing phase), then
    :meth:`end_indexing`, then ``process_update`` once per stream update
    (answering phase); the return value lists the query ids with *new* full
    embeddings caused by the update.  ``process_update`` ends the indexing
    phase itself if it is still open, so calling :meth:`end_indexing` only
    moves its one-time cost (TRIC freezes its tries) out of the first
    update.  The phases do not interleave: TRIC, INV and INC keep state only
    for the signatures (TRIC: the inner trie nodes) indexed so far, so a
    query added later would silently miss the earlier updates.  So that all
    engines agree, ``add_query`` raises ``RuntimeError`` in every engine
    once the indexing phase has ended.

    Every engine bounds the rows one update may derive, with a cap named
    ``max_rows``: TRIC a trie delta and INV/INC a path's rows, the shared
    final join its intermediate results, graphdb a query's results.  Past
    the cap ``process_update`` raises :class:`EngineOverflow`
    (``run_stream`` reports a timeout).  An engine cannot be used after an
    overflow: the update that raised it is half-applied, so later events
    would be wrong.
    """

    name: str = "?"
    #: set by :meth:`end_indexing`: the indexing phase is over
    answering: bool = False

    def _check_indexing(self) -> None:
        if self.answering:
            raise RuntimeError(
                f"{self.name}: add_query after process_update or end_indexing; "
                "index every query before the indexing phase ends"
            )

    def end_indexing(self) -> None:
        """End the indexing phase; later calls do nothing."""
        self.answering = True

    @abstractmethod
    def add_query(self, q: QueryPattern) -> None: ...

    @abstractmethod
    def process_update(self, u: Triple) -> list[int]: ...


#: canonical algorithm order used in result tables (paper's naming)
ALGORITHMS = ["tric", "tric+", "inv", "inv+", "inc", "inc+", "graphdb"]


def make_engine(name: str, **kw) -> Engine:
    """Instantiate an engine by its paper name (``graphdb`` = Neo4j stand-in)."""
    from repro.baselines.graphdb import GraphDBEngine
    from repro.baselines.inv import IncEngine, InvEngine
    from repro.core.tric import TricEngine

    if name not in ALGORITHMS:
        raise ValueError(f"unknown engine {name!r}; pick one of {ALGORITHMS}")
    if name == "graphdb":
        return GraphDBEngine(**kw)
    engine = {"tric": TricEngine, "inv": InvEngine, "inc": IncEngine}[name.removesuffix("+")]
    return engine(cached=name.endswith("+"), **kw)
