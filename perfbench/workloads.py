"""Workload definitions and seeded input generation for the benchmark.

A workload fixes a final graph and a query database: the repository's
generators (``repro.bench.harness.build_workload``) run once with the
workload's ``BASE_SEED``.  The run's ``--seed`` draws one arrival order of
that stream, which every replay of the run repeats.  It keeps the
generator's causal order: the
stream is cut into windows of ``WINDOW`` consecutive updates, and within a
window only updates that share no vertex may trade places (a random
topological order of the window's "earlier update on the same vertex"
relation).  So a post's ``posted`` still precedes its ``containedIn`` and
every ``replyOf`` to it, a protein's edges keep their preferential-attachment
order, and a duplicate triple still arrives after its first copy; the seed
only reorders concurrent, unrelated activity.

Why the seed does not redraw the graph and the queries: engine cost is
heavy-tailed in the generated instance (one query lifted onto a hub can
cost more than all others together).  Redrawing them moved the answering
time of one workload by up to 20x between seeds (BioGRID-lite, 1000
updates, 30 queries: 0.10 s to 2.2 s), far beyond any bound a regression
gate could use.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


#: generator seed of every workload's graph and query database
BASE_SEED = 0
#: the paper's default query knobs: average length l, selectivity s, overlap o
KNOBS = {"avg_len": 5, "selectivity": 0.25, "overlap": 0.35}
#: updates per reordering window
WINDOW = 32


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    engine: str
    n_updates: int
    n_queries: int
    #: replays of the input per 10 s of ``--seconds`` in an untraced run
    replays: int = 4
    #: the traced run also runs the input through
    #: ``spark_ops.matcher.match_updates`` (the ``spark_ops.*`` metrics)
    spark: bool = False

    def params(self) -> dict:
        return {
            "dataset": self.dataset,
            "engine": self.engine,
            "n_updates": self.n_updates,
            "n_queries": self.n_queries,
            "replays": self.replays,
            "base_seed": BASE_SEED,
            "window": WINDOW,
            **KNOBS,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "snb",
            "paper baseline (l=5, s=25%, o=35%): selective updates split time "
            "across routing, trie descent, probe joins and view inserts; its "
            "traced run adds the Spark operator",
            dataset="snb", engine="tric+", n_updates=3000, n_queries=400,
            replays=5, spark=True,
        ),
        Workload(
            "biogrid",
            "one predicate: every update reaches every trie, so view "
            "maintenance and the duplicate-row path dominate and routing idles",
            dataset="biogrid", engine="tric+", n_updates=1000, n_queries=80,
            replays=6,
        ),
        Workload(
            "snb-tric",
            "the snb input run by uncached tric: the only workload on the "
            "relational build path, so slower View writes or builds show here",
            dataset="snb", engine="tric", n_updates=3000, n_queries=300,
        ),
    )
}

#: sizes used by the self-test (every code path, a few seconds per run)
TINY = dict(n_updates=300, n_queries=30)


def causal_reorder(updates: list, rng: np.random.Generator, window: int = WINDOW) -> list:
    """``updates`` with each window of ``window`` consecutive updates put in a
    random order that keeps every two updates sharing a vertex in their
    original order."""
    out = []
    for lo in range(0, len(updates), window):
        block = updates[lo : lo + window]
        waiting = [0] * len(block)
        after: list[list[int]] = [[] for _ in block]
        for j, u in enumerate(block):
            for i in range(j):
                if block[i].s in (u.s, u.o) or block[i].o in (u.s, u.o):
                    waiting[j] += 1
                    after[i].append(j)
        ready = [i for i, n in enumerate(waiting) if n == 0]
        while ready:
            i = ready.pop(rng.integers(len(ready)))
            out.append(block[i])
            for j in after[i]:
                waiting[j] -= 1
                if waiting[j] == 0:
                    ready.append(j)
    return out


def make_input(w: Workload, seed: int) -> tuple[list, list]:
    """(update stream, query database) of workload ``w`` in the arrival order
    of run seed ``seed``."""
    from repro.bench.harness import build_workload

    updates, queries = build_workload(
        w.dataset, w.n_updates, w.n_queries, seed=BASE_SEED, **KNOBS
    )
    return causal_reorder(updates, np.random.default_rng(seed)), queries
