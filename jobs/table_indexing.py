"""Fig. 15: query insertion (indexing) time per batch of queries as the
query database grows (paper: per 1K up to 5K; ours: per 100 up to 500).

Each cell is the median over ``REPS`` repetitions of the whole 5-batch
sequence, each on fresh engines, so one slow call (a GC pass, say) does not
set a cell.  After the fifth batch each engine's ``end_indexing()`` is timed
once per repetition and gets its own row: TRIC's trie freeze is indexing
work too, and no batch cell holds it."""
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from _common import parser, report, verify_sample  # noqa: E402

from repro.bench.harness import build_workload  # noqa: E402
from repro.engine.base import ALGORITHMS, make_engine  # noqa: E402

#: repetitions of the indexing sequence per cell
REPS = 7


def main() -> None:
    args = parser(__doc__).parse_args()
    s = args.scale
    batch = int(100 * s)
    updates, queries = build_workload(
        "snb", n_updates=int(2000 * s), n_queries=5 * batch, seed=args.seed
    )
    if args.verify:
        verify_sample(updates, queries)
    # secs[name][b]: the times of batch b over the repetitions
    secs = {name: [[] for _ in range(5)] for name in ALGORITHMS}
    # ends[name]: the times of end_indexing() over the repetitions
    ends = {name: [] for name in ALGORITHMS}
    for _ in range(REPS):
        engines = {name: make_engine(name) for name in ALGORITHMS}
        for b in range(5):
            chunk = queries[b * batch : (b + 1) * batch]
            for name, e in engines.items():
                # add_query alone: every batch lands in one indexing phase
                t0 = time.perf_counter()
                for q in chunk:
                    e.add_query(q)
                secs[name][b].append(time.perf_counter() - t0)
        for name, e in engines.items():
            t0 = time.perf_counter()
            e.end_indexing()
            ends[name].append(time.perf_counter() - t0)
    payload = {"title": "Fig 15 — indexing time", "reps": REPS}
    payload["batches"] = [{n: statistics.median(secs[n][b]) for n in ALGORITHMS} for b in range(5)]
    payload["end_indexing"] = {n: statistics.median(ends[n]) for n in ALGORITHMS}
    report(
        f"Fig 15 — indexing time (ms) per batch of {batch} queries, "
        f"then end_indexing() once, median of {REPS} runs",
        payload,
        indexing_table(payload, batch),
        "table_indexing.json",
    )


def indexing_table(payload: dict, batch: int) -> dict:
    """Fig. 15's table: one row per batch of ``batch`` queries, labelled by
    the query count it reaches, then the ``end_indexing`` row; ms per cell."""
    algos = list(payload["end_indexing"])
    labels = [str((b + 1) * batch) for b in range(len(payload["batches"]))]
    times = zip([*labels, "end_indexing"], [*payload["batches"], payload["end_indexing"]])
    rows = [[x, *(f"{t[a] * 1000:.1f}" for a in algos)] for x, t in times]
    note = (
        f"(ms per batch of {batch} queries, then one `end_indexing()` call "
        f"after the fifth batch; median of {payload['reps']} runs)"
    )
    return {"columns": ["batch", *algos], "rows": rows, "note": note}


if __name__ == "__main__":
    main()
