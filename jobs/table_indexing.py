"""Fig. 15: query insertion (indexing) time per batch of queries as the
query database grows (paper: per 1K up to 5K; ours: per 100 up to 500).

Each cell is the median over ``REPS`` repetitions of the whole 5-batch
sequence, each on fresh engines, so one slow call (a GC pass, say) does not
set a cell."""
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from _common import RESULTS_DIR, parser  # noqa: E402

from repro.bench.harness import build_workload, fmt_table, save_results  # noqa: E402
from repro.engine.base import ALGORITHMS, make_engine  # noqa: E402
from repro.engine.runner import index_queries  # noqa: E402

#: repetitions of the indexing sequence per cell
REPS = 7


def main() -> None:
    args = parser(__doc__).parse_args()
    s = args.scale
    batch = int(100 * s)
    updates, queries = build_workload(
        "snb", n_updates=int(2000 * s), n_queries=5 * batch, seed=args.seed
    )
    # secs[name][b]: the times of batch b over the repetitions
    secs = {name: [[] for _ in range(5)] for name in ALGORITHMS}
    for _ in range(REPS):
        engines = {name: make_engine(name) for name in ALGORITHMS}
        for b in range(5):
            chunk = queries[b * batch : (b + 1) * batch]
            for name, e in engines.items():
                secs[name][b].append(index_queries(e, chunk))
    rows = []
    payload = {"title": "Fig 15 — indexing time", "reps": REPS, "batches": []}
    for b in range(5):
        rec = {name: statistics.median(secs[name][b]) for name in ALGORITHMS}
        rows.append(
            {"x": f"|Q_DB|->{(b + 1) * batch}"}
            | {name: f"{t * 1000:.1f}" for name, t in rec.items()}
        )
        payload["batches"].append(rec)
    print(fmt_table(
        f"Fig 15 — indexing time (ms) per batch of {batch} queries, "
        f"median of {REPS} runs",
        rows,
        ["x"] + ALGORITHMS,
    ))
    save_results(payload, os.path.join(RESULTS_DIR, "table_indexing.json"))
    print("\nresults written to results/table_indexing.json")


if __name__ == "__main__":
    main()
