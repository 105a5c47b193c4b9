"""Table 1: memory usage per algorithm × dataset (resident tracemalloc
bytes after indexing + answering; paper: resident MB on the JVM).

Every engine in a column answers the same prefix of the dataset's stream,
so the cells compare state at equal work.  The prefix is as long as the
slowest engine (INV under tracemalloc) finishes in about 30 s."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from _common import RESULTS_DIR, parser  # noqa: E402

from repro.bench.harness import build_workload, fmt_table, measure_memory, save_results  # noqa: E402
from repro.engine.base import ALGORITHMS  # noqa: E402


#: updates answered per dataset (of a 2000-update stream at scale 1)
PREFIX = {"snb": 2000, "nyc": 1500, "biogrid": 300}


def main() -> None:
    args = parser(__doc__).parse_args()
    s = args.scale
    datasets = tuple(PREFIX)
    prefix = {ds: int(n * s) for ds, n in PREFIX.items()}
    workloads = {
        ds: build_workload(ds, n_updates=int(2000 * s), n_queries=int(300 * s), seed=args.seed)
        for ds in datasets
    }
    rows = []
    payload = {
        "title": "Table 1 — memory usage (resident MiB)",
        "updates": prefix,
        "algorithms": {},
    }
    for name in ALGORITHMS:
        row = {"algorithm": name}
        rec = {}
        for ds, (updates, queries) in workloads.items():
            peak = measure_memory(name, updates, queries, max_updates=prefix[ds])
            row[ds] = f"{peak / (1 << 20):.1f}MiB"
            rec[ds] = peak
        rows.append(row)
        payload["algorithms"][name] = rec
        print(f"[done] {name}")
    print()
    answered = ", ".join(f"{ds} {n}" for ds, n in prefix.items())
    print(fmt_table(
        f"Table 1 — memory usage, Q=300, updates answered: {answered} (resident tracemalloc)",
        rows,
        ["algorithm", *datasets],
    ))
    save_results(payload, os.path.join(RESULTS_DIR, "table1_memory.json"))
    print("\nresults written to results/table1_memory.json")


if __name__ == "__main__":
    main()
