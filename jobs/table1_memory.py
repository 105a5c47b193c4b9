"""Table 1: memory usage per algorithm × dataset (resident tracemalloc
bytes after indexing + answering; paper: resident MB on the JVM).

Every engine in a column answers the same prefix of the dataset's stream,
so the cells compare state at equal work.  The prefix is as long as the
slowest engine (INV under tracemalloc) finishes in about 30 s."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from _common import parser, report, verify_sample  # noqa: E402

from repro.bench.harness import build_workload, measure_memory  # noqa: E402
from repro.engine.base import ALGORITHMS  # noqa: E402


#: updates answered per dataset (of a 2000-update stream at scale 1)
PREFIX = {"snb": 2000, "nyc": 1500, "biogrid": 300}


def main() -> None:
    args = parser(__doc__).parse_args()
    s = args.scale
    prefix = {ds: int(n * s) for ds, n in PREFIX.items()}
    workloads = {
        ds: build_workload(ds, n_updates=int(2000 * s), n_queries=int(300 * s), seed=args.seed)
        for ds in PREFIX
    }
    if args.verify:
        for updates, queries in workloads.values():
            verify_sample(updates, queries)
    payload = {
        "title": "Table 1 — memory usage (resident MiB)",
        "updates": prefix,
        "algorithms": {},
    }
    for name in ALGORITHMS:
        payload["algorithms"][name] = {
            ds: measure_memory(name, updates, queries, max_updates=prefix[ds])
            for ds, (updates, queries) in workloads.items()
        }
        print(f"[done] {name}")
    answered = ", ".join(f"{ds} {n}" for ds, n in prefix.items())
    report(
        f"Table 1 — memory usage, Q={int(300 * s)}, "
        f"updates answered: {answered} (resident tracemalloc)",
        payload,
        memory_table(payload),
        "table1_memory.json",
    )


def memory_table(payload: dict) -> dict:
    """Table 1: one row per algorithm, one column per dataset, in MiB."""
    updates = payload["updates"]
    columns = ["algorithm", *(f"{ds} ({n} updates)" for ds, n in updates.items())]
    rows = [
        [name, *(f"{rec[ds] / (1 << 20):.1f} MiB" for ds in updates)]
        for name, rec in payload["algorithms"].items()
    ]
    return {"columns": columns, "rows": rows, "note": ""}


if __name__ == "__main__":
    main()
