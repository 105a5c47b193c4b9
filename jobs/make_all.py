"""Run every per-table job in sequence, producing all results/*.json files
that EXPERIMENTS.md reports.  ``--scale 0.5`` halves every workload.  Every
option is passed to every job, except ``--time-limit``, which only the
sweep jobs take: the indexing and memory jobs answer no updates under a
time limit."""
import argparse
import os
import subprocess
import sys

JOBS = [
    "table_snb_answering.py",
    "table_snb_selectivity.py",
    "table_snb_qdb.py",
    "table_snb_qlen.py",
    "table_snb_overlap.py",
    "table_snb_scale.py",
    "table_indexing.py",
    "table_nyc.py",
    "table_biogrid.py",
    "table1_memory.py",
]
#: the jobs that take no ``--time-limit``
UNTIMED = {"table_indexing.py", "table1_memory.py"}


def main() -> None:
    here = os.path.dirname(__file__)
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--time-limit", help="per-run cap (s) of the sweep jobs")
    args, extra = p.parse_known_args()
    for job in JOBS:
        argv = list(extra)
        if args.time_limit is not None and job not in UNTIMED:
            argv += ["--time-limit", args.time_limit]
        print(f"\n{'=' * 70}\n== {job}\n{'=' * 70}")
        subprocess.run([sys.executable, os.path.join(here, job), *argv], check=True)


if __name__ == "__main__":
    main()
