"""Figs. 13(f) + 14: SNB scale-up with the execution-time threshold.

The paper grows |G_E| to 1M/10M under a 24 h cap: INV/INV+ time out first,
then INC/INC+, then Neo4j and TRIC, with TRIC+ surviving longest.  We grow
the scaled stream under a per-run wall-clock cap and report the same
"timed out at |G_E|=X" markers.
"""
from _common import sweep_job

if __name__ == "__main__":
    sweep_job(
        __doc__,
        "Fig 13(f)+14 — SNB scale-up (ms/update), with timeout markers",
        "table_snb_scale.json",
        dataset="snb",
        vary="n_updates",
        values=(2000, 6000, 12000, 24000),
        label="|G_E|={}",
    )
