"""Fig. 16(a): NYC TAXI answering time with the execution-time threshold
(paper: INV/INC time out by |G_E|≈210–360K, Neo4j survives, TRIC wins)."""
from _common import sweep_job

if __name__ == "__main__":
    sweep_job(
        __doc__,
        "Fig 16(a) — NYC answering time (ms/update), with timeout markers",
        "table_nyc.json",
        dataset="nyc",
        vary="n_updates",
        values=(1000, 3000, 8000),
        label="|G_E|={}",
    )
