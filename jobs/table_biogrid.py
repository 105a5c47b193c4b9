"""Figs. 16(b,c): BioGRID stress test — one edge/vertex label, so every
update affects the whole query DB (paper: INV/INC time out at |G_E|≈50–60K,
Neo4j at 550K; TRIC/TRIC+ survive)."""
from _common import sweep_job

if __name__ == "__main__":
    sweep_job(
        __doc__,
        "Fig 16(b,c) — BioGRID answering time (ms/update), with timeout markers",
        "table_biogrid.json",
        dataset="biogrid",
        vary="n_updates",
        values=(1000, 3000, 8000),
        label="|G_E|={}",
    )
