"""Fig. 13(b): SNB answering time when varying selectivity σ (10–30 %)."""
from _common import sweep_job

if __name__ == "__main__":
    sweep_job(
        __doc__,
        "Fig 13(b) — SNB answering time (ms/update) vs selectivity sigma",
        "table_snb_selectivity.json",
        dataset="snb",
        vary="selectivity",
        values=(0.10, 0.15, 0.20, 0.25, 0.30),
        label="sigma={:.0%}",
    )
