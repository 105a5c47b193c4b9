"""Fig. 13(e): SNB answering time when varying query overlap o (25–65 %)."""
from _common import sweep_job

if __name__ == "__main__":
    sweep_job(
        __doc__,
        "Fig 13(e) — SNB answering time (ms/update) vs overlap o",
        "table_snb_overlap.json",
        dataset="snb",
        vary="overlap",
        values=(0.25, 0.35, 0.45, 0.55, 0.65),
        label="o={:.0%}",
    )
