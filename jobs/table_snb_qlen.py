"""Fig. 13(d): SNB answering time when varying the average query size ℓ."""
from _common import sweep_job

if __name__ == "__main__":
    sweep_job(
        __doc__,
        "Fig 13(d) — SNB answering time (ms/update) vs query size l",
        "table_snb_qlen.json",
        dataset="snb",
        vary="avg_len",
        values=(3, 5, 7, 9),
        label="l={}",
    )
