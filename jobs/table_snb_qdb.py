"""Fig. 13(c): SNB answering time when varying the query-DB size |Q_DB|
(paper: 1K–5K; ours: 100–500)."""
from _common import sweep_job

if __name__ == "__main__":
    sweep_job(
        __doc__,
        "Fig 13(c) — SNB answering time (ms/update) vs |Q_DB|",
        "table_snb_qdb.json",
        dataset="snb",
        vary="n_queries",
        values=(100, 300, 500),
        label="|Q_DB|={}",
    )
