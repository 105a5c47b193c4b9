"""Fig. 13(a): SNB query answering time per update, all seven algorithms,
for a growing graph (paper: |G_E| 100K; ours: scaled, see DESIGN.md §5).

1500 updates with 300 queries concentrates the query walks on a too-small
final graph and overloads every inverted-index engine; 2000/3000 match the
other tables' baseline density."""
from _common import sweep_job

if __name__ == "__main__":
    sweep_job(
        __doc__,
        "Fig 13(a) — SNB answering time (ms/update), Q=300, l=5, sigma=25%, o=35%",
        "table_snb_answering.json",
        dataset="snb",
        vary="n_updates",
        values=(2000, 3000),
        label="|G_E|={}",
    )
