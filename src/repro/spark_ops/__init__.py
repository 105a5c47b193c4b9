"""Spark-facing operators: Catalyst batch BGP matcher (ground truth),
the continuous multi-query matcher as a DataFrame→DataFrame transformation
(mapInPandas), and a Structured Streaming wrapper (foreachBatch)."""
