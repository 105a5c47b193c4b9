"""Synthetic update-stream generators standing in for the paper's datasets
(LDBC SNB, NYC TAXI / DEBS'15, BioGRID), and the query-set generator with the
paper's knobs (ℓ, σ selectivity, o overlap, chain/star/cycle shapes)."""
