"""Catalyst batch BGP matcher — the reproduction's ground truth.

A query graph pattern is compiled to a multi-way self-join over the triples
table ``(t, s, p, o)`` using the DataFrame API (Catalyst plans; broadcast
joins are disabled by the session fixture, so these run as shuffle joins).
``bgp_to_sql`` emits the equivalent SQL so the same result can be checked on
DuckDB via :func:`repro.oracle.assert_equivalent`.

Output schema: one column ``v{vid}`` per *variable* vertex (distinct
bindings).  A pattern with no variables yields a single column ``m`` (1 row
iff satisfied).  ``first_match_spark`` additionally returns, per query, the
earliest update index at which the query is satisfied —
``min over embeddings of max(t_i)`` — the ground truth for the engines'
first-match events.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, functions as F

from repro.graph.model import QueryPattern


def _edge_order(q: QueryPattern) -> list[int]:
    """Connectivity-respecting edge order (avoids cross joins when possible)."""
    remaining = set(range(len(q.edges)))
    order: list[int] = []
    bound: set[int] = set()
    while remaining:
        cands = [
            e for e in remaining if q.edges[e][0] in bound or q.edges[e][2] in bound
        ] or [min(remaining)]
        e = min(cands)
        order.append(e)
        bound.update((q.edges[e][0], q.edges[e][2]))
        remaining.discard(e)
    return order


def spark_bgp_match(triples: DataFrame, q: QueryPattern, with_time: bool = False) -> DataFrame:
    """All distinct embeddings of ``q`` into ``triples`` as a DataFrame.

    With ``with_time=True`` adds ``mt`` = the embedding's latest update index
    (requires a ``t`` column; duplicate triples are collapsed to their first
    arrival, matching the engines' set semantics).
    """
    if with_time:
        base = triples.groupBy("s", "p", "o").agg(F.min("t").alias("t"))
    else:
        base = triples.select("s", "p", "o").distinct()

    acc: DataFrame | None = None
    var_col: dict[int, str] = {}
    t_cols: list[str] = []
    for e in _edge_order(q):
        s_vid, pred, o_vid = q.edges[e]
        cols = [
            F.col("s").alias(f"s{e}"),
            F.col("o").alias(f"o{e}"),
        ] + ([F.col("t").alias(f"t{e}")] if with_time else [])
        df = base.where(F.col("p") == pred).select(*cols)
        if with_time:
            t_cols.append(f"t{e}")
        conds = []
        for vid, col in ((s_vid, f"s{e}"), (o_vid, f"o{e}")):
            lit = q.vertices[vid]
            if lit is not None:
                df = df.where(F.col(col) == lit)
            elif vid in var_col:
                conds.append((var_col[vid], col))
        # self-loop pattern edge on one variable: endpoints must agree
        if s_vid == o_vid:
            df = df.where(F.col(f"s{e}") == F.col(f"o{e}"))
        if acc is None:
            acc = df
        elif conds:
            on = [acc[a] == df[b] for a, b in conds]
            acc = acc.join(df, on=on, how="inner")
        else:
            acc = acc.crossJoin(df)
        for vid, col in ((s_vid, f"s{e}"), (o_vid, f"o{e}")):
            if q.vertices[vid] is None and vid not in var_col:
                var_col[vid] = col
    assert acc is not None

    out_cols = [F.col(c).alias(f"v{vid}") for vid, c in sorted(var_col.items())]
    if with_time:
        mt = F.greatest(*[F.col(c) for c in t_cols]) if len(t_cols) > 1 else F.col(t_cols[0])
        if not out_cols:
            return acc.select(mt.alias("mt")).groupBy().agg(F.min("mt").alias("mt"))
        return (
            acc.select(*out_cols, mt.alias("mt"))
            .groupBy([f"v{vid}" for vid in sorted(var_col)])
            .agg(F.min("mt").alias("mt"))
        )
    if not out_cols:
        return acc.select(F.lit(1).alias("m")).distinct()
    return acc.select(*out_cols).distinct()


def bgp_to_sql(q: QueryPattern) -> str:
    """Equivalent SQL (DuckDB dialect == ANSI here) for the oracle check,
    over the triples in table ``g``."""
    aliases = [f"e{i}" for i in range(len(q.edges))]
    conds: list[str] = []
    var_first: dict[int, str] = {}
    for i, (s_vid, pred, o_vid) in enumerate(q.edges):
        conds.append(f"e{i}.p = '{pred}'")
        for vid, col in ((s_vid, f"e{i}.s"), (o_vid, f"e{i}.o")):
            lit = q.vertices[vid]
            if lit is not None:
                conds.append(f"{col} = '{lit}'")
            elif vid in var_first:
                conds.append(f"{col} = {var_first[vid]}")
            else:
                var_first[vid] = col
    froms = ", ".join(f"(SELECT DISTINCT s, p, o FROM g) {a}" for a in aliases)
    where = " AND ".join(conds)
    if var_first:
        sel = ", ".join(f"{col} AS v{vid}" for vid, col in sorted(var_first.items()))
        return f"SELECT DISTINCT {sel} FROM {froms} WHERE {where}"
    return f"SELECT DISTINCT 1 AS m FROM {froms} WHERE {where}"


def first_match_spark(triples: DataFrame, queries: list[QueryPattern]) -> dict[int, int]:
    """Ground-truth first-match update index per query (absent = never)."""
    out: dict[int, int] = {}
    for q in queries:
        row = (
            spark_bgp_match(triples, q, with_time=True)
            .agg(F.min("mt").alias("fm"))
            .collect()[0]
        )
        if row["fm"] is not None:
            out[q.qid] = int(row["fm"])
    return out
