"""Synthetic graph update streams (see DESIGN.md §5 for the substitutions).

Each generator is deterministic in ``seed`` and returns an ordered
``list[Triple]`` — the stream ``S = (u_1, …, u_n)`` of Definition 3.

* :func:`snb_stream` — SNB-like social-network activity (9 predicates,
  reciprocal ``knows`` + triangle closure so cyclic patterns occur).
* :func:`nyc_stream` — TAXI-like ride events with Zipf-skewed zones (few
  predicates, heavy-hitter vertices → the join blow-ups that time INV/INC
  out in the paper).
* :func:`biogrid_stream` — single predicate / single vertex type
  (``interacts``): every update affects the entire query database — the
  paper's stress test.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graph.model import Triple


def stream_to_pandas(updates: list[Triple]) -> pd.DataFrame:
    """Stream as a ``(t, s, p, o)`` pandas frame (``t`` = update index)."""
    return pd.DataFrame(
        {
            "t": np.arange(len(updates), dtype="int64"),
            "s": [u.s for u in updates],
            "p": [u.p for u in updates],
            "o": [u.o for u in updates],
        }
    )


def stream_to_spark(spark: SparkSession, updates: list[Triple]) -> DataFrame:
    """Stream as a Spark DataFrame ``(t, s, p, o)``."""
    return spark.createDataFrame(stream_to_pandas(updates))


# ---------------------------------------------------------------------------
def snb_stream(n_updates: int, seed: int = 0) -> list[Triple]:
    """Social-network activity stream (LDBC SNB stand-in)."""
    rng = np.random.default_rng(seed)
    updates: list[Triple] = []
    persons: list[str] = []
    forums: list[str] = []
    posts: list[tuple[str, str]] = []  # (post, forum)
    knows: dict[str, list[str]] = {}
    counters = {"p": 0, "f": 0, "pst": 0, "c": 0}
    cities = [f"city{i}" for i in range(20)]

    def new(kind: str) -> str:
        counters[kind] += 1
        return f"{kind}{counters[kind]}"

    def add(s: str, p: str, o: str) -> None:
        updates.append(Triple(s, p, o))

    def add_person() -> None:
        p = new("p")
        persons.append(p)
        knows[p] = []
        add(p, "locatedIn", cities[rng.integers(len(cities))])

    def pick(lst: list) -> object:
        return lst[rng.integers(len(lst))]

    # bootstrap so every event type has prerequisites
    for _ in range(3):
        add_person()

    while len(updates) < n_updates:
        ev = rng.random()
        if ev < 0.08:
            add_person()
        elif ev < 0.30 and len(persons) >= 2:  # knows (+ reciprocity/triangles)
            a = pick(persons)
            fof = [c for b in knows[a] for c in knows.get(b, ()) if c != a]
            b = pick(fof) if fof and rng.random() < 0.3 else pick(persons)
            if a != b:
                add(a, "knows", b)
                knows[a].append(b)
                if rng.random() < 0.5:
                    add(b, "knows", a)
                    knows[b].append(a)
        elif ev < 0.33:  # new forum with a moderator
            f = new("f")
            forums.append(f)
            add(f, "hasModerator", pick(persons))
        elif ev < 0.45 and forums:  # person joins forum
            add(pick(forums), "hasMember", pick(persons))
        elif ev < 0.65 and forums:  # post into a forum
            pst = new("pst")
            f = pick(forums)
            posts.append((pst, f))
            add(pick(persons), "posted", pst)
            add(pst, "containedIn", f)
        elif ev < 0.80 and posts:  # comment replying to a post
            c = new("c")
            add(c, "replyOf", pick(posts)[0])
            add(c, "hasCreator", pick(persons))
        elif posts:  # like
            add(pick(persons), "likes", pick(posts)[0])
    return updates[:n_updates]


# ---------------------------------------------------------------------------
#: number of taxi zones in :func:`nyc_stream`
N_ZONES = 60


def nyc_stream(n_updates: int, seed: int = 0) -> list[Triple]:
    """Taxi-ride stream (NYC TAXI / DEBS'15 stand-in), Zipf-skewed zones."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, N_ZONES + 1)
    w = 1.0 / ranks**1.2
    w /= w.sum()
    zones = [f"z{i}" for i in range(N_ZONES)]
    n_taxis = max(5, n_updates // 60)
    taxis = [f"taxi{i}" for i in range(n_taxis)]
    payments = ["card", "cash"]
    updates: list[Triple] = []
    seen_connects: set[tuple[str, str]] = set()
    ride = 0
    while len(updates) < n_updates:
        ride += 1
        r = f"r{ride}"
        za = zones[rng.choice(N_ZONES, p=w)]
        zb = zones[rng.choice(N_ZONES, p=w)]
        updates.append(Triple(r, "by_taxi", taxis[rng.integers(n_taxis)]))
        updates.append(Triple(r, "picked_at", za))
        updates.append(Triple(r, "dropped_at", zb))
        updates.append(Triple(r, "paid_with", payments[rng.integers(2)]))
        if za != zb and (za, zb) not in seen_connects:
            seen_connects.add((za, zb))
            updates.append(Triple(za, "connects", zb))
    return updates[:n_updates]


# ---------------------------------------------------------------------------
def biogrid_stream(n_updates: int, seed: int = 0) -> list[Triple]:
    """Protein-interaction stream (BioGRID stand-in): one predicate, one
    vertex type, preferential-attachment degrees, some reciprocal edges."""
    rng = np.random.default_rng(seed)
    updates: list[Triple] = []
    # endpoints chosen from a growing pool, preferentially by degree
    pool: list[int] = [0, 1]  # repeated entries ⇒ preferential attachment
    n_proteins = 2
    while len(updates) < n_updates:
        if rng.random() < 0.15:
            n_proteins += 1
            a = n_proteins - 1
        else:
            a = pool[rng.integers(len(pool))]
        b = pool[rng.integers(len(pool))]
        if a == b:
            continue
        updates.append(Triple(f"P{a}", "interacts", f"P{b}"))
        pool.extend((a, b))
        if rng.random() < 0.3:
            updates.append(Triple(f"P{b}", "interacts", f"P{a}"))
    return updates[:n_updates]


DATASETS = {"snb": snb_stream, "nyc": nyc_stream, "biogrid": biogrid_stream}
