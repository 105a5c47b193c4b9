"""Tuple relations + hash joins (build & probe phases, per paper §4.2).

All engine materialized views are append-only *sets* of tuples
(:class:`View`): a row already present is dropped.  Base views drop
repeated triples, which add no edge; INV's and INC's canonical views drop
re-derived path rows; TRIC's trie and canonical views hold projections of
embeddings onto the slots their readers use, which many embeddings share
(DESIGN.md §2).  A view allocates its duplicate set with its first row, so
the many views that never store one (every leaf trie view, for a start)
cost no set.  A join is the classic two-phase hash join the paper
describes: *build* a hash table on one side's key, *probe* with the other
side.

The caching distinction between the plain and ``+`` algorithm variants maps
directly onto :class:`HashIndex`:

* plain (TRIC/INV/INC): the build phase runs from scratch on every join —
  ``hash_join`` reads every build row each call and indexes, in a
  throwaway dict, only the rows some probe key can match (a semi-join
  filter, taken when the probe side is the smaller input);
* cached (TRIC+/INV+/INC+): views keep :class:`HashIndex` objects that are
  maintained incrementally as tuples arrive, so joins skip the build phase
  (``probe_join`` against ``view.index(key)``).

Join-work counters (``COUNTERS``: build, probe and output rows) let tests
assert that caching actually removes build work, not just that it is
equivalent.

What the engines keep grows for the whole stream, and CPython's cyclic
collector tracks every list, closure and itemgetter among it.  It starts a
full collection once the tracked objects promoted since the last one
exceed a quarter of those that survived it, and that pause lands in one
update.  So the kernel keeps no long-lived tracked container per stored
key: a :class:`HashIndex` bucket with one row is a 1-tuple (the
collector stops tracking it) and becomes a list at its second row, and
:func:`getter` and :func:`key_getter` hand out one itemgetter per column
tuple.
"""
from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

Row = tuple

#: global work counters (reset in tests/benches via ``reset_counters``)
COUNTERS = {"build_rows": 0, "probe_rows": 0, "out_rows": 0}


def reset_counters() -> None:
    for k in COUNTERS:
        COUNTERS[k] = 0


class HashIndex:
    """Hash index of rows on a key-column tuple, built from ``rows`` and then
    maintained incrementally through :meth:`add`.

    Bucket keys come from ``operator.itemgetter(*key_cols)``: the bare value
    for one key column, a tuple for several.  :meth:`get` takes a tuple
    either way, so the format stays inside this module.

    A bucket is a sequence of rows in insertion order: a 1-tuple while its
    key has one row, a list from the second row on.  Most keys keep one row
    (on the snb benchmark input 11,877 of 13,410 buckets), and the
    collector stops tracking a 1-tuple of rows, where a list stays tracked
    as long as it lives (see the module docstring for why that matters).
    A bucket never grows by tuple concatenation, which would be quadratic
    on hub keys.  Readers only iterate buckets and take their length.
    """

    __slots__ = ("key", "buckets")

    def __init__(self, key_cols: tuple[int, ...], rows: Iterable[Row] = ()):
        self.key = key_getter(key_cols)
        self.buckets: dict[object, Sequence[Row]] = {}
        self.extend(rows)

    def add(self, row: Row) -> None:
        k = self.key(row)
        bucket = self.buckets.get(k)
        if bucket is None:
            self.buckets[k] = (row,)
        elif bucket.__class__ is tuple:
            self.buckets[k] = [bucket[0], row]
        else:
            bucket.append(row)

    def extend(self, rows: Iterable[Row]) -> None:
        key, buckets = self.key, self.buckets
        get = buckets.get
        for r in rows:
            k = key(r)
            bucket = get(k)
            if bucket is None:
                buckets[k] = (r,)
            elif bucket.__class__ is tuple:
                buckets[k] = [bucket[0], r]
            else:
                bucket.append(r)

    def get(self, key: tuple) -> Sequence[Row]:
        """The rows under ``key``, in insertion order; the caller must not
        modify the sequence."""
        return self.buckets.get(key[0] if len(key) == 1 else key, ())

    def __len__(self) -> int:
        return sum(len(v) for v in self.buckets.values())


class View:
    """Append-only set of rows with optional maintained hash indexes.

    :meth:`add` and :meth:`add_all` drop rows already present, checked
    against a set of every row that is allocated when the view stores its
    first row.

    ``cached=True`` (the ``+`` variants) keeps every index requested via
    :meth:`index` up to date on insert; ``cached=False`` answers
    :meth:`index` with ``None`` so callers fall back to a from-scratch build.
    """

    __slots__ = ("rows", "_seen", "cached", "_indexes")

    def __init__(self, cached: bool = False):
        self.rows: list[Row] = []
        self._seen: Optional[set[Row]] = None
        self.cached = cached
        self._indexes: dict[tuple[int, ...], HashIndex] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: Row) -> bool:
        return self._seen is not None and row in self._seen

    def add(self, row: Row) -> bool:
        """Insert; returns True if the row is new."""
        seen = self._seen
        if seen is None:
            self._seen = {row}
        elif row in seen:
            return False
        else:
            seen.add(row)
        self.rows.append(row)
        for idx in self._indexes.values():
            idx.add(row)
        return True

    def add_all(self, rows: list[Row]) -> list[Row]:
        """Insert many; returns the sub-list of genuinely new rows.  Each row
        goes through :meth:`add`, so instrumentation of ``add`` sees every
        row offered."""
        add = self.add
        return [r for r in rows if add(r)]

    def index(self, key_cols: tuple[int, ...]) -> Optional[HashIndex]:
        """Maintained index on ``key_cols`` (cached views only)."""
        if not self.cached:
            return None
        idx = self._indexes.get(key_cols)
        if idx is None:
            idx = self._indexes[key_cols] = HashIndex(key_cols, self.rows)
        return idx

    def where(self, col: int, value: object) -> Sequence[Row]:
        """The rows whose column ``col`` holds ``value``: one probe of the
        maintained index if cached; otherwise a scan of every row, counted
        as build work (the build phase TRIC+ saves, §4.2 Caching)."""
        idx = self.index((col,))
        if idx is not None:
            COUNTERS["probe_rows"] += 1
            return idx.get((value,))
        rows = self.rows
        COUNTERS["build_rows"] += len(rows)
        return [r for r in rows if r[col] == value]


@cache
def getter(cols: tuple[int, ...]) -> Callable[[Row], Row]:
    """``row -> tuple(row[c] for c in cols)`` as one ``itemgetter`` call; a
    slice for one or zero columns, so the result is always a tuple.

    One getter per column tuple, shared by every caller, since the
    collector tracks an itemgetter (and its slice) for its whole life (see
    the module docstring).  Getters are immutable and the column tuples of
    short rows are few, so the cache stays small."""
    if len(cols) > 1:
        return itemgetter(*cols)
    i = cols[0] if cols else 0
    return itemgetter(slice(i, i + len(cols)))


@cache
def key_getter(key_cols: tuple[int, ...]) -> Callable[[Row], object]:
    """A hash key of ``key_cols``: the bare value for one column, a tuple
    for several (``operator.itemgetter(*key_cols)``), shared per column
    tuple like :func:`getter`."""
    return itemgetter(*key_cols)


def append_target(pr: Row, br: Row) -> Row:
    """Join emit that extends a path row by one edge: the probe row plus the
    target of the matching base-view row ``(s, o)``."""
    return pr + (br[1],)


def _build(
    rows: list[Row], key_cols: tuple[int, ...], keys: Optional[set] = None
) -> HashIndex:
    """Build phase of an uncached join: a throwaway index over ``rows``.

    Every row is read and counted as build work.  Given the probe side's
    ``keys`` (in :func:`key_getter` form), only the rows whose key is among
    them are inserted: the others cannot join, so the index answers every
    probe the same and each bucket keeps its rows in view order."""
    COUNTERS["build_rows"] += len(rows)
    if keys is not None:
        key = key_getter(key_cols)
        rows = [r for r in rows if key(r) in keys]
    return HashIndex(key_cols, rows)


def probe_join(
    probe_rows: list[Row],
    probe_key: tuple[int, ...],
    index: HashIndex,
    emit: Callable[[Row, Row], Row],
) -> list[Row]:
    """Probe phase: join ``probe_rows`` against an already-built index."""
    get = index.buckets.get
    key = key_getter(probe_key)
    out: list[Row] = []
    COUNTERS["probe_rows"] += len(probe_rows)
    for pr in probe_rows:
        for br in get(key(pr), ()):
            out.append(emit(pr, br))
    COUNTERS["out_rows"] += len(out)
    return out


def hash_join(
    probe_rows: list[Row],
    probe_key: tuple[int, ...],
    build_view: View,
    build_key: tuple[int, ...],
    emit: Callable[[Row, Row], Row],
) -> list[Row]:
    """Join ``probe_rows`` (usually a small delta) against a view.

    Cached views supply their maintained index (probe only); uncached views
    pay for a build pass over their rows on *every* call — this asymmetry is
    the entire plain-vs-``+`` performance story of the paper.  When the
    probe side has fewer rows than the view, that pass indexes only the
    view rows whose key some probe row holds (Bernstein and Chiu's
    semi-join); otherwise the probe keys would cost more to collect than
    the inserts they save, and every row is indexed.  The output is the
    same either way: probe-major, view order within a key.
    """
    idx = build_view.index(build_key)
    if idx is None:
        rows = build_view.rows
        keys = None
        if len(probe_rows) < len(rows):
            key = key_getter(probe_key)
            keys = {key(r) for r in probe_rows}
        idx = _build(rows, build_key, keys)
    return probe_join(probe_rows, probe_key, idx, emit)
