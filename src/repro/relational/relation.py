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
  ``hash_join`` constructs a throwaway dict over the build side each call;
* cached (TRIC+/INV+/INC+): views keep :class:`HashIndex` objects that are
  maintained incrementally as tuples arrive, so joins skip the build phase
  (``probe_join`` against ``view.index(key)``).

Join-work counters (``COUNTERS``: build, probe and output rows) let tests
assert that caching actually removes build work, not just that it is
equivalent.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Optional

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
    """

    __slots__ = ("key", "buckets")

    def __init__(self, key_cols: tuple[int, ...], rows: Iterable[Row] = ()):
        self.key = itemgetter(*key_cols)
        self.buckets: dict[object, list[Row]] = {}
        self.extend(rows)

    def add(self, row: Row) -> None:
        k = self.key(row)
        bucket = self.buckets.get(k)
        if bucket is None:
            self.buckets[k] = [row]
        else:
            bucket.append(row)

    def extend(self, rows: Iterable[Row]) -> None:
        key, buckets = self.key, self.buckets
        get = buckets.get
        for r in rows:
            k = key(r)
            bucket = get(k)
            if bucket is None:
                buckets[k] = [r]
            else:
                bucket.append(r)

    def get(self, key: tuple) -> list[Row]:
        return self.buckets.get(key[0] if len(key) == 1 else key, [])

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


def getter(cols: tuple[int, ...]) -> Callable[[Row], Row]:
    """``row -> tuple(row[c] for c in cols)`` as one ``itemgetter`` call; a
    slice for one or zero columns, so the result is always a tuple."""
    if len(cols) > 1:
        return itemgetter(*cols)
    i = cols[0] if cols else 0
    return itemgetter(slice(i, i + len(cols)))


def append_target(pr: Row, br: Row) -> Row:
    """Join emit that extends a path row by one edge: the probe row plus the
    target of the matching base-view row ``(s, o)``."""
    return pr + (br[1],)


def _build(rows: list[Row], key_cols: tuple[int, ...]) -> HashIndex:
    """Build phase of an uncached join: a throwaway index over ``rows``."""
    COUNTERS["build_rows"] += len(rows)
    return HashIndex(key_cols, rows)


def probe_join(
    probe_rows: list[Row],
    probe_key: tuple[int, ...],
    index: HashIndex,
    emit: Callable[[Row, Row], Row],
) -> list[Row]:
    """Probe phase: join ``probe_rows`` against an already-built index."""
    get = index.buckets.get
    key = itemgetter(*probe_key)
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
    pay for a full build over their rows on *every* call — this asymmetry is
    the entire plain-vs-``+`` performance story of the paper.
    """
    idx = build_view.index(build_key)
    if idx is None:
        idx = _build(build_view.rows, build_key)
    return probe_join(probe_rows, probe_key, idx, emit)
