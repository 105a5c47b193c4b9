"""Per-query final join across covering paths (paper Fig. 9, lines 8–13).

Every engine decomposes queries into covering paths and materializes path
matches somehow (TRIC: shared trie views; INC: per-query increments; INV:
full recomputation; the graph DB bypasses this module).  What is common is
the last step: when a path receives *new* matches, join them with the other
paths' matches **on the query vertices the paths share** ("intersection"
information, §4.1) to decide whether new full-query embeddings appeared.
Paths are grouped into variable-connected components, and a new full-query
embedding exists after an update iff some component gained a join row and
every component has one.  Each path keeps a *canonical* view, read only by
one greedy join over its component, run once per affected query.

:class:`QueryAssembler` is TRIC's, in the style of Dynamic Yannakakis: it
joins each path delta, projected onto the variables the path shares with
other paths, with its partners' views.  The paths registered at one trie
node that read its rows through the same slots form one :class:`Feed`,
whose projections the descent computes and stores once.

:class:`FullJoinAssembler` is INV's and INC's: it stores the rows of each
path that close the path's cycles, projected onto all of its variables,
and fires when the full join of a component's views grows (paper §5.1
Step 3).
"""
from __future__ import annotations

from typing import Callable, Optional

from repro.engine.base import MAX_ROWS, EngineOverflow
from repro.graph.covering import CoverPath
from repro.graph.model import QueryPattern
from repro.relational.relation import Row, View, getter, hash_join


class AssemblyOverflow(EngineOverflow):
    """Cross-path join exceeded the configured row cap."""


Getter = Callable[[Row], Row]


class Feed:
    """The paths registered at one trie node that read its rows through
    the same :attr:`QueryAssembler.var_slots`: ``project`` maps the node's
    row to their canonical row, ``view`` is the canonical view they share
    (``None`` for lone paths, whose rows project to ``()`` and are never
    stored), and ``members`` lists them as ``(qid, pidx)``."""

    __slots__ = ("project", "view", "members")

    def __init__(self, project: Getter, view: Optional[View]):
        self.project = project
        self.view = view
        self.members: list[tuple[int, int]] = []


class _FinalJoin:
    """What both final joins of one indexed query share: the paths'
    components and join partners, each path's canonical view over the
    variables a subclass's ``_canonical`` picks from the path's ``first``
    slots, and the greedy join."""

    def __init__(
        self,
        q: QueryPattern,
        paths: list[CoverPath],
        cached: bool,
        max_rows: int = MAX_ROWS,
    ):
        self.q = q
        self.max_rows = max_rows

        # variable-connected components of paths (union-find)
        parent = list(range(len(paths)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        var_owner: dict[int, int] = {}
        shared: set[int] = set()
        for i, p in enumerate(paths):
            for v in p.first:
                if v in var_owner:
                    parent[find(i)] = find(var_owner[v])
                    shared.add(v)
                else:
                    var_owner[v] = i
        roots = [find(i) for i in range(len(paths))]
        comp_roots = sorted(set(roots))
        #: per component: its path indexes; per path: its component's index
        self.components = [[i for i, r in enumerate(roots) if r == c] for c in comp_roots]
        self.path_comp = [comp_roots.index(r) for r in roots]
        #: per path: the other paths of its component (its join partners)
        self._partners = [
            [j for j in self.components[c] if j != i]
            for i, c in enumerate(self.path_comp)
        ]
        #: per component: non-zero iff the component has an embedding
        self.comp_rows = [0] * len(self.components)

        #: per path: the variables of its canonical rows, and the slot each
        #: is read from
        self.path_vars: list[tuple[int, ...]] = []
        self.var_slots: list[tuple[int, ...]] = []
        for p in paths:
            first = self._canonical(p.first, shared)
            self.path_vars.append(tuple(first))
            self.var_slots.append(tuple(first.values()))
        self.canon_views = [View(cached=cached) for _ in self.path_vars]

    def _join(self, acc: list[Row], start: int, others: list[int]) -> list[Row]:
        """Join ``acc`` (rows over path ``start``'s variables) with the
        canonical views of ``others`` on the variables they share.

        Each step takes, among the paths sharing a variable with the rows so
        far (one exists by construction of components), the one with the
        smallest view.  Returns ``[]`` as soon as an intermediate result is
        empty; raises :class:`AssemblyOverflow` past ``max_rows`` — the
        row-cap analogue of the paper's execution-time threshold.
        """
        views = self.canon_views
        acc_vars = list(self.path_vars[start])
        remaining = set(others)
        while remaining and acc:
            cands = [
                j for j in remaining if any(v in acc_vars for v in self.path_vars[j])
            ]
            j = min(cands, key=lambda x: len(views[x].rows))
            shared = [v for v in self.path_vars[j] if v in acc_vars]
            probe_key = tuple(acc_vars.index(v) for v in shared)
            build_key = tuple(self.path_vars[j].index(v) for v in shared)
            new_cols = tuple(
                i for i, v in enumerate(self.path_vars[j]) if v not in acc_vars
            )

            def emit(pr: Row, br: Row, tail=getter(new_cols)) -> Row:
                return pr + tail(br)

            acc = hash_join(acc, probe_key, views[j], build_key, emit)
            if len(acc) > self.max_rows:
                raise AssemblyOverflow(
                    f"Q{self.q.qid}: cross-path join exceeded {self.max_rows} rows"
                )
            acc_vars += [self.path_vars[j][c] for c in new_cols]
            remaining.discard(j)
        return acc


class QueryAssembler(_FinalJoin):
    """TRIC's final join for one indexed query, over queued path deltas.

    Every row fed to a path already closes the path's cycles and stands for
    at least one embedding new with this update.  Canonical rows are
    projections onto the path's *join variables*, the ones it shares with
    another path, with no closure check.  Every other variable occurs in
    that path alone, so the full join is non-empty iff the join of the
    projections is.  The caller projects a path's delta, de-duplicates it
    and stores it in the path's view, which keeps the projections it does
    not hold yet; :meth:`on_path_delta` then queues the whole de-duplicated
    projection, unless a join partner's view is empty: a new embedding
    whose projection is already stored still fires.  A path alone in its
    component has no join variable, so its rows project to ``()`` and its
    view stores nothing.  :attr:`comp_rows` marks a component 1 once a
    delta join finds a row.
    """

    def __init__(self, q, paths, cached, max_rows=MAX_ROWS):
        super().__init__(q, paths, cached, max_rows)
        self._pending: dict[int, list[Row]] = {}

    @staticmethod
    def _canonical(first: dict[int, int], shared: set[int]) -> dict[int, int]:
        """Of a path's distinct variables ``first``, the join variables."""
        return {v: i for v, i in first.items() if v in shared}

    def bind_columns(
        self, pidx: int, cols: tuple[int, ...], feeds: dict[tuple[int, ...], Feed]
    ) -> None:
        """Path ``pidx`` is fed rows whose columns are the slots ``cols``,
        which must include :attr:`var_slots` ``[pidx]``.

        ``feeds`` maps :attr:`var_slots` to :class:`Feed` objects, one dict
        per source of rows (for TRIC, per trie node): the path joins the
        feed stored there under its var_slots, or starts one with its own
        projection and, if it has join partners, its own canonical view.
        Every path fed the same rows with the same var_slots holds the same
        projections, so one view serves them all.  (Only a lone path has
        no join variable, so a feed's paths are all lone or none is.)"""
        slots = self.var_slots[pidx]
        feed = feeds.get(slots)
        if feed is None:
            project = getter(tuple(cols.index(s) for s in slots))
            view = self.canon_views[pidx] if self._partners[pidx] else None
            feed = feeds[slots] = Feed(project, view)
        feed.members.append((self.q.qid, pidx))
        if feed.view is not None:
            self.canon_views[pidx] = feed.view

    def on_path_delta(self, pidx: int, rows: list[Row]) -> bool:
        """Hand a path's non-empty delta as canonical rows, de-duplicated
        and already stored in the path's view; returns True iff they were
        queued for :meth:`finish_update`.

        Nothing is queued while a join partner's view is empty.  The
        partner then held nothing before this update, so every new
        embedding uses one of its rows of this update: its own queued delta
        joins against this path's view, which by then holds these rows."""
        views = self.canon_views
        for j in self._partners[pidx]:
            if not views[j].rows:
                return False
        self._pending.setdefault(pidx, []).extend(rows)
        return True

    def finish_update(self) -> bool:
        """Close the update: join each queued delta with its partners'
        views; returns True iff new full-query embeddings exist."""
        delta_success = False
        for pidx, delta in self._pending.items():
            if self._join(delta, pidx, self._partners[pidx]):
                self.comp_rows[self.path_comp[pidx]] = 1
                delta_success = True
        self._pending.clear()
        return delta_success and all(self.comp_rows)


class FullJoinAssembler(_FinalJoin):
    """INV's and INC's final join for one indexed query, computed in full.

    A path is fed whole slot rows, open walks included: its canonical rows
    are the rows that pass the closure check, projected onto every distinct
    variable of the path (literal slots carry no information: their values
    are fixed by the edge signatures), and its canonical view is a set,
    which :meth:`full_join` reads whole.  :attr:`comp_rows` holds each
    component's row count of its last full join.  Canonical views only
    grow and a join of sets is a set, so a component's row count never
    falls, and it grows exactly when a join from this update's new rows
    would find one: the count is the whole state the decision needs.
    """

    def __init__(self, q, paths, cached, max_rows=MAX_ROWS):
        super().__init__(q, paths, cached, max_rows)
        self._project = [getter(slots) for slots in self.var_slots]
        #: per path: getters of the (left, right) slots whose values must
        #: agree (its ``refs``, the cycle's closure), or None if it closes none
        self._closure: list[Optional[tuple[Getter, Getter]]] = []
        for p in paths:
            pairs = [(r, i + 1) for i, r in enumerate(p.refs) if r is not None]
            if pairs:
                left, right = zip(*pairs)
                self._closure.append((getter(left), getter(right)))
            else:
                self._closure.append(None)

    @staticmethod
    def _canonical(first: dict[int, int], shared: set[int]) -> dict[int, int]:
        """Every distinct variable of a path."""
        return first

    def canon(self, pidx: int, slot_rows: list[Row]) -> list[Row]:
        """Project slot rows onto the path's canonical variables, dropping
        rows whose repeated-vertex positions disagree (cycle closure)."""
        proj = self._project[pidx]
        closure = self._closure[pidx]
        if closure is None:
            return [proj(r) for r in slot_rows]
        left, right = closure
        return [proj(r) for r in slot_rows if left(r) == right(r)]

    def add_rows(self, pidx: int, slot_rows: list[Row]) -> None:
        """Store the canonical rows of slot rows for path ``pidx``;
        :meth:`full_join` then decides the update."""
        self.canon_views[pidx].add_all(self.canon(pidx, slot_rows))

    def full_join(self) -> bool:
        """The final join among all paths, computed in full per component
        from its smallest view (paper §5.1 Step 3); returns True iff new
        full-query embeddings exist: some component's row count grew (it
        never falls) and every component has rows.

        Cross-component products are not materialized."""
        views = self.canon_views
        counts = self.comp_rows
        grew = False
        for c, members in enumerate(self.components):
            first = min(members, key=lambda j: len(views[j].rows))
            n = len(self._join(views[first].rows, first, self._partners[first]))
            if n > counts[c]:
                counts[c] = n
                grew = True
        return grew and all(counts)
