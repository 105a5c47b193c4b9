"""Per-query final join across covering paths (paper Fig. 9, lines 8–13).

Every engine decomposes queries into covering paths and materializes path
matches somehow (TRIC: shared trie views; INC: per-query increments; INV:
full recomputation; the graph DB bypasses this module).  What is common is
the last step: when a path receives *new* matches, join them with the other
paths' matches **on the query vertices the paths share** ("intersection"
information, §4.1) to decide whether new full-query embeddings appeared.

The assembler keeps, per covering path, a *canonical* view.  For INV and
INC it holds slot tuples projected to the path's distinct variable vertices
(literal slots carry no information — their values are fixed by the edge
signatures), after checking within-path consistency of repeated vertices;
that check is where they enforce a cycle's closure.  TRIC's tries already
close each cycle at the node whose back-reference names the repeated
vertex, and an event only asks whether a new embedding exists, so for TRIC
the view holds projections onto the variables the path shares with other
paths (``projected=True``).
A canonical view is read only as a join partner of the other paths in its
component, and by INV and INC's full final join.

Paths are grouped into variable-connected components; a component is
*satisfied* monotonically once a cross-path join over it succeeds.  A new
full-query embedding exists after an update iff some component had a
successful delta join this update and all components are satisfied.
For TRIC a path's delta is queued for that join only if every join
partner's view is non-empty: a partner still empty gets its first rows in
this update or none, and its own delta then joins against this path's
stored rows.  TRIC's paths that read the same trie node's rows through the
same slots share one canonical view (:meth:`QueryAssembler.bind_columns`).

One greedy join serves both final-join modes: TRIC starts it from a path's
new rows (delta), INV and INC from a whole canonical view (full).
"""
from __future__ import annotations

from typing import Callable, Optional

from repro.engine.base import EngineOverflow
from repro.graph.covering import CoverPath
from repro.graph.model import QueryPattern
from repro.relational.relation import Row, View, getter, hash_join


class AssemblyOverflow(EngineOverflow):
    """Cross-path join exceeded the configured row cap."""


Getter = Callable[[Row], Row]


class QueryAssembler:
    """Final-join state machine for one indexed query.

    By default (INV, INC) a path is fed whole slot rows, open walks
    included: its canonical rows are the rows that pass the closure check,
    projected onto every distinct variable of the path, its canonical view
    is a set, and only the rows new to that view are queued for the join.

    ``projected=True`` (TRIC) is the caller's promise that every row fed to
    a path already closes the path's cycles and stands for at least one
    embedding new with this update.  Canonical rows are then projections
    onto the path's *join variables*, the ones it shares with another path,
    with no closure check.  Every other variable occurs in that path alone,
    so the full join is non-empty iff the join of the projections is.  A
    view stores the projections it does not hold yet, but the whole
    de-duplicated delta is queued, unless a join partner's view is empty:
    a new embedding whose projection is already stored still fires.  A
    path alone in its component has no join variable, so its rows project
    to ``()`` and its view stores nothing.  The caller may feed rows
    narrower than slot rows, and share one view among paths fed the same
    rows, after :meth:`bind_columns` names their columns.
    """

    def __init__(
        self,
        q: QueryPattern,
        paths: list[CoverPath],
        cached: bool,
        max_rows: int = 2_000_000,
        projected: bool = False,
    ):
        self.q = q
        self.paths = paths
        self.max_rows = max_rows
        self.projected = projected

        # per path: the first slot of each distinct variable, in path order,
        # and the (left, right) slot lists of repeated positions that must
        # agree (the cycle's closure)
        firsts: list[dict[int, int]] = []
        repeats: list[tuple[list[int], list[int]]] = []
        for p in paths:
            first: dict[int, int] = {}
            left: list[int] = []
            right: list[int] = []
            for i, vid in enumerate(p.slots):
                if q.vertices[vid] is not None:
                    continue  # literal slot: value fixed by signature
                if vid in first:
                    left.append(first[vid])
                    right.append(i)
                else:
                    first[vid] = i
            firsts.append(first)
            repeats.append((left, right))

        # variable-connected components of paths (union-find)
        parent = list(range(len(paths)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        var_owner: dict[int, int] = {}
        shared: set[int] = set()
        for i, first in enumerate(firsts):
            for v in first:
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
        self.comp_satisfied = [False] * len(self.components)

        #: per path: the variables of its canonical rows, and the slot each
        #: is read from
        self.path_vars: list[tuple[int, ...]] = []
        self.var_slots: list[tuple[int, ...]] = []
        self._project: list[Getter] = []
        self._closure: list[Optional[tuple[Getter, Getter]]] = []
        for first, (left, right) in zip(firsts, repeats):
            if projected:
                first = {v: i for v, i in first.items() if v in shared}
            self.path_vars.append(tuple(first))
            self.var_slots.append(tuple(first.values()))
            self._project.append(getter(self.var_slots[-1]))
            self._closure.append(
                (getter(tuple(left)), getter(tuple(right)))
                if left and not projected
                else None
            )

        self.canon_views = [View(cached=cached) for _ in self.path_vars]
        self._pending: dict[int, list[Row]] = {}

    def bind_columns(
        self, pidx: int, cols: tuple[int, ...], shared: dict[tuple[int, ...], View]
    ) -> None:
        """Path ``pidx`` is fed rows whose columns are the slots ``cols``,
        which must include :attr:`var_slots` ``[pidx]``.

        ``shared`` maps :attr:`var_slots` to canonical views, one dict per
        source of rows (for TRIC, per trie node): a path with join partners
        adopts the view stored there under its var_slots, or stores its
        own.  Every path fed the same rows with the same var_slots holds
        the same projections, so one view serves them all."""
        slots = self.var_slots[pidx]
        self._project[pidx] = getter(tuple(cols.index(s) for s in slots))
        if self._partners[pidx]:
            self.canon_views[pidx] = shared.setdefault(slots, self.canon_views[pidx])

    # ------------------------------------------------------------------
    def canon(self, pidx: int, slot_rows: list[Row]) -> list[Row]:
        """Project fed rows onto the path's canonical variables, dropping
        rows whose repeated-vertex positions disagree (cycle closure; not
        checked when ``projected``)."""
        proj = self._project[pidx]
        closure = self._closure[pidx]
        if closure is None:
            return [proj(r) for r in slot_rows]
        left, right = closure
        return [proj(r) for r in slot_rows if left(r) == right(r)]

    def on_path_delta(self, pidx: int, slot_rows: list[Row]) -> bool:
        """Feed newly materialized slot tuples for one covering path;
        returns True iff rows were queued for :meth:`finish_update`.

        When ``projected``, the path's new projections are stored, but
        nothing is queued while a join partner's view is empty.  The
        partner then held nothing before this update, so every new
        embedding uses one of its rows of this update: its own queued
        delta joins against this path's view, which by then holds these
        rows."""
        if not slot_rows:
            return False
        new = self.canon(pidx, slot_rows)
        if not self.projected:
            new = self.canon_views[pidx].add_all(new)
        else:
            if len(new) > 1:
                new = list(dict.fromkeys(new))
            partners = self._partners[pidx]
            if partners:
                views = self.canon_views
                views[pidx].add_all(new)
                for j in partners:
                    if not views[j]:
                        return False
        if not new:
            return False
        self._pending.setdefault(pidx, []).extend(new)
        return True

    def finish_update(self) -> bool:
        """Close the update: returns True iff new full-query embeddings exist."""
        if not self._pending:
            return False
        delta_success = False
        for pidx, delta in self._pending.items():
            if self._join(delta, pidx, self._partners[pidx]):
                self.comp_satisfied[self.path_comp[pidx]] = True
                delta_success = True
        self._pending.clear()
        return delta_success and all(self.comp_satisfied)

    def full_join_rows(self) -> int:
        """Full (non-delta) cross-path join over all canonical views — the
        final-join work INV and INC perform per affected query (paper §5.1
        Step 3: "performs the final join operation among all the paths").

        Joins run per variable-connected component, each starting from its
        smallest view (cross-component products are not materialized);
        returns the number of result rows computed.  It reads every view, so
        it is wrong for a ``projected`` assembler, whose lone paths store
        nothing and whose views hold projections.
        """
        views = self.canon_views
        total = 0
        for members in self.components:
            first = min(members, key=lambda j: len(views[j]))
            total += len(self._join(views[first].rows, first, self._partners[first]))
        return total

    def _join(self, acc: list[Row], start: int, others: list[int]) -> list[Row]:
        """Join ``acc`` (rows over path ``start``'s variables) with the
        canonical views of ``others`` on the variables they share.

        Each step takes, among the paths sharing a variable with the rows so
        far (one exists by construction of components), the one with the
        smallest view.  Returns ``[]`` as soon as a partner is empty or an
        intermediate result is; raises :class:`AssemblyOverflow` past
        ``max_rows`` — the row-cap analogue of the paper's execution-time
        threshold.
        """
        views = self.canon_views
        if any(len(views[j]) == 0 for j in others):
            return []
        acc_vars = list(self.path_vars[start])
        remaining = set(others)
        while remaining and acc:
            cands = [
                j for j in remaining if any(v in acc_vars for v in self.path_vars[j])
            ]
            j = min(cands, key=lambda x: len(views[x]))
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
