"""Per-query final join across covering paths (paper Fig. 9, lines 8–13).

Every engine decomposes queries into covering paths and materializes path
matches somehow (TRIC: shared trie views; INC: per-query increments; INV:
full recomputation; the graph DB bypasses this module).  What is common is
the last step: when a path receives *new* matches, join them with the other
paths' matches **on the query vertices the paths share** ("intersection"
information, §4.1) to decide whether new full-query embeddings appeared.

The assembler keeps, per covering path, a *canonical* view: slot tuples
projected to the path's distinct variable vertices (literal slots carry no
information — their values are fixed by the edge signatures), after checking
within-path consistency of repeated vertices.  That check is where INV and
INC enforce a cycle's closure; TRIC's tries already close each cycle at the
node whose back-reference names the repeated vertex, so TRIC's rows always
pass it.
A canonical view is read only as a join partner of the other paths in its
component, and by INV and INC's full final join.

Paths are grouped into variable-connected components; a component is
*satisfied* monotonically once a cross-path join over it succeeds.  A new
full-query embedding exists after an update iff some component had a
successful delta join this update and all components are satisfied.

One greedy join serves both final-join modes: TRIC starts it from a path's
new rows (delta), INV and INC from a whole canonical view (full).
"""
from __future__ import annotations

from operator import itemgetter
from typing import Callable, Optional

from repro.engine.base import EngineOverflow
from repro.graph.covering import CoverPath
from repro.graph.model import QueryPattern
from repro.relational.relation import Row, View, hash_join


class AssemblyOverflow(EngineOverflow):
    """Cross-path join exceeded the configured row cap."""


Getter = Callable[[Row], Row]


def _getter(cols: tuple[int, ...]) -> Getter:
    """``row -> tuple(row[c] for c in cols)`` as one ``itemgetter`` call; a
    slice for one or zero columns, so the result is always a tuple."""
    if len(cols) > 1:
        return itemgetter(*cols)
    i = cols[0] if cols else 0
    return itemgetter(slice(i, i + len(cols)))


class QueryAssembler:
    """Final-join state machine for one indexed query.

    ``fresh_rows=True`` is the caller's promise that the slot rows fed to
    one path over the whole run are pairwise distinct, as TRIC's trie
    deltas are.  Projection is injective on the rows that pass the closure
    check (literal slots hold values the signatures fix, and every repeated
    variable equals its first slot), so the canonical views then keep no
    duplicate set; and a path alone in its component, which no join reads,
    stores no rows at all.  INV re-derives whole paths and INC can derive
    one row at two chain positions, so they keep the default.
    """

    def __init__(
        self,
        q: QueryPattern,
        paths: list[CoverPath],
        cached: bool,
        max_rows: int = 2_000_000,
        fresh_rows: bool = False,
    ):
        self.q = q
        self.paths = paths
        self.max_rows = max_rows

        # per path: ordered distinct variable vids, the getter projecting a
        # slot row onto their first positions, and the (left, right) getter
        # pair of repeated positions that must agree (None: no repeat)
        self.path_vars: list[tuple[int, ...]] = []
        self._project: list[Getter] = []
        self._closure: list[Optional[tuple[Getter, Getter]]] = []
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
            self.path_vars.append(tuple(first))
            self._project.append(_getter(tuple(first.values())))
            self._closure.append(
                (_getter(tuple(left)), _getter(tuple(right))) if left else None
            )

        self.canon_views = [
            View(cached=cached, distinct=not fresh_rows) for _ in self.path_vars
        ]

        # variable-connected components of paths (union-find)
        parent = list(range(len(paths)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        var_owner: dict[int, int] = {}
        for i, vs in enumerate(self.path_vars):
            for v in vs:
                if v in var_owner:
                    parent[find(i)] = find(var_owner[v])
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
        #: per path: whether its canonical view is kept (read by a join)
        self._stored = [not fresh_rows or bool(ps) for ps in self._partners]

        self._pending: dict[int, list[Row]] = {}

    # ------------------------------------------------------------------
    def canon(self, pidx: int, slot_rows: list[Row]) -> list[Row]:
        """Project slot tuples to the path's variable bindings, dropping rows
        whose repeated-vertex positions disagree (cycle closure)."""
        proj = self._project[pidx]
        closure = self._closure[pidx]
        if closure is None:
            return [proj(r) for r in slot_rows]
        left, right = closure
        return [proj(r) for r in slot_rows if left(r) == right(r)]

    def on_path_delta(self, pidx: int, slot_rows: list[Row]) -> None:
        """Feed newly materialized slot tuples for one covering path."""
        if not slot_rows:
            return
        new = self.canon(pidx, slot_rows)
        if self._stored[pidx]:
            new = self.canon_views[pidx].add_all(new)
        if new:
            self._pending.setdefault(pidx, []).extend(new)

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
        it is wrong for a ``fresh_rows`` assembler, whose lone paths store
        nothing.
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

            def emit(pr: Row, br: Row, tail=_getter(new_cols)) -> Row:
                return pr + tail(br)

            acc = hash_join(acc, probe_key, views[j], build_key, emit)
            if len(acc) > self.max_rows:
                raise AssemblyOverflow(
                    f"Q{self.q.qid}: cross-path join exceeded {self.max_rows} rows"
                )
            acc_vars += [self.path_vars[j][c] for c in new_cols]
            remaining.discard(j)
        return acc
