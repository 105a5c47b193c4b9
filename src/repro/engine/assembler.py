"""Per-query final join across covering paths (paper Fig. 9, lines 8–13).

Every engine decomposes queries into covering paths and materializes path
matches somehow (TRIC: shared trie views; INC: per-query increments; INV:
full recomputation; the graph DB bypasses this module).  What is common is
the last step: when a path receives *new* matches, join them with the other
paths' matches **on the query vertices the paths share** ("intersection"
information, §4.1) to decide whether new full-query embeddings appeared.
Paths are grouped into variable-connected components, and a new full-query
embedding exists after an update iff some component gained a join row and
every component has one.  Each path has a *canonical* view, read only by
one greedy join over its component, run once per affected query.

:class:`QueryAssembler` is TRIC's, in the style of Dynamic Yannakakis: it
joins each path delta, projected onto the variables the path shares with
other paths, with its partners' views on arrival.  It owns none of its
views and writes none: each is the view of the trie feed the path ends in
(:class:`~repro.core.trie.Feed`), which the descent fills once per feed,
and ``TricEngine.add_query`` appends it to :attr:`~_FinalJoin.canon_views`.

:class:`FullJoinAssembler` is INV's and INC's: it owns one view per path,
stores there the rows of the path that close its cycles, projected onto
all of its variables, and fires when the full join of a component's
views grows (paper §5.1 Step 3).
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
#: one planned step of a final join: probe key, build key, emit, and the
#: variables of the rows it yields
Step = tuple[tuple[int, ...], tuple[int, ...], Callable[[Row, Row], Row], tuple[int, ...]]


class _FinalJoin:
    """What both final joins of one indexed query share: the paths'
    components and join partners, the variables of each path's canonical
    rows, which a subclass's ``_canonical`` picks from the path's ``first``
    slots, and the greedy join over the paths' :attr:`canon_views`, which
    a subclass provides."""

    #: per path: its canonical view
    canon_views: list[View]

    def __init__(self, q: QueryPattern, paths: list[CoverPath], max_rows: int = MAX_ROWS):
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
        self.partners = [
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
        #: variables of the rows so far -> the paths sharing one of them ->
        #: that step's plan (see :meth:`_steps`)
        self._plans: dict[tuple[int, ...], dict[int, Step]] = {}

    def _steps(self, acc_vars: tuple[int, ...]) -> dict[int, Step]:
        """The steps that can extend rows over ``acc_vars``: each path
        sharing a variable with them, to its probe key, its build key, the
        emit that appends the path's other variables, and the variables of
        the rows it yields.  Planned at the first join that reaches
        ``acc_vars`` and kept, so a join only picks among the steps."""
        steps = self._plans.get(acc_vars)
        if steps is not None:
            return steps
        steps = self._plans[acc_vars] = {}
        for j, path_vars in enumerate(self.path_vars):
            shared = [v for v in path_vars if v in acc_vars]
            if not shared:
                continue
            new_cols = tuple(i for i, v in enumerate(path_vars) if v not in acc_vars)

            def emit(pr: Row, br: Row, tail=getter(new_cols)) -> Row:
                return pr + tail(br)

            steps[j] = (
                tuple(acc_vars.index(v) for v in shared),
                tuple(path_vars.index(v) for v in shared),
                emit,
                acc_vars + tuple(path_vars[c] for c in new_cols),
            )
        return steps

    def _join(self, acc: list[Row], start: int, others: list[int]) -> list[Row]:
        """Join ``acc`` (rows over path ``start``'s variables) with the
        canonical views of ``others`` on the variables they share.

        Each step takes, among the paths sharing a variable with the rows so
        far (one exists by construction of components), the one with the
        smallest view, and joins by the plan :meth:`_steps` keeps.  Returns
        ``[]`` as soon as an intermediate result is empty; raises
        :class:`AssemblyOverflow` past ``max_rows`` — the row-cap analogue
        of the paper's execution-time threshold.
        """
        views = self.canon_views
        acc_vars = self.path_vars[start]
        remaining = set(others)
        while remaining and acc:
            steps = self._steps(acc_vars)
            j = min(
                [j for j in remaining if j in steps], key=lambda x: len(views[x].rows)
            )
            probe_key, build_key, emit, acc_vars = steps[j]
            acc = hash_join(acc, probe_key, views[j], build_key, emit)
            if len(acc) > self.max_rows:
                raise AssemblyOverflow(
                    f"Q{self.q.qid}: cross-path join exceeded {self.max_rows} rows"
                )
            remaining.discard(j)
        return acc


class QueryAssembler(_FinalJoin):
    """TRIC's final join for one indexed query, on path deltas as they arrive.

    Every row fed to a path already closes the path's cycles and stands for
    at least one embedding new with this update.  Canonical rows are
    projections onto the path's *join variables*, the ones it shares with
    another path, with no closure check.  Every other variable occurs in
    that path alone, so the full join is non-empty iff the join of the
    projections is.  The caller projects a path's delta, de-duplicates it
    and stores it in the path's view, which keeps the projections it does
    not hold yet; :meth:`on_path_delta` then joins the whole de-duplicated
    projection with its partners' views at once: a new embedding whose
    projection is already stored still fires.  A path alone in its
    component has no join variable, so its rows project to ``()`` and its
    view stores nothing.  :attr:`comp_rows` marks a component 1 once a
    delta join finds a row.

    :attr:`canon_views` starts empty: the caller appends each path's view,
    in path order, once it has joined the path to the trie feed that
    shares it.
    """

    def __init__(self, q, paths, max_rows=MAX_ROWS):
        super().__init__(q, paths, max_rows)
        self.canon_views = []
        self._hit = False

    @staticmethod
    def _canonical(first: dict[int, int], shared: set[int]) -> dict[int, int]:
        """Of a path's distinct variables ``first``, the join variables."""
        return {v: i for v, i in first.items() if v in shared}

    def on_path_delta(self, pidx: int, rows: list[Row]) -> bool:
        """Join a path's non-empty delta, as canonical rows de-duplicated
        and already stored in the path's view, with its partners' views as
        they stand; returns True iff the join found a row.  TRIC calls it
        only for an armed path, one whose partners' views all hold rows
        (:class:`~repro.core.trie.Feed`); an empty partner view would only
        make the join empty.  Of the paths whose deltas a new embedding
        uses, the last to arrive joins against the others' new rows:
        Graphflow's delta-query order (Ammar et al., PVLDB 2018), ``ΔA ⋈
        B_old ∪ A_new ⋈ ΔB``."""
        if not self._join(rows, pidx, self.partners[pidx]):
            return False
        self.comp_rows[self.path_comp[pidx]] = 1
        self._hit = True
        return True

    def finish_update(self) -> bool:
        """Close the update: returns True iff new full-query embeddings
        exist, that is iff a delta join found a row and every component
        has one."""
        hit, self._hit = self._hit, False
        return hit and all(self.comp_rows)


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
        super().__init__(q, paths, max_rows)
        self.canon_views = [View(cached=cached) for _ in paths]
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
            n = len(self._join(views[first].rows, first, self.partners[first]))
            if n > counts[c]:
                counts[c] = n
                grew = True
        return grew and all(counts)
