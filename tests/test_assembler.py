"""The final joins: canonicalization, cycle closure, components, and the
two assemblers: in full (FullJoinAssembler: INV, INC) and over queued
deltas (QueryAssembler: TRIC)."""
import random

import pytest

from repro.engine.assembler import AssemblyOverflow, FullJoinAssembler, QueryAssembler
from repro.engine.base import MAX_ROWS
from repro.graph.covering import covering_paths
from repro.graph.model import QueryPattern
from repro.relational.relation import getter


def make(q, cached=False, max_rows=MAX_ROWS, cls=FullJoinAssembler):
    paths = covering_paths(q)
    return cls(q, paths, cached, max_rows), paths


def hand(asm, pidx, rows):
    """Hand path ``pidx`` of TRIC's assembler a delta of fed rows the way
    TRIC's descent does: project it, de-duplicate it and store it in the
    path's view, then pass the projections to ``on_path_delta``."""
    new = list(dict.fromkeys(map(getter(asm.var_slots[pidx]), rows)))
    if asm._partners[pidx]:
        asm.canon_views[pidx].add_all(new)
    return asm.on_path_delta(pidx, new)


def hand_node(asm, feeds, rows):
    """Hand one trie node's delta to every path of ``asm`` in ``feeds`` (as
    filled by ``bind_columns``) the way TRIC's descent does: one
    projection and one store per feed, then ``on_path_delta`` per member;
    returns ``{pidx: queued}``."""
    queued = {}
    for feed in feeds.values():
        new = list(dict.fromkeys(feed.project(r) for r in rows))
        if feed.view is not None:
            feed.view.add_all(new)
        for _, pidx in feed.members:
            queued[pidx] = asm.on_path_delta(pidx, new)
    return queued


class TestCanon:
    def test_projects_out_literal_slots(self):
        q = QueryPattern(
            qid=0, vertices=[None, "L", None], edges=[(0, "a", 1), (1, "b", 2)]
        )
        asm, paths = make(q)
        assert asm.path_vars[0] == (0, 2)
        rows = asm.canon(0, [("x", "L", "y")])
        assert rows == [("x", "y")]

    def test_cycle_closure_filters_inconsistent_rows(self):
        # 2-cycle: v0 -a-> v1 -b-> v0; single covering path revisits v0
        q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "a", 1), (1, "b", 0)])
        asm, paths = make(q)
        assert paths[0].slots == (0, 1, 0)
        assert asm.canon(0, [("x", "y", "x")]) == [("x", "y")]
        assert asm.canon(0, [("x", "y", "z")]) == []  # closure violated

    def test_all_literal_path_canon_is_unit(self):
        q = QueryPattern(qid=0, vertices=["A", "B"], edges=[(0, "a", 1)])
        asm, _ = make(q)
        assert asm.canon(0, [("A", "B")]) == [()]

    @staticmethod
    def reference_canon(q, path, rows):
        """Per-row projection: first occurrence of each variable binds it, a
        later occurrence with another value drops the row."""
        out = []
        for r in rows:
            binding = {}
            if all(
                binding.setdefault(vid, r[i]) == r[i]
                for i, vid in enumerate(path.slots)
                if q.vertices[vid] is None
            ):
                out.append(tuple(binding.values()))
        return out

    @pytest.mark.parametrize(
        "vertices, edges, slots",
        [
            # one variable: canonical rows are 1-tuples, not bare values
            ([None, "L"], [(0, "a", 1)], (0, 1)),
            # multigraph walk 0->1->0->1: two independent closure checks
            ([None, None], [(0, "a", 1), (1, "b", 0), (0, "c", 1)], (0, 1, 0, 1)),
            # vertex 0 occurs three times
            (
                [None, None, None],
                [(0, "a", 1), (1, "b", 0), (0, "c", 2), (2, "d", 0)],
                (0, 1, 0, 2, 0),
            ),
            # a repeated literal is not checked, a repeated variable is
            (
                ["X", None, None],
                [(0, "a", 1), (1, "b", 2), (2, "c", 1), (1, "d", 0)],
                (0, 1, 2, 1, 0),
            ),
        ],
    )
    def test_matches_per_row_reference(self, vertices, edges, slots):
        q = QueryPattern(qid=0, vertices=vertices, edges=edges)
        asm, paths = make(q)
        assert [p.slots for p in paths] == [slots]
        rng = random.Random(len(slots))
        rows = [tuple(rng.choice("xyz") for _ in slots) for _ in range(500)]
        got = asm.canon(0, rows)
        assert got == self.reference_canon(q, paths[0], rows)
        assert all(type(r) is tuple for r in got)
        assert {len(r) for r in got} == {len(asm.path_vars[0])}
        if len(set(slots)) < len(slots):
            assert 0 < len(got) < len(rows)  # the closure keeps some, drops some


class TestComponents:
    def test_single_path_single_component(self):
        q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "a", 1)])
        asm, _ = make(q)
        assert len(asm.components) == 1

    def test_var_disjoint_paths_split_components(self):
        # two paths joined only through the literal vertex they both enter
        q = QueryPattern(
            qid=0,
            vertices=[None, "M", None],
            edges=[(0, "a", 1), (2, "b", 1)],
        )
        asm, paths = make(q)
        assert len(paths) == 2
        assert len(asm.components) == 2

    def test_shared_var_merges_components(self):
        # star: ?c -a-> X, ?c -b-> Y : two paths sharing variable 0
        q = QueryPattern(
            qid=0, vertices=[None, "X", "Y"], edges=[(0, "a", 1), (0, "b", 2)]
        )
        asm, paths = make(q)
        assert len(paths) == 2
        assert len(asm.components) == 1


class Pair:
    """A full-join assembler (INV, INC) and a delta one (TRIC) fed
    the same fresh rows: :meth:`step` feeds one update to both and returns
    the verdict they must share."""

    def __init__(self, q, cached=False):
        self.full, self.paths = make(q, cached)
        self.delta, _ = make(q, cached, cls=QueryAssembler)

    def step(self, *feeds):
        for pidx, rows in feeds:
            self.full.add_rows(pidx, rows)
            hand(self.delta, pidx, rows)
        fired = self.full.full_join()
        assert self.delta.finish_update() is fired
        return fired


class TestDeltaSemantics:
    def star(self):
        return QueryPattern(
            qid=0, vertices=[None, "X", "Y"], edges=[(0, "a", 1), (0, "b", 2)]
        )

    def test_no_delta_no_emit(self):
        assert Pair(self.star()).step() is False

    def test_partial_paths_do_not_emit(self):
        assert Pair(self.star()).step((0, [("c1", "X")])) is False

    def test_emits_when_all_paths_join(self):
        pair = Pair(self.star())
        pair.step((0, [("c1", "X")]))
        assert pair.step((1, [("c1", "Y")])) is True

    def test_join_on_shared_var_enforced(self):
        pair = Pair(self.star())
        pair.step((0, [("c1", "X")]))
        assert pair.step((1, [("c2", "Y")])) is False  # different center

    def test_duplicate_slot_rows_do_not_reemit(self):
        # a repeated row is outside TRIC's contract: full join only
        q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "a", 1)])
        asm, _ = make(q)
        asm.add_rows(0, [("x", "y")])
        assert asm.full_join() is True
        asm.add_rows(0, [("x", "y")])
        assert asm.full_join() is False

    def test_disjoint_components_emit_when_both_satisfied(self):
        q = QueryPattern(
            qid=0, vertices=[None, "M", None], edges=[(0, "a", 1), (2, "b", 1)]
        )
        pair = Pair(q)
        assert [p.slots for p in pair.paths] == [(0, 1), (2, 1)]
        assert pair.step((0, [("x", "M")])) is False  # other component unsatisfied
        assert pair.step((1, [("y", "M")])) is True

    @pytest.mark.parametrize("cached", [False, True])
    def test_cached_equals_uncached(self, cached):
        q = QueryPattern(
            qid=0,
            vertices=[None, None, None],
            edges=[(0, "a", 1), (1, "b", 2), (0, "c", 2)],
        )
        pair = Pair(q, cached=cached)
        paths = pair.paths
        emits = []
        seq = [
            (0, [("u", "v", "w")]),
            (1, [("u", "w")]),
            (0, [("u2", "v2", "w2")]),
            (1, [("u2", "w2")]),
        ]
        # map seq path indexes onto actual extracted paths by length
        by_len = sorted(range(len(paths)), key=lambda i: -len(paths[i]))
        for pidx, rows in seq:
            # rows sized for: path0 = 2 edges (3 slots), path1 = 1 edge (2 slots)
            target = by_len[0] if len(rows[0]) == 3 else by_len[-1]
            emits.append(pair.step((target, rows)))
        assert emits == [False, True, False, True]


class TestFullJoin:
    def test_counts_rows(self):
        q = QueryPattern(
            qid=0, vertices=[None, "X", "Y"], edges=[(0, "a", 1), (0, "b", 2)]
        )
        asm, _ = make(q)
        asm.add_rows(0, [("c1", "X"), ("c2", "X")])
        asm.add_rows(1, [("c1", "Y")])
        assert asm.full_join() is True
        assert asm.comp_rows == [1]

    def test_empty_path_prunes(self):
        q = QueryPattern(
            qid=0, vertices=[None, "X", "Y"], edges=[(0, "a", 1), (0, "b", 2)]
        )
        asm, _ = make(q)
        asm.add_rows(0, [("c1", "X")])
        assert asm.full_join() is False
        assert asm.comp_rows == [0]

    def test_delta_join_overflow_raises(self):
        # projected rows of the three paths: (v1,), (v1, v2), (v2,); a
        # delta on the first path fans out through the middle one
        q = TestNonAdjacentPaths().query()
        asm, _ = make(q, max_rows=10, cls=QueryAssembler)
        hand(asm, 2, [("z", "y0")])
        hand(asm, 1, [("m", f"y{i}") for i in range(20)])
        asm.finish_update()
        hand(asm, 0, [("m", "w")])
        with pytest.raises(AssemblyOverflow):
            asm.finish_update()

    def test_full_join_overflow_raises(self):
        # star on shared center variable: 20 x 20 join rows >> cap
        q = QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "a", 1), (0, "b", 2)]
        )
        asm, _ = make(q, max_rows=10)
        asm.add_rows(0, [("m", f"x{i}") for i in range(20)])
        asm.add_rows(1, [("m", f"y{i}") for i in range(20)])
        with pytest.raises(AssemblyOverflow):
            asm.full_join()


class TestNonAdjacentPaths:
    """Three paths where the first and the last share no variable: every
    join order must go through the middle path, in both final-join modes."""

    def query(self):
        # v1 -a-> v0, v1 -b-> v2, v3 -c-> v2
        return QueryPattern(
            qid=0,
            vertices=[None, None, None, None],
            edges=[(1, "a", 0), (1, "b", 2), (3, "c", 2)],
        )

    @staticmethod
    def hand_join(a, b, c):
        return {
            (v0, v1, v2, v3)
            for v1, v0 in a
            for b1, v2 in b
            if b1 == v1
            for v3, c2 in c
            if c2 == v2
        }

    @pytest.mark.parametrize("cached", [False, True])
    def test_delta_and_full_join_equal_hand_join(self, cached):
        # row cap 3: joining the first and last paths directly (a cross
        # product of 1 x 5 rows in step 3) would overflow
        full, paths = make(self.query(), cached=cached, max_rows=3)
        delta, _ = make(self.query(), cached=cached, max_rows=3, cls=QueryAssembler)
        assert [p.slots for p in paths] == [(1, 0), (1, 2), (3, 2)]
        views = ([], [], [])
        steps = [
            (1, [(f"x{i}", f"y{i}") for i in range(1, 7)]),
            (2, [("z1", "y1"), ("z2", "y1"), ("z3", "y2"), ("z4", "y9"), ("z5", "y9")]),
            (0, [("x1", "w1")]),
            (0, [("x6", "w2")]),
            (2, [("z6", "y6")]),
        ]
        fired, sizes = [], []
        for pidx, rows in steps:
            before = self.hand_join(*views)
            views[pidx].extend(rows)
            after = self.hand_join(*views)
            full.add_rows(pidx, rows)
            hand(delta, pidx, rows)
            assert full.full_join() is bool(after - before)
            assert full.comp_rows == [len(after)]
            assert delta.finish_update() is bool(after - before)
            fired.append(bool(after - before))
            sizes.append(len(after))
        assert fired == [False, False, True, False, True]
        assert sizes == [0, 0, 2, 2, 3]


class TestFreshRows:
    """TRIC's assembler (whose contract is that every row fed to a path
    closes its cycles and stands for an embedding new with the update)
    fires its delta join on exactly the updates where a full-join
    assembler's full join grows, stores per path the full join's canonical
    rows projected onto the join variables, and stores nothing for a lone
    path."""

    QUERIES = {
        "lone path": QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "a", 1), (1, "b", 2)]
        ),
        "two-path component": QueryPattern(
            qid=0, vertices=[None, "X", None], edges=[(0, "a", 1), (0, "b", 2)]
        ),
        "closure path": QueryPattern(
            qid=0, vertices=[None, None], edges=[(0, "a", 1), (1, "b", 0)]
        ),
    }

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_fires_like_default(self, kind, cached):
        q = self.QUERIES[kind]
        paths = covering_paths(q)
        plain = FullJoinAssembler(q, paths, cached)
        tric = QueryAssembler(q, paths, cached)
        rng = random.Random(kind)
        fed = [set() for _ in paths]
        fired = []
        for _ in range(60):
            pidx = rng.randrange(len(paths))
            rows = []
            for _ in range(rng.randint(1, 3)):
                bind = [lit or rng.choice("uvwxy") for lit in q.vertices]
                r = tuple(bind[v] for v in paths[pidx].slots)  # closes cycles
                if r not in fed[pidx]:  # fresh: never fed to this path before
                    fed[pidx].add(r)
                    rows.append(r)
            plain.add_rows(pidx, rows)
            if rows:  # TRIC feeds only non-empty deltas
                hand(tric, pidx, rows)
            fired.append(plain.full_join())
            assert tric.finish_update() is fired[-1], kind
        assert True in fired and False in fired  # both outcomes exercised
        for pidx, v in enumerate(tric.canon_views):
            if len(tric.components[tric.path_comp[pidx]]) > 1:
                full_vars = plain.path_vars[pidx]
                cols = [full_vars.index(x) for x in tric.path_vars[pidx]]
                want = {tuple(r[c] for c in cols) for r in plain.canon_views[pidx].rows}
                assert set(v.rows) == want
                assert len(v) <= len(plain.canon_views[pidx])
            else:
                assert tric.path_vars[pidx] == ()
                assert len(v) == 0 < len(plain.canon_views[pidx])

    def test_bound_columns(self):
        """Rows narrower than slot rows are read through ``bind_columns``."""
        q = self.QUERIES["two-path component"]
        paths = covering_paths(q)
        asm = QueryAssembler(q, paths, False)
        assert asm.var_slots == [(0,), (0,)]
        asm.bind_columns(0, (0,), {})
        asm.bind_columns(1, (0, 1), {})
        hand(asm, 0, [("c",)])
        assert asm.finish_update() is False
        hand(asm, 1, [("c", "X"), ("d", "X")])
        assert asm.finish_update() is True
        assert sorted(asm.canon_views[1].rows) == [("c",), ("d",)]


class TestEmptyPartner:
    """TRIC's assembler queues no delta while a join partner's view is
    empty: the partner's own later delta of the same update joins against
    this path's view, which already holds the new rows.  That holds for
    partners registered at one trie node too, whose rows are stored once
    per feed before any of them is handed on."""

    STAR2 = QueryPattern(
        qid=0, vertices=[None, "X", "Y"], edges=[(0, "a", 1), (0, "b", 2)]
    )
    STAR3 = QueryPattern(
        qid=0,
        vertices=[None, "X", "Y", "Z"],
        edges=[(0, "a", 1), (0, "b", 2), (0, "c", 3)],
    )

    @staticmethod
    def rows(q, pidx, center):
        paths = covering_paths(q)
        bind = [v or center for v in q.vertices]
        return [tuple(bind[v] for v in paths[pidx].slots)]

    @pytest.mark.parametrize("first", [0, 1])
    def test_first_rows_of_both_paths_in_one_update(self, first):
        q = self.STAR2
        asm = QueryAssembler(q, covering_paths(q), False)
        later = 1 - first
        assert hand(asm, first, self.rows(q, first, "c")) is False
        assert hand(asm, later, self.rows(q, later, "c")) is True
        assert asm.finish_update() is True
        assert asm.finish_update() is False  # nothing left queued
        assert all(len(v) == 1 for v in asm.canon_views)

    def test_partner_already_non_empty_queues(self):
        q = self.STAR2
        asm = QueryAssembler(q, covering_paths(q), False)
        assert hand(asm, 1, self.rows(q, 1, "c")) is False
        assert asm.finish_update() is False
        assert hand(asm, 0, self.rows(q, 0, "c")) is True
        assert asm.finish_update() is True

    def test_three_paths_empty_partner_arrives_later(self):
        q = self.STAR3
        paths = covering_paths(q)
        assert len(paths) == 3
        asm = QueryAssembler(q, paths, False)
        assert hand(asm, 2, self.rows(q, 2, "c")) is False  # C
        assert asm.finish_update() is False
        # one update: A while B is empty and C is not, then B
        assert hand(asm, 0, self.rows(q, 0, "c")) is False
        assert hand(asm, 1, self.rows(q, 1, "c")) is True
        assert asm.finish_update() is True

    #: ?c -a-> ?x and ?c -a-> ?y: both paths end at one trie node and read
    #: its rows through the same join slot, so they form one feed
    ONE_FEED = QueryPattern(
        qid=0, vertices=[None, None, None], edges=[(0, "a", 1), (0, "a", 2)]
    )
    #: the same two paths, but ?y also meets ?d -b-> ?y: they read the node
    #: through different join slots, so they form two feeds
    TWO_FEEDS = QueryPattern(
        qid=0,
        vertices=[None, None, None, None],
        edges=[(0, "a", 1), (0, "a", 2), (3, "b", 2)],
    )

    @pytest.mark.parametrize("cached", [False, True])
    def test_partners_at_one_node_share_a_feed_and_fire_once(self, cached):
        q = self.ONE_FEED
        paths = covering_paths(q)
        assert [p.chain for p in paths] == [(("a", None, None),)] * 2
        asm = QueryAssembler(q, paths, cached)
        feeds = {}
        for pidx in (0, 1):
            asm.bind_columns(pidx, (0, 1), feeds)
        (feed,) = feeds.values()
        assert feed.members == [(0, 0), (0, 1)]
        assert asm.canon_views[0] is asm.canon_views[1] is feed.view
        # one update gives both paths their first rows
        assert hand_node(asm, feeds, [("c", "x")]) == {0: True, 1: True}
        assert asm.finish_update() is True
        assert asm.finish_update() is False  # fired once, nothing left queued
        assert feed.view.rows == [("c",)]

    @pytest.mark.parametrize("cached", [False, True])
    def test_partners_at_one_node_in_two_feeds_fire_once(self, cached):
        q = self.TWO_FEEDS
        paths = covering_paths(q)
        assert [p.slots for p in paths] == [(0, 1), (0, 2), (3, 2)]
        asm = QueryAssembler(q, paths, cached)
        feeds = {}
        for pidx in (0, 1):
            asm.bind_columns(pidx, (0, 1), feeds)
        assert [f.members for f in feeds.values()] == [[(0, 0)], [(0, 1)]]
        assert asm.canon_views[0] is not asm.canon_views[1]
        assert hand(asm, 2, [("d", "x")]) is False
        assert asm.finish_update() is False
        # one update gives both paths at the node their first rows: the
        # first feed's path waits for the second's, which queues
        assert hand_node(asm, feeds, [("c", "x")]) == {0: False, 1: True}
        assert asm.finish_update() is True
        assert asm.finish_update() is False
