"""Brute-force reference matcher — hand-computed toy cases (the oracle for
the oracle)."""
from repro.graph.bruteforce import embeddings, first_match_index, is_satisfied
from repro.graph.model import QueryPattern, Triple

G = [
    Triple("a", "knows", "b"),
    Triple("b", "knows", "c"),
    Triple("a", "likes", "p1"),
    Triple("b", "likes", "p1"),
]


class TestEmbeddings:
    def test_single_edge_all_bindings(self):
        q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "knows", 1)])
        assert embeddings(q, G) == [("a", "b"), ("b", "c")]

    def test_chain(self):
        q = QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "knows", 1), (1, "knows", 2)]
        )
        assert embeddings(q, G) == [("a", "b", "c")]

    def test_literal_constraints(self):
        q = QueryPattern(qid=0, vertices=[None, "p1"], edges=[(0, "likes", 1)])
        assert embeddings(q, G) == [("a", "p1"), ("b", "p1")]

    def test_join_on_shared_variable(self):
        # ?x knows ?y, ?x likes p1, ?y likes p1  -> only (a, b)
        q = QueryPattern(
            qid=0,
            vertices=[None, None, "p1"],
            edges=[(0, "knows", 1), (0, "likes", 2), (1, "likes", 2)],
        )
        assert embeddings(q, G) == [("a", "b", "p1")]

    def test_no_match(self):
        q = QueryPattern(qid=0, vertices=["zz", None], edges=[(0, "knows", 1)])
        assert embeddings(q, G) == []
        assert not is_satisfied(q, G)

    def test_homomorphism_allows_same_vertex_for_two_vars(self):
        g = [Triple("a", "p", "a")]
        q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "p", 1)])
        assert embeddings(q, g) == [("a", "a")]

    def test_self_loop_edge_needs_self_loop_triple(self):
        q = QueryPattern(qid=0, vertices=[None], edges=[(0, "p", 0)])
        g = [Triple("a", "p", "b"), Triple("c", "p", "c")]
        assert embeddings(q, g) == [("c",)]
        assert first_match_index(q, g) == 1


class TestFirstMatch:
    def test_last_edge_completes(self):
        q = QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "knows", 1), (1, "knows", 2)]
        )
        assert first_match_index(q, G) == 1  # completed by update #1

    def test_never_matched_is_none(self):
        q = QueryPattern(qid=0, vertices=["zz", None], edges=[(0, "knows", 1)])
        assert first_match_index(q, G) is None

    def test_earliest_embedding_wins(self):
        q = QueryPattern(qid=0, vertices=[None, "p1"], edges=[(0, "likes", 1)])
        assert first_match_index(q, G) == 2  # a-likes-p1 arrives at t=2

    def test_duplicate_triples_use_first_arrival(self):
        g = [Triple("a", "p", "b"), Triple("a", "p", "b")]
        q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "p", 1)])
        assert first_match_index(q, g) == 0
