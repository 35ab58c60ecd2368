import math
import random
import tracemalloc
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

from sepgamma import (Bipartition, Graph, Poly, PreconditionError, classify,
                      complete_bipartite, complete_graph, cut_sum_gamma,
                      cycle_graph, empty_graph, path_graph, suspension_gamma_formula)

from conftest import all_graphs_upto, pair_list, random_graph
from oracles import (Hypergraph, bip, bipartition_of, cut_sum_reference,
                     hypergraph_from_bipartite, hypertrees, interior_poly,
                     interior_tilde_definition, matched_vertex_sets,
                     reorder_hyperedges, row_reduce_tracked, spanning_trees,
                     tilde)


def kirchhoff_count(g: Graph) -> int:
    """Matrix-tree theorem: spanning trees = any cofactor of the Laplacian."""
    lap = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        lap[u - 1][u - 1] += 1
        lap[v - 1][v - 1] += 1
        lap[u - 1][v - 1] -= 1
        lap[v - 1][u - 1] -= 1
    minor = [row[1:] for row in lap[1:]]
    # |det| is the product of the pivots of the echelon form, 0 below full rank
    rank, rows, _ = row_reduce_tracked(minor, g.n - 1)
    if rank < g.n - 1:
        return 0
    return abs(math.prod(rows[i][i] for i in range(g.n - 1)))


class TestSpanningTrees:
    def test_tree_graph_has_one(self):
        assert len(list(spanning_trees(path_graph(4)))) == 1

    def test_cycle_has_n(self):
        assert len(list(spanning_trees(cycle_graph(5)))) == 5

    def test_against_matrix_tree_theorem(self):
        rng = random.Random(61)
        checked = 0
        while checked < 40:
            g = random_graph(rng, rng.randrange(2, 8), rng.uniform(0.4, 1.0))
            if not classify(g).connected:
                continue
            trees = list(spanning_trees(g))
            assert len(trees) == kirchhoff_count(g)
            assert len(set(trees)) == len(trees)
            edges = g.sorted_edges()
            for t in trees[:10]:
                sub = Graph(g.n, frozenset(edges[i] for i in t))
                cls = classify(sub)
                assert cls.connected and cls.forest
            checked += 1

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            list(spanning_trees(empty_graph(2)))


class TestHypergraph:
    def test_bip_examples(self):
        h = Hypergraph.make(2, [{1}, {2}, {1, 2}])
        b = bip(h)
        assert b.n == 5 and b.edge_count == 4
        h2 = Hypergraph.make(2, [{1, 2}])
        b2 = bip(h2)
        assert b2.n == 3 and b2.edge_count == 2

    def test_empty_hyperedge_rejected(self):
        with pytest.raises(PreconditionError):
            Hypergraph.make(2, [{1}, set()])

    def test_from_bipartite_both_sides(self):
        g = complete_bipartite(2, 3)
        cls = classify(g)
        h2 = hypergraph_from_bipartite(g, cls.bipartition, hyperedge_part=2)
        h1 = hypergraph_from_bipartite(g, cls.bipartition, hyperedge_part=1)
        assert h2.v_count == 2 and h2.edge_count == 3
        assert h1.v_count == 3 and h1.edge_count == 2
        assert interior_poly(h1) == interior_poly(h2)


class TestHypertrees:
    def test_tilde_of_single_edge(self):
        g = Graph.make(2, [(1, 2)])
        t = tilde(g, Bipartition(frozenset({1}), frozenset({2})))
        h = hypergraph_from_bipartite(t)
        assert hypertrees(h) == [(0, 1), (1, 0)]

    def test_single_big_hyperedge(self):
        assert hypertrees(Hypergraph.make(3, [{1, 2, 3}])) == [(2,)]

    def test_tree_incidence_single_profile(self):
        h = Hypergraph.make(3, [{1, 2}, {2, 3}])
        assert len(hypertrees(h)) == 1

    def test_profile_sum_invariant(self):
        rng = random.Random(67)
        for _ in range(30):
            n = rng.randrange(2, 6)
            g = random_graph(rng, n, 0.6)
            b = bipartition_of(g)  # tilde needs every vertex placed
            if b is None:
                continue
            t = tilde(g, b)
            h = hypergraph_from_bipartite(t)
            for f in hypertrees(h):
                assert sum(f) == h.v_count - 1
                assert all(x >= 0 for x in f)

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            hypertrees(Hypergraph.make(3, [{1, 2}]))  # vertex 3 isolated


class TestInteriorPoly:
    def test_examples(self):
        g = Graph.make(2, [(1, 2)])
        t = tilde(g, Bipartition(frozenset({1}), frozenset({2})))
        assert interior_poly(hypergraph_from_bipartite(t)) == Poly([1, 1])
        assert interior_poly(Hypergraph.make(3, [{1, 2}, {2, 3}])) == Poly([1])
        assert interior_tilde_definition(cycle_graph(4)) == Poly([1, 4, 1])

    def test_degree_bound(self):
        rng = random.Random(71)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(2, 6), 0.6)
            b = bipartition_of(g)  # tilde needs every vertex placed
            if b is None:
                continue
            t = tilde(g, b)
            h = hypergraph_from_bipartite(t)
            ip = interior_poly(h)
            assert ip.degree <= min(h.v_count, h.edge_count) - 1

    def test_value_at_one_counts_hypertrees(self):
        rng = random.Random(73)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(1, 6), 0.5)
            b = bipartition_of(g)  # tilde needs every vertex placed
            if b is None:
                continue
            t = tilde(g, b)
            h = hypergraph_from_bipartite(t)
            assert interior_poly(h)(1) == len(hypertrees(h))

    def test_order_independence(self):
        rng = random.Random(79)
        cases = [
            hypergraph_from_bipartite(tilde(cycle_graph(4),
                                            classify(cycle_graph(4)).bipartition)),
            hypergraph_from_bipartite(tilde(complete_bipartite(2, 3),
                                            classify(complete_bipartite(2, 3)).bipartition)),
            Hypergraph.make(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}, {1, 3}]),
        ]
        for h in cases:
            base = interior_poly(h)
            k = h.edge_count
            for _ in range(10):
                perm = list(range(k))
                rng.shuffle(perm)
                assert interior_poly(reorder_hyperedges(h, perm)) == base


class TestTildeFast:
    def test_examples(self):
        assert Poly(matched_vertex_sets(Graph.make(2, [(1, 2)]))) == Poly([1, 1])
        assert Poly(matched_vertex_sets(cycle_graph(4))) == Poly([1, 4, 1])
        assert Poly(matched_vertex_sets(empty_graph(2))) == Poly([1])

    def test_matches_definition_all_bipartitions_upto_4(self):
        # every valid bipartition, both hyperedge-side choices
        from itertools import combinations
        for g in all_graphs_upto(4):
            cls = classify(g)
            if not cls.bipartite:
                continue
            fast = Poly(matched_vertex_sets(g))
            verts = list(range(1, g.n + 1))
            for r in range(g.n + 1):
                for part1 in combinations(verts, r):
                    b = Bipartition(frozenset(part1),
                                    frozenset(verts) - frozenset(part1))
                    try:
                        from oracles import check_bipartition
                        check_bipartition(g, b)
                    except PreconditionError:
                        continue
                    for side in (1, 2):
                        assert interior_tilde_definition(
                            g, b, hyperedge_part=side) == fast


@st.composite
def grouped_graphs(draw, max_n):
    """A graph on 1..n, n <= max_n, whose vertices fall in up to three
    groups with edges only inside a group, and some in no group: so it may
    have several components, whose cuts repeat edge sets, and isolated
    vertices."""
    n = draw(st.integers(1, max_n))
    group = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return Graph.make(n, [(u, v) for u, v in pair_list(n)
                          if group[u - 1] == group[v - 1] != 0
                          and draw(st.booleans())])


class TestCutSum:
    def test_examples(self):
        assert cut_sum_gamma(Graph.make(2, [(1, 2)])) == Poly([1, 2])
        assert cut_sum_gamma(cycle_graph(4)) == Poly([1, 8, 6])
        assert cut_sum_gamma(empty_graph(1)) == Poly([1])

    def test_complete_graphs_closed_form(self):
        # gamma_k of the suspension of K_n is C(n, 2k) C(2k, k)
        for n in range(8, 14):
            assert cut_sum_gamma(complete_graph(n)).coeff_list() == \
                [math.comb(n, 2 * k) * math.comb(2 * k, k) for k in range(n // 2 + 1)]

    def test_matches_formula_on_random_qualifying(self):
        rng = random.Random(83)
        checked = 0
        while checked < 40:
            g = random_graph(rng, rng.randrange(1, 7), rng.random())
            if not classify(g).unique_even_cycle_condition:
                continue
            assert cut_sum_gamma(g) == suspension_gamma_formula(g)
            checked += 1

    def test_guards(self):
        from sepgamma import BoundExceededError
        with pytest.raises(PreconditionError):
            cut_sum_gamma(empty_graph(0))
        with pytest.raises(BoundExceededError):
            cut_sum_gamma(empty_graph(21))

    def test_walk_equals_cut_by_cut_loop(self, atlas7):
        for g in chain(all_graphs_upto(5), atlas7):
            assert cut_sum_gamma(g) == cut_sum_reference(g), g

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(grouped_graphs(11))
    @example(empty_graph(1))
    @example(Graph.make(11, [(1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (8, 9)]))
    @example(empty_graph(11))  # no shift: each cut keeps only the empty set
    @example(Graph.make(11, [(2, 3), (3, 4), (2, 4), (5, 6), (6, 7), (7, 8),
                             (5, 8), (9, 10), (10, 11)]))  # vertex 1 isolated
    @example(Graph.make(11, [(10, 11)]))  # the top miss mask alone
    def test_walk_equals_cut_by_cut_loop_on_random_graphs(self, g):
        assert cut_sum_gamma(g) == cut_sum_reference(g), g

    def test_memory_follows_one_path_of_the_walk(self):
        # The walk holds the bitmaps of one root-to-leaf path and n counter
        # slices, never one bitmap per cut.  At the tracemalloc peak: 6 kB
        # on K10, where building the list of all 512 crossing graphs first
        # took 1.15 MB; 0.39 MB on C16, where one 8 kB leaf bitmap per cut
        # would take 268 MB.
        for g, limit in ((complete_graph(10), 250_000),
                         (cycle_graph(16), 1_000_000)):
            tracemalloc.start()
            try:
                cut_sum_gamma(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit, g
