import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sepgamma import (Graph, Poly, PreconditionError, classify, complete_graph,
                      cycle_graph, empty_graph, gen_poly, independence_poly,
                      is_real_rooted, line_graph, matched_vertex_sets,
                      matched_vertex_sets_formula, matching_counts,
                      matching_poly, matching_profile, mu_poly, path_graph,
                      star_graph, suspension_gamma_formula, tiling_poly)

from conftest import all_graphs_upto, random_graph
from oracles import (gen_poly_reference, matched_sets_reference,
                     mu_poly_reference, suspension_gamma_reference)


def cactus_edges(draw_int, n):
    """Edges of a cactus on 1..n: each new block, an edge or a cycle of up
    to 8 vertices, hangs from one vertex already built; draw_int(lo, hi)
    picks an integer in [lo, hi]."""
    edges, size = [], 1
    while size < n:
        at = draw_int(1, size)
        k = draw_int(2, min(8, n - size + 1))
        ring = [at] + list(range(size + 1, size + k))
        size += k - 1
        edges += ([(at, ring[1])] if k == 2
                  else [(ring[i], ring[(i + 1) % k]) for i in range(k)])
    return edges


class TestCounts:
    def test_examples(self):
        assert matching_counts(cycle_graph(4)) == [1, 4, 2]
        assert matching_counts(cycle_graph(3)) == [1, 3]
        assert matching_counts(empty_graph(5)) == [1]
        assert matching_counts(path_graph(3)) == [1, 2]

    def test_gen_poly_is_counts(self):
        assert gen_poly(cycle_graph(4)) == Poly([1, 4, 2])
        assert gen_poly(empty_graph(0)) == Poly([1])

    def test_lucas_recurrence(self):
        # g(C_n, x) follows L_n = L_(n-1) + x L_(n-2), L_1 = 1, L_2 = 1 + 2x
        lucas = {1: Poly([1]), 2: Poly([1, 2])}
        for n in range(3, 13):
            lucas[n] = lucas[n - 1] + lucas[n - 2].shift(1)
            assert gen_poly(cycle_graph(n)) == lucas[n]


class TestMatchingPoly:
    def test_examples(self):
        assert matching_poly(cycle_graph(4)) == Poly([2, 0, -4, 0, 1])
        assert matching_poly(Graph.make(2, [(1, 2)])) == Poly([-1, 0, 1])
        assert matching_poly(empty_graph(3)) == Poly([0, 0, 0, 1])
        assert matching_poly(empty_graph(0)) == Poly([1])

    def test_alpha_from_gen_poly_structure(self):
        # alpha's x^(n-2k) coefficient is (-1)^k times g's x^k coefficient
        rng = random.Random(41)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 8), rng.random())
            alpha, m = matching_poly(g), matching_counts(g)
            for k, mk in enumerate(m):
                assert alpha[g.n - 2 * k] == (-1) ** k * mk
            assert all(alpha[g.n - 2 * k - 1] == 0 for k in range(g.n // 2))

    def test_alpha_real_rooted_random(self):
        rng = random.Random(43)
        for _ in range(80):
            g = random_graph(rng, rng.randrange(1, 8), rng.random())
            assert is_real_rooted(matching_poly(g))


class TestMatchedVertexSets:
    def test_examples(self):
        assert matched_vertex_sets(cycle_graph(4)) == [1, 4, 1]
        assert matched_vertex_sets(cycle_graph(3)) == [1, 3]
        two_edges = Graph.make(4, [(1, 2), (3, 4)])
        assert matched_vertex_sets(two_edges) == [1, 2, 1]

    def test_formula_examples(self):
        assert matched_vertex_sets_formula(cycle_graph(4)) == [1, 4, 1]
        assert matched_vertex_sets_formula(cycle_graph(3)) == [1, 3]
        assert matched_vertex_sets_formula(cycle_graph(6))[3] == 1

    def test_formula_precondition(self):
        with pytest.raises(PreconditionError):
            matched_vertex_sets_formula(complete_graph(4))

    def test_profile_invariants(self):
        rng = random.Random(47)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 8), rng.random())
            prof = matching_profile(g)
            assert prof.m[0] == 1 and prof.mv[0] == 1
            assert len(prof.mv) <= g.n // 2 + 1
            for k in range(len(prof.mv)):
                assert prof.mv[k] <= prof.m[k]

    def test_formula_vs_oracle_sampled_7_8(self):
        from sepgamma import classify
        rng = random.Random(53)
        checked = 0
        while checked < 120:
            g = random_graph(rng, rng.choice((7, 8)), rng.uniform(0.15, 0.5))
            if not classify(g).unique_even_cycle_condition:
                continue
            assert matched_vertex_sets_formula(g) == matched_vertex_sets(g)
            checked += 1


class TestIndependence:
    def test_examples(self):
        assert independence_poly(cycle_graph(4)) == Poly([1, 4, 2])
        assert independence_poly(complete_graph(6)) == Poly([1, 6])
        assert independence_poly(empty_graph(3)) == Poly([1, 3, 3, 1])

    def test_matches_brute_force(self):
        from itertools import combinations
        rng = random.Random(59)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 8), rng.random())
            ip = independence_poly(g)
            for k in range(g.n + 1):
                brute = sum(
                    1 for vs in combinations(range(1, g.n + 1), k)
                    if not any(g.has_edge(u, v) for u, v in combinations(vs, 2))
                )
                assert ip[k] == brute

    def test_line_graph_bridge_upto_5(self):
        # k-matchings of g biject with k-independent sets of L(g)
        for g in all_graphs_upto(5):
            assert gen_poly(g) == independence_poly(line_graph(g))


def check_against_oracles(g):
    cls = classify(g)
    assert gen_poly(g) == gen_poly_reference(g)
    if cls.unique_even_cycle_condition:
        assert suspension_gamma_formula(g, cls) == suspension_gamma_reference(g, cls)
        assert matched_vertex_sets_formula(g, cls) == matched_sets_reference(g, cls)
    if cls.cactus:
        weights = {c: Fraction(len(c), 3) for c in cls.simple_cycles}
        assert mu_poly(g, weights, cls) == mu_poly_reference(g, weights, cls)


@st.composite
def relabelled_cacti(draw):
    n = draw(st.integers(1, 40))
    edges = cactus_edges(lambda lo, hi: draw(st.integers(lo, hi)), n)
    perm = draw(st.permutations(range(1, n + 1)))
    return (Graph.make(n, edges),
            Graph.make(n, [(perm[u - 1], perm[v - 1]) for u, v in edges]))


class TestTilingPoly:
    def test_tiles_of_one_cycle(self):
        # C4 tiled by 1, x per edge, t per 4-cycle: 1 + 4x + 2x^2 + t
        t = Poly([0, 0, 0, 1])
        assert tiling_poly(cycle_graph(4), Poly.one(), Poly.monomial(1),
                           [((1, 2, 3, 4), t)]) == Poly([1, 4, 2, 1])
        assert tiling_poly(empty_graph(3), Poly([0, 1]), Poly([-1])) == \
            Poly([0, 0, 0, 1])
        assert tiling_poly(empty_graph(0), Poly([5]), Poly([7])) == Poly.one()

    def test_exhaustive_against_oracles_upto_5(self):
        for g in all_graphs_upto(5):
            check_against_oracles(g)

    def test_atlas7_against_oracles(self, atlas7):
        for g in atlas7:
            check_against_oracles(g)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(relabelled_cacti())
    def test_labels_do_not_change_the_answer(self, pair):
        g, h = pair
        assert gen_poly(g) == gen_poly(h)
        cls_g, cls_h = classify(g), classify(h)
        assert suspension_gamma_formula(g, cls_g) == suspension_gamma_formula(h, cls_h)
        assert matched_vertex_sets_formula(g, cls_g) == \
            matched_vertex_sets_formula(h, cls_h)

    def test_large_sparse_graphs_at_the_default_recursion_limit(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # CPython's default
        try:
            self._check_large_sparse_graphs()
        finally:
            sys.setrecursionlimit(limit)

    def _check_large_sparse_graphs(self):
        n = 1200
        assert matching_counts(path_graph(n)) == \
            [math.comb(n - k, k) for k in range(n // 2 + 1)]
        n = 2000  # m_k(C_n) = C(n-k, k) + C(n-k-1, k-1)
        assert matching_counts(cycle_graph(n)) == [1] + \
            [math.comb(n - k, k) + math.comb(n - k - 1, k - 1)
             for k in range(1, n // 2 + 1)]
        assert matching_counts(star_graph(1199)) == [1, 1199]
        rng = random.Random(1000)
        g = Graph.make(1000, cactus_edges(rng.randint, 1000))
        m = matching_counts(g)
        degrees = [0] * (g.n + 1)
        for u, v in g.edges:
            degrees[u] += 1
            degrees[v] += 1
        # two distinct edges are disjoint unless they share one vertex
        assert m[:3] == [1, g.edge_count, math.comb(g.edge_count, 2)
                         - sum(math.comb(d, 2) for d in degrees)]
