import random
import re
from fractions import Fraction
from itertools import chain, product

import pytest

from sepgamma import (Graph, Poly, PreconditionError, classify,
                      complete_graph, cut_sum_gamma, cycle_graph, empty_graph,
                      matching, mu_poly, path_graph, real_rootedness, solve,
                      spectral, verify_gamma_mu_bridge)

from conftest import all_graphs_upto, atlas_graphs, count_calls, random_graph
from oracles import char_poly_adjacency, matching_poly, uniform_weights


class TestMuPoly:
    def test_c4_unit_weights_gives_char_poly(self):
        assert mu_poly(cycle_graph(4), uniform_weights(cycle_graph(4), 1)) == \
            Poly([0, 0, -4, 0, 1])

    def test_c3_unit_weights(self):
        assert mu_poly(cycle_graph(3), uniform_weights(cycle_graph(3), 1)) == \
            Poly([-2, -3, 0, 1])

    def test_zero_weights_give_alpha(self):
        rng = random.Random(97)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(1, 7), rng.random())
            assert mu_poly(g, uniform_weights(g, 0)) == matching_poly(g)

    def test_unnamed_cycle_weighs_zero(self):
        # leaving a cycle out of the weights is giving it weight 0
        checked = 0
        for g in atlas_graphs(7):
            cls = classify(g)
            if not cls.cactus or not cls.simple_cycles:
                continue
            for left_out in cls.simple_cycles:
                named = {c: Fraction(len(c), 2) for c in cls.simple_cycles
                         if c != left_out}
                assert mu_poly(g, named) == mu_poly(g, {**named, left_out: 0}), g
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("g,key", [
        pytest.param(path_graph(3), (1, 2, 3), id="p3-no-cycle"),
        pytest.param(cycle_graph(4), (2, 3, 4, 1), id="c4-rotation"),
        pytest.param(cycle_graph(4), (1, 4, 3, 2), id="c4-reversal"),
    ])
    def test_a_key_that_is_no_canonical_cycle_raises(self, g, key):
        with pytest.raises(PreconditionError, match=re.escape(str(key))):
            mu_poly(g, {key: 1})

    def test_reversal_keeps_the_lone_vertices(self):
        # mu is x^n f(1/x): every lone vertex is a factor x, also when the
        # tiling f has no edge or tile at all
        assert mu_poly(empty_graph(0), {}) == Poly.one()
        assert mu_poly(empty_graph(3), {}) == Poly.monomial(3)
        triangle = {(1, 2, 3): Fraction(2, 3)}
        padded = Graph.make(5, [(1, 2), (2, 3), (1, 3)])
        assert mu_poly(padded, triangle) == \
            Poly.monomial(2) * mu_poly(cycle_graph(3), triangle)

    def test_one_cycle_listing(self, monkeypatch):
        # the caller's classification serves every helper: no second
        # classify, and no cycle search on a cactus (its cycles are blocks)
        from sepgamma import graphs
        classified = count_calls(monkeypatch, graphs.classify)
        searches = count_calls(monkeypatch, graphs._cycle_search)
        diamond = Graph.make(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
        for g, searched in ((cycle_graph(5), 0), (diamond, 1)):
            searches.clear()
            cls = classify(g)  # this module's binding, not counted
            assert mu_poly(g, uniform_weights(g, 1, cls)) == \
                char_poly_adjacency(g)
            if cls.cactus:
                gamma = solve(g, "ahat", "formula", cls).gamma
                assert verify_gamma_mu_bridge(g, gamma, cls)
            assert classified == [] and len(searches) == searched

    def test_rational_weights(self):
        g = cycle_graph(4)
        mu = mu_poly(g, uniform_weights(g, Fraction(1, 2)))
        assert mu == matching_poly(g) + Poly([-1])  # -2 * (1/2) * alpha(empty)


class TestCharPoly:
    def test_examples(self):
        assert char_poly_adjacency(complete_graph(3)) == Poly([-2, -3, 0, 1])
        assert char_poly_adjacency(cycle_graph(4)) == Poly([0, 0, -4, 0, 1])
        assert char_poly_adjacency(empty_graph(2)) == Poly([0, 0, 1])
        assert char_poly_adjacency(empty_graph(0)) == Poly([1])

    def test_against_leibniz_determinant(self):
        # independent oracle: permutation expansion of det(xI - A)
        from itertools import permutations
        rng = random.Random(101)

        def brute_char(g):
            n = g.n
            a = [[0] * n for _ in range(n)]
            for u, v in g.edges:
                a[u - 1][v - 1] = a[v - 1][u - 1] = 1
            total = Poly()
            for perm in permutations(range(n)):
                sign = 1
                seen = [False] * n
                for s in range(n):  # cycle-decomposition parity
                    if seen[s]:
                        continue
                    length, j = 0, s
                    while not seen[j]:
                        seen[j] = True
                        j = perm[j]
                        length += 1
                    if length % 2 == 0:
                        sign = -sign
                term = Poly([sign])
                for i in range(n):
                    if i == perm[i]:
                        term = term * Poly([-a[i][i], 1])
                    else:
                        term = term * Poly([-a[i][perm[i]]])
                total = total + term
            return total

        for _ in range(25):
            g = random_graph(rng, rng.randrange(1, 6), rng.random())
            assert char_poly_adjacency(g) == brute_char(g)

    def test_shipped_recursion_against_the_reference(self, atlas7):
        for g in chain(all_graphs_upto(5), atlas7, [empty_graph(0)]):
            assert spectral.char_poly_adjacency(g) == char_poly_adjacency(g), g

    def test_unit_mu_equals_char_poly_atlas6(self, atlas6):
        for g in atlas6:
            assert mu_poly(g, uniform_weights(g, 1)) == char_poly_adjacency(g)
            assert mu_poly(g, uniform_weights(g, 0)) == matching_poly(g)


class TestRealRootedMu:
    def test_cactus_grid_of_weights(self):
        # |t_i| <= 1 on the grid {-1, -1/2, 0, 1/2, 1}, every cactus class <= 7
        values = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
                  Fraction(1)]
        for g in atlas_graphs(7):
            cls = classify(g)
            if not cls.cactus or not cls.simple_cycles:
                continue
            cycles = cls.simple_cycles
            for combo in product(values, repeat=len(cycles)):
                weights = dict(zip(cycles, combo))
                assert real_rootedness(mu_poly(g, weights)).is_real_rooted


class TestBridge:
    def test_examples(self):
        # gamma by the cut sum, a route of its own
        for g in (cycle_graph(4), cycle_graph(6), path_graph(4), Graph.make(1, [])):
            assert verify_gamma_mu_bridge(g, cut_sum_gamma(g))

    def test_wrong_gamma_fails(self):
        for g in (cycle_graph(4), cycle_graph(5), path_graph(4)):
            gamma = cut_sum_gamma(g)
            assert not verify_gamma_mu_bridge(g, gamma + Poly.monomial(1))

    def test_non_cactus_rejected(self):
        with pytest.raises(PreconditionError):
            verify_gamma_mu_bridge(complete_graph(4), cut_sum_gamma(complete_graph(4)))

    def test_a_fault_in_the_tiling_fails_the_bridge(self, monkeypatch):
        # C4 with a pendant edge, the cycle tile's term tripled in the
        # fold that the formula (on ints or Polys) and mu share: the
        # sampled identity still holds, and mu with every cycle weighted 1
        # no longer meets det(xI - A)
        real = matching._fold

        def tripled(g, cls, edge, tiles, one):
            return real(g, cls, edge, [(c, w * 3) for c, w in tiles], one)

        g = Graph.make(5, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)])
        assert verify_gamma_mu_bridge(g, solve(g, "ahat", "formula").gamma)
        monkeypatch.setattr(matching, "_fold", tripled)
        gamma = solve(g, "ahat", "formula").gamma
        mu = mu_poly(g, {(1, 2, 3, 4): Fraction(1, 4)})  # t* = (-1/2)^2
        assert all(q ** 5 * gamma(Fraction(-1, 2 * q * q)) == mu(q)
                   for q in range(1, 7))
        assert not verify_gamma_mu_bridge(g, gamma)
