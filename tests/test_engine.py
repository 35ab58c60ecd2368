import math
import random
from fractions import Fraction

import pytest

from sepgamma import (ROUTES, BoundExceededError, Graph, Poly,
                      PreconditionError, build_a, classify, complete_bipartite,
                      complete_graph, count_points, cycle_graph, ehrhart_data,
                      empty_graph, engine, gamma_a_cut_sum, gamma_a_pairs,
                      gamma_a_suspension, gamma_b, gamma_b_interior,
                      h_representation, hstar_to_gamma, path_graph, polynomials,
                      solve, star_graph, suspension, suspension_gamma_formula,
                      tiling_poly)
from sepgamma.matching import tiling_value
from sepgamma.polynomials import _packed_width

from hypothesis import given, settings, strategies as st

from conftest import all_graphs_upto, cactus_edges, diamond_chain, random_graph
from oracles import (gamma_a_cycle_reference, gen_poly_reference, mask_tiling,
                     matched_vertex_sets, wheel_closed_form)


def check_sep_invariants(res):
    assert res.hstar.is_palindromic() and res.hstar.degree == res.dim
    assert res.hstar(1) == res.volume
    assert res.gamma == hstar_to_gamma(res.hstar)
    assert res.volume == (1 << res.dim) * res.gamma(Fraction(1, 4))


class TestGammaASuspension:
    def test_c3(self):
        res = gamma_a_suspension(cycle_graph(3))
        assert res.gamma == Poly([1, 6])
        assert res.hstar == Poly([1, 9, 9, 1])
        assert res.volume == 20 and res.dim == 3 and res.method == "formula"
        check_sep_invariants(res)

    def test_c4_with_correction(self):
        res = gamma_a_suspension(cycle_graph(4))
        assert res.gamma == Poly([1, 8, 6]) and res.volume == 54
        check_sep_invariants(res)

    def test_edgeless_cross_polytope(self):
        for n in range(1, 6):
            res = gamma_a_suspension(empty_graph(n))
            assert res.gamma == Poly([1])
            assert res.hstar == Poly([1, 1]) ** n
            assert res.volume == 1 << n

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            gamma_a_suspension(complete_graph(4))

    def test_noeven_variant(self):
        # with no even cycle the formula is g(G,2x) outright
        res = gamma_a_suspension(cycle_graph(5))
        assert res.gamma == Poly([1, 10, 20])
        assert res.gamma == gen_poly_reference(cycle_graph(5)).scale_arg(2)
        for tree in (path_graph(4), star_graph(4)):
            assert gamma_a_suspension(tree).gamma == \
                gen_poly_reference(tree).scale_arg(2)
        assert gamma_a_suspension(Graph.make(2, [(1, 2)])).gamma == \
            Poly([1, 2])

    def test_volume_matches_closed_sum(self):
        # volume = 2^n g(G,1/2) + sum_R (-2)^c(R) 2^(n-|E(R)|) g(G-R,1/2)
        from oracles import delete_vertices, even_cycle_families
        rng = random.Random(89)
        checked = 0
        while checked < 30:
            g = random_graph(rng, rng.randrange(1, 7), rng.random())
            if not classify(g).unique_even_cycle_condition:
                continue
            half = Fraction(1, 2)
            vol = (1 << g.n) * gen_poly_reference(g)(half)
            for fam in even_cycle_families(g):
                sub = delete_vertices(g, fam.vertices()).graph
                vol += ((-2) ** fam.c * Fraction(1 << g.n, 1 << fam.edge_count)
                        * gen_poly_reference(sub)(half))
            assert gamma_a_suspension(g).volume == vol
            checked += 1


class TestDispatchA:
    def test_auto_prefers_formula(self):
        assert solve(cycle_graph(4), "ahat", "auto").method == "formula"

    def test_auto_falls_back_to_cuts(self):
        res = solve(complete_graph(4), "ahat", "auto")
        assert res.method == "cut_sum"
        assert res.gamma == Poly([1, 12, 6]) and res.volume == 70
        check_sep_invariants(res)

    def test_auto_answers_dense_graphs(self):
        # K11 has more than 10^6 simple cycles; auto counts matchable pairs
        res = solve(complete_graph(11), "ahat", "auto")
        assert res.method == "cut_sum"
        assert res.gamma.coeff_list() == \
            [math.comb(11, 2 * k) * math.comb(2 * k, k) for k in range(6)]
        res = solve(complete_bipartite(7, 7), "b", "auto")
        assert res.method == "interior"
        assert res.gamma.coeff_list() == [math.comb(7, j) ** 2 * 4 ** j for j in range(8)]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(1, n), st.integers(1, n))
                            .filter(lambda e: e[0] < e[1])))))
    def test_formula_cuts_and_auto_agree(self, graph):
        g = Graph.make(*graph)
        cls = classify(g)
        auto = solve(g, "ahat", "auto", cls)
        assert auto.gamma == solve(g, "ahat", "cuts", cls).gamma
        if cls.unique_even_cycle_condition:
            assert auto.method == "formula"
            assert auto.gamma == solve(g, "ahat", "formula", cls).gamma
        else:
            assert auto.method == "cut_sum"
            with pytest.raises(PreconditionError):
                solve(g, "ahat", "formula", cls)
        if cls.bipartite:
            assert solve(g, "b", "interior", cls).gamma == \
                Poly(matched_vertex_sets(g)).scale_arg(4)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(1, n), st.integers(1, n))
                            .filter(lambda e: e[0] < e[1])))))
    def test_ehrhart_and_auto_agree(self, graph):
        g = Graph.make(*graph)
        cls = classify(g)
        for polytope in ("ahat", "b"):
            oracle = solve(g, polytope, "ehrhart", cls)
            if polytope == "b" and not cls.bipartite:
                assert oracle.gamma is None
                with pytest.raises(PreconditionError):
                    solve(g, polytope, "auto", cls)
                continue
            auto = solve(g, polytope, "auto", cls)
            assert (oracle.gamma, oracle.hstar, oracle.volume, oracle.dim) == \
                (auto.gamma, auto.hstar, auto.volume, auto.dim)

    def test_formula_raises_on_k4(self):
        with pytest.raises(PreconditionError):
            solve(complete_graph(4), "ahat", "formula")

    def test_cut_sum_equals_formula(self):
        for g in (cycle_graph(3), cycle_graph(4), path_graph(4)):
            assert gamma_a_cut_sum(g).gamma == gamma_a_suspension(g).gamma


class TestSolve:
    def test_every_route_on_c4(self):
        g = cycle_graph(4)
        for polytope, routes in ROUTES.items():
            for method in routes:
                res = solve(g, polytope, method, classify(g))
                check_sep_invariants(res)
                assert res.dim == (3 if polytope == "a" else 4)

    def test_inapplicable_method_and_bounds(self):
        g = cycle_graph(4)
        for polytope, method in (("a", "formula"), ("ahat", "interior"),
                                 ("b", "cuts")):
            with pytest.raises(PreconditionError):
                solve(g, polytope, method)
        with pytest.raises(ValueError):
            solve(g, "c")
        for polytope, method, bound in (("ahat", "cuts", "cut-sum"),
                                        ("b", "interior", "matched-sets"),
                                        ("b", "ehrhart", "hrep-dim")):
            with pytest.raises(BoundExceededError):
                solve(g, polytope, method, bounds={bound: 3})
        # the formulas have no guard
        assert solve(g, "ahat", "formula", bounds={"cut-sum": 3}).method == "formula"


class TestGammaB:
    def test_c4(self):
        res = gamma_b(cycle_graph(4))
        assert res.gamma == Poly([1, 16, 16]) and res.volume == 96
        assert res.dim == 4
        check_sep_invariants(res)

    def test_forest_reduces_to_gen_poly(self):
        for tree in (path_graph(3), path_graph(5), star_graph(4)):
            assert gamma_b(tree).gamma == gen_poly_reference(tree).scale_arg(4)

    def test_single_edge(self):
        res = gamma_b(Graph.make(2, [(1, 2)]))
        assert res.gamma == Poly([1, 4])
        assert res.hstar == Poly([1, 6, 1]) and res.volume == 8

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            gamma_b(cycle_graph(3))  # not bipartite
        k33 = Graph.make(6, [(u, v + 3) for u in (1, 2, 3) for v in (1, 2, 3)])
        with pytest.raises(PreconditionError):
            gamma_b(k33)  # bipartite but not cactus

    def test_interior_route(self):
        assert gamma_b_interior(cycle_graph(4)).gamma == Poly([1, 16, 16])
        assert gamma_b_interior(Graph.make(2, [(1, 2)])).gamma == Poly([1, 4])
        res = gamma_b_interior(empty_graph(2))
        assert res.gamma == Poly([1]) and res.hstar == Poly([1, 2, 1])
        assert res.volume == 4
        with pytest.raises(PreconditionError):
            gamma_b_interior(cycle_graph(5))

    def test_dispatch(self):
        k33 = Graph.make(6, [(u, v + 3) for u in (1, 2, 3) for v in (1, 2, 3)])
        assert solve(k33, "b", "auto").method == "interior"
        assert solve(cycle_graph(4), "b", "auto").method == "formula"
        with pytest.raises(PreconditionError):
            solve(cycle_graph(3), "b", "auto")

    def test_oracle_non_bipartite_has_no_gamma(self):
        res = solve(cycle_graph(3), "b", "ehrhart")
        assert res.gamma is None and res.method == "ehrhart"
        assert res.hstar(1) == res.volume


class TestClosedForms:
    def test_wheel_examples(self):
        assert wheel_closed_form(3).volume == 20
        assert wheel_closed_form(4).volume == 54
        assert wheel_closed_form(5).volume == 152
        with pytest.raises(PreconditionError):
            wheel_closed_form(2)

    def test_wheel_recurrence_vs_formula(self):
        for n in range(3, 11):
            wd = wheel_closed_form(n)
            res = gamma_a_suspension(cycle_graph(n))
            assert wd.volume == res.volume
            assert wd.gamma == res.gamma

    def test_cycle_reference(self):
        assert gamma_a_cycle_reference(3) == Poly([1, 2])
        assert gamma_a_cycle_reference(4) == Poly([1, 2])
        assert gamma_a_cycle_reference(5) == Poly([1, 2, 6])
        assert gamma_a_cycle_reference(7) == Poly([1, 2, 6, 20])
        with pytest.raises(PreconditionError):
            gamma_a_cycle_reference(2)


class TestOracleAgreement:
    def test_dimension_bookkeeping(self):
        for g in (cycle_graph(3), path_graph(3), Graph.make(2, [(1, 2)])):
            res = solve(g, "ahat", "ehrhart")
            assert res.dim == g.n
            check_sep_invariants(res)

    def test_hstar1_counts_lattice_points(self):
        # h*_1 = |A n Z^n| - (dim + 1) = 2|E(suspension)| + 1 - (n + 1)
        for g in (cycle_graph(3), cycle_graph(4), path_graph(3)):
            hat = suspension(g)
            q = build_a(hat)
            h_representation(q)
            assert count_points(q, 1) == 2 * hat.edge_count + 1
            data = ehrhart_data(build_a(hat))
            assert data.hstar[1] == 2 * hat.edge_count + 1 - (g.n + 1)

    def test_oracle_matches_formula_small(self):
        for g in (cycle_graph(3), cycle_graph(4), path_graph(4)):
            assert solve(g, "ahat", "ehrhart").hstar == gamma_a_suspension(g).hstar
        assert solve(cycle_graph(4), "b", "ehrhart").hstar == \
            gamma_b(cycle_graph(4)).hstar

    def test_cycle_reference_matches_oracle(self):
        # the binomial closed form for gamma(A of a plain cycle) pins the
        # oracle on non-suspension inputs
        for n in range(3, 7):
            data = ehrhart_data(build_a(cycle_graph(n)))
            assert hstar_to_gamma(data.hstar) == gamma_a_cycle_reference(n)


class TestBMethodAgreementExhaustive:
    def test_bipartite_cacti_upto_6(self):
        from conftest import all_graphs_upto
        checked = 0
        for g in all_graphs_upto(6):
            cls = classify(g)
            if not (cls.bipartite and cls.cactus):
                continue
            assert gamma_b(g).gamma == gamma_b_interior(g).gamma
            checked += 1
        assert checked > 3000


class TestHstarGuard:
    """The formula routes size the h* guard from a bound on sum_k |gamma_k|
    before the tiling runs: the count n + |E| + even cycles + 1 bits, then
    on any graph the fold at the point with absolute weights."""

    def test_bounds_cover_gamma_on_atlas7(self, atlas7):
        for g in atlas7:
            cls = classify(g)
            if not cls.unique_even_cycle_condition:
                continue
            evens = [c for c in cls.simple_cycles if len(c) % 2 == 0]
            count_bits = g.n + g.edge_count + len(evens) + 1
            routes = [(suspension_gamma_formula(g, cls), 2, 1)]
            if cls.bipartite and cls.cactus:
                routes.append((gamma_b(g, cls).gamma, 1, 4))
            for gamma, edge, scale in routes:
                total = sum(abs(c) for c in gamma.coeffs)
                assert total.bit_length() <= count_bits, g
                assert tiling_value(
                    g, edge * scale,
                    [(c, scale ** (len(c) // 2)) for c in evens], cls) >= total, g

    def test_refused_before_the_tiling(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("tiling reached")

        monkeypatch.setattr("sepgamma.engine.tiling_poly", unreachable)
        # P10000 passes the n check with gamma = 1 bit and fails the count;
        # the fold at x = 4 bounds sum |gamma_k| by 13,570 bits
        with pytest.raises(BoundExceededError, match="holds about 235723570 "):
            solve(path_graph(10000), "b")
        # no cactus: 3,500 diamonds (n = 10,501) fail the count, 31,502
        # bits, and the fold at x = 1, 12,612 bits of the 8,542 allowed
        g = diamond_chain(3500)
        assert classify(g).unique_even_cycle_condition
        with pytest.raises(BoundExceededError, match="holds about 242732726 "):
            solve(g, "ahat")

    def test_the_fold_passes_what_the_count_refuses(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr("sepgamma.engine.tiling_poly", reached)
        # P9000 on either route: the count gives 18,000 bits, over the
        # limit; the folds give about 9,000 and 12,200, under it
        for polytope in ("ahat", "b"):
            with pytest.raises(Reached):
                solve(path_graph(9000), polytope)
        # no cactus: 2,500 diamonds (n = 7,501) fail the count, 22,502
        # bits, and pass the fold, 9,009 bits of the 19,158 allowed
        g = diamond_chain(2500)
        assert not classify(g).cactus
        with pytest.raises(Reached):
            solve(g, "ahat")


def formula_bits(g, cls):
    """The count of bits by which the formula's guard bounds
    sum_k |gamma_k|: n + |E| + even cycles + 1."""
    return g.n + g.edge_count + sum(len(c) % 2 == 0 for c in cls.simple_cycles) + 1


def subdivided(g):
    """g with a new vertex inside each edge: every cycle doubles, so a
    cactus becomes a bipartite one."""
    edges = [e for i, (u, v) in enumerate(sorted(g.edges), g.n + 1)
             for e in ((u, i), (i, v))]
    return Graph.make(g.n + g.edge_count, edges)


class TestPackedFormula:
    """Below polynomials.PACK_SLOT_BITS the formula reads gamma off the
    fold on ints at y = scale 2^w (Kronecker substitution); the Poly fold,
    tiling_poly and then scale_arg, is the reference, and past the limit
    the route."""

    @pytest.fixture
    def packed_only(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("Poly fold reached")

        monkeypatch.setattr(engine, "tiling_poly", unreachable)

    @staticmethod
    def check(g, cls=None):
        """Both weightings, (edge, cycle, scale) of ahat and of b."""
        cls = cls or classify(g)
        evens = [c for c in cls.simple_cycles if len(c) % 2 == 0]
        for edge, cycle, scale in ((2, -2, 1), (1, -1, 4)):
            reference = tiling_poly(
                g, Poly.monomial(1, edge),
                [(c, Poly.monomial(len(c) // 2, cycle)) for c in evens], cls)
            assert engine._even_cycle_tiling(g, cls, edge, cycle, scale) == \
                reference.scale_arg(scale), g

    def test_labeled_graphs_upto_6(self, packed_only):
        checked = 0
        for g in all_graphs_upto(6):
            cls = classify(g)
            if cls.unique_even_cycle_condition:
                self.check(g, cls)
                checked += 1
        assert checked == 16541

    def test_atlas7(self, atlas7, packed_only):
        for g in atlas7:
            cls = classify(g)
            if cls.unique_even_cycle_condition:
                self.check(g, cls)

    def test_cacti_and_diamond_chains_up_to_the_limit(self, packed_only):
        rng = random.Random(34)
        sizes = []
        for n in range(10, 1000, 10):
            label = list(range(1, n + 1))
            rng.shuffle(label)
            g = Graph.make(n, [(label[u - 1], label[v - 1])
                               for u, v in cactus_edges(rng.randint, n)])
            cls = classify(g)
            if not _packed_width(formula_bits(g, cls) + 1):
                break
            self.check(g, cls)
            sizes.append(n)
        assert sizes[-1] >= 120, sizes
        k = 1
        while _packed_width(formula_bits(diamond_chain(k), classify(diamond_chain(k))) + 1):
            self.check(diamond_chain(k))
            k += 1
        assert k > 40

    def test_the_limit_picks_the_route(self, monkeypatch):
        # with the Poly fold failing, the cacti of the benchmark's
        # sparse-formula sizes answer on both polytopes, against the pair
        # count; with the read-off failing, graphs past the limit answer
        # against closed forms and the whole-graph reference
        def fail(*args, **kwargs):
            raise AssertionError("route not taken")

        rng = random.Random(44)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "tiling_poly", fail)
            for n in (12, 17, 22):  # wheel rims, against the volume's recurrence
                res = solve(cycle_graph(n), "ahat")
                check_sep_invariants(res)
                assert res.volume == wheel_closed_form(n).volume
            for n in (24, 32, 44):
                g = Graph.make(n, cactus_edges(rng.randint, n))
                res = solve(g, "ahat")
                check_sep_invariants(res)
                assert res.method == "formula" and res.gamma == gamma_a_pairs(g).gamma
                h = subdivided(Graph.make(n // 2, cactus_edges(rng.randint, n // 2)))
                res = solve(h, "b")
                check_sep_invariants(res)
                assert res.method == "formula" and \
                    res.gamma == solve(h, "b", "interior").gamma
        for module in (engine, polynomials):
            monkeypatch.setattr(module, "_signed_slots", fail)
        n = 300  # m_k(P_n) = C(n-k, k); m_k(C_n) = C(n-k, k) + C(n-k-1, k-1)
        path = [math.comb(n - k, k) for k in range(n // 2 + 1)]
        cycle = [1] + [math.comb(n - k, k) + math.comb(n - k - 1, k - 1)
                       for k in range(1, n // 2 + 1)]
        # the cycle's tile: -2 x^(n/2) on ahat, -(4x)^(n/2) on b
        for polytope, base, tile in (("ahat", 2, 2), ("b", 4, 4 ** (n // 2))):
            assert solve(path_graph(n), polytope).gamma.coeff_list() == \
                [c * base ** k for k, c in enumerate(path)]
            expected = [c * base ** k for k, c in enumerate(cycle)]
            expected[-1] -= tile
            assert solve(cycle_graph(n), polytope).gamma.coeff_list() == expected
        g = diamond_chain(100)  # n = 301, past the limit in gamma and h*
        assert solve(g, "ahat").gamma == mask_tiling(
            g, Poly.monomial(1, 2), [(c, Poly.monomial(2, -2))
                                     for c in classify(g).simple_cycles if len(c) == 4])
