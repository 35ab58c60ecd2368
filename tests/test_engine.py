import random
from fractions import Fraction

import pytest

from sepgamma import (ROUTES, BoundExceededError, Graph, Poly,
                      PreconditionError, classify, complete_graph, cycle_graph,
                      empty_graph,
                      gamma_a_cut_sum, gamma_a_cycle_reference,
                      gamma_a_suspension, gamma_b, gamma_b_interior,
                      gen_poly, hstar_to_gamma, oracle_hstar_a, path_graph,
                      solve, star_graph, suspension, wheel_closed_form)

from conftest import random_graph


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
        assert res.gamma == gen_poly(cycle_graph(5)).scale_arg(2)
        for tree in (path_graph(4), star_graph(4)):
            assert gamma_a_suspension(tree).gamma == \
                gen_poly(tree).scale_arg(2)
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
            vol = (1 << g.n) * gen_poly(g)(half)
            for fam in even_cycle_families(g):
                sub = delete_vertices(g, fam.vertices()).graph
                vol += ((-2) ** fam.c * Fraction(1 << g.n, 1 << fam.edge_count)
                        * gen_poly(sub)(half))
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
            assert gamma_b(tree).gamma == gen_poly(tree).scale_arg(4)

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
            data = oracle_hstar_a(hat)
            assert data.counts[1] == 2 * hat.edge_count + 1
            assert data.hstar[1] == 2 * hat.edge_count + 1 - (g.n + 1)

    def test_oracle_matches_formula_small(self):
        for g in (cycle_graph(3), cycle_graph(4), path_graph(4)):
            assert solve(g, "ahat", "ehrhart").hstar == gamma_a_suspension(g).hstar
        assert solve(cycle_graph(4), "b", "ehrhart").hstar == \
            gamma_b(cycle_graph(4)).hstar

    def test_cycle_reference_matches_oracle(self):
        # the binomial closed form for gamma(A of a plain cycle) pins the
        # oracle on non-suspension inputs
        from sepgamma import build_a, ehrhart_data
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
