"""Acceptance suite: one test per criterion, exact equality throughout,
printing one pass line per criterion (runtimes included for the timed ones).

All n <= 6 sweeps are exhaustive over labeled graphs; the n = 7 suites run
over one representative per isomorphism class (networkx atlas), which is
complete because every checked predicate is isomorphism-invariant.
"""

import random
import time
from fractions import Fraction

import pytest

from sepgamma import (Graph, Poly, build_a, build_b, classify, complete_graph,
                      cut_sum_gamma, cycle_graph, ehrhart_data, empty_graph,
                      gamma_a_cut_sum, gamma_a_suspension, gamma_b,
                      gamma_b_interior, hstar_to_gamma, mu_poly, real_rootedness, solve, suspension,
                      suspension_gamma_formula, tiling_poly,
                      verify_gamma_mu_bridge, witness_a, witness_b)

from conftest import all_graphs_upto, atlas_graphs, random_graph
from oracles import (bipartition_of, char_poly_adjacency,
                     independence_composition_check, independence_poly,
                     interior_tilde_definition, line_graph,
                     matched_sets_tiling, matched_vertex_sets, matching_poly,
                     reflexivity_check,
                     uniform_weights, wheel_closed_form)


@pytest.fixture(scope="module")
def corpus6():
    graphs = list(all_graphs_upto(6))
    return [(g, classify(g)) for g in graphs]


def assert_sep_invariants(res):
    """Criterion 6 core: palindromic h* of the predicted degree and
    h*(1) = volume = 2^dim gamma(1/4), all exact."""
    assert res.hstar.is_palindromic()
    assert res.hstar.degree == res.dim
    assert res.hstar(1) == res.volume
    assert res.volume == (1 << res.dim) * res.gamma(Fraction(1, 4))
    assert res.gamma == hstar_to_gamma(res.hstar)


class TestCriterion1KnownValues:
    """Exact reference values, each under one second."""

    def test_gamma_a_c5_via_oracle(self):
        start = time.perf_counter()
        data = ehrhart_data(build_a(cycle_graph(5)))
        gamma = hstar_to_gamma(data.hstar)
        assert gamma == Poly([1, 2, 6])
        assert not real_rootedness(gamma).is_real_rooted
        assert not real_rootedness(data.hstar).is_real_rooted
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        print(f"\nCRITERION 1a PASS gamma(A_C5) = 1+2x+6x^2, not real-rooted "
              f"({elapsed:.2f}s)")

    def test_gamma_suspension_c3_and_witness(self):
        start = time.perf_counter()
        res = gamma_a_suspension(cycle_graph(3))
        assert res.gamma == Poly([1, 6])
        fw = witness_a(cycle_graph(3))
        assert fw.witness_graph == empty_graph(6)
        assert fw.f_poly == Poly([1, 6])
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        print(f"\nCRITERION 1b PASS gamma(A of suspended C3) = 1+6x = "
              f"f-poly of complement(K6) ({elapsed:.2f}s)")

    def test_wheel_volumes_3_to_10(self):
        start = time.perf_counter()
        expected = {3: 20, 4: 54, 5: 152}
        for n in range(3, 11):
            wd = wheel_closed_form(n)
            res = gamma_a_suspension(cycle_graph(n))
            assert wd.volume == res.volume == res.hstar(1)
            if n in expected:
                assert wd.volume == expected[n]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        print(f"\nCRITERION 1c PASS wheel volumes n=3..10 match the "
              f"recurrence realization ({elapsed:.2f}s)")

    def test_b_c4_three_ways(self):
        start = time.perf_counter()
        formula = gamma_b(cycle_graph(4))
        interior = gamma_b_interior(cycle_graph(4))
        oracle = ehrhart_data(build_b(cycle_graph(4)))
        assert formula.gamma == interior.gamma == Poly([1, 16, 16])
        assert formula.volume == interior.volume == 96
        assert oracle.hstar == formula.hstar
        assert oracle.hstar(1) == 96
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        print(f"\nCRITERION 1d PASS Vol(B_C4) = 96, gamma = 1+16x+16x^2, "
              f"three methods agree ({elapsed:.2f}s)")


class TestCriterion2OracleEquivalence:
    """Exhaustive exact oracle-equivalence sweeps, total well under 10 min."""

    def test_matched_vertex_set_formula_vs_enumeration(self, corpus6):
        start = time.perf_counter()
        checked = 0
        for g, cls in corpus6:
            if not cls.unique_even_cycle_condition:
                continue
            assert matched_sets_tiling(g, cls) == matched_vertex_sets(g)
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 600
        print(f"\nCRITERION 2a PASS matched-vertex-set formula = brute force on all "
              f"{checked} qualifying labeled graphs <= 6 ({elapsed:.1f}s)")

    def test_cut_sum_vs_suspension_formula(self, corpus6):
        start = time.perf_counter()
        checked = 0
        for g, cls in corpus6:
            if not cls.unique_even_cycle_condition:
                continue
            gamma = suspension_gamma_formula(g, cls)
            assert cut_sum_gamma(g) == gamma
            assert all(c >= 0 for c in gamma.coeffs)  # gamma-positivity
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 600
        print(f"\nCRITERION 2b PASS cut-sum = suspension formula on all "
              f"{checked} qualifying labeled graphs <= 6 ({elapsed:.1f}s)")

    def test_ehrhart_ground_truth_upto_4(self):
        start = time.perf_counter()
        n_a = n_b = 0
        for g in [*all_graphs_upto(4), *atlas_graphs(5, min_n=5)]:
            cls = classify(g)
            if cls.connected:
                res = gamma_a_cut_sum(g)
                assert_sep_invariants(res)
                oracle = solve(g, "ahat", "ehrhart")
                assert oracle.hstar == res.hstar
                if cls.unique_even_cycle_condition:
                    assert gamma_a_suspension(g, cls).hstar == oracle.hstar
                n_a += 1
            if cls.bipartite:
                res_b = gamma_b_interior(g, cls=cls)
                assert_sep_invariants(res_b)
                oracle_b = ehrhart_data(build_b(g))
                assert oracle_b.hstar == res_b.hstar
                if cls.cactus:
                    assert gamma_b(g, cls).hstar == oracle_b.hstar
                n_b += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 600
        print(f"\nCRITERION 2c PASS Ehrhart oracle matches formulas: "
              f"{n_a} connected type-A, {n_b} bipartite type-B inputs: "
              f"labeled <= 4, atlas classes on 5 "
              f"({elapsed:.1f}s)")

    def test_interior_identity_definition_vs_fast(self, corpus6):
        start = time.perf_counter()
        checked = 0
        for g, cls in corpus6:
            if not cls.bipartite:
                continue
            assert Poly(matched_vertex_sets(g)) == interior_tilde_definition(g)
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 600
        print(f"\nCRITERION 2d PASS interior identity (hypertrees + activity "
              f"vs |M(G,k)|) on all {checked} labeled bipartite graphs <= 6 "
              f"({elapsed:.1f}s)")

    def test_matchings_equal_line_graph_independence(self, corpus6):
        start = time.perf_counter()
        for g, _ in corpus6:
            assert tiling_poly(g, Poly.monomial(1)) == independence_poly(line_graph(g))
        elapsed = time.perf_counter() - start
        assert elapsed < 600
        print(f"\nCRITERION 2e PASS g(G,x) = i(L(G),x) on all "
              f"{len(corpus6)} labeled graphs <= 6 ({elapsed:.1f}s)")


class TestCriterion3RealRootedness:
    """Sturm verdicts, zero tolerance, all isomorphism classes <= 7."""

    def test_suspension_hstar_real_rooted_for_cacti(self, atlas7):
        rims = [cycle_graph(n) for n in range(8, 41)]
        checked = 0
        for g in atlas7 + rims:
            cls = classify(g)
            if not cls.cactus:
                continue
            res = gamma_a_suspension(g, cls)
            assert real_rootedness(res.hstar).is_real_rooted
            assert real_rootedness(res.gamma).is_real_rooted
            assert all(c >= 0 for c in res.gamma.coeffs)
            checked += 1
        print(f"\nCRITERION 3a PASS h*(A of suspension) real-rooted for all "
              f"{checked - len(rims)} cactus classes <= 7 and the wheel rims C8-C40")

    def test_b_hstar_real_rooted_for_bipartite_cacti(self, atlas7):
        checked = 0
        for g in atlas7:
            cls = classify(g)
            if not (cls.cactus and cls.bipartite):
                continue
            res = gamma_b(g, cls)
            assert res.gamma == gamma_b_interior(g, cls=cls).gamma
            assert real_rootedness(res.hstar).is_real_rooted
            assert all(c >= 0 for c in res.gamma.coeffs)
            checked += 1
        print(f"\nCRITERION 3b PASS h*(B_G) real-rooted for all {checked} "
              f"bipartite cactus classes <= 7")

    def test_matching_poly_real_rooted_everywhere(self, atlas7):
        for g in atlas7:
            assert real_rootedness(matching_poly(g)).is_real_rooted
        print(f"\nCRITERION 3c PASS alpha(G,x) real-rooted on all "
              f"{len(atlas7)} graph classes <= 7")


class TestCriterion4MuIdentities:
    def test_mu_specializations_and_bridge(self, atlas7):
        checked = 0
        for g in atlas7:
            cls = classify(g)
            if not cls.cactus:
                continue
            assert mu_poly(g, uniform_weights(g, 0, cls)) == matching_poly(g)
            assert mu_poly(g, uniform_weights(g, 1, cls)) == \
                char_poly_adjacency(g)
            gamma = suspension_gamma_formula(g, cls)
            assert verify_gamma_mu_bridge(g, gamma, cls)  # samples 1..n+1
            checked += 1
        print(f"\nCRITERION 4 PASS mu(G,0)=alpha, mu(G,1)=charpoly, and the "
              f"gamma-mu bridge on all {checked} cactus classes <= 7")


class TestCriterion5FlagWitnesses:
    def test_witness_a_even_cycle_free(self, corpus6):
        checked = 0
        for g, cls in corpus6:
            if not cls.unique_even_cycle_condition or any(
                    len(c) % 2 == 0 for c in cls.simple_cycles):
                continue
            fw = witness_a(g)
            assert fw.f_poly == gamma_a_suspension(g, cls).gamma
            checked += 1
        print(f"\nCRITERION 5a PASS witness f-poly = gamma(A of suspension) "
              f"on all {checked} even-cycle-free labeled graphs <= 6")

    def test_witness_b_forests(self, corpus6):
        checked = 0
        for g, cls in corpus6:
            if not cls.forest:
                continue
            fw = witness_b(g)
            assert fw.f_poly == gamma_b(g, cls).gamma
            checked += 1
        print(f"\nCRITERION 5b PASS witness f-poly = gamma(B_G) on all "
              f"{checked} labeled forests <= 6")

    def test_independence_composition_random_pairs(self):
        rng = random.Random(20240615)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 6), rng.random())
            h = random_graph(rng, rng.randrange(1, 4), rng.random())
            assert independence_composition_check(g, h)
        print("\nCRITERION 5c PASS composition identity on 60 seeded "
              "pairs <= 5+3")


class TestCriterion6StructuralInvariants:
    def test_sep_invariants_across_methods(self):
        cases = [
            gamma_a_suspension(cycle_graph(3)),
            gamma_a_suspension(cycle_graph(4)),
            gamma_a_cut_sum(complete_graph(4)),
            solve(cycle_graph(4), "ahat", "ehrhart"),
            gamma_b(cycle_graph(6)),
            gamma_b_interior(Graph.make(6, [(u, v + 3) for u in (1, 2, 3)
                                            for v in (1, 2, 3)])),
            gamma_a_suspension(empty_graph(4)),
        ]
        for res in cases:
            assert_sep_invariants(res)
        print(f"\nCRITERION 6a PASS h* palindromic of predicted degree and "
              f"h*(1) = volume = 2^dim gamma(1/4) on {len(cases)} results "
              f"across all methods")

    def test_reflexivity_pattern_b_upto_4(self):
        start = time.perf_counter()
        checked = 0
        for g in [*all_graphs_upto(4), *atlas_graphs(5, min_n=5)]:
            data = ehrhart_data(build_b(g))
            bip = bipartition_of(g) is not None
            # the facet proof the oracle reports, held to the palindrome test
            assert data.reflexive == reflexivity_check(data.hstar, g.n) == bip
            checked += 1
        elapsed = time.perf_counter() - start
        print(f"\nCRITERION 6b PASS B-polytope palindromic iff bipartite on "
              f"{checked} graphs: labeled <= 4, atlas classes on 5 "
              f"({elapsed:.1f}s)")

    def test_a_polytopes_always_reflexive(self):
        for g in all_graphs_upto(3):
            if not classify(g).connected:
                continue
            hat = suspension(g)
            data = ehrhart_data(build_a(hat))
            assert data.reflexive and reflexivity_check(data.hstar, g.n)
        print("\nCRITERION 6c PASS suspension A-polytopes reflexive "
              "(palindromic h*) on all connected labeled graphs <= 3")
