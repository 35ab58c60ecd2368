import random

import pytest

from sepgamma import (BoundExceededError, Graph, Poly, PreconditionError,
                      clique_f_poly, complete_graph, cycle_graph, empty_graph,
                      path_graph, solve, star_graph, witness, witness_a,
                      witness_b)

from conftest import all_graphs_upto, atlas_graphs, random_graph
from oracles import (complement, gen_poly_reference,
                     independence_composition_check, independence_poly,
                     lex_product, lex_product_complete, line_graph)


class TestCliqueFPoly:
    def test_examples(self):
        assert clique_f_poly(empty_graph(6)) == Poly([1, 6])
        assert clique_f_poly(complete_graph(3)) == Poly([1, 3, 3, 1])
        assert clique_f_poly(cycle_graph(4)) == Poly([1, 4, 4])

    def test_equals_independence_of_complement(self):
        for g in all_graphs_upto(5):
            assert clique_f_poly(g) == independence_poly(complement(g))

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            clique_f_poly(complete_graph(8), {"cliques": 10})


class TestWitnessGraph:
    def test_equals_the_complement_of_the_blown_up_line_graph(self):
        # W from its definition against complement(L(g)[K_m]) on every atlas
        # class with n <= 6.  Its vertices and edges, each a clique, and the
        # empty clique are what the bound admits before W is built
        for g in atlas_graphs(6):
            for m in (2, 4):
                w = complement(lex_product_complete(line_graph(g), m))
                assert witness._witness_graph(g, m, None) == w, (g, m)
                floor = 1 + w.n + w.edge_count
                assert witness._witness_graph(g, m, {"cliques": floor}) == w
                with pytest.raises(BoundExceededError) as exc:
                    witness._witness_graph(g, m, {"cliques": floor - 1})
                assert str(exc.value) == f"more than {floor - 1} cliques"


class TestWitnessA:
    def test_triangle_gives_empty_k6(self):
        fw = witness_a(cycle_graph(3))
        assert fw.witness_graph == empty_graph(6)
        assert fw.f_poly == Poly([1, 6]) and fw.target == Poly([1, 6])

    def test_single_edge(self):
        fw = witness_a(Graph.make(2, [(1, 2)]))
        assert fw.witness_graph == empty_graph(2)
        assert fw.f_poly == Poly([1, 2])

    def test_path3(self):
        fw = witness_a(path_graph(3))
        assert fw.f_poly == Poly([1, 4])
        assert fw.f_poly == gen_poly_reference(path_graph(3)).scale_arg(2)

    def test_even_cycle_rejected(self):
        with pytest.raises(PreconditionError):
            witness_a(cycle_graph(4))

    def test_odd_cycles_and_trees(self):
        for g in (cycle_graph(5), cycle_graph(7), star_graph(4), path_graph(5)):
            fw = witness_a(g)
            assert fw.f_poly == gen_poly_reference(g).scale_arg(2)


class TestWitnessB:
    def test_single_edge(self):
        fw = witness_b(Graph.make(2, [(1, 2)]))
        assert fw.witness_graph == empty_graph(4)
        assert fw.f_poly == Poly([1, 4])

    def test_path3(self):
        fw = witness_b(path_graph(3))
        assert fw.f_poly == Poly([1, 8])

    def test_edgeless(self):
        fw = witness_b(empty_graph(4))
        assert fw.witness_graph == empty_graph(0)
        assert fw.f_poly == Poly([1])

    def test_cycle_rejected(self):
        with pytest.raises(PreconditionError):
            witness_b(cycle_graph(3))


class TestWitnessTarget:
    def test_target_is_the_printed_gamma(self):
        # every atlas class on up to 6 vertices that a witness accepts: its
        # target is the gamma that gamma-a and gamma-b print
        accepted = 0
        for g in atlas_graphs(6):
            for build, polytope in ((witness_a, "ahat"), (witness_b, "b")):
                try:
                    fw = build(g)
                except PreconditionError:
                    continue
                assert fw.target == solve(g, polytope).gamma, (g, polytope)
                accepted += 1
        assert accepted > 0


class TestIndependenceComposition:
    def test_examples(self):
        assert independence_composition_check(cycle_graph(4), complete_graph(2))
        assert independence_poly(lex_product(cycle_graph(4), complete_graph(2))) \
            == Poly([1, 8, 8])
        assert independence_composition_check(complete_graph(2), complete_graph(2))
        assert independence_poly(lex_product(complete_graph(2),
                                             complete_graph(2))) == Poly([1, 4])

    def test_identity_factor(self):
        rng = random.Random(103)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(1, 6), rng.random())
            assert independence_poly(lex_product(g, complete_graph(1))) == \
                independence_poly(g)

    def test_random_pairs(self):
        rng = random.Random(107)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 6), rng.random())
            h = random_graph(rng, rng.randrange(1, 4), rng.random())
            assert independence_composition_check(g, h)


class TestScalingRealization:
    def test_f_of_mx_is_flag(self):
        # clique-count polynomial of complement((complement w)[K_m]) is f(mx)
        rng = random.Random(109)
        for _ in range(25):
            w = random_graph(rng, rng.randrange(1, 6), rng.random())
            f = clique_f_poly(w)
            for m in (2, 3, 4):
                realized = clique_f_poly(
                    complement(lex_product_complete(complement(w), m)))
                assert realized == f.scale_arg(m)
