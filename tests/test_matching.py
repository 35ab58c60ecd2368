import math
import random
import sys
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

from sepgamma import (Graph, Poly, PreconditionError, classify,
                      complete_bipartite, complete_graph, cut_sum_gamma,
                      cycle_graph, empty_graph, graphs, matchable_pairs,
                      mu_poly, path_graph, real_rootedness, simple_cycles,
                      solve, star_graph, tiling_poly)
from sepgamma.matching import _bits, _block_order, _pair_tally, tiling_value

from conftest import (all_graphs_upto, cactus_edges, diamond_chain, grid_graph,
                      pair_list, random_graph)
from oracles import (bipartition_of, gen_poly_reference, independence_poly,
                     line_graph, mask_tiling, matchable_pairs_reference,
                     matched_sets_by_matchings,
                     matched_vertex_sets,
                     matched_sets_reference, matched_sets_tiling,
                     matching_counts, matching_poly, mu_poly_reference,
                     suspension_gamma_reference)

X = Poly.monomial(1)


@st.composite
def graphs_with_a_cut(draw, max_n):
    """(G, crossing graph of a cut of G) on 1..n vertices, n <= max_n."""
    n = draw(st.integers(1, max_n))
    edges = [e for e in pair_list(n) if draw(st.booleans())]
    side = draw(st.sets(st.integers(1, n)))
    return (Graph.make(n, edges),
            Graph.make(n, [(u, v) for u, v in edges if (u in side) != (v in side)]))


class TestCounts:
    def test_examples(self):
        assert matching_counts(cycle_graph(4)) == [1, 4, 2]
        assert matching_counts(cycle_graph(3)) == [1, 3]
        assert matching_counts(empty_graph(5)) == [1]
        assert matching_counts(path_graph(3)) == [1, 2]

    def test_gen_poly_is_counts(self):
        assert tiling_poly(cycle_graph(4), X) == Poly([1, 4, 2])
        assert tiling_poly(empty_graph(0), X) == Poly([1])

    def test_lucas_recurrence(self):
        # g(C_n, x) follows L_n = L_(n-1) + x L_(n-2), L_1 = 1, L_2 = 1 + 2x
        lucas = {1: Poly([1]), 2: Poly([1, 2])}
        for n in range(3, 13):
            lucas[n] = lucas[n - 1] + Poly.monomial(1) * lucas[n - 2]
            assert tiling_poly(cycle_graph(n), X) == lucas[n]


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
            assert real_rootedness(matching_poly(g)).is_real_rooted


class TestMatchedVertexSets:
    def test_examples(self):
        assert matched_vertex_sets(cycle_graph(4)) == [1, 4, 1]
        assert matched_vertex_sets(cycle_graph(3)) == [1, 3]
        two_edges = Graph.make(4, [(1, 2), (3, 4)])
        assert matched_vertex_sets(two_edges) == [1, 2, 1]

    def test_equals_matching_enumeration(self, atlas7):
        for g in chain(all_graphs_upto(6), atlas7):
            assert matched_vertex_sets(g) == matched_sets_by_matchings(g), g

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(graphs_with_a_cut(10))
    def test_equals_matching_enumeration_on_random_graphs(self, pair):
        for g in pair:  # the graph and the crossing graph of one of its cuts
            assert matched_vertex_sets(g) == matched_sets_by_matchings(g), g

    def test_formula_examples(self):
        assert matched_sets_tiling(cycle_graph(4)) == [1, 4, 1]
        assert matched_sets_tiling(cycle_graph(3)) == [1, 3]
        assert matched_sets_tiling(cycle_graph(6))[3] == 1
        assert solve(cycle_graph(4), "b", "formula").gamma == Poly([1, 16, 16])

    def test_formula_precondition(self):
        # K_2,3 has every edge in two 4-cycles: neither formula applies
        for polytope in ("ahat", "b"):
            with pytest.raises(PreconditionError):
                solve(complete_bipartite(2, 3), polytope, "formula")
        with pytest.raises(PreconditionError):
            solve(complete_graph(4), "ahat", "formula")

    def test_profile_invariants(self):
        rng = random.Random(47)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 8), rng.random())
            m, mv = matching_counts(g), matched_vertex_sets(g)
            assert m[0] == 1 and mv[0] == 1
            assert len(mv) <= g.n // 2 + 1
            for k in range(len(mv)):
                assert mv[k] <= m[k]

    def test_formula_vs_oracle_sampled_7_8(self):
        from sepgamma import classify
        rng = random.Random(53)
        checked = 0
        while checked < 120:
            g = random_graph(rng, rng.choice((7, 8)), rng.uniform(0.15, 0.5))
            if not classify(g).unique_even_cycle_condition:
                continue
            assert matched_sets_tiling(g) == matched_vertex_sets(g)
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
                    if not any((u, v) in g.edges for u, v in combinations(vs, 2))
                )
                assert ip[k] == brute

    def test_line_graph_bridge_upto_5(self):
        # k-matchings of g biject with k-independent sets of L(g)
        for g in all_graphs_upto(5):
            assert tiling_poly(g, X) == independence_poly(line_graph(g))


def check_against_oracles(g):
    cls = classify(g)
    assert tiling_poly(g, X) == gen_poly_reference(g)
    if cls.unique_even_cycle_condition:
        assert solve(g, "ahat", "formula", cls).gamma == suspension_gamma_reference(g, cls)
    if cls.cactus:
        if cls.bipartite:
            assert solve(g, "b", "formula", cls).gamma == \
                Poly(matched_sets_reference(g, cls)).scale_arg(4)
        weights = {c: Fraction(len(c), 3) for c in cls.simple_cycles}
        assert mu_poly(g, weights) == mu_poly_reference(g, weights, cls)


@st.composite
def relabelled_cacti(draw):
    n = draw(st.integers(1, 40))
    edges = cactus_edges(lambda lo, hi: draw(st.integers(lo, hi)), n)
    perm = draw(st.permutations(range(1, n + 1)))
    return (Graph.make(n, edges),
            Graph.make(n, [(perm[u - 1], perm[v - 1]) for u, v in edges]))


@st.composite
def block_graphs(draw, max_n):
    """A graph on at most max_n vertices glued from blocks: each new block,
    a bridge, a clique or a cycle of up to 6 vertices, shares one vertex
    with what is built or starts a component of its own; labels shuffled."""
    target = draw(st.integers(1, max_n))
    n, edges = 1, []
    while n < target:
        k = draw(st.integers(2, min(6, target - n + 1)))
        at = draw(st.integers(1, n + 1))  # n + 1: a new component
        ring = [at] + list(range(n + 2, n + k + 1)) if at > n else \
            [at] + list(range(n + 1, n + k))
        n = ring[-1]
        if len(ring) < 3 or draw(st.booleans()):
            edges += combinations(ring, 2)
        else:
            edges += zip(ring, ring[1:] + ring[:1])
    perm = draw(st.permutations(range(1, n + 1)))
    return Graph.make(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])


class TestMatchablePairs:
    """gamma_k of the suspension counts the ordered pairs (A, B) of
    disjoint k-sets whose crossing edges hold a perfect matching; with A in
    one side of a bipartite graph the count is |M(G,k)|.  The shipped count
    grows half the pairs and splits at cut vertices; the reference grows
    every ordered pair of the whole graph."""

    @staticmethod
    def check_reference(g):
        cls = classify(g)
        assert matchable_pairs(g, cls=cls) == matchable_pairs_reference(g), g
        for side in cls.bipartition or ():
            assert matchable_pairs(g, side, cls) == \
                matchable_pairs_reference(g, side), g

    def test_exhaustive_upto_6(self):
        for g in all_graphs_upto(6):
            self.check_reference(g)
            if g.n <= 5:
                assert Poly(matchable_pairs(g)) == cut_sum_gamma(g), g

    def test_cut_sum_on_atlas7(self, atlas7):
        for g in atlas7:
            self.check_reference(g)
            assert Poly(matchable_pairs(g)) == cut_sum_gamma(g), g

    def test_matched_sets_on_bipartite_atlas7(self, atlas7):
        checked = 0
        for g in atlas7:
            parts = bipartition_of(g)
            if parts is None:
                continue
            assert matchable_pairs(g, parts.part1) == matched_vertex_sets(g), g
            assert matchable_pairs(g, parts.part2) == matched_vertex_sets(g), g
            checked += 1
        assert checked == 149  # the bipartite classes on up to 7 vertices

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(block_graphs(14))
    def test_block_graphs_against_the_cut_sum(self, g):
        assert Poly(matchable_pairs(g)) == cut_sum_gamma(g), g
        for side in bipartition_of(g) or ():
            assert matchable_pairs(g, side) == matched_vertex_sets(g), g

    def test_closed_forms(self):
        # gamma_k of the suspension of K_n is C(n, 2k) C(2k, k); |M(K_k,k, j)|
        # is C(k, j)^2
        for n in range(1, 15):
            assert matchable_pairs(complete_graph(n)) == \
                [math.comb(n, 2 * k) * math.comb(2 * k, k) for k in range(n // 2 + 1)]
        for k in range(1, 9):
            assert matchable_pairs(complete_bipartite(k, k), range(1, k + 1)) == \
                [math.comb(k, j) ** 2 for j in range(k + 1)]

    def test_small_cases(self):
        assert matchable_pairs(empty_graph(0)) == [1]
        assert matchable_pairs(empty_graph(3)) == [1]
        assert matchable_pairs(path_graph(3)) == [1, 4]
        assert matchable_pairs(path_graph(3), [2]) == [1, 2]
        assert matchable_pairs(path_graph(3), [1, 3]) == [1, 2]

    def test_sources_outside_the_graph(self):
        # sources are labels of the graph: 0 shifted by -1 and 4 was dropped
        for stray in ([0], [4], [1, 4]):
            with pytest.raises(PreconditionError, match="no vertex"):
                matchable_pairs(path_graph(3), stray)


def mask(vertices) -> int:
    return sum(1 << (v - 1) for v in vertices)


def block_view(edges, block: int, sources: int, tracked: int) -> tuple:
    """(local, order, sources, tracked): _block_order of the block with
    the vertex mask `block` and the edge list `edges` among its vertices,
    and `sources` and `tracked` in its numbering."""
    local, order = _block_order([b.bit_length() for b in _bits(block)], edges)

    def to_local(m: int) -> int:
        return sum(bit for v, bit in local.items() if m >> (v - 1) & 1)
    return local, order, to_local(sources), to_local(tracked)


def in_graph(local: dict, tally: dict) -> dict:
    """tally with its keys back in the graph's numbering."""
    return {sum(1 << (v - 1) for v, bit in local.items() if m & bit): row
            for m, row in tally.items()}


def tally_every_form(order: list, sources: int, tracked: int) -> dict:
    """_pair_tally of one block with each form forced: the B's as sets, as
    bitmaps and the subset DP, which must agree key for key; the sets'
    tally."""
    sets = _pair_tally(order, sources, tracked, "sets")
    for form in ("bitmap", "subsets"):
        assert _pair_tally(order, sources, tracked, form) == sets, \
            (form, order, sources, tracked)
    return sets


def tally_block(edges, block: int, sources: int, tracked: int) -> dict:
    """tally_every_form of the block with the vertex mask `block` and the
    edge list `edges` among its vertices, with masks and keys in the
    graph's numbering."""
    local, *view = block_view(edges, block, sources, tracked)
    return in_graph(local, tally_every_form(*view))


@st.composite
def tally_inputs(draw, max_n):
    """(edges among the block's vertices, block, sources, tracked) on at
    most max_n vertices: any vertex masks, the block dense or sparse, every
    vertex of it a source or some of them, tracked within the block."""
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from((0.3, 0.6, 0.9)))
    g = Graph.make(n, [e for e in pair_list(n)
                       if draw(st.integers(0, 9)) < 10 * p])
    top = (1 << n) - 1
    block = draw(st.integers(1, top))
    sources = draw(st.sampled_from((top, draw(st.integers(0, top)))))
    edges = [(u, v) for u, v in g.edges if block >> (u - 1) & block >> (v - 1) & 1]
    return edges, block, sources, draw(st.integers(0, top)) & block


def dense_glued_graphs() -> list:
    """Graphs with a block of 9 to 11 vertices, at least half of its vertex
    pairs edges, that shares vertices with other blocks, so its pair count
    splits by tracked vertices; each also with labels shuffled by a fixed
    permutation."""
    def k(vs):
        return list(combinations(vs, 2))

    def kk(left, right):
        return [(u, v) for u in left for v in right]

    k9 = k(range(1, 10))
    glued = [
        Graph.make(12, k9 + [(9, 10), (10, 11), (11, 9), (1, 12)]),
        Graph.make(12, k9 + [(9, 10), (10, 11), (11, 12), (12, 9)]),
        Graph.make(12, [e for e in k(range(1, 11)) if e[1] - e[0] != 5]
                   + [(10, 11), (11, 12)]),
        Graph.make(13, k(range(1, 12)) + [(1, 12), (11, 13)]),
        Graph.make(14, k9 + k(range(9, 14)) + [(13, 14)]),
        Graph.make(13, kk(range(1, 5), range(5, 10))
                   + [(9, 10), (10, 11), (11, 12), (12, 9), (1, 13)]),
        Graph.make(12, kk(range(1, 6), range(6, 11)) + [(1, 11), (10, 12)]),
        Graph.make(13, kk(range(1, 6), range(6, 12)) + [(11, 12), (12, 13)]),
    ]
    rng = random.Random(30)
    out = []
    for g in glued:
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        out += [g, Graph.make(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])]
    return out


def hub_graph(rng: random.Random, s: int, bipartite: bool = False) -> Graph:
    """A biconnected graph on 1..s with skewed degrees: a Hamiltonian cycle
    (alternating between 1..s/2 and the rest when bipartite) and one or
    two hubs joined to about half of the vertices they may reach; s even
    when bipartite."""
    if bipartite:
        left, right = list(range(1, s // 2 + 1)), list(range(s // 2 + 1, s + 1))
        rng.shuffle(left)
        rng.shuffle(right)
        ring = [v for pair in zip(left, right) for v in pair]
    else:
        ring = list(range(1, s + 1))
        rng.shuffle(ring)
    edges = {frozenset((ring[i - 1], ring[i])) for i in range(s)}
    for hub in rng.sample(ring, rng.choice((1, 2))):
        reach = [v for v in ring if v != hub
                 and (not bipartite or (v > s // 2) != (hub > s // 2))]
        edges.update(frozenset((hub, v)) for v in rng.sample(reach, len(reach) // 2))
    return Graph.make(s, [tuple(e) for e in edges])


def sparse_glued_graphs(bipartite: bool) -> list:
    """A hub_graph block of 9 to 14 vertices (10 to 14 when bipartite) with
    a triangle (a square when bipartite) glued at its vertex b and, below
    16 vertices, a pendant edge at its vertex 1, so its pair count splits
    by one or two tracked vertices; at most 16 vertices when not
    bipartite, for the cut sum."""
    rng = random.Random(31)
    out = []
    for b in (10, 12, 14) if bipartite else (9, 11, 13, 14):
        g = hub_graph(rng, b, bipartite)
        ring = [(b, b + 1), (b + 1, b + 2)] + (
            [(b + 2, b + 3), (b + 3, b)] if bipartite else [(b + 2, b)])
        n = b + len(ring) - 1
        extra = ring + ([(1, n + 1)] if n < 16 else [])
        out.append(Graph.make(n + (n < 16), list(g.edges) + extra))
    return out


class TestPairTallyForms:
    """_pair_tally holds the B's of each A as a set of vertex masks or as
    one subset bitmap, or runs a DP over the block's vertex subsets, chosen
    per block; all three forms count the same pairs for every block,
    source set and tracked set.  On the suspension the bitmap grows A hub
    first and numbers B's vertices from the far end of that order, and the
    subset DP numbers the block hubs first, so these also check the orders
    and the numberings."""

    def test_every_labeled_graph_upto_6(self):
        # each graph with every vertex as a source and with each side of a
        # bipartition, tracking none, its last vertex or all in turn
        for i, g in enumerate(all_graphs_upto(6)):
            top = (1 << g.n) - 1
            tracked = (0, 1 << (g.n - 1), top)[i % 3]
            for sources in (top, *(mask(side) for side in bipartition_of(g) or ())):
                tally_block(g.edges, top, sources, tracked)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(tally_inputs(12))
    def test_random_blocks_upto_12(self, case):
        tally_block(*case)

    def test_blocks_with_hubs_upto_14(self):
        # hub first is far from the vertex order on these; every vertex a
        # source and each side, tracking none, one vertex or all
        rng = random.Random(31)
        for s in range(7, 15):
            for bipartite in (False, True)[:2 - s % 2]:
                g = hub_graph(rng, s, bipartite)
                top = (1 << s) - 1
                sides = [mask(side) for side in bipartition_of(g) or ()]
                for tracked in (0, 1 << rng.randrange(s), top):
                    for sources in (top, *sides):
                        tally_block(g.edges, top, sources, tracked)

    def test_glued_blocks_with_hubs(self, monkeypatch):
        from sepgamma import matching
        tally = matching._pair_tally
        checked = []

        def spy(order, sources, tracked):
            rows = tally(order, sources, tracked)
            if len(order) >= 9:
                checked.append(order)
                assert tally_every_form(order, sources, tracked) == rows
            return rows

        monkeypatch.setattr(matching, "_pair_tally", spy)
        for g in sparse_glued_graphs(False):
            assert Poly(matchable_pairs(g)) == cut_sum_gamma(g), g
        for g in sparse_glued_graphs(True):
            for side in bipartition_of(g):
                assert matchable_pairs(g, side) == matched_vertex_sets(g), g
        assert len(checked) == 10

    def test_dense_blocks_with_tracked_vertices(self, monkeypatch):
        # the blocks where the rule's bitmap test holds, asked with the
        # subsets' cap at 0 so that it weighs the suspension blocks too
        from sepgamma import matching
        tally = matching._pair_tally
        split = []

        def spy(order, sources, tracked):
            rows = tally(order, sources, tracked)
            with monkeypatch.context() as cap:
                cap.setattr(matching, "SUBSETS_UP_TO", 0)
                form = matching._pair_form(order, sources, tracked)
            if form == "bitmap" and tracked:
                split.append(order)
                assert tally_every_form(order, sources, tracked) == rows
            return rows

        monkeypatch.setattr(matching, "_pair_tally", spy)
        for g in dense_glued_graphs():
            seen = len(split)
            assert Poly(matchable_pairs(g)) == cut_sum_gamma(g), g
            for side in bipartition_of(g) or ():
                assert matchable_pairs(g, side) == matched_vertex_sets(g), g
            assert len(split) > seen, g

    def test_high_labels(self):
        # each block of the dense glued graphs and of K2,3, tracking its cut
        # vertices, relabelled from 10,000 up: the order, and so every form,
        # reads only the block's own vertices and edges
        shift = 9_999
        for g in dense_glued_graphs() + [complete_bipartite(2, 3)]:
            blocks = [(mask(vertices), edges) for _, vertices, edges in classify(g).blocks]
            cuts = 0
            for (one, _), (other, _) in combinations(blocks, 2):
                cuts |= one & other
            sides = [mask(side) for side in bipartition_of(g) or ()]
            for block, edges in blocks:
                far = [(u + shift, v + shift) for u, v in edges]
                for sources in ((1 << g.n) - 1, *sides):
                    low = tally_block(edges, block, sources, cuts & block)
                    assert tally_block(far, block << shift, sources << shift,
                                       (cuts & block) << shift) == \
                        {m << shift: row for m, row in low.items()}, (g, block, sources)

    def test_the_rule_picks_the_form(self, monkeypatch):
        # each form where the crossover that README tabulates puts it: the
        # subsets run _subset_tally, and miss_masks, which only the bitmap
        # builds, tells the bitmap from the sets
        from sepgamma import matching
        subset_tally, miss_masks = matching._subset_tally, matching.miss_masks
        taken = set()

        def subsets(order, sources, tracked):
            taken.add(("subsets", len(order)))
            return subset_tally(order, sources, tracked)

        def bitmap(n):
            taken.add(("bitmap", n))
            return miss_masks(n)

        monkeypatch.setattr(matching, "_subset_tally", subsets)
        monkeypatch.setattr(matching, "miss_masks", bitmap)
        for k, pairs in ((8, 22), (10, 28)):  # suspension ladders: sets
            gamma = solve(grid_graph(2, k), "ahat",
                          bounds={"cut-sum": 22}).gamma.coeff_list()
            assert gamma[:2] == [1, 2 * pairs] and len(gamma) == k + 1
        assert not taken
        # suspension blocks up to SUBSETS_UP_TO vertices: the subsets, also
        # the 13-vertex hub block that took the bitmap before them; above
        # it the bitmap's rule holds
        for s, form in ((13, "subsets"), (14, "bitmap")):
            hub = hub_graph(random.Random(s), s)
            taken.clear()
            assert Poly(matchable_pairs(hub)) == cut_sum_gamma(hub)
            assert taken == {(form, s)}, s
        for g, t in ((grid_graph(2, 8), 8), (grid_graph(3, 5), 7),  # type B
                     (complete_bipartite(5, 5), 5)):
            taken.clear()
            assert matchable_pairs(g, bipartition_of(g).part1) == \
                matched_vertex_sets(g), g
            assert taken == {("bitmap", t)}, g
        taken.clear()
        assert matchable_pairs(cycle_graph(6), (1, 3, 5)) == [1, 6, 9, 1]
        assert not taken  # type B under 9 vertices: sets

    def test_k12_with_a_pendant_edge_at_every_vertex(self, monkeypatch):
        # all 12 vertices of the K12 block are tracked cut vertices, where
        # the bitmap's split lost to the sets; the subsets split nothing.
        # A pair of this graph takes j pendant edges, each either way, and
        # any pair of (k - j)-sets of the rest of K12
        from sepgamma import matching
        subset_tally = matching._subset_tally
        taken = []

        def subsets(order, sources, tracked):
            taken.append((len(order), tracked.bit_count()))
            return subset_tally(order, sources, tracked)

        monkeypatch.setattr(matching, "_subset_tally", subsets)
        for n in (8, 12):
            g = Graph.make(2 * n, list(combinations(range(1, n + 1), 2))
                           + [(v, v + n) for v in range(1, n + 1)])
            got = matchable_pairs(g)
            assert got == [sum(math.comb(n, j) * 2 ** j * math.comb(n - j, k - j)
                               * math.comb(n - k, k - j) for j in range(k + 1))
                           for k in range(n + 1)]
            if n == 8:  # the cut sum's guard stops at 20 vertices
                assert Poly(got) == cut_sum_gamma(g)
            assert (n, n) in taken and len(taken) == n + 1
            taken.clear()

    def test_memory_of_dense_blocks(self):
        # and of sparse blocks that the rule puts on the bitmap, and of K13
        # on the subsets, at their cap; at the peak: K14 51 kB, K8,8 7 kB,
        # the 3 x 6 grid 8 kB (38 kB on sets), the 14-vertex hub block
        # 52 kB (20 kB on sets), K13 2.5 MB
        import tracemalloc
        grid = grid_graph(3, 6)
        for g, sources, limit in ((complete_graph(14), None, 200_000),
                                  (complete_graph(13), None, 3_000_000),
                                  (complete_bipartite(8, 8), range(1, 9), 50_000),
                                  (grid, bipartition_of(grid).part1, 20_000),
                                  (hub_graph(random.Random(14), 14), None, 100_000)):
            cls = classify(g)
            tracemalloc.start()
            matchable_pairs(g, sources, cls)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < limit, (g, peak)


class TestBlockLocalView:
    """_block_order renumbers each block once, and the tiling's mask DP and
    every form of the pair count receive only masks in the block's own
    bits, so a block's work follows the block, not its labels."""

    def test_high_labels_reach_only_block_local_masks(self, monkeypatch):
        # the dense glued graphs, K2,3 and a diamond chain relabelled from
        # 10,000 up, in graphs that declare those labels: both source modes
        # of the pair count and the tiling, with the diamonds' squares as
        # tiles, against the same graph at low labels
        from sepgamma import matching
        tally, subset_tally, mask_block = (matching._pair_tally, matching._subset_tally,
                                           matching._mask_block)
        seen = set()

        def fits(order, sources, tracked):
            top = 1 << len(order)
            assert sources < top and tracked < top, (order, sources, tracked)
            assert all(v < top and near < top and after < top
                       for v, near, after in order), order

        def pairs(order, sources, tracked, form=None):
            fits(order, sources, tracked)
            seen.add("pairs")
            return tally(order, sources, tracked, form)

        def subsets(order, sources, tracked):
            fits(order, sources, tracked)
            seen.add("subsets")
            return subset_tally(order, sources, tracked)

        def masks(near, top, kids, tiles, edge, one):
            limit = 1 << len(near)
            assert len(kids) == len(near) and top < limit, (near, top)
            assert all(m < limit for m in near) and all(m < limit for m, _ in tiles), \
                (near, tiles)
            seen.add("mask DP")
            return mask_block(near, top, kids, tiles, edge, one)

        monkeypatch.setattr(matching, "_pair_tally", pairs)
        monkeypatch.setattr(matching, "_subset_tally", subsets)
        monkeypatch.setattr(matching, "_mask_block", masks)
        shift, chain = 9_999, diamond_chain(4)
        squares = [(c, Poly.monomial(2, 3)) for c in simple_cycles(chain) if len(c) == 4]
        for g, tiles in ([(g, []) for g in dense_glued_graphs() + [complete_bipartite(2, 3)]]
                         + [(chain, squares)]):
            high = Graph.make(g.n + shift, [(u + shift, v + shift) for u, v in g.edges])
            for side in (None, *(bipartition_of(g) or ())):
                far = None if side is None else [v + shift for v in side]
                assert matchable_pairs(high, far) == matchable_pairs(g, side), (g, side)
            assert tiling_poly(high, X, [(tuple(v + shift for v in c), w)
                                         for c, w in tiles]) == tiling_poly(g, X, tiles), g
        assert seen == {"pairs", "subsets", "mask DP"}

    def test_no_graph_adjacency_masks(self, monkeypatch):
        # each view comes from the block's own edges in classify's record:
        # neither the tiling nor the pair count, in either source mode,
        # asks the graph for its n-bit adjacency masks
        cases = []
        for g in dense_glued_graphs() + [diamond_chain(4), complete_bipartite(2, 3),
                                         grid_graph(3, 6)]:
            sides = [None, *(bipartition_of(g) or ())]
            cases.append((g, sides, tiling_poly(g, X),
                          [matchable_pairs(g, side) for side in sides]))

        def unreachable(*args, **kwargs):
            raise AssertionError("graph adjacency masks built")

        monkeypatch.setattr(Graph, "adjacency_masks", unreachable)
        for g, sides, tiling, pairs in cases:
            cls = classify(g)
            assert tiling_poly(g, X) == tiling_poly(g, X, (), cls) == tiling, g
            assert [matchable_pairs(g, side) for side in sides] == pairs, g
            assert [matchable_pairs(g, side, cls) for side in sides] == pairs, g


class TestTilingPoly:
    def test_tiles_of_one_cycle(self):
        # C4 tiled by 1 per lone vertex, x per edge, t per 4-cycle:
        # 1 + 4x + 2x^2 + t
        t = Poly([0, 0, 0, 1])
        assert tiling_poly(cycle_graph(4), X, [((1, 2, 3, 4), t)]) == \
            Poly([1, 4, 2, 1])
        assert tiling_poly(empty_graph(3), Poly([-1])) == Poly.one()
        assert tiling_poly(empty_graph(0), Poly([7])) == Poly.one()

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
        assert tiling_poly(g, X) == tiling_poly(h, X)
        cls_g, cls_h = classify(g), classify(h)
        assert solve(g, "ahat", "formula", cls_g).gamma == \
            solve(h, "ahat", "formula", cls_h).gamma
        if cls_g.bipartite:
            assert solve(g, "b", "formula", cls_g).gamma == \
                solve(h, "b", "formula", cls_h).gamma == \
                Poly(matched_sets_reference(g, cls_g)).scale_arg(4)

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


def fold_weightings(cls):
    """(edge, tiles) of the suspension formula and of |M(G,k)|, for a graph
    that meets the even-cycle condition."""
    evens = [c for c in cls.simple_cycles if len(c) % 2 == 0]
    return [(Poly.monomial(1, 2), [(c, Poly.monomial(len(c) // 2, -2)) for c in evens]),
            (X, [(c, Poly.monomial(len(c) // 2, -1)) for c in evens])]


# (p, q, r): two poles joined by paths of p, q and r edges, not all of one
# parity, so that one of the theta's three cycles is even: the diamond,
# the house and three larger ones
THETAS = ((1, 2, 2), (1, 2, 3), (2, 2, 3), (1, 2, 4), (2, 3, 3))


@st.composite
def glued_tilings(draw):
    """(g, edge, tiles): a relabelled graph on at most 60 vertices whose
    components are glued from blocks (bridges, cycles with 3 to 8 vertices
    and THETAS, so that no edge lies in two even cycles), stars or
    isolated vertices; each simple cycle is a tile with a drawn weight, a
    tile of weight 0, or left out."""
    n, edges = 0, []
    for _ in range(draw(st.integers(1, 4))):
        if n == 60:
            break
        kind = draw(st.sampled_from(("glued", "star", "isolated")))
        root, n = n + 1, n + 1
        last = root if kind == "isolated" else n - 1 + draw(st.integers(1, 61 - root))
        if kind == "star":
            edges += [(root, v) for v in range(root + 1, last + 1)]
            n = last
        while n < last:  # each block hangs from a vertex built
            at = draw(st.integers(root, n))
            theta = draw(st.sampled_from((None,) + THETAS))
            if theta and sum(theta) - 2 <= last - n:
                pole, n = n + 1, n + 1
                for length in theta:
                    path = [at] + list(range(n + 1, n + length)) + [pole]
                    n += length - 1
                    edges += zip(path, path[1:])
                continue
            k = draw(st.integers(2, min(8, last - n + 1)))
            ring = [at] + list(range(n + 1, n + k))
            n += k - 1
            edges += [(at, ring[1])] if k == 2 else zip(ring, ring[1:] + ring[:1])
    perm = draw(st.permutations(range(1, n + 1)))
    g = Graph.make(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])
    tiles = []
    for cycle in classify(g).simple_cycles:
        choice = draw(st.sampled_from(("weight", "zero", "out")))
        if choice != "out":
            c = 0 if choice == "zero" else draw(st.integers(-3, 3))
            tiles.append((cycle, Poly.monomial(len(cycle) // 2, c)))
    edge = draw(st.sampled_from((X, Poly.monomial(1, 2), Poly([1, -1]),
                                 Poly.monomial(2, Fraction(-1, 2)))))
    return g, edge, tiles


def reversed_mu(g, weights) -> Poly:
    """mu_poly by the whole-graph reference: the mu weighting read
    backwards."""
    f = mask_tiling(g, Poly.monomial(2, -1),
                    [(c, Poly.monomial(len(c), -2 * w)) for c, w in weights.items()])
    return Poly(f[g.n - k] for k in range(g.n + 1))


class TestTilingFold:
    """tiling_poly folds the blocks of every graph, with a DP over vertex
    masks inside each block that is no bridge or cycle; the DP over the
    vertex masks of the whole graph (oracles.mask_tiling) is the
    reference."""

    @staticmethod
    def check_mask_dp(g, cls):
        """Each weighting with cls, the first also without it (the blocks of
        one graphs._blocks pass), each at a point; and mu_poly, which
        weighs every cycle by a fraction."""
        for (edge, tiles), x in zip(fold_weightings(cls), (3, -2)):
            reference = mask_tiling(g, edge, tiles)
            assert tiling_poly(g, edge, tiles, cls) == reference, g
            if x == 3:
                assert tiling_poly(g, edge, tiles) == reference, g
            assert tiling_value(g, edge(x), [(c, w(x)) for c, w in tiles],
                                cls) == reference(x), g
        weights = {c: Fraction(len(c) - 2, 5) for c in cls.simple_cycles}
        assert mu_poly(g, weights, cls) == reversed_mu(g, weights), g

    def test_labeled_graphs_upto_6(self):
        checked = cacti = 0
        for g in all_graphs_upto(6):
            cls = classify(g)
            if cls.unique_even_cycle_condition:
                self.check_mask_dp(g, cls)
                checked += 1
                cacti += cls.cactus
        assert (checked, cacti) == (16541, 10025)

    def test_atlas7(self, atlas7):
        for g in atlas7:
            cls = classify(g)
            if cls.unique_even_cycle_condition:
                self.check_mask_dp(g, cls)

    def test_every_cycle_weighted_upto_5(self):
        # mu_poly weighs the cycles the caller names, on any graph
        for g in all_graphs_upto(5):
            cls = classify(g)
            if not cls.unique_even_cycle_condition:
                weights = {c: Fraction(len(c) - 2, 5) for c in simple_cycles(g)}
                assert mu_poly(g, weights, cls) == mu_poly(g, weights) == \
                    reversed_mu(g, weights), g

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(glued_tilings())
    def test_random_glued_graphs_upto_60(self, drawn):
        g, edge, tiles = drawn
        reference = mask_tiling(g, edge, tiles)
        assert tiling_poly(g, edge, tiles) == reference, g
        assert tiling_poly(g, edge, tiles, classify(g)) == reference, g

    def test_a_cactus_takes_no_vertex_mask(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("vertex masks built")

        monkeypatch.setattr("sepgamma.matching._mask_block", unreachable)
        monkeypatch.setattr(Graph, "adjacency_masks", unreachable)
        n = 300  # m_k(P_n) = C(n-k, k); m_k(C_n) = C(n-k, k) + C(n-k-1, k-1)
        assert tiling_poly(path_graph(n), X).coeff_list() == \
            [math.comb(n - k, k) for k in range(n // 2 + 1)]
        assert tiling_poly(cycle_graph(n), X).coeff_list() == [1] + \
            [math.comb(n - k, k) + math.comb(n - k - 1, k - 1)
             for k in range(1, n // 2 + 1)]
        assert tiling_poly(star_graph(40), X, (), classify(star_graph(40))) == \
            Poly([1, 40])

    def test_k11_without_tiles_answers(self, monkeypatch):
        # K11 holds more than 10^6 simple cycles: the tiling never lists them
        def unreachable(*args, **kwargs):
            raise AssertionError("cycle search reached")

        monkeypatch.setattr(graphs, "_cycle_search", unreachable)
        # m_k(K_n) = n! / (k! (n - 2k)! 2^k)
        assert tiling_poly(complete_graph(11), X).coeff_list() == \
            [math.factorial(11) // (math.factorial(k) * math.factorial(11 - 2 * k) * 2 ** k)
             for k in range(6)]

    def test_value_at_a_point(self, atlas7):
        # with no tiles on every class, whether or not an edge lies in two
        # even cycles; check_mask_dp weighs the tiles where they apply
        for g in atlas7:
            assert tiling_value(g, 3, (), classify(g)) == \
                mask_tiling(g, X, ())(3), g
