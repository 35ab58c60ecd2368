import json
import random
import time
from dataclasses import replace
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from sepgamma import (Bipartition, BoundExceededError, Graph, GraphFormatError,
                      PreconditionError, classify, complete_bipartite,
                      complete_graph, cycle_graph, empty_graph,
                      parse_graph, path_graph, simple_cycles, star_graph,
                      suspension, to_edge_list_text)
from sepgamma.graphs import cycle_edges

from conftest import all_graphs_upto, atlas_graphs, cactus_edges, random_graph
from oracles import (bipartition_of, block_vertices_reference,
                     classify_reference, complement,
                     connected_components, cuts, delete_vertices,
                     even_cycle_families, lex_product, lex_product_complete,
                     line_graph, simple_cycles_reference, tilde)


def assert_matches_reference(g: Graph) -> None:
    """classify flag for flag against the listing reference, which finds
    the blocks in no order: their vertex sets compare as a set.  A bridge
    keeps its sorted ends and a block of one cycle its canonical tuple;
    any other block keeps a frozenset."""
    cls, ref = classify(g), classify_reference(g)
    assert len(cls.blocks) == len(ref.blocks), g
    assert {frozenset(vs) for _, vs, _ in cls.blocks} == ref.blocks, g
    for _, vs, _ in cls.blocks:
        inside = sum(u in vs and v in vs for u, v in g.edges)
        if len(vs) == 2:
            assert vs == tuple(sorted(vs)), g
        elif inside == len(vs):
            assert vs[0] == min(vs) and vs[1] < vs[-1], g
            assert set(cycle_edges(vs)) <= g.edges, g
        else:
            assert isinstance(vs, frozenset), g
    assert replace(cls, blocks=ref.blocks) == ref, g
    assert_block_records(g, cls.blocks)


def assert_block_records(g: Graph, blocks: tuple) -> None:
    """classify's block records partition the edges of g, each record's
    vertices are exactly the ends of its edges, and they are what the
    adjacency walk reads off those edges: a cycle's ring read off the
    pass's edge order is the walk's canonical tuple."""
    edges = [tuple(sorted(e)) for _, _, es in blocks for e in es]
    assert len(edges) == len(set(edges)) and set(edges) == g.edges, g
    for _, vs, es in blocks:
        assert set(vs) == set(chain.from_iterable(es)), g
        assert vs == block_vertices_reference(es), g


def assert_block_order(g: Graph) -> None:
    """The order matching._fold_blocks folds in, for the tiling and the
    pair count alike: each nonzero top lies in its own block; each vertex
    on an edge lies in exactly one block whose top it is not, after every
    block that closes at it (so a nonzero top lies in a later block too);
    and each component with an edge has exactly one root block (top 0)."""
    blocks = classify(g).blocks
    assert all(top in vs for top, vs, _ in blocks if top), g
    for v in set().union(*(vs for _, vs, _ in blocks)):
        own = [i for i, (top, vs, _) in enumerate(blocks) if v in vs and top != v]
        assert len(own) == 1, g
        assert all(i < own[0] for i, (top, _, _) in enumerate(blocks) if top == v), g
    comps = [set(c) for c in connected_components(g) if len(c) > 1]
    roots = [i for top, vs, _ in blocks if not top
             for i, c in enumerate(comps) if c.issuperset(vs)]
    assert sorted(roots) == list(range(len(comps))), g


class TestParse:
    def test_triangle(self):
        assert parse_graph("1 2\n2 3\n3 1") == cycle_graph(3)

    def test_duplicate_modes(self):
        assert parse_graph("1 2\n1 2") == Graph.make(2, [(1, 2)])
        assert parse_graph("1 2\n2 1") == Graph.make(2, [(1, 2)])

    def test_declared_n(self):
        assert parse_graph("n 2\n") == empty_graph(2)
        assert parse_graph("") == empty_graph(0)
        with pytest.raises(GraphFormatError):
            parse_graph("n 2\n1 3")

    def test_make_validates(self):
        # Graph.make runs the parser's checks, and rejects a negative n
        for n, edges in ((3, [(2, 2)]), (3, [(0, 1)]), (3, [(1, 4)]), (-1, [])):
            with pytest.raises(GraphFormatError):
                Graph.make(n, edges)
        g = Graph.make(3, [(1, 2), (2, 1), (3, 2)])
        assert g == Graph(3, frozenset({(1, 2), (2, 3)}))
        assert Graph.make(0) == empty_graph(0)

    def test_comments_and_blanks(self):
        g = parse_graph("# a triangle\n\n1 2\n2 3\n\n3 1\n")
        assert g == cycle_graph(3)

    def test_errors(self):
        # a superscript digit passes str.isdigit; int() takes at most 4300 digits
        for bad in ("1 1", "0 2", "a b", "1 2 3", "n x", "n \u00b2", "n " + "1" * 5000):
            with pytest.raises(GraphFormatError):
                parse_graph(bad)

    def test_labels_are_ascii_digits(self):
        # int() alone reads '1_0' as 10 and takes '+1' and other scripts'
        # digits; a label or a header count is ASCII digits only, a label
        # with an optional '-' that the label check then refuses
        for bad in ("1_0 2", "+1 2", "\u0661 2", "1 \uff12", "1 2_", "- 2", "--1 2"):
            with pytest.raises(GraphFormatError, match="line 2: non-integer label"):
                parse_graph("n 12\n" + bad)
        for bad in ("n 1_0", "n +3", "n \u0661\u0662", "n -3"):
            with pytest.raises(GraphFormatError, match="line 1: bad header"):
                parse_graph(bad + "\n1 2")
        for bad in ("-1 2", "2 -0"):
            with pytest.raises(GraphFormatError, match="vertex label < 1"):
                parse_graph(bad)
        assert parse_graph("n 012\n010 02") == Graph.make(12, [(2, 10)])

    def test_json_document(self):
        assert parse_graph('{"n": 4, "edges": [[1,2],[2,3]]}') == \
            Graph.make(4, [(1, 2), (2, 3)])
        assert parse_graph('{"edges": [[1,2]]}') == Graph.make(2, [(1, 2)])
        with pytest.raises(GraphFormatError):
            parse_graph('{"edges": [[1,1]]}')
        for bad in ('{"edges": "nope"}', '{"edges": 5}', '{"edges": null}',
                    '{"edges": {}}', '{"edges": [[%s, 2]]}' % ("1" * 5000),
                    '{"edges": ' + "[" * 100000):
            with pytest.raises(GraphFormatError):
                parse_graph(bad)
        # bool is an int subclass in Python; JSON true is still no label
        for bad in ('{"edges": [[true, 2], [2, 3]]}',
                    '{"n": false, "edges": []}',
                    '{"n": true, "edges": []}'):
            with pytest.raises(GraphFormatError):
                parse_graph(bad)

    def test_round_trip_text(self):
        g = Graph.make(5, [(1, 2), (3, 5)])
        assert parse_graph(to_edge_list_text(g)) == g


# label-like tokens, with signs, non-ASCII digits, superscripts and junk
tokens = st.integers(-2, 9).map(str) | st.text("0123456789-+_x\u00b2\u0665n#", max_size=3)
edge_list_texts = st.lists(
    st.one_of(st.tuples(st.just("n"), tokens).map(" ".join),
              st.lists(tokens, min_size=1, max_size=3).map(" ".join),
              st.just("# comment"), st.just("")),
    max_size=6).map("\n".join)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "edges"]), inner, max_size=2),
    max_leaves=10)
edge_arrays = st.lists(st.lists(st.integers(-1, 8), max_size=3), max_size=5)
json_texts = st.dictionaries(st.sampled_from(["n", "edges", "x"]),
                             json_values | edge_arrays, max_size=3).map(json.dumps)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(edge_list_texts, json_texts, st.text(max_size=20)))
def test_parse_graph_returns_a_graph_or_raises_format_error(text):
    try:
        g = parse_graph(text)
    except GraphFormatError:
        return
    assert isinstance(g, Graph) and g.n >= 0
    assert all(1 <= u <= g.n and 1 <= v <= g.n for u, v in g.edges)


class TestConstructions:
    def test_suspension_examples(self):
        assert suspension(cycle_graph(3)) == complete_graph(4)
        assert suspension(Graph.make(2, [(1, 2)])) == complete_graph(3)
        assert suspension(empty_graph(3)) == Graph.make(
            4, [(1, 4), (2, 4), (3, 4)])

    def test_suspension_connected(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_graph(rng, rng.randrange(1, 8), rng.random())
            assert classify(suspension(g)).connected

    def test_tilde_single_edge(self):
        g = Graph.make(2, [(1, 2)])
        t = tilde(g, Bipartition(frozenset({1}), frozenset({2})))
        assert t == Graph.make(4, [(1, 2), (1, 3), (2, 4), (3, 4)])

    def test_tilde_edgeless(self):
        t = tilde(empty_graph(2), Bipartition(frozenset({1}), frozenset({2})))
        assert t == Graph.make(4, [(1, 3), (2, 4), (3, 4)])

    def test_tilde_c4(self):
        t = tilde(cycle_graph(4), Bipartition(frozenset({1, 3}), frozenset({2, 4})))
        assert t.n == 6 and t.edge_count == 9

    def test_tilde_connected_bipartite(self):
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randrange(1, 7)
            g = random_graph(rng, n, rng.random())
            b = bipartition_of(g)  # tilde needs every vertex placed
            if b is None:
                continue
            t = tilde(g, b)
            tc = classify(t)
            assert tc.connected and tc.bipartite
            parts = {frozenset(tc.bipartition.part1), frozenset(tc.bipartition.part2)}
            want = {b.part1 | {n + 2}, b.part2 | {n + 1}}
            assert parts == want

    def test_tilde_bad_bipartition(self):
        with pytest.raises(PreconditionError):
            tilde(cycle_graph(3), Bipartition(frozenset({1}), frozenset({2, 3})))

    def test_delete_vertices(self):
        g, labels = delete_vertices(cycle_graph(4), {1, 2, 3, 4})
        assert g == empty_graph(0) and labels == ()
        g, labels = delete_vertices(path_graph(3), {2})
        assert g == empty_graph(2) and labels == (1, 3)
        g, _ = delete_vertices(complete_graph(4), {4})
        assert g == complete_graph(3)

    def test_complement_line_lex(self):
        assert complement(complete_graph(6)) == empty_graph(6)
        lg = line_graph(cycle_graph(4))
        assert lg.n == 4 and lg.edge_count == 4
        assert all(mask.bit_count() == 2 for mask in lg.adjacency_masks())
        assert classify(lg).connected
        assert lex_product_complete(complete_graph(3), 2) == complete_graph(6)
        # the general product with K_m: labels (a-1)*m + x
        rng = random.Random(113)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(0, 6), rng.random())
            for m in (1, 2, 3):
                assert lex_product_complete(g, m) == lex_product(g, complete_graph(m))
        assert line_graph(empty_graph(4)) == empty_graph(0)
        with pytest.raises(PreconditionError):
            lex_product_complete(complete_graph(2), 0)


class TestCycles:
    def test_counts(self):
        assert simple_cycles(path_graph(5)) == []
        assert len(simple_cycles(cycle_graph(4))) == 1
        cyc = simple_cycles(complete_graph(4))
        assert len(cyc) == 7
        assert sum(1 for c in cyc if len(c) == 3) == 4
        assert sum(1 for c in cyc if len(c) == 4) == 3

    def test_canonical_form(self):
        for c in simple_cycles(complete_graph(5)):
            assert c[0] == min(c) and c[1] < c[-1]

    def test_cycle_bound(self):
        with pytest.raises(BoundExceededError):
            simple_cycles(complete_graph(6), max_cycles=10)

    def test_even_families_examples(self):
        fams = even_cycle_families(cycle_graph(4))
        assert len(fams) == 1 and fams[0].c == 1 and fams[0].edge_count == 4
        assert even_cycle_families(cycle_graph(3)) == []
        two = Graph.make(8, [(1, 2), (2, 3), (3, 4), (1, 4),
                             (5, 6), (6, 7), (7, 8), (5, 8)])
        fams = even_cycle_families(two)
        assert len(fams) == 3
        assert sorted(f.c for f in fams) == [1, 1, 2]
        both = [f for f in fams if f.c == 2][0]
        assert both.edge_count == 8

    def test_family_invariants(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(3, 8), 0.45)
            for fam in even_cycle_families(g):
                assert fam.c == len(fam.cycles)
                assert all(len(c) % 2 == 0 and len(c) >= 4 for c in fam.cycles)
                assert fam.edge_count == sum(len(c) for c in fam.cycles)
                seen = set()
                for c in fam.cycles:
                    assert not (seen & set(c))
                    seen |= set(c)


def brute_even_cycle_unions(g):
    """Oracle: every nonempty edge subset in which all degrees are 0 or 2
    and every component with edges is an even cycle."""
    edges = g.sorted_edges()
    out = []
    deg = [0] * (g.n + 1)

    def valid(chosen):
        adj = {}
        for i in chosen:
            u, v = edges[i]
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen = set()
        for s in adj:
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            if len(comp) % 2:
                return False
            seen |= comp
        return True

    def rec(i, chosen):
        if i == len(edges):
            if chosen and all(d in (0, 2) for d in deg) and valid(chosen):
                out.append(frozenset(edges[j] for j in chosen))
            return
        rec(i + 1, chosen)  # skip
        u, v = edges[i]
        if deg[u] < 2 and deg[v] < 2:
            deg[u] += 1
            deg[v] += 1
            chosen.append(i)
            rec(i + 1, chosen)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1

    rec(0, [])
    return set(out)


class TestEvenFamilyOracle:
    def _check(self, g):
        fams = {
            frozenset(e for cyc in fam.cycles for e in cycle_edges(cyc))
            for fam in even_cycle_families(g)
        }
        assert fams == brute_even_cycle_unions(g)

    def test_exhaustive_upto_5(self):
        for g in all_graphs_upto(5):
            self._check(g)

    def test_atlas_classes_at_6(self):
        for g in atlas_graphs(6, min_n=6):
            self._check(g)


def pairs(blocks: tuple) -> tuple:
    """The (top, vertices) of each block record."""
    return tuple((top, vs) for top, vs, _ in blocks)


@st.composite
def relabelled_cactus(draw):
    """A cactus on up to 60 vertices (conftest.cactus_edges) with its labels
    shuffled, so the search meets its cycles from any vertex."""
    n = draw(st.integers(1, 60))
    edges = cactus_edges(lambda lo, hi: draw(st.integers(lo, hi)), n)
    perm = draw(st.permutations(range(1, n + 1)))
    return Graph.make(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])


class TestClassify:
    def test_examples(self):
        c5 = classify(cycle_graph(5))
        assert c5.cactus and not c5.bipartite and c5.unique_even_cycle_condition
        k4 = classify(complete_graph(4))
        assert not k4.cactus and not k4.unique_even_cycle_condition
        bowtie = Graph.make(5, [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)])
        assert classify(bowtie).cactus

    def test_bipartition_detection(self):
        cls = classify(cycle_graph(4))
        assert cls.bipartite
        assert cls.bipartition == Bipartition(frozenset({1, 3}), frozenset({2, 4}))
        assert classify(complete_bipartite(2, 3)).bipartite
        assert not classify(cycle_graph(5)).bipartite

    def test_forest_flag(self):
        assert classify(path_graph(4)).forest
        assert classify(star_graph(5)).forest
        assert not classify(cycle_graph(3)).forest

    def test_implication_chain_exhaustive(self):
        for g in all_graphs_upto(5):
            cls = classify(g)
            if cls.forest:
                assert cls.cactus
            if cls.cactus:
                assert cls.unique_even_cycle_condition

    def test_large_sparse_vertex_count(self):
        # the cost follows the vertices and edges, not the pairs of vertices:
        # a quadratic pass over 20,000 vertices takes seconds of CPU
        start = time.process_time()
        cls = classify(Graph.make(20000, [(1, 2)]))
        assert time.process_time() - start < 5
        assert cls.simple_cycles == ()
        assert cls.forest and not cls.connected

    def test_matches_the_reference_upto_6(self):
        # flag for flag and cycle list for cycle list, with the listing
        # classify that reads every flag off all simple cycles; and the
        # block-by-block listing against one search of the whole graph
        for g in all_graphs_upto(6):
            assert_matches_reference(g)
            assert simple_cycles(g) == simple_cycles_reference(g), g

    def test_matches_the_reference_on_atlas7(self, atlas7):
        for g in atlas7:
            assert_matches_reference(g)
            assert simple_cycles(g) == simple_cycles_reference(g), g

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(relabelled_cactus())
    def test_block_records_of_relabelled_cacti(self, g):
        # the sweeps of the reference tests above check the records too
        assert_block_records(g, classify(g).blocks)

    def test_blocks_come_after_the_blocks_below_them(self, atlas7):
        for g in all_graphs_upto(6):
            assert_block_order(g)
        for g in atlas7:
            assert_block_order(g)

    def test_block_order_follows_the_graph_not_its_edge_set(self, atlas7):
        # equal graphs whose edge frozensets were built in opposite orders
        rng = random.Random(31)
        graphs = list(atlas7) + [random_graph(rng, rng.randrange(8, 20), 0.3)
                                 for _ in range(100)]
        for g in graphs:
            edges = g.sorted_edges()
            assert classify(Graph.make(g.n, edges)) == \
                classify(Graph.make(g.n, edges[::-1])), g

    def test_dense_blocks_stop_early(self):
        # K11 has more than 10^6 simple cycles; the search stops at the
        # first edge in two even cycles
        for g in (complete_graph(11), complete_bipartite(7, 7)):
            cls = classify(g)
            assert not cls.unique_even_cycle_condition and not cls.cactus
            assert cls.simple_cycles is None and cls.connected

    def test_cycle_blocks_are_read_directly(self):
        # a cactus needs no cycle search: each cycle is a block
        bowtie = Graph.make(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
        assert classify(bowtie).simple_cycles == ((1, 2, 3), (3, 4, 5))
        assert pairs(classify(bowtie).blocks) == ((3, (3, 4, 5)), (0, (1, 2, 3)))
        # a 4-cycle, a bridge and a diamond: the cycle in cycle order, the
        # bridge's sorted ends, the diamond's vertex set
        g = Graph.make(8, [(1, 3), (2, 3), (2, 4), (1, 4), (4, 5),
                           (5, 6), (5, 7), (6, 7), (6, 8), (7, 8)])
        assert pairs(classify(g).blocks) == ((5, frozenset({5, 6, 7, 8})), (4, (4, 5)),
                                             (0, (1, 3, 2, 4)))
        start = time.process_time()
        cls = classify(cycle_graph(20000))
        assert time.process_time() - start < 5
        assert cls.simple_cycles == (tuple(range(1, 20001)),)

    def test_each_dense_block_searched_alone(self):
        # 30 copies of K4 in a row, each sharing one vertex with the next: a
        # search that walked on through the cut vertices would follow the
        # paths of every later block before the second 4-cycle of the first
        g = Graph.make(91, [(3 * i + u, 3 * i + v) for i in range(30)
                            for u in range(1, 5) for v in range(u + 1, 5)])
        start = time.process_time()
        cls = classify(g)
        assert time.process_time() - start < 1
        assert not cls.unique_even_cycle_condition and not cls.cactus
        # the last K4 closes first, at the vertex it shares with the one
        # before; the first is the root block
        assert pairs(cls.blocks) == tuple((3 * i + 1 if i else 0,
                                           frozenset(range(3 * i + 1, 3 * i + 5)))
                                          for i in reversed(range(30)))

    def test_implication_chain_random(self):
        rng = random.Random(23)
        for _ in range(150):
            g = random_graph(rng, rng.randrange(6, 9), rng.random())
            cls = classify(g)
            if cls.forest:
                assert cls.cactus
            if cls.cactus:
                assert cls.unique_even_cycle_condition


class TestCuts:
    def test_single_edge(self):
        cs = cuts(Graph.make(2, [(1, 2)]))
        assert len(cs) == 2
        sizes = sorted(c.edge_count for c in cs)
        assert sizes == [0, 1]

    def test_c4_profile(self):
        cs = cuts(cycle_graph(4))
        assert len(cs) == 8
        from collections import Counter
        sizes = Counter(c.edge_count for c in cs)
        assert sizes == {0: 1, 2: 6, 4: 1}
        two_edge = [c.sorted_edges() for c in cs if c.edge_count == 2]
        adjacent = sum(1 for es in two_edge if set(es[0]) & set(es[1]))
        assert adjacent == 4 and len(two_edge) - adjacent == 2

    def test_triangle_profile(self):
        cs = cuts(cycle_graph(3))
        assert len(cs) == 4
        assert sorted(c.edge_count for c in cs) == [0, 2, 2, 2]

    def test_canonical_and_bipartite(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randrange(1, 7)
            g = random_graph(rng, n, rng.random())
            cs = cuts(g)
            assert len(cs) == 1 << (n - 1)
            # cut m is E_S for S = {1} + {i + 2 : bit i of m set}
            for m, c in enumerate(cs):
                s = {1} | {i + 2 for i in range(n - 1) if m >> i & 1}
                assert c == Graph.make(n, [(u, v) for u, v in g.edges
                                           if (u in s) != (v in s)])

    def test_empty_cut_is_full_set(self):
        cs = cuts(empty_graph(3))
        assert cs == [empty_graph(3)] * 4
        cs = cuts(cycle_graph(3))  # S = {1} cuts two edges, S = {1, 2, 3} none
        assert cs[0] == Graph.make(3, [(1, 2), (1, 3)])
        assert cs[-1] == empty_graph(3)

    def test_bound(self):
        with pytest.raises(PreconditionError):
            cuts(empty_graph(0))
