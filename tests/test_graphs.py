import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from sepgamma import (Bipartition, BoundExceededError, Graph, GraphFormatError,
                      PreconditionError, classify, complement,
                      complete_bipartite, complete_graph, cuts, cycle_graph,
                      empty_graph, lex_product_complete, line_graph,
                      parse_graph, path_graph, simple_cycles, star_graph,
                      suspension, tilde, to_edge_list_text)
from sepgamma.graphs import cycle_edges

from conftest import all_graphs_upto, atlas_graphs, random_graph
from oracles import delete_vertices, even_cycle_families


class TestParse:
    def test_triangle(self):
        assert parse_graph("1 2\n2 3\n3 1") == cycle_graph(3)

    def test_duplicate_modes(self):
        assert parse_graph("1 2\n1 2") == Graph.make(2, [(1, 2)])
        with pytest.raises(GraphFormatError):
            parse_graph("1 2\n1 2", strict=True)
        with pytest.raises(GraphFormatError):
            parse_graph("1 2\n2 1", strict=True)

    def test_declared_n(self):
        assert parse_graph("n 2\n") == empty_graph(2)
        assert parse_graph("") == empty_graph(0)
        with pytest.raises(GraphFormatError):
            parse_graph("n 2\n1 3")

    def test_comments_and_blanks(self):
        g = parse_graph("# a triangle\n\n1 2\n2 3\n\n3 1\n")
        assert g == cycle_graph(3)

    def test_errors(self):
        # a superscript digit passes str.isdigit; int() takes at most 4300 digits
        for bad in ("1 1", "0 2", "a b", "1 2 3", "n x", "n \u00b2", "n " + "1" * 5000):
            with pytest.raises(GraphFormatError):
                parse_graph(bad)

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
@given(st.one_of(edge_list_texts, json_texts, st.text(max_size=20)), st.booleans())
def test_parse_graph_returns_a_graph_or_raises_format_error(text, strict):
    try:
        g = parse_graph(text, strict=strict)
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
            cls = classify(g)
            if not cls.bipartite:
                continue
            t = tilde(g, cls.bipartition)
            tc = classify(t)
            assert tc.connected and tc.bipartite
            parts = {frozenset(tc.bipartition.part1), frozenset(tc.bipartition.part2)}
            want = {cls.bipartition.part1 | {n + 2}, cls.bipartition.part2 | {n + 1}}
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
        assert all(lg.degree(v) == 2 for v in range(1, 5))
        assert classify(lg).connected
        assert lex_product_complete(complete_graph(3), 2) == complete_graph(6)
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
        sizes = sorted(c.subgraph.edge_count for c in cs)
        assert sizes == [0, 1]

    def test_c4_profile(self):
        cs = cuts(cycle_graph(4))
        assert len(cs) == 8
        from collections import Counter
        sizes = Counter(c.subgraph.edge_count for c in cs)
        assert sizes == {0: 1, 2: 6, 4: 1}
        two_edge = [sorted(c.subgraph.sorted_edges()) for c in cs
                    if c.subgraph.edge_count == 2]
        adjacent = sum(1 for es in two_edge if set(es[0]) & set(es[1]))
        assert adjacent == 4 and len(two_edge) - adjacent == 2

    def test_triangle_profile(self):
        cs = cuts(cycle_graph(3))
        assert len(cs) == 4
        assert sorted(c.subgraph.edge_count for c in cs) == [0, 2, 2, 2]

    def test_canonical_and_bipartite(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randrange(1, 7)
            g = random_graph(rng, n, rng.random())
            cs = cuts(g)
            assert len(cs) == 1 << (n - 1)
            for c in cs:
                assert 1 in c.defining_set
                assert c.bipartition.part1 == c.defining_set
                for u, v in c.subgraph.edges:
                    assert (u in c.defining_set) != (v in c.defining_set)
            masks = [sum(1 << (v - 1) for v in c.defining_set) for c in cs]
            assert masks == sorted(masks)

    def test_empty_cut_is_full_set(self):
        cs = cuts(empty_graph(3))
        assert all(c.subgraph.edge_count == 0 for c in cs)
        assert cs[-1].defining_set == frozenset({1, 2, 3})

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            cuts(empty_graph(30))
        with pytest.raises(PreconditionError):
            cuts(empty_graph(0))
