"""The seeded corpus and the closed forms the checker relies on."""

import os

import pytest

from perfbench import corpus, expect


def _write(workload, seed, directory):
    reqs = corpus.workload(workload, seed)
    paths = corpus.write_corpus(reqs, str(directory))
    return {name: open(path, "rb").read() for name, path in paths.items()}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    first = _write(workload, 7, tmp_path / "a")
    second = _write(workload, 7, tmp_path / "b")
    assert first == second
    other = _write(workload, 8, tmp_path / "c")
    assert (first == other) == (workload == "sparse-formula")


def test_random_graphs_do_not_depend_on_the_seed():
    def shapes(seed):
        return sorted(sorted(len([e for e in r.graph.edges if v in e])
                             for v in range(1, r.graph.n + 1))
                      for r in corpus.workload("dense-cuts", seed)
                      if r.graph.family == "gnm")
    assert shapes(1) == shapes(2)


def test_request_counts_and_known_defects():
    sizes = {w: len(corpus.workload(w, 1)) for w in corpus.WORKLOADS}
    assert sizes == {"atlas7-sweep": 1252 + 149, "dense-cuts": 12,
                     "sparse-formula": 36, "oracle-verify": 18 + 33 + 2}
    defects = [r.name for r in corpus.workload("dense-cuts", 3) if r.known_defect]
    assert defects == ["K11/gamma-a", "K7,7/gamma-b"]


def test_atlas_classes():
    atlas = corpus.atlas_classes()
    assert len(atlas) == 1252
    assert [sum(1 for n, _ in atlas if n == k) for k in range(1, 8)] == \
        [1, 2, 4, 11, 34, 156, 1044]


def test_atlas_file_matches_networkx():
    atlas_mod = pytest.importorskip("networkx.generators.atlas")
    ours = corpus.atlas_classes()
    theirs = [g for g in atlas_mod.graph_atlas_g()[1:]]
    for (n, edges), g in zip(ours, theirs):
        assert n == g.number_of_nodes()
        assert edges == {(min(u, v) + 1, max(u, v) + 1) for u, v in g.edges()}


def _is_cactus(n, edges):
    """Every edge lies on at most one simple cycle."""
    adj = [sorted(ws) for ws in corpus.adjacency(n, edges)]
    load = {}

    def dfs(s, path, on_path):
        for w in adj[path[-1]]:
            if w == s and len(path) >= 3 and path[1] < path[-1]:
                ring = path + [s]
                for i in range(len(path)):
                    e = tuple(sorted(ring[i:i + 2]))
                    load[e] = load.get(e, 0) + 1
            elif w > s and w not in on_path:
                dfs(s, path + [w], on_path | {w})

    for s in range(1, n + 1):
        dfs(s, [s], {s})
    return all(k <= 1 for k in load.values())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_formula_graphs(seed):
    graphs = {r.graph.name: r.graph for r in corpus.workload("sparse-formula", seed)}
    assert [f"C{n}" for n in range(12, 23)] == [g for g in graphs if g.startswith("C")]
    for g in graphs.values():
        assert corpus.is_connected(g.n, g.edges)
        assert {v for e in g.edges for v in e} == set(range(1, g.n + 1))
        if g.family != "wheel-rim":
            assert _is_cactus(g.n, g.edges)
        if g.family == "bipartite-cactus":
            assert corpus.two_coloring(g.n, g.edges) is not None


@pytest.mark.parametrize("seed", [1, 2])
def test_dense_cuts_random_graphs_break_the_even_cycle_condition(seed):
    for r in corpus.workload("dense-cuts", seed):
        g = r.graph
        if g.family == "gnm":
            assert len(g.edges) == g.param
            assert corpus.is_connected(g.n, g.edges)
            assert corpus.edge_in_two_even_cycles(g.n, g.edges)


def test_edge_in_two_even_cycles():
    assert not corpus.edge_in_two_even_cycles(4, corpus.cycle(4))
    assert not corpus.edge_in_two_even_cycles(7, corpus.cycle(7))
    k23 = {(i, j) for i in (1, 2) for j in (3, 4, 5)}
    assert corpus.edge_in_two_even_cycles(5, k23)
    assert not corpus.edge_in_two_even_cycles(5, corpus.complete_bipartite(2) | {(1, 5), (3, 5)})
    assert corpus.edge_in_two_even_cycles(4, corpus.complete(4))


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_count_matches_complete_graph_closed_form(n):
    got = expect.suspension_gamma_by_pairs(n, corpus.complete(n))
    want = expect.complete_suspension_gamma(n)
    assert got == want[:len(got)] and all(c == 0 for c in want[len(got):])


@pytest.mark.parametrize("k", range(1, 6))
def test_matched_sets_match_complete_bipartite_closed_form(k):
    counts = expect.matched_set_counts(2 * k, corpus.complete_bipartite(k))
    assert [c * 4 ** j for j, c in enumerate(counts)] == \
        expect.complete_bipartite_type_b_gamma(k)


@pytest.mark.parametrize("n", range(3, 12))
def test_wheel_volume_matches_pair_count(n):
    gamma = expect.suspension_gamma_by_pairs(n, corpus.cycle(n))
    assert sum(c << (n - 2 * i) for i, c in enumerate(gamma)) == expect.wheel_volume(n)


def test_closed_forms_on_known_values():
    assert expect.complete_suspension_gamma(4) == [1, 12, 6]
    assert expect.complete_bipartite_type_b_gamma(2) == [1, 16, 16]
    assert [expect.wheel_volume(n) for n in (3, 4, 5)] == [20, 54, 152]
    assert expect.hstar_from_gamma([1, 10, 20], 5) == [1, 15, 60, 60, 15, 1]


def test_oracles_agree_with_sepgamma_on_small_atlas_classes():
    from sepgamma import Graph, engine, matched_vertex_sets

    for n, edges in corpus.atlas_classes():
        if n > 5:
            break
        g = Graph(n, frozenset(edges))
        assert expect.suspension_gamma_by_pairs(n, edges) == \
            list(engine.gamma_a_cut_sum(g).gamma.coeffs)
        assert expect.matched_set_counts(n, edges) == matched_vertex_sets(g)


def test_write_corpus_names_files_by_graph(tmp_path):
    reqs = corpus.workload("dense-cuts", 1)
    paths = corpus.write_corpus(reqs, str(tmp_path))
    assert len(paths) == len({r.graph.name for r in reqs})
    k77 = open(paths["K7,7"]).read().splitlines()
    assert k77[0] == "n 14" and len(k77) == 1 + 49
    assert all(os.path.dirname(p) == str(tmp_path) for p in paths.values())
