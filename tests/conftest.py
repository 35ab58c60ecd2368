"""Shared graph corpora for the test suite.

Labeled enumeration covers every graph on up to 6 vertices; the networkx
atlas supplies one representative per isomorphism class up to 7 vertices
for the suites whose predicates are isomorphism-invariant.
"""

import sys
from itertools import combinations

import pytest

from sepgamma import Graph


def pair_list(n):
    return list(combinations(range(1, n + 1), 2))


def all_graphs(n):
    """Every labeled graph on vertex set 1..n."""
    pairs = pair_list(n)
    for mask in range(1 << len(pairs)):
        edges = frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        yield Graph(n, edges)


def all_graphs_upto(n):
    for k in range(1, n + 1):
        yield from all_graphs(k)


def nx_to_graph(nxg) -> Graph:
    nodes = sorted(nxg.nodes())
    index = {v: i + 1 for i, v in enumerate(nodes)}
    edges = frozenset(
        (index[u], index[v]) if index[u] < index[v] else (index[v], index[u])
        for u, v in nxg.edges()
    )
    return Graph(len(nodes), edges)


_ATLAS_CACHE = {}


def atlas_graphs(max_n=7, min_n=1):
    """One representative per isomorphism class with min_n..max_n vertices."""
    key = (min_n, max_n)
    if key not in _ATLAS_CACHE:
        from networkx.generators.atlas import graph_atlas_g
        out = []
        for nxg in graph_atlas_g()[1:]:
            k = nxg.number_of_nodes()
            if min_n <= k <= max_n:
                out.append(nx_to_graph(nxg))
        _ATLAS_CACHE[key] = out
    return _ATLAS_CACHE[key]


def count_calls(monkeypatch, fn) -> list:
    """Wrap `fn` under its name in every loaded sepgamma module that binds
    it; the returned list gets the positional arguments of each call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sepgamma" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def random_graph(rng, n, p) -> Graph:
    edges = frozenset(pq for pq in pair_list(n) if rng.random() < p)
    return Graph(n, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid on 1..rows cols, vertex r cols + c + 1."""
    return Graph.make(rows * cols,
                      [(v, v + 1) for v in range(1, rows * cols) if v % cols]
                      + [(v, v + cols) for v in range(1, (rows - 1) * cols + 1)])


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


def diamond_chain(k: int) -> Graph:
    """k diamonds (K4 less an edge) in a row, each sharing a tip with the
    next: one even cycle per diamond, so the formula applies, and no
    cactus."""
    return Graph.make(3 * k + 1, [e for i in range(k) for e in (
        (3 * i + 1, 3 * i + 2), (3 * i + 1, 3 * i + 3), (3 * i + 2, 3 * i + 3),
        (3 * i + 2, 3 * i + 4), (3 * i + 3, 3 * i + 4))])


@pytest.fixture(scope="session")
def atlas7():
    return atlas_graphs(7)


@pytest.fixture(scope="session")
def atlas6():
    return atlas_graphs(6)
