"""Flag simplicial complexes witnessing gamma-polynomials as f-polynomials.

The witness graph W has vertex (i - 1)*m + x for copy x = 1..m of the i-th
edge of g in sorted order, two vertices adjacent iff their edges share no
vertex: the complement of L(g)[K_m], m = 2 for type A and 4 for type B.
Its clique-count polynomial must equal the target, the gamma that gamma-a
or gamma-b prints, and the constructors verify that rather than assume it.
The target is engine.solve by the formula route, so the clique count
cross-checks its DP.  After the preconditions, the h* size guard and then
the `cliques` guard apply before that DP: they need only n and the degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import engine
from .errors import (BoundExceededError, PreconditionError,
                     VerificationError, bound)
from .graphs import Graph, GraphClassification, classify
from .polynomials import Poly, check_hstar_size


def clique_f_poly(g: Graph, bounds: Optional[Mapping] = None) -> Poly:
    """f-polynomial of the clique complex: coefficient of x^k counts the
    k-cliques, with 1 for the empty clique.  Ordered-extension enumeration,
    guarded by a total-clique bound (`cliques`)."""
    limit = bound(bounds, "cliques")
    masks = g.adjacency_masks()
    counts = [1]
    total = 1

    def rec(cand: int, size: int):
        nonlocal total
        m = cand
        while m:
            bit = m & -m
            m ^= bit
            v = bit.bit_length() - 1
            if size + 1 == len(counts):
                counts.append(0)
            counts[size + 1] += 1
            total += 1
            if total > limit:
                raise BoundExceededError(f"more than {limit} cliques")
            above = ~((bit << 1) - 1)
            rec(cand & masks[v] & above, size + 1)

    rec((1 << g.n) - 1, 0)
    return Poly(counts)


@dataclass(frozen=True)
class FlagWitness:
    """A verified witness: clique complex of witness_graph has f_poly equal
    to the target gamma-polynomial."""

    witness_graph: Graph
    f_poly: Poly
    target: Poly


def _witness_graph(g: Graph, m: int, bounds: Optional[Mapping]) -> Graph:
    """W, refused unbuilt when its vertices and edges, all cliques, pass `cliques`."""
    es = g.sorted_edges()
    k = len(es)
    touching = {}  # vertex -> bitmask of the edges at it
    for i, e in enumerate(es):
        for v in e:
            touching[v] = touching.get(v, 0) | 1 << i
    # pairs of edges at a common vertex: two distinct edges share at most one
    shared = sum(t.bit_count() * (t.bit_count() - 1) // 2 for t in touching.values())
    limit = bound(bounds, "cliques")
    if 1 + m * k + m * m * (k * (k - 1) // 2 - shared) > limit:
        raise BoundExceededError(f"more than {limit} cliques")
    edges = []
    for i, (u, v) in enumerate(es):
        later = ~(touching[u] | touching[v]) & ((1 << k) - (2 << i))
        while later:  # the later edges that touch neither u nor v
            j = (later & -later).bit_length() - 1
            later &= later - 1
            edges += [(i * m + x, j * m + y) for x in range(1, m + 1)
                      for y in range(1, m + 1)]
    return Graph(m * k, frozenset(edges))


def _build_witness(g: Graph, m: int, polytope: str, cls: GraphClassification,
                   bounds: Optional[Mapping]) -> FlagWitness:
    """W with m copies of each edge of g, checked against the gamma of
    `polytope` by the formula route; g must meet its preconditions."""
    check_hstar_size(g.n)
    w = _witness_graph(g, m, bounds)
    target = engine.solve(g, polytope, "formula", cls).gamma
    f = clique_f_poly(w, bounds)
    if f != target:
        raise VerificationError(
            f"witness f-polynomial {f.coeff_list()} != target {target.coeff_list()}")
    return FlagWitness(w, f, target)


def witness_a(g: Graph, bounds: Optional[Mapping] = None) -> FlagWitness:
    """For even-cycle-free g: the clique f-polynomial of W (m = 2) is g(G,2x)."""
    cls = classify(g)
    if not cls.unique_even_cycle_condition or any(
            len(c) % 2 == 0 for c in cls.simple_cycles):
        raise PreconditionError("witness construction needs no even cycles")
    return _build_witness(g, 2, "ahat", cls, bounds)


def witness_b(g: Graph, bounds: Optional[Mapping] = None) -> FlagWitness:
    """For a forest g: the clique f-polynomial of W (m = 4) is g(G,4x)."""
    cls = classify(g)
    if not cls.forest:
        raise PreconditionError("witness construction needs a forest")
    return _build_witness(g, 4, "b", cls, bounds)
