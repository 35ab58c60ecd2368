"""Flag simplicial complexes witnessing gamma-polynomials as f-polynomials.

The witness graph is the complement of the line graph blown up by a clique
(K_2 for type A, K_4 for type B); its clique-count polynomial must equal
the target gamma-polynomial, and the constructors verify that equality
rather than assume it.  The target is the gamma that gamma-a or gamma-b
prints: engine.solve by the formula route, which applies the h* size
guard after the preconditions, so the clique count cross-checks the
route's matching DP.  The independence-polynomial composition law over the
lexicographic product lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import engine
from .errors import (BoundExceededError, PreconditionError,
                     VerificationError, bound)
from .graphs import (Graph, classify, complement, lex_product_complete,
                     line_graph)
from .polynomials import Poly


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


def _build_witness(g: Graph, m: int, target: Poly,
                   bounds: Optional[Mapping]) -> FlagWitness:
    blown = lex_product_complete(line_graph(g), m)
    # every vertex and edge of the complement is a clique: refuse before
    # building it when they alone pass the clique bound
    limit = bound(bounds, "cliques")
    if 1 + blown.n + blown.n * (blown.n - 1) // 2 - blown.edge_count > limit:
        raise BoundExceededError(f"more than {limit} cliques")
    w = complement(blown)
    f = clique_f_poly(w, bounds)
    if f != target:
        raise VerificationError(
            f"witness f-polynomial {f.coeff_list()} != target {target.coeff_list()}")
    return FlagWitness(w, f, target)


def witness_a(g: Graph, bounds: Optional[Mapping] = None) -> FlagWitness:
    """For even-cycle-free g: the clique complex of the complement of
    L(g)[K_2] has f-polynomial g(G,2x), the suspension gamma-polynomial."""
    cls = classify(g)
    if not cls.unique_even_cycle_condition or any(
            len(c) % 2 == 0 for c in cls.simple_cycles):
        raise PreconditionError("witness construction needs no even cycles")
    return _build_witness(g, 2, engine.solve(g, "ahat", "formula", cls).gamma,
                          bounds)


def witness_b(g: Graph, bounds: Optional[Mapping] = None) -> FlagWitness:
    """For a forest g: the clique complex of the complement of L(g)[K_4]
    has f-polynomial g(G,4x), the type-B gamma-polynomial."""
    cls = classify(g)
    if not cls.forest:
        raise PreconditionError("witness construction needs a forest")
    return _build_witness(g, 4, engine.solve(g, "b", "formula", cls).gamma,
                          bounds)
