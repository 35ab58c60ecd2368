"""The cut-sum formula for the gamma-polynomial of a suspension polytope:
the average over all 2^(n-1) cuts of I~(4x), where the interior polynomial
I~ of the two-vertex augmentation of a bipartite graph is
sum_k |M(G,k)| x^k (Ohsugi-Tsuchiya), |M(G,k)| counting the vertex sets of
the k-matchings of the cut's crossing graph.  It is the oracle behind
--method cuts: one depth-first walk over the cuts carries the matched
vertex sets of each prefix of the vertices, so the cuts that share a
prefix share its sets, and no crossing graph is built.  The n-guard here,
`cut-sum` in the errors.BOUNDS table, is the one guard on that work.  The
hypertree definition of I~ that checks the identity, and the loop that
counts the crossing graph of each cut on its own, live with the tests.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .errors import (BoundExceededError, PreconditionError,
                     VerificationError, bound)
from .graphs import Graph
from .polynomials import Poly


def cut_sum_gamma(g: Graph, bounds: Optional[Mapping] = None) -> Poly:
    """gamma-polynomial of the suspension polytope by the cut-sum formula:
    average I~(4x) over all 2^(n-1) cuts.  The sum always has integral
    coefficients; anything else signals an implementation bug.  The oracle
    behind --method cuts; auto counts matchable pairs instead.

    The walk places the vertices 1..n on a side one at a time, 1 always in
    S, and keeps for each k the matched vertex sets of size 2k of the
    crossing graph on the vertices placed so far, as vertex bitmasks.  In
    a matching of a set that holds the last placed vertex j, j is matched
    to a lower vertex v on the other side, and the other edges match a set
    T without v; so placing j adds every T + j + v, and nothing else.
    Each added set holds j, so it is none of the sets carried before:
    levels[k] keeps them as one family per placed vertex that added any,
    and sizes[k] counts them all.  The walk holds the families of one
    root-to-leaf path, at most n deep.
    """
    if g.n < 1:
        raise PreconditionError("need at least one vertex")
    limit = bound(bounds, "cut-sum")
    if g.n > limit:
        raise BoundExceededError(f"cut sum over {g.n} > {limit} vertices")
    adj = g.adjacency_masks()
    total = [0] * (g.n // 2 + 1)

    def walk(j: int, inside: int, levels: list, sizes: list) -> None:
        """Place vertex j + 1 (bit j) beside the placed vertices 1..j,
        those of S in the mask `inside`, on either side."""
        if j == g.n:
            for k, c in enumerate(sizes):
                total[k] += c
            return
        bit = 1 << j
        for side, near in ((inside | bit, adj[j] & (bit - 1) & ~inside),
                           (inside, adj[j] & inside)):
            counts, deeper = sizes[:], levels[:]
            for k, families in enumerate(levels):
                grown = set()
                for family in families:
                    for t in family:
                        free = near & ~t
                        while free:
                            v = free & -free
                            free ^= v
                            grown.add(t | bit | v)
                if not grown:  # none of size 2k + 4 then: drop an edge off j
                    break
                counts[k + 1] += len(grown)
                deeper[k + 1] = levels[k + 1] + [grown]
            walk(j + 1, side, deeper, counts)

    walk(1, 1, [[{0}]] + [[] for _ in range(g.n // 2)],
         [1] + [0] * (g.n // 2))
    total = [c << (2 * k) for k, c in enumerate(total)]
    gamma = [divmod(c, 1 << (g.n - 1)) for c in total]
    if any(r for _, r in gamma):
        raise VerificationError(
            f"cut sum {total} is not divisible by 2^{g.n - 1}")
    return Poly(q for q, _ in gamma)
