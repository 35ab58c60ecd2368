"""The cut-sum formula for the gamma-polynomial of a suspension polytope:
the average over all 2^(n-1) cuts of I~(4x), where the interior polynomial
I~ of the two-vertex augmentation of a bipartite graph is
sum_k |M(G,k)| x^k (Ohsugi-Tsuchiya), |M(G,k)| counting the vertex sets of
the k-matchings of the cut's crossing graph.  It is the oracle behind
--method cuts: one depth-first walk over the cuts carries the matched
vertex sets of each prefix of the vertices as one subset bitmap, so the
cuts that share a prefix share it, and no crossing graph is built.  The
n-guard here, `cut-sum` in the errors.BOUNDS table, is the one guard on
that work and on its memory, O(n) bitmaps of 2^n bits.  The hypertree
definition of I~ that checks the identity, and the loop that counts the
crossing graph of each cut on its own, live with the tests.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .errors import (BoundExceededError, PreconditionError,
                     VerificationError, bound)
from .graphs import Graph
from .matching import miss_masks
from .polynomials import Poly


def cut_sum_gamma(g: Graph, bounds: Optional[Mapping] = None) -> Poly:
    """gamma-polynomial of the suspension polytope by the cut-sum formula:
    average I~(4x) over all 2^(n-1) cuts.  The sum always has integral
    coefficients; anything else signals an implementation bug.  The oracle
    behind --method cuts; auto counts matchable pairs instead.

    The walk places the vertices 1..n on a side one at a time, 1 always in
    S, and keeps the matched vertex sets of the crossing graph on the
    placed vertices as one int, `found`, whose bit t is set when the set
    with vertex bitmask t is matched; a set's size is its popcount.  In a
    matching of a set holding the last placed vertex j, j is matched to a
    lower vertex v on the other side, and the other edges match a set T
    without v: so placing j adds (found & miss[v]) << (j + v) for each
    such v, miss[v] marking the sets without v.  Each leaf adds `found`
    into a bit-sliced counter, slices[b] holding bit b of each set's count
    of cuts.  The walk holds the bitmaps of one root-to-leaf path.
    """
    if g.n < 1:
        raise PreconditionError("need at least one vertex")
    limit = bound(bounds, "cut-sum")
    if g.n > limit:
        raise BoundExceededError(f"cut sum over {g.n} > {limit} vertices")
    adj = g.adjacency_masks()
    miss = miss_masks(g.n - 1)  # miss[v]: the sets without v, of 2^(n-1) bits
    slices = [0] * g.n  # a set is matched in at most the 2^(n-1) cuts

    def walk(j: int, inside: int, found: int) -> None:
        """Place vertex j + 1 (bit j) on either side; S holds `inside`."""
        if j == g.n:
            b = 0
            while found:  # add with carry
                slices[b], found = slices[b] ^ found, slices[b] & found
                b += 1
            return
        bit = 1 << j
        for side, near in ((inside | bit, adj[j] & (bit - 1) & ~inside),
                           (inside, adj[j] & inside)):
            grown = found
            while near:
                v = near & -near
                near ^= v
                grown |= (found & miss[v.bit_length() - 1]) << (bit | v)
            walk(j + 1, side, grown)

    walk(1, 1, 1)
    layer = [1]  # layer[s]: the s-subsets of the vertices so far
    for v in range(g.n):
        layer = [a | b << (1 << v) for a, b in zip(layer + [0], [0] + layer)]
    total = [sum((s & layer[2 * k]).bit_count() << (b + 2 * k)
                 for b, s in enumerate(slices)) for k in range(g.n // 2 + 1)]
    gamma = [divmod(c, 1 << (g.n - 1)) for c in total]
    if any(r for _, r in gamma):
        raise VerificationError(
            f"cut sum {total} is not divisible by 2^{g.n - 1}")
    return Poly(q for q, _ in gamma)
