"""The cut-sum formula for the gamma-polynomial of a suspension polytope:
the average over all 2^(n-1) cuts of I~(4x), where the interior polynomial
I~ of the two-vertex augmentation of a bipartite graph is
sum_k |M(G,k)| x^k (Ohsugi-Tsuchiya).  It is the oracle behind
--method cuts: graphs.cuts builds the crossing graph of each cut, and
matched_vertex_sets counts it.  The n-guard here, `cut-sum` in the
errors.BOUNDS table, is the one guard on that work.  The hypertree
definition of I~ that checks the identity lives with the tests.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .errors import (BoundExceededError, PreconditionError,
                     VerificationError, bound)
from .graphs import Graph, cuts
from .matching import matched_vertex_sets
from .polynomials import Poly


def cut_sum_gamma(g: Graph, bounds: Optional[Mapping] = None) -> Poly:
    """gamma-polynomial of the suspension polytope by the cut-sum formula:
    average I~(4x) over all 2^(n-1) cuts.  The sum always has integral
    coefficients; anything else signals an implementation bug.  The oracle
    behind --method cuts; auto counts matchable pairs instead."""
    if g.n < 1:
        raise PreconditionError("need at least one vertex")
    limit = bound(bounds, "cut-sum")
    if g.n > limit:
        raise BoundExceededError(f"cut sum over {g.n} > {limit} vertices")
    total = []
    for cut in cuts(g):
        mv = matched_vertex_sets(cut)
        total += [0] * (len(mv) - len(total))
        for k, c in enumerate(mv):
            total[k] += c << (2 * k)
    gamma = [divmod(c, 1 << (g.n - 1)) for c in total]
    if any(r for _, r in gamma):
        raise VerificationError(
            f"cut sum {total} is not divisible by 2^{g.n - 1}")
    return Poly(q for q, _ in gamma)
