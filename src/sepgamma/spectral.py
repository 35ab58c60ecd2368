"""The mu-polynomial with per-cycle parameters, the adjacency
characteristic polynomial, and the check behind verify's mu-bridge: at
the points 1..n+1, the identity that transfers real-rootedness from mu to
the suspension gamma-polynomial, and mu at t = 1 against det(xI - A).

mu is the tiling of matching read backwards.  mu and the suspension gamma
are one tiling under x -> -1/(2q^2), so the sampled identity confirms that
substitution and the reversal, and a fault in the tiling moves both sides
alike.  By Sachs' theorem mu with every cycle weighted 1 is det(xI - A),
which the Faddeev-LeVerrier recursion gives in exact integers with no
tiling at all: that comparison is what lets the bridge fail.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .errors import PreconditionError
from .graphs import Graph, GraphClassification, classify, cycle_edges
from .matching import tiling_poly
from .polynomials import Poly


def mu_poly(g: Graph, weights: dict,
            cls: Optional[GraphClassification] = None) -> Poly:
    """mu(G,t,x) = alpha(G,x) + sum over vertex-disjoint cycle families R of
    (-2)^c(R) alpha(G-R,x) prod of the member cycles' weights.

    `weights` maps canonical simple-cycle tuples of g to exact rationals; a
    cycle it does not name weighs 0.  A tiling with e edges and cycles of c
    vertices in all leaves n - 2e - c lone vertices, each a factor x, so
    coefficient k of mu is coefficient n - k of the tiling f(z) with -z^2
    per edge and -2 w_C z^|C| per cycle C.  Interpolates between the
    matching polynomial (t=0) and the characteristic polynomial (t=1).
    A key that is no canonical simple cycle of g raises PreconditionError.
    cls is the caller's classification of g, if any, for the tiling.
    """
    for cyc in weights:
        if not (len(set(cyc)) == len(cyc) >= 3 and cyc[0] == min(cyc)
                and cyc[1] < cyc[-1]
                and all(e in g.edges for e in cycle_edges(cyc))):
            raise PreconditionError(
                f"weight key {cyc!r} is no canonical simple cycle of the graph")
    f = tiling_poly(g, Poly.monomial(2, -1),
                    [(cyc, Poly.monomial(len(cyc), -2 * Fraction(w)))
                     for cyc, w in weights.items()], cls)
    return Poly(f[g.n - k] for k in range(g.n + 1))


def char_poly_adjacency(g: Graph) -> Poly:
    """det(xI - A) by the Faddeev-LeVerrier recursion in exact integers:
    M_1 = A, c_(n-k) = -tr(M_k)/k, M_(k+1) = A (M_k + c_(n-k) I), where
    row i of a product by A is the sum of the rows of the neighbours of i."""
    n = g.n
    nb = [[] for _ in range(n)]
    for u, v in g.edges:
        nb[u - 1].append(v - 1)
        nb[v - 1].append(u - 1)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    zero = (0,) * n
    m = [[int(i == j) for j in range(n)] for i in range(n)]  # A I = M_1
    for k in range(1, n + 1):
        m = [list(map(sum, zip(zero, *(m[l] for l in nb[i])))) for i in range(n)]
        c = -sum(m[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return Poly(coeffs)


def verify_gamma_mu_bridge(g: Graph, gamma: Poly,
                           cls: Optional[GraphClassification] = None) -> bool:
    """Check q^n gamma(G, -1/(2 q^2)) = mu(G, t*, q) exactly at each sample,
    where gamma(G,x) is the suspension gamma-polynomial the caller computed
    and t* weights an even cycle C by (-1/2)^(|E(C)|/2) and an odd cycle
    by 0, so only the even cycles are named; and check mu(G, 1, x), every
    cycle weighted 1, against det(xI - A).

    Sampling at the n+1 distinct points 1..n+1 certifies the underlying
    polynomial identity.  Both sides of it come from the one tiling, so it
    confirms the substitution and the reversal; the determinant, which
    shares no code with the tiling, is what catches a fault in it.
    """
    cls = cls or classify(g)
    if not cls.cactus:
        raise PreconditionError("mu bridge is stated for cactus graphs")
    weights = {cyc: Fraction(-1, 2) ** (len(cyc) // 2)
               for cyc in cls.simple_cycles if len(cyc) % 2 == 0}
    n = g.n
    mu = mu_poly(g, weights, cls).coeffs
    # both sides times q^shift, which makes q^n gamma(-1/(2q^2)) a
    # polynomial in q, and times the lcm of their denominators (powers of
    # two for an integer gamma): the same verdict at each sample, in ints
    shift = max(0, 2 * gamma.degree - n)
    scale = math.lcm(*(c.denominator << k for k, c in enumerate(gamma.coeffs)),
                     *(c.denominator for c in mu))
    lhs = [0] * (n + shift + 1)
    for k, c in enumerate(gamma.coeffs):
        v = int(c * (scale >> k))
        lhs[n + shift - 2 * k] = -v if k & 1 else v
    lhs, rhs = Poly(lhs), Poly([0] * shift + [int(c * scale) for c in mu])
    if any(lhs(q) != rhs(q) for q in range(1, n + 2)):
        return False
    return mu_poly(g, dict.fromkeys(cls.simple_cycles, 1), cls) == \
        char_poly_adjacency(g)
