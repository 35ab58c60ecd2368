"""The mu-polynomial with per-cycle parameters, the adjacency characteristic
polynomial, and the sampling check of the identity that transfers
real-rootedness from mu to the suspension gamma-polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import BoundExceededError, PreconditionError
from .graphs import Graph, GraphClassification, classify
from .matching import tiling_poly
from .polynomials import Poly

MAX_CHARPOLY_VERTICES = 64


def uniform_weights(g: Graph, t,
                    cls: Optional[GraphClassification] = None) -> dict:
    """Weight map assigning the same parameter t to every simple cycle."""
    return {cyc: t for cyc in (cls or classify(g)).simple_cycles}


def mu_poly(g: Graph, weights: dict,
            cls: Optional[GraphClassification] = None) -> Poly:
    """mu(G,t,x) = alpha(G,x) + sum over vertex-disjoint cycle families R of
    (-2)^c(R) alpha(G-R,x) prod of the member cycles' weights.

    `weights` maps each canonical simple-cycle tuple of g to an exact
    rational; a missing cycle raises.  Tiles x, -1 and -2 w_C per cycle C.
    Interpolates between the matching polynomial (t=0) and the
    characteristic polynomial (t=1).
    """
    cycles = (cls or classify(g)).simple_cycles
    for cyc in cycles:
        if cyc not in weights:
            raise PreconditionError(f"no weight for cycle {cyc}")
    return tiling_poly(g, Poly.monomial(1), Poly((-1,)),
                       [(cyc, Poly((-2 * Fraction(weights[cyc]),))) for cyc in cycles])


def char_poly_adjacency(g: Graph) -> Poly:
    """det(xI - A) by the Faddeev-LeVerrier recursion in exact integers."""
    n = g.n
    if n > MAX_CHARPOLY_VERTICES:
        raise BoundExceededError(f"characteristic polynomial over {n} vertices")
    if n == 0:
        return Poly.one()
    a = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        a[u - 1][v - 1] = 1
        a[v - 1][u - 1] = 1
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [row[:] for row in a]
    for k in range(1, n + 1):
        if k > 1:
            # M <- A (M + c_{n-k+1} I)
            shifted = [row[:] for row in m]
            for i in range(n):
                shifted[i][i] += coeffs[n - k + 1]
            m = [[sum(a[i][l] * shifted[l][j] for l in range(n)) for j in range(n)]
                 for i in range(n)]
        trace = sum(m[i][i] for i in range(n))
        assert trace % k == 0
        coeffs[n - k] = -trace // k
    return Poly(coeffs)


def verify_gamma_mu_bridge(g: Graph, samples: Optional[list] = None,
                           cls: Optional[GraphClassification] = None) -> bool:
    """Check q^n gamma(G, -1/(2 q^2)) = mu(G, t*, q) exactly at each sample,
    where gamma(G,x) is the suspension formula and t* weights an even cycle
    C by (-1/2)^(|E(C)|/2) and an odd cycle by 0.

    Sampling at n+1 distinct points (the default 1..n+1) certifies the
    underlying polynomial identity.
    """
    from .engine import suspension_gamma_formula

    cls = cls or classify(g)
    if not cls.cactus:
        raise PreconditionError("mu bridge is stated for cactus graphs")
    if samples is None:
        samples = [Fraction(i) for i in range(1, g.n + 2)]
    gamma = suspension_gamma_formula(g, cls)
    weights = {
        cyc: (Fraction(-1, 2) ** (len(cyc) // 2) if len(cyc) % 2 == 0 else Fraction(0))
        for cyc in cls.simple_cycles
    }
    mu = mu_poly(g, weights, cls)
    for q in samples:
        q = Fraction(q)
        if q == 0:
            raise PreconditionError("sample points must be nonzero")
        lhs = (q ** g.n) * gamma(Fraction(-1) / (2 * q * q))
        if lhs != mu(q):
            return False
    return True
