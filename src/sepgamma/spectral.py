"""The mu-polynomial with per-cycle parameters, and the sampling check, at
the points 1..n+1, of the identity that transfers real-rootedness from mu
to the suspension gamma-polynomial (verify --level full).  The adjacency
characteristic polynomial that mu meets at t = 1 lives with the tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import PreconditionError
from .graphs import Graph, GraphClassification, classify, cycles_of
from .matching import tiling_poly
from .polynomials import Poly


def mu_poly(g: Graph, weights: dict,
            cls: Optional[GraphClassification] = None) -> Poly:
    """mu(G,t,x) = alpha(G,x) + sum over vertex-disjoint cycle families R of
    (-2)^c(R) alpha(G-R,x) prod of the member cycles' weights.

    `weights` maps each canonical simple-cycle tuple of g to an exact
    rational; a missing cycle raises.  Tiles x, -1 and -2 w_C per cycle C.
    Interpolates between the matching polynomial (t=0) and the
    characteristic polynomial (t=1).
    """
    cycles = cycles_of(g, cls)
    for cyc in cycles:
        if cyc not in weights:
            raise PreconditionError(f"no weight for cycle {cyc}")
    return tiling_poly(g, Poly.monomial(1), Poly((-1,)),
                       [(cyc, Poly((-2 * Fraction(weights[cyc]),))) for cyc in cycles])


def verify_gamma_mu_bridge(g: Graph, gamma: Poly,
                           cls: Optional[GraphClassification] = None) -> bool:
    """Check q^n gamma(G, -1/(2 q^2)) = mu(G, t*, q) exactly at each sample,
    where gamma(G,x) is the suspension gamma-polynomial the caller computed
    and t* weights an even cycle C by (-1/2)^(|E(C)|/2) and an odd cycle
    by 0.

    Sampling at the n+1 distinct points 1..n+1 certifies the underlying
    polynomial identity.
    """
    cls = cls or classify(g)
    if not cls.cactus:
        raise PreconditionError("mu bridge is stated for cactus graphs")
    weights = {
        cyc: (Fraction(-1, 2) ** (len(cyc) // 2) if len(cyc) % 2 == 0 else Fraction(0))
        for cyc in cls.simple_cycles
    }
    mu = mu_poly(g, weights, cls)
    for q in range(1, g.n + 2):
        lhs = (q ** g.n) * gamma(Fraction(-1) / (2 * q * q))
        if lhs != mu(q):
            return False
    return True
