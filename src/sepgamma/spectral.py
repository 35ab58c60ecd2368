"""The mu-polynomial with per-cycle parameters, and the sampling check, at
the points 1..n+1, of the identity that transfers real-rootedness from mu
to the suspension gamma-polynomial (verify --level full).  mu is the
tiling DP of matching read backwards.  The adjacency characteristic
polynomial that mu meets at t = 1 lives with the tests.

mu and the suspension gamma are one tiling DP under x -> -1/(2q^2), so
the bridge confirms that substitution and the reversal, not the DP: a
fault in the DP moves both sides alike.  The checks that cover the DP are
a-formula-vs-cuts and a-vs-ehrhart.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import PreconditionError
from .graphs import Graph, GraphClassification, classify, cycle_edges
from .matching import tiling_poly
from .polynomials import Poly


def mu_poly(g: Graph, weights: dict) -> Poly:
    """mu(G,t,x) = alpha(G,x) + sum over vertex-disjoint cycle families R of
    (-2)^c(R) alpha(G-R,x) prod of the member cycles' weights.

    `weights` maps canonical simple-cycle tuples of g to exact rationals; a
    cycle it does not name weighs 0.  A tiling with e edges and cycles of c
    vertices in all leaves n - 2e - c lone vertices, each a factor x, so
    coefficient k of mu is coefficient n - k of the tiling f(z) with -z^2
    per edge and -2 w_C z^|C| per cycle C.  Interpolates between the
    matching polynomial (t=0) and the characteristic polynomial (t=1).
    A key that is no canonical simple cycle of g raises PreconditionError.
    """
    for cyc in weights:
        if not (len(set(cyc)) == len(cyc) >= 3 and cyc[0] == min(cyc)
                and cyc[1] < cyc[-1]
                and all(e in g.edges for e in cycle_edges(cyc))):
            raise PreconditionError(
                f"weight key {cyc!r} is no canonical simple cycle of the graph")
    f = tiling_poly(g, Poly.monomial(2, -1),
                    [(cyc, Poly.monomial(len(cyc), -2 * Fraction(w)))
                     for cyc, w in weights.items()])
    return Poly(f[g.n - k] for k in range(g.n + 1))


def verify_gamma_mu_bridge(g: Graph, gamma: Poly,
                           cls: Optional[GraphClassification] = None) -> bool:
    """Check q^n gamma(G, -1/(2 q^2)) = mu(G, t*, q) exactly at each sample,
    where gamma(G,x) is the suspension gamma-polynomial the caller computed
    and t* weights an even cycle C by (-1/2)^(|E(C)|/2) and an odd cycle
    by 0, so only the even cycles are named.

    Sampling at the n+1 distinct points 1..n+1 certifies the underlying
    polynomial identity.  Both sides come from the one tiling DP, so this
    confirms the substitution and the reversal; a fault in the DP passes
    it, and a-formula-vs-cuts and a-vs-ehrhart are what catch one.
    """
    cls = cls or classify(g)
    if not cls.cactus:
        raise PreconditionError("mu bridge is stated for cactus graphs")
    weights = {cyc: Fraction(-1, 2) ** (len(cyc) // 2)
               for cyc in cls.simple_cycles if len(cyc) % 2 == 0}
    mu = mu_poly(g, weights)
    for q in range(1, g.n + 2):
        lhs = (q ** g.n) * gamma(Fraction(-1) / (2 * q * q))
        if lhs != mu(q):
            return False
    return True
