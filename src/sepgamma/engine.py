"""The headline formulas: gamma-polynomials, h*-polynomials and normalized
volumes of the suspension polytope (type A) and the type-B polytope of a
graph, with the closed forms for wheels and cycles kept as regression
targets.

Every result is packaged as a SepResult whose invariants (palindromic h*,
h*(1) = volume = 2^dim gamma(1/4)) hold by construction and are re-checked
by the test suite.  `solve` is the one dispatcher: ROUTES says which
routes serve which polytope and what `auto` picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import PreconditionError
from .graphs import (Graph, GraphClassification, bipartition_of, classify,
                     cycle_graph, suspension)
from .interior import MAX_CUT_SUM_VERTICES, cut_sum_gamma
from .matching import (MAX_MATCHED_SET_VERTICES, matched_vertex_sets,
                       matched_vertex_sets_formula, tiling_poly)
from .polynomials import Poly, gamma_to_hstar, hstar_to_gamma


@dataclass(frozen=True)
class SepResult:
    """gamma, h*, normalized volume and dimension of one polytope, plus the
    method that produced it (formula | cut_sum | interior | ehrhart).
    gamma is None only for ehrhart results on non-reflexive polytopes."""

    gamma: Optional[Poly]
    hstar: Poly
    volume: int
    dim: int
    method: str


def _pack(gamma: Poly, dim: int, method: str) -> SepResult:
    hstar = gamma_to_hstar(gamma, dim)
    return SepResult(gamma, hstar, hstar(1), dim, method)


# ---------------------------------------------------------------------------
# Type A (suspension)
# ---------------------------------------------------------------------------

def suspension_gamma_formula(g: Graph, cls: Optional[GraphClassification] = None) -> Poly:
    """gamma of the suspension polytope when no edge lies in two even
    cycles:  g(G,2x) + sum_R (-2)^c(R) g(G-R,2x) x^(|E(R)|/2) over families
    R of vertex-disjoint even cycles: tiles 1, 2x and -2x^(|C|/2) per even
    cycle C.  With no even cycle it is g(G,2x)."""
    cls = cls or classify(g)
    if not cls.unique_even_cycle_condition:
        raise PreconditionError("an edge lies in two even cycles; "
                                "use the cut-sum route")
    evens = [(c, Poly.monomial(len(c) // 2, -2))
             for c in cls.simple_cycles if len(c) % 2 == 0]
    return tiling_poly(g, Poly.one(), Poly.monomial(1, 2), evens)


def gamma_a_suspension(g: Graph, cls: Optional[GraphClassification] = None) -> SepResult:
    """Type-A result for the suspension of g by the matching formula.
    The polytope has dimension n (the suspension is connected)."""
    return _pack(suspension_gamma_formula(g, cls), g.n, "formula")


def gamma_a_cut_sum(g: Graph, max_n: int = MAX_CUT_SUM_VERTICES) -> SepResult:
    """Type-A result by the cut-sum formula; valid for every graph."""
    return _pack(cut_sum_gamma(g, max_n=max_n), g.n, "cut_sum")


# ---------------------------------------------------------------------------
# Type B
# ---------------------------------------------------------------------------

def gamma_b(g: Graph, cls: Optional[GraphClassification] = None) -> SepResult:
    """Type-B result for a bipartite cactus by the matching formula:
    g(G,4x) + sum_R (-1)^c(R) g(G-R,4x) (4x)^(|E(R)|/2), which is
    sum_k |M(G,k)| (4x)^k with |M(G,k)| from its cycle-family formula."""
    cls = cls or classify(g)
    if not cls.bipartite:
        raise PreconditionError("type-B formula needs a bipartite graph")
    if not cls.cactus:
        raise PreconditionError("type-B formula needs a cactus graph")
    return _pack(Poly(matched_vertex_sets_formula(g, cls)).scale_arg(4), g.n, "formula")


def gamma_b_interior(g: Graph, max_n: int = MAX_MATCHED_SET_VERTICES,
                     cls: Optional[GraphClassification] = None) -> SepResult:
    """Type-B result for any bipartite graph: gamma = I~(4x), realized as
    sum_k |M(G,k)| (4x)^k.  Without a classification the bipartite test is
    a two-colouring, so this route alone never lists the cycles."""
    bipartite = cls.bipartite if cls is not None else bipartition_of(g) is not None
    if not bipartite:
        raise PreconditionError("type-B interior route needs a bipartite graph")
    gamma = Poly(matched_vertex_sets(g, max_n=max_n)).scale_arg(4)
    return _pack(gamma, g.n, "interior")


# ---------------------------------------------------------------------------
# The route table
# ---------------------------------------------------------------------------

# --bound-override names of the Ehrhart oracle and the keywords they set.
_ORACLE_BOUNDS = (("hrep-dim", "max_dim"), ("hrep-points", "max_points"),
                  ("box", "budget"))


def _oracle(g: Graph, polytope: str, bounds: dict) -> SepResult:
    """Result from lattice-point counts of the polytope (a = type A of g,
    ahat = type A of its suspension, b = type B).  gamma is defined only
    when h* is palindromic of full degree."""
    from .ehrhart import oracle_hstar_a, oracle_hstar_b, reflexivity_check

    kw = {arg: bounds[key] for key, arg in _ORACLE_BOUNDS if key in bounds}
    if polytope == "b":
        data = oracle_hstar_b(g, **kw)
    else:
        data = oracle_hstar_a(suspension(g) if polytope == "ahat" else g, **kw)
    dim = len(data.counts) - 2
    # the suspension is connected on n + 1 vertices: any other dimension
    # is a fault in building or reducing the polytope
    if polytope == "ahat" and dim != g.n:
        raise PreconditionError(
            f"suspension polytope came out {dim}-dimensional, expected {g.n}")
    hstar = data.hstar
    gamma = hstar_to_gamma(hstar) if reflexivity_check(hstar, dim) else None
    return SepResult(gamma, hstar, hstar(1), dim, "ehrhart")


def _auto_ahat(g: Graph, cls: Optional[GraphClassification], bounds: dict) -> SepResult:
    """The matching formula when its even-cycle condition holds, else the
    cut sum."""
    cls = cls or classify(g)
    method = "formula" if cls.unique_even_cycle_condition else "cuts"
    return ROUTES["ahat"][method](g, cls, bounds)


def _auto_b(g: Graph, cls: Optional[GraphClassification], bounds: dict) -> SepResult:
    """The matching formula on bipartite cacti, else the interior count."""
    cls = cls or classify(g)
    if not cls.bipartite:
        raise PreconditionError("type-B polytope of a non-bipartite graph "
                                "is not reflexive; only method=ehrhart applies")
    return ROUTES["b"]["formula" if cls.cactus else "interior"](g, cls, bounds)


# polytope -> method -> route(g, cls, bounds).  A route classifies g only
# when it needs to, and reads its own --bound-override names from bounds.
ROUTES = {
    "a": {
        "auto": lambda g, cls, bounds: _oracle(g, "a", bounds),
        "ehrhart": lambda g, cls, bounds: _oracle(g, "a", bounds),
    },
    "ahat": {
        "auto": _auto_ahat,
        "formula": lambda g, cls, bounds: gamma_a_suspension(g, cls),
        "cuts": lambda g, cls, bounds: gamma_a_cut_sum(
            g, bounds.get("cut-sum", MAX_CUT_SUM_VERTICES)),
        "ehrhart": lambda g, cls, bounds: _oracle(g, "ahat", bounds),
    },
    "b": {
        "auto": _auto_b,
        "formula": lambda g, cls, bounds: gamma_b(g, cls),
        "interior": lambda g, cls, bounds: gamma_b_interior(
            g, bounds.get("matched-sets", MAX_MATCHED_SET_VERTICES), cls),
        "ehrhart": lambda g, cls, bounds: _oracle(g, "b", bounds),
    },
}


def solve(g: Graph, polytope: str, method: str = "auto",
          cls: Optional[GraphClassification] = None,
          bounds: Optional[dict] = None) -> SepResult:
    """gamma, h*, volume and dimension of one polytope of g: "a" (type A of
    g itself), "ahat" (type A of its suspension) or "b" (type B), by one
    route of ROUTES.  cls is the caller's classification of g, if any;
    bounds maps --bound-override names to values."""
    if polytope not in ROUTES:
        raise ValueError(f"unknown polytope {polytope!r}")
    routes = ROUTES[polytope]
    if method not in routes:
        raise PreconditionError(
            f"method {method!r} does not apply to polytope {polytope}; "
            f"choose from {', '.join(routes)}")
    return routes[method](g, cls, bounds or {})


# ---------------------------------------------------------------------------
# Closed forms kept as regression targets
# ---------------------------------------------------------------------------

class WheelData(NamedTuple):
    gamma: Poly
    volume: int


def wheel_closed_form(n: int) -> WheelData:
    """Wheel on n+1 vertices = suspension of the n-cycle.  The volume is the
    integer sequence a_k = 2a_(k-1) + 2a_(k-2), a_0 = a_1 = 2 (realizing
    (1+sqrt 3)^n + (1-sqrt 3)^n), minus 2 when n is even; gamma comes from
    the matching formula."""
    if n < 3:
        raise PreconditionError(f"wheel rim needs >= 3 vertices, got {n}")
    prev, cur = 2, 2
    for _ in range(n - 1):
        prev, cur = cur, 2 * cur + 2 * prev
    volume = cur - 2 if n % 2 == 0 else cur
    return WheelData(gamma_a_suspension(cycle_graph(n)).gamma, volume)


def gamma_a_cycle_reference(n: int) -> Poly:
    """gamma of the type-A polytope of the plain n-cycle:
    sum_{i <= (n-1)/2} C(2i, i) x^i.  Reference values for the oracle."""
    if n < 3:
        raise PreconditionError(f"cycle needs >= 3 vertices, got {n}")
    return Poly([math.comb(2 * i, i) for i in range((n - 1) // 2 + 1)])
