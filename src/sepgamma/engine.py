"""The headline formulas: gamma-polynomials, h*-polynomials and normalized
volumes of the suspension polytope (type A) and the type-B polytope of a
graph.  The closed forms for wheels and cycles that the tests hold them to
live with the tests.

Every result is packaged as a SepResult whose invariants (palindromic h*,
h*(1) = volume = 2^dim gamma(1/4)) hold by construction and are re-checked
by the test suite.  The matching formulas of both types are one tiling
of the graph (matching.tiling_poly) by edges and even cycles: weights 2x
and -2x^(|C|/2) for type A; x and -x^(|C|/2), taken at 4x, for type B.
On every graph the tiling is one fold over the blocks of the caller's
classification.  Before it runs, the h* guard is sized from a bound on
the coefficients of gamma, not from n alone (_check_gamma_size); below
polynomials.PACK_SLOT_BITS that bound also sets the slot width at which
the fold runs on ints and gamma is read off one packed value.
`solve` is the one public function and the one door to every route:
ROUTES maps each polytope and method to a private route(g, cls, bounds),
and says what `auto` picks.  The Ehrhart route defines gamma exactly
when the oracle reports that its facets proved the polytope reflexive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, Optional

from .ehrhart import build_a, build_b, ehrhart_data
from .errors import BoundExceededError, PreconditionError
from .graphs import Graph, GraphClassification, classify, suspension
from .interior import cut_sum_gamma
from .matching import (check_pair_count_bound, matchable_pairs, tiling_poly,
                       tiling_value)
from .polynomials import (Poly, _packed_width, _signed_slots,
                          check_hstar_size, gamma_to_hstar, hstar_to_gamma)


@dataclass(frozen=True)
class SepResult:
    """gamma, h*, normalized volume and dimension of one polytope, plus the
    method that produced it (formula | cut_sum | interior | ehrhart).
    gamma is None only for ehrhart results on non-reflexive polytopes;
    otherwise it is hstar_to_gamma(hstar)."""

    gamma: Optional[Poly]
    hstar: Poly
    volume: int
    dim: int
    method: str


def _pack(gamma: Poly, dim: int, method: str) -> SepResult:
    hstar = gamma_to_hstar(gamma, dim)
    return SepResult(gamma, hstar, hstar(1), dim, method)


def _even_cycle_tiling(g: Graph, cls: GraphClassification, edge: int,
                       cycle: int, scale: int = 1) -> Poly:
    """The tiling of g with `edge` x per edge and `cycle` x^(|C|/2) per
    even cycle C of cls, whose cycles must be listed, taken at scale x.
    The h* guard comes first (_check_gamma_size).  Where the guard's count
    of bits, plus a sign bit, packs (polynomials._packed_width), the fold
    runs on ints at y = scale 2^w and the coefficients are read off its
    w-bit slots: the count bounds sum_k |gamma_k|, so none overflows."""
    evens = [c for c in cls.simple_cycles if len(c) % 2 == 0]
    bits = _check_gamma_size(g, cls, evens, edge, cycle, scale)
    width = _packed_width(bits + 1)
    if width:
        y = scale << width
        value = tiling_value(g, edge * y, [(c, cycle * y ** (len(c) // 2))
                                           for c in evens], cls)
        return Poly(_signed_slots(value, width, g.n // 2 + 1))
    f = tiling_poly(g, Poly.monomial(1, edge),
                    [(c, Poly.monomial(len(c) // 2, cycle)) for c in evens], cls)
    return f if scale == 1 else f.scale_arg(scale)


def _check_gamma_size(g: Graph, cls: GraphClassification, evens: list,
                      edge: int, cycle: int, scale: int) -> int:
    """The h* guard of the formula routes, before the tiling, from a bound
    on sum_k |gamma_k|: the tiling with the absolute weights at x = scale.
    A tile weighs at most 2 per vertex it covers, so a term is at most 2^n,
    and there are at most 2^(|E| + even cycles) tilings: that count first,
    and only past the limit the fold at the point.  Returns the count."""
    bits = g.n + g.edge_count + len(evens) + 1
    try:
        check_hstar_size(g.n, bits)
    except BoundExceededError:
        total = tiling_value(g, abs(edge) * scale,
                             [(c, abs(cycle) * scale ** (len(c) // 2))
                              for c in evens], cls)
        check_hstar_size(g.n, total.bit_length())
    return bits


# ---------------------------------------------------------------------------
# The routes: each is route(g, cls, bounds) -> SepResult
# ---------------------------------------------------------------------------

def _formula_ahat(g: Graph, cls: Optional[GraphClassification],
                  bounds: Optional[Mapping]) -> SepResult:
    """Type A of the suspension by the matching formula, when no edge lies
    in two even cycles: gamma is
    g(G,2x) + sum_R (-2)^c(R) g(G-R,2x) x^(|E(R)|/2) over families
    R of vertex-disjoint even cycles: tiles 1, 2x and -2x^(|C|/2) per even
    cycle C.  With no even cycle it is g(G,2x).  The polytope has
    dimension n (the suspension is connected)."""
    cls = cls or classify(g)
    if not cls.unique_even_cycle_condition:
        raise PreconditionError("an edge lies in two even cycles; "
                                "use the cut-sum route")
    return _pack(_even_cycle_tiling(g, cls, 2, -2), g.n, "formula")


def _cuts_ahat(g: Graph, cls: Optional[GraphClassification],
               bounds: Optional[Mapping]) -> SepResult:
    """The cut-sum formula, walked over every cut; valid for every graph."""
    return _pack(cut_sum_gamma(g, bounds), g.n, "cut_sum")


def _auto_ahat(g: Graph, cls: Optional[GraphClassification],
               bounds: Optional[Mapping]) -> SepResult:
    """The matching formula when its even-cycle condition holds, else the
    cut-sum formula with its two sums swapped: gamma_k counts the ordered
    pairs of disjoint k-sets whose crossing edges hold a perfect matching,
    half of them counted twice, one block of g at a time.  The pair count
    keeps the cut sum's method label; its `cut-sum` guard bounds the
    largest block, not n."""
    cls = cls or classify(g)
    if cls.unique_even_cycle_condition:
        return _formula_ahat(g, cls, bounds)
    check_pair_count_bound(cls, bounds, "cut-sum")
    return _pack(Poly(matchable_pairs(g, cls=cls)), g.n, "cut_sum")


def _formula_b(g: Graph, cls: Optional[GraphClassification],
               bounds: Optional[Mapping]) -> SepResult:
    """Type B of a bipartite cactus by the matching formula:
    g(G,4x) + sum_R (-1)^c(R) g(G-R,4x) (4x)^(|E(R)|/2), which is
    sum_k |M(G,k)| (4x)^k: the tiling with x per edge and -x^(|C|/2) per
    even cycle C counts |M(G,k)|, and is taken at 4x."""
    cls = cls or classify(g)
    if not cls.bipartite:
        raise PreconditionError("type-B formula needs a bipartite graph")
    if not cls.cactus:
        raise PreconditionError("type-B formula needs a cactus graph")
    return _pack(_even_cycle_tiling(g, cls, 1, -1, 4), g.n, "formula")


def _interior_b(g: Graph, cls: Optional[GraphClassification],
                bounds: Optional[Mapping]) -> SepResult:
    """Type B of any bipartite graph: gamma = I~(4x), realized as
    sum_k |M(G,k)| (4x)^k, with |M(G,k)| the count of matchable pairs whose
    first set lies in one side, one block of g at a time.  Its
    `matched-sets` guard bounds the largest block, not n."""
    cls = cls or classify(g)
    if cls.bipartition is None:
        raise PreconditionError("type-B interior route needs a bipartite graph")
    check_pair_count_bound(cls, bounds, "matched-sets")
    gamma = Poly(matchable_pairs(g, cls.bipartition.part1, cls)).scale_arg(4)
    return _pack(gamma, g.n, "interior")


def _auto_b(g: Graph, cls: Optional[GraphClassification],
            bounds: Optional[Mapping]) -> SepResult:
    """The matching formula on bipartite cacti, else the interior count."""
    cls = cls or classify(g)
    if not cls.bipartite:
        raise PreconditionError("type-B polytope of a non-bipartite graph "
                                "is not reflexive; only method=ehrhart applies")
    return (_formula_b if cls.cactus else _interior_b)(g, cls, bounds)


def _oracle(polytope: str, g: Graph, cls: Optional[GraphClassification],
            bounds: Optional[Mapping]) -> SepResult:
    """Result from lattice-point counts of the polytope (a = type A of g,
    ahat = type A of its suspension, b = type B).  gamma is defined only
    when the oracle's facets prove the polytope reflexive."""
    if polytope == "b":
        p = build_b(g, bounds)
    else:
        p = build_a(suspension(g) if polytope == "ahat" else g, bounds)
    data = ehrhart_data(p, bounds)
    # the suspension is connected on n + 1 vertices: any other dimension
    # is a fault in building the polytope
    if polytope == "ahat" and data.dim != g.n:
        raise PreconditionError("suspension polytope came out "
                                f"{data.dim}-dimensional, expected {g.n}")
    gamma = hstar_to_gamma(data.hstar) if data.reflexive else None
    return SepResult(gamma, data.hstar, data.hstar(1), data.dim, "ehrhart")


# polytope -> method -> route(g, cls, bounds).  A route classifies g only
# when it needs to, and hands bounds on unchanged: each guarded function
# reads its own limits from it, by their errors.BOUNDS names.
ROUTES = {
    "a": dict.fromkeys(("auto", "ehrhart"), partial(_oracle, "a")),
    "ahat": {"auto": _auto_ahat, "formula": _formula_ahat, "cuts": _cuts_ahat,
             "ehrhart": partial(_oracle, "ahat")},
    "b": {"auto": _auto_b, "formula": _formula_b, "interior": _interior_b,
          "ehrhart": partial(_oracle, "b")},
}

def solve(g: Graph, polytope: str, method: str = "auto",
          cls: Optional[GraphClassification] = None,
          bounds: Optional[Mapping] = None) -> SepResult:
    """gamma, h*, volume and dimension of one polytope of g: "a" (type A of
    g itself), "ahat" (type A of its suspension) or "b" (type B), by one
    route of ROUTES.  cls is the caller's classification of g, if any;
    bounds maps --bound-override names (see errors.BOUNDS) to limits."""
    if polytope not in ROUTES:
        raise ValueError(f"unknown polytope {polytope!r}")
    routes = ROUTES[polytope]
    if method not in routes:
        raise PreconditionError(
            f"method {method!r} does not apply to polytope {polytope}; "
            f"choose from {', '.join(routes)}")
    if polytope != "a":  # every route ends in an h* of degree n
        check_hstar_size(g.n)
    return routes[method](g, cls, bounds)
