"""Matching counts, matching (generating) polynomials, matched-vertex-set
counts |M(G,k)|, and independence polynomials.

Counting recursions are memoized on induced-subgraph bitmasks; the
|M(G,k)| oracle enumerates every matching and deduplicates vertex sets,
exactly as the definition reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BoundExceededError, PreconditionError
from .graphs import (Graph, GraphClassification, classify, cycle_family_sum,
                     even_cycle_families)
from .polynomials import Poly

MAX_MATCHED_SET_VERTICES = 16
MAX_INDEPENDENCE_VERTICES = 24


def _gen_poly_on_mask(masks: list, mask: int, memo: dict) -> Poly:
    """Matching generating polynomial of the induced subgraph on `mask`.

    Branch on the lowest vertex v: either v is unmatched, or it is matched
    to one of its neighbors (delete both endpoints, one x factor).  A lowest
    vertex with no neighbor in the mask is dropped first, without a frame.
    """
    while mask:
        low = mask & -mask
        v = low.bit_length() - 1
        if masks[v] & mask:
            break
        mask ^= low
    else:
        return Poly.one()
    got = memo.get(mask)
    if got is not None:
        return got
    rest = mask ^ low
    out = _gen_poly_on_mask(masks, rest, memo)
    nb = masks[v] & rest
    while nb:
        u_bit = nb & -nb
        nb ^= u_bit
        out = out + _gen_poly_on_mask(masks, rest & ~u_bit, memo).shift(1)
    memo[mask] = out
    return out


def gen_poly(g: Graph) -> Poly:
    """g(G,x) = sum_k m_k(G) x^k over k-matchings; g = 1 for edgeless G."""
    if not g.edges:
        return Poly.one()
    masks = g.adjacency_masks()
    return _gen_poly_on_mask(masks, (1 << g.n) - 1, {})


def matching_counts(g: Graph) -> list:
    """[m_0, m_1, ...] with trailing zeros trimmed; m_0 = 1."""
    return gen_poly(g).coeff_list() or [1]


def matching_poly(g: Graph) -> Poly:
    """alpha(G,x) = sum_k (-1)^k m_k(G) x^(n-2k); equals x^n g(G, -x^-2)."""
    m = matching_counts(g)
    coeffs = [0] * (g.n + 1)
    for k, mk in enumerate(m):
        coeffs[g.n - 2 * k] = (-1) ** k * mk
    return Poly(coeffs)


def matched_vertex_sets(g: Graph, max_n: int = MAX_MATCHED_SET_VERTICES) -> list:
    """|M(G,k)| by brute force: enumerate all matchings, deduplicate the
    matched vertex sets per k.  |M(G,0)| = 1 for the empty set."""
    if g.n > max_n:
        raise BoundExceededError(
            f"matched-vertex-set enumeration over {g.n} > {max_n} vertices")
    edge_masks = [
        (1 << (u - 1)) | (1 << (v - 1)) for u, v in g.sorted_edges()
    ]
    seen = [set() for _ in range(g.n // 2 + 1)]
    seen[0].add(0)

    def rec(i: int, used: int, k: int):
        for j in range(i, len(edge_masks)):
            em = edge_masks[j]
            if used & em:
                continue
            seen[k + 1].add(used | em)
            rec(j + 1, used | em, k + 1)

    rec(0, 0, 0)
    out = [len(s) for s in seen]
    while out and out[-1] == 0:
        out.pop()
    return out


def matched_vertex_sets_formula(g: Graph,
                                cls: Optional[GraphClassification] = None) -> list:
    """|M(G,k)| = m_k(G) + sum over vertex-disjoint even-cycle families R of
    (-1)^c(R) m_(k - |E(R)|/2)(G - R).

    Valid when every edge lies in at most one even cycle; raises
    PreconditionError otherwise.  Must agree with matched_vertex_sets.
    """
    cls = cls or classify(g)
    if not cls.unique_even_cycle_condition:
        raise PreconditionError("an edge lies in two even cycles")
    return cycle_family_sum(
        g, even_cycle_families(g, cls), gen_poly,
        lambda fam: Poly.monomial(fam.edge_count // 2, (-1) ** fam.c),
    ).coeff_list()


def _independence_on_mask(masks: list, mask: int, memo: dict) -> Poly:
    """Independence polynomial of the induced subgraph on `mask`.

    Branch on a maximum-degree vertex v: i = i(G - v) + x * i(G - N[v]).
    """
    if mask == 0:
        return Poly.one()
    got = memo.get(mask)
    if got is not None:
        return got
    best_v, best_deg = -1, -1
    m = mask
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        d = (masks[v] & mask).bit_count()
        if d > best_deg:
            best_v, best_deg = v, d
    if best_deg == 0:
        out = Poly.one() + Poly.monomial(1)
        k = mask.bit_count()
        out = out ** k
    else:
        v_bit = 1 << best_v
        out = (_independence_on_mask(masks, mask & ~v_bit, memo)
               + _independence_on_mask(masks, mask & ~(masks[best_v] | v_bit),
                                       memo).shift(1))
    memo[mask] = out
    return out


def independence_poly(g: Graph, max_n: int = MAX_INDEPENDENCE_VERTICES) -> Poly:
    """i(G,x) = sum_k i_k x^k over independent vertex sets; i_0 = 1."""
    if g.n > max_n:
        raise BoundExceededError(
            f"independence polynomial over {g.n} > {max_n} vertices")
    if g.n == 0:
        return Poly.one()
    masks = g.adjacency_masks()
    return _independence_on_mask(masks, (1 << g.n) - 1, {})


@dataclass(frozen=True)
class MatchingProfile:
    """m[k] = number of k-matchings; mv[k] = |M(G,k)| distinct vertex sets."""
    m: tuple
    mv: tuple


def matching_profile(g: Graph, max_n: int = MAX_MATCHED_SET_VERTICES) -> MatchingProfile:
    return MatchingProfile(tuple(matching_counts(g)),
                           tuple(matched_vertex_sets(g, max_n)))
