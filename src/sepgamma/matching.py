"""Matching counts, matching (generating) polynomials, matched-vertex-set
counts |M(G,k)|, and independence polynomials.

tiling_poly is the one DP behind every matching formula, with or without
cycle corrections; the |M(G,k)| oracle enumerates every matching and
deduplicates vertex sets, exactly as the definition reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BoundExceededError, PreconditionError
from .graphs import Graph, GraphClassification, classify
from .polynomials import Poly

MAX_MATCHED_SET_VERTICES = 16
MAX_INDEPENDENCE_VERTICES = 24


def tiling_poly(g: Graph, vertex: Poly, edge: Poly, tiles: Iterable = ()) -> Poly:
    """Sum over the tilings of V(G) by lone vertices, edges and listed tiles
    of the product of the weights: `vertex` per lone vertex, `edge` per
    edge, `weight` per (vertices, weight) pair of `tiles` (cycles of G).

    A vertex set is worth the product of its components' values; a lone
    vertex is worth `vertex`, a lone edge `vertex^2 + edge`.  A larger
    connected set C branches on one vertex v: v alone, paired with a
    neighbour u, or in a tile T.  Each branch keeps every component C_j of
    C - v whole but one, from which it takes u or T - v.  With P_j the value
    of C_j and D_j the sum of the branch values inside it, C is worth T_k:
    T_0 = vertex, A_0 = 1, T_j = T_(j-1) P_j + A_(j-1) D_j, A_j = A_(j-1) P_j.
    The leaves of v count as one C_j, so a star costs one branch.  Values
    are memoized per vertex mask.  v is the middle of a longest shortest
    path (two breadth-first sweeps, or the first sweep's start when it sees
    every vertex at once): the depth follows the halvings of the diameter,
    and the labels do not change the work.
    """
    adj = g.adjacency_masks()
    tiles_at = {}
    for vertices, weight in tiles:
        mask = sum(1 << (v - 1) for v in vertices)
        for v in vertices:
            if weight:
                tiles_at.setdefault(v - 1, []).append((mask, weight))
    one = Poly.one()
    vertex = one if vertex == one else vertex
    memo = {0: one}

    def times(a: Poly, b: Poly) -> Poly:
        return b if a is one else a if b is one else a * b

    pair = times(vertex, vertex) + edge  # the value of every edge on its own

    def layers(start: int, within: int) -> list:
        """Breadth-first layers of `within` from the vertex bit `start`."""
        out = [start]
        seen = frontier = start
        while True:
            reach = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                reach |= adj[b.bit_length() - 1]
            frontier = reach & within & ~seen
            if not frontier:
                return out
            seen |= frontier
            out.append(frontier)

    def components(mask: int) -> list:
        """(component, last layer of a breadth-first sweep of it from its
        lowest vertex) for each component of `mask`."""
        out = []
        while mask:
            sweep = layers(mask & -mask, mask)
            comp = sum(sweep)
            mask ^= comp
            out.append((comp, sweep[-1]))
        return out

    def value(mask: int) -> Poly:
        """Product of the values of the components of `mask`."""
        got = memo.get(mask)
        if got is not None:
            return got
        out, lone = one, 0
        for comp, far in components(mask):
            if comp & (comp - 1):
                out = times(out, solve(comp, far))
            else:
                lone += 1
        if lone and vertex is not one:
            out = times(out, vertex ** lone)
        memo[mask] = out
        return out

    def solve(comp: int, far: int) -> Poly:
        """Value of a connected set of two or more vertices; `far` is the
        last layer of a breadth-first sweep of it."""
        got = pair if comp.bit_count() == 2 else memo.get(comp)
        if got is not None:
            return got
        v = comp & -comp  # where the sweep that found far started
        if far != comp ^ v:
            sweep = layers(far & -far, comp)
            v = sweep[-1] & -sweep[-1]
            for layer in reversed(sweep[(len(sweep) - 1) // 2:-1]):
                v = adj[v.bit_length() - 1] & layer
                v &= -v
        v = v.bit_length() - 1
        found = components(comp ^ (1 << v))  # each holds a neighbour of v
        parts = [(part, far) for part, far in found if part & (part - 1)]
        leaves = len(found) - len(parts)
        total, lead = vertex, one
        for i, (part, far) in enumerate(parts):
            inner, us = None, adj[v] & part
            while us:
                u = us & -us
                us ^= u
                got = value(part ^ u)
                inner = got if inner is None else inner + got
            inner = inner * edge
            for mask, weight in tiles_at.get(v, ()):
                if mask & comp == mask and mask & part:
                    inner = inner + value(part & ~mask) * weight
            p = solve(part, far)
            total = times(total, p) + times(lead, inner)
            if leaves or i + 1 < len(parts):
                lead = times(lead, p)
        if leaves:  # as one part: P = vertex^leaves, D = leaves edge vertex^(leaves-1)
            lone = one if vertex is one else vertex ** (leaves - 1)
            total = times(total, times(lone, vertex)) + times(lead, times(lone, edge * leaves))
        memo[comp] = total
        return total

    return value((1 << g.n) - 1)


def gen_poly(g: Graph) -> Poly:
    """g(G,x) = sum_k m_k(G) x^k over k-matchings; g = 1 for edgeless G."""
    return tiling_poly(g, Poly.one(), Poly.monomial(1))


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
    (-1)^c(R) m_(k - |E(R)|/2)(G - R): tiles 1, x and -x^(|C|/2) per even C.

    Valid when every edge lies in at most one even cycle; raises
    PreconditionError otherwise.  Must agree with matched_vertex_sets.
    """
    cls = cls or classify(g)
    if not cls.unique_even_cycle_condition:
        raise PreconditionError("an edge lies in two even cycles")
    evens = [(c, Poly.monomial(len(c) // 2, -1))
             for c in cls.simple_cycles if len(c) % 2 == 0]
    return tiling_poly(g, Poly.one(), Poly.monomial(1), evens).coeff_list()


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
