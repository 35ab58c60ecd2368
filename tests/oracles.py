"""Reference implementations that the tests check the library against.

The library computes every cycle-corrected matching formula with one tiling
DP (sepgamma.matching.tiling_poly).  Here the same formulas are written the
way the paper states them: list every family R of vertex-disjoint cycles,
delete V(R), and sum weight(R) times a matching polynomial of G - R.  The
matching polynomial itself is an independent recursion that branches on the
lowest vertex of an induced-subgraph bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from sepgamma import Graph, Poly, classify


@dataclass(frozen=True)
class CycleFamily:
    """A set of pairwise vertex-disjoint simple cycles."""

    cycles: tuple
    c: int
    edge_count: int

    def vertices(self) -> frozenset:
        return frozenset(v for cyc in self.cycles for v in cyc)


class DeleteResult(NamedTuple):
    graph: Graph
    old_labels: tuple  # old_labels[i] = original label of new vertex i+1


def delete_vertices(g: Graph, drop: Iterable) -> DeleteResult:
    """Induced subgraph on the complement of `drop`, relabeled densely to
    1..n-|drop|; old_labels records the relabeling."""
    drop = set(drop)
    keep = [v for v in range(1, g.n + 1) if v not in drop]
    new_of_old = {v: i + 1 for i, v in enumerate(keep)}
    edges = frozenset(
        (new_of_old[u], new_of_old[v])
        for u, v in g.edges
        if u not in drop and v not in drop
    )
    return DeleteResult(Graph(len(keep), edges), tuple(keep))


def disjoint_families(cycles: list) -> list:
    """All nonempty sets of pairwise vertex-disjoint cycles from `cycles`,
    in lexicographic index order."""
    masks = []
    for cyc in cycles:
        m = 0
        for v in cyc:
            m |= 1 << (v - 1)
        masks.append(m)
    out = []

    def rec(start, chosen, used):
        for j in range(start, len(cycles)):
            if used & masks[j]:
                continue
            chosen.append(j)
            out.append(CycleFamily(
                cycles=tuple(cycles[i] for i in chosen),
                c=len(chosen),
                edge_count=sum(len(cycles[i]) for i in chosen),
            ))
            rec(j + 1, chosen, used | masks[j])
            chosen.pop()

    rec(0, [], 0)
    return out


def even_cycle_families(g: Graph, cls=None) -> list:
    """All nonempty families of pairwise vertex-disjoint even simple cycles
    (the correction terms of the suspension formula; the empty family is the
    standalone matching-polynomial term and is excluded here)."""
    evens = [c for c in (cls or classify(g)).simple_cycles if len(c) % 2 == 0]
    return disjoint_families(evens)


def cycle_families(g: Graph, cls=None) -> list:
    """All nonempty families of pairwise vertex-disjoint simple cycles of
    any parity (the correction terms of the mu-polynomial)."""
    return disjoint_families((cls or classify(g)).simple_cycles)


def cycle_family_sum(g: Graph, families: list, base, weight):
    """base(g) + sum of weight(R) * base(g - R) over the cycle families R;
    base(g - R) is skipped when weight(R) is zero."""
    total = base(g)
    for fam in families:
        w = weight(fam)
        if w:
            total = total + base(delete_vertices(g, fam.vertices()).graph) * w
    return total


def gen_poly_reference(g: Graph) -> Poly:
    """g(G,x) by branching on the lowest vertex of a bitmask: it is
    unmatched, or matched to a neighbour (one x factor)."""
    masks = g.adjacency_masks()
    memo = {}

    def rec(mask):
        if not mask:
            return Poly.one()
        got = memo.get(mask)
        if got is None:
            low = mask & -mask
            rest = mask ^ low
            got = rec(rest)
            nb = masks[low.bit_length() - 1] & rest
            while nb:
                u = nb & -nb
                nb ^= u
                got = got + rec(rest ^ u).shift(1)
            memo[mask] = got
        return got

    return rec((1 << g.n) - 1)


def suspension_gamma_reference(g: Graph, cls=None) -> Poly:
    """g(G,2x) + sum_R (-2)^c(R) g(G-R,2x) x^(|E(R)|/2) over the even-cycle
    families R."""
    return cycle_family_sum(
        g, even_cycle_families(g, cls),
        lambda h: gen_poly_reference(h).scale_arg(2),
        lambda fam: Poly.monomial(fam.edge_count // 2, (-2) ** fam.c))


def matched_sets_reference(g: Graph, cls=None) -> list:
    """|M(G,k)| = m_k(G) + sum_R (-1)^c(R) m_(k - |E(R)|/2)(G - R) over the
    even-cycle families R."""
    return cycle_family_sum(
        g, even_cycle_families(g, cls), gen_poly_reference,
        lambda fam: Poly.monomial(fam.edge_count // 2, (-1) ** fam.c),
    ).coeff_list()


def mu_poly_reference(g: Graph, weights: dict, cls=None) -> Poly:
    """alpha(G,x) + sum_R (-2)^c(R) alpha(G-R,x) prod of the weights of R's
    cycles, over the families R of cycles of any parity."""
    def alpha(h):
        coeffs = [0] * (h.n + 1)
        for k, mk in enumerate(gen_poly_reference(h).coeffs):
            coeffs[h.n - 2 * k] = (-1) ** k * mk
        return Poly(coeffs)

    def weight(fam):
        w = Fraction((-2) ** fam.c)
        for cyc in fam.cycles:
            w *= Fraction(weights[cyc])
        return w

    return cycle_family_sum(g, cycle_families(g, cls), alpha, weight)
