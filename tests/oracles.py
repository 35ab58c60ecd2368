"""Reference implementations that the tests check the library against.

The library computes every cycle-corrected matching formula with one tiling
DP (sepgamma.matching.tiling_poly).  Here the same formulas are written the
way the paper states them: list every family R of vertex-disjoint cycles,
delete V(R), and sum weight(R) times a matching polynomial of G - R.  The
matching polynomial itself is an independent recursion that branches on the
lowest vertex of an induced-subgraph bitmask.

The library's classify works block by block and stops its cycle search at
the first edge in two even cycles; classify_reference lists every simple
cycle and reads each flag off the list.

The Ehrhart oracle finds facets by double description and counts lattice
points through the projections of tP; h_representation_reference tries the
hyperplane through every d points, and count_points_reference scans the
bounding box of tP.  It counts only the dilates t = 1..d//2 + 1 once its
facets prove the polytope reflexive; ehrhart_data_reference counts every
t = 1..d+1 with the box scan and transforms each coefficient of h*.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple

from sepgamma import (EhrhartData, Graph, GraphClassification,
                      LatticePolytope, Poly, h_representation,
                      hstar_from_counts, reduce_to_full_dim)
from sepgamma.ehrhart import _row_reduce
from sepgamma.graphs import (bipartition_of, cycle_edges, is_connected,
                             simple_cycles)


def classify_reference(g: Graph) -> GraphClassification:
    """Every flag from the list of all simple cycles: an edge on two cycles
    breaks the cactus property, an edge on two even cycles the even-cycle
    condition (and then simple_cycles is None, as in classify).  Two edges
    share a block when a chain of cycles joins them; a cut vertex lies in
    two blocks."""
    cycles = simple_cycles(g)
    block_of = {e: e for e in g.edges}

    def find(e):
        while block_of[e] != e:
            e = block_of[e]
        return e

    for cyc in cycles:
        first, *rest = cycle_edges(cyc)
        for e in rest:
            block_of[find(e)] = find(first)
    blocks = {}
    for e in g.edges:
        blocks.setdefault(find(e), set()).update(e)
    blocks = [frozenset(b) for b in blocks.values()]
    edge_load = {}
    even_edge_load = {}
    for cyc in cycles:
        even = len(cyc) % 2 == 0
        for e in cycle_edges(cyc):
            edge_load[e] = edge_load.get(e, 0) + 1
            if even:
                even_edge_load[e] = even_edge_load.get(e, 0) + 1
    bip = bipartition_of(g)
    uec = all(k <= 1 for k in even_edge_load.values())
    return GraphClassification(
        connected=is_connected(g),
        bipartite=bip is not None,
        bipartition=bip,
        forest=not cycles,
        cactus=all(k <= 1 for k in edge_load.values()),
        unique_even_cycle_condition=uec,
        simple_cycles=tuple(cycles) if uec else None,
        blocks=frozenset(blocks),
        cut_vertices=frozenset(v for v in range(1, g.n + 1)
                               if sum(v in b for b in blocks) > 1),
    )


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
    cycles = simple_cycles(g) if cls is None else cls.simple_cycles
    evens = [c for c in cycles if len(c) % 2 == 0]
    return disjoint_families(evens)


def cycle_families(g: Graph, cls=None) -> list:
    """All nonempty families of pairwise vertex-disjoint simple cycles of
    any parity (the correction terms of the mu-polynomial)."""
    return disjoint_families(simple_cycles(g) if cls is None else cls.simple_cycles)


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


def matched_sets_by_matchings(g: Graph) -> list:
    """|M(G,k)| as the definition reads: enumerate every matching depth
    first over the sorted edges and deduplicate the matched vertex sets per
    k.  |M(G,0)| = 1; trailing zeros trimmed."""
    edge_masks = [(1 << (u - 1)) | (1 << (v - 1)) for u, v in g.sorted_edges()]
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


def matchable_pairs_reference(g: Graph, sources=None) -> list:
    """The pair count over the whole vertex set, every ordered pair grown:
    A in increasing vertex order, each A with the set of its matchable B's,
    and B + b matchable to A + a (a above A) iff B is matchable to A, a is
    not in B, and b is a neighbour of a in neither A + a nor B."""
    adj = g.adjacency_masks()
    order = sorted(range(1, g.n + 1) if sources is None else sources)
    counts = [1]

    def grow(start: int, taken: int, bs: set) -> None:
        for i in range(start, len(order)):
            bit = 1 << (order[i] - 1)
            near = adj[order[i] - 1] & ~(taken | bit)
            grown = set()
            for b in bs:
                if b & bit:
                    continue
                free = near & ~b
                while free:
                    low = free & -free
                    free ^= low
                    grown.add(b | low)
            if grown:
                k = (taken | bit).bit_count()
                if k == len(counts):
                    counts.append(0)
                counts[k] += len(grown)
                grow(i + 1, taken | bit, grown)

    grow(0, 0, {0})
    return counts


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


def h_representation_reference(p: LatticePolytope) -> tuple:
    """Sorted facets (normal, offset) of a full-dimensional p, with primitive
    normals: every hyperplane spanned by d affinely independent points that
    has all points on one side."""
    d = p.dim
    pts = sorted(set(p.points))
    facets = set()
    seen = set()
    for subset in combinations(pts, d) if d else ():
        # the transform row that clears the d - 1 differences is the
        # primitive normal, unless they have lower rank
        x0 = subset[0]
        mat = [[q[j] - x0[j] for q in subset[1:]] + [int(i == j) for i in range(d)]
               for j in range(d)]
        if _row_reduce(mat, d - 1) < d - 1:
            continue
        normal = tuple(mat[-1][d - 1:])
        offset0 = sum(a * b for a, b in zip(normal, x0))
        neg = tuple(-v for v in normal)
        key = max((normal, offset0), (neg, -offset0))
        if key in seen:
            continue
        seen.add(key)
        dots = [sum(a * b for a, b in zip(normal, q)) for q in pts]
        if max(dots) == offset0:
            facets.add((normal, offset0))
        if min(dots) == offset0:
            facets.add((neg, -offset0))
    return tuple(sorted(facets))


def count_points_reference(p: LatticePolytope, t: int) -> int:
    """|tP n Z^d| by scanning the bounding box of tP against p.hrep, one
    coordinate at a time.  Given x_1..x_(i-1), each facet a.x <= t b
    bounds x_i by what it leaves once the later coordinates take their
    least values a_l x_l over the box; the last coordinate's interval is
    counted without a scan."""
    d = p.dim
    if d == 0:
        return 1
    lo = [t * min(q[i] for q in p.points) for i in range(d)]
    hi = [t * max(q[i] for q in p.points) for i in range(d)]
    # (a, t b, least[i]: the least value of sum_(l >= i) a_l x_l over the box)
    facets = [(normal, t * b,
               [sum(min(a * lo[l], a * hi[l]) for l, a in enumerate(normal) if l >= i)
                for i in range(d + 1)]) for normal, b in p.hrep]

    def scan(i: int, sums: list) -> int:
        lo_x, hi_x = lo[i], hi[i]
        for (normal, tb, least), s in zip(facets, sums):
            rhs, a = tb - s - least[i + 1], normal[i]
            if a > 0:
                hi_x = min(hi_x, rhs // a)
            elif a < 0:
                lo_x = max(lo_x, -(rhs // -a))
            elif rhs < 0:
                return 0
        if i == d - 1:
            return max(hi_x - lo_x + 1, 0)
        return sum(scan(i + 1, [s + normal[i] * x for (normal, _, _), s in zip(facets, sums)])
                   for x in range(lo_x, hi_x + 1))

    return scan(0, [0] * len(facets))


def ehrhart_data_reference(p: LatticePolytope) -> EhrhartData:
    """The Ehrhart oracle with no reflexivity shortcut and no walk: reduce,
    facets, count t = 1..d+1 by the bounding-box scan, and take every h*_k
    from the binomial transform."""
    q = reduce_to_full_dim(p)
    if q.hrep is None:
        h_representation(q)
    counts = [1] + [count_points_reference(q, t) for t in range(1, q.dim + 2)]
    return EhrhartData(tuple(counts), hstar_from_counts(counts, q.dim), q.dim)
