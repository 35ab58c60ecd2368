"""Reference implementations that the tests check the library against.

The library computes every cycle-corrected matching formula with one tiling
(sepgamma.matching.tiling_poly).  Here the same formulas are written the
way the paper states them: list every family R of vertex-disjoint cycles,
delete V(R), and sum weight(R) times a matching polynomial of G - R.  The
matching polynomial itself is an independent recursion that branches on the
lowest vertex of an induced-subgraph bitmask.

The library's classify works block by block and stops its cycle search at
the first edge in two even cycles, and it lists cycles one block at a time;
simple_cycles_reference runs one search over the whole graph, and
classify_reference reads each flag off that list.  classify reads a cycle
block's ring off the order of its edges in its Tarjan pass;
block_vertices_reference is the walk it replaced, which builds the
block's adjacency and follows it around the cycle.

The Ehrhart oracle finds facets by double description and counts lattice
points through the projections of tP; h_representation_reference tries the
hyperplane through every d points, and count_points_reference and
count_interior_reference scan the bounding box of tP.  It counts L(t),
and L_int(t) of the interior unless its facets prove the polytope reflexive,
for t = 1..d//2 + 1 only, and joins the two halves of h* by reciprocity;
ehrhart_data_reference counts every t = 1..d+1 with the box scan, takes
every coefficient of h* from the plain binomial transform of the Ehrhart
series, and decides reflexivity from h* (palindromic of degree d) for the
tests to hold the facet proof to.  The package takes full-dimensional
points only, and writes type A in lattice coordinates; here type A is
built in Z^V as the paper writes it (type_a_ambient), and any point set
is brought to full dimension by the same Bezout-step elimination that
the hyperplane brute force uses (reduce_to_full_dim_reference).  No
reference imports a private name of the package.

The package's cut sum walks the cuts depth first and shares each prefix's
matched vertex sets; cut_sum_reference is the loop it replaced, which
builds the crossing graph of every cut (cuts) and counts each from scratch
(matched_vertex_sets, which the pair count is checked against too).

The package folds the tiling over the blocks of the graph and runs a DP
over vertex masks only inside a block that is no bridge or cycle;
mask_tiling is the DP it replaced, one memo over the vertex masks of the
whole graph, and the fold is checked against it on every graph.

The rest are definitions and identities that no command runs, kept for the
tests to hold the library to: the hypertree definition of the interior
polynomial (Ohsugi-Tsuchiya identity I~(x) = sum_k |M(G,k)| x^k), the
independence polynomial, the characteristic polynomial (the reference for
the copy that verify's mu-bridge runs), the full binomial row (1+x)^k
that the schoolbook gamma <-> h* references multiply by (the package
adds rows on the palindromic half only), the line graph, the
complement and the blow-up g[K_m] that compose the package's witness
graph (the package builds it from its definition), the lexicographic
product with any second graph, the matching polynomial, and the closed
forms for wheels and cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Mapping, NamedTuple, Optional

from sepgamma import (Bipartition, BoundExceededError, EhrhartData, Graph,
                      GraphClassification, LatticePolytope, Poly,
                      PreconditionError, VerificationError, classify,
                      cycle_graph, h_representation, simple_cycles, solve,
                      tiling_poly)
from sepgamma.errors import bound
from sepgamma.graphs import MAX_SIMPLE_CYCLES, cycle_edges


def neighbours(g: Graph) -> dict:
    """Sorted neighbour list of every vertex, read off the adjacency masks."""
    return {v: [w for w in range(1, g.n + 1) if mask >> (w - 1) & 1]
            for v, mask in enumerate(g.adjacency_masks(), start=1)}


def simple_cycles_reference(g: Graph, max_cycles: int = MAX_SIMPLE_CYCLES) -> list:
    """All simple cycles, each once, as a canonical vertex tuple, in sorted
    order, from one search over the whole graph: DFS rooted at each vertex
    s with two neighbours > s, over paths through vertices > s only, kept
    on a stack of neighbour iterators; a closure back to s with second
    vertex < last vertex kills the mirrored duplicate."""
    adj = neighbours(g)
    on_path = [False] * (g.n + 1)  # all False again per root
    out = []
    for s in sorted(adj):
        if len(adj[s]) < 2 or adj[s][-2] < s:
            continue  # a cycle leaves its smallest vertex by two larger ones
        path = [s]
        on_path[s] = True
        stack = [iter(adj[s])]
        while stack:
            for w in stack[-1]:
                if w == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        out.append(tuple(path))
                        if len(out) > max_cycles:
                            raise BoundExceededError(
                                f"more than {max_cycles} simple cycles")
                elif w > s and not on_path[w]:
                    path.append(w)
                    on_path[w] = True
                    stack.append(iter(adj[w]))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False
    return out


def block_vertices_reference(block: Iterable):
    """The vertices of the block with edge list `block`: the sorted ends of
    a bridge or the canonical tuple of a cycle, else their frozenset; the
    cycle walked from its smallest vertex toward the smaller neighbour."""
    block = list(block)
    if len(block) == 1:
        return tuple(sorted(block[0]))
    vertices = frozenset(chain.from_iterable(block))
    if len(block) > len(vertices):
        return vertices
    nb = {}
    for u, v in block:
        nb.setdefault(u, []).append(v)
        nb.setdefault(v, []).append(u)
    for ws in nb.values():
        ws.sort()
    prev = min(nb)
    path, cur = [prev], nb[prev][0]
    while cur != path[0]:
        path.append(cur)
        a, b = nb[cur]
        prev, cur = cur, b if a == prev else a
    return tuple(path)


def classify_reference(g: Graph) -> GraphClassification:
    """Every flag from the list of all simple cycles: an edge on two cycles
    breaks the cactus property, an edge on two even cycles the even-cycle
    condition (and then simple_cycles is None, as in classify).  The
    bipartition, as in classify, leaves the isolated vertices out.  Two edges
    share a block when a chain of cycles joins them; blocks is the
    frozenset of their vertex sets, in no order."""
    cycles = simple_cycles_reference(g)
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
    if bip is not None:  # classify 2-colours only the vertices on an edge
        on_edge = set().union(*g.edges)
        bip = Bipartition(bip.part1 & on_edge, bip.part2 & on_edge)
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
    cycles = simple_cycles_reference(g) if cls is None else cls.simple_cycles
    evens = [c for c in cycles if len(c) % 2 == 0]
    return disjoint_families(evens)


def cycle_families(g: Graph, cls=None) -> list:
    """All nonempty families of pairwise vertex-disjoint simple cycles of
    any parity (the correction terms of the mu-polynomial)."""
    return disjoint_families(simple_cycles_reference(g) if cls is None else cls.simple_cycles)


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
                got = got + Poly.monomial(1) * rec(rest ^ u)
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


def matched_sets_tiling(g: Graph, cls=None) -> list:
    """|M(G,k)| by the shipped tiling DP, with x per edge and -x^(|C|/2) per
    even cycle C: the type-B formula before it is taken at 4x, valid on any
    graph where no edge lies in two even cycles (so classify lists them)."""
    evens = [(c, Poly.monomial(len(c) // 2, -1))
             for c in (cls or classify(g)).simple_cycles if len(c) % 2 == 0]
    return tiling_poly(g, Poly.monomial(1), evens).coeff_list()


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


def cuts(g: Graph) -> list:
    """The crossing graphs E_S of the 2^(n-1) cuts, one per complementary
    pair {S, complement}: S runs over the vertex sets holding vertex 1,
    ascending as bitmasks (bit v-1 marks v).  The empty cut appears as
    S = {1..n}.  Disconnected graphs may repeat edge sets under different
    S; the multiset semantics is what the cut-sum formula needs.
    """
    if g.n < 1:
        raise PreconditionError("cuts need at least one vertex")
    ends = [(e, 1 << (e[0] - 1) | 1 << (e[1] - 1)) for e in g.edges]
    # an edge crosses when S holds one of its ends but not both
    return [Graph(g.n, frozenset(e for e, both in ends
                                 if 0 < s & both != both))
            for s in range(1, 1 << g.n, 2)]


def matched_vertex_sets(g: Graph) -> list:
    """|M(G,k)|, the number of vertex sets of k-matchings, as the sizes of
    levels of vertex bitmasks: level 0 is {empty set}, and level k+1 holds
    every S + u + v with S in level k, u below every vertex of S, and uv an
    edge with v above u and outside S.  In a matching of a set T, the
    lowest vertex u of T is matched to some v above it, and the other edges
    match T - u - v, whose vertices all lie above u; so each level holds
    exactly the matched sets of its size, and no matching is listed.
    Trailing zeros are trimmed; |M(G,0)| = 1."""
    adj = g.adjacency_masks()
    up = [adj[u] >> (u + 1) << (u + 1) for u in range(g.n)]
    out = [1]
    level = {0}
    top = 1 << g.n
    while True:
        grown = set()
        for s in level:
            below = (s & -s or top) - 1
            while below:
                bit = below & -below
                below ^= bit
                u = bit.bit_length() - 1
                free = up[u] & ~s
                s_u = s | bit
                while free:
                    v = free & -free
                    free ^= v
                    grown.add(s_u | v)
        if not grown:
            return out
        out.append(len(grown))
        level = grown


def cut_sum_reference(g: Graph, bounds: Optional[Mapping] = None) -> Poly:
    """The cut-sum formula one cut at a time, the loop the package's
    depth-first walk (sepgamma.cut_sum_gamma) replaced: build the crossing
    graph of every cut with cuts, count its matched vertex sets from
    scratch with matched_vertex_sets, and average sum_k |M(E_S,k)| 4^k over
    the cuts, under the same guards."""
    if g.n < 1:
        raise PreconditionError("need at least one vertex")
    limit = bound(bounds, "cut-sum")
    if g.n > limit:
        raise BoundExceededError(f"cut sum over {g.n} > {limit} vertices")
    total = []
    for cut in cuts(g):
        mv = matched_vertex_sets(cut)
        total += [0] * (len(mv) - len(total))
        for k, c in enumerate(mv):
            total[k] += c << (2 * k)
    gamma = [divmod(c, 1 << (g.n - 1)) for c in total]
    if any(r for _, r in gamma):
        raise VerificationError(
            f"cut sum {total} is not divisible by 2^{g.n - 1}")
    return Poly(q for q, _ in gamma)


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


def mask_tiling(g: Graph, edge: Poly, tiles: Iterable) -> Poly:
    """tiling_poly of any graph, memoized per vertex mask.  A set is worth
    the product of its components' values; a component branches on the
    middle vertex v of a longest shortest path: v alone, with a neighbour
    u, or in a tile T, each branch keeping every component C_j of C - v
    whole but the one it takes u or T - v from.  With P_j the value of C_j
    and D_j the sum of the branches inside it, C is worth T_k:
    T_0 = A_0 = 1, T_j = T_(j-1) P_j + A_(j-1) D_j, A_j = A_(j-1) P_j, the
    leaves of v as one C_j.  The depth follows the halvings of the diameter.
    """
    adj = g.adjacency_masks()
    tiles_at = {}
    for vertices, weight in tiles:
        mask = sum(1 << (v - 1) for v in vertices)
        for v in vertices:
            if weight:
                tiles_at.setdefault(v - 1, []).append((mask, weight))
    one = Poly.one()
    memo = {0: one}

    def times(a: Poly, b: Poly) -> Poly:
        return b if a is one else a if b is one else a * b

    pair = one + edge  # the value of every edge on its own

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
        out = one
        for comp, far in components(mask):
            if comp & (comp - 1):
                out = times(out, solve(comp, far))
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
        total, lead = one, one
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
        if leaves:  # as one part: P = 1, D = leaves edge
            total = total + times(lead, edge * leaves)
        memo[comp] = total
        return total

    return value((1 << g.n) - 1)


def bezout(a: int, b: int) -> tuple:
    """(g, x, y) with x a + y b = g = gcd(a, b) >= 0."""
    r0, r1, x0, x1, y0, y1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (r0, x0, y0) if r0 >= 0 else (-r0, -x0, -y0)


def row_reduce_tracked(mat: list, cols: int) -> tuple:
    """(r, rows, u): u is a unimodular integer matrix, rows = u . mat, and on
    the first `cols` columns rows[:r] are in echelon form and the other rows
    are zero.  Each pivot row meets every row below it in one 2 x 2 step
    [[x, y], [-b/g, a/g]] (x a + y b = g = gcd of their entries a, b):
    determinant 1, and it leaves g in the pivot row and 0 below."""
    n = len(mat)
    rows = [list(row) for row in mat]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    r = 0
    for c in range(cols):
        if r == n:
            break
        for i in range(r + 1, n):
            a, b = rows[r][c], rows[i][c]
            if b:
                g, x, y = bezout(a, b)
                for m in (rows, u):
                    top, low = m[r], m[i]
                    m[r] = [x * p + y * q for p, q in zip(top, low)]
                    m[i] = [a // g * q - b // g * p for p, q in zip(top, low)]
        r += rows[r][c] != 0
    return r, rows, u


def reduce_to_full_dim_reference(points) -> LatticePolytope:
    """The points in coordinates of the lattice of their affine hull,
    relative to the first point: the nonzero rows of row_reduce_tracked of
    the matrix whose columns are p - p0.  The transform is unimodular, so
    it maps that lattice onto Z^r and keeps every dilate's count.
    Full-dimensional points come back as they are."""
    p0 = points[0]
    mat = [[p[i] - p0[i] for p in points] for i in range(len(p0))]
    r, rows, _ = row_reduce_tracked(mat, len(points))
    if r == len(p0):
        return LatticePolytope(tuple(points))
    return LatticePolytope(tuple(tuple(row[k] for row in rows[:r])
                                 for k in range(len(points))))


def type_a_ambient(g: Graph) -> LatticePolytope:
    """Type A as the paper writes it: +-(e_u - e_v) over the edges, in
    Z^V, with no coordinate left out.  Not full-dimensional once g has an
    edge; reduce_to_full_dim_reference gives a full-dimensional copy."""
    pts = []
    for u, v in g.sorted_edges():
        p = [0] * g.n
        p[u - 1], p[v - 1] = 1, -1
        pts += [tuple(p), tuple(-x for x in p)]
    return LatticePolytope(tuple(pts) or ((0,) * g.n,))


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
        diffs = [[q[j] - x0[j] for q in subset[1:]] for j in range(d)]
        rank, _, transform = row_reduce_tracked(diffs, d - 1)
        if rank < d - 1:
            continue
        normal = tuple(transform[-1])
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


def _box_scan(p: LatticePolytope, t: int, slack: int) -> int:
    """The lattice points of the bounding box of tP with normal . x <= t b -
    slack on every facet of p.hrep, scanned one coordinate at a time.
    Given x_1..x_(i-1), each facet bounds x_i by what it leaves once the
    later coordinates take their least values a_l x_l over the box; the
    last coordinate's interval is counted without a scan."""
    d = p.dim
    if d == 0:
        return 1
    lo = [t * min(q[i] for q in p.points) for i in range(d)]
    hi = [t * max(q[i] for q in p.points) for i in range(d)]
    # (a, t b - slack, least[i]: the least value of sum_(l >= i) a_l x_l over the box)
    facets = [(normal, t * b - slack,
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


def count_points_reference(p: LatticePolytope, t: int) -> int:
    """|tP n Z^d| by scanning the bounding box of tP against p.hrep."""
    return _box_scan(p, t, 0)


def count_interior_reference(p: LatticePolytope, t: int) -> int:
    """The lattice points of the interior of tP, by the same box scan with
    the strict inequalities normal . x < t b, that is normal . x <= t b - 1
    on integer points.  The point in R^0 is its own relative interior."""
    return _box_scan(p, t, 1)


def reflexivity_check(hstar: Poly, d: int) -> bool:
    """Reflexive iff h* is palindromic of degree exactly d (Hibi 1992, for a
    lattice polytope whose one interior lattice point is the origin)."""
    return hstar.degree == d and hstar.is_palindromic()


def ehrhart_data_reference(p: LatticePolytope) -> tuple:
    """The Ehrhart oracle with no reflexivity shortcut, no interior counts
    and no walk, on any points: reduce them to full dimension
    (reduce_to_full_dim_reference), find the facets, count t = 1..d+1 by
    the bounding-box scan, and take every h*_k = sum_j (-1)^j C(d+1, j)
    L(k-j) for k = 0..d+1 from the Ehrhart series; h*_(d+1) must be 0.
    Returns the result, with reflexivity decided from h* alone
    (reflexivity_check), and the counts L(0..d+1)."""
    q = reduce_to_full_dim_reference(p.points)
    h_representation(q)
    d = q.dim
    counts = tuple([1] + [count_points_reference(q, t) for t in range(1, d + 2)])
    h = [sum((-1) ** j * math.comb(d + 1, j) * counts[k - j] for j in range(k + 1))
         for k in range(d + 2)]
    if h[d + 1] != 0 or min(h) < 0:
        raise VerificationError(f"counts {counts} give h* {h}")
    hstar = Poly(h[:d + 1])
    return EhrhartData(hstar, d, reflexivity_check(hstar, d)), counts


# ---------------------------------------------------------------------------
# Connectivity, bipartitions and the two-vertex augmentation
# ---------------------------------------------------------------------------

def tilde(g: Graph, b: Bipartition) -> Graph:
    """Two-vertex bipartite augmentation: join n+1 to all of part1 and n+2
    to all of part2 and to n+1.  Output is connected and bipartite with
    parts (part1 + {n+2}, part2 + {n+1}).
    """
    check_bipartition(g, b)
    p, q = g.n + 1, g.n + 2
    edges = set(g.edges)
    edges.update((i, p) for i in sorted(b.part1))
    edges.update((j, q) for j in sorted(b.part2))
    edges.add((p, q))
    return Graph(g.n + 2, frozenset(edges))


def check_bipartition(g: Graph, b: Bipartition) -> None:
    """Raise PreconditionError unless b is a valid bipartition of g."""
    all_v = frozenset(range(1, g.n + 1))
    if b.part1 | b.part2 != all_v or b.part1 & b.part2:
        raise PreconditionError("parts do not partition the vertex set")
    for u, v in g.edges:
        if (u in b.part1) == (v in b.part1):
            raise PreconditionError(f"edge ({u},{v}) does not cross the bipartition")


def connected_components(g: Graph) -> list:
    """Vertex sets of components, each sorted, ordered by smallest member."""
    adj = neighbours(g)
    seen = set()
    comps = []
    for s in range(1, g.n + 1):
        if s in seen:
            continue
        comp = []
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def bipartition_of(g: Graph) -> Optional[Bipartition]:
    """Two-color each component from its smallest vertex; None if an odd
    cycle obstructs.  The smallest vertex of each component lands in part1."""
    adj = neighbours(g)
    color = {}
    for s in range(1, g.n + 1):
        if s in color:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    part1 = frozenset(v for v, c in color.items() if c == 0)
    part2 = frozenset(v for v, c in color.items() if c == 1)
    return Bipartition(part1, part2)


# ---------------------------------------------------------------------------
# The hypertree definition of the interior polynomial
# ---------------------------------------------------------------------------

MAX_SPANNING_TREES = 10 ** 7


@dataclass(frozen=True)
class Hypergraph:
    """Ordered hyperedges (a multiset is fine) over ground vertices 1..v_count.

    Hypertree profiles are tuples indexed by hyperedge position.
    """

    v_count: int
    hyperedges: tuple  # tuple of frozensets

    @staticmethod
    def make(v_count: int, hyperedges) -> "Hypergraph":
        hs = tuple(frozenset(e) for e in hyperedges)
        for i, e in enumerate(hs):
            if not e:
                raise PreconditionError(f"hyperedge {i + 1} is empty")
            for v in e:
                if not (1 <= v <= v_count):
                    raise PreconditionError(f"hyperedge {i + 1} leaves 1..{v_count}")
        return Hypergraph(v_count, hs)

    @property
    def edge_count(self) -> int:
        return len(self.hyperedges)


def bip(h: Hypergraph) -> Graph:
    """Incidence bipartite graph: ground vertices keep labels 1..m, the j-th
    hyperedge becomes vertex m+j."""
    m = h.v_count
    edges = set()
    for j, e in enumerate(h.hyperedges, start=1):
        for v in e:
            edges.add((v, m + j))
    return Graph(m + len(h.hyperedges), frozenset(edges))


def hypergraph_from_bipartite(g: Graph, b: Optional[Bipartition] = None,
                              hyperedge_part: int = 2) -> Hypergraph:
    """Read a bipartite graph as a hypergraph: one side becomes the ground
    set (relabeled 1..m by sorted label), the other the ordered hyperedges
    (by sorted label, each the neighborhood of its vertex).

    hyperedge_part selects which side carries the hyperedges; both choices
    yield the same interior polynomial (verified in tests, not assumed).
    """
    if b is None:
        b = bipartition_of(g)
        if b is None:
            raise PreconditionError("graph is not bipartite")
    else:
        check_bipartition(g, b)
    if hyperedge_part == 2:
        ground, hyper = sorted(b.part1), sorted(b.part2)
    elif hyperedge_part == 1:
        ground, hyper = sorted(b.part2), sorted(b.part1)
    else:
        raise ValueError("hyperedge_part must be 1 or 2")
    index = {v: i + 1 for i, v in enumerate(ground)}
    adj = neighbours(g)
    hyperedges = [frozenset(index[w] for w in adj[v]) for v in hyper]
    return Hypergraph.make(len(ground), hyperedges)


def _find(parent: list, v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _connectable(parent: list, comps: int, edges: list, start: int) -> bool:
    """Can the remaining edges still merge the current components into one?"""
    if comps == 1:
        return True
    trial = parent[:]
    left = comps
    for i in range(start, len(edges)):
        u, v = edges[i]
        ru, rv = _find(trial, u), _find(trial, v)
        if ru != rv:
            trial[ru] = rv
            left -= 1
            if left == 1:
                return True
    return False


def spanning_trees(g: Graph):
    """Yield every spanning tree as a tuple of edge indices into
    g.sorted_edges().  Include/exclude recursion over the edge list with a
    connectivity prune, so dead branches die early."""
    if g.n == 0:
        return
    if not is_connected(g):
        raise PreconditionError("graph is disconnected; no spanning trees")
    edges = g.sorted_edges()
    found = 0

    def rec(idx: int, parent: list, comps: int, chosen: list):
        nonlocal found
        if comps == 1:
            found += 1
            if found > MAX_SPANNING_TREES:
                raise BoundExceededError(
                    f"more than {MAX_SPANNING_TREES} spanning trees")
            yield tuple(chosen)
            return
        if idx == len(edges) or not _connectable(parent, comps, edges, idx):
            return
        u, v = edges[idx]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            yield from rec(idx + 1, parent, comps, chosen)
            return
        child = parent[:]
        child[ru] = rv
        chosen.append(idx)
        yield from rec(idx + 1, child, comps - 1, chosen)
        chosen.pop()
        yield from rec(idx + 1, parent, comps, chosen)

    yield from rec(0, list(range(g.n + 1)), g.n, [])


def hypertrees(h: Hypergraph) -> list:
    """All distinct hypertree profiles, sorted.  Profile position j holds
    (tree degree of hyperedge j) - 1; entries sum to v_count - 1."""
    bg = bip(h)
    if not is_connected(bg):
        raise PreconditionError("incidence graph is disconnected")
    m = h.v_count
    k = len(h.hyperedges)
    edges = bg.sorted_edges()
    profiles = set()
    for tree in spanning_trees(bg):
        deg = [0] * k
        for idx in tree:
            # every incidence edge is (ground, hyperedge) with ground < hyperedge
            deg[edges[idx][1] - m - 1] += 1
        profiles.add(tuple(d - 1 for d in deg))
    return sorted(profiles)


def interior_poly(h: Hypergraph) -> Poly:
    """I(x) = sum over hypertrees f of x^(number of internally inactive
    hyperedges), where hyperedge j is internally inactive iff one unit of
    f(j) can move to some earlier hyperedge j' and still leave a hypertree.
    """
    profiles = hypertrees(h)
    profile_set = set(profiles)
    k = len(h.hyperedges)
    counts = {}
    for f in profiles:
        inactive = 0
        for j in range(1, k):
            if f[j] == 0:
                continue
            moved = list(f)
            moved[j] -= 1
            hit = False
            for jp in range(j):
                moved[jp] += 1
                if tuple(moved) in profile_set:
                    hit = True
                moved[jp] -= 1
                if hit:
                    break
            if hit:
                inactive += 1
        counts[inactive] = counts.get(inactive, 0) + 1
    if not counts:
        return Poly.one()  # unreachable: connected incidence graph has a tree
    out = [0] * (max(counts) + 1)
    for deg, c in counts.items():
        out[deg] = c
    return Poly(out)


def reorder_hyperedges(h: Hypergraph, perm) -> Hypergraph:
    """Same hypergraph with hyperedges permuted: position i gets the old
    hyperedge perm[i] (0-based)."""
    return Hypergraph(h.v_count, tuple(h.hyperedges[p] for p in perm))


def interior_tilde_definition(g: Graph, b: Optional[Bipartition] = None,
                              hyperedge_part: int = 2) -> Poly:
    """Definition-level counterpart of sum_k |M(g,k)| x^k
    (matched_vertex_sets): build the augmented graph, read it as a
    hypergraph, enumerate hypertrees."""
    if b is None:
        b = bipartition_of(g)
        if b is None:
            raise PreconditionError("graph is not bipartite")
    tg = tilde(g, b)
    tb = Bipartition(frozenset(b.part1) | {g.n + 2},
                     frozenset(b.part2) | {g.n + 1})
    return interior_poly(hypergraph_from_bipartite(tg, tb, hyperedge_part))


# ---------------------------------------------------------------------------
# Matching, independence and characteristic polynomials
# ---------------------------------------------------------------------------

def matching_counts(g: Graph) -> list:
    """[m_0, m_1, ...] with trailing zeros trimmed; m_0 = 1."""
    return tiling_poly(g, Poly.monomial(1)).coeff_list() or [1]


def matching_poly(g: Graph) -> Poly:
    """alpha(G,x) = sum_k (-1)^k m_k(G) x^(n-2k); equals x^n g(G, -x^-2)."""
    m = matching_counts(g)
    coeffs = [0] * (g.n + 1)
    for k, mk in enumerate(m):
        coeffs[g.n - 2 * k] = (-1) ** k * mk
    return Poly(coeffs)


MAX_INDEPENDENCE_VERTICES = 24


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
        out = one_plus_x_power(mask.bit_count())
    else:
        v_bit = 1 << best_v
        out = (_independence_on_mask(masks, mask & ~v_bit, memo)
               + Poly.monomial(1) * _independence_on_mask(
                   masks, mask & ~(masks[best_v] | v_bit), memo))
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


MAX_CHARPOLY_VERTICES = 64


def uniform_weights(g: Graph, t,
                    cls: Optional[GraphClassification] = None) -> dict:
    """Weight map assigning the same parameter t to every simple cycle:
    the classification's list, or a listing of its own where classify
    stopped at an edge in two even cycles."""
    cycles = (cls or classify(g)).simple_cycles
    return {cyc: t for cyc in (simple_cycles(g) if cycles is None else cycles)}


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


def one_plus_x_power(k: int) -> Poly:
    """(1+x)^k via binomial coefficients, each from the one before: the
    full row, which the transforms' schoolbook references multiply by."""
    row = [1]
    for i in range(k):
        row.append(row[-1] * (k - i) // (i + 1))
    return Poly(row)


def compose(f: Poly, inner: Poly) -> Poly:
    """f(inner(x)), by Horner over polynomial coefficients."""
    out = Poly()
    for c in reversed(f.coeffs):
        out = out * inner + Poly((c,))
    return out


def complement(g: Graph) -> Graph:
    edges = frozenset(
        (u, v)
        for u in range(1, g.n + 1)
        for v in range(u + 1, g.n + 1)
        if (u, v) not in g.edges
    )
    return Graph(g.n, edges)


def line_graph(g: Graph) -> Graph:
    """Vertices = edges of g (in sorted order), adjacent iff they intersect."""
    es = g.sorted_edges()
    m = len(es)
    out = set()
    for i in range(m):
        for j in range(i + 1, m):
            if set(es[i]) & set(es[j]):
                out.add((i + 1, j + 1))
    return Graph(m, frozenset(out))


def lex_product_complete(g: Graph, m: int) -> Graph:
    """g[K_m]: every vertex blown up into a clique of size m.  Vertex (a, x)
    maps to label (a-1)*m + x; (a, x) ~ (b, y) iff a ~ b in g, or a = b
    and x != y."""
    if m < 1:
        raise PreconditionError(f"clique size {m} must be >= 1")
    edges = {((a - 1) * m + x, (b - 1) * m + y)
             for a, b in g.edges for x in range(1, m + 1) for y in range(1, m + 1)}
    edges.update(((a - 1) * m + x, (a - 1) * m + y) for a in range(1, g.n + 1)
                 for x in range(1, m + 1) for y in range(x + 1, m + 1))
    return Graph(g.n * m, frozenset(edges))


def lex_product(g: Graph, h: Graph) -> Graph:
    """Lexicographic product: (a,x) ~ (b,y) iff a~b in g, or a=b and x~y in h.

    Vertex (a, x) maps to label (a-1)*|V(h)| + x.
    """
    m = h.n
    edges = set()
    for a, b in g.edges:
        for x in range(1, m + 1):
            for y in range(1, m + 1):
                u, v = (a - 1) * m + x, (b - 1) * m + y
                edges.add((u, v) if u < v else (v, u))
    for a in range(1, g.n + 1):
        for x, y in h.edges:
            edges.add(((a - 1) * m + x, (a - 1) * m + y))
    return Graph(g.n * m, frozenset(edges))


def independence_composition_check(g: Graph, h: Graph, max_n: int = 24) -> bool:
    """Composition law for independence polynomials over the lexicographic
    product: i(G[H], x) = i(G, i(H,x) - 1), checked by direct computation."""
    left = independence_poly(lex_product(g, h), max_n=max_n)
    inner = independence_poly(h, max_n=max_n) - Poly.one()
    right = compose(independence_poly(g, max_n=max_n), inner)
    return left == right


# ---------------------------------------------------------------------------
# Closed forms of the suspension and cycle polytopes
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
    return WheelData(solve(cycle_graph(n), "ahat", "formula").gamma, volume)


def gamma_a_cycle_reference(n: int) -> Poly:
    """gamma of the type-A polytope of the plain n-cycle:
    sum_{i <= (n-1)/2} C(2i, i) x^i.  Reference values for the oracle."""
    if n < 3:
        raise PreconditionError(f"cycle needs >= 3 vertices, got {n}")
    return Poly([math.comb(2 * i, i) for i in range((n - 1) // 2 + 1)])
