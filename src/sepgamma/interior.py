"""Interior polynomials of hypergraphs, two ways.

The definitional route enumerates all spanning trees of the incidence
bipartite graph, collects the distinct hyperedge-degree profiles
(hypertrees), and scores internal inactivity per the ordered-transfer rule.
The fast route uses the identity I~(x) = sum_k |M(G,k)| x^k for the
two-vertex augmentation of a bipartite graph, and powers the cut-sum
formula for the gamma-polynomial of a suspension polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BoundExceededError, PreconditionError, VerificationError
from .graphs import (Bipartition, Graph, bipartition_of, check_bipartition,
                     cuts, is_connected, tilde)
from .matching import MAX_MATCHED_SET_VERTICES, matched_vertex_sets
from .polynomials import Poly

MAX_SPANNING_TREES = 10 ** 7
MAX_CUT_SUM_VERTICES = 20


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
    adj = g.adjacency()
    hyperedges = [frozenset(index[w] for w in adj[v]) for v in hyper]
    return Hypergraph.make(len(ground), hyperedges)


# ---------------------------------------------------------------------------
# Spanning-tree enumeration
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Hypertrees and internal activity
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# The fast identities
# ---------------------------------------------------------------------------

def interior_tilde_fast(g: Graph, b: Optional[Bipartition] = None,
                        max_n: int = MAX_MATCHED_SET_VERTICES) -> Poly:
    """Interior polynomial of the two-vertex augmentation of bipartite g,
    computed as sum_k |M(g,k)| x^k without touching spanning trees."""
    if b is None:
        b = bipartition_of(g)
        if b is None:
            raise PreconditionError("graph is not bipartite")
    else:
        check_bipartition(g, b)
    return Poly(matched_vertex_sets(g, max_n=max_n))


def interior_tilde_definition(g: Graph, b: Optional[Bipartition] = None,
                              hyperedge_part: int = 2) -> Poly:
    """Definition-level counterpart of interior_tilde_fast: build the
    augmented graph, read it as a hypergraph, enumerate hypertrees."""
    if b is None:
        b = bipartition_of(g)
        if b is None:
            raise PreconditionError("graph is not bipartite")
    tg = tilde(g, b)
    tb = Bipartition(frozenset(b.part1) | {g.n + 2},
                     frozenset(b.part2) | {g.n + 1})
    return interior_poly(hypergraph_from_bipartite(tg, tb, hyperedge_part))


def cut_sum_gamma(g: Graph, max_n: int = MAX_CUT_SUM_VERTICES) -> Poly:
    """gamma-polynomial of the suspension polytope by the cut-sum formula:
    average I~(4x) over all 2^(n-1) cuts.  The sum always has integral
    coefficients; anything else signals an implementation bug.  The oracle
    behind --method cuts; auto counts matchable pairs instead."""
    if g.n < 1:
        raise PreconditionError("need at least one vertex")
    if g.n > max_n:
        raise BoundExceededError(f"cut sum over {g.n} > {max_n} vertices")
    total = []
    for cut in cuts(g, max_n=max(max_n, g.n)):
        mv = matched_vertex_sets(cut.subgraph, max_n=g.n)
        total += [0] * (len(mv) - len(total))
        for k, c in enumerate(mv):
            total[k] += c << (2 * k)
    gamma = [divmod(c, 1 << (g.n - 1)) for c in total]
    if any(r for _, r in gamma):
        raise VerificationError(
            f"cut sum {total} is not divisible by 2^{g.n - 1}")
    return Poly(q for q, _ in gamma)
