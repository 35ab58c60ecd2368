"""Simple undirected graphs on vertex set {1..n} and the structural analysis
the polytope formulas need: cycle enumeration, cactus/bipartite
classification, the blocks, each with its own edge list, and the
suspension.  The witness
builds its own graph (see witness); the line graph, the complement and the
blow-up by a clique live with the tests.  One validator checks every graph
built from outside the package: the parser and Graph.make both end in
_checked_graph.

Everything is a pure function of immutable values; iteration orders are
sorted so results are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Optional

from .errors import BoundExceededError, GraphFormatError, PreconditionError

MAX_SIMPLE_CYCLES = 10 ** 6


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges stored as (u, v) tuples with u < v."""

    n: int
    edges: frozenset

    @staticmethod
    def make(n: int, edges: Iterable = ()) -> "Graph":
        """Validating constructor: n >= 0, then the checks of _checked_graph
        (labels in 1..n, no loops, duplicates merged)."""
        if n < 0:
            raise GraphFormatError(f"vertex count {n} is negative")
        return _checked_graph(n, [("", u, v) for u, v in edges])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def adjacency_masks(self) -> list:
        """Neighbor bitmasks indexed by vertex-1 (bit v-1 marks vertex v)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u - 1] |= 1 << (v - 1)
            masks[v - 1] |= 1 << (u - 1)
        return masks

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


class Bipartition(NamedTuple):
    """Sides 0 and 1 of a 2-colouring of the vertices on an edge, the
    smallest vertex of each component on side 0.  An isolated vertex is on
    neither side."""

    part1: frozenset
    part2: frozenset


@dataclass(frozen=True)
class GraphClassification:
    connected: bool
    bipartite: bool
    bipartition: Optional[Bipartition]  # of the vertices on an edge
    forest: bool
    cactus: bool
    unique_even_cycle_condition: bool
    simple_cycles: Optional[tuple]  # None when the even-cycle condition fails
    # (top, vertices, edges) of each biconnected block, bridges included, in
    # the order the depth-first search closed them: every block comes after
    # the blocks that hang below it, and top is the vertex it hangs from (0
    # for the root block of each component).  Isolated vertices are in none.
    # A bridge's ends or a cycle block's vertices in cycle order form a
    # tuple (_block_vertices); any other block's vertices a frozenset.
    # edges is the block's own edge list, each edge (u, v) in the direction
    # the search took it, in the order it met them (_blocks).
    blocks: tuple


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse the edge-list format or the JSON document {"n":..,"edges":[..]}.

    Edge-list lines hold two whitespace-separated labels >= 1, each ASCII
    digits with an optional leading '-' (which fails the label check, not
    the parse); '#' starts a comment line; an optional header "n <count>",
    the count ASCII digits, declares the vertex count (otherwise n is the
    largest label seen).  Duplicate edges are merged.
    """
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    declared_n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "n":
            try:
                if len(tokens) != 2 or not (tokens[1].isascii() and tokens[1].isdigit()):
                    raise ValueError
                count = int(tokens[1])  # raises past int()'s digit limit too
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad header {line!r}") from None
            if declared_n is not None:
                raise GraphFormatError(f"line {lineno}: repeated vertex-count header")
            declared_n = count
            continue
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected two labels, got {line!r}")
        try:  # int() alone takes signs, '_' and any script's digits
            if not all(t.isascii() and t.removeprefix("-").isdigit() for t in tokens):
                raise ValueError
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer label in {line!r}") from None
        pairs.append((f"line {lineno}: ", u, v))
    return _checked_graph(declared_n, pairs)


def _parse_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
    # JSONDecodeError, a number past int()'s digit limit, or too deep nesting
    except (ValueError, RecursionError) as exc:
        raise GraphFormatError(f"bad JSON graph document: {exc}") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("edges"), list)):
        raise GraphFormatError('JSON graph document needs an "edges" array')
    for e in doc["edges"]:
        if not (isinstance(e, list) and len(e) == 2
                and all(type(x) is int for x in e)):  # bool is no label
            raise GraphFormatError(f"bad edge entry {e!r}")
    n = doc.get("n")
    if "n" in doc and (type(n) is not int or n < 0):
        raise GraphFormatError(f"bad vertex count {n!r}")
    return _checked_graph(n, [("", u, v) for u, v in doc["edges"]])


def _checked_graph(n: Optional[int], pairs: list) -> Graph:
    """The graph on 1..n (n defaults to the largest label) with the edges
    (where, u, v): labels >= 1, no self-loops, every label <= n, and
    duplicates merged.  `where` prefixes the messages ("line N: " for the
    edge-list format)."""
    edges = set()
    max_label = 0
    for where, u, v in pairs:
        if u < 1 or v < 1:
            raise GraphFormatError(f"{where}vertex label < 1 in edge ({u}, {v})")
        if u == v:
            raise GraphFormatError(f"{where}self-loop at {u}")
        edges.add((u, v) if u < v else (v, u))
        max_label = max(max_label, u, v)
    n = max_label if n is None else n
    if max_label > n:
        raise GraphFormatError(f"label {max_label} exceeds declared vertex count {n}")
    return Graph(n, frozenset(edges))


def to_edge_list_text(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def suspension(g: Graph) -> Graph:
    """Add one vertex n+1 joined to every existing vertex."""
    apex = g.n + 1
    edges = set(g.edges)
    edges.update((i, apex) for i in range(1, g.n + 1))
    return Graph(g.n + 1, frozenset(edges))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise PreconditionError(f"cycle needs >= 3 vertices, got {n}")
    edges = {(i, i + 1) for i in range(1, n)}
    edges.add((1, n))
    return Graph(n, frozenset(edges))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, frozenset((1, i) for i in range(2, leaves + 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, frozenset((i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)))


# ---------------------------------------------------------------------------
# Structural analysis
# ---------------------------------------------------------------------------

def _cycle_search(adj: dict):
    """Yield every simple cycle of the graph with sorted adjacency lists
    `adj` once, as a canonical vertex tuple, in sorted order.

    DFS rooted at each vertex s with two neighbours > s, over paths through
    vertices > s only, kept on a stack of neighbour iterators; a closure
    back to s with second vertex < last vertex kills the mirrored duplicate.
    """
    on_path = dict.fromkeys(adj, False)  # all False again per root
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
                        yield tuple(path)
                elif w > s and not on_path[w]:
                    path.append(w)
                    on_path[w] = True
                    stack.append(iter(adj[w]))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False


def _block_adjacency(block: Iterable) -> dict:
    """Sorted adjacency lists of the graph with edges `block`, over the
    vertices that lie on an edge."""
    nb = {}
    for u, v in block:
        nb.setdefault(u, []).append(v)
        nb.setdefault(v, []).append(u)
    for ws in nb.values():
        ws.sort()
    return nb


def _block_cycles(blocks: Iterable, max_cycles: int):
    """Yield the simple cycles of the blocks with edge lists `blocks`, one
    block at a time: a cycle lies in one block, so no search walks through
    a cut vertex into the next.  Raise BoundExceededError past
    `max_cycles` cycles in all."""
    found = 0
    for block in blocks:
        for cyc in _cycle_search(_block_adjacency(block)):
            found += 1
            if found > max_cycles:
                raise BoundExceededError(f"more than {max_cycles} simple cycles")
            yield cyc


def simple_cycles(g: Graph, max_cycles: int = MAX_SIMPLE_CYCLES) -> list:
    """All simple cycles, sorted, each once as a canonical vertex tuple: the
    cycle starts at its smallest vertex and runs toward the smaller
    neighbor.  Each block is searched on its own."""
    return sorted(_block_cycles((edges for _, _, edges in _blocks(g)[2]),
                                max_cycles))


def cycle_edges(cycle: tuple) -> list:
    """Edges of a cycle given as a vertex tuple."""
    k = len(cycle)
    out = []
    for i in range(k):
        u, v = cycle[i], cycle[(i + 1) % k]
        out.append((u, v) if u < v else (v, u))
    return out


def _blocks(g: Graph) -> tuple:
    """(component count, sides, (top, vertices, edges) of each block) from
    one iterative Tarjan pass; a bridge is a block of one edge.  The blocks
    come in the order they close, each after the blocks below it, and top
    is the vertex a block closes at, 0 for the last block of each component
    (its root block).  edges is the block's stretch of the pass's edge
    stack, each edge (u, v) from the vertex the search took it at, and
    vertices is read off it (_block_vertices): these records are the blocks
    of classify and of the tiling's fold.  The stack gets each tree edge
    as the search takes it and each back edge as its deeper end meets it,
    and a block leaves the stack as it closes, so the blocks that hang
    from a vertex are gone before the search moves on from it.  side[v] is
    the parity of v's depth in the DFS forest, rooted at the smallest
    vertex of each component; sides is that 2-colouring of the vertices on
    an edge, or None when an edge joins two vertices of one side.  The
    pass visits only the vertices on an edge, in sorted order along sorted
    adjacency lists, so its work and its order follow the edges; each
    isolated vertex is a component of its own, counted without a visit."""
    adj = _block_adjacency(g.edges)
    disc, low, side = {}, {}, {}  # discovery time, low point, depth parity
    start = {}  # where v's tree edge sits on the edge stack
    components, clock, blocks, bipartite = g.n - len(adj), 0, [], True
    for root in sorted(adj):
        if root in disc:
            continue
        components += 1
        clock += 1
        disc[root] = low[root] = clock
        side[root] = 0
        # (vertex, DFS parent, its neighbour iterator, its discovery time)
        stack, edges = [(root, 0, iter(adj[root]), clock)], []
        while stack:
            v, parent, ws, dv = stack[-1]
            for w in ws:
                dw = disc.get(w)
                if dw is None:
                    clock += 1
                    disc[w] = low[w] = clock
                    side[w] = side[v] ^ 1
                    start[w] = len(edges)
                    edges.append((v, w))
                    stack.append((w, v, iter(adj[w]), clock))
                    break
                if w != parent and dw < dv:  # a back edge, met once
                    edges.append((v, w))
                    if dw < low[v]:
                        low[v] = dw
                    bipartite = bipartite and side[w] != side[v]
            else:
                stack.pop()
                if stack:
                    u, _, _, du = stack[-1]
                    lv = low[v]
                    if lv < low[u]:
                        low[u] = lv
                    if lv >= du:  # v's tree edge and all above it: a block
                        block = tuple(edges[start[v]:])
                        blocks.append((u, _block_vertices(block), block))
                        del edges[start[v]:]
        if blocks and blocks[-1][0] == root:  # the component's root block
            blocks[-1] = (0, *blocks[-1][1:])
    return components, side if bipartite else None, blocks


def _block_vertices(block: tuple):
    """The vertices of the block with edge list `block`, in the order
    _blocks' pass left it: the sorted ends of a bridge or the canonical
    tuple of a cycle, else their frozenset.  The pass leaves a cycle
    block's edges as its tree path from the vertex the search entered it
    at, then the one back edge to that vertex: every other edge of the
    cycle is a tree edge, and the blocks that hang from it left the stack
    as they closed.  So the first ends of its edges are the ring, which is
    rotated to its smallest vertex and turned toward that vertex's smaller
    neighbour, with no adjacency built."""
    if len(block) == 1:
        return tuple(sorted(block[0]))
    vertices = frozenset(chain.from_iterable(block))
    if len(block) > len(vertices):
        return vertices
    ring = [u for u, _ in block]
    i = ring.index(min(ring))
    ring = ring[i:] + ring[:i]
    return tuple(ring if ring[1] < ring[-1] else ring[:1] + ring[:0:-1])


def classify(g: Graph) -> GraphClassification:
    """Compute all structural flags.  Guaranteed implication chain:
    forest => cactus => unique even cycle condition.

    One Tarjan pass finds the components, a 2-colouring and the blocks,
    which the result keeps as the pass's records, in its order, each with
    its vertices, a bridge's and a cycle block's in cycle order
    (_block_vertices), and its own edge list; g is a forest
    when every block is a bridge and a cactus when every other block is
    one cycle, which is read off directly.  Each other block goes to a
    cycle search of its own, so no search walks from one block into the
    next; the searches stop at the first edge in two even cycles.
    simple_cycles lists every cycle, sorted, when the even-cycle condition
    holds, and is None when it fails.  The bipartition holds the pass's
    2-colouring, so like the blocks it covers only the vertices on an edge
    and nothing here grows with the isolated ones.
    """
    components, side, blocks = _blocks(g)
    cycles, dense = [], []
    for _, vertices, block in blocks:
        if isinstance(vertices, frozenset):
            dense.append(block)
        elif len(vertices) > 2:
            cycles.append(vertices)
    even_edges = set()  # blocks share no edge, so one set serves them all
    for cyc in _block_cycles(dense, MAX_SIMPLE_CYCLES):
        if len(cyc) % 2 == 0:
            edges = cycle_edges(cyc)
            if even_edges.intersection(edges):
                cycles = None
                break
            even_edges.update(edges)
        cycles.append(cyc)
    bipartition = None
    if side is not None:
        part1 = frozenset(v for v, s in side.items() if s == 0)
        part2 = frozenset(v for v, s in side.items() if s == 1)
        bipartition = Bipartition(part1, part2)
    return GraphClassification(
        connected=components <= 1,
        bipartite=bipartition is not None,
        bipartition=bipartition,
        forest=all(len(block) == 1 for _, _, block in blocks),
        cactus=not dense,
        unique_even_cycle_condition=cycles is not None,
        simple_cycles=None if cycles is None else tuple(sorted(cycles)),
        blocks=tuple(blocks),
    )
