"""Simple undirected graphs on vertex set {1..n} and the structural analysis
the polytope formulas need: cycle enumeration, cuts, cactus/bipartite
classification, and the derived constructions (suspension, the two-vertex
bipartite augmentation, line graph, complement, lexicographic product).

Everything is a pure function of immutable values; iteration orders are
sorted so results are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .errors import BoundExceededError, GraphFormatError, PreconditionError

MAX_CUT_VERTICES = 24
MAX_SIMPLE_CYCLES = 10 ** 6


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges stored as (u, v) tuples with u < v."""

    n: int
    edges: frozenset

    @staticmethod
    def make(n: int, edges: Iterable = ()) -> "Graph":
        """Validating constructor: endpoints in 1..n, no loops, dedup."""
        if n < 0:
            raise GraphFormatError(f"vertex count {n} is negative")
        es = set()
        for e in edges:
            u, v = e
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"edge ({u},{v}) leaves vertex range 1..{n}")
            es.add((u, v) if u < v else (v, u))
        return Graph(n, frozenset(es))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def adjacency(self) -> dict:
        adj = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def adjacency_masks(self) -> list:
        """Neighbor bitmasks indexed by vertex-1 (bit v-1 marks vertex v)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u - 1] |= 1 << (v - 1)
            masks[v - 1] |= 1 << (u - 1)
        return masks

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


class Bipartition(NamedTuple):
    part1: frozenset
    part2: frozenset


@dataclass(frozen=True)
class Cut:
    """One cut E_S, canonical representative with vertex 1 in S.

    The empty cut is stored with S = {1..n}; E_S always equals the edges of
    the parent graph with exactly one endpoint in S.
    """

    defining_set: frozenset
    subgraph: Graph
    bipartition: Bipartition


@dataclass(frozen=True)
class GraphClassification:
    connected: bool
    bipartite: bool
    bipartition: Optional[Bipartition]
    forest: bool
    cactus: bool
    unique_even_cycle_condition: bool
    simple_cycles: tuple


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def parse_graph(text: str, strict: bool = False) -> Graph:
    """Parse the edge-list format or the JSON document {"n":..,"edges":[..]}.

    Edge-list lines hold two whitespace-separated labels >= 1; '#' starts a
    comment line; an optional header "n <count>" declares the vertex count
    (otherwise n is the largest label seen).  Duplicate edges raise in
    strict mode and are silently merged otherwise.
    """
    if text.lstrip().startswith("{"):
        return _parse_json(text, strict)
    declared_n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "n":
            try:
                if len(tokens) != 2 or not tokens[1].isdecimal():
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
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer label in {line!r}") from None
        pairs.append((f"line {lineno}: ", u, v))
    return _checked_graph(declared_n, pairs, strict)


def _parse_json(text: str, strict: bool) -> Graph:
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
    return _checked_graph(n, [("", u, v) for u, v in doc["edges"]], strict)


def _checked_graph(n: Optional[int], pairs: list, strict: bool) -> Graph:
    """The graph on 1..n (n defaults to the largest label) with the edges
    (where, u, v): labels >= 1, no self-loops, every label <= n, and
    duplicates rejected under strict and merged otherwise.  `where`
    prefixes the messages ("line N: " for the edge-list format)."""
    edges = set()
    max_label = 0
    for where, u, v in pairs:
        if u < 1 or v < 1:
            raise GraphFormatError(f"{where}vertex label < 1 in edge ({u}, {v})")
        if u == v:
            raise GraphFormatError(f"{where}self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in edges and strict:
            raise GraphFormatError(f"{where}duplicate edge {key}")
        edges.add(key)
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


def lex_product_complete(g: Graph, m: int) -> Graph:
    """g[K_m]: every vertex blown up into a clique of size m."""
    if m < 1:
        raise PreconditionError(f"clique size {m} must be >= 1")
    return lex_product(g, complete_graph(m))


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

def connected_components(g: Graph) -> list:
    """Vertex sets of components, each sorted, ordered by smallest member."""
    adj = g.adjacency()
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
    adj = g.adjacency()
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


def simple_cycles(g: Graph, max_cycles: int = MAX_SIMPLE_CYCLES) -> list:
    """All simple cycles, each once, as a canonical vertex tuple: the cycle
    starts at its smallest vertex and runs toward the smaller neighbor.

    DFS rooted at each vertex s with two neighbours > s, over paths through
    vertices > s only, kept on a stack of neighbour iterators; a closure
    back to s with second vertex < last vertex kills the mirrored duplicate.
    """
    adj = {v: sorted(ws) for v, ws in g.adjacency().items()}
    cycles = []
    on_path = [False] * (g.n + 1)  # every flag is False again when a root is done
    for s in range(1, g.n + 1):
        if len(adj[s]) < 2 or adj[s][-2] < s:
            continue  # a cycle leaves its smallest vertex by two larger ones
        path = [s]
        on_path[s] = True
        stack = [iter(adj[s])]
        while stack:
            for w in stack[-1]:
                if w == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        cycles.append(tuple(path))
                        if len(cycles) > max_cycles:
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
    return cycles


def cycle_edges(cycle: tuple) -> list:
    """Edges of a cycle given as a vertex tuple."""
    k = len(cycle)
    out = []
    for i in range(k):
        u, v = cycle[i], cycle[(i + 1) % k]
        out.append((u, v) if u < v else (v, u))
    return out


def classify(g: Graph) -> GraphClassification:
    """Compute all structural flags.  Guaranteed implication chain:
    forest => cactus => unique even cycle condition.  The only caller of
    simple_cycles: formulas read the cycles from the result."""
    cycles = simple_cycles(g)
    edge_load = {}
    even_edge_load = {}
    for cyc in cycles:
        even = len(cyc) % 2 == 0
        for e in cycle_edges(cyc):
            edge_load[e] = edge_load.get(e, 0) + 1
            if even:
                even_edge_load[e] = even_edge_load.get(e, 0) + 1
    bip = bipartition_of(g)
    return GraphClassification(
        connected=is_connected(g),
        bipartite=bip is not None,
        bipartition=bip,
        forest=not cycles,
        cactus=all(k <= 1 for k in edge_load.values()),
        unique_even_cycle_condition=all(k <= 1 for k in even_edge_load.values()),
        simple_cycles=tuple(cycles),
    )


# ---------------------------------------------------------------------------
# Cuts
# ---------------------------------------------------------------------------

def cuts(g: Graph, max_n: int = MAX_CUT_VERTICES) -> list:
    """The 2^(n-1) cuts E_S, one per complementary pair {S, complement},
    canonical S containing vertex 1, ascending as bitmask.  The empty cut
    appears as S = {1..n}.  Disconnected graphs may repeat edge sets under
    different S; the multiset semantics is what the cut-sum formula needs.
    """
    if g.n < 1:
        raise PreconditionError("cuts need at least one vertex")
    if g.n > max_n:
        raise BoundExceededError(f"cut enumeration over {g.n} > {max_n} vertices")
    out = []
    sorted_e = g.sorted_edges()
    for m in range(1 << (g.n - 1)):
        s = {1}
        for i in range(2, g.n + 1):
            if m >> (i - 2) & 1:
                s.add(i)
        crossing = frozenset(e for e in sorted_e if (e[0] in s) != (e[1] in s))
        sset = frozenset(s)
        rest = frozenset(v for v in range(1, g.n + 1) if v not in s)
        out.append(Cut(
            defining_set=sset,
            subgraph=Graph(g.n, crossing),
            bipartition=Bipartition(sset, rest),
        ))
    return out
