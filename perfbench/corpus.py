"""Seeded request corpus for the four benchmark workloads.

A graph is a pair (n, edges) on vertices 1..n with edges a frozenset of
(u, v), u < v.  The program only ever sees the edge-list files and the
argv.  Nothing here imports sepgamma, so the expected answers computed
from the corpus stay independent of the code under test.

The --seed permutes vertex labels wherever the program's work does not
follow them: on the atlas classes, K_n, K_{k,k}, C4 and K4.  (run.py also
draws the order of the requests in each pass from it.)  The random graphs
(the G(n, m) graphs of dense-cuts, the cacti of sparse-formula) are drawn,
labels and all, from a stream fixed per workload.
Drawing them from the seed made the work itself differ from seed to seed:
across six seeds the sparse-formula pass, timed as the minimum of three
repeats per request, spread by 16 % and its median request by 22 %
(interquartile range over median), more than a timing can be held to.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ATLAS_FILE = os.path.join(HERE, "atlas7.txt")

WORKLOADS = ("atlas7-sweep", "dense-cuts", "sparse-formula", "oracle-verify")

# Requests that fail at the seed commit and stay in the corpus on purpose:
# the fix belongs to the program, so the benchmark must show it.
K11_AUTO_DEFECT = ("classify lists every simple cycle and stops at more than "
                   "1000000 (exit 4); --method cuts answers K11 in about 2.4 s")
K77_AUTO_DEFECT = ("classify lists every simple cycle and stops at more than "
                   "1000000 (exit 4); --method interior answers K7,7 in about "
                   "0.13 s")


@dataclass(frozen=True)
class GraphSpec:
    """One input file: its stem, the labeled graph, and the family it was
    drawn from (with the family's size parameter) for the closed forms."""

    name: str
    n: int
    edges: frozenset
    family: str
    param: int = 0


@dataclass(frozen=True)
class Request:
    """One CLI call: argv is the subcommand, then the input file, then flags.
    known_defect says why the request fails at the seed commit, or is None."""

    name: str
    graph: GraphSpec
    command: str
    flags: tuple = ()
    known_defect: Optional[str] = None

    def argv(self, path: str) -> list:
        return [self.command, path, *self.flags]


# ---------------------------------------------------------------------------
# Graph families (labels 1..n before relabeling)
# ---------------------------------------------------------------------------

def _edge(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


def complete(n: int) -> frozenset:
    return frozenset(combinations(range(1, n + 1), 2))


def complete_bipartite(k: int) -> frozenset:
    return frozenset((i, k + j) for i in range(1, k + 1) for j in range(1, k + 1))


def cycle(n: int) -> frozenset:
    return frozenset(_edge(i, i % n + 1) for i in range(1, n + 1))


def random_cactus(rng: random.Random, n: int, lengths: tuple) -> frozenset:
    """Connected cactus on exactly n vertices: grow from vertex 1 by hanging
    a cycle (length drawn from `lengths`) or a pendant edge off a random
    existing vertex.  Cycles share at most one vertex, so every edge lies
    in at most one cycle; with even `lengths` the result is bipartite."""
    edges = set()
    size = 1
    while size < n:
        anchor = rng.randint(1, size)
        fits = [k for k in lengths if size + k - 1 <= n]
        if fits and rng.random() < 0.7:
            k = rng.choice(fits)
            ring = [anchor] + list(range(size + 1, size + k))
            for i in range(k):
                edges.add(_edge(ring[i], ring[(i + 1) % k]))
            size += k - 1
        else:
            size += 1
            edges.add(_edge(anchor, size))
    return frozenset(edges)


def random_gnm(rng: random.Random, n: int, m: int) -> frozenset:
    """Uniform graph with n vertices and m edges, redrawn until it is
    connected and some edge lies in two even cycles (so the suspension
    formula does not apply and auto falls back to the cut sum)."""
    pairs = list(combinations(range(1, n + 1), 2))
    while True:
        edges = frozenset(rng.sample(pairs, m))
        if is_connected(n, edges) and edge_in_two_even_cycles(n, edges):
            return edges


def relabel(rng: random.Random, n: int, edges: frozenset) -> frozenset:
    """Apply a uniformly random permutation of 1..n."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return frozenset(_edge(perm[u - 1], perm[v - 1]) for u, v in edges)


# ---------------------------------------------------------------------------
# Structure tests the corpus needs
# ---------------------------------------------------------------------------

def adjacency(n: int, edges: frozenset) -> list:
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def components(n: int, edges: frozenset) -> int:
    adj = adjacency(n, edges)
    seen = [False] * (n + 1)
    count = 0
    for s in range(1, n + 1):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def is_connected(n: int, edges: frozenset) -> bool:
    return components(n, edges) <= 1


def two_coloring(n: int, edges: frozenset) -> Optional[list]:
    """color[v] in {0, 1} for v in 1..n, or None if an odd cycle exists."""
    adj = adjacency(n, edges)
    color = [-1] * (n + 1)
    for s in range(1, n + 1):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def edge_in_two_even_cycles(n: int, edges: frozenset) -> bool:
    """True when some edge lies in two distinct even simple cycles.  Stops
    at the first witness, so it stays cheap on the graphs drawn here."""
    adj = [sorted(ws) for ws in adjacency(n, edges)]
    load = {}
    for s in range(1, n + 1):
        path = [s]
        on_path = {s}
        stack = [iter(adj[s])]
        while stack:
            w = next(stack[-1], None)
            if w is None:
                stack.pop()
                on_path.discard(path.pop())
                continue
            if w == s:
                if len(path) >= 4 and len(path) % 2 == 0 and path[1] < path[-1]:
                    ring = path + [s]
                    for i in range(len(path)):
                        e = _edge(ring[i], ring[i + 1])
                        if load.get(e):
                            return True
                        load[e] = 1
            elif w > s and w not in on_path:
                path.append(w)
                on_path.add(w)
                stack.append(iter(adj[w]))
    return False


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def atlas_classes() -> list:
    """(n, edges) for the 1252 atlas classes on 1..7 vertices, atlas order."""
    out = []
    with open(ATLAS_FILE, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            tokens = line.split()
            edges = frozenset((int(t[0]), int(t[1])) for t in tokens[1:])
            out.append((int(tokens[0]), edges))
    return out


def _spec(rng, name, n, edges, family, param=0) -> GraphSpec:
    return GraphSpec(name, n, relabel(rng, n, edges), family, param)


def _atlas_sweep(rng: random.Random, _graphs: random.Random) -> list:
    """gamma-a on every atlas class, gamma-b on the bipartite ones."""
    reqs = []
    for i, (n, edges) in enumerate(atlas_classes(), start=1):
        g = _spec(rng, f"atlas{i:04d}", n, edges, "atlas")
        reqs.append(Request(f"{g.name}/gamma-a", g, "gamma-a"))
        if two_coloring(n, edges) is not None:
            reqs.append(Request(f"{g.name}/gamma-b", g, "gamma-b"))
    return reqs


# (n, m) of the random dense-cuts graphs: dense enough that the even-cycle
# condition fails, sparse enough that classify stays far below its cap.
GNM_SIZES = ((10, 16), (11, 17), (12, 18), (12, 19), (13, 19), (13, 20))


def _dense_cuts(rng: random.Random, graphs: random.Random) -> list:
    """A pass is kept to about 6 s on the 2-core VM, so a run times every
    request four times (see run.py).  gamma-a (auto) on K10 (4.2 s, all but
    0.3 s listing its 556,014 cycles) and --method cuts on K11 (1.9 s) are
    left out for that: K9 and K11 auto still list cycles, and K10 --method
    cuts runs the whole cut sum.  The G(n, m)
    graphs keep the labels they were drawn with, from the fixed stream:
    how long simple_cycles searches follows the labels."""
    reqs = []
    for k in (9, 10, 11):
        g = _spec(rng, f"K{k}", k, complete(k), "complete", k)
        if k == 10:
            reqs.append(Request(f"{g.name}/gamma-a-cuts", g, "gamma-a",
                                ("--method", "cuts")))
        else:
            reqs.append(Request(f"{g.name}/gamma-a", g, "gamma-a",
                                known_defect=K11_AUTO_DEFECT if k == 11 else None))
    for n, m in GNM_SIZES:
        g = GraphSpec(f"gnm{n}-{m}", n, random_gnm(graphs, n, m), "gnm", m)
        reqs.append(Request(f"{g.name}/gamma-a", g, "gamma-a"))
    for k in (5, 6, 7):
        g = _spec(rng, f"K{k},{k}", 2 * k, complete_bipartite(k),
                  "complete-bipartite", k)
        reqs.append(Request(f"{g.name}/gamma-b", g, "gamma-b",
                            known_defect=K77_AUTO_DEFECT if k == 7 else None))
    return reqs


CACTUS_SIZES = (24, 28, 32, 36, 40, 44)

# check --polytope ahat runs on these graphs, about a third of them.  The
# largest Sturm chain is kept at degree 36: at degree 44 one check takes
# 2.5 to 4 s depending on the cactus, half a pass on its own.
CHECKED = ("C12", "C15", "C18", "C21", "cactus24", "bcactus28", "cactus32",
           "bcactus36")

# gamma-a on the 44-vertex bipartite cactus (2.5 s) would be half a pass on
# its own; gamma-b on it (2.0 s) already makes gen_poly the largest layer.
GAMMA_B_ONLY = ("bcactus44",)


def _sparse_formula(_rng: random.Random, graphs: random.Random) -> list:
    """No input here depends on the seed: the labels of the wheel rims and
    the cacti come from the fixed stream too.  gen_poly branches on the
    lowest-labeled vertex, so its work follows the labels: 5 to 40 ms for
    gamma-a on a uniformly relabeled C22, and 3 to 27 s per gen_poly call
    on a uniformly relabeled 40-vertex cactus, against 0.01 to 0.6 s with
    the growth-order labels the cacti keep."""
    specs = [GraphSpec(f"C{n}", n, relabel(graphs, n, cycle(n)), "wheel-rim", n)
             for n in range(12, 23)]
    for n in CACTUS_SIZES:
        specs.append(GraphSpec(f"cactus{n}", n,
                               random_cactus(graphs, n, (3, 4, 5, 6, 7)),
                               "cactus", n))
        specs.append(GraphSpec(f"bcactus{n}", n,
                               random_cactus(graphs, n, (4, 6, 8)),
                               "bipartite-cactus", n))
    reqs = []
    for g in specs:
        if g.name not in GAMMA_B_ONLY:
            reqs.append(Request(f"{g.name}/gamma-a", g, "gamma-a"))
        if g.family == "bipartite-cactus":
            reqs.append(Request(f"{g.name}/gamma-b", g, "gamma-b"))
        if g.name in CHECKED:
            reqs.append(Request(f"{g.name}/check-ahat", g, "check",
                                ("--polytope", "ahat")))
    return reqs


def _oracle_verify(rng: random.Random, _graphs: random.Random) -> list:
    """check --polytope ahat --method ehrhart runs on C4 (0.1 s), not on C5
    (2.6 to 3.0 s, a third of a pass on its own): counting still gets about
    half of the ehrhart time from the check-a and verify requests."""
    reqs = []
    for i, (n, edges) in enumerate(atlas_classes(), start=1):
        if n <= 4:
            g = _spec(rng, f"atlas{i:04d}", n, edges, "atlas")
            reqs.append(Request(f"{g.name}/verify-full", g, "verify",
                                ("--level", "full")))
        elif n == 5 and edges:
            g = _spec(rng, f"atlas{i:04d}", n, edges, "atlas")
            reqs.append(Request(f"{g.name}/check-a", g, "check",
                                ("--polytope", "a")))
    g = _spec(rng, "C4", 4, cycle(4), "wheel-rim", 4)
    reqs.append(Request(f"{g.name}/check-ahat-ehrhart", g, "check",
                        ("--polytope", "ahat", "--method", "ehrhart")))
    g = _spec(rng, "K4", 4, complete(4), "complete", 4)
    reqs.append(Request(f"{g.name}/gamma-b-ehrhart", g, "gamma-b",
                        ("--method", "ehrhart")))
    return reqs


_MAKERS = {
    "atlas7-sweep": _atlas_sweep,
    "dense-cuts": _dense_cuts,
    "sparse-formula": _sparse_formula,
    "oracle-verify": _oracle_verify,
}


def workload(name: str, seed: int) -> list:
    """The requests of one pass of `name`; the same seed gives the same
    requests and files."""
    return _MAKERS[name](random.Random(f"{name}/{seed}"),
                           random.Random(f"{name}/graphs"))


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def edge_list_text(n: int, edges: frozenset) -> str:
    lines = [f"n {n}"] + [f"{u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def write_corpus(requests: list, directory: str) -> dict:
    """Write one edge-list file per distinct graph; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for req in requests:
        g = req.graph
        if g.name in paths:
            continue
        path = os.path.join(directory, g.name.replace(",", "_") + ".txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(edge_list_text(g.n, g.edges))
        paths[g.name] = path
    return paths
