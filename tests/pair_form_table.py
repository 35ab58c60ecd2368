"""Print the crossover tables of README's pair-count paragraph: the CPU of
matching._pair_tally with each form forced, sets, bitmap and subsets, and
the form that the block's own rule picks.

    PYTHONPATH=src python tests/pair_form_table.py [--reps 3] [--graphs 4]

The first table times named blocks: complete graphs, ladders and grids
with every vertex as a source (the suspension) and with one side of the
bipartition as the sources (type B), and complete graphs with every
vertex tracked, as when a pendant edge hangs at each one.  Its last rows
time every block of a chain of K2,3's glued tip to tip, on type B with
the tips tracked, so a cost per block that follows the highest label
or the graph's size shows up; their views column is the CPU of
building every block's view from classify's block records.  The others
give, per source mode and number of tracked vertices, the sets' CPU over
the bitmap's (above 1, the bitmap wins) on random blocks by size and by
share of edges, with the rule's choice marked: `*` where it takes the
bitmap, `+` where it takes the subsets.  On the suspension each cell
also gives the faster of those two forms over the subsets' CPU (above
1, the subsets win), up to SUBSETS_TIMED vertices: past it the subset
DP holds tens of megabytes.  A random block is a Hamiltonian cycle (alternating sides on type
B) plus random edges, so it is biconnected, and its degrees are skewed
by one or two hubs joined to half the block.  Each time is the best of
`--reps` calls of time.process_time, with each block's view
(matching._block_order, from the block's own edge list) built outside
the timing of the tally; each ratio is the median over
`--graphs` blocks.  With the defaults it runs for about 20 minutes.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import grid_graph  # noqa: E402
from oracles import bipartition_of  # noqa: E402

from sepgamma import (Graph, classify, complete_bipartite,  # noqa: E402
                      complete_graph, matching)


FORMS = ("sets", "bitmap", "subsets")
MARKS = {"sets": "", "bitmap": "*", "subsets": "+"}
SUBSETS_TIMED = 15  # K15 on subsets holds 37 MB at its peak


def view(edges, block: int, sources: int, tracked: int) -> tuple:
    """(order, sources, tracked) of the block with the vertex mask `block`
    and the edge list `edges` among its vertices: its _block_order and the
    two masks in the block's numbering."""
    local, order = matching._block_order(
        [b.bit_length() for b in matching._bits(block)], edges)
    return order, *(sum(bit for v, bit in local.items() if m >> (v - 1) & 1)
                    for m in (sources, tracked))


def rule(edges, block: int, sources: int, tracked: int) -> str:
    """The form that _pair_tally's rule picks for the block."""
    return matching._pair_form(*view(edges, block, sources, tracked))


def best_time(blocks: list, sources: int, tracked: int, form: str,
              reps: int) -> float:
    """The best of `reps` CPU times of _pair_tally over `blocks`, (edge
    list, vertex mask) pairs, each tracking its vertices in `tracked`; the
    blocks' views are built outside the timing."""
    views = [view(edges, block, sources, tracked) for edges, block in blocks]
    best = float("inf")
    for _ in range(reps):
        start = time.process_time()
        for order, src, tr in views:
            matching._pair_tally(order, src, tr, form)
        best = min(best, time.process_time() - start)
    return best


def views_time(records: list, reps: int) -> float:
    """The best of `reps` CPU times of building the view of every block of
    `records`, classify's (top, vertices, edges) records."""
    best = float("inf")
    for _ in range(reps):
        start = time.process_time()
        for _, vertices, edges in records:
            matching._block_order(vertices, edges)
        best = min(best, time.process_time() - start)
    return best


def mask(vertices) -> int:
    return sum(1 << (v - 1) for v in vertices)


def random_block(rng: random.Random, s: int, share: float, bipartite: bool) -> Graph:
    """A biconnected graph on 1..s: a Hamiltonian cycle, one or two hubs
    joined to half the block, then random edges up to `share` of the
    vertex pairs (of the pairs across 1..s/2 and the rest when
    bipartite)."""
    half = s // 2
    if bipartite:
        left, right = list(range(1, half + 1)), list(range(half + 1, s + 1))
        pairs = [(u, v) for u in left for v in right]
        rng.shuffle(left)
        rng.shuffle(right)
        ring = [v for pair in zip(left, right) for v in pair]
    else:
        pairs = [(u, v) for u in range(1, s + 1) for v in range(u + 1, s + 1)]
        ring = list(range(1, s + 1))
        rng.shuffle(ring)
    edges = {tuple(sorted((ring[i - 1], ring[i]))) for i in range(s)}
    want = max(len(edges), round(share * len(pairs)))
    for hub in rng.sample(ring, rng.choice((1, 2))):
        other = [v for u, v in pairs if u == hub] + [u for u, v in pairs if v == hub]
        for v in rng.sample(other, len(other) // 2):
            if len(edges) < want:
                edges.add(tuple(sorted((hub, v))))
    rest = [e for e in pairs if e not in edges]
    rng.shuffle(rest)
    edges.update(rest[:max(0, want - len(edges))])
    return Graph.make(s, list(edges))


def k23_chain(blocks: int) -> Graph:
    """K2,3's glued tip to tip: each shares a vertex of its side of two
    with the next, so n = 4 blocks + 1."""
    edges = []
    for i in range(blocks):
        tip, mid = 4 * i + 1, range(4 * i + 2, 4 * i + 5)
        edges += [(u, v) for u in (tip, tip + 4) for v in mid]
    return Graph.make(4 * blocks + 1, edges)


def named_blocks() -> list:
    """(name, graph, type B, every vertex tracked)."""
    return ([(f"K{n}", complete_graph(n), False, False) for n in (9, 11, 12, 13, 14)]
            + [(f"K{n}, all tracked", complete_graph(n), False, True) for n in (10, 12)]
            + [(f"2 x {k} ladder", grid_graph(2, k), False, False) for k in (7, 8, 9, 10)]
            + [(f"K{k},{k}, type B", complete_bipartite(k, k), True, False) for k in (5, 7)]
            + [(f"2 x {k} ladder, type B", grid_graph(2, k), True, False) for k in (8, 10, 15)]
            + [(f"3 x {k} grid, type B", grid_graph(3, k), True, False) for k in (5, 6, 8)])


def print_named(reps: int) -> None:
    print("| block | sets | bitmap | subsets | views | rule |")
    print("|---|---|---|---|---|---|")
    for name, g, type_b, all_tracked in named_blocks():
        block = (1 << g.n) - 1
        src = mask(bipartition_of(g).part1) if type_b else block
        tr = block if all_tracked else 0
        cells = [f"{1e3 * best_time([(g.edges, block)], src, tr, form, reps):.2f} ms"
                 if form != "subsets" or g.n <= SUBSETS_TIMED else "" for form in FORMS]
        print(f"| {name} | " + " | ".join(cells) + f" | | {rule(g.edges, block, src, tr)} |")
    for k in (1000, 2000, 4000):
        g = k23_chain(k)
        src, records = mask(bipartition_of(g).part1), classify(g).blocks
        tips = mask(range(5, g.n, 4))  # the cut vertices
        blocks = [(edges, mask(vertices)) for _, vertices, edges in records]
        cells = [f"{1e3 * best_time(blocks, src, tips, form, reps):.0f} ms"
                 for form in FORMS] + [f"{1e3 * views_time(records, reps):.1f} ms"]
        picks = {rule(edges, block, src, tips & block) for edges, block in blocks}
        print(f"| K2,3 chain of {k} blocks, type B | " + " | ".join(cells)
              + f" | {', '.join(sorted(picks))} |")


def print_ratios(sizes, shares, bipartite: bool, tracked, graphs: int, reps: int) -> None:
    """One table of sets / bitmap, and on the suspension of the faster of
    the two over the subsets.  Suspension blocks past 14 vertices with
    more than 0.3 of their pairs as edges are left out: the sets take
    seconds there."""
    mode = "type B, t = s/2" if bipartite else "suspension, t = s"
    cells = "sets / bitmap" if bipartite else "sets / bitmap, best of the two / subsets"
    print(f"\n{mode}, tracked {tracked}: {cells} (rule: * bitmap, + subsets)\n")
    print("| s | " + " | ".join(f"{share:g}" for share in shares) + " |")
    print("|---|" + "---|" * len(shares))
    for s in sizes:
        cells = []
        for share in shares:
            if not bipartite and s > 14 and share > 0.3:
                cells.append("")
                continue
            rng = random.Random(f"31/{s}/{share}/{bipartite}/{tracked}")
            ratios, subsets, picks = [], [], []
            timed = not bipartite and s <= SUBSETS_TIMED
            for _ in range(graphs):
                g = random_block(rng, s, share, bipartite)
                block = (1 << s) - 1
                src = (1 << s // 2) - 1 if bipartite else block
                tr = block if tracked == "all" else mask(rng.sample(range(1, s + 1), tracked))
                whole = [(g.edges, block)]
                sets, bits = (best_time(whole, src, tr, f, reps) for f in FORMS[:2])
                ratios.append(sets / bits)
                if timed:
                    subsets.append(min(sets, bits)
                                   / best_time(whole, src, tr, "subsets", reps))
                picks.append(rule(g.edges, block, src, tr))
            mark = MARKS[statistics.mode(picks)]
            cell = f"{statistics.median(ratios):.2f}"
            if timed:
                cell += f" / {statistics.median(subsets):.2f}"
            cells.append(cell + mark)
        print(f"| {s} | " + " | ".join(cells) + " |")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--graphs", type=int, default=4)
    args = parser.parse_args()
    print_named(args.reps)
    for tracked in (2, 6, "all"):  # all tracked: the bitmap takes seconds past 14
        print_ratios(range(8, 15 if tracked == "all" else 19),
                     (0.15, 0.2, 0.3, 0.4, 0.5, 0.75), False, tracked, args.graphs, args.reps)
    for tracked in (2, 6, "all"):
        print_ratios(range(8, 23, 2), (0.2, 0.3, 0.5, 0.75), True, tracked,
                     args.graphs, args.reps)


if __name__ == "__main__":
    main()
