"""Print the tables behind polynomials.PACK_SLOT_BITS: the CPU of the
packed route (Kronecker substitution: the fold on ints at x = 2^w, read off
w-bit slots) over that of the Poly arithmetic, for the formula's tiling
and for the gamma -> h* transform, by family, size and slot width.

    PYTHONPATH=src python tests/pack_table.py [--reps 5] [--big]

The first table times engine.suspension_gamma_formula (the guard, the
fold and the read-off; the classification is made outside the timing) on
paths, cycles, relabelled random cacti (blocks of 2 to 8 vertices, each
hanging from a vertex built before it) and chains of diamonds (K4 less an
edge, glued tip to tip).  The second times gamma_to_hstar(gamma, d) on the
suspension gamma of the path on d vertices.  Each route is forced by
setting the limit to 0 (Polys) or past every width (packed); each time is
the best of `--reps` calls of time.process_time, and a ratio below 1 means
the packed route wins.  `--big` adds n = 400 and 1,000 (about a minute).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import cactus_edges, diamond_chain  # noqa: E402

from sepgamma import (Graph, classify, cycle_graph, gamma_to_hstar,  # noqa: E402
                      path_graph, polynomials, suspension_gamma_formula)


def best_time(call, limit: int, reps: int) -> float:
    saved, polynomials.PACK_SLOT_BITS = polynomials.PACK_SLOT_BITS, limit
    try:
        best = float("inf")
        for _ in range(reps):
            start = time.process_time()
            call()
            best = min(best, time.process_time() - start)
        return best
    finally:
        polynomials.PACK_SLOT_BITS = saved


def ratio(call, reps: int) -> float:
    return best_time(call, 1 << 60, reps) / best_time(call, 0, reps)


def random_cactus(rng: random.Random, n: int) -> Graph:
    """A cactus on 1..n by conftest.cactus_edges, relabelled."""
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return Graph.make(n, [(label[u - 1], label[v - 1])
                          for u, v in cactus_edges(rng.randint, n)])


def slot_bits(g: Graph, cls) -> int:
    """The guard's count plus a sign bit, rounded up to whole bytes: the
    slot width the formula's packed route takes."""
    evens = sum(len(c) % 2 == 0 for c in cls.simple_cycles)
    bits = g.n + g.edge_count + evens + 2
    return bits + -bits % 8


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--big", action="store_true")
    args = parser.parse_args()
    sizes = [60, 100, 150, 180, 200, 220, 260] + ([400, 1000] if args.big else [])
    rng = random.Random(2009)
    families = [("path", path_graph), ("cycle", cycle_graph),
                ("random cactus", lambda n: random_cactus(rng, n)),
                ("diamond chain", lambda n: diamond_chain(n // 3))]
    print("tiling: packed / Poly CPU of suspension_gamma_formula")
    print(f"{'family':15} {'n':>5} {'slot bits':>9} {'ratio':>6}")
    for name, make in families:
        for n in sizes:
            g = make(n)
            cls = classify(g)
            r = ratio(lambda: suspension_gamma_formula(g, cls), args.reps)
            print(f"{name:15} {g.n:5} {slot_bits(g, cls):9} {r:6.2f}")
    print()
    print("gamma -> h*: packed / schoolbook CPU of gamma_to_hstar")
    print(f"{'d':>5} {'slot bits':>9} {'ratio':>6}")
    for d in [22, 44, 100, 150, 200, 300] + ([400, 1000] if args.big else []):
        gamma = suspension_gamma_formula(path_graph(d))
        bits = d + sum(map(abs, gamma.coeffs)).bit_length() + 2
        r = ratio(lambda: gamma_to_hstar(gamma, d), args.reps)
        print(f"{d:5} {bits + -bits % 8:9} {r:6.2f}")


if __name__ == "__main__":
    main()
