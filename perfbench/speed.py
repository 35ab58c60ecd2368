"""The host's speed, measured alongside the program.

On the shared 2-core VM the benchmark was built on, a fixed computation
took 1.0 to 1.8 times its usual CPU time, for stretches that lasted from a
few seconds to several minutes: the same dense-cuts pass, each request
timed as the least of four repeats, read 4.2 s in one run and 6.0 s in
another.  CPU time leaves out the time the hypervisor takes away, but not
the slowdown when neighbours share the core's caches and execution units.

So a run also times reference(), a fixed computation that does not touch
sepgamma, once for every PROBE_EVERY seconds of request time (a probe;
after a long request, as many as its length calls for), and scales
its request times by REFERENCE_SECONDS over the mean of its probes.  A
scaled time is the time the request would take on a host where
reference() takes REFERENCE_SECONDS.  The probes sample the run evenly in
request time, so their mean slowdown is the requests' mean slowdown.  On
that VM the host's speed also jumped by a third between neighbouring
probes, a quarter second apart: a single probe cannot scale a single
request, but the mean of the eighty or so probes of a run is steady.  The reference does the kind of
work the program's requests do: it builds and runs an argparse parser,
fills dicts and sets of tuples, sorts, and computes with big integers and
fractions.  A change to sepgamma cannot change it.
"""

from __future__ import annotations

import argparse
import gc
from fractions import Fraction
from statistics import fmean
from time import process_time

# CPU seconds of one reference() on the 2-core VM at its usual speed.
REFERENCE_SECONDS = 0.018
# Request seconds between two probes; a probe costs about 0.02 s.
PROBE_EVERY = 0.25


def reference() -> int:
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("alpha", "beta", "gamma", "delta", "epsilon"):
        cmd = sub.add_parser(name, help=f"the {name} subcommand")
        cmd.add_argument("path")
        cmd.add_argument("--method", choices=("auto", "one", "two"), default="auto")
        cmd.add_argument("--level", type=int, default=1)
    args = parser.parse_args(["gamma", "g.txt", "--method", "two", "--level", "3"])
    table, seen, x = {}, set(), 1
    for i in range(10000):
        key = (i * 7919 % 4099, i % 13)
        table[key] = table.get(key, 0) + i
        seen.add(frozenset(key))
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 127)
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    row = [1]
    for _ in range(40):
        row = [a + 3 * b for a, b in zip(row + [0], [0] + row)]
    total = sum(Fraction(c, k + 1) for k, c in enumerate(row[:12]))
    return len(ranked) + len(seen) + x % 7 + args.level + total.numerator % 5


class Gauge:
    """The probes of one run, in order."""

    def __init__(self) -> None:
        self.probes = []
        self.due = 0.0  # request seconds left until the next probe

    def probe(self) -> None:
        gc.collect()
        start = process_time()
        reference()
        self.probes.append(process_time() - start)

    def before_request(self) -> None:
        """Probe once for every PROBE_EVERY seconds of request time since
        the last probe."""
        while self.due <= 0:
            self.probe()
            self.due += PROBE_EVERY

    def after_request(self, seconds: float) -> None:
        self.due -= seconds

    def scale(self) -> float:
        """REFERENCE_SECONDS over the mean of the probes."""
        return REFERENCE_SECONDS / fmean(self.probes)
