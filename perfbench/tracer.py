"""Per-layer tracing from outside the program.

Tracer.install() wraps every public function of the traced sepgamma
modules and rebinds the wrapper under every name, in every sepgamma module
namespace, that held the original (classify, for instance, is bound in
graphs, engine, matching, cli, spectral and witness).  Each wrapper keeps
a span stack, so a function's self time is its wall time minus the time of
the wrapped calls it made.  A few functions also get work counters read
from their arguments and results.  Nothing in the program is touched
beyond the rebinding, and uninstall() puts every original back.

Self times are wall time (time.perf_counter): the CPU-time clock costs a
system call per read, too dear for a wrapper that runs 700,000 times in a
dense-cuts pass.  Nothing runs concurrently, so no layer waits on another
and no waiting time is recorded.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "sepgamma"
TRACED_MODULES = ("cli", "graphs", "matching", "interior", "engine",
                  "polynomials", "ehrhart", "spectral")


def _box_points(p, t: int) -> int:
    """Points in the bounding box of tP, the box count_points scans."""
    total = 1
    for i in range(p.dim):
        coords = [q[i] for q in p.points]
        total *= t * (max(coords) - min(coords)) + 1
    return total


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counters: function key -> f(args, kwargs, result) -> {counter: amount}.
COUNTERS = {
    "graphs.simple_cycles": lambda a, k, r: {"cycles": len(r)},
    "graphs.even_cycle_families": lambda a, k, r: {"families": len(r)},
    "graphs.cuts": lambda a, k, r: {"cuts": len(r)},
    "matching.matched_vertex_sets": lambda a, k, r: {"sets": sum(r)},
    "ehrhart.h_representation": lambda a, k, r: {
        "subsets": math.comb(len(set(_arg(a, k, 0, "p").points)),
                             _arg(a, k, 0, "p").dim),
        "facets": len(r)},
    "ehrhart.count_points": lambda a, k, r: {
        "points": r,
        "box_points": _box_points(_arg(a, k, 0, "p"), _arg(a, k, 1, "t"))},
}


class Stat:
    """Totals for one wrapped function."""

    __slots__ = ("calls", "errors", "total_s", "self_s", "work", "calls_by_tag")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = Counter()
        self.calls_by_tag = Counter()


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions(module) -> dict:
    """Functions defined in `module` (not imported into it) whose names do
    not start with an underscore."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.tag = None
        self._stack = []
        self._originals = {}
        self._rebound = []

    def install(self) -> None:
        """Wrap the public functions of TRACED_MODULES and rebind them in
        every loaded sepgamma module."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for name, fn in public_functions(module).items():
                key = f"{short}.{name}"
                self._originals[key] = fn
                wrappers[id(fn)] = (fn, self._wrap(key, fn))
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._rebound:
            setattr(module, attr, original)
        self._rebound = []

    def originals(self) -> dict:
        return dict(self._originals)

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        counter = COUNTERS.get(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stat.calls += 1
                stat.calls_by_tag[tracer.tag] += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                stat.work.update(counter(args, kwargs, result))
            return result

        return traced

    def stat(self, key) -> Stat:
        return self.stats.get(key) or Stat()
