"""Benchmark of the sepgamma command line, one workload per run.

    python3 perfbench/run.py --workload dense-cuts --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

A run imports sepgamma from src/ of the checkout it sits in, writes the
seeded corpus as edge-list files under .perfbench_work/, and drives
sepgamma.cli.main(argv) in-process: a closed loop with one client, one
request at a time, no threads.  Stdout and stderr of each request are
captured and checked after its clock stops.  A run makes as many whole
passes over the workload's requests as last about --seconds (PASS_SECONDS),
and a request's latency is the mean of its times over those passes.

Request times are CPU time of the process (see call()), scaled to a host
of fixed speed by timing a reference computation between requests (see
speed.py).  With --trace 0 the last stdout line is a JSON object carrying
the end-to-end metrics; with --trace 1 half of --seconds goes to untraced
passes, the same number of passes then runs with every public function of
the traced modules wrapped (see tracer.py), and the metrics are the
per-layer ones.  Lines before the last are for people.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass
from statistics import fmean, median
from time import process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_work"
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")

sys.path.insert(0, ROOT)
from perfbench import corpus, expect, speed, tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 7
# Nominal seconds of one pass on a 2-core x86-64 VM: a pass took 4 to 7 s
# there, and up to 9 s when the host ran slow.  --seconds buys
# round(seconds / PASS_SECONDS) whole passes (three, or four on
# sparse-formula, at --seconds 24), so the work of a run, the number of
# times each request is timed and its peak memory do not follow the
# host's speed: on that VM the same dense-cuts pass took 15 s in one run
# and 21 s in the next.
PASS_SECONDS = {"atlas7-sweep": 8.0, "dense-cuts": 8.0,
                "sparse-formula": 6.0, "oracle-verify": 8.0}
# Layer metrics: (module.function, field).  Fields are Stat attributes or
# work counters; all are per pass.
LAYER_FIELDS = (
    ("cli.main", "self_s"),
    ("cli.build_parser", "self_s"),
    ("graphs.parse_graph", "self_s"),
    ("graphs.classify", "calls"),
    ("graphs.classify", "self_s"),
    ("graphs.simple_cycles", "calls"),
    ("graphs.simple_cycles", "self_s"),
    ("graphs.simple_cycles", "cycles"),
    ("graphs.simple_cycles", "errors"),
    ("graphs.even_cycle_families", "self_s"),
    ("graphs.even_cycle_families", "families"),
    ("graphs.cuts", "self_s"),
    ("graphs.cuts", "cuts"),
    ("matching.matched_vertex_sets", "calls"),
    ("matching.matched_vertex_sets", "self_s"),
    ("matching.matched_vertex_sets", "sets"),
    ("interior.cut_sum_gamma", "calls"),
    ("interior.cut_sum_gamma", "self_s"),
    ("matching.gen_poly", "calls"),
    ("matching.gen_poly", "self_s"),
    ("engine.suspension_gamma_formula", "self_s"),
    ("polynomials.check_properties", "calls"),
    ("polynomials.check_properties", "self_s"),
    ("polynomials.real_rootedness", "self_s"),
    ("polynomials.squarefree_part", "self_s"),
    ("ehrhart.h_representation", "self_s"),
    ("ehrhart.h_representation", "subsets"),
    ("ehrhart.h_representation", "facets"),
    ("ehrhart.count_points", "calls"),
    ("ehrhart.count_points", "self_s"),
    ("ehrhart.count_points", "points"),
    ("ehrhart.count_points", "box_points"),
    ("spectral.verify_gamma_mu_bridge", "self_s"),
)


def unit_of(field: str) -> str:
    return "s" if field.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

class BenchmarkError(Exception):
    """The checkout cannot be benchmarked, or a workload process failed."""


def import_program():
    """Import sepgamma.cli fresh from the checkout's src/, dropping any
    copy already loaded, and refuse a sepgamma from anywhere else."""
    for name in [m for m in sys.modules if m == "sepgamma" or m.startswith("sepgamma.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    try:
        cli = importlib.import_module("sepgamma.cli")
    except ImportError as exc:
        raise BenchmarkError(f"cannot import sepgamma from {SRC}: {exc}") from None
    where = os.path.dirname(os.path.abspath(cli.__file__))
    if where != os.path.join(SRC, "sepgamma"):
        raise BenchmarkError(f"sepgamma was imported from {where}, not from {SRC}")
    return cli


def load_digests(workload: str) -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {})
    except FileNotFoundError:
        return {}


@dataclass
class Prepared:
    cli: object
    requests: list
    paths: dict
    expected: list


def prepare(workload: str, seed: int) -> Prepared:
    """One set-up: import the program, generate and write the corpus, and
    compute the expected answers.  The files are overwritten in place and
    kept after the run: on the VM's ext4, creating atlas7-sweep's 1252 files
    took 0.7 to 0.9 s of CPU and swung set-up time twofold between runs,
    while overwriting them takes 0.1 s."""
    cli = import_program()
    requests = corpus.workload(workload, seed)
    paths = corpus.write_corpus(requests, os.path.join(WORK, workload))
    digests = load_digests(workload)
    expected = [expect.expected_for(r, digests.get(r.name)) for r in requests]
    return Prepared(cli, requests, paths, expected)


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    request: corpus.Request
    code: object
    stdout: str
    stderr: str
    seconds: float
    problems: list

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def expected_failure(self) -> bool:
        """A known defect that failed the way it is known to fail."""
        return (self.request.known_defect is not None and self.code == 4
                and "simple cycles" in self.stderr)


def call(cli, argv: list):
    """One request; returns (exit code or exception text, stdout, stderr,
    seconds).  Only cli.main sits inside the clock.

    The clock is the process's CPU time.  Requests are single-threaded and
    CPU-bound, so on an idle host it equals wall time.  On the shared VM
    the benchmark was built on, the hypervisor took up to a fifth of the
    vCPU (steal in /proc/stat), and wall time charged that to the program:
    twenty repeats of one cut sum spread by 14 % in wall time and by 7.5 %
    in CPU time.

    Every request starts, like a fresh process, with no garbage pending
    and the collector's generations empty: what earlier requests and the
    harness left alive is frozen out of the collector's scans first."""
    gc.collect()
    gc.freeze()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the request failed; record it and go on
            code = "exception: " + traceback.format_exc(limit=3)
        elapsed = process_time() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run_pass(prep: Prepared, order: random.Random, gauge: speed.Gauge,
             trace=None) -> list:
    """Every request once, in an order drawn from `order`.  The corpus lists
    requests by size, so in that order the cheap ones would all run in one
    stretch of the pass, and the p50 would sample the host's speed in that
    stretch only; shuffled, every quantile samples the whole run.  The
    gauge probes the host's speed between requests, outside their clocks."""
    outcomes = []
    for i in order.sample(range(len(prep.requests)), len(prep.requests)):
        req, exp = prep.requests[i], prep.expected[i]
        if trace is not None:
            trace.tag = req.command
        gauge.before_request()
        code, out, err, seconds = call(prep.cli, req.argv(prep.paths[req.graph.name]))
        gauge.after_request(seconds)
        problems = expect.check_answer(req, exp, code, out)
        outcomes.append(Outcome(req, code, out, err, seconds, problems))
    return outcomes


def run_passes(prep: Prepared, passes: int, order: random.Random,
               gauge: speed.Gauge, trace=None) -> list:
    """The passes, and a last probe, so that the probes cover the last
    requests too."""
    result = [run_pass(prep, order, gauge, trace) for _ in range(passes)]
    gauge.probe()
    return result


def passes_for(workload: str, seconds: float) -> int:
    """Whole passes that last about `seconds` at the nominal pass time."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def windowed(ordered: list, k: int, half: int) -> float:
    """Mean of the sorted samples ranked k - half .. k + half.  A workload
    of a few dozen requests has gaps of 30 % and more between neighbouring
    costs, and a single order statistic jumps across them with run-to-run
    noise; the window keeps the estimate on the rank, not on one request."""
    window = ordered[max(k - half, 0):k + half + 1]
    return sum(window) / len(window)


def request_latencies(passes: list, scale: float) -> list:
    """Each request's mean time over the passes of a run, scaled."""
    times = {}
    for outcomes in passes:
        for o in outcomes:
            times.setdefault(o.request.name, []).append(o.seconds * scale)
    return [fmean(ts) for ts in times.values()]


def latency_quantiles(samples: list) -> tuple:
    """(p50, tail, tail percentile).  The tail is taken at the highest rank
    with ten samples beyond it.  With fewer than 21 samples that rank would
    fall below the median, and the tail is taken at p90 instead.  The p50
    is windowed over the middle two fifths of the samples, the tail over a
    fifth, but over no more than five on a side."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 11 if n >= 21 else -(-9 * (n - 1) // 10)
    p50 = windowed(ordered, (n - 1) // 2, max(1, round(0.2 * n)))
    tail = windowed(ordered, k, min(max(1, round(0.1 * n)), 5))
    return p50, tail, 100.0 * k / max(n - 1, 1)


def end_to_end(passes: list, setup_s: float, gauge: speed.Gauge) -> tuple:
    scale = gauge.scale()
    pooled = [o for outcomes in passes for o in outcomes]
    latencies = request_latencies(passes, scale)
    answered = sum(1 for o in pooled if not o.failed)
    p50_s, tail_s, pct = latency_quantiles(latencies)
    metrics = {
        "setup_s": (setup_s * scale, "s"),
        "requests_per_s": (answered / (scale * sum(o.seconds for o in pooled)), "1/s"),
        "latency_p50_ms": (1000 * p50_s, "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"latency: mean of {len(passes)} pass(es) for each of "
             f"{len(latencies)} requests",
             f"latency_tail_ms is p{pct:.1f} of {len(latencies)} requests",
             f"host speed: reference() took {1000 * speed.REFERENCE_SECONDS / scale:.2f} ms "
             f"(mean of {len(gauge.probes)} probes; "
             f"{1000 * speed.REFERENCE_SECONDS:.2f} ms nominal); times are "
             f"scaled by {scale:.4f}"]
    return metrics, notes


def per_layer(trace, passes: int, requests: int, failed_ratio: float,
              overhead_s: float) -> tuple:
    metrics = {}
    for key, field in LAYER_FIELDS:
        stat = trace.stat(key)
        value = getattr(stat, field) if hasattr(stat, field) else stat.work[field]
        metrics[f"{key}.{field}"] = (value / passes, unit_of(field))
    cycles = trace.stat("graphs.simple_cycles")
    metrics["graphs.simple_cycles.calls_per_request"] = (
        cycles.calls / (passes * requests), "count")
    hrep = trace.stat("ehrhart.h_representation").work
    metrics["ehrhart.h_representation.facet_yield"] = (
        hrep["facets"] / hrep["subsets"] if hrep["subsets"] else 0.0, "ratio")
    count = trace.stat("ehrhart.count_points").work
    metrics["ehrhart.count_points.hit_ratio"] = (
        count["points"] / count["box_points"] if count["box_points"] else 0.0, "ratio")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["failed_ratio"] = (failed_ratio, "ratio")

    cycle_calls = cycles.calls_by_tag
    requests_by_command = trace.stat("cli.main").calls_by_tag
    notes = ["graphs.simple_cycles calls per request, by subcommand: " + ", ".join(
        f"{cmd} {cycle_calls[cmd] / n:.2f}"
        for cmd, n in sorted(requests_by_command.items()))]
    ranked = sorted(trace.stats.items(), key=lambda kv: -kv[1].self_s)
    notes.append("self time per pass, top 15 (s, calls):")
    notes += [f"  {key:40s} {s.self_s / passes:10.4f} {s.calls / passes:10.1f}"
              for key, s in ranked[:15] if s.calls]
    return metrics, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def report_failures(passes: list) -> None:
    seen = set()
    for outcomes in passes:
        for o in outcomes:
            if o.failed and o.request.name not in seen:
                seen.add(o.request.name)
                kind = "known defect" if o.expected_failure else "FAILED"
                why = o.request.known_defect if o.expected_failure else "; ".join(o.problems)
                print(f"{kind}: {o.request.name}: {why}")
                if not o.expected_failure and o.stderr.strip():
                    print("  stderr: " + o.stderr.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace_on: bool) -> dict:
    setups = []
    for i in range(SETUP_REPEATS):
        start = 0.0 if i == 0 else process_time()  # the first counts from process start
        prep = prepare(workload, seed)
        setups.append(process_time() - start)
    setup_s = median(setups)
    print(f"workload {workload}, seed {seed}: {len(prep.requests)} requests per pass; "
          f"set-up {', '.join(f'{s:.3f}' for s in setups)} s")

    # A traced run spends half its time untraced, half traced.
    order = random.Random(f"{workload}/{seed}/order")
    gauge = speed.Gauge()
    passes = run_passes(prep, passes_for(workload, seconds / 2 if trace_on else seconds),
                        order, gauge)
    pooled = [o for outcomes in passes for o in outcomes]
    attempted = len(pooled)
    failed = sum(1 for o in pooled if o.failed)
    correct = all(o.expected_failure for o in pooled if o.failed)
    report_failures(passes)

    if trace_on:
        untraced = sum(o.seconds for o in pooled)
        trace = tracer.Tracer()
        trace.install()
        try:
            traced_passes = run_passes(prep, len(passes), order, gauge, trace)
        finally:
            trace.uninstall()
        traced_pool = [o for outcomes in traced_passes for o in outcomes]
        if any(o.failed and not o.expected_failure for o in traced_pool):
            correct = False
            report_failures(traced_passes)
        overhead = (sum(o.seconds for o in traced_pool) - untraced) / len(passes)
        metrics, notes = per_layer(trace, len(passes), len(prep.requests),
                                   failed / attempted, overhead)
    else:
        metrics, notes = end_to_end(passes, setup_s, gauge)
    notes.insert(0, f"attempted {attempted}, failed {failed} "
                    f"(failed_ratio {failed / attempted:.4f})")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload in its own process (so peak RSS is per workload),
    untraced then traced; prints each run's output."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in corpus.WORKLOADS:
        for trace_on in ("0", "1"):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", trace_on]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                raise BenchmarkError(f"{workload} --trace {trace_on} exited "
                                 f"{proc.returncode}: {proc.stderr.strip()}")
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            if trace_on == "0":
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = metric
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
