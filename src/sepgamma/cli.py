"""Command-line interface.

Subcommands: gamma-a, gamma-b, check, witness, analyze, batch, verify.
Exit codes are a stable contract: 0 success, 1 parse/I-O or usage
failure, 2 precondition failure, 3 verification mismatch, 4 resource bound.

Reports on stdout are byte-identical across runs on identical input;
timing goes to stderr so it cannot break that.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction

from . import engine, spectral, witness
from .errors import (BOUNDS, BoundExceededError, GraphFormatError,
                     PreconditionError, SepGammaError, VerificationError, bound)
from .graphs import (Graph, classify, parse_graph, simple_cycles,
                     to_edge_list_text)
from .matching import check_pair_count_bound
from .polynomials import (Poly, PropertyReport, _property_reports,
                          check_properties)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_MISMATCH = 3
EXIT_BOUND = 4

METHODS = tuple(dict.fromkeys(m for routes in engine.ROUTES.values() for m in routes))
BATCH_AGREEMENT_MAX_N = 12


# ---------------------------------------------------------------------------
# Input and output helpers
# ---------------------------------------------------------------------------

def _load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from None
    return parse_graph(text)


def _poly_text(p, fmt: str):
    if p is None:
        return None if fmt == "structured" else "n/a"
    if fmt == "pretty":
        return p.pretty()
    if fmt == "structured":
        return [str(c) if isinstance(c, Fraction) else c for c in p.coeffs]
    return p.coeff_text()


def _yn(flag: bool) -> str:
    return "yes" if flag else "NO"


def _parse_bound_overrides(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise GraphFormatError(f"bad --bound-override {item!r}, want name=value")
        name, _, value = item.partition("=")
        if name not in BOUNDS:
            raise GraphFormatError(
                f"unknown bound {name!r}; known: {', '.join(BOUNDS)}")
        try:
            out[name] = int(value)
        except ValueError:
            raise GraphFormatError(f"bound value {value!r} is not an integer") from None
    return out


def _result_doc(res, fmt: str) -> list:
    return [
        ("method", res.method),
        ("gamma", _poly_text(res.gamma, fmt)),
        ("hstar", _poly_text(res.hstar, fmt)),
        ("volume", res.volume),
        ("dim", res.dim),
    ]


def _print_report(doc: dict, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(doc, indent=2))
    else:
        for key, value in doc.items():
            if isinstance(value, dict):
                print(f"{key}:")
                for k2, v2 in value.items():
                    print(f"  {k2}: {v2}")
            elif isinstance(value, list):
                print(f"{key}:")
                for item in value:
                    print(f"  {item}")
            else:
                print(f"{key}: {value}")


def _properties_doc(rep: PropertyReport, fmt: str) -> dict:
    doc = {
        "degree": rep.degree,
        "palindromic": _yn(rep.palindromic),
        "unimodal": _yn(rep.unimodal),
        "log-concave": _yn(rep.log_concave),
        "gamma-positive": _yn(rep.gamma_positive),
        "real-rooted": _yn(rep.real_rooted),
        "real-root-count": rep.real_root_count,
    }
    if rep.gamma is not None:
        doc["gamma"] = _poly_text(rep.gamma, fmt)
    return doc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    """gamma-a, gamma-b and check: one polytope by one route; check adds
    the property report."""
    bounds = _parse_bound_overrides(args.bound_override)
    g = _load_graph(args.path)
    res = engine.solve(g, args.polytope, args.method, bounds=bounds)
    check = args.command == "check"
    doc = {"input": args.path, "command": args.command}
    if check:
        doc["polytope"] = args.polytope
    doc.update(_result_doc(res, args.format))
    if check:
        # res.gamma, when defined, is the gamma of res.hstar: both reports
        # come from its one Sturm chain
        hstar_rep, gamma_rep = _property_reports(res.hstar, res.gamma)
        doc["hstar properties"] = _properties_doc(hstar_rep, args.format)
        if res.gamma is not None:
            doc["gamma properties"] = _properties_doc(gamma_rep, args.format)
    _print_report(doc, args.format)
    return EXIT_OK


def cmd_witness(args) -> int:
    bounds = _parse_bound_overrides(args.bound_override)
    g = _load_graph(args.path)
    fw = (witness.witness_a if args.type == "a" else witness.witness_b)(g, bounds)
    doc = {
        "input": args.path,
        "command": "witness",
        "type": args.type,
        "target-gamma": _poly_text(fw.target, args.format),
        "f-poly": _poly_text(fw.f_poly, args.format),
        "witness-vertices": fw.witness_graph.n,
        "witness-edges": fw.witness_graph.edge_count,
        "verdict": "ok",
    }
    if args.format == "structured":
        doc["witness-edge-list"] = fw.witness_graph.sorted_edges()
        print(json.dumps(doc, indent=2))
    else:
        _print_report(doc, args.format)
        print("witness-edge-list:")
        sys.stdout.write(to_edge_list_text(fw.witness_graph))
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = _load_graph(args.path)
    cls = classify(g)
    cycles = cls.simple_cycles
    if cycles is None:  # classify stopped at an edge in two even cycles
        cycles = simple_cycles(g)
    doc = {
        "input": args.path,
        "command": "analyze",
        "n": g.n,
        "edges": g.edge_count,
        "connected": _yn(cls.connected),
        "bipartite": _yn(cls.bipartite),
    }
    if cls.bipartition is not None:  # isolated vertices are printed in part 1
        part2 = cls.bipartition.part2
        doc["part1"] = [v for v in range(1, g.n + 1) if v not in part2]
        doc["part2"] = sorted(part2)
    doc.update({
        "forest": _yn(cls.forest),
        "cactus": _yn(cls.cactus),
        "unique-even-cycle": _yn(cls.unique_even_cycle_condition),
        "simple-cycle-count": len(cycles),
    })
    if 0 < len(cycles) <= 50:
        doc["simple-cycles"] = [list(c) for c in cycles]
    _print_report(doc, args.format)
    return EXIT_OK


def _agreement(name: str, p: Poly, q: Poly) -> tuple:
    return (name, p == q, f"{p.coeff_text()} vs {q.coeff_text()}")


def _verify_checks(g: Graph, level: str, bounds: dict) -> list:
    """Run the cross-method suite; returns (name, status, detail) triples
    where status is pass | FAIL | skipped."""
    checks = []
    cls = classify(g)
    cut_max = bound(bounds, "cut-sum")

    # The formulas run when their preconditions hold, the guarded routes
    # when the graph is within their bounds; otherwise the check is skipped.
    res_formula = (engine.solve(g, "ahat", "formula", cls)
                   if cls.unique_even_cycle_condition else None)
    res_cuts = (engine.solve(g, "ahat", "cuts", cls, bounds)
                if 0 < g.n <= cut_max else None)
    if res_formula is None:
        checks.append(("a-formula-vs-cuts", None, "even-cycle condition fails"))
    elif res_cuts is None:
        checks.append(("a-formula-vs-cuts", None,
                       f"cut sum bound {cut_max}" if g.n else "no vertices"))
    else:
        checks.append(_agreement("a-formula-vs-cuts", res_formula.gamma, res_cuts.gamma))

    res_b = None
    if cls.bipartite:
        try:  # the interior route's own guard, on the largest block
            check_pair_count_bound(cls, bounds, "matched-sets")
        except BoundExceededError:
            res_b_int = None
        else:
            res_b_int = engine.solve(g, "b", "interior", cls, bounds)
        res_b_formula = engine.solve(g, "b", "formula", cls) if cls.cactus else None
        if res_b_formula is None:
            checks.append(("b-formula-vs-interior", None, "not a cactus"))
        elif res_b_int is None:
            checks.append(("b-formula-vs-interior", None,
                           f"matched-set bound {bound(bounds, 'matched-sets')}"))
        else:
            checks.append(_agreement("b-formula-vs-interior",
                                     res_b_formula.gamma, res_b_int.gamma))
        res_b = res_b_int or res_b_formula
    else:
        checks.append(("b-formula-vs-interior", None, "not bipartite"))

    best_a = res_formula or res_cuts
    if best_a is not None:
        hs = best_a.hstar
        ok = (hs.is_palindromic() and hs.degree == best_a.dim
              and hs(1) == best_a.volume
              and best_a.volume == (1 << best_a.dim) * best_a.gamma(Fraction(1, 4)))
        checks.append(("a-hstar-invariants", ok,
                       f"hstar={hs.coeff_text()} volume={best_a.volume}"))

    if level == "full":
        if best_a is not None:
            oracle_a = engine.solve(g, "ahat", "ehrhart", cls, bounds)
            checks.append(_agreement("a-vs-ehrhart", best_a.hstar, oracle_a.hstar))
        if res_b is not None:
            oracle_b = engine.solve(g, "b", "ehrhart", cls, bounds)
            checks.append(_agreement("b-vs-ehrhart", res_b.hstar, oracle_b.hstar))
        if cls.cactus:
            ok = spectral.verify_gamma_mu_bridge(g, res_formula.gamma, cls)
            checks.append(("mu-bridge", ok, f"samples 1..{g.n + 1}"))
        else:
            checks.append(("mu-bridge", None, "not a cactus"))
    return checks


def cmd_verify(args) -> int:
    bounds = _parse_bound_overrides(args.bound_override)
    g = _load_graph(args.path)
    checks = _verify_checks(g, args.level, bounds)
    if args.format == "structured":
        doc = {
            "input": args.path,
            "command": "verify",
            "level": args.level,
            "checks": [
                {"name": name,
                 "status": "skipped" if ok is None else ("pass" if ok else "FAIL"),
                 "detail": detail}
                for name, ok, detail in checks
            ],
        }
    else:  # check names are unique, so each is one key
        doc = {"input": args.path, "level": args.level}
        doc.update((name, f"skipped ({detail})" if ok is None
                    else "pass" if ok else f"FAIL ({detail})")
                   for name, ok, detail in checks)
    _print_report(doc, args.format)
    return EXIT_MISMATCH if any(ok is False for _, ok, _ in checks) else EXIT_OK


def cmd_batch(args) -> int:
    bounds = _parse_bound_overrides(args.bound_override)
    try:
        names = sorted(
            e.name for e in os.scandir(args.dir) if e.is_file()
        )
    except OSError as exc:
        raise GraphFormatError(f"cannot read directory {args.dir}: {exc}") from None
    rows = []
    failures = []
    cut_max = min(bound(bounds, "cut-sum"), BATCH_AGREEMENT_MAX_N)
    for name in names:
        path = os.path.join(args.dir, name)
        try:
            g = _load_graph(path)
            cls = classify(g)
            res = engine.solve(g, "ahat", "auto", cls, bounds)
            flags = [label for label, on in (
                ("connected", cls.connected),
                ("bipartite", cls.bipartite),
                ("forest", cls.forest),
                ("cactus", cls.cactus),
                ("uec", cls.unique_even_cycle_condition),
            ) if on]
            if res.method == "formula" and 0 < g.n <= cut_max:
                other = engine.solve(g, "ahat", "cuts", cls, bounds)
                agreement = "yes" if other.gamma == res.gamma else "no"
            else:
                agreement = "n/a"
            rows.append({
                "name": name,
                "n": g.n,
                "edges": g.edge_count,
                "class": "+".join(flags),
                "gamma": res.gamma.coeff_text(),
                "hstar": res.hstar.coeff_text(),
                "volume": res.volume,
                "real_rooted": _yn(check_properties(res.hstar).real_rooted),
                "agreement": agreement,
            })
        except SepGammaError as exc:
            failures.append((name, str(exc)))
    if args.out_format == "structured":
        print(json.dumps(rows, indent=2))
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=[
            "name", "n", "edges", "class", "gamma", "hstar", "volume",
            "real_rooted", "agreement"])
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    if failures:
        for name, msg in failures:
            print(f"FAILED {name}: {msg}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepgamma",
        description="gamma/h*-polynomials and normalized volumes of "
                    "symmetric edge polytopes, exactly.")
    # shared flags; each subcommand takes the ones it reads
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("pretty", "coeffs", "structured"),
                     default="coeffs", help="polynomial/report rendering")
    overrides = argparse.ArgumentParser(add_help=False)
    overrides.add_argument("--bound-override", action="append", metavar="NAME=VALUE",
                           help=f"override a resource guard ({', '.join(BOUNDS)})")
    common = [fmt, overrides]
    sub = parser.add_subparsers(dest="command", required=True)

    for name, polytope, text in (
            ("gamma-a", "ahat", "suspension polytope of the input graph"),
            ("gamma-b", "b", "type-B polytope of the input graph")):
        p = sub.add_parser(name, parents=common, help=text)
        p.add_argument("path")
        p.add_argument("--method", choices=tuple(engine.ROUTES[polytope]),
                       default="auto")
        p.set_defaults(func=cmd_solve, polytope=polytope)

    p = sub.add_parser("check", parents=common,
                       help="property report of h* and gamma")
    p.add_argument("path")
    p.add_argument("--polytope", choices=tuple(engine.ROUTES), default="a",
                   help="a = type A of the graph itself (oracle), "
                        "ahat = suspension, b = type B")
    p.add_argument("--method", choices=METHODS, default="auto")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("witness", parents=common,
                       help="flag-complex witness for the gamma-polynomial")
    p.add_argument("path")
    p.add_argument("--type", choices=("a", "b"), required=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("analyze", parents=[fmt], help="structural classification")
    p.add_argument("path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("batch", parents=[overrides],
                       help="one report row per graph file in a directory")
    p.add_argument("dir")
    p.add_argument("--out-format", choices=("csv", "structured"), default="csv")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("verify", parents=common,
                       help="cross-method agreement suite on one input")
    p.add_argument("path")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_verify)
    return parser


_PARSER = None


def main(argv=None) -> int:
    # built on the first call, not at import; parse_args keeps no state
    # between calls (each one fills a fresh namespace)
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return EXIT_OK if exc.code == 0 else EXIT_PARSE
    start = time.perf_counter()
    try:
        code = args.func(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except BoundExceededError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except RecursionError as exc:
        # the deepest recursion is the function with the most frames
        where = Counter(frame.f_code.co_name for frame, _
                        in traceback.walk_tb(exc.__traceback__)).most_common(1)[0][0]
        print(f"resource bound exceeded: recursion depth "
              f"{sys.getrecursionlimit()} exceeded in {where}", file=sys.stderr)
        return EXIT_BOUND
    except MemoryError as exc:
        # the innermost frame with a name of its own (not a comprehension)
        where = [frame.f_code.co_name for frame, _
                 in traceback.walk_tb(exc.__traceback__)
                 if not frame.f_code.co_name.startswith("<")][-1]
        print(f"resource bound exceeded: out of memory in {where}", file=sys.stderr)
        return EXIT_BOUND
    finally:
        elapsed = int((time.perf_counter() - start) * 1000)
        print(f"timing_ms: {elapsed}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
