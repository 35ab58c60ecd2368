"""The traced run: every original binding is replaced, then restored, and
self time and work counters add up."""

import contextlib
import io
import sys

import pytest

import sepgamma
import sepgamma.cli  # noqa: F401  (loads every traced module)
from perfbench import tracer


def _package_bindings():
    return [(m.__name__, attr, value) for m in tracer.package_modules()
            for attr, value in vars(m).items()]


@pytest.fixture
def installed():
    trace = tracer.Tracer()
    trace.install()
    try:
        yield trace
    finally:
        trace.uninstall()


def test_no_original_binding_is_left_behind(installed):
    originals = {id(fn) for fn in installed.originals().values()}
    assert [(mod, attr) for mod, attr, value in _package_bindings()
            if id(value) in originals] == []


def test_shared_names_are_rebound_in_every_namespace(installed):
    wrapped_classify = sys.modules["sepgamma.graphs"].classify
    assert wrapped_classify is not installed.originals()["graphs.classify"]
    for short in ("graphs", "engine", "matching", "cli", "spectral", "witness"):
        assert sys.modules[f"sepgamma.{short}"].classify is wrapped_classify
    interior = sys.modules["sepgamma.interior"]
    assert interior.cuts is sys.modules["sepgamma.graphs"].cuts
    assert interior.cuts is not installed.originals()["graphs.cuts"]
    assert interior.matched_vertex_sets is not installed.originals()[
        "matching.matched_vertex_sets"]
    assert sepgamma.classify is wrapped_classify


def test_uninstall_restores_every_binding():
    before = _package_bindings()
    trace = tracer.Tracer()
    trace.install()
    assert _package_bindings() != before
    trace.uninstall()
    assert _package_bindings() == before


def test_every_traced_module_has_wrapped_functions(installed):
    modules = {key.split(".")[0] for key in installed.originals()}
    assert modules == set(tracer.TRACED_MODULES)
    assert "witness" not in modules


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["sepgamma.cli"].main(argv)
    return code, out.getvalue()


def test_self_times_and_counters(installed, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    installed.tag = "gamma-a"
    code, out = _run_cli(["gamma-a", str(path), "--method", "cuts"])
    assert code == 0 and "method: cut_sum" in out
    stats = installed.stats
    main = stats["cli.main"]
    assert main.calls == 1
    total_self = sum(s.self_s for s in stats.values())
    assert total_self == pytest.approx(main.total_s, rel=1e-6, abs=1e-9)
    assert stats["graphs.cuts"].work["cuts"] == 8
    assert stats["matching.matched_vertex_sets"].calls == 8
    assert stats["interior.cut_sum_gamma"].calls == 1
    assert stats["graphs.simple_cycles"].calls == 0
    assert stats["graphs.parse_graph"].calls_by_tag["gamma-a"] == 1


def test_errors_and_cycles_are_counted(installed, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    code, _ = _run_cli(["gamma-a", str(path)])
    assert code == 0
    cycles = installed.stats["graphs.simple_cycles"]
    assert cycles.calls >= 1 and cycles.errors == 0
    assert cycles.work["cycles"] == 7 * cycles.calls
    graphs = sys.modules["sepgamma.graphs"]
    with pytest.raises(sys.modules["sepgamma.errors"].BoundExceededError):
        graphs.simple_cycles(graphs.complete_graph(4), max_cycles=3)
    assert cycles.errors == 1 and cycles.work["cycles"] == 7 * (cycles.calls - 1)


def test_ehrhart_counters(installed, tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("n 3\n1 2\n2 3\n")
    code, _ = _run_cli(["check", str(path), "--polytope", "a"])
    assert code == 0
    hrep = installed.stats["ehrhart.h_representation"].work
    count = installed.stats["ehrhart.count_points"].work
    assert hrep["facets"] == 4 and hrep["subsets"] >= hrep["facets"]
    assert 0 < count["points"] <= count["box_points"]
