import json
import math

import pytest

from sepgamma import (Graph, complete_bipartite, complete_graph, graphs,
                      parse_graph, to_edge_list_text)
from sepgamma.cli import METHODS, main
from sepgamma.engine import ROUTES


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def c3_file(tmp_path):
    return write(tmp_path, "c3.txt", "1 2\n2 3\n3 1\n")


@pytest.fixture
def c4_file(tmp_path):
    return write(tmp_path, "c4.txt", "1 2\n2 3\n3 4\n4 1\n")


@pytest.fixture
def k4_file(tmp_path):
    return write(tmp_path, "k4.txt", "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")


class TestGammaA:
    def test_c3_auto(self, c3_file, capsys):
        assert main(["gamma-a", c3_file]) == 0
        out = capsys.readouterr().out
        assert "gamma: [1, 6]" in out
        assert "hstar: [1, 9, 9, 1]" in out
        assert "volume: 20" in out
        assert "method: formula" in out

    def test_k4_formula_precondition(self, k4_file, capsys):
        assert main(["gamma-a", k4_file, "--method", "formula"]) == 2

    def test_k4_cuts_succeeds(self, k4_file, capsys):
        assert main(["gamma-a", k4_file, "--method", "cuts"]) == 0
        out = capsys.readouterr().out
        assert "method: cut_sum" in out
        assert "volume: 70" in out

    def test_ehrhart_method(self, c3_file, capsys):
        assert main(["gamma-a", c3_file, "--method", "ehrhart"]) == 0
        out = capsys.readouterr().out
        assert "volume: 20" in out and "method: ehrhart" in out

    def test_structured_format(self, c3_file, capsys):
        assert main(["gamma-a", c3_file, "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma"] == [1, 6] and doc["volume"] == 20

    def test_deterministic_stdout(self, c4_file, capsys):
        assert main(["gamma-a", c4_file]) == 0
        first = capsys.readouterr().out
        assert main(["gamma-a", c4_file]) == 0
        assert capsys.readouterr().out == first

    def test_parse_failure_exit_1(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.txt", "1 1\n")
        assert main(["gamma-a", bad]) == 1
        assert main(["gamma-a", str(tmp_path / "missing.txt")]) == 1

    @pytest.mark.parametrize("data", [
        pytest.param("n \u00b2\n1 2\n".encode(), id="superscript-digit-header"),
        pytest.param(b"1 2\n\xff\xfe\n", id="not-utf-8"),
    ])
    def test_unreadable_input_exit_1(self, tmp_path, capsys, data):
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        assert main(["gamma-a", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bound_exceeded_exit_4(self, c4_file, capsys):
        assert main(["gamma-a", c4_file, "--method", "cuts",
                     "--bound-override", "cut-sum=2"]) == 4

    def test_bad_bound_override(self, c4_file, capsys):
        assert main(["gamma-a", c4_file, "--bound-override", "nope=3"]) == 1
        assert main(["gamma-a", c4_file, "--bound-override", "cut-sum=x"]) == 1
        capsys.readouterr()
        assert main(["gamma-a", c4_file, "--bound-override", "trees=1"]) == 1
        assert "unknown bound 'trees'" in capsys.readouterr().err


class TestGammaB:
    def test_c4(self, c4_file, capsys):
        assert main(["gamma-b", c4_file]) == 0
        out = capsys.readouterr().out
        assert "gamma: [1, 16, 16]" in out and "volume: 96" in out

    def test_non_bipartite_auto_exit_2(self, c3_file):
        assert main(["gamma-b", c3_file]) == 2

    def test_non_bipartite_ehrhart_ok(self, c3_file, capsys):
        assert main(["gamma-b", c3_file, "--method", "ehrhart"]) == 0
        out = capsys.readouterr().out
        assert "gamma: n/a" in out


class TestCheck:
    def test_c5_direct_a_polytope(self, tmp_path, capsys):
        c5 = write(tmp_path, "c5.txt", "1 2\n2 3\n3 4\n4 5\n5 1\n")
        assert main(["check", c5]) == 0
        out = capsys.readouterr().out
        assert "gamma: [1, 2, 6]" in out
        assert "palindromic: yes" in out
        assert "gamma-positive: yes" in out
        assert "real-rooted: NO" in out

    def test_suspension_polytope(self, c3_file, capsys):
        assert main(["check", c3_file, "--polytope", "ahat"]) == 0
        out = capsys.readouterr().out
        assert "real-rooted: yes" in out

    def test_b_polytope(self, c4_file, capsys):
        assert main(["check", c4_file, "--polytope", "b"]) == 0
        assert "volume: 96" in capsys.readouterr().out

    @pytest.mark.parametrize("command,graph,bound", [
        ("gamma-a", complete_graph(6), "cut-sum=3"),
        ("gamma-b", complete_bipartite(3, 3), "matched-sets=3"),
    ])
    def test_bound_overrides_reach_check(self, tmp_path, capsys,
                                         command, graph, bound):
        path = write(tmp_path, "g.txt", to_edge_list_text(graph))
        polytope = "ahat" if command == "gamma-a" else "b"
        for argv in ([command, path], ["check", path, "--polytope", polytope]):
            assert main(argv + ["--bound-override", bound]) == 4
            assert "resource bound exceeded" in capsys.readouterr().err


# check takes every method of ROUTES on every polytope, applicable or not
METHOD_COMBINATIONS = (
    [("gamma-a", None, m) for m in ROUTES["ahat"]]
    + [("gamma-b", None, m) for m in ROUTES["b"]]
    + [("check", p, m) for p in ROUTES for m in METHODS])
RESULT_KEYS = ("method", "gamma", "hstar", "volume", "dim")


class TestContract:
    @pytest.mark.parametrize("command,polytope,method", METHOD_COMBINATIONS)
    def test_every_method_ends_with_a_contract_code(self, c4_file, capsys,
                                                    command, polytope, method):
        argv = [command, c4_file, "--method", method]
        if polytope is not None:
            argv += ["--polytope", polytope]
        assert main(argv) in range(5)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command,polytope", [("gamma-a", "ahat"),
                                                  ("gamma-b", "b")])
    def test_check_reports_the_same_result_on_every_route(
            self, c4_file, capsys, command, polytope):
        for method in ROUTES[polytope]:
            reports = []
            for argv in ([command, c4_file],
                         ["check", c4_file, "--polytope", polytope]):
                assert main(argv + ["--method", method]) == 0
                reports.append([line for line in capsys.readouterr().out.splitlines()
                                if line.split(":")[0] in RESULT_KEYS])
            assert len(reports[0]) == len(RESULT_KEYS), method
            assert reports[0] == reports[1], method

    def test_long_path_answers(self, tmp_path, capsys):
        # P1200: neither the cycle search nor the tiling DP nests a frame per
        # vertex; m_k(P_n) = C(n-k, k), so gamma_k = 2^k C(1200-k, k)
        path = write(tmp_path, "p1200.txt",
                     "".join(f"{i} {i + 1}\n" for i in range(1, 1200)))
        assert main(["gamma-a", path]) == 0
        gamma = [2 ** k * math.comb(1200 - k, k) for k in range(601)]
        assert f"gamma: {gamma}\n" in capsys.readouterr().out

    def test_recursion_error_exits_4(self, c4_file, capsys, monkeypatch):
        def bottomless(g, cls, bounds):
            return bottomless(g, cls, bounds)

        monkeypatch.setitem(ROUTES["ahat"], "formula", bottomless)
        assert main(["gamma-a", c4_file, "--method", "formula"]) == 4
        err = capsys.readouterr().err
        assert "resource bound exceeded: recursion depth" in err
        assert "exceeded in bottomless" in err

    @pytest.mark.parametrize("command,text,gamma", [
        pytest.param("gamma-a", "n 1200\n1 2\n", "[1, 2]",
                     id="gamma-a-k2-plus-isolated"),
        pytest.param("gamma-b", "n 1200\n1 2\n", "[1, 4]",
                     id="gamma-b-k2-plus-isolated"),
        pytest.param("gamma-a", "".join(f"1 {i}\n" for i in range(2, 1201)),
                     "[1, 2398]", id="gamma-a-star"),
        pytest.param("gamma-b", "".join(f"1 {i}\n" for i in range(2, 1201)),
                     "[1, 4796]", id="gamma-b-star"),
    ])
    def test_many_isolated_vertices_in_matchings(self, tmp_path, capsys, command,
                                                 text, gamma):
        # K2 plus 1,198 isolated vertices, and the star K1,1199: the matching
        # recursion drops vertices with no neighbour instead of recursing
        path = write(tmp_path, "sparse.txt", text)
        assert main([command, path]) == 0
        out = capsys.readouterr().out
        assert f"gamma: {gamma}\n" in out and "dim: 1200\n" in out

    def test_one_cycle_listing_per_request(self, c4_file, tmp_path, capsys,
                                           monkeypatch):
        calls = []
        real = graphs.simple_cycles

        def counted(g, *args, **kwargs):
            calls.append(g)
            return real(g, *args, **kwargs)

        monkeypatch.setattr(graphs, "simple_cycles", counted)
        for argv in (["gamma-a", c4_file], ["gamma-b", c4_file],
                     ["check", c4_file, "--polytope", "ahat"],
                     ["check", c4_file, "--polytope", "b"],
                     ["verify", c4_file], ["verify", c4_file, "--level", "full"],
                     ["analyze", c4_file]):
            calls.clear()
            assert main(argv) == 0
            assert len(calls) == 1, argv
        d = tmp_path / "corpus"
        d.mkdir()
        for name, text in (("c3.txt", "1 2\n2 3\n3 1\n"),
                           ("c4.txt", "1 2\n2 3\n3 4\n4 1\n"),
                           ("k4.txt", "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")):
            (d / name).write_text(text)
        calls.clear()
        assert main(["batch", str(d)]) == 0
        assert len(calls) == 3


    @pytest.mark.parametrize("argv", [
        pytest.param(["batch", ".", "--format", "coeffs"], id="batch-format"),
        pytest.param(["analyze", "g.txt", "--bound-override", "cut-sum=3"],
                     id="analyze-bound-override"),
    ])
    def test_flags_a_subcommand_does_not_read_are_usage_errors(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "unrecognized arguments" in err

    def test_missing_argument_is_a_usage_error(self, capsys):
        assert main(["gamma-a"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "required: path" in err

    def test_help_exits_0(self, capsys):
        assert main(["gamma-a", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ")


class TestWitness:
    def test_type_a_export_parses_back(self, c3_file, capsys):
        assert main(["witness", c3_file, "--type", "a"]) == 0
        out = capsys.readouterr().out
        assert "f-poly: [1, 6]" in out and "verdict: ok" in out
        edge_text = out.split("witness-edge-list:\n", 1)[1]
        assert parse_graph(edge_text) == Graph(6, frozenset())

    def test_type_b_forest_only(self, c4_file):
        assert main(["witness", c4_file, "--type", "b"]) == 2


class TestAnalyze:
    def test_c4(self, c4_file, capsys):
        assert main(["analyze", c4_file]) == 0
        out = capsys.readouterr().out
        assert "bipartite: yes" in out
        assert "cactus: yes" in out
        assert "simple-cycle-count: 1" in out


class TestVerify:
    def test_quick_pass(self, c4_file, capsys):
        assert main(["verify", c4_file]) == 0
        out = capsys.readouterr().out
        assert "a-formula-vs-cuts: pass" in out

    def test_full_pass(self, c4_file, capsys):
        assert main(["verify", c4_file, "--level", "full"]) == 0
        out = capsys.readouterr().out
        for name in ("a-vs-ehrhart", "b-vs-ehrhart", "mu-bridge"):
            assert f"{name}: pass" in out

    def test_skips_reported(self, k4_file, capsys):
        assert main(["verify", k4_file]) == 0
        out = capsys.readouterr().out
        assert "a-formula-vs-cuts: skipped (even-cycle condition fails)" in out

    def test_guarded_routes_skip_alike(self, c4_file, capsys):
        assert main(["verify", c4_file, "--bound-override", "cut-sum=3"]) == 0
        assert "a-formula-vs-cuts: skipped (cut sum bound 3)" in \
            capsys.readouterr().out
        assert main(["verify", c4_file, "--bound-override", "matched-sets=3"]) == 0
        out = capsys.readouterr().out
        assert "a-formula-vs-cuts: pass" in out
        assert "b-formula-vs-interior: skipped (matched-set bound 3)" in out

    def test_empty_graph(self, tmp_path, capsys):
        empty = write(tmp_path, "empty.txt", "")
        assert main(["gamma-a", empty]) == 0
        capsys.readouterr()
        assert main(["verify", empty]) == 0
        out = capsys.readouterr().out
        assert "a-formula-vs-cuts: skipped (no vertices)" in out
        assert "b-formula-vs-interior: pass" in out
        # the oracle sees the point {0}: h* = 1, as the formula says
        assert main(["verify", empty, "--level", "full"]) == 0
        out = capsys.readouterr().out
        for name in ("a-vs-ehrhart", "b-vs-ehrhart", "mu-bridge"):
            assert f"{name}: pass" in out
        for command in ("gamma-a", "gamma-b"):
            assert main([command, empty, "--method", "ehrhart"]) == 0
            out = capsys.readouterr().out
            assert "gamma: [1]\nhstar: [1]\nvolume: 1\ndim: 0\n" in out

    def test_mismatch_exit_3(self, c4_file, capsys, monkeypatch):
        from sepgamma import engine
        from sepgamma.polynomials import Poly

        real = engine.gamma_a_cut_sum

        def broken(g, max_n=20):
            res = real(g, max_n=max_n)
            return engine.SepResult(res.gamma + Poly([1]), res.hstar,
                                    res.volume, res.dim, res.method)

        monkeypatch.setattr(engine, "gamma_a_cut_sum", broken)
        assert main(["verify", c4_file]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_structured(self, c4_file, capsys):
        assert main(["verify", c4_file, "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(c["status"] in ("pass", "skipped") for c in doc["checks"])


class TestBatch:
    def test_cycle_corpus(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "c3.txt").write_text("1 2\n2 3\n3 1\n")
        (d / "c4.txt").write_text("1 2\n2 3\n3 4\n4 1\n")
        (d / "c5.txt").write_text("1 2\n2 3\n3 4\n4 5\n5 1\n")
        assert main(["batch", str(d)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "name,n,edges,class,gamma,hstar,volume,real_rooted,agreement"
        assert len(lines) == 4
        volumes = [line.split(",")[-3] for line in lines[1:]]
        assert volumes == ["20", "54", "152"]
        assert all(line.split(",")[-1] == "yes" for line in lines[1:])

    def test_empty_graph_row(self, tmp_path, capsys):
        d = tmp_path / "zero"
        d.mkdir()
        (d / "empty.txt").write_text("")
        assert main(["batch", str(d)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row.startswith("empty.txt,0,0,") and row.endswith(",1,yes,n/a")

    def test_empty_dir(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["batch", str(d)]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "name,n,edges,class,gamma,hstar,volume,real_rooted,agreement"

    def test_partial_failure(self, tmp_path, capsys):
        d = tmp_path / "mixed"
        d.mkdir()
        (d / "a_bad.txt").write_text("1 1\n")
        (d / "c3.txt").write_text("1 2\n2 3\n3 1\n")
        assert main(["batch", str(d)]) == 1
        captured = capsys.readouterr()
        assert "c3.txt" in captured.out
        assert "a_bad.txt" in captured.err

    def test_structured(self, tmp_path, capsys):
        d = tmp_path / "one"
        d.mkdir()
        (d / "c3.txt").write_text("1 2\n2 3\n3 1\n")
        assert main(["batch", str(d), "--out-format", "structured"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["volume"] == 20 and rows[0]["real_rooted"] == "yes"


class TestJson:
    def test_json_graph_input(self, tmp_path, capsys):
        p = write(tmp_path, "g.json", '{"n": 3, "edges": [[1,2],[2,3],[3,1]]}')
        assert main(["gamma-a", p]) == 0
        assert "volume: 20" in capsys.readouterr().out
        for name, text in (("bool.json", '{"edges": [[true, 2], [2, 3]]}'),
                           ("number.json", '{"edges": 5}'),
                           ("null.json", '{"edges": null}')):
            assert main(["analyze", write(tmp_path, name, text)]) == 1
