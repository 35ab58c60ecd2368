import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sepgamma import (Graph, cli, complete_bipartite, complete_graph, graphs,
                      parse_graph, path_graph, polynomials, real_rootedness,
                      solve, star_graph, to_edge_list_text)
from sepgamma.cli import METHODS, main
from sepgamma.engine import ROUTES

from conftest import count_calls
from oracles import matched_vertex_sets


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_limited(argv, megabytes):
    """The CLI on argv in a child process under an address-space limit."""
    import resource

    limit = megabytes << 20
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "sepgamma.cli", *argv],
        capture_output=True, text=True, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


# the h* size guard on a graph declared with n = 10^12
FAR_HSTAR_GUARD = ("h* of degree 1000000000000 holds about "
                   "1000000000002000000000001 coefficient bits > 200000000\n")


@pytest.fixture
def c3_file(tmp_path):
    return write(tmp_path, "c3.txt", "1 2\n2 3\n3 1\n")


@pytest.fixture
def c4_file(tmp_path):
    return write(tmp_path, "c4.txt", "1 2\n2 3\n3 4\n4 1\n")


@pytest.fixture
def k4_file(tmp_path):
    return write(tmp_path, "k4.txt", "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")


def clique_chain(k, m):
    """m copies of K_k in a row, each sharing one vertex with the next."""
    edges = []
    for i in range(m):
        block = range(i * (k - 1) + 1, i * (k - 1) + k + 1)
        edges += [(u, v) for u in block for v in block if u < v]
    return Graph.make(m * (k - 1) + 1, edges)


def diamond_windmill(m):
    """m diamonds (K4 less an edge) sharing the vertex 1, 3 cycles each."""
    edges = []
    for i in range(m):
        a, b, c = 3 * i + 2, 3 * i + 3, 3 * i + 4
        edges += [(1, a), (1, b), (a, b), (a, c), (b, c)]
    return Graph.make(3 * m + 1, edges)


def clique_chain_gamma(k, m):
    """gamma of the suspension of clique_chain(k, m), folded here from
    gamma(K_j)_i = C(j, 2i) C(2i, i) by the cut-vertex identity
    gamma(G1 u G2) = gamma(G1) gamma(G2 - v) + gamma(G1 - v) gamma(G2)
    - gamma(G1 - v) gamma(G2 - v), G1 and G2 sharing only v."""
    def clique(j):
        return [math.comb(j, 2 * i) * math.comb(2 * i, i) for i in range(j // 2 + 1)]

    def times(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    def plus(p, q, sign=1):
        p, q = p + [0] * (len(q) - len(p)), q + [0] * (len(p) - len(q))
        return [a + sign * b for a, b in zip(p, q)]

    # the chain so far, and the chain without the vertex the next K_k takes
    whole, without = clique(k), clique(k - 1)
    for _ in range(m - 1):
        whole, without = (
            plus(times(whole, clique(k - 1)),
                 times(without, plus(clique(k), clique(k - 1), -1))),
            plus(times(whole, clique(k - 2)),
                 times(without, plus(clique(k - 1), clique(k - 2), -1))))
    return whole


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

    @pytest.mark.parametrize("text", ["n 12\n1_0 2\n", "+1 2\n", "\u0661 2\n"])
    def test_loose_label_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode())
        assert main(["analyze", str(path)]) == 1
        assert "non-integer label" in capsys.readouterr().err

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

    def test_one_chain_of_gamma_per_check(self, tmp_path, capsys, monkeypatch):
        # a 36-vertex cactus, cycles of 4, 6 and 8 vertices in a row: both
        # reports come from one Sturm chain, of degree deg gamma, and none
        # of h*'s degree is built
        edges, top = [], 1
        for length in (4, 6, 8, 4, 6, 8, 6):
            ring = [top] + list(range(top + 1, top + length))
            edges += zip(ring, ring[1:] + ring[:1])
            top = ring[-1]
        g = Graph.make(top, edges)
        res = solve(g, "ahat")
        assert (g.n, res.hstar.degree, res.gamma.degree) == (36, 36, 18)
        hstar_roots = real_rootedness(res.hstar)
        gamma_roots = real_rootedness(res.gamma)
        real = polynomials._sturm_chain
        degrees = []

        def gamma_only(cs):
            degrees.append(len(cs) - 1)
            assert len(cs) - 1 != res.hstar.degree
            return real(cs)

        monkeypatch.setattr(polynomials, "_sturm_chain", gamma_only)
        path = write(tmp_path, "cactus36.txt", to_edge_list_text(g))
        assert main(["check", path, "--polytope", "ahat",
                     "--format", "structured"]) == 0
        assert degrees == [res.gamma.degree]
        doc = json.loads(capsys.readouterr().out)
        for key, roots in (("hstar properties", hstar_roots),
                           ("gamma properties", gamma_roots)):
            assert doc[key]["real-rooted"] == ("yes" if roots.is_real_rooted else "NO")
            assert doc[key]["real-root-count"] == roots.distinct_real_roots
        assert hstar_roots.is_real_rooted

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
    def test_one_parser_serves_every_call(self, c4_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_PARSER", None)
        built = count_calls(monkeypatch, cli.build_parser)
        # each override would change the next call's exit code if its
        # appended list outlived the call that parsed it
        requests = [
            (["gamma-a"], 1),  # usage error: no path
            (["gamma-a", c4_file, "--method", "cuts", "--bound-override", "cut-sum=2"], 4),
            (["gamma-a", c4_file, "--method", "cuts", "--bound-override", "hrep-dim=1"], 0),
            (["gamma-a", c4_file, "--method", "cuts"], 0),
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
        for argv, code in requests:
            alone = subprocess.run([sys.executable, "-m", "sepgamma.cli", *argv],
                                   capture_output=True, text=True, env=env)
            assert main(argv) == alone.returncode == code
            assert capsys.readouterr().out == alone.stdout
        assert len(built) == 1

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

    @pytest.mark.parametrize("command,graph,gamma", [
        ("gamma-a", complete_graph(11),
         [math.comb(11, 2 * k) * math.comb(2 * k, k) for k in range(6)]),
        ("gamma-b", complete_bipartite(7, 7),
         [math.comb(7, j) ** 2 * 4 ** j for j in range(8)]),
    ])
    def test_dense_graphs_answer_on_auto(self, tmp_path, capsys, command,
                                         graph, gamma):
        # more than 10^6 simple cycles each: auto counts matchable pairs
        path = write(tmp_path, "g.txt", to_edge_list_text(graph))
        assert main([command, path]) == 0
        out = capsys.readouterr().out
        assert f"gamma: {gamma}\n" in out
        assert main(["analyze", path]) == 4
        assert "more than 1000000 simple cycles" in capsys.readouterr().err

    @pytest.mark.parametrize("k,m", [(7, 4), (6, 6)])
    def test_separable_graphs_answer_past_the_cut_sum_bound(self, tmp_path, capsys,
                                                          k, m):
        # n = 25 and n = 31: the pair count runs once per block of k vertices
        path = write(tmp_path, "g.txt", to_edge_list_text(clique_chain(k, m)))
        start = time.process_time()
        assert main(["gamma-a", path]) == 0
        assert time.process_time() - start < 1
        out = capsys.readouterr().out
        assert f"gamma: {clique_chain_gamma(k, m)}\n" in out
        assert "method: cut_sum\n" in out

    def test_type_b_answers_past_the_matched_set_bound(self, tmp_path, capsys):
        # four K3,3 in a row, each sharing one vertex with the next: n = 21
        g = Graph.make(21, [(5 * i + u, 5 * i + v) for i in range(4)
                            for u in (1, 2, 3) for v in (4, 5, 6)])
        path = write(tmp_path, "g.txt", to_edge_list_text(g))
        assert main(["gamma-b", path]) == 0
        gamma = [c * 4 ** k for k, c in enumerate(matched_vertex_sets(g))]
        assert f"gamma: {gamma}\n" in capsys.readouterr().out
        assert main(["gamma-b", path, "--bound-override", "matched-sets=5"]) == 4
        assert "pair count over a block of 6 > 5 vertices" in capsys.readouterr().err

    def test_pair_count_guards_bound_the_largest_block(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", to_edge_list_text(clique_chain(7, 4)))
        assert main(["gamma-a", path, "--bound-override", "cut-sum=6"]) == 4
        assert "pair count over a block of 7 > 6 vertices" in capsys.readouterr().err
        # --method cuts is the independent check: it stays whole, keyed on n
        assert main(["gamma-a", path, "--method", "cuts"]) == 4
        assert "cut sum over 25 > 20 vertices" in capsys.readouterr().err
        path = write(tmp_path, "k21.txt", to_edge_list_text(complete_graph(21)))
        assert main(["gamma-a", path]) == 4
        assert "pair count over a block of 21 > 20 vertices" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["gamma-a"], ["gamma-b"],
                                      ["check", "--polytope", "ahat"]])
    def test_huge_declared_vertex_count_exits_4(self, tmp_path, capsys, argv):
        # the h* of degree 3,000,000 would hold about 9 * 10^12 bits
        path = write(tmp_path, "g.txt", "n 3000000\n1 2\n")
        start = time.process_time()
        assert main(argv[:1] + [path] + argv[1:]) == 4
        assert time.process_time() - start < 1
        assert "h* of degree 3000000 holds about" in capsys.readouterr().err

    def test_hstar_size_boundary(self, tmp_path, capsys):
        # edgeless: gamma = 1 and h* = (1+x)^n, of (n + 1)^2 estimated bits;
        # 10,000 vertices answer, 14,142 exceed the 2 * 10^8 bound
        path = write(tmp_path, "g.txt", "n 10000\n")
        assert main(["gamma-a", path]) == 0
        out = capsys.readouterr().out
        assert "gamma: [1]\n" in out and f"volume: {2 ** 10000}\n" in out
        path = write(tmp_path, "h.txt", "n 14142\n")
        assert main(["gamma-a", path]) == 4
        assert "h* of degree 14142 holds about" in capsys.readouterr().err

    def test_hstar_guard_sized_before_the_tiling(self, tmp_path, capsys,
                                                 monkeypatch):
        # P10000 passes the n check, so the guard sizes gamma first: the
        # fold at x = 4 bounds sum |gamma_k| by 13,570 bits, over the limit
        def unreachable(*args, **kwargs):
            raise AssertionError("engine.tiling_poly called")

        monkeypatch.setattr("sepgamma.engine.tiling_poly", unreachable)
        path = write(tmp_path, "p.txt", to_edge_list_text(path_graph(10000)))
        start = time.process_time()
        assert main(["gamma-b", path]) == 4
        assert time.process_time() - start < 1
        assert ("resource bound exceeded: h* of degree 10000 holds about "
                "235723570 coefficient bits > 200000000\n") in capsys.readouterr().err

    def test_recursion_error_exits_4(self, c4_file, capsys, monkeypatch):
        def bottomless(g, cls, bounds):
            return bottomless(g, cls, bounds)

        monkeypatch.setitem(ROUTES["ahat"], "formula", bottomless)
        assert main(["gamma-a", c4_file, "--method", "formula"]) == 4
        err = capsys.readouterr().err
        assert "resource bound exceeded: recursion depth" in err
        assert "exceeded in bottomless" in err

    @pytest.mark.parametrize("argv,where", [
        (["analyze"], "classify"), (["verify"], "classify"),
        (["witness", "--type", "a"], "classify"), (["check"], "build_a")])
    def test_memory_error_exits_4(self, tmp_path, argv, where):
        # one edge to vertex 10^12.  `where` once held all n vertices and ran
        # out of memory; it now holds the two on the edge.  analyze still
        # runs out where it prints part 1 (10^12 - 1 labels), verify and
        # witness stop at once on the h* size guard, and check answers.  The
        # child runs under a 128 MB address-space limit; without it a list
        # of n labels would grow until the host ran out of memory.
        path = write(tmp_path, "far.txt", "1 1000000000000\n")
        done = run_limited(argv[:1] + [path] + argv[1:], 128)
        assert "Traceback" not in done.stderr
        assert f"out of memory in {where}" not in done.stderr
        if argv[0] == "check":
            assert done.returncode == 0
            assert "hstar: [1, 1]\n" in done.stdout and "dim: 1\n" in done.stdout
            return
        stop = ("out of memory in cmd_analyze\n" if argv[0] == "analyze"
                else FAR_HSTAR_GUARD)
        assert done.returncode == 4
        assert f"resource bound exceeded: {stop}" in done.stderr

    def test_structure_pass_follows_the_edges(self, tmp_path):
        # a triangle and 10^12 - 3 isolated vertices, and one edge to vertex
        # 10^12: the block pass, its bipartition and the type-A polytope
        # hold only the vertices on an edge.  Under the same 128 MB limit
        # analyze and check --polytope a answer, and verify and witness
        # stop at once on the h* size guard
        tri = write(tmp_path, "tri.txt", "n 1000000000000\n1 2\n2 3\n1 3\n")
        far_dir = tmp_path / "far"
        far_dir.mkdir()
        far = write(far_dir, "far.txt", "1 1000000000000\n")
        done = run_limited(["analyze", tri], 128)
        assert done.returncode == 0
        assert "n: 1000000000000\n" in done.stdout
        assert "simple-cycles:\n  [1, 2, 3]\n" in done.stdout
        for argv in (["verify", tri], ["witness", tri, "--type", "a"],
                     ["witness", far, "--type", "b"]):
            done = run_limited(argv, 128)
            assert done.returncode == 4, argv
            assert f"resource bound exceeded: {FAR_HSTAR_GUARD}" in done.stderr, argv
        done = run_limited(["check", tri, "--polytope", "a"], 128)
        assert done.returncode == 0
        assert "hstar: [1, 4, 1]\n" in done.stdout
        assert "dim: 2\n" in done.stdout
        done = run_limited(["batch", str(far_dir)], 128)
        assert done.returncode == 1
        assert f"FAILED far.txt: {FAR_HSTAR_GUARD}" in done.stderr

    def test_witness_refuses_before_the_complement(self, tmp_path):
        # P1200: the witness graph has 4796 vertices and about 11.5 million
        # edges, each a clique; refused before it is built
        path = write(tmp_path, "p.txt", to_edge_list_text(path_graph(1200)))
        done = run_limited(["witness", path, "--type", "b"], 256)
        assert done.returncode == 4
        assert "resource bound exceeded: more than 10000000 cliques\n" in done.stderr

    @pytest.mark.parametrize("n,message", [
        (1200, "more than 10000000 cliques"),
        (20000, "h* of degree 20000 holds about")])
    def test_witness_guards_apply_before_the_formula(self, tmp_path, capsys,
                                                     monkeypatch, n, message):
        # the h* size guard and the `cliques` count need only n and the
        # degrees, so neither request reaches the formula's DP
        def unreachable(*args, **kwargs):
            raise AssertionError("engine.solve called")

        monkeypatch.setattr("sepgamma.engine.solve", unreachable)
        path = write(tmp_path, "p.txt", to_edge_list_text(path_graph(n)))
        assert main(["witness", path, "--type", "b"]) == 4
        assert f"resource bound exceeded: {message}" in capsys.readouterr().err

    def test_witness_work_follows_the_witness_graph(self, tmp_path):
        # K1,600: the witness graph has 2400 vertices and no edge, where the
        # line graph blown up by K_4 has about 2.9 million edges
        path = write(tmp_path, "star.txt", to_edge_list_text(star_graph(600)))
        done = run_limited(["witness", path, "--type", "b"], 256)
        assert done.returncode == 0
        assert "target-gamma: [1, 2400]\n" in done.stdout
        assert "witness-vertices: 2400\nwitness-edges: 0\n" in done.stdout

    @pytest.mark.parametrize("argv,graph,dim", [
        pytest.param(["gamma-b", "--method", "ehrhart"], path_graph(3000), 3000,
                     id="b-of-p3000"),
        pytest.param(["check", "--polytope", "a"], complete_graph(300), 299,
                     id="a-of-k300")])
    def test_ehrhart_refuses_before_it_builds_a_point(self, tmp_path, argv, graph, dim):
        # type B of P3000 has 17,996 points in Z^3000 and type A of K300
        # 89,700 points in Z^299: the facet guards trip on d before either
        # set is built, under a limit that neither set fits in
        path = write(tmp_path, "g.txt", to_edge_list_text(graph))
        done = run_limited(argv[:1] + [path] + argv[1:], 128)
        assert done.returncode == 4
        assert ("resource bound exceeded: facet enumeration in dimension "
                f"{dim} > 7\n") in done.stderr

    @pytest.mark.parametrize("argv,graph,name,threshold,message", [
        pytest.param(["gamma-a", "--method", "cuts"], complete_graph(4), "cut-sum",
                     4, "cut sum over 4 > {} vertices", id="cut-sum-cuts"),
        pytest.param(["gamma-a"], complete_graph(4), "cut-sum",
                     4, "pair count over a block of 4 > {} vertices", id="cut-sum-pairs"),
        pytest.param(["gamma-b"], complete_bipartite(3, 3), "matched-sets",
                     6, "pair count over a block of 6 > {} vertices", id="matched-sets"),
        pytest.param(["check", "--polytope", "a"], path_graph(3), "hrep-dim",
                     2, "facet enumeration in dimension 2 > {}", id="hrep-dim"),
        pytest.param(["check", "--polytope", "a"], path_graph(3), "hrep-points",
                     4, "4 points > {}", id="hrep-points"),
        pytest.param(["check", "--polytope", "a"], path_graph(3), "box",
                     25, "bounding box of 2P exceeds {} points", id="box"),
        pytest.param(["witness", "--type", "a"], path_graph(3), "cliques",
                     5, "more than {} cliques", id="cliques"),
    ])
    def test_each_override_reaches_its_guard(self, tmp_path, capsys, argv, graph,
                                             name, threshold, message):
        # one below the threshold the guard trips with its own message; at
        # the threshold the request answers
        path = write(tmp_path, "g.txt", to_edge_list_text(graph))
        argv = argv[:1] + [path] + argv[1:] + ["--bound-override"]
        assert main(argv + [f"{name}={threshold - 1}"]) == 4
        assert f"resource bound exceeded: {message.format(threshold - 1)}\n" in \
            capsys.readouterr().err
        assert main(argv + [f"{name}={threshold}"]) == 0

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

    def test_one_cycle_listing_per_request(self, c4_file, k4_file, tmp_path,
                                           capsys, monkeypatch):
        # one classification per graph, and at most one cycle search: none
        # on a cactus, whose cycles are its blocks
        classified = count_calls(monkeypatch, graphs.classify)
        searches = count_calls(monkeypatch, graphs._cycle_search)
        # exit codes: K4 is not bipartite, so its type-B requests exit 2
        for path, searched, codes in ((c4_file, 0, (0, 0, 0, 0, 0, 0)),
                                      (k4_file, 1, (0, 2, 0, 2, 0, 0))):
            for argv, code in zip((["gamma-a", path], ["gamma-b", path],
                                   ["check", path, "--polytope", "ahat"],
                                   ["check", path, "--polytope", "b"],
                                   ["verify", path],
                                   ["verify", path, "--level", "full"]), codes):
                classified.clear()
                searches.clear()
                assert main(argv) == code, argv
                assert (len(classified), len(searches)) == (1, searched), argv
        d = tmp_path / "corpus"
        d.mkdir()
        for name, text in (("c3.txt", "1 2\n2 3\n3 1\n"),
                           ("c4.txt", "1 2\n2 3\n3 4\n4 1\n"),
                           ("k4.txt", "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")):
            (d / name).write_text(text)
        classified.clear()
        searches.clear()
        assert main(["batch", str(d)]) == 0
        assert (len(classified), len(searches)) == (3, 1)
        # analyze lists the cycles itself where classify stopped early
        for path, searched in ((c4_file, 0), (k4_file, 2)):
            classified.clear()
            searches.clear()
            assert main(["analyze", path]) == 0
            assert (len(classified), len(searches)) == (1, searched)
        assert "simple-cycle-count: 7\n" in capsys.readouterr().out


    def test_one_block_pass_per_request(self, tmp_path, monkeypatch):
        # the tiling folds the blocks of the request's own classification,
        # on a cactus (a 4-cycle with a pendant edge) and on a graph that
        # is none (a diamond with a pendant edge); so does the pair count,
        # on K4 and K3,3 with a pendant edge
        passes = count_calls(monkeypatch, graphs._blocks)
        cactus = write(tmp_path, "g.txt", "1 2\n2 3\n3 4\n4 1\n4 5\n")
        diamond = write(tmp_path, "d.txt", "1 2\n2 3\n3 4\n4 1\n1 3\n4 5\n")
        k4 = write(tmp_path, "k4.txt", "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n4 5\n")
        k33 = write(tmp_path, "k33.txt", "".join(
            f"{u} {v}\n" for u in (1, 2, 3) for v in (4, 5, 6)) + "6 7\n")
        for argv in (["gamma-a", cactus], ["gamma-b", cactus],
                     ["check", cactus, "--polytope", "ahat"],
                     ["verify", cactus, "--level", "full"],
                     ["gamma-a", diamond], ["check", diamond, "--polytope", "ahat"],
                     ["verify", diamond, "--level", "full"],
                     ["gamma-a", k4], ["check", k4, "--polytope", "ahat"],
                     ["gamma-b", k33]):
            passes.clear()
            assert main(argv) == 0, argv
            assert len(passes) == 1, argv

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
    def test_c4(self, c4_file, tmp_path, capsys):
        assert main(["analyze", c4_file]) == 0
        out = capsys.readouterr().out
        assert "bipartite: yes" in out
        assert "part1:\n  1\n  3\npart2:\n  2\n  4\n" in out
        assert "cactus: yes" in out
        assert "simple-cycle-count: 1" in out
        # classify leaves isolated vertices out; analyze prints them in part 1
        padded = write(tmp_path, "c4-padded.txt", "n 6\n1 2\n2 3\n3 4\n4 1\n")
        assert main(["analyze", padded]) == 0
        assert "part1:\n  1\n  3\n  5\n  6\npart2:\n  2\n  4\n" \
            in capsys.readouterr().out

    @pytest.mark.parametrize("graph, count", [
        # ten K4s in a row, 7 cycles each: one search over the whole graph
        # walks on through every cut vertex (32 s of CPU)
        (clique_chain(4, 10), 70),
        # 3,000 diamonds meet at vertex 1: rescanning its 6,000 neighbours
        # to build each block's adjacency costs 1.3 s of CPU, against
        # 0.2 s from each block's own edges
        (diamond_windmill(3000), 9000),
    ], ids=["k4-chain", "diamond-windmill"])
    def test_cycles_listed_one_block_at_a_time(self, tmp_path, capsys, graph,
                                               count):
        path = write(tmp_path, "g.txt", to_edge_list_text(graph))
        start = time.process_time()
        assert main(["analyze", path]) == 0
        assert time.process_time() - start < 1
        assert f"simple-cycle-count: {count}\n" in capsys.readouterr().out


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

    def test_interior_skip_reads_the_largest_block(self, tmp_path, capsys):
        # two 4-cycles sharing a vertex: 7 vertices, blocks of 4
        path = write(tmp_path, "g.txt", "1 2\n2 3\n3 4\n4 1\n4 5\n5 6\n6 7\n7 4\n")
        for bound, line in (("4", "b-formula-vs-interior: pass"),
                            ("3", "b-formula-vs-interior: skipped (matched-set bound 3)")):
            assert main(["verify", path, "--bound-override", f"matched-sets={bound}"]) == 0
            assert line in capsys.readouterr().out

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

        def broken(g, bounds=None):
            res = real(g, bounds)
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

    def test_huge_declared_vertex_count_fails_fast(self, tmp_path, capsys):
        # the h* size is checked before classify, as solve would raise it
        d = tmp_path / "huge"
        d.mkdir()
        (d / "g.txt").write_text("n 3000000\n1 2\n")
        start = time.process_time()
        assert main(["batch", str(d)]) == 1
        assert time.process_time() - start < 1
        captured = capsys.readouterr()
        assert captured.out == \
            "name,n,edges,class,gamma,hstar,volume,real_rooted,agreement\r\n"
        assert captured.err.startswith(
            "FAILED g.txt: h* of degree 3000000 holds about")

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
