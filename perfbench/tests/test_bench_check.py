"""The output checker and the run's bookkeeping."""

import contextlib
import io

import pytest

import sepgamma.cli
from perfbench import corpus, expect, run, speed


def _request(name, n, edges, family, command, flags=(), param=0, defect=None):
    g = corpus.GraphSpec(name, n, frozenset(edges), family, param or n)
    return corpus.Request(f"{name}/{command}", g, command, flags, defect)


def _answer(req, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(corpus.edge_list_text(req.graph.n, req.graph.edges))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = sepgamma.cli.main(req.argv(str(path)))
    return code, out.getvalue()


@pytest.mark.parametrize("command,flags", [
    ("gamma-a", ()),
    ("gamma-a", ("--method", "cuts")),
    ("check", ("--polytope", "ahat")),
    ("verify", ("--level", "full")),
])
def test_correct_answers_pass(command, flags, tmp_path):
    req = _request("C5", 5, corpus.cycle(5), "wheel-rim", command, flags)
    exp = expect.expected_for(req)
    code, out = _answer(req, tmp_path)
    assert expect.check_answer(req, exp, code, out) == []
    digest = expect.stdout_digest(out)
    assert expect.check_answer(req, expect.expected_for(req, digest), code, out) == []


def test_type_b_and_polytope_a_answers_pass(tmp_path):
    kk = _request("K3,3", 6, corpus.complete_bipartite(3), "complete-bipartite",
                  "gamma-b", param=3)
    assert expect.expected_for(kk).gamma == (1, 36, 144, 64)
    code, out = _answer(kk, tmp_path)
    assert expect.check_answer(kk, expect.expected_for(kk), code, out) == []
    two_edges = _request("2K2", 4, {(1, 2), (3, 4)}, "atlas", "check", ("--polytope", "a"))
    assert expect.expected_for(two_edges).dim == 2
    code, out = _answer(two_edges, tmp_path)
    assert expect.check_answer(two_edges, expect.expected_for(two_edges), code, out) == []


def test_wrong_answers_are_caught(tmp_path):
    req = _request("C5", 5, corpus.cycle(5), "wheel-rim", "gamma-a")
    exp = expect.expected_for(req)
    code, out = _answer(req, tmp_path)
    assert expect.check_answer(req, exp, 4, out) == ["exit code 4"]
    bad_gamma = out.replace("gamma: [1, 10, 20]", "gamma: [1, 10, 21]")
    assert any("gamma" in p for p in expect.check_answer(req, exp, code, bad_gamma))
    bad_volume = out.replace("volume: 152", "volume: 150")
    assert len(expect.check_answer(req, exp, code, bad_volume)) >= 2
    bad_hstar = out.replace("hstar: [1, 15, 60, 60, 15, 1]", "hstar: [1, 15, 60, 60, 16, 0]")
    assert any("palindromic" in p for p in expect.check_answer(req, exp, code, bad_hstar))
    stale = expect.expected_for(req, digest="0" * 16)
    assert expect.check_answer(req, stale, code, out) == [
        "stdout digest differs from the recorded one"]
    verify = _request("C5", 5, corpus.cycle(5), "wheel-rim", "verify")
    assert expect.check_answer(verify, expect.expected_for(verify), 0,
                               "a-vs-ehrhart: FAIL (x)\n") != []


def test_known_defect_counts_as_expected_failure_only_when_it_fails_as_known():
    req = corpus.workload("dense-cuts", 1)[2]
    assert req.name == "K11/gamma-a" and req.known_defect
    err = "resource bound exceeded: more than 1000000 simple cycles\n"
    known = run.Outcome(req, 4, "", err, 1.0, ["exit code 4"])
    assert known.failed and known.expected_failure
    other = run.Outcome(req, 1, "", "error: x\n", 1.0, ["exit code 1"])
    assert other.failed and not other.expected_failure
    fixed = run.Outcome(req, 0, "ok", "", 1.0, [])
    assert not fixed.failed


def test_latency_quantiles_keep_ten_samples_beyond_the_tail():
    p50, tail, pct = run.latency_quantiles(list(range(100)))
    assert p50 == pytest.approx(49) and tail == pytest.approx(89)
    assert run.latency_quantiles(list(range(90)) + [1000] * 10)[0] == pytest.approx(49)
    assert pct == pytest.approx(100 * 89 / 99)
    _, tail, pct = run.latency_quantiles([float(x) for x in range(21)])
    assert tail == pytest.approx(10) and pct == pytest.approx(50)
    p50, _, _ = run.latency_quantiles([1.0] * 50 + [9.0] * 50)
    assert 1.0 < p50 < 9.0
    _, tail, pct = run.latency_quantiles([float(x) for x in range(1401)])
    assert tail == pytest.approx(1390) and pct == pytest.approx(100 * 1390 / 1400)
    _, tail, pct = run.latency_quantiles([float(x) for x in range(11)])
    assert tail == pytest.approx(9) and pct == pytest.approx(90)
    _, tail, pct = run.latency_quantiles([float(x) for x in range(12)])
    assert tail == pytest.approx(10) and pct == pytest.approx(100 * 10 / 11)
    assert run.windowed([1, 2, 30, 40, 50], 2, 1) == pytest.approx(24)
    assert run.windowed([1, 2, 3], 0, 1) == pytest.approx(1.5)


def test_a_request_latency_is_its_mean_scaled_time_over_the_passes():
    a, b = corpus.workload("dense-cuts", 1)[:2]
    passes = [[run.Outcome(a, 0, "", "", 3.0, []), run.Outcome(b, 0, "", "", 1.0, [])],
              [run.Outcome(b, 0, "", "", 2.0, []), run.Outcome(a, 0, "", "", 2.0, [])],
              [run.Outcome(a, 0, "", "", 4.0, []), run.Outcome(b, 0, "", "", 3.0, [])]]
    assert sorted(run.request_latencies(passes, 0.5)) == [1.0, 1.5]
    gauge = speed.Gauge()
    gauge.probes = [speed.REFERENCE_SECONDS / 2, speed.REFERENCE_SECONDS * 3 / 2]
    assert gauge.scale() == pytest.approx(1.0)
    gauge.probes = [2 * speed.REFERENCE_SECONDS]
    metrics, _ = run.end_to_end(passes, 0.5, gauge)
    assert metrics["requests_per_s"][0] == pytest.approx(6 / (0.5 * 15))
    assert metrics["setup_s"] == (0.25, "s")
    assert metrics["latency_p50_ms"][0] == pytest.approx(1000 * (1.0 + 1.5) / 2)
    assert metrics["latency_tail_ms"][0] == pytest.approx(1000 * (1.0 + 1.5) / 2)


def test_the_gauge_probes_once_per_quarter_second_of_request_time():
    gauge = speed.Gauge()
    seen = []
    for seconds in [0.1, 0.1, 0.1, 1.0, 0.1]:
        gauge.before_request()
        seen.append(len(gauge.probes))
        gauge.after_request(seconds)
    assert seen == [1, 1, 1, 2, 6]
    assert all(p > 0 for p in gauge.probes)
