"""Expected answers and the output checker.

The expected answers never come from sepgamma.  They are closed forms
(the suspension of K_n, type B of K_{k,k}, the wheel-volume recurrence)
and two brute-force counts that follow from the definitions:

* gamma_k of the suspension of G is the number of ordered pairs (A, B) of
  disjoint k-sets such that the edges of G between A and B hold a perfect
  matching (the cut-sum formula with its two sums swapped);
* for bipartite G, type-B gamma is sum_k |M(G,k)| (4x)^k, where |M(G,k)|
  counts the 2k-sets that carry a perfect matching of G.

Both counts grow one matched edge at a time over deduplicated bitmasks.
They are run only where they are cheap (n <= 14).  Every answer is also
held to the invariants (h* palindromic of degree dim, h*(1) = volume =
2^dim gamma(1/4)) and to the stdout digest recorded with the default seed
at the commit that introduced the benchmark (see record_digests.py).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

from .corpus import Request, components, two_coloring

PAIR_ORACLE_MAX_N = 14


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def complete_suspension_gamma(n: int) -> list:
    """gamma of the suspension of K_n (that is, of K_(n+1)):
    gamma_k = C(n, 2k) C(2k, k)."""
    return [math.comb(n, 2 * k) * math.comb(2 * k, k) for k in range(n // 2 + 1)]


def complete_bipartite_type_b_gamma(k: int) -> list:
    """Type-B gamma of K_{k,k}: sum_j C(k, j)^2 (4x)^j."""
    return [math.comb(k, j) ** 2 * 4 ** j for j in range(k + 1)]


def wheel_volume(n: int) -> int:
    """Normalized volume of the suspension of C_n: a_k = 2a_(k-1) + 2a_(k-2),
    a_0 = a_1 = 2, minus 2 when n is even."""
    prev, cur = 2, 2
    for _ in range(n - 1):
        prev, cur = cur, 2 * cur + 2 * prev
    return cur - 2 if n % 2 == 0 else cur


# ---------------------------------------------------------------------------
# Brute-force counts
# ---------------------------------------------------------------------------

def _edge_bits(edges) -> list:
    return [(1 << (u - 1), 1 << (v - 1)) for u, v in sorted(edges)]


def suspension_gamma_by_pairs(n: int, edges) -> list:
    """gamma of the suspension of G as counts of perfectly matchable ordered
    pairs (A, B).  A pair is stored as A | B << n."""
    bits = _edge_bits(edges)
    full = (1 << n) - 1
    layer = {0}
    out = [1]
    while True:
        nxt = set()
        for key in layer:
            a, b = key & full, key >> n
            used = a | b
            for bu, bv in bits:
                if (bu | bv) & used:
                    continue
                nxt.add((a | bu) | (b | bv) << n)
                nxt.add((a | bv) | (b | bu) << n)
        if not nxt:
            return out
        out.append(len(nxt))
        layer = nxt


def matched_set_counts(n: int, edges) -> list:
    """|M(G,k)|: the number of 2k-sets of vertices that hold a perfect
    matching of G, for k = 0, 1, ..."""
    masks = [bu | bv for bu, bv in _edge_bits(edges)]
    layer = {0}
    out = [1]
    while True:
        nxt = {used | m for used in layer for m in masks if not used & m}
        if not nxt:
            return out
        out.append(len(nxt))
        layer = nxt


def hstar_from_gamma(gamma: list, d: int) -> list:
    """h*(x) = sum_i gamma_i x^i (1 + x)^(d - 2i)."""
    h = [0] * (d + 1)
    for i, g in enumerate(gamma):
        for j in range(d - 2 * i + 1):
            h[i + j] += g * math.comb(d - 2 * i, j)
    return h


# ---------------------------------------------------------------------------
# Expectations per request
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expected:
    """What a correct answer must show.  dim is the polytope dimension (the
    degree of a palindromic h*); gamma and volume are None where the
    benchmark has no independent value; digest is the recorded sha256 of
    stdout, or None."""

    dim: int
    reflexive: bool
    gamma: Optional[tuple] = None
    volume: Optional[int] = None
    digest: Optional[str] = None


def _type_a_gamma(g) -> Optional[list]:
    if g.family == "complete":
        return complete_suspension_gamma(g.n)
    if g.n <= PAIR_ORACLE_MAX_N:
        return suspension_gamma_by_pairs(g.n, g.edges)
    return None


def _type_b_gamma(g) -> Optional[list]:
    if g.family == "complete-bipartite":
        return complete_bipartite_type_b_gamma(g.param)
    if g.n <= PAIR_ORACLE_MAX_N:
        return [c * 4 ** k for k, c in enumerate(matched_set_counts(g.n, g.edges))]
    return None


def expected_for(req: Request, digest: Optional[str] = None) -> Expected:
    g = req.graph
    if req.command == "verify":
        return Expected(g.n, True, digest=digest)
    if req.command == "check" and "a" in req.flags:
        return Expected(g.n - components(g.n, g.edges), True, digest=digest)
    if req.command == "gamma-b":
        bipartite = two_coloring(g.n, g.edges) is not None
        gamma = _type_b_gamma(g) if bipartite else None
        return Expected(g.n, bipartite, None if gamma is None else tuple(gamma),
                        digest=digest)
    gamma = _type_a_gamma(g)
    volume = wheel_volume(g.n) if g.family == "wheel-rim" else None
    return Expected(g.n, True, None if gamma is None else tuple(gamma), volume,
                    digest)


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Checking one answer
# ---------------------------------------------------------------------------

def _fields(stdout: str) -> dict:
    """Top-level `key: value` lines of a coeffs-format report."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith(" ") or ": " not in line:
            continue
        key, _, value = line.partition(": ")
        out.setdefault(key, value)
    return out


def _is_palindromic(h: list) -> bool:
    return h == h[::-1]


def check_answer(req: Request, exp: Expected, code, stdout: str) -> list:
    """Problems with one answer; an empty list means it is correct."""
    problems = []
    if code != 0:
        return [f"exit code {code}"]
    if exp.digest is not None and stdout_digest(stdout) != exp.digest:
        problems.append("stdout digest differs from the recorded one")
    if req.command == "verify":
        bad = [line for line in stdout.splitlines()
               if line.split(": ", 1)[-1].startswith("FAIL")]
        return problems + [f"verify reports {line!r}" for line in bad]
    f = _fields(stdout)
    try:
        hstar = json.loads(f["hstar"])
        volume = int(f["volume"])
        dim = int(f["dim"])
        gamma = None if f["gamma"] == "n/a" else json.loads(f["gamma"])
    except (KeyError, ValueError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    if dim != exp.dim:
        problems.append(f"dim {dim}, expected {exp.dim}")
    if sum(hstar) != volume:
        problems.append(f"h*(1) = {sum(hstar)} but volume = {volume}")
    if exp.reflexive:
        if len(hstar) != exp.dim + 1 or not _is_palindromic(hstar):
            problems.append(f"h* {hstar} is not palindromic of degree {exp.dim}")
        if gamma is None:
            problems.append("no gamma for a reflexive polytope")
    if gamma is not None:
        if volume != sum(c << (dim - 2 * i) for i, c in enumerate(gamma)):
            problems.append(f"volume {volume} != 2^{dim} gamma(1/4)")
        if hstar != hstar_from_gamma(gamma, dim):
            problems.append("h* is not the gamma transform of gamma")
    if exp.gamma is not None and gamma != list(exp.gamma):
        problems.append(f"gamma {gamma}, expected {list(exp.gamma)}")
    if exp.volume is not None and volume != exp.volume:
        problems.append(f"volume {volume}, expected {exp.volume}")
    return problems
