"""Ground-truth h*-polynomials by exact lattice-point counting.

Builds the V-representation of a symmetric edge polytope (type A or B),
derives the facet inequalities by brute-force hyperplane enumeration,
counts |tP n Z^d| for t = 1..d+1 by scanning the bounding box, and
applies the binomial transform.  Everything is integer arithmetic;
nothing floats.

One unimodular integer row reduction does all the lattice algebra.  On
the matrix whose columns are the differences p - p0 it yields each
point's coordinates in a full-dimensional lattice copy of the polytope
(the pivot rows; their number is the dimension), which changes no
dilate's point count.  On the d - 1 differences of d points, with the
transform tracked, the transform's last row is the primitive normal of
the hyperplane through them.

This oracle exists to validate the formula paths at desk scale, never to
be fast; every stage has a loud resource guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Optional

from .errors import BoundExceededError, PreconditionError, VerificationError
from .graphs import Graph
from .polynomials import Poly

MAX_HREP_DIM = 7
MAX_HREP_POINTS = 64
MAX_BOX_POINTS = 10 ** 9


@dataclass
class LatticePolytope:
    """V-representation plus derived data.  `points` may contain non-vertex
    points (the hull ignores them); `dim` is the dimension of their affine
    hull; `hrep` is filled by h_representation."""

    ambient_dim: int
    points: tuple
    dim: int
    hrep: Optional[tuple] = field(default=None)


# ---------------------------------------------------------------------------
# Integer linear algebra
# ---------------------------------------------------------------------------

def _row_reduce(mat: list, cols: int) -> int:
    """Unimodular row reduction of the first `cols` columns of the integer
    matrix `mat` (a list of rows, changed in place) by row swaps and integer
    row additions.  Returns the rank r: rows[:r] are then in echelon form
    and the other rows are zero on those columns.  Columns past `cols` (an
    identity block, say) record the transform."""
    r0 = 0
    for c in range(cols):
        while True:
            nz = [r for r in range(r0, len(mat)) if mat[r][c] != 0]
            if not nz:
                break
            if len(nz) == 1:
                mat[r0], mat[nz[0]] = mat[nz[0]], mat[r0]
                r0 += 1
                break
            piv = min(nz, key=lambda r: abs(mat[r][c]))
            for r in nz:
                if r != piv:
                    q = mat[r][c] // mat[piv][c]
                    mat[r] = [a - q * b for a, b in zip(mat[r], mat[piv])]
    return r0


def _pivot_rows(points) -> list:
    """Pivot rows of the row-reduced matrix whose columns are p - points[0]:
    column k is points[k] in coordinates of the lattice of the affine hull,
    and their number is its dimension."""
    p0 = points[0]
    mat = [[p[i] - p0[i] for p in points] for i in range(len(p0))]
    return mat[:_row_reduce(mat, len(points))]


# ---------------------------------------------------------------------------
# Building and reducing
# ---------------------------------------------------------------------------

def build_a(g: Graph) -> LatticePolytope:
    """conv of +-(e_i - e_j) over the edges; lives in the sum-zero
    hyperplane, dimension n-1 for connected g.  The point {0} when g has
    no edge."""
    if not g.edges:
        return LatticePolytope(g.n, ((0,) * g.n,), 0)
    pts = []
    for u, v in g.sorted_edges():
        p = [0] * g.n
        p[u - 1], p[v - 1] = 1, -1
        pts.append(tuple(p))
        pts.append(tuple(-x for x in p))
    return LatticePolytope(g.n, tuple(pts), len(_pivot_rows(pts)))


def build_b(g: Graph) -> LatticePolytope:
    """conv of all +-e_i plus +-e_i +- e_j over the edges; always
    full-dimensional, the point {0} when g has no vertex."""
    if g.n == 0:
        return LatticePolytope(0, ((),), 0)
    pts = []
    for i in range(1, g.n + 1):
        p = [0] * g.n
        p[i - 1] = 1
        pts.append(tuple(p))
        pts.append(tuple(-x for x in p))
    for u, v in g.sorted_edges():
        for su, sv in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            p = [0] * g.n
            p[u - 1], p[v - 1] = su, sv
            pts.append(tuple(p))
    return LatticePolytope(g.n, tuple(pts), g.n)


def reduce_to_full_dim(p: LatticePolytope) -> LatticePolytope:
    """Rewrite the points in coordinates of the lattice of their affine hull,
    relative to the first point.  The map is unimodular on that lattice, so
    every dilate's count is preserved.  Full-dimensional input comes back
    unchanged."""
    if p.dim == p.ambient_dim:
        return p
    rows = _pivot_rows(p.points)
    d = len(rows)
    pts = tuple(tuple(row[k] for row in rows) for k in range(len(p.points)))
    return LatticePolytope(d, pts, d)


# ---------------------------------------------------------------------------
# Facets
# ---------------------------------------------------------------------------

def h_representation(p: LatticePolytope, max_dim: int = MAX_HREP_DIM,
                     max_points: int = MAX_HREP_POINTS) -> tuple:
    """Irredundant facet list [(normal, offset)] with primitive integer
    normals, meaning normal . x <= offset; brute force over hyperplanes
    spanned by d affinely independent points.  Caches into p.hrep."""
    if p.dim != p.ambient_dim:
        raise PreconditionError("reduce to full dimension before facets")
    d = p.dim
    if d > max_dim:
        raise BoundExceededError(f"facet enumeration in dimension {d} > {max_dim}")
    pts = sorted(set(p.points))
    if len(pts) > max_points:
        raise BoundExceededError(f"{len(pts)} points > {max_points}")
    facets = set()
    seen = set()
    for subset in combinations(pts, d) if d else ():
        # the transform row that clears the d - 1 differences is the
        # primitive normal, unless they have lower rank
        x0 = subset[0]
        mat = [[q[j] - x0[j] for q in subset[1:]] + [int(i == j) for i in range(d)]
               for j in range(d)]
        if _row_reduce(mat, d - 1) < d - 1:
            continue
        normal = tuple(mat[-1][d - 1:])
        offset0 = sum(a * b for a, b in zip(normal, x0))
        neg = tuple(-v for v in normal)
        key = max((normal, offset0), (neg, -offset0))
        if key in seen:
            continue
        seen.add(key)
        dots = [sum(a * b for a, b in zip(normal, q)) for q in pts]
        if max(dots) == offset0:
            facets.add((normal, offset0))
        if min(dots) == offset0:
            facets.add((neg, -offset0))
    out = tuple(sorted(facets))
    p.hrep = out
    return out


# ---------------------------------------------------------------------------
# Counting and the h* transform
# ---------------------------------------------------------------------------

def count_points(p: LatticePolytope, t: int, budget: int = MAX_BOX_POINTS) -> int:
    """|tP n Z^d| by scanning the bounding box of tP: iterate the first d-1
    coordinates, solve the last one as an exact integer interval from the
    facet inequalities."""
    if p.hrep is None:
        raise PreconditionError("h-representation not computed")
    d = p.dim
    if d == 0:
        return 1
    lo = [t * min(q[i] for q in p.points) for i in range(d)]
    hi = [t * max(q[i] for q in p.points) for i in range(d)]
    vol = 1
    for a, b in zip(lo, hi):
        vol *= (b - a + 1)
        if vol > budget:
            raise BoundExceededError(f"bounding box of {t}P exceeds {budget} points")
    facets = [(f[0], t * f[1]) for f in p.hrep]
    count = 0
    for prefix in product(*(range(lo[i], hi[i] + 1) for i in range(d - 1))):
        lo_x, hi_x = lo[d - 1], hi[d - 1]
        feasible = True
        for normal, b in facets:
            partial = sum(a * x for a, x in zip(normal, prefix))
            a_last = normal[d - 1]
            rhs = b - partial
            if a_last == 0:
                if rhs < 0:
                    feasible = False
                    break
            elif a_last > 0:
                hi_x = min(hi_x, rhs // a_last)
            else:
                lo_x = max(lo_x, _ceil_div(rhs, a_last))
            if lo_x > hi_x:
                feasible = False
                break
        if feasible and hi_x >= lo_x:
            count += hi_x - lo_x + 1
    return count


def _ceil_div(p: int, q: int) -> int:
    """ceil(p/q) for q != 0, exact."""
    return -((-p) // q) if q > 0 else -(p // (-q))


@dataclass(frozen=True)
class EhrhartData:
    """Dilate counts L(0..d+1) and the h*-polynomial they determine."""
    counts: tuple
    hstar: Poly


def hstar_from_counts(counts, d: int) -> Poly:
    """h*_k = sum_j (-1)^j C(d+1, j) L(k-j); checks nonnegativity and that
    the resulting Ehrhart form reproduces L(d+1)."""
    if len(counts) < d + 2 or counts[0] != 1:
        raise PreconditionError("need counts L(0)=1 .. L(d+1)")
    h = []
    for k in range(d + 1):
        v = sum((-1) ** j * math.comb(d + 1, j) * counts[k - j]
                for j in range(k + 1))
        if v < 0:
            raise VerificationError(
                f"negative h*_{k} = {v}: counting bug or wrong dimension")
        h.append(v)
    predicted = sum(h[k] * math.comb(2 * d + 1 - k, d) for k in range(d + 1))
    if predicted != counts[d + 1]:
        raise VerificationError(
            f"h* does not reproduce L({d + 1}): {predicted} != {counts[d + 1]}")
    return Poly(h)


def reflexivity_check(hstar: Poly, d: int) -> bool:
    """Reflexive iff h* is palindromic of degree exactly d."""
    return hstar.degree == d and hstar.is_palindromic()


def ehrhart_data(p: LatticePolytope, max_dim: int = MAX_HREP_DIM,
                 max_points: int = MAX_HREP_POINTS,
                 budget: int = MAX_BOX_POINTS) -> EhrhartData:
    """Full oracle pipeline: reduce, facets, count t = 1..d+1, transform."""
    q = reduce_to_full_dim(p)
    if q.hrep is None:
        h_representation(q, max_dim, max_points)
    counts = [1] + [count_points(q, t, budget) for t in range(1, q.dim + 2)]
    return EhrhartData(tuple(counts), hstar_from_counts(counts, q.dim))


def oracle_hstar_a(g: Graph, **kw) -> EhrhartData:
    return ehrhart_data(build_a(g), **kw)


def oracle_hstar_b(g: Graph, **kw) -> EhrhartData:
    return ehrhart_data(build_b(g), **kw)
