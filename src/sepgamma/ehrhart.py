"""Ground-truth h*-polynomials by exact lattice-point counting.

Builds the V-representation of a symmetric edge polytope (type A or B),
derives the facet inequalities by the double-description method, counts
the lattice points of small dilates tP, and of their interiors, by
walking the lattice points of the projections of tP to its leading
coordinates, and applies the binomial transform.  Everything is integer
arithmetic; nothing floats.  Nothing here assumes a unimodular cover,
the integer decomposition property or any formula: the oracle reads only
the points.

Which dilates are counted: L(t) = |tP n Z^d| and L_int(t), the lattice
points of the interior of tP, for t = 1..k with k = d//2 + 1, and no
larger dilate.  L(0..k) fix h*_0..h*_k through the Ehrhart series, and
by Ehrhart-Macdonald reciprocity (Macdonald 1971) L_int(1..k) fix
h*_(d+1-k)..h*_d through the same transform (see hstar_from_counts).
The two halves overlap on at least one coefficient, and they must agree
there: that is the oracle's check on its own counts.  An interior count
is the cheaper one, since int(tP) holds fewer points than tP, and the
largest dilate is k, not d + 1.  When the mean c of the points is a
lattice point and every primitive facet inequality n . x <= b has
b - n . c = 1, P - c is {x : n . x <= 1} with integer normals, so P is
reflexive and L_int(t) = L(t-1) needs no count; that is Hibi's palindromy
(1992).  Type A of any graph and type B of a bipartite one pass this
test; type B of a non-bipartite graph, or a mean that is not a lattice
point, counts both sides.  The result reports the decision
(EhrhartData.reflexive), and the engine defines gamma from it.

Both families are centrally symmetric, and the walk uses it when the
points prove it: when their mean c is a lattice point and the point set
is closed under q -> 2c - q, x -> 2tc - x maps tP n Z^d, and its
interior, onto itself, and the walk counts the slices on one side of the
centre twice instead of visiting both (see count_points).  Otherwise it
walks every slice.  What the walk reads of P at every dilate (the facets
of each projection, the bounding box and the centre) is built once per
polytope.

The oracle takes full-dimensional points only: build_b's are, and
build_a writes type A in lattice coordinates (see build_a).  The double
description starts from the simplicial cone of the first d + 1 affinely
independent points, which one fraction-free pass picks while it builds
the cone's rays (see _simplex_rays).

The hyperplane brute force, with its own transform-tracking elimination
(which also brings any point set to full dimension), the bounding-box
scan that these stages replaced and the palindrome test of reflexivity
are kept in the tests (tests/oracles.py) as references.  This oracle
validates the formula paths at desk scale; every stage has a loud
resource guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import floordiv, mul, sub
from typing import Mapping, NamedTuple, Optional

from .errors import (BoundExceededError, PreconditionError,
                     VerificationError, bound)
from .graphs import Graph
from .polynomials import Poly


@dataclass
class LatticePolytope:
    """V-representation plus derived data.  `points` are lattice points of
    Z^dim that span it affinely, and may include non-vertex points (the
    hull ignores them); `hrep` is filled by h_representation."""

    points: tuple
    hrep: Optional[tuple] = field(default=None)
    walk: Optional[_Walk] = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.points[0])


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------

def build_a(g: Graph, bounds: Optional[Mapping] = None) -> LatticePolytope:
    """conv of +-(e_u - e_v) over the edges, in lattice coordinates: one
    per vertex on an edge, in sorted order, leaving out the largest vertex
    of each component.  The polytope lies where each component's
    coordinates sum to 0, and there the left-out coordinate is minus the
    sum of the others, so deleting it maps the lattice points one to one
    onto Z^d: d is the number of vertices on an edge minus the number of
    components.  For a suspension the apex is left out, and the points are
    +-e_v and +-(e_u - e_v).  The point in R^0 when g has no edge.  The 2|E|
    points are distinct, and the facet search's guards apply before any
    is built."""
    if not g.edges:
        return LatticePolytope(((),))
    # union by the larger root: each component's root is its largest vertex
    root = {v: v for e in g.edges for v in e}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges:
        a, b = find(u), find(v)
        root[min(a, b)] = max(a, b)
    index = {v: i for i, v in enumerate(sorted(v for v in root if root[v] != v))}
    _check_facet_search(len(index), 2 * g.edge_count, bounds)
    pts = []
    for u, v in g.sorted_edges():
        p = [0] * len(index)
        if u in index:
            p[index[u]] = 1
        if v in index:
            p[index[v]] = -1
        pts.append(tuple(p))
        pts.append(tuple(-x for x in p))
    return LatticePolytope(tuple(pts))


def build_b(g: Graph, bounds: Optional[Mapping] = None) -> LatticePolytope:
    """conv of all +-e_i plus +-e_i +- e_j over the edges; always
    full-dimensional, the point {0} when g has no vertex.  The 2n + 4|E|
    points are distinct, and the facet search's guards apply before any
    is built."""
    if g.n == 0:
        return LatticePolytope(((),))
    _check_facet_search(g.n, 2 * g.n + 4 * g.edge_count, bounds)
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
    return LatticePolytope(tuple(pts))


# ---------------------------------------------------------------------------
# Facets
# ---------------------------------------------------------------------------

def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _simplex_rays(vecs: list) -> tuple:
    """The indices of the first n linearly independent vectors of `vecs`,
    which must span R^n, and the rays of the simplicial cone they bound, as
    (y, bitmask of the n - 1 vectors y is zero on).

    One fraction-free pass keeps n independent integer rows, the identity
    at first, each zero on every vector taken but the one it pivots on; a
    row on which none pivots is free and zero on all of them.  A vector is
    taken iff some free row is nonzero on it, and pivots on the first one,
    r; every other row nonzero on it becomes its primitive combination
    with row r that is zero on it, and stays zero, or nonzero, on each
    vector taken before.  The pivot row of a taken vector, made primitive,
    is the ray opposite it, with the sign of its dot product at the end,
    since a later combination can flip it."""
    n = len(vecs[0])
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    taken = {}  # pivot row -> index of the vector taken on it
    for i, v in enumerate(vecs):
        w = [_dot(m, v) for m in rows]
        r = next((r for r in range(n) if w[r] and r not in taken), None)
        if r is None:
            continue
        taken[r] = i
        a, pivot_row = w[r], rows[r]
        for s, b in enumerate(w):
            if s != r and b:
                row = [a * x - b * y for x, y in zip(rows[s], pivot_row)]
                g = math.gcd(*row)
                rows[s] = [x // g for x in row]
        if len(taken) == n:
            break
    if len(taken) < n:
        raise PreconditionError(f"points of affine rank {len(taken) - 1} < {n - 1}: "
                                f"facets need full-dimensional points")
    everything = sum(1 << j for j in taken.values())
    rays = []
    for r, j in taken.items():
        m = rows[r]
        g = math.gcd(*m) if _dot(m, vecs[j]) > 0 else -math.gcd(*m)
        rays.append(([x // g for x in m], everything & ~(1 << j)))
    return list(taken.values()), rays


def _facets(pts: list, d: int) -> tuple:
    """Sorted facets (normal, offset) of the hull of the distinct points
    `pts`, which span Z^d affinely: the extreme rays y = (offset, -normal)
    of the cone {y : y . (1, q) >= 0 for every point q}, by Motzkin's
    double description.

    The cone of d + 1 affinely independent points is simplicial (see
    _simplex_rays).  Every further point keeps the rays on its side and
    adds, for each adjacent pair that it separates, the combination zero
    on it.  A pair is adjacent when no third ray is tight on every point
    they share (the combinatorial test, valid because every ray kept is
    extreme).  Each facet holds lattice points, so gcd(offset, normal) =
    gcd(normal) and a primitive ray is a primitive normal."""
    if d == 0:
        return ()
    vecs = [(1,) + q for q in pts]
    base, rays = _simplex_rays(vecs)
    for i in sorted(set(range(len(vecs))) - set(base)):
        v, bit = vecs[i], 1 << i
        pos, neg, kept = [], [], []
        for y, tight in rays:
            s = _dot(y, v)
            if s > 0:
                pos.append((y, tight, s))
                kept.append((y, tight))
            elif s < 0:
                neg.append((y, tight, s))
            else:
                kept.append((y, tight | bit))
        if neg:
            masks = [tight for _, tight in rays]
            for yp, tp, sp in pos:
                for yn, tn, sn in neg:
                    common = tp & tn
                    if common.bit_count() < d - 1:
                        continue
                    # rays tight on all of `common`: the pair itself, and
                    # any third one makes the pair non-adjacent
                    if sum(1 for m in masks if m & common == common) > 2:
                        continue
                    y = [sp * b - sn * a for a, b in zip(yp, yn)]
                    g = math.gcd(*y)
                    kept.append(([a // g for a in y], common | bit))
        rays = kept
    return tuple(sorted((tuple(-a for a in y[1:]), y[0]) for y, _ in rays))


def h_representation(p: LatticePolytope, bounds: Optional[Mapping] = None) -> tuple:
    """Irredundant facet list [(normal, offset)] with primitive integer
    normals, meaning normal . x <= offset, sorted; by double description
    (see _facets).  Guarded by `hrep-dim` and `hrep-points`; points that do
    not span R^d raise PreconditionError.  Caches into p.hrep."""
    pts = sorted(set(p.points))
    _check_facet_search(p.dim, len(pts), bounds)
    out = _facets(pts, p.dim)
    p.hrep = out
    return out


def _check_facet_search(d: int, points: int, bounds: Optional[Mapping]) -> None:
    """The facet search's guards, `hrep-dim` on the dimension d and then
    `hrep-points` on the number of distinct points."""
    limit = bound(bounds, "hrep-dim")
    if d > limit:
        raise BoundExceededError(f"facet enumeration in dimension {d} > {limit}")
    limit = bound(bounds, "hrep-points")
    if points > limit:
        raise BoundExceededError(f"{points} points > {limit}")


# ---------------------------------------------------------------------------
# Counting and the h* transform
# ---------------------------------------------------------------------------

class _Walk(NamedTuple):
    """What count_points reads of P at every dilate, built once (see
    _walk).  Level k (0-based) holds the facets of the projection of P to
    x_1..x_(k+1) whose x_(k+1) coefficient is nonzero.  The rows of all
    levels are kept deepest level first, and a level's upper rows (positive
    last coefficient) before its lower ones; `offsets` are their b.
    levels[k] is (the upper rows' last coefficients, minus the lower rows'
    last coefficients, the x_(k+1) coefficient of every row of a deeper
    level).  `extents` are the widths of P's bounding box, and `centre` is
    _centre(P)."""
    offsets: tuple
    levels: tuple
    extents: tuple
    centre: Optional[tuple]


def _walk(p: LatticePolytope) -> _Walk:
    """The _Walk of P: level d - 1 is P's own hrep, the others come from
    _facets of the projections.  Given a prefix in the projection to
    x_1..x_k, level k cuts out the interval of x_(k+1) in the projection
    to x_1..x_(k+1): the facets with a zero x_(k+1) coefficient hold on
    the whole shorter projection."""
    d = p.dim
    rows, levels = [], []
    for k in reversed(range(d)):
        facets = (p.hrep if k == d - 1
                  else _facets(sorted({q[:k + 1] for q in p.points}), k + 1))
        upper = [f for f in facets if f[0][k] > 0]
        lower = [f for f in facets if f[0][k] < 0]
        levels.append((tuple(n[k] for n, _ in upper), tuple(-n[k] for n, _ in lower),
                       tuple(n[k] for n, _ in rows)))
        rows += upper + lower
    extents = tuple(max(col) - min(col) for col in zip(*p.points))
    return _Walk(tuple(b for _, b in rows), tuple(reversed(levels)), extents,
                 _centre(p.points))


def _lattice_mean(points) -> Optional[tuple]:
    """The mean of the points when it is a lattice point, else None."""
    m = len(points)
    sums = [sum(col) for col in zip(*points)]
    if any(s % m for s in sums):
        return None
    return tuple(s // m for s in sums)


def _centre(points) -> Optional[tuple]:
    """The mean c of the points when c is a lattice point and the point set
    is closed under q -> 2c - q, else None.  The hull is then centrally
    symmetric about c.  Type A and B polytopes pass, with c the origin; a
    mean alone proves no symmetry."""
    c = _lattice_mean(points)
    if c is None:
        return None
    pts = set(points)
    if all(tuple(2 * a - b for a, b in zip(c, q)) in pts for q in pts):
        return c
    return None


def count_points(p: LatticePolytope, t: int, bounds: Optional[Mapping] = None, *,
                 interior: bool = False) -> int:
    """|tP n Z^d|, or with `interior` the lattice points of the interior of
    tP, the ones with n . x <= t*b - 1 on every facet n . x <= b.  It walks
    coordinate by coordinate through the lattice points of the projections
    of tP (see _walk), where each x_k ranges over an exact integer interval
    given x_1..x_(k-1).  A prefix carries the residual t*b - n . prefix
    (less 1 for the interior) of every facet of a deeper level, and fixing
    x_k subtracts x_k times their x_k coefficients once.  Guarded by the
    size of the bounding box of tP (`box`), for either count.

    When the points have a lattice centre c (see _centre), x -> 2tc - x
    maps tP n Z^d, and its interior, onto itself, and every projection
    onto itself.  A prefix equal to t*c[:k] is fixed by it, so its slices
    x_k > t*c_k are the mirror images of those below t*c_k: the walk counts
    the slice x_k = t*c_k once, each slice above it twice, and skips the
    ones below.  Every other prefix, and every polytope without a centre,
    is walked in full."""
    if p.hrep is None:
        raise PreconditionError("h-representation not computed")
    d = p.dim
    if d == 0:
        return 1
    if p.walk is None:
        p.walk = _walk(p)
    walk = p.walk
    budget = bound(bounds, "box")
    vol = 1
    for width in walk.extents:
        vol *= t * width + 1
        if vol > budget:
            raise BoundExceededError(f"bounding box of {t}P exceeds {budget} points")
    levels, last = walk.levels, d - 1
    tc = None if walk.centre is None else [t * a for a in walk.centre]

    def visit(k, residuals, central):
        # an upper row bounds x_k <= r // a and a lower one x_k >= -(r // a).
        # The level's own rows follow those of the deeper levels, so mapping
        # over `column` leaves exactly the deeper levels' residuals.
        upper, lower, column = levels[k]
        deeper = len(column)
        hi = min(map(floordiv, residuals[deeper:], upper))
        lo = -min(map(floordiv, residuals[deeper + len(upper):], lower))
        if hi < lo:
            return 0
        if k == last:
            return hi - lo + 1
        start = tc[k] if central else lo
        residuals = list(map(sub, residuals, map(mul, column, repeat(start))))
        first, rest = visit(k + 1, residuals, central), 0
        for _ in range(hi - start):
            residuals = list(map(sub, residuals, column))
            rest += visit(k + 1, residuals, False)
        return first + 2 * rest if central else first + rest

    return visit(0, [t * b - interior for b in walk.offsets], tc is not None)


@dataclass(frozen=True)
class EhrhartData:
    """The h*-polynomial, the dimension d, and whether the facets proved the
    polytope reflexive (see _facets_prove_reflexive); then h* is
    palindromic of degree d, and the oracle took L_int(t) = L(t-1)
    instead of counting the interiors (see ehrhart_data).  When the points are
    symmetric about their lattice mean, as those of type A and B are, a
    reflexive polytope's one interior lattice point is that mean, so False
    means not reflexive."""
    hstar: Poly
    dim: int
    reflexive: bool


def hstar_from_counts(counts, inner, d: int) -> Poly:
    """h* of a d-polytope from L(0) = 1, L(1), .., L(a) (`counts`) and
    L_int(0) = 0, L_int(1), .., L_int(b) (`inner`, the interior counts),
    with a, b <= d + 1 and a + b >= d + 1.  Both sides take the one
    binomial transform sum_j (-1)^j C(d+1, j) s(m-j).  On L it gives h*_m,
    from the Ehrhart series sum_t L(t) z^t = h*(z) / (1-z)^(d+1); on L_int
    it gives h*_(d+1-m), by Ehrhart-Macdonald reciprocity (Macdonald 1971),
    sum_t L_int(t) z^t = z^(d+1) h*(1/z) / (1-z)^(d+1).  So L gives
    h*_0..h*_a and L_int gives h*_(d+1-b)..h*_(d+1), where h*_(d+1) =
    L_int(0) = 0.  The two sides overlap on at least one index and must
    agree there; every coefficient must be nonnegative.  For a reflexive
    polytope L_int(t) = L(t-1), and the L_int side is Hibi's palindromy
    h*_k = h*_(d-k)."""
    a, b = len(counts) - 1, len(inner) - 1
    if list(counts[:1]) != [1] or list(inner[:1]) != [0] or a + b < d + 1 \
            or max(a, b) > d + 1:
        raise PreconditionError(f"need counts L(0)=1 .. L(a) and "
                                f"L_int(0)=0 .. L_int(b), a + b >= {d + 1}")
    h = {}
    for values, top in ((counts, 0), (inner, d + 1)):
        for m in range(len(values)):
            v = sum((-1) ** j * math.comb(d + 1, j) * values[m - j] for j in range(m + 1))
            k = abs(top - m)  # m on the L side, d + 1 - m on the L_int side
            if v < 0:
                raise VerificationError(
                    f"negative h*_{k} = {v}: counting bug or wrong dimension")
            if h.setdefault(k, v) != v:
                raise VerificationError(
                    f"L and L_int disagree on h*_{k}: {h[k]} != {v}")
    return Poly([h[k] for k in range(d + 1)])


def _facets_prove_reflexive(q: LatticePolytope) -> bool:
    """True when the mean c of q.points is a lattice point and every facet
    (normal, offset) of q.hrep has offset - normal . c = 1.  The normals
    are primitive, so P - c is then {x : normal . x <= 1}: its dual is a
    lattice polytope, P is reflexive, and by Hibi (1992) h* is palindromic
    of degree d.  The mean of a full-dimensional point set is interior, but
    when it is not a lattice point this proves nothing.  The proof needs
    no symmetry: a reflexive polytope need not be centrally symmetric."""
    c = _lattice_mean(q.points)
    return c is not None and all(b - _dot(n, c) == 1 for n, b in q.hrep)


def ehrhart_data(p: LatticePolytope, bounds: Optional[Mapping] = None) -> EhrhartData:
    """Full oracle pipeline on full-dimensional points: facets, count,
    transform.  It counts L(t) and, unless the facets prove P reflexive,
    L_int(t) for t = 1..k, k = d//2 + 1 (see hstar_from_counts); for a
    reflexive P, L_int(t) = L(t-1) comes free."""
    if p.hrep is None:
        h_representation(p, bounds)
    reflexive = _facets_prove_reflexive(p)
    k = p.dim // 2 + 1
    counts = [1] + [count_points(p, t, bounds) for t in range(1, k + 1)]
    if reflexive:
        inner = [0] + counts[:-1]
    else:
        inner = [0] + [count_points(p, t, bounds, interior=True) for t in range(1, k + 1)]
    return EhrhartData(hstar_from_counts(counts, inner, p.dim), p.dim, reflexive)
