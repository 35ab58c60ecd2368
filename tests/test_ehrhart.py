import math
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from sepgamma import (BoundExceededError, EhrhartData, Graph, LatticePolytope, Poly,
                      PreconditionError, VerificationError, build_a, build_b,
                      complete_graph, count_points, cycle_graph, ehrhart_data,
                      empty_graph, gamma_to_hstar, h_representation,
                      hstar_from_counts, path_graph)
from sepgamma import ehrhart
from sepgamma.ehrhart import _centre, _facets, _facets_prove_reflexive
from sepgamma.graphs import suspension

from conftest import atlas_graphs
from oracles import (count_interior_reference, count_points_reference,
                     ehrhart_data_reference, h_representation_reference,
                     reduce_to_full_dim_reference, reflexivity_check,
                     one_plus_x_power, row_reduce_tracked, type_a_ambient)


def det(mat):
    """Laplace expansion along the first row; independent of any reduction."""
    if not mat:
        return 1
    return sum((-1) ** j * mat[0][j] * det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)) if mat[0][j])


def minors(cols, k):
    """All k x k minors of the matrix whose columns are `cols`."""
    n = len(cols[0]) if cols else 0
    return [det([[cols[c][r] for c in cs] for r in rs])
            for rs in combinations(range(n), k) for cs in combinations(range(len(cols)), k)]


def rank(cols):
    """Largest k with a nonzero k x k minor."""
    k = 0
    while k < min(len(cols), len(cols[0]) if cols else 0) and any(minors(cols, k + 1)):
        k += 1
    return k


def diffs(points):
    return [tuple(a - b for a, b in zip(p, points[0])) for p in points]


def counted(p) -> tuple:
    """ehrhart_data(p) and the counts it took, L(0) = 1, L(1), ... and
    L_int(0) = 0, L_int(1), ... of the interior: every call of count_points is
    recorded, and each side must ask for t = 1, 2, ... in order."""
    counts, inner = [1], [0]
    original = ehrhart.count_points

    def recording(q, t, bounds=None, *, interior=False):
        side = inner if interior else counts
        assert t == len(side)
        side.append(original(q, t, bounds, interior=interior))
        return side[-1]

    ehrhart.count_points = recording
    try:
        data = ehrhart_data(p)
    finally:
        ehrhart.count_points = original
    return data, tuple(counts), tuple(inner)


class TestRowReduce:
    """The test-side elimination (tests/oracles.py) that brings arbitrary
    points to full dimension; the package takes full-dimensional points."""

    def test_echelon_and_rank(self):
        r, mat, _ = row_reduce_tracked([[2, 4, 1], [1, 2, 0], [3, 6, 1]], 3)
        assert r == 2
        assert mat[0][0] != 0 and mat[1][0] == 0 and mat[1][1:] != [0, 0]
        assert mat[2] == [0, 0, 0]

    def test_transform_is_tracked(self):
        # the reference elimination of the facet brute force: the rows of
        # its transform times the original give the reduced rows
        orig = [[4, 6], [6, 9], [2, 3]]
        rank, rows, u = row_reduce_tracked(orig, 2)
        assert rank == 1 and rows[1:] == [[0, 0], [0, 0]]
        for row, ur in zip(rows, u):
            assert [sum(ur[i] * orig[i][c] for i in range(3)) for c in range(2)] == row
        assert abs(det(u)) == 1
        # a zero in the pivot position, a negative entry, and a zero matrix
        orig = [[0, 3, 1], [-2, 5, 0], [4, 1, 7]]
        rank, rows, u = row_reduce_tracked(orig, 2)
        assert rank == 2 and rows[0][0] == 2 and rows[1][0] == rows[2][0] == 0
        assert abs(det(u)) == 1
        assert row_reduce_tracked([[0, 0], [0, 0]], 2)[0] == 0

    def test_saturation(self):
        # differences (2,-2) must yield the primitive lattice Z(1,-1)
        q = reduce_to_full_dim_reference(((1, -1), (-1, 1)))
        assert q.dim == 1 and sorted(q.points) in ([(-2,), (0,)], [(0,), (2,)])

    def test_plane_in_z3(self):
        # the hexagon A(C3) in Z^3, and build_a's copy of it in Z^2
        p = type_a_ambient(cycle_graph(3))
        q = reduce_to_full_dim_reference(p.points)
        assert len(p.points[0]) == 3 and build_a(cycle_graph(3)).dim == q.dim == 2
        assert len(set(q.points)) == 6

    def test_point(self):
        q = reduce_to_full_dim_reference(type_a_ambient(empty_graph(3)).points)
        assert (q.dim, q.points) == (0, ((),))
        assert build_a(empty_graph(3)) == q
        assert h_representation(q) == ()
        assert count_points(q, 5) == 1


points_in_zn = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=6))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(points_in_zn)
# three collinear points on an edge span no facet
@example([(-1, 0, 1), (0, 0, 1), (1, 0, 1), (0, 1, -1), (1, -1, 0)])
def test_reduced_copy_and_facets(points):
    d = rank(diffs(points))
    q = reduce_to_full_dim_reference(points)
    assert q.dim == d
    assert len(set(q.points)) == len(set(points))
    # equal gcd of the d x d minors: the lattice of the hull maps onto Z^d
    assert math.gcd(*minors(diffs(points), d)) == math.gcd(*minors(diffs(q.points), d))
    for normal, b in h_representation(q):
        assert math.gcd(*normal) == 1
        dots = [sum(a * x for a, x in zip(normal, pt)) for pt in q.points]
        assert max(dots) == b
        tight = [pt for pt, dot in zip(q.points, dots) if dot == b]
        assert rank(diffs(tight)) == d - 1


class TestBuild:
    def test_build_a_examples(self):
        hexagon = build_a(cycle_graph(3))
        assert len(hexagon.points) == 6 and hexagon.dim == 2
        seg = build_a(Graph.make(2, [(1, 2)]))
        assert seg.dim == 1 and set(seg.points) == {(1,), (-1,)}
        k4 = build_a(complete_graph(4))
        assert len(k4.points) == 12 and k4.dim == 3
        # no edge: the point in R^0, as for build_b of the empty graph
        point = build_a(empty_graph(3))
        assert point == LatticePolytope(((),))

    def test_build_a_lattice_coordinates(self):
        # one coordinate per vertex on an edge, in sorted order, leaving out
        # the largest of each component: the suspension's apex goes, and
        # the rest are +-e_v and +-(e_u - e_v)
        hat = build_a(suspension(path_graph(3)))
        assert hat.points == ((1, -1, 0), (-1, 1, 0), (1, 0, 0), (-1, 0, 0),
                              (0, 1, -1), (0, -1, 1), (0, 1, 0), (0, -1, 0),
                              (0, 0, 1), (0, 0, -1))
        # isolated vertices 1, 4 and 7 and the components {2, 3} and
        # {5, 6, 8}: 3 and 8 are left out, coordinates 2, 5, 6, and the
        # free sum of a segment and a square is the octahedron
        two = build_a(Graph.make(8, [(2, 3), (5, 8), (6, 8)]))
        assert two.points == ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                              (0, 0, 1), (0, 0, -1))
        assert ehrhart_data(two).hstar == Poly([1, 3, 3, 1])
        # one edge to vertex 10^12: one coordinate, the segment [-1, 1]
        far = build_a(Graph.make(10 ** 12, [(1, 10 ** 12)]))
        assert far.points == ((1,), (-1,))
        assert ehrhart_data(far).hstar == Poly([1, 1])

    def test_build_a_matches_type_a_in_z_v(self):
        # the paper's coordinates in Z^V, brought to full dimension by the
        # test-side elimination, give the same oracle result as build_a:
        # A of the 208 atlas classes with n <= 6 and the suspension of the
        # 52 with n <= 5
        graphs = atlas_graphs(6) + [suspension(g) for g in atlas_graphs(5)]
        for g in graphs:
            reduced = reduce_to_full_dim_reference(type_a_ambient(g).points)
            assert ehrhart_data(build_a(g)) == ehrhart_data(reduced), g
        assert len(graphs) == 260

    def test_build_a_leaves_isolated_vertices_out(self):
        # one coordinate per vertex on an edge: the points are those of the
        # graph without its isolated vertices, the others relabelled in order
        checked = 0
        for g in atlas_graphs(6):
            on_edge = sorted(set().union(*g.edges))
            if len(on_edge) in (0, g.n):
                continue
            label = {v: i for i, v in enumerate(on_edge, start=1)}
            h = Graph.make(len(on_edge), [(label[u], label[v]) for u, v in g.edges])
            assert build_a(g) == build_a(h), g
            checked += 1
        assert checked == 47  # the classes with an edge and an isolated vertex

    def test_build_b_examples(self):
        sq = build_b(empty_graph(2))
        assert len(sq.points) == 4 and sq.dim == 2
        be = build_b(Graph.make(2, [(1, 2)]))
        assert len(be.points) == 8 and be.dim == 2
        bc4 = build_b(cycle_graph(4))
        assert len(bc4.points) == 24 and bc4.dim == 4

    def test_b_always_full_dimensional(self):
        for n in range(1, 5):
            assert build_b(empty_graph(n)).dim == n
        assert build_b(empty_graph(0)).points == ((),)


class TestReduce:
    """build_a reduces type A to full dimension by construction: its
    lattice coordinates keep the count of every dilate.  The test-side
    reducer leaves full-dimensional points as they are."""

    def test_identity_when_full(self):
        p = build_b(empty_graph(2))
        assert reduce_to_full_dim_reference(p.points) == p
        q = build_a(cycle_graph(4))
        assert reduce_to_full_dim_reference(q.points) == q

    def test_segment(self):
        q = build_a(Graph.make(2, [(1, 2)]))
        assert q.dim == 1
        h_representation(q)
        for t in range(1, 5):
            assert count_points(q, t) == 2 * t + 1

    def test_hexagon_counts_preserved(self):
        q = build_a(cycle_graph(3))
        assert q.dim == 2
        h_representation(q)
        # L(t) = 3t^2 + 3t + 1 for the hexagon; L(1) counted by hand in Z^3
        for t in (1, 2, 3):
            assert count_points(q, t) == 3 * t * t + 3 * t + 1

    def test_ambient_filter_agrees_dim_le_3(self):
        # count tP n Z^n in ambient coordinates: type A of a connected graph
        # is {x : sum x = 0, f . x <= 1 for every f: V -> Z with
        # |f(u) - f(v)| <= 1 on the edges}, a description independent of
        # lattice coordinates and their facets
        for g in (cycle_graph(3), path_graph(3), path_graph(4), complete_graph(4)):
            q = build_a(g)
            h_representation(q)
            edges = [(u - 1, v - 1) for u, v in g.edges]
            lipschitz = [f for f in product(range(-g.n, g.n + 1), repeat=g.n)
                         if f[0] == 0 and all(abs(f[u] - f[v]) <= 1 for u, v in edges)]
            for t in (1, 2):
                direct = sum(
                    1 for z in product(range(-t, t + 1), repeat=g.n)
                    if sum(z) == 0 and all(sum(a * x for a, x in zip(f, z)) <= t
                                           for f in lipschitz))
                assert direct == count_points(q, t)


class TestFacets:
    def test_hexagon_has_six(self):
        q = build_a(cycle_graph(3))
        assert len(h_representation(q)) == 6

    def test_square_and_cross(self):
        sq = build_b(Graph.make(2, [(1, 2)]))
        facets = h_representation(sq)
        assert sorted(facets) == [((-1, 0), 1), ((0, -1), 1), ((0, 1), 1), ((1, 0), 1)]
        cross = build_b(empty_graph(2))
        facets = h_representation(cross)
        assert len(facets) == 4
        assert all(sorted(map(abs, n)) == [1, 1] and b == 1 for n, b in facets)

    def test_all_points_inside(self):
        for g in (cycle_graph(4), complete_graph(3)):
            p = build_b(g)
            h_representation(p)
            for pt in p.points:
                for normal, b in p.hrep:
                    assert sum(a * x for a, x in zip(normal, pt)) <= b

    def test_guards(self):
        p = build_b(empty_graph(2))
        with pytest.raises(BoundExceededError):
            h_representation(p, {"hrep-dim": 1})
        with pytest.raises(BoundExceededError):
            h_representation(p, {"hrep-points": 2})
        with pytest.raises(PreconditionError):
            h_representation(type_a_ambient(cycle_graph(3)))  # in a plane of Z^3

    def test_rank_deficient_points_fail_loudly(self):
        # three points on a line of Z^2: no facets, and the message names
        # the rank found
        with pytest.raises(PreconditionError) as exc:
            h_representation(LatticePolytope(((0, 0), (1, 1), (2, 2))))
        assert str(exc.value) == \
            "points of affine rank 1 < 2: facets need full-dimensional points"
        with pytest.raises(PreconditionError) as exc:
            ehrhart_data(type_a_ambient(cycle_graph(3)))
        assert str(exc.value).startswith("points of affine rank 2 < 3")

    def test_count_needs_hrep(self):
        p = build_b(empty_graph(2))
        with pytest.raises(PreconditionError):
            count_points(p, 1)


class TestCounting:
    def test_square(self):
        sq = build_b(Graph.make(2, [(1, 2)]))
        h_representation(sq)
        assert count_points(sq, 1) == 9
        assert count_points(sq, 2) == 25

    def test_budget_guard(self):
        sq = build_b(Graph.make(2, [(1, 2)]))
        h_representation(sq)
        with pytest.raises(BoundExceededError):
            count_points(sq, 3, {"box": 10})


class TestHstarTransform:
    def test_examples(self):
        # the hexagon, L(t) = 3t^2 + 3t + 1 and L_int(t) = 3t^2 - 3t + 1: the
        # halves the oracle counts, and the two ends of the same range,
        # all of L with L_int(0) alone and all of L_int with L(0) alone
        for counts, inner in (((1, 7, 19), (0, 1, 7)), ((1, 7, 19, 37), (0,)),
                              ((1,), (0, 1, 7, 19))):
            assert hstar_from_counts(counts, inner, 2) == Poly([1, 4, 1])
        # the segments [0, 2] and [-2, 2]: L(t) = 2t + 1 and 4t + 1
        assert hstar_from_counts((1, 3), (0, 1), 1) == Poly([1, 1])
        assert hstar_from_counts((1, 5), (0, 3), 1) == Poly([1, 3])
        # the point: L(t) = L_int(t) = 1 for t >= 1
        assert hstar_from_counts((1, 1), (0, 1), 0) == Poly([1])

    def test_interpolation_consistency_detects_bad_counts(self):
        with pytest.raises(VerificationError) as exc:
            hstar_from_counts((1, 7, 19, 38), (0,), 2)
        assert str(exc.value) == "L and L_int disagree on h*_3: 1 != 0"
        with pytest.raises(VerificationError) as exc:
            hstar_from_counts((1, 7, 19), (0, 1, 8), 2)
        assert str(exc.value) == "L and L_int disagree on h*_1: 4 != 5"
        with pytest.raises(VerificationError) as exc:
            hstar_from_counts((1, 2, 19, 37), (0,), 2)
        assert str(exc.value) == "negative h*_1 = -1: counting bug or wrong dimension"
        with pytest.raises(VerificationError) as exc:
            hstar_from_counts((1, 7, 19), (0, 1, 2), 2)
        assert str(exc.value) == "negative h*_1 = -1: counting bug or wrong dimension"
        for counts, inner in (((2, 7, 19), (0, 1, 7)), ((1, 7, 19), (1, 1, 7)),
                              ((1, 7), (0, 1)), ((1, 7, 19, 37, 61), (0,))):
            with pytest.raises(PreconditionError):
                hstar_from_counts(counts, inner, 2)

    def test_reflexive_half(self):
        # a reflexive polytope has L_int(t) = L(t - 1): the interior side is
        # the mirror h*_k = h*_(d-k), and L(d//2 + 1) is checked against it
        for counts, d, hstar in (((1, 7, 19), 2, [1, 4, 1]),
                                 ((1, 11, 61, 211), 4, [1, 6, 16, 6, 1]),
                                 ((1, 3), 1, [1, 1])):
            assert hstar_from_counts(counts, (0,) + counts[:-1], d) == Poly(hstar)
        with pytest.raises(VerificationError) as exc:
            hstar_from_counts((1, 7, 20), (0, 1, 7), 2)
        assert str(exc.value) == "L and L_int disagree on h*_2: 2 != 1"
        with pytest.raises(VerificationError):
            hstar_from_counts((1, 2, 19), (0, 1, 2), 2)  # negative h*_1

    def test_finite_difference_vanishes(self):
        for g in (cycle_graph(3), cycle_graph(4)):
            data, counts = ehrhart_data_reference(build_a(g))
            d = data.dim
            diff = sum((-1) ** j * math.comb(d + 1, j) * counts[d + 1 - j]
                       for j in range(d + 2))
            assert diff == 0


class TestOracleEndToEnd:
    def test_hexagon(self):
        assert ehrhart_data_reference(build_a(cycle_graph(3)))[1] == (1, 7, 19, 37)
        # reflexive: only L(1), L(2) are counted, and no interior count
        data, counts, inner = counted(build_a(cycle_graph(3)))
        assert (counts, inner, data.dim, data.reflexive) == ((1, 7, 19), (0,), 2, True)
        assert data.hstar == Poly([1, 4, 1])
        assert data.hstar == gamma_to_hstar(Poly([1, 2]), 2)

    def test_a_c5(self):
        data = ehrhart_data(build_a(cycle_graph(5)))
        assert data.hstar == Poly([1, 6, 16, 6, 1])
        assert data.hstar == gamma_to_hstar(Poly([1, 2, 6]), 4)

    def test_b_square_plus_axes(self):
        data = ehrhart_data(build_b(Graph.make(2, [(1, 2)])))
        assert data.hstar == Poly([1, 6, 1])
        assert data.hstar(1) == 8

    def test_reflexivity_pattern(self):
        # the proof the oracle reports agrees with the palindrome test
        a = ehrhart_data(build_a(cycle_graph(3)))
        assert a.reflexive and reflexivity_check(a.hstar, 2)
        b4 = ehrhart_data(build_b(cycle_graph(4)))
        assert b4.reflexive and reflexivity_check(b4.hstar, 4)
        b3 = ehrhart_data(build_b(cycle_graph(3)))
        assert not b3.reflexive and not reflexivity_check(b3.hstar, 3)
        assert reflexivity_check(one_plus_x_power(5), 5)


def assert_matches_references(q, max_t):
    """Facets equal the hyperplane brute force, and |tP n Z^d| and the
    count of its interior equal the box scans for t = 1..max_t."""
    assert h_representation(q) == h_representation_reference(q)
    for t in range(1, max_t + 1):
        assert count_points(q, t) == count_points_reference(q, t)
        assert count_points(q, t, interior=True) == count_interior_reference(q, t)


def assert_half_count_matches_reference(q) -> EhrhartData:
    """The oracle's h* equals the full count's, it reports the facet proof
    of reflexivity, which implies the palindrome test (Hibi), and it counts
    L(t) for t = 1..d//2 + 1, and L_int(t) for the same t exactly when it has
    no proof.  Returns the reference data."""
    ref, ref_counts = ehrhart_data_reference(q)
    data, counts, inner = counted(q)
    assert (data.hstar, data.dim) == (ref.hstar, ref.dim)
    assert data.reflexive == _facets_prove_reflexive(q)
    assert ref.reflexive or not data.reflexive
    k = q.dim // 2 + 1
    assert counts == ref_counts[:k + 1]
    assert inner == (0,) + (() if data.reflexive else
                            tuple(count_interior_reference(q, t) for t in range(1, k + 1)))
    return ref


def test_atlas_polytopes_match_references():
    # every atlas polytope of dimension <= 4: type A for n <= 5, type B and
    # the suspension for n <= 4
    checked = reflexive = 0
    for g in atlas_graphs(5):
        polytopes = [build_a(g)]
        if g.n <= 4:
            polytopes += [build_b(g), build_a(suspension(g))]
        for q in polytopes:
            # centrally symmetric about the origin: the walk halves on
            # every one of them
            assert _centre(q.points) == (0,) * q.dim
            assert_matches_references(q, q.dim + 1)
            # every projection _levels builds, below full dimension too
            for k in range(1, q.dim + 1):
                pts = sorted({x[:k] for x in q.points})
                assert _facets(pts, k) == h_representation_reference(
                    LatticePolytope(tuple(pts)))
            ref = assert_half_count_matches_reference(q)
            # Hibi: the facet proof holds exactly when h* is palindromic
            # of degree d (the mean of these points is the origin)
            proven = _facets_prove_reflexive(q)
            assert proven == ref.reflexive == reflexivity_check(ref.hstar, q.dim)
            checked += 1
            reflexive += proven
    assert checked == 52 + 18 + 18
    # all but type B of the five non-bipartite graphs with n <= 4
    assert reflexive == checked - 5


def test_interior_counts_match_the_reference():
    # every dilate the oracle may count the interior of, on A, the
    # suspension and B of every atlas class with n <= 5
    checked = 0
    for g in atlas_graphs(5):
        for q in (build_a(g), build_a(suspension(g)), build_b(g)):
            h_representation(q)
            for t in range(1, q.dim // 2 + 2):
                assert count_points(q, t, interior=True) == count_interior_reference(q, t)
            checked += 1
    assert checked == 3 * 52
    # the point in R^0 is its own relative interior; the segment [-1, 2]
    # has L_int(t) = 3t - 1
    point = build_a(empty_graph(2))
    h_representation(point)
    segment = LatticePolytope(((-1,), (2,), (0,)))
    h_representation(segment)
    for t in range(1, 5):
        assert count_points(point, t, interior=True) == 1
        assert count_interior_reference(point, t) == 1
        assert count_points(segment, t, interior=True) == \
            count_interior_reference(segment, t) == 3 * t - 1


@st.composite
def point_sets(draw):
    """Integer points in [-2, 2]^d, d = 1..5, with repeated points and, in
    low dimension, the cube {-1, 1}^d: a hull with non-simplicial facets
    that holds the origin and the midpoints of its edges inside."""
    d = draw(st.integers(1, 5))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=8))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    if d <= 3 and draw(st.booleans()):
        pts += list(product((-1, 1), repeat=d))
        pts += [(0,) * d] + [(0,) * (d - 1) + (s,) for s in (-1, 1)]
    return pts


@settings(derandomize=True, max_examples=120, deadline=None)
@given(point_sets(), st.none() | st.lists(st.integers(-1, 1), min_size=5, max_size=5))
@example(list(product((-1, 0, 1), repeat=3)), None)  # every face non-simplicial
@example([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 1), (2, 0)], None)
@example([(2, 1, 0, -1, 0), (0, 0, 0, 0, 0)] + [(0,) * k + (1,) + (0,) * (4 - k) for k in range(5)],
         None)
@example([(1, 0), (0, 2), (2, 1), (1, 1)], [1, -1, 0, 0, 0])
def test_random_point_sets_match_references(points, centre):
    if centre is not None:
        # centre +- the drawn points, clipped to [-1, 1]^d to keep the
        # count of every dilate cheap: closed under reflection about the
        # lattice point `centre`, so the walk halves
        points = [tuple(c + s * max(-1, min(1, x)) for c, x in zip(centre, pt))
                  for pt in points for s in (1, -1)]
    q = reduce_to_full_dim_reference(points)
    if centre is not None:
        assert _centre(q.points) is not None
    assert_matches_references(q, q.dim + 1 if q.dim <= 3 else 2)
    assert_half_count_matches_reference(q)


class TestSymmetricWalk:
    """The walk halves at a lattice centre, and walks in full without one:
    every count, of tP and of its interior, equals the box scan."""

    @pytest.mark.parametrize("points, centre", [
        # centres off the lattice
        (((0,), (1,)), None),
        (tuple(product((0, 1), repeat=2)), None),
        # the cross-polytope moved by (3, -2)
        (((4, -2), (2, -2), (3, -1), (3, -3)), (3, -2)),
        # mean (0, 0), a lattice point, but not symmetric about it
        (((-1, -1), (2, -1), (-1, 2)), None),
        # d = 1 and d = 2, the two-coordinate stage at its edges
        (((-3,), (1,), (-1,)), (-1,)),
        (((1, 2), (-1, -2), (2, 1), (-2, -1), (1, -1), (-1, 1), (0, 0)), (0, 0)),
    ], ids=["segment", "square", "moved-cross", "triangle", "d1", "d2"])
    def test_counts_match_box_scan(self, points, centre):
        assert _centre(points) == centre
        q = LatticePolytope(points)
        h_representation(q)
        for t in range(1, 5):
            assert count_points(q, t) == count_points_reference(q, t)
            assert count_points(q, t, interior=True) == count_interior_reference(q, t)


class TestHalfCount:
    """Which dilates the oracle counts, and the overlap of the two halves
    of h* that it checks."""

    def test_non_reflexive_type_b_counts_interior_points(self):
        # L(1..k) and L_int(1..k), k = d//2 + 1, where the full count took
        # L(1..d+1)
        for g, hstar, counts, inner in (
                (cycle_graph(3), Poly([1, 15, 23, 1]), (1, 19, 93), (0, 1, 27)),
                (complete_graph(4), Poly([1, 28, 102, 60, 1]),
                 (1, 33, 257, 1025), (0, 1, 65, 417))):
            q = build_b(g)
            ref = assert_half_count_matches_reference(q)
            assert not _facets_prove_reflexive(q)
            assert counted(q)[1:] == (counts, inner)
            assert ref.hstar == hstar

    def test_segment_at_distance_two(self):
        # mean 0, a lattice point, but each facet x <= 2, -x <= 2 lies at
        # lattice distance 2 from it: L(t) = 4t + 1, L_int(t) = 4t - 1
        q = LatticePolytope(((-2,), (2,)))
        data, counts, inner = counted(q)
        assert not _facets_prove_reflexive(q) and not data.reflexive
        assert (counts, inner) == ((1, 5), (0, 3)) and data.hstar == Poly([1, 3])

    def test_mean_off_the_interior_point(self):
        # the square [-1, 1]^2 is reflexive, but the non-vertex point
        # (1, 0) moves the mean to (1/5, 0): the oracle counts the interior
        square = ((-1, -1), (-1, 1), (1, -1), (1, 1))
        assert counted(LatticePolytope(square))[1:] == ((1, 9, 25), (0,))
        q = LatticePolytope(square + ((1, 0),))
        h_representation(q)
        assert not _facets_prove_reflexive(q)
        data, counts, inner = counted(q)
        assert (counts, inner) == ((1, 9, 25), (0, 1, 9))
        assert data.hstar == Poly([1, 6, 1])
        # the oracle reports what its facets proved, not what h* suggests
        assert not data.reflexive and reflexivity_check(data.hstar, 2)

    def test_box_guard_reads_the_largest_dilate_counted(self):
        # the hexagon's box of tP holds (2t + 1)^2 points, and only
        # t = 1, 2 are counted; type B of a triangle, box (2t + 1)^3, is not
        # reflexive, and it counts L and L_int for t = 1, 2
        hexagon = build_a(cycle_graph(3))
        assert ehrhart_data(hexagon, {"box": 25}).hstar == Poly([1, 4, 1])
        with pytest.raises(BoundExceededError) as exc:
            ehrhart_data(hexagon, {"box": 24})
        assert str(exc.value) == "bounding box of 2P exceeds 24 points"
        assert ehrhart_data(build_b(cycle_graph(3)), {"box": 125}).hstar == \
            Poly([1, 15, 23, 1])
        with pytest.raises(BoundExceededError) as exc:
            ehrhart_data(build_b(cycle_graph(3)), {"box": 124})
        assert str(exc.value) == "bounding box of 2P exceeds 124 points"

    def test_redundant_dilate_catches_a_corrupted_count(self, monkeypatch):
        # A(C5) is reflexive of dimension 4: L(1), L(2) fix h*_0..h*_2, the
        # mirror gives h*_2..h*_4, and L(3) is checked against it; a wrong
        # L(t) for any t counted breaks the overlap
        assert counted(build_a(cycle_graph(5)))[1:] == ((1, 11, 61, 211), (0,))
        messages = []
        for wrong in (1, 2, 3):
            def corrupted(q, t, bounds=None, *, interior=False):
                return count_points(q, t, bounds, interior=interior) + (t == wrong)

            monkeypatch.setattr(ehrhart, "count_points", corrupted)
            with pytest.raises(VerificationError) as exc:
                ehrhart_data(build_a(cycle_graph(5)))
            messages.append(str(exc.value))
        assert messages[2] == "L and L_int disagree on h*_3: 7 != 6"

    def test_overlap_catches_a_corrupted_interior_count(self, monkeypatch):
        # B(K4) is not reflexive, d = 4: L(1..3) give h*_0..h*_3, L_int(1..3)
        # give h*_4..h*_2, and a wrong L_int(t) for any t breaks the overlap
        for wrong in (1, 2, 3):
            def corrupted(q, t, bounds=None, *, interior=False):
                wrong_count = interior and t == wrong
                return count_points(q, t, bounds, interior=interior) + wrong_count

            monkeypatch.setattr(ehrhart, "count_points", corrupted)
            with pytest.raises(VerificationError) as exc:
                ehrhart_data(build_b(complete_graph(4)))
            if wrong == 1:
                assert str(exc.value) == "L and L_int disagree on h*_3: 60 != 55"


class TestGuardsUnchanged:
    """Each guard raises on exactly the inputs past its bound, and its
    message names the work it refused."""

    def test_hrep_dim(self):
        q = build_a(suspension(cycle_graph(4)))
        assert h_representation(q, {"hrep-dim": 4})
        with pytest.raises(BoundExceededError) as exc:
            h_representation(q, {"hrep-dim": 3})
        assert str(exc.value) == "facet enumeration in dimension 4 > 3"

    def test_hrep_points_counts_distinct_points(self):
        pts = ((0, 0), (1, 0), (0, 1), (1, 1), (1, 1), (0, 0))
        assert h_representation(LatticePolytope(pts), {"hrep-points": 4})
        with pytest.raises(BoundExceededError) as exc:
            h_representation(LatticePolytope(pts), {"hrep-points": 3})
        assert str(exc.value) == "4 points > 3"
        # the dimension is checked first
        with pytest.raises(BoundExceededError) as exc:
            h_representation(LatticePolytope(pts),
                             {"hrep-dim": 1, "hrep-points": 3})
        assert str(exc.value) == "facet enumeration in dimension 2 > 1"

    def test_box(self):
        sq = build_b(Graph.make(2, [(1, 2)]))
        h_representation(sq)
        # the box of 3P is [-3, 3]^2: 49 points
        assert count_points(sq, 3, {"box": 49}) == 49
        with pytest.raises(BoundExceededError) as exc:
            count_points(sq, 3, {"box": 48})
        assert str(exc.value) == "bounding box of 3P exceeds 48 points"
        # checked coordinate by coordinate, as a running product
        with pytest.raises(BoundExceededError) as exc:
            count_points(sq, 3, {"box": 6})
        assert str(exc.value) == "bounding box of 3P exceeds 6 points"

    def test_builders_apply_the_facet_guards_first(self):
        # build_a and build_b know d and their number of distinct points
        # before they build one, and trip the same guards in the same order
        for build, g, d, count in ((build_a, complete_graph(5), 4, 20),
                                   (build_b, cycle_graph(4), 4, 24)):
            p = build(g, {"hrep-dim": d, "hrep-points": count})
            assert p.dim == d and len(set(p.points)) == count
            with pytest.raises(BoundExceededError) as exc:
                build(g, {"hrep-dim": d - 1, "hrep-points": count - 1})
            assert str(exc.value) == f"facet enumeration in dimension {d} > {d - 1}"
            with pytest.raises(BoundExceededError) as exc:
                build(g, {"hrep-points": count - 1})
            assert str(exc.value) == f"{count} points > {count - 1}"
