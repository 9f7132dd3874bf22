import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polyseg as ps
from polyseg.geometry import MIN_EDGE_LEN

from helpers import is_simple_table, star_polygon


def _polygon(points):
    """Polygon of the drawn points; draws with coincident neighbours are rejected."""
    try:
        return ps.Polygon(points)
    except ps.DegeneratePolygon:
        assume(False)


@st.composite
def random_polygons(draw):
    """Arbitrary float polylines, mostly self-intersecting."""
    xy = st.floats(0, 50, allow_nan=False)
    return draw(st.lists(st.tuples(xy, xy), min_size=3, max_size=60))


@st.composite
def lattice_polygons(draw):
    """Small-integer polylines: touching vertices, collinear overlapping edges
    and repeated non-consecutive vertices are common."""
    return draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                         min_size=3, max_size=60))


@st.composite
def half_pixel_stars(draw):
    """Star polygons with vertices rounded to the half-pixel lattice."""
    n = draw(st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    th = np.sort(rng.uniform(0, 2 * np.pi, n))
    r = rng.integers(2, 41, n) / 2.0
    pts = np.column_stack([20 + r * np.cos(th), 20 + r * np.sin(th)])
    return np.round(pts * 2) / 2


@st.composite
def pushed_circles(draw):
    """Near-circle contours with one vertex pushed onto or across an edge.

    The circle is rounded to the half-pixel lattice, so pushes to an edge's
    endpoints or midpoint land exactly on the edge.
    """
    n = draw(st.integers(4, 60))
    th = 2 * np.pi * np.arange(n) / n
    pts = np.round(np.column_stack([20 + 15 * np.cos(th), 20 + 15 * np.sin(th)]) * 2) / 2
    a = draw(st.integers(0, n - 1))
    b = draw(st.integers(0, n - 1))
    t = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-0.5, 1.5))
    across = draw(st.sampled_from([0.0, 0.0, 0.25, -0.25]))
    e = pts[(b + 1) % n] - pts[b]
    pts[a] = pts[b] + t * e + across * np.array([e[1], -e[0]])
    return pts


def _dedupe(pts):
    """Drop every vertex equal to its successor (closing pair included)."""
    keep = np.any(pts != np.roll(pts, -1, axis=0), axis=1)
    return pts[keep]


@st.composite
def dense_pushed_circles(draw):
    """Dense half-pixel circles with one vertex pushed onto, exactly at or
    +-0.25 px across a far edge."""
    n = draw(st.integers(200, 1600))
    th = 2 * np.pi * np.arange(n) / n
    r = n / 4.0  # about 1.6 px per edge: rounding keeps neighbours apart
    pts = np.round(np.column_stack([r + 5 + r * np.cos(th),
                                    r + 5 + r * np.sin(th)]) * 2) / 2
    a = draw(st.integers(0, n - 1))
    b = (a + draw(st.integers(2, n - 3))) % n
    t = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-0.5, 1.5))
    across = draw(st.sampled_from([0.0, 0.0, 0.25, -0.25]))
    e = pts[(b + 1) % n] - pts[b]
    pts[a] = pts[b] + t * e + across * np.array([e[1], -e[0]]) / np.hypot(*e)
    return pts


@st.composite
def pinched_arcs(draw):
    """Two facing circular arcs pinched into a neck 0-1 px wide (or crossed),
    joined at their ends: an hourglass."""
    m = draw(st.integers(100, 800))
    gap = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.25]) | st.floats(0, 1))
    radius = draw(st.sampled_from([m / 2.0, float(m), 2.0 * m]))
    arcs = []
    for sign in (-1.0, 1.0):
        # the lower arc runs right to left, the upper one back
        phase = draw(st.sampled_from([0.0, 0.5]) | st.floats(0, 1))
        phi = sign * ((np.arange(m) + phase) * (2.0 / m) - 1.0)
        arcs.append(np.column_stack([radius * np.sin(phi),
                                     sign * (radius + gap / 2 - radius * np.cos(phi))]))
    return _dedupe(np.concatenate(arcs))


@st.composite
def snapped_stars(draw):
    """Dense stars snapped to the pixel lattice and walked as a staircase:
    many vertical edges of zero x-width with tied min-x."""
    n = draw(st.integers(200, 1600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    th = 2 * np.pi * np.arange(n) / n
    r = n / 8.0 * (1 + 0.2 * np.cos(rng.integers(2, 9) * th + rng.uniform(0, 2 * np.pi)))
    r = r + rng.uniform(-0.6, 0.6, n) * draw(st.sampled_from([0.0, 1.0, 3.0]))
    lat = np.round(np.column_stack([r * np.cos(th), r * np.sin(th)]))
    if draw(st.booleans()):
        corner = np.column_stack([lat[:, 0], np.roll(lat[:, 1], -1)])
        lat = np.stack([lat, corner], axis=1).reshape(-1, 2)
    return _dedupe(lat)


@st.composite
def corner_touching_combs(draw):
    """Two facing zig-zags whose teeth boxes meet at corners, edges or not
    at all, as the gap and the shift of the lower comb decide."""
    m = draw(st.integers(50, 400))
    gap = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, -0.5]))
    shift = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    xs = np.arange(2 * m + 1, dtype=float)
    upper = np.column_stack([xs, gap + (xs % 2)])
    lower = np.column_stack([xs + shift, -(xs % 2)])
    left = [(-3.0, gap + 5.0), (-3.0, -5.0)]
    right = [(2 * m + 3.0, -5.0), (2 * m + 3.0, gap + 5.0)]
    return _dedupe(np.concatenate([upper[::-1], left, lower, right]))


class TestPolygonValidation:
    def test_too_few_vertices(self):
        with pytest.raises(ps.DegeneratePolygon):
            ps.Polygon([(0, 0), (1, 0)])

    def test_coincident_vertices(self):
        with pytest.raises(ps.DegeneratePolygon):
            ps.Polygon([(0, 0), (0, 0), (1, 1)])

    def test_nonfinite(self):
        with pytest.raises(ps.DegeneratePolygon):
            ps.Polygon([(0, 0), (1, np.nan), (1, 1)])

    def test_not_n_by_2(self):
        with pytest.raises(ps.DegeneratePolygon, match=r"\(n, 2\)"):
            ps.Polygon(np.zeros((4, 3)))

    def test_min_edge_is_strict(self):
        with pytest.raises(ps.DegeneratePolygon):
            ps.Polygon([(0, 0), (MIN_EDGE_LEN * 0.5, 0), (1, 1)])

    def test_edges_and_lengths_read_only(self):
        p = ps.Polygon([(0, 0), (3, 0), (3, 4)])
        assert p.edges.tolist() == [[3, 0], [0, 4], [-3, -4]]  # closing edge last
        assert p.lengths.tolist() == [3, 4, 5]
        for arr in (p.points, p.edges, p.lengths):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestEnsureCcw:
    def test_cw_square_reversed(self):
        p = ps.Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        out = ps.ensure_ccw(p)
        assert out.points.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]

    def test_ccw_triangle_unchanged(self):
        p = ps.Polygon([(0, 0), (2, 0), (0, 2)])
        assert ps.ensure_ccw(p) is p

    def test_collinear_degenerate(self):
        p = ps.Polygon([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(ps.DegeneratePolygon):
            ps.ensure_ccw(p)

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                    min_size=3, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_positive_area_after_normalization(self, coords):
        try:
            p = ps.Polygon(coords)
            out = ps.ensure_ccw(p)
        except ps.DegeneratePolygon:
            return
        assert ps.polygon_area(out) > 0


class TestAreaPerimeter:
    def test_unit_square(self):
        p = ps.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert ps.polygon_area(p) == pytest.approx(1.0)
        assert ps.polygon_perimeter(p) == pytest.approx(4.0)

    def test_triangle(self):
        assert ps.polygon_area(ps.Polygon([(0, 0), (2, 0), (0, 2)])) == pytest.approx(2.0)
        assert ps.polygon_perimeter(
            ps.Polygon([(0, 0), (3, 0), (0, 4)])
        ) == pytest.approx(12.0)

    def test_regular_100gon(self):
        # closed forms for a regular n-gon inscribed in radius r
        n, r = 100, 50.0
        p = ps.init_circle((0, 0), r, n)
        assert ps.polygon_area(p) == pytest.approx(0.5 * n * r * r * math.sin(2 * math.pi / n), rel=1e-12)
        assert ps.polygon_perimeter(p) == pytest.approx(2 * n * r * math.sin(math.pi / n), rel=1e-12)


class TestNormals:
    def test_coincident_neighbours(self):
        # vertex 1's neighbours are both (0, 0): no tangent
        p = ps.Polygon([(0, 0), (1, 0), (0, 0), (0, 1)])
        with pytest.raises(ps.DegeneratePolygon, match="neighbors of a vertex coincide"):
            ps.outward_normals(p)

    def test_regular_octagon_radial(self):
        p = ps.init_circle((0, 0), 3.0, 8)
        n = ps.outward_normals(p)
        assert np.abs(n - p.points / 3.0).max() < 1e-12

    def test_square_corner_diagonals(self):
        p = ps.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        n = ps.outward_normals(p)
        s = math.sqrt(2) / 2
        expect = np.array([[-s, -s], [s, -s], [s, s], [-s, s]])
        assert np.abs(n - expect).max() < 1e-12

    def test_orientation_normalized_normals_match(self):
        pts = [(0, 0), (2, 0.2), (2.5, 1.5), (1, 2.4), (-0.5, 1.2)]
        ccw = ps.ensure_ccw(ps.Polygon(pts))
        cw = ps.ensure_ccw(ps.Polygon(pts[::-1]))
        n1 = ps.outward_normals(ccw)
        n2 = ps.outward_normals(cw)
        # same vertex cycle possibly rotated; compare per-coordinate lookup
        lut = {tuple(v): n for v, n in zip(cw.points.tolist(), n2.tolist())}
        for v, n in zip(ccw.points.tolist(), n1.tolist()):
            assert np.abs(np.array(lut[tuple(v)]) - n).max() < 1e-12

    def test_unit_length(self):
        p = star_polygon(3, n=50)
        n = ps.outward_normals(p)
        assert np.abs(np.hypot(n[:, 0], n[:, 1]) - 1.0).max() < 1e-12

    def test_points_outward_for_convex(self):
        p = ps.init_circle((5, 7), 4.0, 17)
        n = ps.outward_normals(p)
        centroid = p.points.mean(axis=0)
        assert np.all(np.sum(n * (p.points - centroid), axis=1) > 0)


class TestCurvature:
    @pytest.mark.parametrize("n", [3, 4, 7, 12, 100])
    @pytest.mark.parametrize("r", [0.5, 3.0, 50.0])
    def test_regular_ngon_exact(self, n, r):
        p = ps.init_circle((1, -2), r, n)
        k = ps.discrete_curvature(p)
        assert np.abs(k - 1.0 / r).max() < 1e-10

    def test_collinear_middle_vertex(self):
        p = ps.Polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
        assert ps.discrete_curvature(p)[1] == 0.0

    def test_reflection_invariance(self):
        p = star_polygon(11, n=30)
        refl = p.points.copy()
        refl[:, 1] = -refl[:, 1]
        q = ps.ensure_ccw(ps.Polygon(refl))
        k1 = ps.discrete_curvature(p)
        k2 = ps.discrete_curvature(q)
        # reflection + re-orientation maps vertex i to (n - i) mod n
        n = len(p)
        mapped = np.array([k2[(n - i) % n] for i in range(n)])
        assert np.abs(k1 - mapped).max() < 1e-12


class TestAreaDerivativeLaw:
    def test_single_vertex_normal_displacement(self):
        # displacing v_i by delta along the outward normal changes the area
        # by delta * w_i within 0.1% on smooth polygons (central difference)
        delta = 1e-4
        for seed in range(20):
            p = star_polygon(seed, n=150, center=(0, 0), r_mean=30, amp=0.08)
            nrm = ps.outward_normals(p)
            w = ps.vertex_weights(p)
            for i in range(0, len(p), 15):
                plus = p.points.copy()
                plus[i] += delta * nrm[i]
                minus = p.points.copy()
                minus[i] -= delta * nrm[i]
                fd = (
                    ps.polygon_area(ps.Polygon(plus))
                    - ps.polygon_area(ps.Polygon(minus))
                ) / (2 * delta)
                assert abs(fd - w[i]) / w[i] < 1e-3


class TestResample:
    def test_square_to_eight(self):
        p = ps.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        out = ps.resample_uniform(p, 8)
        expect = np.array(
            [[0, 0], [0.5, 0], [1, 0], [1, 0.5], [1, 1], [0.5, 1], [0, 1], [0, 0.5]]
        )
        assert np.abs(out.points - expect).max() < 1e-12

    def test_fixed_point_on_uniform_polygon(self):
        p = ps.init_circle((3, 4), 10.0, 40)
        out = ps.resample_uniform(p, 40)
        assert np.abs(out.points - p.points).max() < 1e-9

    def test_perimeter_preserved_on_refinement(self):
        p = ps.init_circle((0, 0), 50.0, 100)
        out = ps.resample_uniform(p, 200)
        assert abs(ps.polygon_perimeter(out) - ps.polygon_perimeter(p)) < 0.005 * ps.polygon_perimeter(p)

    def test_edge_length_ratio(self):
        # equal arc-length spacing gives near-equal chords on smooth curves
        for seed in range(10):
            p = star_polygon(seed, n=48, r_mean=20, amp=0.15)
            out = ps.resample_uniform(p, 60)
            e = np.roll(out.points, -1, axis=0) - out.points
            lens = np.hypot(e[:, 0], e[:, 1])
            assert lens.max() / lens.min() < 1.01

    def test_anchors_first_vertex(self):
        p = star_polygon(5, n=21)
        out = ps.resample_uniform(p, 33)
        assert np.array_equal(out.points[0], p.points[0])

    def test_bad_target(self):
        p = ps.init_circle((0, 0), 1.0, 5)
        with pytest.raises(ps.DegeneratePolygon):
            ps.resample_uniform(p, 2)


class TestIsSimple:
    def test_square(self):
        assert ps.is_simple(ps.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]))

    def test_bowtie(self):
        assert not ps.is_simple(ps.Polygon([(0, 0), (1, 1), (1, 0), (0, 1)]))

    def test_star_50gon_vs_brute_force(self):
        p = star_polygon(7, n=50, r_mean=20, amp=0.3)
        assert ps.is_simple(p)
        # brute-force all-pairs oracle
        pts = p.points
        n = len(p)

        def seg_int(p1, p2, q1, q2):
            def cross(o, a, b):
                return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

            d1, d2 = cross(q1, q2, p1), cross(q1, q2, p2)
            d3, d4 = cross(p1, p2, q1), cross(p1, p2, q2)
            return d1 * d2 < 0 and d3 * d4 < 0

        for i in range(n):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                assert not seg_int(
                    pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]
                )

    def test_touching_counts_as_non_simple(self):
        # vertex of one edge lies on a non-adjacent edge
        p = ps.Polygon([(0, 0), (4, 0), (4, 4), (2, 0.0), (0, 4)])
        assert not ps.is_simple(p)

    @pytest.mark.parametrize("points, expected", [
        # T-junction: a vertex in the interior of a non-adjacent edge
        ([(0, 0), (6, 0), (6, 4), (4, 4), (3, 0), (2, 4), (0, 4)], False),
        # collinear overlap: edge (3,0)-(1,0) runs along edge (0,0)-(4,0)
        ([(0, 0), (4, 0), (4, 3), (3, 3), (3, 0), (1, 0), (1, 3), (0, 3)], False),
        # a vertex visited twice, not consecutively (figure of eight)
        ([(0, 0), (2, 2), (4, 0), (4, 4), (2, 2), (0, 4)], False),
        # a triangle has no non-adjacent edges, even when collinear
        ([(0, 0), (1, 0), (2, 0)], True),
        # concave but simple
        ([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)], True),
        # an edge folding back along its neighbour
        ([(0, 0), (4, 0), (2, 0), (2, 3)], False),
    ])
    def test_explicit_cases(self, points, expected):
        # every cyclic rotation of both orientations: some rotation puts each
        # edge, the fold-back included, on the closing edge, where the
        # adjacency test wraps around
        pts = np.array(points, dtype=np.float64)
        for base in (pts, pts[::-1]):
            for shift in range(len(pts)):
                p = ps.Polygon(np.roll(base, shift, axis=0))
                assert is_simple_table(p) is expected
                assert ps.is_simple(p) is expected

    @given(random_polygons() | lattice_polygons() | half_pixel_stars() | pushed_circles())
    @settings(max_examples=600, deadline=None)
    def test_matches_table_oracle(self, points):
        p = _polygon(points)
        assert ps.is_simple(p) == is_simple_table(p)

    @given(dense_pushed_circles() | pinched_arcs() | snapped_stars()
           | corner_touching_combs())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_dense_matches_table_oracle(self, points):
        p = _polygon(points)
        assert ps.is_simple(p) == is_simple_table(p)

    def test_collinear_edges_with_disjoint_boxes(self):
        # A, B, C and D lie on one line in decimal; as floats the rounding
        # of the orientations makes AB and CD straddle each other in the
        # table, although their bounding boxes are disjoint
        p = ps.Polygon([(6.08, 4.44), (4.24, 2.72), (1.48, 0.14), (-1.28, -2.44),
                        (4.98, -1.76)])
        assert not is_simple_table(p)
        assert ps.is_simple(p)

    def test_scales_to_dense_contours(self):
        n = 1600
        th = 2 * np.pi * np.arange(n) / n
        r = 300 + np.random.default_rng(0).uniform(-0.3, 0.3, n)
        p = ps.Polygon(np.column_stack([r * np.cos(th), r * np.sin(th)]))
        tracemalloc.start()
        try:
            assert ps.is_simple(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6  # the n x n table needs 46 MB
        # every chain edge spans the whole width: O(m^2) pairs overlap in x
        m = 400
        chain = np.column_stack([np.where(np.arange(m) % 2, 100.0, 0.0), np.arange(m)])
        wall = [(-1.0, m), (-1.0, -1.0)]
        zigzag = np.concatenate([chain, wall])
        crossed = zigzag.copy()
        crossed[m // 2, 1] += 2.5
        for pts, expected in ((zigzag, True), (crossed, False)):
            p = ps.Polygon(pts)
            assert is_simple_table(p) is expected
            assert ps.is_simple(p) is expected


class TestPolygonIo:
    def test_round_trip(self, tmp_path):
        p = star_polygon(2, n=17)
        path = tmp_path / "poly.txt"
        ps.write_polygon(p, path)
        q = ps.read_polygon(path)
        assert np.abs(q.points - p.points).max() < 1e-9

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text("# header\n0 0\n\n2 0\n # indented comment\n1 2\n")
        q = ps.read_polygon(path)
        assert q.points.tolist() == [[0, 0], [2, 0], [1, 2]]

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n1\n2 2\n")
        with pytest.raises(ps.ParseError):
            ps.read_polygon(path)

    def test_bad_coordinate(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n1 x\n2 2\n")
        with pytest.raises(ps.ParseError, match="bad.txt:2: bad coordinate"):
            ps.read_polygon(path)

    def test_too_few(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("0 0\n1 1\n")
        with pytest.raises(ps.DegeneratePolygon):
            ps.read_polygon(path)
