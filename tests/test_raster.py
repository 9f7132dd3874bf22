import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import polyseg as ps
import polyseg.backend
from helpers import (
    brute_force_mask,
    full_field_stats,
    naive_region_sums,
    region_stats,
    star_polygon,
    winding_numbers,
)

FRAME = 64


def _field(channels):
    rng = np.random.default_rng(channels)
    data = rng.uniform(0, 1, (FRAME, FRAME, channels))
    return ps.Image(data, ps.GRAY if channels == 1 else ps.RGB)


# one gray and one 3-channel image, shared by every example
FIELDS = {c: _field(c) for c in (1, 3)}


@st.composite
def star_polygons(draw):
    """Random star polygons; centres and radii reach outside the frame."""
    n = draw(st.integers(3, 60))
    cx = draw(st.floats(-20, FRAME + 20))
    cy = draw(st.floats(-20, FRAME + 20))
    r_mean = draw(st.floats(0.5, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    th = np.sort(rng.uniform(0, 2 * np.pi, n))
    r = r_mean * rng.uniform(0.3, 1.0, n)
    return np.column_stack([cx + r * np.cos(th), cy + r * np.sin(th)])


@st.composite
def lattice_polygons(draw):
    """Closed polylines with vertices on the half-pixel lattice.

    Vertices on pixel centres and edges running through them exercise the
    half-open top-left rule; the polylines may self-intersect and leave the
    frame.
    """
    coord = st.integers(-16, 2 * FRAME + 16).map(lambda v: v / 2.0)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=12))
    pts = [q for i, q in enumerate(pts) if q != pts[i - 1]]
    assume(len(pts) >= 3)
    return np.array(pts)


class TestRasterizeMask:
    def test_axis_aligned_square(self):
        p = ps.Polygon([(0.5, 0.5), (3.5, 0.5), (3.5, 3.5), (0.5, 3.5)])
        m = ps.rasterize_mask(ps.ensure_ccw(p), 5, 5)
        assert m.sum() == 9
        assert m[1:4, 1:4].all()

    def test_outside_frame_is_empty(self):
        p = ps.Polygon([(100, 100), (110, 100), (105, 110)])
        with pytest.raises(ps.EmptyRegion):
            ps.rasterize_mask(p, 20, 20)

    @pytest.mark.parametrize("seed", range(4))
    def test_against_brute_force(self, seed):
        p = star_polygon(seed, n=30, center=(32, 32), r_mean=18, amp=0.35)
        m = ps.rasterize_mask(p, 64, 64)
        assert np.array_equal(m, brute_force_mask(p.points, 64, 64))

    def test_edges_just_past_pixel_centers(self):
        # edges 1e-17 px below row 0 and right of column 0 leave both out;
        # the crossing arithmetic must not round the offset away
        pts = np.array([(1e-17, 1e-17), (5, 1e-17), (5, 5), (1e-17, 5)])
        m = ps.rasterize_mask(ps.Polygon(pts), 8, 8)
        assert np.array_equal(m, brute_force_mask(pts, 8, 8))
        assert m.sum() == 16

    def test_cyclic_rotation_invariance(self):
        p = star_polygon(9, n=24, center=(16, 16), r_mean=10)
        m0 = ps.rasterize_mask(p, 32, 32)
        for shift in (1, 7, 23):
            q = ps.Polygon(np.roll(p.points, shift, axis=0))
            assert np.array_equal(ps.rasterize_mask(q, 32, 32), m0)

    def test_area_bound_for_refined_disk(self):
        # inside count approaches the continuous area within a boundary band
        r = 30.0
        p = ps.init_circle((64, 64), r, 400)
        m = ps.rasterize_mask(p, 128, 128)
        assert abs(float(m.sum()) - math.pi * r * r) < 2 * ps.polygon_perimeter(p)


class TestRegionStats:
    def test_constant_image(self):
        data = np.full((10, 10), 0.5)
        img = ps.Image(data, ps.GRAY)
        mask = np.zeros((10, 10), dtype=bool)
        mask[0, :] = True  # 10 of 100 pixels
        st_ = region_stats(img, mask)
        assert st_.area_in == 10
        assert st_.s1_in[0] == pytest.approx(5.0)
        assert st_.s2_in[0] == pytest.approx(2.5)
        assert st_.s1_out[0] == pytest.approx(45.0)

    def test_indicator_disk(self):
        img = ps.synth_shape("disk", 64, 64, 1.0, 0.0, {"cx": 32, "cy": 32, "r": 20})
        mask = img.data[:, :, 0] == 1.0
        st_ = region_stats(img, mask)
        assert st_.s2_in[0] == st_.s1_in[0]  # f in {0,1} so f^2 == f
        assert st_.s1_out[0] == 0.0

    @given(st.integers(0, 10_000), st.sampled_from([1, 3]))
    @settings(max_examples=12, deadline=None)
    def test_against_naive_oracle(self, seed, channels):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0, 1, (16, 16, channels))
        mask = rng.uniform(0, 1, (16, 16)) > 0.5
        if not mask.any() or mask.all():
            return
        img = ps.Image(data, ps.GRAY if channels == 1 else ps.RGB)
        st_ = region_stats(img, mask)
        n_in, s1i, s2i, s1o, s2o = naive_region_sums(data, mask)
        assert st_.area_in == n_in
        assert np.abs(st_.s1_in - s1i).max() < 1e-9
        assert np.abs(st_.s2_in - s2i).max() < 1e-9
        assert np.abs(st_.s1_out - s1o).max() < 1e-9
        assert np.abs(st_.s2_out - s2o).max() < 1e-9

    def test_conservation_identity(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 1, (32, 32, 3))
        img = ps.Image(data, ps.RGB)
        mask = rng.uniform(0, 1, (32, 32)) > 0.3
        st_ = region_stats(img, mask)
        assert np.abs(st_.s1_in + st_.s1_out - data.sum(axis=(0, 1))).max() < 1e-9
        assert st_.area_in + st_.area_out == 32 * 32

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(5)
        data = rng.uniform(0, 1, (20, 20, 1))
        img = ps.Image(data, ps.GRAY)
        mask = rng.uniform(0, 1, (20, 20)) > 0.5
        st_ = region_stats(img, mask)
        assert st_.s2_in[0] >= st_.s1_in[0] ** 2 / st_.area_in - 1e-12
        assert st_.s2_out[0] >= st_.s1_out[0] ** 2 / st_.area_out - 1e-12

    def test_empty_side(self):
        img = ps.Image(np.zeros((4, 4)), ps.GRAY)
        with pytest.raises(ps.EmptyRegion):
            region_stats(img, np.ones((4, 4), dtype=bool))

    def test_dimension_mismatch(self):
        img = ps.Image(np.zeros((4, 4)), ps.GRAY)
        with pytest.raises(ValueError):
            region_stats(img, np.zeros((5, 5), dtype=bool))


class TestSupersampled:
    def test_factor_one_degenerates_to_energy(self, blob64):
        p = star_polygon(1, n=25, center=(32, 32), r_mean=14)
        a = ps.supersampled_energy(ps.SupersampledEvaluator(blob64, 1), p, 0.07)
        b = ps.energy(blob64, p, 0.07)
        assert (a.e1, a.e2, a.e3, a.total) == (b.e1, b.e2, b.e3, b.total)

    @pytest.mark.parametrize("factor", [2, 4, 8, 16])
    def test_constant_image_zero_variance(self, factor):
        img = ps.Image(np.full((24, 24), 0.4), ps.GRAY)
        p = ps.init_circle((12, 12), 8, 20)
        eb = ps.supersampled_energy(ps.SupersampledEvaluator(img, factor), p, 0.1)
        assert eb.e1 < 1e-12 and eb.e2 < 1e-12
        assert eb.total == pytest.approx(0.1 * ps.polygon_perimeter(p))

    def test_disk_energy_matches_closed_form(self):
        # two-value disk, contour circle inside it; continuous closed form.
        # Bilinear subsampling blurs the pixelated value edge over ~2 px, so
        # the outside variance sits below the sharp-edge closed form by a
        # boundary-band deficit bounded by (A-B)^2 * 2*perimeter / |O^c|.
        W = H = 128
        Rd, A, B = 44.0, 0.9, 0.1
        img = ps.synth_shape("disk", W, H, A, B, {"cx": 64, "cy": 64, "r": Rd})
        rc = 30.0
        p = ps.init_circle((64, 64), rc, 256)
        eb = ps.supersampled_energy(ps.SupersampledEvaluator(img, 16), p, 0.0)
        a1 = math.pi * (Rd**2 - rc**2)
        a2 = W * H - math.pi * Rd**2
        mu = (A * a1 + B * a2) / (a1 + a2)
        e2_closed = (A**2 * a1 + B**2 * a2) / (a1 + a2) - mu**2
        band_bound = (A - B) ** 2 * 2 * (2 * math.pi * Rd) / (a1 + a2)
        assert eb.e1 == pytest.approx(0.0, abs=1e-12)
        assert abs(eb.e2 - e2_closed) < band_bound
        assert eb.e2 == pytest.approx(e2_closed, rel=0.03)

    def test_fractional_area_tracks_polygon(self):
        img = ps.Image(np.full((64, 64), 0.3), ps.GRAY)
        ev = ps.SupersampledEvaluator(img, 8)
        p = ps.init_circle((32, 32), 20, 200)
        st_ = ev.stats(p)
        assert st_.area_in == pytest.approx(ps.polygon_area(p), rel=2e-3)

    def test_multichannel_sums_per_channel(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 1, (32, 32, 3))
        img = ps.Image(data, ps.RGB)
        p = ps.init_circle((16, 16), 10, 40)
        stacked = ps.supersampled_energy(ps.SupersampledEvaluator(img, 8), p, 0.05)
        parts = [
            ps.supersampled_energy(
                ps.SupersampledEvaluator(ps.Image(data[:, :, c], ps.GRAY), 8), p, 0.0
            )
            for c in range(3)
        ]
        assert stacked.e1 == pytest.approx(sum(x.e1 for x in parts), abs=1e-12)
        assert stacked.e2 == pytest.approx(sum(x.e2 for x in parts), abs=1e-12)

    def test_invalid_factor(self):
        img = ps.Image(np.zeros((8, 8)), ps.GRAY)
        with pytest.raises(ValueError):
            ps.SupersampledEvaluator(img, 3)

    def test_sliver_between_sample_rows_is_empty(self):
        # factor-16 sample rows sit at y = 10.03125 and 10.09375: the sliver
        # lies between them and crosses none
        img = ps.Image(np.full((24, 24), 0.4), ps.GRAY)
        p = ps.Polygon([(5.0, 10.04), (20.0, 10.05), (12.0, 10.08)])
        with pytest.raises(ps.EmptyRegion):
            ps.SupersampledEvaluator(img, 16).stats(p)

    @pytest.mark.parametrize("factor", [1, 16])
    @pytest.mark.parametrize("ys", [(1e19, 2e19, 3e19), (-3e19, -2e19, -1e19)])
    def test_polygon_far_off_the_frame_is_empty(self, factor, ys):
        # its scanline rows lie beyond int64's range: they are clipped to
        # the frame before the cast, which would otherwise warn of an
        # invalid value, and span no row
        img = ps.Image(np.full((24, 24), 0.4), ps.GRAY)
        p = ps.Polygon([(5.0, ys[0]), (20.0, ys[1]), (12.0, ys[2])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ps.EmptyRegion):
                ps.SupersampledEvaluator(img, factor).stats(p)
            with pytest.raises(ps.EmptyRegion):
                ps.rasterize_mask(p, 24, 24)


class TestEvaluatorMatchesMask:
    """Factor-1 crossing stats against the mask fill plus moments sum.

    Polylines that are not simple are checked against winding-number-
    weighted sums instead, the rule the crossing stats follow.
    """

    @staticmethod
    def check(points, channels):
        img = FIELDS[channels]
        p = ps.Polygon(points)
        try:
            ref = region_stats(img, ps.rasterize_mask(p, FRAME, FRAME))
        except ps.EmptyRegion:
            with pytest.raises(ps.EmptyRegion):
                ps.SupersampledEvaluator(img, 1).stats(p)
            return
        got = ps.SupersampledEvaluator(img, 1).stats(p)
        assert got.area_in == ref.area_in
        assert got.area_out == ref.area_out
        # prefix differences and a masked sum round differently; both split
        # the same frame total, which sets the scale of the rounding
        for name, total in (("s1", img.data.sum(axis=(0, 1))),
                            ("s2", (img.data**2).sum(axis=(0, 1)))):
            for side in ("in", "out"):
                a = getattr(got, f"{name}_{side}")
                b = getattr(ref, f"{name}_{side}")
                assert np.all(np.abs(a - b) <= 1e-12 * total), (name, side)

    @staticmethod
    def check_winding(points, channels):
        """Each pixel counts with its winding number, whatever the polyline."""
        img = FIELDS[channels]
        p = ps.Polygon(points)
        wn = winding_numbers(p.points, FRAME, FRAME)
        area = int(wn.sum())
        if area < 0:  # the overall sign is the orientation's
            wn, area = -wn, -area
        if not 0 < area < FRAME * FRAME:
            with pytest.raises(ps.EmptyRegion):
                ps.SupersampledEvaluator(img, 1).stats(p)
            return
        got = ps.SupersampledEvaluator(img, 1).stats(p)
        assert got.area_in == area
        assert got.area_out == FRAME * FRAME - area
        for name, values in (("s1", img.data), ("s2", img.data**2)):
            total = values.sum(axis=(0, 1))
            inside = (wn[:, :, None] * values).sum(axis=(0, 1))
            for side, ref in (("in", inside), ("out", total - inside)):
                a = getattr(got, f"{name}_{side}")
                assert np.all(np.abs(a - ref) <= 1e-12 * total), (name, side)

    @given(star_polygons(), st.sampled_from([1, 3]), st.booleans())
    @settings(max_examples=80, deadline=None)
    # a triangle between two rows of pixel centres crosses no scanline
    @example(points=[(10.2, 5.1), (20.7, 5.4), (14.0, 5.9)], channels=1, reverse=False)
    # a polygon wholly above and left of the frame
    @example(points=[(-9.0, -9.0), (-3.0, -8.0), (-5.0, -2.0)], channels=3, reverse=False)
    # an angular gap above pi lets a star cross itself: area 130 by winding
    # number, 128 pixels in the even-odd mask
    @example(points=[(11.92087537, 17.52952742), (9.89892055, 20.23736434),
                     (9.03820968, 20.76462467), (4.66518896, 24.28194362),
                     (3.86342512, 18.85366542), (0.43587621, 11.95320894),
                     (-3.19993854, -0.22868031), (1.08492953, 0.82823),
                     (-2.08256275, -2.78104189)], channels=1, reverse=False)
    def test_star_polygons(self, points, channels, reverse):
        points = np.asarray(points)[::-1] if reverse else points
        if ps.is_simple(ps.Polygon(points)):
            self.check(points, channels)
        else:
            self.check_winding(points, channels)

    @given(lattice_polygons(), st.sampled_from([1, 3]))
    @settings(max_examples=80, deadline=None)
    # a bow-tie with lobes of 45 and 225 pixels: area 180, where even-odd
    # counting would give 270
    @example(points=[(10.5, 10.0), (40.5, 41.0), (40.5, 20.0), (10.5, 20.0)], channels=1)
    # a bow-tie mirrored about x = 20.5, no pixel centre on an edge: its
    # lobes cancel, so the inside is empty
    @example(points=[(10.5, 10.0), (30.5, 31.0), (30.5, 10.0), (10.5, 31.0)], channels=3)
    def test_lattice_polygons(self, points, channels):
        """Self-intersecting polylines: each pixel counts with its winding number."""
        self.check_winding(points, channels)


# (height, width): a frame, one pixel row, one pixel column
SHAPES = ((20, 24), (1, 24), (20, 1))
SHAPED = {(hw, c): ps.Image(np.random.default_rng(hw[0] + 7 * hw[1] + c)
                            .uniform(0, 1, (*hw, c)), ps.GRAY if c == 1 else ps.RGB)
          for hw in SHAPES for c in (1, 3)}


@st.composite
def frame_stars(draw):
    """Random star polygons on the frame of a shape in SHAPES.

    Centres lie up to 30% of each side outside the frame and radii reach
    past it, so polygons cover the frame, clip it or miss it.
    """
    h, w = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(3, 40))
    cx = draw(st.floats(-0.3, 1.3)) * w
    cy = draw(st.floats(-0.3, 1.3)) * h
    r_mean = draw(st.floats(0.3, 1.2)) * max(h, w)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    th = np.sort(rng.uniform(0, 2 * np.pi, n))
    r = r_mean * rng.uniform(0.3, 1.0, n)
    return (h, w), np.column_stack([cx + r * np.cos(th), cy + r * np.sin(th)])


class TestBlendedRowsMatchFullField:
    """Factor > 1 stats from blended pixel rows against the upsampled field."""

    @given(frame_stars(), st.sampled_from([1, 3]), st.sampled_from([2, 4, 8, 16]),
           st.booleans())
    @settings(max_examples=150, deadline=None, derandomize=True)
    # the sliver between two factor-16 sample rows: both sides find it empty
    @example(star=((20, 24), [(5.0, 10.04), (20.0, 10.05), (12.0, 10.08)]),
             channels=1, factor=16, reverse=False)
    def test_star_polygons(self, star, channels, factor, reverse):
        shape, points = star
        img = SHAPED[shape, channels]
        p = ps.Polygon(points[::-1] if reverse else points)
        try:
            ref = full_field_stats(img, factor, p)
        except ps.EmptyRegion:
            with pytest.raises(ps.EmptyRegion):
                ps.SupersampledEvaluator(img, factor).stats(p)
            return
        got = ps.SupersampledEvaluator(img, factor).stats(p)
        assert got.area_in == ref.area_in
        assert got.area_out == ref.area_out
        # the blend and the field's prefix sums round differently; both
        # split the same frame total, which sets the scale of the rounding
        for name in ("s1", "s2"):
            total = getattr(ref, f"{name}_in") + getattr(ref, f"{name}_out")
            for side in ("in", "out"):
                a = getattr(got, f"{name}_{side}")
                b = getattr(ref, f"{name}_{side}")
                assert np.all(np.abs(a - b) <= 1e-14 * total), (name, side)

    def test_set_up_memory_is_a_few_pixel_row_tables(self):
        # the factor-16 set-up builds (H, 16W+1) tables, not the (16H, 16W)
        # field: its peak stays below six such tables
        img = ps.Image(np.random.default_rng(0).uniform(0, 1, (256, 256)), ps.GRAY)
        bound = 6 * 256 * (16 * 256 + 1) * 8
        tracemalloc.start()
        try:
            ps.SupersampledEvaluator(img, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


# one evaluator per (channels, factor) on the FIELDS images
EVALUATORS = {(c, f): ps.SupersampledEvaluator(FIELDS[c], f) for c in (1, 3) for f in (1, 2, 16)}


@st.composite
def star_moves(draw):
    """A star polygon and moves of some of its vertices.

    A move shifts its vertex by a few pixels, reflects it through the
    vertex centroid (far side of the polygon: the moved polygon may cross
    itself or turn over) or pushes it 200 px off the frame.
    """
    points = draw(star_polygons())
    index = draw(st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=8))
    centroid = points.mean(axis=0)
    targets = []
    for i in index:
        kind = draw(st.sampled_from(["shift", "reflect", "off_frame"]))
        if kind == "shift":
            targets.append(points[i] + draw(st.tuples(st.floats(-4, 4), st.floats(-4, 4))))
        elif kind == "reflect":
            targets.append(2.0 * centroid - points[i])
        else:
            away = draw(st.sampled_from([(-200, 0), (200, 0), (0, -200), (0, 200)]))
            targets.append(points[i] + away)
    return points, index, targets


class TestMovedStats:
    """Moved-edge stats against the stats of each moved polygon in full."""

    @staticmethod
    def moves_of(kept):
        """(index, points) of (vertex, moved polygon) pairs."""
        return [i for i, _ in kept], [q.points[i] for i, q in kept]

    def check(self, points, index, targets, channels, factor):
        ev = EVALUATORS[channels, factor]
        p = ps.Polygon(points)
        kept, refs = [], []  # every move that gives a polygon, and its stats
        for i, q in zip(index, targets):
            pts = p.points.copy()
            pts[i] = q
            try:
                moved = ps.Polygon(pts)
            except ps.DegeneratePolygon:
                continue
            try:
                ref = ev.stats(moved)
            except ps.EmptyRegion:
                ref = None
            kept.append((i, moved))
            refs.append(ref)
        if any(r is None for r in refs):  # a move that empties a side fails the batch
            with pytest.raises(ps.EmptyRegion):
                ev.moved_stats(p, *self.moves_of(kept))
        # the batch of the other moves, row by row
        got = ev.moved_stats(p, *self.moves_of([m for m, r in zip(kept, refs) if r is not None]))
        refs = [r for r in refs if r is not None]
        assert got.area_in.shape == (len(refs),)
        for j, ref in enumerate(refs):
            assert got.area_in[j] == ref.area_in
            assert got.area_out[j] == ref.area_out
            # both split the same frame total, which sets the scale of the
            # rounding of their differently ordered sums
            for name in ("s1", "s2"):
                total = getattr(ref, f"{name}_in") + getattr(ref, f"{name}_out")
                for side in ("in", "out"):
                    a = getattr(got, f"{name}_{side}")[j]
                    b = getattr(ref, f"{name}_{side}")
                    assert np.all(np.abs(a - b) <= 1e-12 * total), (name, side)

    @pytest.mark.parametrize("factor", [1, 16])
    def test_one_crossing_pass_per_call(self, monkeypatch, factor):
        # stats and moved_stats each reduce one crossing pass
        # (backend.edge_sums), whatever the number of moves
        calls = []
        crossings = polyseg.backend._crossings

        def counting(*args):
            calls.append(args)
            return crossings(*args)

        monkeypatch.setattr(polyseg.backend, "_crossings", counting)
        ev = EVALUATORS[3, factor]
        p = ps.Polygon(star_polygon(4, n=30).points[::-1])  # clockwise
        ev.stats(p)
        assert len(calls) == 1
        index = [0, 0, 7, 29]
        ev.moved_stats(p, index, p.points[index] + [[1.5, 0], [0, 1.5], [-1, 1], [2, 2]])
        assert len(calls) == 2

    @given(star_moves(), st.sampled_from([1, 3]), st.sampled_from([1, 2, 16]), st.booleans())
    @settings(max_examples=120, deadline=None, derandomize=True)
    # a triangle: vertex 0 across the opposite edge turns it clockwise, then
    # off the frame on each side
    @example(moves=([(10.0, 10.0), (50.0, 12.0), (30.0, 45.0)], [0, 0, 1, 2, 2],
                    [(45.0, 40.0), (-200.0, 10.0), (50.0, 300.0), (30.0, -150.0), (31.0, 44.0)]),
             channels=3, factor=16, reverse=False)
    # a sliver between two rows of pixel centres stays empty under its first
    # move and gains pixels under its second
    @example(moves=([(10.2, 5.1), (20.7, 5.4), (14.0, 5.9)], [2, 2],
                    [(14.0, 5.8), (14.0, 8.0)]),
             channels=1, factor=1, reverse=False)
    # a bow-tie: vertex 1 pulled past vertex 2 makes the polygon cross itself
    @example(moves=([(10.0, 10.0), (40.0, 10.0), (40.0, 40.0), (10.0, 40.0)], [1],
                    [(45.0, 45.0)]),
             channels=1, factor=2, reverse=True)
    def test_star_polygons(self, moves, channels, factor, reverse):
        points, index, targets = moves
        points = np.asarray(points, dtype=np.float64)
        if reverse:  # same polygon, opposite orientation: vertex i is n-1-i
            points, index = points[::-1], [len(points) - 1 - i for i in index]
        self.check(points, index, targets, channels, factor)
