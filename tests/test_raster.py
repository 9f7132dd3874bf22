import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import polyseg as ps
from helpers import brute_force_mask, naive_region_sums, region_stats, star_polygon

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


class TestEvaluatorMatchesMask:
    """Factor-1 crossing stats against the mask fill plus moments sum."""

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

    @given(star_polygons(), st.sampled_from([1, 3]))
    @settings(max_examples=80, deadline=None)
    # a triangle between two rows of pixel centres crosses no scanline
    @example(points=[(10.2, 5.1), (20.7, 5.4), (14.0, 5.9)], channels=1)
    # a polygon wholly above and left of the frame
    @example(points=[(-9.0, -9.0), (-3.0, -8.0), (-5.0, -2.0)], channels=3)
    def test_star_polygons(self, points, channels):
        self.check(points, channels)

    @given(lattice_polygons(), st.sampled_from([1, 3]))
    @settings(max_examples=80, deadline=None)
    def test_lattice_polygons(self, points, channels):
        self.check(points, channels)
