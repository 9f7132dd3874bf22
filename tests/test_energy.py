import dataclasses
import math

import numpy as np
import pytest
import sympy as sp

import polyseg as ps

from helpers import polygon_energy, region_stats, star_polygon


def random_stats(rng, channels=1):
    a_in = rng.uniform(50, 500)
    a_out = rng.uniform(50, 500)
    mu_i = rng.uniform(0.1, 0.9, channels)
    mu_o = rng.uniform(0.1, 0.9, channels)
    var_i = rng.uniform(0.0, 0.05, channels)
    var_o = rng.uniform(0.0, 0.05, channels)
    return ps.RegionStats(
        area_in=a_in,
        area_out=a_out,
        s1_in=mu_i * a_in,
        s1_out=mu_o * a_out,
        s2_in=(var_i + mu_i**2) * a_in,
        s2_out=(var_o + mu_o**2) * a_out,
    )


class TestMeans:
    def test_constant(self):
        img = ps.Image(np.full((10, 10), 0.5), ps.GRAY)
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:5, 2:5] = True
        m = region_stats(img, mask)
        assert m.mu_in[0] == m.mu_out[0] == 0.5
        assert m.var_in[0] == m.var_out[0] == 0.0

    def test_indicator_disk(self):
        img = ps.synth_shape("disk", 48, 48, 1.0, 0.0, {"cx": 24, "cy": 24, "r": 15})
        mask = img.data[:, :, 0] == 1.0
        m = region_stats(img, mask)
        assert m.mu_in[0] == 1.0 and m.mu_out[0] == 0.0
        assert m.var_in[0] == 0.0 and m.var_out[0] == 0.0

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(0, 1, (12, 12, 1))
        mask = rng.uniform(0, 1, (12, 12)) > 0.4
        img = ps.Image(data, ps.GRAY)
        m = region_stats(img, mask)
        vals_in = data[:, :, 0][mask]
        vals_out = data[:, :, 0][~mask]
        assert m.mu_in[0] == pytest.approx(vals_in.mean(), abs=1e-12)
        assert m.var_in[0] == pytest.approx(
            ((vals_in - vals_in.mean()) ** 2).mean(), abs=1e-12
        )
        assert m.mu_out[0] == pytest.approx(vals_out.mean(), abs=1e-12)
        assert m.var_out[0] == pytest.approx(
            ((vals_out - vals_out.mean()) ** 2).mean(), abs=1e-12
        )

    def test_empty(self):
        st_ = random_stats(np.random.default_rng(0))
        with pytest.raises(ps.EmptyRegion):
            dataclasses.replace(st_, area_in=0.0)


class TestBatch:
    """k-row RegionStats and EnergyBreakdowns against k single ones."""

    FIELDS = ("area_in", "area_out", "s1_in", "s1_out", "s2_in", "s2_out")

    def batch(self, rows):
        return ps.RegionStats(**{f: np.array([getattr(r, f) for r in rows]) for f in self.FIELDS})

    @pytest.mark.parametrize("channels", [1, 3])
    def test_rows_equal_single_stats_bit_for_bit(self, channels):
        rng = np.random.default_rng(3)
        rows = [random_stats(rng, channels) for _ in range(7)]
        rows.append(random_stats(rng, channels))
        # a constant side: its variance clamps to 0 in both forms
        rows[-1] = dataclasses.replace(rows[-1], s2_in=rows[-1].s1_in ** 2 / rows[-1].area_in)
        perimeter = rng.uniform(10.0, 100.0, len(rows))
        stats = self.batch(rows)
        eb = ps.breakdown_from_stats(stats, perimeter, 1e-3)
        for j, one in enumerate(rows):
            for name in ("mu_in", "mu_out", "var_in", "var_out"):
                assert np.array_equal(getattr(stats, name)[j], getattr(one, name)), name
            ref = ps.breakdown_from_stats(one, float(perimeter[j]), 1e-3)
            for name in ("e1", "e2", "e3", "total"):
                assert getattr(eb, name)[j] == getattr(ref, name), name

    def test_any_empty_row_raises(self):
        rng = np.random.default_rng(4)
        fields = {f: getattr(self.batch([random_stats(rng) for _ in range(3)]), f)
                  for f in self.FIELDS}
        fields["area_out"][1] = 0.0
        with pytest.raises(ps.EmptyRegion):
            ps.RegionStats(**fields)


class TestEnergy:
    def test_constant_image(self):
        img = ps.Image(np.full((30, 30), 0.7), ps.GRAY)
        p = ps.init_circle((15, 15), 9, 40)
        eb = polygon_energy(ps.SupersampledEvaluator(img, 1), p, 0.1)
        assert eb.e1 < 1e-12 and eb.e2 < 1e-12
        assert eb.total == pytest.approx(0.1 * ps.polygon_perimeter(p))

    def test_breakdown_invariants(self, blob64):
        p = star_polygon(4, n=30)
        eta = 0.05
        eb = polygon_energy(ps.SupersampledEvaluator(blob64, 1), p, eta)
        assert eb.e1 >= 0 and eb.e2 >= 0 and eb.e3 > 0
        assert eb.total == pytest.approx(eb.e1 + eb.e2 + eta * eb.e3, abs=1e-12)

    def test_contour_on_two_value_disk(self):
        # contour exactly on the value boundary: energy only from the
        # rasterization band
        r = 40.0
        img = ps.synth_shape("disk", 128, 128, 0.8, 0.2, {"cx": 64, "cy": 64, "r": r})
        p = ps.init_circle((64, 64), r, 200)
        eb = polygon_energy(ps.SupersampledEvaluator(img, 1), p, 0.0)
        assert eb.total < 0.36 * (2 * math.pi * r) / (math.pi * r * r) * 2


class TestRegionShapeGradient:
    def test_constant_zero(self):
        img = ps.Image(np.full((20, 20), 0.5), ps.GRAY)
        mask = np.zeros((20, 20), dtype=bool)
        mask[5:15, 5:15] = True
        st_ = region_stats(img, mask)
        g = ps.region_shape_gradient(img, st_, np.array([[10.0, 10.0]]))
        assert abs(g[0]) < 1e-12

    def test_equal_means_value(self):
        # f(x) equal to both means: gradient is -var_in/|O| + var_out/|O^c|
        rng = np.random.default_rng(1)
        st_ = random_stats(rng)
        mu = st_.s1_in[0] / st_.area_in
        st_ = dataclasses.replace(
            st_,
            s1_out=np.array([mu * st_.area_out]),
            s2_out=np.array([(0.02 + mu**2) * st_.area_out]),
        )
        img = ps.Image(np.full((8, 8), mu), ps.GRAY)
        g = ps.region_shape_gradient(img, st_, np.array([[4.0, 4.0]]))
        expect = -st_.var_in[0] / st_.area_in + st_.var_out[0] / st_.area_out
        assert g[0] == pytest.approx(expect, rel=1e-12)

    def test_compact_equals_expanded_form(self):
        # compact [(f-mu)^2 - var]/|O| form against the expanded
        # moment form for the inside term, and the mirrored outside term
        rng = np.random.default_rng(7)
        for _ in range(50):
            st_ = random_stats(rng)
            f = rng.uniform(0, 1)
            a, s1, s2 = st_.area_in, st_.s1_in[0], st_.s2_in[0]
            expanded_in = f * f / a - (s2 + 2 * f * s1 - 2 * s1 * s1 / a) / (a * a)
            ac, s1c, s2c = st_.area_out, st_.s1_out[0], st_.s2_out[0]
            expanded_out = -(
                f * f / ac - (s2c + 2 * f * s1c - 2 * s1c * s1c / ac) / (ac * ac)
            )
            img = ps.Image(np.full((6, 6), f), ps.GRAY)
            g = ps.region_shape_gradient(img, st_, np.array([[3.0, 3.0]]))
            assert g[0] == pytest.approx(expanded_in + expanded_out, abs=1e-10)

    def test_concentric_circle_matches_symbolic_oracle(self):
        # uniform gradient on a concentric two-value disk equals
        # (dE/dr) / (2 pi r) of the closed-form continuous energy
        W = H = 128
        Rd, A, B = 44.0, 0.9, 0.1
        img = ps.synth_shape("disk", W, H, A, B, {"cx": 64, "cy": 64, "r": Rd})
        r = sp.symbols("r", positive=True)
        a1 = sp.pi * (Rd**2 - r**2)
        a2 = W * H - sp.pi * Rd**2
        mu = (A * a1 + B * a2) / (a1 + a2)
        E2 = (A**2 * a1 + B**2 * a2) / (a1 + a2) - mu**2
        ref_expr = sp.diff(E2, r) / (2 * sp.pi * r)
        for rc in (30.0, 36.0):
            ref = float(ref_expr.subs(r, rc))
            p = ps.init_circle((64, 64), rc, 100)
            ev = ps.SupersampledEvaluator(img, 16)
            st_ = ev.stats(p)
            g = ps.region_shape_gradient(img, st_, p.points)
            spread = g.max() - g.min()
            assert spread < 0.02 * abs(g.mean())
            assert g.mean() == pytest.approx(ref, rel=0.02)


class TestShapeGradient:
    def test_constant_image_curvature_only(self):
        img = ps.Image(np.full((64, 64), 0.5), ps.GRAY)
        p = ps.init_circle((32, 32), 12, 50)
        g = ps.shape_gradient(img, p, 0.2)
        assert np.abs(g.speeds - 0.2 / 12.0).max() < 1e-10

    def test_constant_image_eta_zero_is_null(self):
        img = ps.Image(np.full((64, 64), 0.5), ps.GRAY)
        p = ps.init_circle((32, 32), 12, 50)
        g = ps.shape_gradient(img, p, 0.0)
        assert np.abs(g.speeds).max() < 1e-12

    def test_uniform_inflation_predicts_energy_change(self, blob64):
        # sum_i speeds*w_i*delta predicts the supersampled energy change
        # under uniform normal inflation
        delta = 0.25
        eta = 1e-3
        ev = ps.SupersampledEvaluator(blob64, 16)
        for seed in (0, 3):
            p = star_polygon(seed, n=40)
            g = ps.shape_gradient(blob64, p, eta)
            predicted = float(np.sum(g.speeds * ps.vertex_weights(p))) * delta
            inflated = ps.Polygon(p.points + delta * g.normals)
            shrunk = ps.Polygon(p.points - delta * g.normals)
            actual = 0.5 * (
                polygon_energy(ev, inflated, eta).total
                - polygon_energy(ev, shrunk, eta).total
            )
            assert actual == pytest.approx(predicted, rel=0.10)

    def test_per_vertex_finite_difference(self, blob64):
        # central property: analytic speeds[i]*w_i vs central differences of
        # the factor-16 supersampled energy, displacing one vertex at a time
        eta = 1e-3
        h = 0.25
        ev = ps.SupersampledEvaluator(blob64, 16)
        for seed in (0, 1):
            p = star_polygon(seed, n=40)
            g = ps.shape_gradient(blob64, p, eta)
            analytic = g.speeds * ps.vertex_weights(p)
            for i in range(len(p)):
                if abs(analytic[i]) <= 1e-4:
                    continue
                plus = p.points.copy()
                plus[i] += h * g.normals[i]
                minus = p.points.copy()
                minus[i] -= h * g.normals[i]
                fd = (
                    polygon_energy(ev, ps.Polygon(plus), eta).total
                    - polygon_energy(ev, ps.Polygon(minus), eta).total
                ) / (2 * h)
                assert abs(analytic[i] - fd) / abs(analytic[i]) < 0.10

    def test_channel_additivity(self, blob64):
        rng = np.random.default_rng(11)
        chans = [blob64.data[:, :, 0], np.clip(blob64.data[:, :, 0] * 0.5 + 0.2, 0, 1),
                 rng.uniform(0.2, 0.8, blob64.data.shape[:2])]
        stacked = ps.Image(np.stack(chans, axis=-1), ps.RGB)
        p = star_polygon(2, n=30)
        g_all = ps.shape_gradient(stacked, p, 0.0)
        total = np.zeros(len(p))
        for c in chans:
            total += ps.shape_gradient(ps.Image(c, ps.GRAY), p, 0.0).speeds
        assert np.abs(g_all.speeds - total).max() < 1e-12

    def test_swap_symmetry(self, blob64):
        p = star_polygon(6, n=35)
        g1 = ps.shape_gradient(blob64, p, 0.0)
        neg = ps.Image(1.0 - blob64.data, ps.GRAY)
        g2 = ps.shape_gradient(neg, p, 0.0)
        assert np.abs(g1.speeds - g2.speeds).max() < 1e-12

    def test_weights_match_half_edge_sums(self):
        p = star_polygon(8, n=20)
        e = np.roll(p.points, -1, axis=0) - p.points
        lens = np.hypot(e[:, 0], e[:, 1])
        w = ps.vertex_weights(p)
        assert np.abs(w - 0.5 * (lens + np.roll(lens, 1))).max() < 1e-12
