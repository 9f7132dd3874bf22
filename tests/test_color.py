import numpy as np
import pytest

import polyseg as ps
from helpers import blob_image, lab_scalar, star_polygon


class TestSrgbToLab:
    def test_white_and_black(self):
        img = ps.Image(np.array([[[1.0, 1, 1], [0.0, 0, 0]]]), ps.RGB)
        lab = ps.srgb_to_lab(img).data
        white, black = lab[0, 0], lab[0, 1]
        # stored scale: L*/100, (a*+128)/255, (b*+128)/255
        assert abs(white[0] - 1.0) < 1e-6
        assert abs(white[1] - 128 / 255) < 1e-6
        assert abs(white[2] - 128 / 255) < 1e-6
        assert abs(black[0]) < 1e-12
        assert abs(black[1] - 128 / 255) < 1e-12
        assert abs(black[2] - 128 / 255) < 1e-12

    def test_srgb_red(self):
        # frozen from the independent scalar oracle; matches the published
        # approximations L*=53.24, a*=80.09, b*=67.20
        img = ps.Image(np.array([[[1.0, 0, 0]]]), ps.RGB)
        lab = ps.srgb_to_lab(img).data[0, 0]
        assert lab[0] * 100 == pytest.approx(53.24079, abs=1e-3)
        assert lab[1] * 255 - 128 == pytest.approx(80.09246, abs=1e-3)
        assert lab[2] * 255 - 128 == pytest.approx(67.20320, abs=1e-3)

    def test_wrong_colorspace(self):
        with pytest.raises(ps.WrongColorspace):
            ps.srgb_to_lab(ps.Image(np.zeros((2, 2)), ps.GRAY))

    def test_monotone_lightness_on_gray_axis(self):
        g = np.linspace(0, 1, 256)
        img = ps.Image(np.stack([g, g, g], axis=-1).reshape(16, 16, 3), ps.RGB)
        L = ps.srgb_to_lab(img).data.reshape(-1, 3)[:, 0]
        assert np.all(np.diff(L) > 0)

    def test_thousand_random_colors_vs_scalar_oracle(self):
        rng = np.random.default_rng(123)
        cols = rng.uniform(0, 1, (1000, 3))
        img = ps.Image(cols.reshape(10, 100, 3), ps.RGB)
        lab = ps.srgb_to_lab(img).data.reshape(-1, 3)
        for i in range(0, 1000, 7):
            L, a, b = lab_scalar(*cols[i])
            stored = np.array([L / 100, (a + 128) / 255, (b + 128) / 255])
            assert np.abs(lab[i] - stored).max() < 1e-6

    def test_output_tagged_lab(self):
        img = ps.Image(np.full((3, 3, 3), 0.5), ps.RGB)
        assert ps.srgb_to_lab(img).colorspace == ps.LAB


def rgb_stack(*channels):
    """A three-channel image from (H, W) or (H, W, 1) channel arrays."""
    return ps.Image(np.dstack(channels), ps.RGB)


class TestMultichannelGradient:
    """shape_gradient on a stacked image sums per-channel region terms."""

    def test_triplicated_channels_give_three_times(self, blob64):
        p = star_polygon(1, n=30)
        single = ps.shape_gradient(blob64, p, 0.0)
        f = blob64.data
        g = ps.shape_gradient(rgb_stack(f, f, f), p, 0.0)
        assert np.abs(g.speeds - 3.0 * single.speeds).max() < 1e-12

    def test_constant_channels_add_nothing(self, blob64):
        p = star_polygon(3, n=24)
        flat = np.full(blob64.data.shape[:2], 0.3)
        a = ps.shape_gradient(rgb_stack(blob64.data, flat, flat + 0.4), p, 0.05)
        b = ps.shape_gradient(blob64, p, 0.05)
        assert np.abs(a.speeds - b.speeds).max() < 1e-12

    def test_complementary_channels(self, blob64):
        # f and 1-f have identical region gradients (swap symmetry)
        p = star_polygon(5, n=24)
        f = blob64.data
        flat = np.full(f.shape[:2], 0.5)
        g = ps.shape_gradient(rgb_stack(f, 1.0 - f, flat), p, 0.0)
        single = ps.shape_gradient(blob64, p, 0.0)
        assert np.abs(g.speeds - 2.0 * single.speeds).max() < 1e-12

    def test_permutation_invariance(self, blob64):
        rng = np.random.default_rng(9)
        chans = [
            blob64.data,
            rng.uniform(0, 1, blob64.data.shape[:2]),
            rng.uniform(0, 1, blob64.data.shape[:2]),
        ]
        p = star_polygon(4, n=20)
        g1 = ps.shape_gradient(rgb_stack(*chans), p, 0.02)
        g2 = ps.shape_gradient(rgb_stack(*chans[::-1]), p, 0.02)
        assert np.abs(g1.speeds - g2.speeds).max() < 1e-12

    def test_curvature_added_once(self):
        img = ps.Image(np.full((40, 40, 3), 0.5), ps.RGB)
        p = ps.init_circle((20, 20), 10, 30)
        g = ps.shape_gradient(img, p, 0.3)
        assert np.abs(g.speeds - 0.3 / 10.0).max() < 1e-10

    def test_dimension_mismatch(self, blob64):
        # a channel stack must have the channel count of its colorspace
        f = blob64.data[:, :, 0]
        with pytest.raises(ValueError):
            ps.Image(np.stack([f, f], axis=-1), ps.RGB)
        with pytest.raises(ValueError):
            ps.Image(np.stack([f, f, f], axis=-1), ps.GRAY)
