"""Metamorphic tests: transformed inputs whose runs must repeat the base run.

No oracle gives the trajectory of a noisy segmentation, but three
transformations of its input must leave it unchanged (Chen, Cheung & Yiu,
"Metamorphic testing: a new approach for generating next test cases",
1998):

* the transposed image with the transposed start polygon;
* the affine image ``a*f + b`` with eta * a^2, whose energies are a^2
  times the base run's;
* an RGB image with its channels permuted.

Each transformed run must give the base run's first 10 trace rows to
1e-12 relative, stop at the same iteration and end on the same mask
(transposed for the transposed image).  The sums behind each row are
ordered differently in the two runs, so a change to how region sums are
reduced shows here first.
"""

import dataclasses

import numpy as np
import pytest

import polyseg as ps

SIZE = 192
CENTER, RADIUS = (84.0, 101.0), 50.0  # off the diagonal: transposing moves it
# no vertex on a pixel centre, where the top-left rule is not symmetric
START = ps.init_circle((88.3, 96.6), 63.7, 100)
CFG = ps.EvolveConfig(n_vertices=100, eta=2e-4)
FIELDS = ("e1", "e2", "e3", "total", "area", "max_disp")
ROWS = 10


def gray_disk():
    cx, cy = CENTER
    img = ps.synth_shape("disk", SIZE, SIZE, 0.9, 0.1, {"cx": cx, "cy": cy, "r": RADIUS})
    return ps.add_gaussian_noise(img, 25.0, ps.Rng(5))


def rgb_disk():
    cx, cy = CENTER
    ys, xs = np.mgrid[0:SIZE, 0:SIZE].astype(np.float64)
    inside = ((xs - cx) ** 2 + (ys - cy) ** 2 < RADIUS**2)[:, :, None]
    clean = np.where(inside, np.array([0.8, 0.3, 0.2]), np.array([0.2, 0.5, 0.7]))
    noise = ps.Rng(5).normals(clean.size).reshape(clean.shape) * 0.1
    return ps.Image(np.clip(clean + noise, 0.0, 1.0), ps.RGB)


def mask(res):
    return ps.rasterize_mask(res.final_polygon, SIZE, SIZE)


def check_same_run(base, other, scale=1.0):
    """other repeats base, its energies scale times base's."""
    assert other.iterations_run == base.iterations_run
    assert other.converged == base.converged
    for a, b in zip(base.trace[:ROWS], other.trace[:ROWS]):
        for name in FIELDS:
            want = getattr(a, name) * (scale if name in ("e1", "e2", "total") else 1.0)
            got = getattr(b, name)
            assert abs(got - want) <= 1e-12 * abs(want), (a.iter, name, got, want)


def test_transposed_image_and_start():
    img = gray_disk()
    base = ps.run(img, START, CFG)
    flipped = ps.Image(img.data.transpose(1, 0, 2), img.colorspace)
    other = ps.run(flipped, ps.Polygon(START.points[:, ::-1]), CFG)
    check_same_run(base, other)
    assert np.array_equal(mask(other), mask(base).T)


def test_affine_intensity_with_scaled_eta():
    a, b = 0.5, 0.25
    img = gray_disk()
    base = ps.run(img, START, CFG)
    scaled = ps.Image(a * img.data + b, img.colorspace)
    other = ps.run(scaled, START, dataclasses.replace(CFG, eta=CFG.eta * a * a))
    check_same_run(base, other, scale=a * a)
    assert np.array_equal(mask(other), mask(base))


@pytest.mark.parametrize("order", [(2, 0, 1), (1, 0, 2)])
def test_permuted_channels(order):
    img = rgb_disk()
    base = ps.run(img, START, CFG)
    other = ps.run(ps.Image(img.data[:, :, order], ps.RGB), START, CFG)
    check_same_run(base, other)
    assert np.array_equal(mask(other), mask(base))
