"""The NumPy kernel module and the subsample grid it works on."""

import math

import numpy as np

import polyseg as ps
from polyseg import backend

from helpers import blob_image, upsample_bilinear


def test_backend_name_valid():
    assert ps.BACKEND == backend.BACKEND == "numpy"


def test_fill_mask_half_open_box():
    # vertices and edges exactly on pixel centers exercise the tie-break:
    # the top and left edges are inside, the bottom and right edges outside
    xs = np.array([2.0, 10.0, 10.0, 2.0])
    ys = np.array([3.0, 3.0, 9.0, 9.0])
    mask = backend.fill_mask(xs, ys, 16, 16)
    assert mask.sum() == (10 - 2) * (9 - 3)
    assert mask[3:9, 2:10].all()


def test_upsample_matches_bilinear_sample():
    img = blob_image(16, 12)
    factor = 4
    up = np.empty((12 * factor, 16 * factor, 1))
    upsample_bilinear(img.data, factor, out=up)
    sc = np.arange(16 * factor)
    sr = np.arange(12 * factor)
    xs = (sc + 0.5) / factor - 0.5
    for r in (0, 5, 47):
        y = (sr[r] + 0.5) / factor - 0.5
        ref = ps.bilinear_sample(img.data, xs, np.full(len(xs), y))
        assert np.abs(up[r, :, 0] - ref[:, 0]).max() < 1e-12


def test_mask_stats_matches_exact_sums():
    # 512x512x3 like the kernel probe; sums along the pixel axis must be
    # pairwise, not accumulated one pixel row at a time
    rng = np.random.default_rng(3)
    data = rng.uniform(0.0, 1.0, (512, 512, 3))
    mask = rng.uniform(size=(512, 512)) < 0.6
    area, s1_in, s2_in, s1_all, s2_all = backend.mask_stats(data, mask)
    assert area == mask.sum()
    for ch in range(3):
        vals = data[:, :, ch]
        for got, exact in ((s1_in[ch], math.fsum(vals[mask])),
                           (s2_in[ch], math.fsum(vals[mask] ** 2)),
                           (s1_all[ch], math.fsum(vals.ravel())),
                           (s2_all[ch], math.fsum(vals.ravel() ** 2))):
            assert abs(got - exact) <= 2e-15 * exact
