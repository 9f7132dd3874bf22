"""The NumPy kernel module and the subsample grid it works on."""

import math
import warnings

import numpy as np

import polyseg as ps
from polyseg import backend

from helpers import blob_image, brute_force_mask, upsample_bilinear


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


def _comb(teeth):
    # a base bar with `teeth` spikes: 2 * teeth crossings on each spike row
    top = []
    for k in range(teeth - 1, -1, -1):
        x0, x1 = 4 * k + 1.5, 4 * k + 3.5
        top += [(x1, 30.5), (x1, 2.5), (x0, 2.5), (x0, 30.5)]
    return np.array([(1.5, 35.5), (4 * teeth - 0.5, 35.5)] + top)


def _zigzag(edges):
    # `edges` (odd) edges through one pixel cell on every row they span,
    # closed by a vertical edge at x = 15.5
    zig = [(10.3, 0.0) if i % 2 == 0 else (10.4, 20.0) for i in range(edges + 1)]
    return np.array(zig + [(15.5, 20.0), (15.5, 0.0)])


def test_fill_mask_keeps_parity_past_256_crossings():
    # the fill counts in uint8: 300 crossings along one row and 301 edges
    # in one cell wrap the count, which must keep its parity
    for pts, width, inside in ((_comb(150), 604, 150 * 2 * 28 + 598 * 5),
                               (_zigzag(301), 24, 5 * 20)):
        mask = backend.fill_mask(pts[:, 0], pts[:, 1], width, 40)
        assert mask.dtype == np.uint8
        assert mask.sum() == inside
        assert np.array_equal(mask, brute_force_mask(pts, width, 40))


def test_ss_stats_of_a_ring_far_off_the_grid():
    # vertices 1e25-1e30 px off a 16^2 frame: the right edge crosses every
    # row right of the last center, the left one left of the first, and no
    # other edge crosses a row.  Row bounds stay float until a crossing puts
    # them on the grid; cast to int64 any earlier, 1e30 overflows with a
    # RuntimeWarning
    ring = np.array([(-1e30, -1.0), (1e30, -1.0), (1e30, 1e25), (0.0, 1e30), (-1e30, 1e25)])
    data = np.random.default_rng(5).uniform(0.0, 1.0, (16, 16, 1))
    tables = backend.cell_tables(data, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        count, s1, s2 = backend.ss_stats(*tables, ring[:, 0], ring[:, 1], 1)
    n_all, s1_all, s2_all = backend.frame_sums(*tables, 1)
    assert count == n_all == 256
    assert np.array_equal(s1, s1_all) and np.array_equal(s2, s2_all)


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
        ref = ps.bilinear_sample(img, xs, np.full(len(xs), y))
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
