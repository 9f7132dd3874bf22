"""NumPy kernels: scanline crossings, mask fill and region moments.

Every polygon-to-region computation goes through one crossing rule:

* Scanlines pass through sample centers.  An edge crosses a scanline at
  height y iff min(y1, y2) <= y < max(y1, y2) (half-open rule: shared
  vertices count once, horizontal edges never).
* A crossing at continuous coordinate x flips the inside parity of every
  center with c >= ceil(x).  Centers exactly on an edge therefore land
  inside at left edges and outside at right edges (top-left convention).
* Crossing coordinates are computed as
  ``x1 + (y - y1) * (x2 - x1) / (y2 - y1)``.

At factor 1 the sample grid is the pixel grid and coordinates are used
as given, so :func:`ss_stats` selects exactly the pixels :func:`fill_mask`
sets.  Every region statistic of the package comes from :func:`ss_stats`;
nothing in the package calls :func:`mask_stats`, which serves the tests'
mask-based oracle and a perfbench probe.
"""

import numpy as np

BACKEND = "numpy"


def _crossings(xs, ys, factor: int, hs: int, ws: int):
    """Row indices and flip columns of all scanline crossings of a polygon.

    The sample grid has hs x ws centers; sample (sr, sc) sits at
    ((sc+0.5)/factor - 0.5, (sr+0.5)/factor - 0.5) in pixel coordinates,
    which is (sc, sr) itself at factor 1.  Returns (rows, cols) as int64
    arrays, one entry per (edge, scanline) crossing.  Under the half-open
    rule a horizontal edge spans zero rows, so it is never expanded and its
    zero height is never a divisor.
    """
    f = float(factor)

    # at factor 1 coordinates pass through untouched: the affine map would
    # round offsets of ~1e-17 px off a pixel center away
    def to_sub(v):
        return v if factor == 1 else f * (v + 0.5) - 0.5

    def from_sub(r):
        return r if factor == 1 else (r + 0.5) / f - 0.5

    x1 = np.asarray(xs, dtype=np.float64)
    y1 = np.asarray(ys, dtype=np.float64)
    x2 = np.roll(x1, -1)
    y2 = np.roll(y1, -1)
    r0 = np.maximum(np.ceil(to_sub(np.minimum(y1, y2))), 0.0).astype(np.int64)
    r1 = np.minimum(np.ceil(to_sub(np.maximum(y1, y2))) - 1.0, float(hs - 1)).astype(
        np.int64
    )
    counts = np.maximum(r1 - r0 + 1, 0)
    total = int(counts.sum())
    eidx = np.repeat(np.arange(x1.size), counts)
    starts = np.cumsum(counts) - counts
    rows = r0[eidx] + (np.arange(total) - np.repeat(starts, counts))
    x1, y1, x2, y2 = x1[eidx], y1[eidx], x2[eidx], y2[eidx]
    xc = x1 + (from_sub(rows) - y1) * (x2 - x1) / (y2 - y1)
    cols = np.clip(np.ceil(to_sub(xc)), 0, ws).astype(np.int64)
    return rows, cols


def fill_mask(xs, ys, width: int, height: int) -> np.ndarray:
    """Even-odd scanline fill of a closed polygon over pixel centers.

    Returns a (height, width) uint8 mask with 1 for inside pixels.
    """
    rows, cols = _crossings(xs, ys, 1, height, width)
    flips = np.zeros((height, width + 1), dtype=np.int64)
    np.add.at(flips, (rows, cols), 1)
    # parity in place: one frame-sized int64 buffer for the whole fill
    np.cumsum(flips, axis=1, out=flips)
    flips &= 1
    return flips[:, :width].astype(np.uint8)


def mask_stats(data: np.ndarray, mask: np.ndarray):
    """Region moments of (H, W, C) data split by a boolean/uint8 mask.

    Returns (area_in, s1_in, s2_in, s1_all, s2_all) where the s-arrays are
    per-channel sums of f and f^2.  Each channel is summed along a
    contiguous axis, where NumPy uses pairwise summation.  Nothing in the
    package calls it.
    """
    h, w, c = data.shape
    chans = np.ascontiguousarray(np.moveaxis(data, 2, 0)).reshape(c, -1)
    m = np.asarray(mask, dtype=bool).reshape(-1)
    sel = np.compress(m, chans, axis=1)
    s1_in = sel.sum(axis=1)
    s2_in = (sel * sel).sum(axis=1)
    s1_all = chans.sum(axis=1)
    s2_all = (chans * chans).sum(axis=1)
    return float(m.sum()), s1_in, s2_in, s1_all, s2_all


def ss_stats(prefix1: np.ndarray, prefix2: np.ndarray, xs, ys, factor: int):
    """Region sums of a polygon over the sample grid, from its crossings only.

    prefix1/prefix2 are (Hs, Ws+1, C) row-wise prefix sums of the sampled
    intensity and its square (column 0 is zero), on the grid described in
    :func:`_crossings`.  Each run of inside samples between a pair of
    crossings costs one prefix difference, so a call is O(crossings * C).
    Returns (n_samples_inside, s1_in, s2_in) in sample units.
    """
    hs, wcols, _ = prefix1.shape
    rows, cols = _crossings(xs, ys, factor, hs, wcols - 1)
    order = np.lexsort((cols, rows))
    rs = rows[order]
    cs = cols[order]
    if rs.size % 2 or not np.array_equal(rs[0::2], rs[1::2]):
        raise RuntimeError("scanline crossing parity broken")
    ra, ca, cb = rs[0::2], cs[0::2], cs[1::2]
    nsub = float(np.sum(cb - ca))
    s1 = (prefix1[ra, cb] - prefix1[ra, ca]).sum(axis=0)
    s2 = (prefix2[ra, cb] - prefix2[ra, ca]).sum(axis=0)
    return nsub, s1, s2
