"""NumPy kernels: scanline crossings, mask fill and region moments.

Every polygon-to-region computation goes through one crossing rule:

* Scanlines pass through sample centers.  An edge crosses a scanline at
  height y iff min(y1, y2) <= y < max(y1, y2) (half-open rule: shared
  vertices count once, horizontal edges never).
* A crossing at continuous coordinate x acts on every center with
  c >= ceil(x), with the sign of its edge's y-direction: +1 where the edge
  runs toward larger y, -1 otherwise.  Centers exactly on an edge
  therefore land inside at left edges and outside at right edges
  (top-left convention).
* Crossing coordinates are computed as
  ``x1 + (y - y1) * (x2 - x1) / (y2 - y1)``.

:func:`fill_mask` counts crossings and keeps their parity (even-odd).
:func:`ss_stats` adds their signs, so each sample counts with its winding
number, normalised to the polygon's orientation: the discrete Green's
theorem behind summed-area tables (Crow, SIGGRAPH 1984).  The two rules
agree on every simple polygon.  At factor 1 the sample grid is the pixel
grid and coordinates are used as given, so for a simple polygon
:func:`ss_stats` selects exactly the pixels :func:`fill_mask` sets.  On a
self-intersecting polygon a sample of winding number 2 counts twice and
one of opposite winding counts negatively, where the mask holds its
parity.  Every region statistic of the package comes from
:func:`ss_stats`, or from :func:`edge_sums`, its per-edge share, where
polygons differ in a few edges; nothing in the package calls
:func:`mask_stats`, which serves the tests' mask-based oracle and a
perfbench probe.

The crossing kernel works on edges, not rings: :func:`fill_mask` and
:func:`ss_stats` close their ring themselves.  Above factor 1 no subsample
field exists: each crossing costs a blend of two pixel rows' prefix sums
(see :func:`ss_stats`).
"""

import numpy as np

from .image import _cell

BACKEND = "numpy"


def _ring(xs, ys):
    """Edge endpoints (x1, y1, x2, y2) of the closed polygon with these vertices."""
    x1 = np.asarray(xs, dtype=np.float64)
    y1 = np.asarray(ys, dtype=np.float64)
    return x1, y1, np.concatenate((x1[1:], x1[:1])), np.concatenate((y1[1:], y1[:1]))


def _crossings(x1, y1, x2, y2, factor: int, hs: int, ws: int):
    """Row indices, flip columns, signs and edges of all scanline crossings.

    Edge k runs from (x1[k], y1[k]) to (x2[k], y2[k]); the arrays are
    float64 and need not form a ring.  The sample grid has hs x ws centers;
    sample (sr, sc) sits at ((sc+0.5)/factor - 0.5, (sr+0.5)/factor - 0.5)
    in pixel coordinates, which is (sc, sr) itself at factor 1.  Returns
    (rows, cols, signs, edge) as int64 arrays, one entry per (edge,
    scanline) crossing, grouped by edge in edge order; a sign is +1 where
    the edge runs toward larger y and -1 otherwise.  Under the half-open
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

    # row bounds stay float until a count > 0 puts them on the grid: int64 overflows far off it
    r0 = np.maximum(np.ceil(to_sub(np.minimum(y1, y2))), 0.0)
    r1 = np.minimum(np.ceil(to_sub(np.maximum(y1, y2))) - 1.0, hs - 1.0)
    counts = np.maximum(r1 - r0 + 1.0, 0.0).astype(np.int64)
    total = int(counts.sum())
    eidx = np.repeat(np.arange(x1.size), counts)
    starts = np.cumsum(counts) - counts
    rows = r0[eidx].astype(np.int64) + (np.arange(total) - np.repeat(starts, counts))
    x1, y1, x2, y2 = x1[eidx], y1[eidx], x2[eidx], y2[eidx]
    xc = x1 + (from_sub(rows) - y1) * (x2 - x1) / (y2 - y1)
    cols = np.clip(np.ceil(to_sub(xc)), 0, ws).astype(np.int64)
    return rows, cols, np.where(y2 > y1, 1, -1), eidx


def fill_mask(xs, ys, width: int, height: int) -> np.ndarray:
    """Even-odd scanline fill of a closed polygon over pixel centers.

    Returns a (height, width) uint8 mask with 1 for inside pixels.
    """
    rows, cols, _, _ = _crossings(*_ring(xs, ys), 1, height, width)
    keep = cols < width  # a crossing right of the last center flips none
    # counts wrap modulo 256 in uint8, which keeps their parity: one
    # frame-sized byte buffer for the whole fill
    flips = np.zeros((height, width), dtype=np.uint8)
    np.add.at(flips, (rows[keep], cols[keep]), 1)
    np.cumsum(flips, axis=1, dtype=np.uint8, out=flips)
    flips &= 1
    return flips


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


def _crossing_values(prefix1, prefix2, rows, cols, factor: int):
    """Unsigned (k, C) sums of f and f^2 left of k crossings.

    They are read from the tables of :func:`ss_stats`: a gather at factor 1,
    a blend of two pixel rows above it.
    """
    if factor == 1:
        return prefix1[rows, cols], prefix2[rows, cols]
    i0, i1, t = _cell((rows + 0.5) / factor - 0.5, prefix1.shape[0])
    t = t[:, None]
    u = 1.0 - t
    q, x = prefix2
    v1 = u * prefix1[i0, cols] + t * prefix1[i1, cols]
    v2 = u * u * q[i0, cols] + 2.0 * t * u * x[i0, cols] + t * t * q[i1, cols]
    return v1, v2


def ss_stats(prefix1: np.ndarray, prefix2: np.ndarray, xs, ys, factor: int):
    """Region sums of a polygon over the sample grid, from its crossings only.

    At factor 1, prefix1/prefix2 are (H, W+1, C) row-wise prefix sums of
    the pixels and of their squares (column 0 is zero).  Above it, with a_i
    the pixel rows interpolated onto the Ws = factor*W subsample columns,
    prefix1 holds the prefix sums of a_i and prefix2 stacks those of a_i^2
    (Q) and of a_i*a_(i+1) (X; a_i^2 on the last row), all (H, Ws+1, C).
    Subsample row r is (1-t)*a_i0 + t*a_i1, with (i0, i1, t) the ``_cell``
    of its center as in ``bilinear_sample``, so a crossing on it reads a
    blend of two rows of prefix sums.

    Every sum is one signed sum over the crossings: the sample count is
    sum(sign * col) and the moments are sum(sign * prefix[row, col]),
    each under the overall sign of the count, so a clockwise polygon gives
    the stats of its counter-clockwise copy.  Samples count with their
    winding number (see the module docstring).  A call is
    O(crossings * C), with no sort.  Returns (n_samples_inside, s1_in,
    s2_in) in sample units, on the grid described in :func:`_crossings`.
    """
    h, wcols, _ = prefix1.shape
    rows, cols, sign, _ = _crossings(*_ring(xs, ys), factor, h * factor, wcols - 1)
    nsub = int(sign @ cols)
    if nsub < 0:
        sign, nsub = -sign, -nsub
    sign = sign[:, None]
    v1, v2 = _crossing_values(prefix1, prefix2, rows, cols, factor)
    return float(nsub), (sign * v1).sum(axis=0), (sign * v2).sum(axis=0)


def edge_sums(prefix1: np.ndarray, prefix2: np.ndarray, x1, y1, x2, y2, factor: int):
    """Signed sums of each edge's crossings, on the tables of :func:`ss_stats`.

    Edge k runs from (x1[k], y1[k]) to (x2[k], y2[k]).  Returns (count,
    s1, s2) of shapes (m,), (m, C) and (m, C): edge k's share of
    :func:`ss_stats`'s sums before its orientation flip.  Summed over the
    edges of a ring they give that ring's signed sums, so two rings that
    share all but a few edges differ by those edges' sums alone.
    """
    h, wcols, c = prefix1.shape
    m = len(x1)
    rows, cols, sign, edge = _crossings(x1, y1, x2, y2, factor, h * factor, wcols - 1)
    count = np.bincount(edge, weights=sign * cols, minlength=m)
    slot = (edge[:, None] * c + np.arange(c)).ravel()
    sign = sign[:, None]

    def per_edge(values):
        return np.bincount(slot, weights=(sign * values).ravel(), minlength=m * c).reshape(m, c)

    v1, v2 = _crossing_values(prefix1, prefix2, rows, cols, factor)
    return count, per_edge(v1), per_edge(v2)
