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
:func:`edge_sums` is the one reduction of crossings into region sums: it
adds their signs, each crossing's prefix sums under its sign, per edge.
Summed over a ring's edges, which is all :func:`ss_stats` does, each
sample counts with its winding number, taken with the ring's orientation:
the discrete Green's theorem behind summed-area tables (Crow, SIGGRAPH
1984).  The two rules agree on every simple polygon up to that
orientation.  At factor 1 the sample grid is the pixel grid and
coordinates are used as given, so for a simple counter-clockwise polygon
:func:`ss_stats` selects exactly the pixels :func:`fill_mask` sets.  On a
self-intersecting polygon a sample of winding number 2 counts twice and
one of opposite winding counts negatively, where the mask holds its
parity.  Every region statistic of the package comes from
:func:`edge_sums`; nothing in the package calls :func:`mask_stats`,
which serves the tests' mask-based oracle and a perfbench probe.

The crossing kernel works on edges, not rings: :func:`fill_mask` and
:func:`ss_stats` close their ring themselves.  The tables that crossings
read are built here alone: :func:`cell_tables` builds O(H*W) tables at
every factor, plain row prefix sums at factor 1.  Above it no subsample
field exists, and each crossing costs a closed-form blend of two pixel
rows (see :func:`_crossing_values`).  :func:`frame_sums` reads the whole
frame's sums from the tables' last column, with no crossing pass: a
summed-area table holds its totals in its last entries.
"""

import numpy as np

from .image import _cell

BACKEND = "numpy"
# crossings per block of the blend above factor 1: at C = 1 its largest
# temporaries are 128 KiB, which keeps them in cache
_BLOCK = 4096


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


def cell_tables(data: np.ndarray, factor: int):
    """The (prefix1, prefix2) tables of :func:`_crossing_values` at this factor.

    data is the (H, W, C) image.  At factor 1 they are the row-wise prefix
    sums of the pixels and of their squares, with a zero column 0.  Above
    it each row is padded with its end values, so the left and right
    borders' factor/2 clamped subsample columns lie in cells 0 and W, and
    the sums over each whole cell 0..W-1 have a closed form in its two end
    values.  The cumulative sums start from minus the left border's half
    cell, which no subsample column covers.  O(H*W) time and memory,
    whatever the factor.  A crossing right of the last sample column reads
    column W, the sums over a whole sample row (see :func:`frame_sums`).
    """
    h, w, c = data.shape
    if factor == 1:
        # one block for both tables: the allocator hands a single large
        # block back to the OS when it is freed, where smaller ones can
        # stay in the heap and raise the peak RSS of a process that runs
        # many images
        tables = np.zeros((2, h, w + 1, c))
        np.cumsum(data, axis=1, out=tables[0, :, 1:])
        np.multiply(data, data, out=tables[1, :, 1:])
        np.cumsum(tables[1, :, 1:], axis=1, out=tables[1, :, 1:])
        return tuple(tables)
    half = factor / 2.0  # the sum of a cell's subsample offsets (k+0.5)/factor
    sq = (4.0 * factor * factor - 1.0) / (12.0 * factor)  # ... and of their squares
    pad = np.concatenate((data[:, :1], data, data[:, -1:]), axis=1)
    nxt = np.concatenate((pad[1:], pad[-1:]))  # each row's next one; the last row's is itself
    tables = np.empty((h, w + 1, 4, c))
    cross = np.empty((h, w + 1, c))
    tables[:, :, 2] = pad[:, :-1]
    np.subtract(pad[:, 1:], pad[:, :-1], out=tables[:, :, 3])

    def cumulate(out, first):
        """Column 0 takes off the left half cell; column J+1 adds cell J."""
        np.multiply(first, -half, out=out[:, 0])
        np.cumsum(out, axis=1, out=out)

    # sum over cell J of a*b with a, b linear from (a0, b0) to (a1, b1):
    # half*(a0*b1 + a1*b0) + sq*(a1-a0)*(b1-b0)
    def products(b, out):
        np.multiply(pad[:, :-2], b[:, 1:-1], out=out[:, 1:])
        out[:, 1:] += pad[:, 1:-1] * b[:, :-2]
        out[:, 1:] *= half
        out[:, 1:] += sq * tables[:, :-1, 3] * (b[:, 1:-1] - b[:, :-2])
        cumulate(out, pad[:, 0] * b[:, 0])

    np.add(pad[:, :-2], pad[:, 1:-1], out=tables[:, 1:, 0])
    tables[:, 1:, 0] *= half
    cumulate(tables[:, :, 0], pad[:, 0])
    products(pad, tables[:, :, 1])
    products(nxt, cross)
    return tables, cross


def _crossing_values(prefix1, prefix2, rows, cols, factor: int):
    """Unsigned (k, C) sums of f and f^2 left of k crossings.

    At factor 1, prefix1/prefix2 are (H, W+1, C) row-wise prefix sums of
    the pixels and of their squares (column 0 is zero), and a crossing
    gathers one entry of each.

    Above it the tables are O(H*W), whatever the factor.  Subsample row r
    is (1-t)*a_i0 + t*a_i1, with (i0, i1, t) the ``_cell`` of its center
    as in ``bilinear_sample`` and a_i pixel row i interpolated onto the
    subsample columns.  Padded with its end values, a row is linear inside
    each cell [J-1, J] of pixel centers, and every cell holds ``factor``
    subsample columns at the same offsets, so the prefix sums of a_i, of
    a_i^2 (Q) and of a_i*a_(i+1) (X) at any column have a closed form:
    whole cells left of cell J plus the first m subsamples of cell J.
    prefix1 is (H, W+1, 4, C); entry [i, J] holds those whole-cell sums
    of a_i and of a_i^2 (less the left border's half cell), the padded
    row's value at the cell's left end and its step across the cell.
    prefix2 is (H, W+1, C), the whole-cell sums of X (of a_i^2 on the
    last row).  A crossing reads entry [i0, J] and [i1, J] of prefix1 and
    [i0, J] of prefix2, and the polynomial in m of the blended row.
    """
    if factor == 1:
        return prefix1[rows, cols], prefix2[rows, cols]
    v1, v2 = np.empty((2, rows.size, prefix1.shape[-1]))
    for lo in range(0, rows.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        v1[block], v2[block] = _blend(prefix1, prefix2, rows[block], cols[block], factor)
    return v1, v2


def _blend(prefix1, prefix2, rows, cols, factor: int):
    """:func:`_crossing_values` above factor 1, for one block of crossings."""
    h, wcols, _, c = prefix1.shape
    i0, i1, t = _cell((rows + 0.5) / factor - 0.5, h)
    # the first col subsample columns fill the right half of cell 0, the
    # cells before cell J and the first m columns of cell J
    cell, m = np.divmod(cols + factor // 2, factor)
    m = m.astype(np.float64)
    s1 = (m * m / (2.0 * factor))[:, None]  # sum of the first m offsets
    s2 = (m * (4.0 * m * m - 1.0) / (12.0 * factor * factor))[:, None]  # ... of their squares
    m = m[:, None]
    at0 = i0 * wcols + cell
    # row i1 is i0 + 1, or i0 itself on a one-row frame
    flat = prefix1.reshape(h * wcols, 4 * c)
    r0 = flat.take(at0, axis=0).reshape(-1, 4, c)
    r1 = flat.take(at0 + (i1 - i0) * wcols, axis=0).reshape(-1, 4, c)
    x0 = prefix2.reshape(h * wcols, c).take(at0, axis=0)
    t = t[:, None]
    u = 1.0 - t
    # the blended row's value at the cell's left end and its step across the cell
    g = u * r0[:, 2] + t * r1[:, 2]
    d = u * r0[:, 3] + t * r1[:, 3]
    v1 = u * r0[:, 0] + t * r1[:, 0] + m * g + s1 * d
    v2 = (u * u * r0[:, 1] + 2.0 * t * u * x0 + t * t * r1[:, 1]
          + m * g * g + 2.0 * s1 * g * d + s2 * d * d)
    return v1, v2


def edge_sums(prefix1: np.ndarray, prefix2: np.ndarray, x1, y1, x2, y2, factor: int):
    """Signed sums of each edge's crossings: the one reduction of crossings.

    Edge k runs from (x1[k], y1[k]) to (x2[k], y2[k]); the tables are those
    of :func:`_crossing_values`.  Each crossing adds sign * col to its
    edge's sample count and sign * prefix[row, col] to its moments.
    Returns (count, s1, s2) of shapes (m,), (m, C) and (m, C).  Summed over
    the edges of a ring they give that ring's signed sums (see
    :func:`ss_stats`), so two rings that share all but a few edges differ
    by those edges' sums alone.  A call is O(crossings * C), with no sort.
    """
    h, wcols = prefix1.shape[:2]
    c = prefix1.shape[-1]
    m = len(x1)
    rows, cols, sign, edge = _crossings(x1, y1, x2, y2, factor, h * factor, factor * (wcols - 1))
    count = np.bincount(edge, weights=sign * cols, minlength=m)
    slot = (edge[:, None] * c + np.arange(c)).ravel()
    sign = sign[:, None]

    def per_edge(values):
        return np.bincount(slot, weights=(sign * values).ravel(), minlength=m * c).reshape(m, c)

    v1, v2 = _crossing_values(prefix1, prefix2, rows, cols, factor)
    return count, per_edge(v1), per_edge(v2)


def ss_stats(prefix1: np.ndarray, prefix2: np.ndarray, xs, ys, factor: int):
    """Signed region sums of the closed polygon with these vertices.

    The sums over the edges of :func:`edge_sums` on the polygon's ring.
    Returns (n_samples, s1, s2) in sample units, on the grid described in
    :func:`_crossings`: positive for a counter-clockwise ring (positive
    shoelace area in pixel coordinates), their negatives for a clockwise
    one.  Samples count with their winding number (see the module
    docstring).
    """
    count, s1, s2 = edge_sums(prefix1, prefix2, *_ring(xs, ys), factor)
    return float(count.sum()), s1.sum(axis=0), s2.sum(axis=0)


def frame_sums(prefix1: np.ndarray, prefix2: np.ndarray, factor: int):
    """(n_samples, s1, s2) of the whole sample grid, from the tables alone.

    Each sample row's sums are the :func:`_crossing_values` right of its
    last sample, read from column W of the tables; no crossing pass is
    made.  The rows are added in order by a sequential ``cumsum``, as
    :func:`edge_sums` adds an edge's crossings, so the totals equal those
    of :func:`ss_stats` on a ring around the frame to the bit, where a
    pairwise ``sum`` would not.
    """
    hs, ws = prefix1.shape[0] * factor, factor * (prefix1.shape[1] - 1)
    v1, v2 = _crossing_values(prefix1, prefix2, np.arange(hs), np.full(hs, ws), factor)
    return float(hs * ws), np.cumsum(v1, axis=0)[-1], np.cumsum(v2, axis=0)[-1]
