"""Shared fixtures and independent oracles for the test suite."""

import numpy as np

import polyseg as ps
from polyseg import backend
from polyseg.image import _cell


def blob_image(w: int = 64, h: int = 64) -> ps.Image:
    """Smooth synthetic image: sum of three Gaussian blobs, clipped to [0, 1]."""
    Y, X = np.mgrid[0:h, 0:w].astype(float)
    f = (
        0.12
        + 0.80 * np.exp(-((X - 22) ** 2 + (Y - 20) ** 2) / (2 * 9.0**2))
        + 0.55 * np.exp(-((X - 45) ** 2 + (Y - 40) ** 2) / (2 * 12.0**2))
        + 0.40 * np.exp(-((X - 28) ** 2 + (Y - 50) ** 2) / (2 * 7.0**2))
    )
    return ps.Image(np.clip(f, 0.0, 1.0), ps.GRAY)


def star_polygon(seed, n=40, center=(32.0, 32.0), r_mean=16.0, amp=0.14, kmax=3):
    """Random smooth star-shaped polygon (simple by construction).

    Low-order radial harmonics keep per-vertex turning angles small, so the
    half-edge-sum vertex weights stay close to the exact half-chord area
    derivative.
    """
    rng = np.random.default_rng(seed)
    th = 2 * np.pi * np.arange(n) / n
    r = np.ones(n)
    for k in range(1, kmax + 1):
        r += amp * rng.uniform(0.3, 1.0) / k * np.cos(k * th + rng.uniform(0, 2 * np.pi))
    r *= r_mean
    pts = np.column_stack([center[0] + r * np.cos(th), center[1] + r * np.sin(th)])
    return ps.Polygon(pts)


def pentagram(center=(32.0, 32.0), radius=20.0) -> ps.Polygon:
    """Five-pointed star drawn in one stroke: every edge crosses two others."""
    th = np.pi / 2 + np.deg2rad(144.0) * np.arange(5)
    return ps.Polygon(np.column_stack([center[0] + radius * np.cos(th),
                                       center[1] + radius * np.sin(th)]))


def hausdorff_to_circle(p: ps.Polygon, center, radius, samples_per_edge=8) -> float:
    """Symmetric Hausdorff distance between a polygon and a circle."""
    pts = p.points
    nxt = np.roll(pts, -1, axis=0)
    ts = np.linspace(0, 1, samples_per_edge, endpoint=False)
    dense = (
        pts[None, :, :] * (1 - ts)[:, None, None] + nxt[None, :, :] * ts[:, None, None]
    ).reshape(-1, 2)
    d_poly = np.abs(
        np.hypot(dense[:, 0] - center[0], dense[:, 1] - center[1]) - radius
    ).max()
    th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    circ = np.column_stack(
        [center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)]
    )
    d_circ = np.full(len(circ), np.inf)
    for i in range(len(pts)):
        ab = nxt[i] - pts[i]
        t = np.clip(((circ - pts[i]) @ ab) / (ab @ ab), 0.0, 1.0)
        proj = pts[i] + t[:, None] * ab
        d = np.hypot(circ[:, 0] - proj[:, 0], circ[:, 1] - proj[:, 1])
        d_circ = np.minimum(d_circ, d)
    return float(max(d_poly, d_circ.max()))


def winding_numbers(pts: np.ndarray, width: int, height: int) -> np.ndarray:
    """Winding number of every pixel center by explicit ray casting.

    The ray from center (c, r) runs toward smaller x.  An edge meets it iff
    min(y1, y2) <= r < max(y1, y2) and the edge crosses row r at or left of
    c (the half-open, top-left rule of ``polyseg.backend``); it counts +1
    where the edge runs toward larger y and -1 otherwise.  Returns a
    (height, width) int64 array, built one edge at a time over all pixels.
    """
    r = np.arange(height, dtype=np.float64)[:, None]
    c = np.arange(width, dtype=np.float64)[None, :]
    out = np.zeros((height, width), dtype=np.int64)
    for (x1, y1), (x2, y2) in zip(pts, np.roll(pts, -1, axis=0)):
        if y1 == y2:
            continue
        xc = x1 + (r - y1) * (x2 - x1) / (y2 - y1)
        meets = (min(y1, y2) <= r) & (r < max(y1, y2)) & (xc <= c)
        out += np.where(meets, 1 if y2 > y1 else -1, 0)
    return out


def brute_force_mask(pts: np.ndarray, width: int, height: int) -> np.ndarray:
    """Even-odd inside test per pixel center: the parity of its winding number."""
    return winding_numbers(pts, width, height) % 2 == 1


def is_simple_table(p: ps.Polygon) -> bool:
    """True iff no two non-adjacent edges intersect (even touching).

    The former body of ``polyseg.is_simple``, kept as the differential-test
    oracle of the sort-and-sweep version: it evaluates every vertex-against-
    edge orientation with the same floating-point expression, so the two
    apply bit-identical predicates and differ only in the pairs they visit.

    Every orientation the pairwise segment test needs is an entry of one
    n x n table, ``orient[k, j] = cross(v_j, v_{j+1}, v_k)``, the side of
    edge j's line that vertex k lies on.  Edges i and j cross properly iff
    each one's endpoints lie strictly on opposite sides of the other's line;
    a vertex touches edge j iff it is collinear with it, inside its bounding
    box and not one of its endpoints.  The table is exactly 0 at an edge's
    own endpoints, so adjacent edges never straddle each other.  O(n^2)
    time and memory; polygons with fewer than 4 vertices are simple.
    """
    n = len(p)
    if n < 4:
        return True
    pts, edge = p.points, p.edges
    x, y = pts[:, 0], pts[:, 1]
    orient = np.subtract.outer(y, y)
    orient *= edge[:, 0]
    side = np.subtract.outer(x, x)
    side *= edge[:, 1]
    orient -= side
    # side[i, j] < 0: v_i and v_{i+1} lie strictly on opposite sides of edge j
    np.multiply(orient[:-1], orient[1:], out=side[:-1])
    np.multiply(orient[-1], orient[0], out=side[-1])
    straddle = side < 0
    if np.any(straddle & straddle.T):
        return False
    k, j = np.nonzero(orient == 0)
    j1 = (j + 1) % n
    keep = (k != j) & (k != j1)
    k, j, j1 = k[keep], j[keep], j1[keep]
    lo, hi = np.minimum(pts[j], pts[j1]), np.maximum(pts[j], pts[j1])
    return not bool(np.any(((lo <= pts[k]) & (pts[k] <= hi)).all(axis=1)))


def region_stats(img: ps.Image, mask: np.ndarray) -> ps.RegionStats:
    """Exact per-channel moment sums over the inside/outside pixel sets.

    The former ``polyseg.region_stats``: moments under an explicit mask,
    summed by ``backend.mask_stats``, kept as the mask-based oracle of the
    crossing-based ``SupersampledEvaluator``.

    Raises
    ------
    EmptyRegion
        If either side of the mask has zero pixels.
    """
    if mask.shape != (img.height, img.width):
        raise ValueError("mask dimensions must match the image")
    area_in, s1_in, s2_in, s1_all, s2_all = backend.mask_stats(
        img.data, np.ascontiguousarray(mask, dtype=np.uint8)
    )
    return ps.RegionStats(
        area_in=area_in,
        area_out=float(img.width * img.height) - area_in,
        s1_in=s1_in,
        s1_out=s1_all - s1_in,
        s2_in=s2_in,
        s2_out=s2_all - s2_in,
    )


def naive_region_sums(data: np.ndarray, mask: np.ndarray):
    """Double-loop accumulation oracle for region statistics."""
    h, w, c = data.shape
    s1_in = np.zeros(c)
    s2_in = np.zeros(c)
    s1_out = np.zeros(c)
    s2_out = np.zeros(c)
    n_in = 0
    for r in range(h):
        for col in range(w):
            for ch in range(c):
                v = data[r, col, ch]
                if mask[r, col]:
                    s1_in[ch] += v
                    s2_in[ch] += v * v
                else:
                    s1_out[ch] += v
                    s2_out[ch] += v * v
            if mask[r, col]:
                n_in += 1
    return n_in, s1_in, s2_in, s1_out, s2_out


def lab_scalar(r: float, g: float, b: float):
    """Independent scalar sRGB -> CIELAB (D65, 2 degree observer)."""

    def inv_gamma(u):
        return u / 12.92 if u <= 0.04045 else ((u + 0.055) / 1.055) ** 2.4

    rl, gl, bl = inv_gamma(r), inv_gamma(g), inv_gamma(b)
    x = 0.4124564 * rl + 0.3575761 * gl + 0.1804375 * bl
    y = 0.2126729 * rl + 0.7151522 * gl + 0.0721750 * bl
    z = 0.0193339 * rl + 0.1191920 * gl + 0.9503041 * bl

    def f(t):
        d = 6.0 / 29.0
        return t ** (1.0 / 3.0) if t > d**3 else t / (3 * d * d) + 4.0 / 29.0

    fx, fy, fz = f(x / 0.95047), f(y / 1.0), f(z / 1.08883)
    return 116 * fy - 16, 500 * (fx - fy), 200 * (fy - fz)


def disk_fixture(noise_sd=0.0, seed=42):
    """The 200x200 disk fixture: radius 60 at (100, 100), values 0.9/0.1."""
    img = ps.synth_shape("disk", 200, 200, 0.9, 0.1, {"cx": 100, "cy": 100, "r": 60})
    if noise_sd > 0:
        img = ps.add_gaussian_noise(img, noise_sd, ps.Rng(seed))
    return img


def supersampled_total(ev, p: ps.Polygon, eta: float) -> float:
    """Total energy from a SupersampledEvaluator's fractional stats."""
    return ps.supersampled_energy(ev, p, eta).total


def upsample_bilinear(data: np.ndarray, factor: int, out: np.ndarray) -> None:
    """Bilinear upsample of (H, W, C) data onto the subsample grid.

    Subsample (sr, sc) is centered at ((sc+0.5)/factor - 0.5,
    (sr+0.5)/factor - 0.5) and interpolated on the same clamped cells as
    ``bilinear_sample``.  The result is written into out, an (H*factor,
    W*factor, C) array or view, one subsample row at a time, so no
    temporary of the whole field is made.
    """
    h, w = data.shape[:2]

    def centers(n):
        return (np.arange(n * factor, dtype=np.float64) + 0.5) / factor - 0.5

    j0, j1, tx = _cell(centers(w), w)
    i0, i1, ty = _cell(centers(h), h)
    rows = data[:, j0, :] * (1.0 - tx)[None, :, None] + data[:, j1, :] * tx[None, :, None]
    for sr in range(h * factor):
        np.multiply(rows[i0[sr]], 1.0 - ty[sr], out=out[sr])
        out[sr] += rows[i1[sr]] * ty[sr]


def full_field_stats(img: ps.Image, factor: int, p: ps.Polygon) -> ps.RegionStats:
    """Supersampled RegionStats summed over the whole upsampled field.

    The former factor > 1 path of ``SupersampledEvaluator``, kept as the
    differential-test oracle of the blended pixel-row tables: the field is
    upsampled in full, and two (H*factor, W*factor+1, C) row-wise prefix
    tables of it and of its square are differenced at the polygon's runs.
    The runs come from sorting the crossings and pairing them on each row
    (even-odd), not from the signed per-crossing sums of
    ``backend.edge_sums``, so the two agree only on simple polygons.

    Raises
    ------
    EmptyRegion
        If either side of the polygon holds no sample.
    """
    h, w, c = img.data.shape
    hs, ws = h * factor, w * factor
    prefix1, prefix2 = np.zeros((2, hs, ws + 1, c))
    s1, s2 = prefix1[:, 1:, :], prefix2[:, 1:, :]
    upsample_bilinear(img.data, factor, out=s1)
    np.multiply(s1, s1, out=s2)
    np.cumsum(s1, axis=1, out=s1)
    np.cumsum(s2, axis=1, out=s2)
    x, y = p.points[:, 0], p.points[:, 1]
    rows, cols, _, _ = backend._crossings(x, y, np.roll(x, -1), np.roll(y, -1), factor, hs, ws)
    order = np.lexsort((cols, rows))
    ra, ca, cb = rows[order][0::2], cols[order][0::2], cols[order][1::2]
    nsub = float(np.sum(cb - ca))
    s1_in = (prefix1[ra, cb] - prefix1[ra, ca]).sum(axis=0)
    s2_in = (prefix2[ra, cb] - prefix2[ra, ca]).sum(axis=0)
    s1_all = prefix1[:, -1, :].sum(axis=0)
    s2_all = prefix2[:, -1, :].sum(axis=0)
    inv = 1.0 / (factor * factor)
    return ps.RegionStats(
        area_in=nsub * inv,
        area_out=(hs * ws - nsub) * inv,
        s1_in=s1_in * inv,
        s1_out=(s1_all - s1_in) * inv,
        s2_in=s2_in * inv,
        s2_out=(s2_all - s2_in) * inv,
    )


def wide_tables(img: ps.Image, factor: int):
    """Prefix tables of the pixel rows interpolated onto the subsample columns.

    The former factor > 1 set-up of ``SupersampledEvaluator``, kept as the
    reference of the closed-form tables of ``backend.cell_tables``: with
    a_i pixel row i interpolated onto the factor*W subsample columns,
    returns (A, QX), A the row-wise prefix sums of a_i and QX those of
    a_i^2 (Q) and of a_i*a_(i+1) (X; a_i^2 on the last row) stacked, all
    (H, factor*W+1, C) with a zero column 0.
    """
    rows = img.data
    h, w, c = rows.shape
    j0, j1, tx = _cell((np.arange(w * factor) + 0.5) / factor - 0.5, w)
    rows = rows[:, j0, :] * (1.0 - tx)[None, :, None] + rows[:, j1, :] * tx[None, :, None]
    tables = np.zeros((3, h, rows.shape[1] + 1, c))
    np.cumsum(rows, axis=1, out=tables[0, :, 1:])
    np.multiply(rows, rows, out=tables[1, :, 1:])
    # each row times the next; the last row, clamped, times itself
    np.multiply(rows[:-1], rows[1:], out=tables[2, :-1, 1:])
    tables[2, -1] = tables[1, -1]
    np.cumsum(tables[1:, :, 1:], axis=2, out=tables[1:, :, 1:])
    return tables[0], tables[1:]


def wide_crossing_values(prefix1, prefix2, rows, cols, factor: int):
    """Unsigned sums of f and f^2 left of crossings, read from ``wide_tables``.

    The former factor > 1 branch of ``backend._crossing_values``: subsample
    row r is (1-t)*a_i0 + t*a_i1, with (i0, i1, t) the ``_cell`` of its
    center, so a crossing reads a blend of two rows of prefix sums.
    """
    i0, i1, t = _cell((rows + 0.5) / factor - 0.5, prefix1.shape[0])
    t = t[:, None]
    u = 1.0 - t
    q, x = prefix2
    v1 = u * prefix1[i0, cols] + t * prefix1[i1, cols]
    v2 = u * u * q[i0, cols] + 2.0 * t * u * x[i0, cols] + t * t * q[i1, cols]
    return v1, v2


def gradcheck_table(img: ps.Image, p: ps.Polygon, eta: float, factor: int = 16,
                    h: float = 0.25, gate: float = 1e-4, threshold: float = 0.1) -> str:
    """The stdout of ``polyseg gradcheck``, one whole-polygon energy per move.

    The former body of ``cli._cmd_gradcheck``, kept as the oracle of its
    moved-edge evaluation: each of the 2n central-difference energies comes
    from ``supersampled_energy`` on the moved polygon built in full.
    """
    g = ps.shape_gradient(img, p, eta)
    analytic = g.speeds * ps.vertex_weights(p)
    ev = ps.SupersampledEvaluator(img, factor)
    worst = 0.0
    lines = [f"{'vertex':>6} {'analytic':>14} {'fd':>14} {'rel_err':>10}"]
    for i in range(len(p)):
        nrm = g.normals[i]
        fd_vals = []
        for sign in (+1.0, -1.0):
            pts = p.points.copy()
            pts[i] += sign * h * nrm
            fd_vals.append(ps.supersampled_energy(ev, ps.Polygon(pts), eta).total)
        fd = (fd_vals[0] - fd_vals[1]) / (2.0 * h)
        if abs(analytic[i]) > gate:
            rel = abs(analytic[i] - fd) / abs(analytic[i])
            worst = max(worst, rel)
            lines.append(f"{i:>6} {analytic[i]:>14.6e} {fd:>14.6e} {rel:>10.4f}")
        else:
            lines.append(f"{i:>6} {analytic[i]:>14.6e} {fd:>14.6e} {'(gated)':>10}")
    lines.append(f"max relative error: {worst:.4f} (threshold {threshold})")
    return "\n".join(lines) + "\n"
