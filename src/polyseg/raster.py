"""Region statistics of polygons, and rasterization into pixel masks.

Pixel (row r, col c) is centered at (x=c, y=r).  Region statistics count
each pixel with the winding number of its center about the closed
polyline, taken with the polygon's orientation; :func:`rasterize_mask`
keeps a pixel iff that number is odd (even-odd rule).  The two agree on
every simple polygon.  Centers exactly on an edge follow the half-open
top-left convention (see ``polyseg.backend``).

:class:`SupersampledEvaluator` is the one path from a polygon to its
:class:`RegionStats`: at factor 1 it gives the exact pixel statistics the
energy, the shape gradient and the evolution loop use, at higher factors
the fractional ones of the gradient check.  Its set-up is two calls into
``polyseg.backend``, which builds its tables (O(H*W) at every factor, no
subsample field) and reads the frame totals from them without a crossing
pass.  Each scanline crossing costs a closed-form blend of two pixel
rows, and each copy of a polygon with one vertex moved costs only the
crossings of its two new edges.  A :class:`RegionStats` derives the
region means and variances itself and is the one place that rejects an
empty side.  :func:`rasterize_mask` selects the same pixels as an
explicit mask; it gives the mask of a run's final polygon, which
``polyseg segment`` writes.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .errors import EmptyRegion
from .geometry import Polygon
from .image import Image


@dataclass(frozen=True)
class RegionStats:
    """Area, intensity moments, means and variances of the two sides.

    Areas are pixel counts (fractional for supersampled stats); s1/s2 are
    per-channel sums of f and f^2 over each side: (C,) with float areas for
    one polygon, (k, C) with (k,) areas for k.  The per-channel means
    mu = s1/area and variances var = s2/area - mu^2 are derived on
    construction; var is clamped at 0 to absorb floating-point cancellation
    on (near-)constant regions.

    Raises
    ------
    EmptyRegion
        If either side of any polygon has zero area.
    """

    area_in: float
    area_out: float
    s1_in: np.ndarray
    s1_out: np.ndarray
    s2_in: np.ndarray
    s2_out: np.ndarray
    mu_in: np.ndarray = field(init=False)
    mu_out: np.ndarray = field(init=False)
    var_in: np.ndarray = field(init=False)
    var_out: np.ndarray = field(init=False)

    def __post_init__(self):
        a_in = np.asarray(self.area_in)[..., None]
        a_out = np.asarray(self.area_out)[..., None]
        # either side of any polygon; count_nonzero is the cheapest any() here
        if np.count_nonzero(np.fmin(a_in, a_out) <= 0.0):
            raise EmptyRegion("one side of the segmentation has zero area")
        mu_in = self.s1_in / a_in
        mu_out = self.s1_out / a_out
        derived = {
            "mu_in": mu_in,
            "mu_out": mu_out,
            "var_in": np.maximum(self.s2_in / a_in - mu_in * mu_in, 0.0),
            "var_out": np.maximum(self.s2_out / a_out - mu_out * mu_out, 0.0),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)  # frozen: set once, here


def rasterize_mask(p: Polygon, width: int, height: int) -> np.ndarray:
    """Scanline even-odd mask of the polygon over a width x height grid.

    Returns an (height, width) boolean array.  Where a polygon crosses
    itself the mask can differ from its region statistics, which count
    each pixel with its winding number (see the module docstring).

    Raises
    ------
    EmptyRegion
        If no pixel center falls inside the polygon.
    """
    if width < 1 or height < 1:
        raise ValueError("mask dimensions must be positive")
    # the fill holds only 0 and 1, valid bytes of a bool array: no copy
    mask = backend.fill_mask(p.points[:, 0], p.points[:, 1], width, height).view(bool)
    if not mask.any():
        raise EmptyRegion("polygon encloses no pixel centers")
    return mask


class SupersampledEvaluator:
    """Region statistics of polygons on a factor-refined sample grid.

    Each pixel is split into factor^2 subsamples carrying the bilinearly
    interpolated intensity.  At factor 1 the samples are the pixels
    themselves and, for a simple polygon, :meth:`stats` sums the moments
    over exactly the pixels ``rasterize_mask`` sets.  At higher factors
    region sums respond fractionally (and hence near-smoothly) as the
    polygon moves, which makes the evaluator the smooth-energy oracle of
    finite-difference gradient checks.

    Set-up is ``backend.cell_tables``, O(H*W) at every factor: at factor 1
    row prefix sums of the pixels and of their squares.  Above it no
    subsample field is built: every subsample row is a blend of two pixel
    rows interpolated onto the subsample columns, and the prefix sums of
    those rows, of their squares and of each row times the next one have a
    closed form in per-pixel cumulative sums.  The frame totals are the
    tables' last column, summed over the sample rows
    (``backend.frame_sums``); set-up makes no crossing pass.  A factor
    outside :attr:`FACTORS`, or not an integer, raises ``ValueError``.
    :meth:`stats` then adds the prefix sums at the polygon's
    scanline crossings only, each signed by its edge's direction and read
    above factor 1 as a blend of two pixel rows, without touching the
    frame.  :meth:`stats` and :meth:`moved_stats` each make one
    crossing pass, ``backend.edge_sums`` (whose ring form is
    ``backend.ss_stats``), and share one orientation flip.
    """

    FACTORS = (1, 2, 4, 8, 16)

    def __init__(self, img: Image, factor: int):
        # a bool is an Integral equal to 0 or 1
        if (not isinstance(factor, numbers.Integral) or isinstance(factor, bool)
                or factor not in self.FACTORS):
            raise ValueError(f"factor must be one of {self.FACTORS}")
        self.factor = factor
        self._prefix1, self._prefix2 = tables = backend.cell_tables(img.data, factor)
        self._total_sub, self._s1_all, self._s2_all = backend.frame_sums(*tables, factor)

    def stats(self, p: Polygon) -> RegionStats:
        """RegionStats of the polygon, in pixel-area units.

        Raises
        ------
        EmptyRegion
            If either side of the polygon holds no sample.
        """
        return self._region_stats(*backend.ss_stats(
            self._prefix1, self._prefix2, p.points[:, 0], p.points[:, 1], self.factor
        ))

    def moved_stats(self, p: Polygon, index, points) -> RegionStats:
        """RegionStats of p with vertex index[j] moved to points[j], for all j.

        A move changes only the two edges at its vertex, so each moved
        polygon's signed sums are p's, minus those of its two old edges,
        plus those of its two new edges.  One crossing pass over p's edges
        and all new edges serves every move.  Areas equal those of
        :meth:`stats` on the moved polygon exactly; moments agree to
        rounding.

        Returns one RegionStats whose row j is move j's.

        Raises
        ------
        ValueError
            If an index is not an integer (a float or bool array would be
            truncated or cast), or lies outside [0, n) for p's n vertices.
        EmptyRegion
            If any move leaves either side without a sample.
        """
        pts = p.points
        n = len(pts)
        index = np.asarray(index)
        if index.size and index.dtype.kind not in "iu":
            raise ValueError(f"vertex indices must be integers, got {index.dtype}")
        index = index.astype(np.intp)
        if np.any((index < 0) | (index >= n)):
            raise ValueError(f"vertex indices must lie in [0, {n})")
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        prev, nxt = pts[index - 1], pts[(index + 1) % n]
        # p's n edges, then new edges n+2j into moved vertex j and n+2j+1 out of it
        start = np.concatenate((pts, np.hstack((prev, points)).reshape(-1, 2)))
        end = np.concatenate((pts[1:], pts[:1], np.hstack((points, nxt)).reshape(-1, 2)))
        sums = backend.edge_sums(self._prefix1, self._prefix2, *start.T, *end.T, self.factor)
        return self._region_stats(*(
            v[:n].sum(axis=0) - (v[:n][index - 1] + v[index]) + (v[n::2] + v[n + 1::2])
            for v in sums
        ))

    def _region_stats(self, nsub, s1: np.ndarray, s2: np.ndarray) -> RegionStats:
        """RegionStats from signed inside sums in sample units, of one polygon or many.

        The sums of a clockwise polygon are the negatives of those of its
        counter-clockwise copy, so each polygon's are taken under the sign
        of its count: the one orientation flip of the package.
        """
        sign = np.copysign(1.0, nsub)
        nsub, s1, s2 = sign * nsub, sign[..., None] * s1, sign[..., None] * s2
        inv = 1.0 / (self.factor * self.factor)
        return RegionStats(
            area_in=nsub * inv,
            area_out=(self._total_sub - nsub) * inv,
            s1_in=s1 * inv,
            s1_out=(self._s1_all - s1) * inv,
            s2_in=s2 * inv,
            s2_out=(self._s2_all - s2) * inv,
        )
