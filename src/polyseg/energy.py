"""The two-region segmentation energy and its per-vertex shape gradient.

For a region Omega with boundary Gamma inside the image domain, the energy
is the sum of the normalized intensity variances of the two sides plus a
weighted boundary length:

    E = var(Omega) + var(Omega^c) + eta * |Gamma|

with per-channel variances summed for multi-channel images.  The shape
gradient is the boundary density whose integral against a normal velocity
gives the energy's directional derivative.  In compact form, per channel:

    region part(x) = ((f(x) - mu_in)^2 - var_in) / area_in
                   + (var_out - (f(x) - mu_out)^2) / area_out

and the length term contributes eta * curvature.  Region means, variances
and areas are fields of the :class:`~polyseg.raster.RegionStats` that
``SupersampledEvaluator(img, 1)`` returns, the same exact pixel statistics
the evolution loop uses, so the gradient matches the energy actually
reported and descended.  They are derived from the region moment array
that the ``polyseg.backend`` docstring describes.

:func:`breakdown_from_stats` is the one path from statistics to an
energy: ``breakdown_from_stats(ev.stats(p), polygon_perimeter(p), eta)``
for one polygon.  The evolution loop calls it once per iteration, on the
``RegionStats`` it reuses for the gradient; the gradient check once, on
the batch of all its moved polygons from
``SupersampledEvaluator.moved_stats``.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import Polygon, discrete_curvature, outward_normals
from .image import Image, bilinear_sample
from .raster import RegionStats, SupersampledEvaluator


@dataclass
class EnergyBreakdown:
    """Inside/outside variance terms, length and total: floats, or (k,) for k polygons."""

    e1: float
    e2: float
    e3: float
    total: float


@dataclass
class GradientField:
    """Per-vertex normal speeds with outward normals."""

    speeds: np.ndarray
    normals: np.ndarray


def breakdown_from_stats(stats: RegionStats, perimeter, eta: float) -> EnergyBreakdown:
    """EnergyBreakdown from region variances and boundary lengths, of one polygon or k."""
    e1 = stats.var_in.sum(axis=-1)
    e2 = stats.var_out.sum(axis=-1)
    return EnergyBreakdown(e1=e1, e2=e2, e3=perimeter, total=e1 + e2 + eta * perimeter)


def region_shape_gradient(img: Image, stats: RegionStats, points: np.ndarray) -> np.ndarray:
    """Region part of the shape gradient at arbitrary boundary points.

    Per channel and point x (intensity f(x) sampled bilinearly, clamped at
    the borders):

        ((f(x) - mu_in)^2 - var_in) / area_in
        + (var_out - (f(x) - mu_out)^2) / area_out

    summed over channels.  Returns one value per point.
    """
    pts = np.asarray(points, dtype=np.float64)
    f = bilinear_sample(img, pts[:, 0], pts[:, 1])
    din = f - stats.mu_in[None, :]
    dout = f - stats.mu_out[None, :]
    g_in = (din * din - stats.var_in[None, :]) / stats.area_in
    g_out = (stats.var_out[None, :] - dout * dout) / stats.area_out
    return (g_in + g_out).sum(axis=1)


def _gradient_from_stats(img: Image, p: Polygon, eta: float, stats: RegionStats) -> GradientField:
    """Gradient field for a polygon whose region statistics are already known."""
    speeds = region_shape_gradient(img, stats, p.points) + eta * discrete_curvature(p)
    return GradientField(speeds=speeds, normals=outward_normals(p))


def shape_gradient(img: Image, p: Polygon, eta: float) -> GradientField:
    """Per-vertex shape gradient of the energy: region part + eta * curvature.

    speeds[i] is the normal speed of the energy at vertex i, a density per
    unit boundary length: speeds[i] * vertex_weights(p)[i] approximates the
    energy's derivative under a unit normal displacement of that single
    vertex.  On a multi-channel image the region part is summed over
    channels and eta * curvature enters once.
    """
    return _gradient_from_stats(img, p, eta, SupersampledEvaluator(img, 1).stats(p))
