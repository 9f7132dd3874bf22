"""polyseg: two-region Mumford-Shah segmentation on an explicit polygon.

The contour is an explicit closed polygon evolved by gradient descent on
the per-vertex shape gradient of a normalized two-region energy -- no level
sets, no curve parametrization.  Region statistics come from one path,
``SupersampledEvaluator``, which sums row prefix sums at the polygon's
scanline crossings; its NumPy kernels, and the moment array they return,
live in ``polyseg.backend``.  Each derived quantity has one owner: a
``RegionStats`` carries the region means and variances and rejects an
empty side, and a ``Polygon`` carries its ``edges`` and edge ``lengths``.
``breakdown_from_stats`` turns an evaluator's statistics into an energy,
and ``bilinear_sample`` and the supersampled evaluator share one cell
rule.
"""

from .backend import BACKEND
from .color import srgb_to_lab
from .energy import (
    EnergyBreakdown,
    GradientField,
    breakdown_from_stats,
    region_shape_gradient,
    shape_gradient,
)
from .errors import (
    BadParams,
    DegeneratePolygon,
    EmptyRegion,
    ParseError,
    PolysegError,
    UnsupportedFormat,
    WrongColorspace,
)
from .evolve import (
    EvolveConfig,
    SegmentationResult,
    TraceRow,
    converged,
    init_circle,
    run,
    step,
    write_trace_csv,
)
from .geometry import (
    Polygon,
    discrete_curvature,
    ensure_ccw,
    is_simple,
    outward_normals,
    polygon_area,
    polygon_perimeter,
    read_polygon,
    resample_uniform,
    vertex_weights,
    write_polygon,
)
from .image import GRAY, LAB, RGB, Image, bilinear_sample
from .imageio import Rng, add_gaussian_noise, read_pnm, synth_shape, to_gray, write_pnm
from .raster import RegionStats, SupersampledEvaluator, rasterize_mask

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BadParams",
    "DegeneratePolygon",
    "EmptyRegion",
    "EnergyBreakdown",
    "EvolveConfig",
    "GRAY",
    "GradientField",
    "Image",
    "LAB",
    "ParseError",
    "Polygon",
    "PolysegError",
    "RGB",
    "RegionStats",
    "Rng",
    "SegmentationResult",
    "SupersampledEvaluator",
    "TraceRow",
    "UnsupportedFormat",
    "WrongColorspace",
    "add_gaussian_noise",
    "bilinear_sample",
    "breakdown_from_stats",
    "converged",
    "discrete_curvature",
    "ensure_ccw",
    "init_circle",
    "is_simple",
    "outward_normals",
    "polygon_area",
    "polygon_perimeter",
    "rasterize_mask",
    "read_pnm",
    "read_polygon",
    "region_shape_gradient",
    "resample_uniform",
    "run",
    "shape_gradient",
    "srgb_to_lab",
    "step",
    "synth_shape",
    "to_gray",
    "vertex_weights",
    "write_pnm",
    "write_polygon",
    "write_trace_csv",
]
