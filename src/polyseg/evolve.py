"""Gradient-descent evolution of the contour polygon.

Each iteration takes the region statistics of the current polygon from its
scanline crossings (``SupersampledEvaluator`` at factor 1), evaluates the
energy, computes the per-vertex shape gradient, and moves every vertex
against its normal speed:

    v_i  <-  v_i - dt * speed_i * n_i

with periodic arc-length resampling and a windowed relative-energy
convergence test.  One rule sets the step size:

    dt = min(dt_cap, 0.5 px / max_i |speed_i|)   (dt_cap if all speeds are 0)

Region speeds scale like 1/area, so on large frames the half-pixel step
needs a large dt: up to 1.4e6 on a 1024^2 frame and 1.2e7 on a 2048^2
frame with 100 vertices.  The default dt_cap (1e8) lies above those steps
and only guards against a runaway step.

The pixel cap does not keep the explicit curvature term stable.  Under
pure curve shortening of a 100-gon of radius 50 at eta 1e-4 (acceptance
test 06), edge length h = 3.14, the explicit limit is about
h^2 / (2 eta) = 4.9e4 (Kass, Witkin & Terzopoulos, "Snakes", IJCV 1988),
and a half-pixel step is dt = 2.5e5, about 5 times that limit.  The
radius spread after 100 iterations is 8.9e-16 r at dt_cap 1e4, 4.0e-13 r
at 4e4, 1.07e-2 r at 5e4, 1.12e-2 r at 1e5 and 1.18e-2 r with no cap.  A
curvature-dominated run should pass a dt_cap below h^2 / (2 eta).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .energy import GradientField, _gradient_from_stats, breakdown_from_stats
from .errors import DegeneratePolygon, EmptyRegion, PolysegError
from .geometry import (
    MIN_EDGE_LEN,
    Polygon,
    ensure_ccw,
    is_simple,
    polygon_perimeter,
    resample_uniform,
)
from .image import Image
from .raster import SupersampledEvaluator

# Abort threshold: below this many inside pixels the region statistics are
# noise-dominated and the contour is considered collapsed.
COLLAPSE_PIXELS = 16

# Displacement cap (px per iteration) for the fastest vertex.
MAX_STEP_PX = 0.5


@dataclass
class EvolveConfig:
    """Evolution parameters.

    The step size is min(dt_cap, 0.5 px / max_i |speed_i|), or dt_cap when
    every speed is 0.  The default dt_cap only guards against a runaway
    step; it does not keep the curvature term stable.  A
    curvature-dominated run needs a dt_cap below h^2 / (2 eta), h the edge
    length (see the module docstring); a small dt_cap gives a fixed small
    step.
    dt_cap, eta and e_thr must be finite, and eta must not be negative: a
    negative length weight rewards longer polygons, so the energy would
    have no lower bound.  n_vertices, max_iters, resample_every and window
    are counts and must be integers.
    """

    n_vertices: int = 100
    dt_cap: float = 1e8
    eta: float = 0.1
    max_iters: int = 500
    e_thr: float = 1e-4
    resample_every: int = 10
    window: int = 10

    def __post_init__(self):
        for name in ("dt_cap", "eta", "e_thr"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("n_vertices", "max_iters", "resample_every", "window"):
            value = getattr(self, name)
            # a bool is an Integral equal to 0 or 1
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if self.n_vertices < 3:
            raise ValueError("n_vertices must be at least 3")
        if self.dt_cap <= 0:
            raise ValueError("dt_cap must be positive")
        if self.eta < 0:
            raise ValueError("eta must not be negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.e_thr <= 0:
            raise ValueError("e_thr must be positive")
        if self.resample_every < 1:
            raise ValueError("resample_every must be at least 1")
        if self.window < 1:
            raise ValueError("window must be at least 1")


@dataclass
class TraceRow:
    """Per-iteration record: energy terms and geometry of the pre-step state."""

    iter: int
    e1: float
    e2: float
    e3: float
    total: float
    area: float
    max_disp: float


@dataclass
class SegmentationResult:
    """Outcome of :func:`run`, or the ``partial`` of an error it raised.

    ``trace`` has one row per finished iteration (``iterations_run`` is its
    length) and ``converged`` says whether the energy test stopped the run.
    The pixel mask of ``final_polygon`` is ``rasterize_mask``'s, and its
    simplicity ``is_simple``'s.

    ``flagged_steps`` counts the steps taken although their fourth halving
    still self-intersected.  The loop holds a non-simple polygon after a
    flagged step or, rarely, after a resample that cuts across the contour;
    such a resample is not counted in ``flagged_steps``.
    """

    final_polygon: Polygon
    trace: list[TraceRow]
    converged: bool
    flagged_steps: int = 0

    @property
    def iterations_run(self) -> int:
        return len(self.trace)


def init_circle(center, radius: float, n: int) -> Polygon:
    """Regular n-gon inscribed in the circle, CCW with uniform edge lengths."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n < 3:
        raise ValueError("need at least 3 vertices")
    theta = 2.0 * np.pi * np.arange(n) / n
    cx, cy = float(center[0]), float(center[1])
    pts = np.column_stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)])
    return Polygon(pts)


def step(p: Polygon, g: GradientField, dt: float, bounds) -> tuple[Polygon, float]:
    """One descent update: v_i - dt * speed_i * n_i, clamped to the frame.

    bounds is (width, height); coordinates are clamped to [0, W-1] x
    [0, H-1].  The clamp can put neighbouring vertices on one frame point,
    or within rounding of it: every vertex that lands within
    ``MIN_EDGE_LEN`` of its successor (closing edge included), the edge
    length ``Polygon`` rejects, is dropped, and the next resample restores
    the vertex count.

    Returns the new polygon and the largest vertex displacement, measured
    before the drop, so a dropped vertex counts too.

    Raises
    ------
    DegeneratePolygon
        If fewer than 3 vertices are left.
    """
    w, h = bounds
    pts = p.points - dt * g.speeds[:, None] * g.normals
    # bound first, as np.clip orders them: a -0.0 at the bound 0.0 stays -0.0
    pts = np.minimum((w - 1.0, h - 1.0), np.maximum(0.0, pts))
    disp = pts - p.points
    max_disp = float(np.hypot(disp[:, 0], disp[:, 1]).max())
    try:  # Polygon measures the edges: only one it rejects needs the drop
        return Polygon(pts), max_disp
    except DegeneratePolygon:
        pass
    gap = np.concatenate((pts[1:], pts[:1])) - pts
    return Polygon(pts[np.hypot(gap[:, 0], gap[:, 1]) > MIN_EDGE_LEN]), max_disp


def converged(trace: list[TraceRow], e_thr: float, window: int) -> bool:
    """Windowed relative-energy convergence test.

    True iff at least 2*window rows exist and the means of the last two
    windows of total energy differ by less than e_thr in relative terms.
    Window averaging is needed because the rasterized energy fluctuates at
    the single-pixel level.
    """
    if len(trace) < 2 * window:
        return False
    totals = np.fromiter((row.total for row in trace[-2 * window :]), np.float64, 2 * window)
    prev, last = totals.reshape(2, window).mean(axis=1).tolist()
    return abs(last - prev) / max(abs(prev), 1e-12) < e_thr


def run(img: Image, p0: Polygon, cfg: EvolveConfig, callback=None) -> SegmentationResult:
    """Evolve p0 on img until convergence, collapse, or max_iters.

    Per iteration: region stats from the polygon's scanline crossings ->
    energy (recorded in the trace) -> shape gradient -> step (with a
    self-intersection safeguard that halves dt up to 4 times, then accepts
    flagged) -> periodic resampling -> convergence check.  The start must
    hold more than half object: the energy is variance-normalized, so
    below that share its region term pushes the contour outward, on a
    clean disk until it covers most of the frame (acceptance test 12).
    ``callback(k, polygon)``, when given, is invoked with each pre-step
    polygon.  A flagged step (or, rarely, a resample) can leave the polygon
    self-intersecting (see :class:`SegmentationResult`).

    Raises
    ------
    DegeneratePolygon
        If p0 is degenerate (near-zero area) or not simple; ``partial`` is
        None.
    PolysegError
        Any error after those start checks: ``EmptyRegion`` if the contour
        collapses below 16 inside pixels, leaves the frame, or covers it;
        ``DegeneratePolygon`` if a step leaves fewer than 3 vertices.
        ``partial`` carries the result so far, with the last polygon the
        loop held.
    """
    p = ensure_ccw(p0)
    if not is_simple(p):
        raise DegeneratePolygon("initial polygon is not simple")
    w, h = img.width, img.height
    ev = SupersampledEvaluator(img, 1)
    trace: list[TraceRow] = []
    flagged = 0
    did_converge = False
    try:
        for k in range(cfg.max_iters):
            stats = ev.stats(p)
            if stats.area_in < COLLAPSE_PIXELS:
                raise EmptyRegion(
                    f"contour collapsed to {int(stats.area_in)} pixels at iteration {k}"
                )
            eb = breakdown_from_stats(stats, polygon_perimeter(p), cfg.eta)
            if callback is not None:
                callback(k, p)

            g = _gradient_from_stats(img, p, cfg.eta, stats)
            max_speed = float(np.abs(g.speeds).max())
            dt = min(cfg.dt_cap, MAX_STEP_PX / max_speed) if max_speed > 0.0 else cfg.dt_cap

            # topology safeguard: halve dt while the step self-intersects, at
            # most 4 times; a fifth non-simple candidate is kept and flagged
            for halvings in range(5):
                p_new, max_disp = step(p, g, dt * 0.5**halvings, (w, h))
                if is_simple(p_new):
                    break
            else:
                flagged += 1

            trace.append(
                TraceRow(iter=k, e1=eb.e1, e2=eb.e2, e3=eb.e3, total=eb.total,
                         area=stats.area_in, max_disp=max_disp)
            )
            p = p_new
            if converged(trace, cfg.e_thr, cfg.window):
                did_converge = True
                break
            if (k + 1) % cfg.resample_every == 0:
                p = resample_uniform(p, cfg.n_vertices)
    except PolysegError as exc:
        exc.partial = SegmentationResult(p, trace, False, flagged)
        raise
    return SegmentationResult(p, trace, did_converge, flagged)


def write_trace_csv(trace: list[TraceRow], path) -> None:
    """Write the evolution trace as CSV with 10 significant digits.

    The perimeter column repeats e3, which is the perimeter.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("iter,e1,e2,e3,total,area,perimeter,max_disp\n")
        for r in trace:
            fh.write(
                f"{r.iter},{r.e1:.10g},{r.e2:.10g},{r.e3:.10g},"
                f"{r.total:.10g},{r.area:.10g},{r.e3:.10g},{r.max_disp:.10g}\n"
            )
