"""In-memory span tracer that wraps polyseg functions from the outside.

A target is named after the module that defines it (``raster.region_stats``)
but is patched at every name that a loaded polyseg module binds to it, so
``evolve``'s ``from .raster import region_stats`` copy is wrapped too.
Modules are reached through ``sys.modules``: on the package,
``polyseg.energy`` is the function ``energy``, not the submodule.  A target
that no longer exists is skipped and reports zero calls.

Spans are ``[name, start, end, parent_index, work]`` lists kept in memory;
a span's self time is its duration minus its direct children's.
"""

import functools
import sys
import time

# Computed work per call, from the call's arguments (bytes or pair counts).
# They describe the work of the current algorithms and are labelled
# "computed" wherever they are reported.


def _region_stats_bytes(img, mask, *_, **__):
    return img.data.size * 8  # one float64 pass over (H, W, C)


def _fill_mask_bytes(xs, ys, width, height, *_, **__):
    return height * (width + 1) * 8  # (H, W+1) int64 crossing flips


def _is_simple_pairs(p, *_, **__):
    n = len(p)
    return n * (n - 3) // 2  # non-adjacent edge pairs tested


def _ss_init_bytes(self, img, factor, *_, **__):
    h, w, c = img.data.shape
    hs, ws = h * factor, w * factor
    return (hs * ws + 2 * hs * (ws + 1)) * c * 8  # field + two prefix tables


WORK = {
    "raster.region_stats": _region_stats_bytes,
    "backend.fill_mask": _fill_mask_bytes,
    "geometry.is_simple": _is_simple_pairs,
    "raster.SupersampledEvaluator.init": _ss_init_bytes,
}

# Every public layer boundary the CLI crosses, named by defining module.
TARGETS = (
    "cli._load_for_mode",
    "evolve.run", "evolve.step", "evolve.converged", "evolve.init_circle",
    "evolve.write_trace_csv",
    "raster.rasterize_mask", "raster.region_stats",
    "raster.SupersampledEvaluator.init", "raster.SupersampledEvaluator.stats",
    "backend.fill_mask", "backend.mask_stats", "backend.ss_stats",
    "geometry.is_simple", "geometry.resample_uniform", "geometry.ensure_ccw",
    "geometry.polygon_perimeter", "geometry.outward_normals",
    "geometry.vertex_weights", "geometry.discrete_curvature",
    "geometry.read_polygon", "geometry.write_polygon",
    "energy.means", "energy.breakdown_from_stats", "energy._gradient_from_stats",
    "energy.region_shape_gradient", "energy.shape_gradient",
    "image.bilinear_sample",
    "imageio.read_pnm", "imageio.write_pnm", "imageio.to_gray",
    "svgout.overlay_svg", "svgout.energy_svg",
    "color.srgb_to_lab",
)

# The one span an untraced `segment` job records: the solver's own time.
STOPWATCH = ("evolve.run",)


def _resolve(target):
    """(owner, attribute, original) for a target, or None if it is gone.

    ``raster.SupersampledEvaluator.init`` names the class's ``__init__``.
    """
    module, *path, attr = target.split(".")
    owner = sys.modules.get("polyseg." + module)
    for part in path:
        owner = getattr(owner, part, None)
    if isinstance(owner, type):
        attr = "__init__" if attr == "init" else attr
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    """Records spans of the targets while installed (``with tracer:``)."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            units = None
            if work is not None:
                try:
                    units = work(*args, **kwargs)
                except (TypeError, AttributeError, ValueError):
                    units = None
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, units]
            spans.append(span)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[1], span[2] = t0, clock()
                stack.pop()

        return wrapper

    def install(self):
        """Patch every target at each polyseg name bound to it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "polyseg" or k.startswith("polyseg."))]
        for target in self.targets:
            found = _resolve(target)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as a root span; returns (result, seconds)."""
        idx = len(self.spans)
        result = self._wrap(name, fn)(*args)
        return result, self.spans[idx][2] - self.spans[idx][1]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def summarize(spans):
    """Per-name calls, total seconds, self seconds, computed work and the
    name of the first caller span.

    Also returns the self time of all spans under any ``evolve.run`` span,
    for the check that stage self times add up to the run's duration.
    """
    n = len(spans)
    child = [0.0] * n
    under_run = [False] * n
    for i, (_, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            under_run[i] = under_run[parent] or spans[parent][0] == "evolve.run"
    out = {}
    run_desc_self = 0.0
    for i, (name, t0, t1, parent, units) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0,
                                    "parent": spans[parent][0] if parent >= 0 else None})
        rec["calls"] += 1
        rec["s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - child[i]
        if units is not None:
            rec["work"] += units
        if under_run[i]:
            run_desc_self += (t1 - t0) - child[i]
    return out, run_desc_self
