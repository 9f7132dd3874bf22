"""Turn a worker's raw samples into named metrics with units and counts.

End-to-end metrics come from untraced jobs only; per-layer metrics from the
traced jobs of a --trace 1 run, as per-job averages.  Work counts
(``mb_computed``, ``pairs_per_call``) are computed from argument sizes, not
measured traffic.
"""

import statistics

from workloads import Gradcheck

IO_SPANS = ("imageio.read_pnm", "imageio.write_pnm", "evolve.write_trace_csv",
            "geometry.write_polygon", "svgout.overlay_svg", "svgout.energy_svg")


def _m(value, unit, n=None):
    out = {"value": float(value), "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def end_to_end(w, raw, setup_times):
    """(metrics named in BENCHMARK.json, further user-visible figures)."""
    jobs = raw["jobs"]
    plain = [j for j in jobs if j["ok"] and not j["traced"]]
    if not plain:
        raise RuntimeError("no untraced job passed its checks")
    n = len(plain)
    e2e = {
        "job_s": _m(statistics.median(j["s"] for j in plain), "s", n),
        "setup_s": _m(statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": _m(raw["peak_rss_mb"], "MB", 1),
        "iters_per_s": _m(statistics.median(j["work"] / j["solver_s"] for j in plain), "1/s", n),
    }
    ok = [j for j in jobs if j["ok"]]
    extra = {
        "fail_rate": _m(sum(not j["ok"] for j in jobs) / len(jobs), "ratio", len(jobs)),
        "job_s.max": _m(max(j["s"] for j in plain), "s", n),
        "iterations": _m(statistics.median(j["work"] for j in ok), "count", len(ok)),
    }
    if isinstance(w, Gradcheck):
        extra["iterations"]["unit"] = "evaluations"
        extra["gradcheck_max_rel_err"] = _m(max(j["quality"] for j in ok), "ratio", len(ok))
    else:
        extra["iou"] = _m(min(j["quality"] for j in ok), "ratio", len(ok))
    return e2e, extra


def _aggregate(traced):
    """Per-job averages of each span's calls, seconds, self seconds, work."""
    k = len(traced)
    agg = {}
    for t in traced:
        for name, rec in t["summary"].items():
            a = agg.setdefault(name, {"calls": 0.0, "s": 0.0, "self_s": 0.0, "work": 0.0})
            for key in a:
                a[key] += rec[key] / k
    return agg


def per_layer(raw):
    traced = raw["traced"]
    if not traced:
        raise RuntimeError("no traced job passed its checks")
    k = len(traced)
    agg = _aggregate(traced)
    zero = {"calls": 0.0, "s": 0.0, "self_s": 0.0, "work": 0.0}

    def get(name):
        return agg.get(name, zero)

    main_s = get("cli.main")["s"]
    out = {}

    def ms_per_call(name):
        a = get(name)
        out[f"{name}.ms_per_call"] = _m(a["s"] / a["calls"] * 1e3 if a["calls"] else 0.0, "ms", k)

    def share(name, key="s"):
        suffix = "share" if key == "s" else "self_share"
        out[f"{name}.{suffix}"] = _m(get(name)[key] / main_s, "ratio", k)

    def per_job(name, field, metric, unit, scale=1.0):
        out[f"{name}.{metric}"] = _m(get(name)[field] * scale, unit, k)

    for name in ("raster.region_stats", "raster.rasterize_mask", "geometry.is_simple",
                 "energy._gradient_from_stats", "evolve.run",
                 "raster.SupersampledEvaluator.init", "raster.SupersampledEvaluator.stats"):
        share(name)
    for name in ("backend.mask_stats", "backend.fill_mask", "backend.ss_stats"):
        share(name, "self_s")
    for name in ("raster.region_stats", "raster.rasterize_mask", "geometry.is_simple",
                 "evolve.step", "energy._gradient_from_stats", "energy.region_shape_gradient",
                 "image.bilinear_sample", "geometry.discrete_curvature",
                 "geometry.outward_normals", "geometry.vertex_weights",
                 "geometry.resample_uniform", "evolve.converged",
                 "raster.SupersampledEvaluator.stats",
                 "backend.mask_stats", "backend.fill_mask", "backend.ss_stats"):
        ms_per_call(name)
    per_job("raster.region_stats", "work", "mb_computed", "MB", 1e-6)
    per_job("backend.fill_mask", "work", "mb_computed", "MB", 1e-6)
    per_job("raster.SupersampledEvaluator.init", "work", "mb_computed", "MB", 1e-6)
    per_job("raster.SupersampledEvaluator.init", "s", "s", "s")
    per_job("geometry.is_simple", "calls", "calls", "count")
    per_job("evolve.step", "calls", "calls", "count")
    simple = get("geometry.is_simple")
    out["geometry.is_simple.pairs_per_call"] = _m(
        simple["work"] / simple["calls"] if simple["calls"] else 0.0, "count", k)
    steps = get("evolve.step")["calls"]
    iters = sum(t["iterations"] for t in traced) / k if get("evolve.run")["calls"] else 0.0
    out["evolve.step.useful_ratio"] = _m(iters / steps if steps else 0.0, "ratio", k)
    per_job("evolve.run", "s", "s", "s")
    per_job("evolve.run", "self_s", "self_s", "s")
    for name in ("imageio.read_pnm", "imageio.write_pnm", "svgout.overlay_svg", "svgout.energy_svg"):
        per_job(name, "s", "s", "s")
    out["cli.io_s"] = _m(sum(get(name)["s"] for name in IO_SPANS), "s", k)
    per_job("cli.main", "s", "s", "s")
    per_job("cli.main", "self_s", "self_s", "s")

    plain = [j["s"] for j in raw["jobs"] if j["ok"] and not j["traced"]]
    out["trace.overhead_pct"] = _m(
        100.0 * (statistics.median(t["job_s"] for t in traced) / statistics.median(plain) - 1.0),
        "%", k)
    out["trace.spans_per_job"] = _m(sum(t["spans"] for t in traced) / k, "count", k)
    for label, by_backend in raw["probes"].items():
        out[f"backend.probe.{label}.ms"] = _m(by_backend[raw["backend"]], "ms")
    return out


def trace_checks(raw):
    """The stage taking the most inclusive time (a child of evolve.run on
    segment workloads, of cli.main otherwise), and how far evolve.run's
    self time plus the self times of all spans under it miss its duration."""
    traced = raw["traced"]
    k = len(traced)
    agg = _aggregate(traced)
    parents = {n: rec["parent"] for t in traced for n, rec in t["summary"].items()}
    root = "evolve.run" if "evolve.run" in agg else "cli.main"
    stages = {n: a["s"] for n, a in agg.items() if parents.get(n) == root}
    run = agg.get("evolve.run")
    residual = 0.0
    if run:
        missing = run["s"] - run["self_s"] - sum(t["run_desc_self"] for t in traced) / k
        residual = 100.0 * missing / run["s"]
    return max(stages, key=stages.get), _m(residual, "%", k)
