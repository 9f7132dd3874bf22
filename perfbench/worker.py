"""Measuring process of one benchmark run; started by run.py.

Runs one workload's job closed-loop (one client, each job starts when the
previous one has ended) through the CLI entry point ``polyseg.cli.main``
until the time budget is spent, checks every job's outputs, and writes the
raw samples as JSON to the path given on the command line.

    python3 perfbench/worker.py SPEC.json RESULT.json
"""

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import STOPWATCH, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, Gradcheck, truth_mask  # noqa: E402

SEGMENT_FILES = ("trace.csv", "final_polygon.txt", "final_mask.pgm",
                 "overlay.svg", "energy.svg")
# Files whose bytes must repeat exactly for the same input.
REPRODUCIBLE = ("trace.csv", "final_polygon.txt")
MIN_JOBS = 3  # per kind of job (untraced, traced)


def read_pgm(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    fields = raw.split(maxsplit=4)
    if fields[0] != b"P5" or int(fields[3]) != 255:
        raise ValueError("final mask is not an 8-bit P5 PGM")
    w, h = int(fields[1]), int(fields[2])
    data = np.frombuffer(fields[4][: w * h], dtype=np.uint8)
    if data.size != w * h:
        raise ValueError("final mask payload is truncated")
    return data.reshape(h, w)


def check_segment(ps, w, out_dir, stdout, truth):
    """Gate one segment job; returns (iterations, iou, outputs) or raises."""
    for name in SEGMENT_FILES:
        if not os.path.isfile(os.path.join(out_dir, name)):
            raise ValueError(f"missing output {name}")
    m = re.search(r"after (\d+) iterations", stdout)
    if m is None:
        raise ValueError("no iteration count in the CLI output")
    iters = int(m.group(1))
    with open(os.path.join(out_dir, "trace.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    if [int(r.split(",", 1)[0]) for r in rows] != list(range(iters)):
        raise ValueError(f"trace.csv has {len(rows)} rows for {iters} iterations")
    pts = np.loadtxt(os.path.join(out_dir, "final_polygon.txt"), comments="#", ndmin=2)
    if pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
        raise ValueError("final polygon is not finite x y pairs")
    if not ps.is_simple(ps.Polygon(pts)):
        raise ValueError("final polygon is not simple")
    mask = read_pgm(os.path.join(out_dir, "final_mask.pgm")) > 0
    if mask.shape != truth.shape:
        raise ValueError(f"final mask shape {mask.shape} != input {truth.shape}")
    for name in ("overlay.svg", "energy.svg"):
        ET.parse(os.path.join(out_dir, name))
    iou = float((mask & truth).sum() / (mask | truth).sum())
    if w.iou_floor is not None and iou < w.iou_floor:
        raise ValueError(f"IoU {iou:.4f} below {w.iou_floor}")
    outputs = {}
    for name in REPRODUCIBLE:
        with open(os.path.join(out_dir, name), "rb") as fh:
            outputs[name] = fh.read()
    return iters, iou, outputs


def check_gradcheck(w, stdout):
    m = re.search(r"max relative error: ([0-9.eE+-]+)", stdout)
    if m is None:
        raise ValueError("no max relative error in the CLI output")
    checked = len(re.findall(r"^\s*\d+\s", stdout, flags=re.M))
    if checked != w.vertices:
        raise ValueError(f"{checked} vertex rows for {w.vertices} vertices")
    return 2 * w.vertices, float(m.group(1)), {"stdout": stdout.encode()}


def kernel_probes(ps):
    """The three kernel probes of benchmarks/bench_kernels.py, per backend."""
    from polyseg import backend
    from polyseg.raster import SupersampledEvaluator

    def star(n, centre, r_mean):
        th = 2 * np.pi * np.arange(n) / n
        r = r_mean * (1 + 0.12 * np.cos(3 * th + 1.0))
        return np.column_stack([centre + r * np.cos(th), centre + r * np.sin(th)])

    rng = np.random.default_rng(0)
    pts512 = star(200, 256.0, 180.0)
    data = rng.uniform(0, 1, (512, 512, 3))
    mask = (rng.uniform(0, 1, (512, 512)) > 0.5).astype(np.uint8)
    ev = SupersampledEvaluator(ps.Image(rng.uniform(0, 1, (64, 64)), ps.GRAY), 16)
    pts64 = star(40, 32.0, 18.0)
    p1, p2 = ev._prefix1, ev._prefix2  # the kernel's own inputs
    mods = getattr(backend, "available_backends", lambda: {ps.BACKEND: backend})()
    probes = {
        "fill_mask_512": (lambda m: m.fill_mask(pts512[:, 0], pts512[:, 1], 512, 512), 15),
        "mask_stats_512x3": (lambda m: m.mask_stats(data, mask), 15),
        "ss_stats_64f16": (lambda m: m.ss_stats(p1, p2, pts64[:, 0], pts64[:, 1], 16), 31),
    }
    out = {}
    for label, (fn, repeat) in probes.items():
        for name, mod in mods.items():
            times = []
            for _ in range(repeat):
                t0 = time.perf_counter()
                fn(mod)
                times.append(time.perf_counter() - t0)
            out.setdefault(label, {})[name] = statistics.median(times) * 1e3
    return out


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import polyseg as ps
    import polyseg.cli as cli

    w = WORKLOADS[spec["workload"]]
    truth = None if isinstance(w, Gradcheck) else truth_mask(w)
    out_dir = spec["out_dir"]
    argv = spec["argv"]
    reference = None
    jobs = []
    traced = []
    spans = []  # per traced job: [name, start, end, parent_index, work] lists
    t_start = time.perf_counter()

    def want_more():
        kinds = (False, True) if spec["trace"] else (False,)
        short = any(sum(j["traced"] == k for j in jobs) < MIN_JOBS for k in kinds)
        return short or time.perf_counter() - t_start < spec["seconds"]

    while want_more():
        trace = spec["trace"] and len(jobs) % 2 == 1
        tracer = Tracer() if trace else Tracer(STOPWATCH)
        shutil.rmtree(out_dir, ignore_errors=True)
        buf = io.StringIO()
        job = {"traced": trace, "ok": False}
        with tracer, contextlib.redirect_stdout(buf):
            try:
                rc, job["s"] = tracer.call("cli.main", cli.main, argv)
            except Exception as exc:  # a crash is one failed job
                job["s"], rc, job["error"] = None, None, repr(exc)
        jobs.append(job)
        if rc != 0:
            job.setdefault("error", f"exit code {rc}")
            continue
        stdout = buf.getvalue()
        try:
            if truth is None:
                work, quality, outputs = check_gradcheck(w, stdout)
            else:
                work, quality, outputs = check_segment(ps, w, out_dir, stdout, truth)
            if reference is None:
                reference = outputs
            elif outputs != reference:
                raise ValueError("outputs differ from the first job on the same input")
        except (ValueError, OSError, ET.ParseError) as exc:
            job["error"] = str(exc)
            continue
        summary, run_desc_self = summarize(tracer.spans)
        # gradcheck has no solver loop: its evaluations are timed per job
        solver = summary["evolve.run"]["s"] if "evolve.run" in summary else job["s"]
        job.update(ok=True, work=work, quality=quality, solver_s=solver)
        if trace:
            spans.append(tracer.spans)
            traced.append({"summary": summary, "run_desc_self": run_desc_self,
                           "spans": len(tracer.spans), "iterations": work,
                           "job_s": job["s"]})
    shutil.rmtree(out_dir, ignore_errors=True)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec["trace"]:
        with open(spec["spans_path"], "w") as fh:
            json.dump(spans, fh)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in (reference or {}).items()}
    result = {
        "backend": ps.BACKEND,
        "output_sha256": digests,
        "numpy": np.__version__,
        "polyseg_file": ps.__file__,
        "peak_rss_mb": peak_kb / 1024.0,
        "jobs": jobs,
        "traced": traced,
        "probes": kernel_probes(ps) if spec["trace"] else {},
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
