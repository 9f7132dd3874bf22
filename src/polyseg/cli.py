"""Command-line front end: segment, synth, and gradcheck subcommands.

Exit codes are fixed for scripting: 0 success; 1 usage, I/O, parse or
input errors, including an unusable start polygon; 2 the contour collapsed
or degenerated during a ``segment`` run, which writes the partial trace;
3 gradient-check failure.
"""

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .energy import breakdown_from_stats, shape_gradient
from .errors import DegeneratePolygon, PolysegError
from .evolve import EvolveConfig, init_circle, run, write_trace_csv
from .geometry import (
    MIN_EDGE_LEN,
    Polygon,
    ensure_ccw,
    is_simple,
    read_polygon,
    vertex_weights,
    write_polygon,
)
from .image import RGB
from .imageio import (
    SHAPES,
    Rng,
    add_gaussian_noise,
    read_pnm,
    synth_shape,
    to_gray,
    write_mask,
    write_pnm,
)
from .color import srgb_to_lab
from .raster import SupersampledEvaluator, rasterize_mask
from .svgout import data_uri, energy_svg, overlay_svg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyseg",
        description="Two-region segmentation by shape-gradient descent on a polygon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags match only in full: a prefix such as --dt would otherwise set
    # --dt-cap, a field the command line did not name
    seg = sub.add_parser("segment", help="run a segmentation", allow_abbrev=False)
    seg.add_argument("--input", required=True, help="input PGM/PPM image")
    seg.add_argument("--mode", choices=["gray", "rgb", "lab"], default="gray")
    init = seg.add_mutually_exclusive_group(required=True)
    init.add_argument("--init-circle", metavar="CX,CY,R", help="initial circle")
    init.add_argument("--init-poly", metavar="FILE", help="initial polygon file")
    # the tuning flags: dest is the EvolveConfig field, whose default they show
    shown = "(default: %(default)s)"
    seg.add_argument("--eta", type=float, help=f"boundary-length weight {shown}")
    seg.add_argument("--dt-cap", type=float, help=shown)
    seg.add_argument("--iters", dest="max_iters", metavar="ITERS", type=int, help=shown)
    seg.add_argument("--e-thr", type=float, help=shown)
    seg.add_argument("--vertices", dest="n_vertices", metavar="VERTICES", type=int, help=shown)
    seg.add_argument("--resample-every", type=int, help=shown)
    seg.add_argument("--window", type=int, help=shown)
    seg.set_defaults(**dataclasses.asdict(EvolveConfig()))
    seg.add_argument("--snapshot-every", type=int, default=0)
    seg.add_argument("--out", required=True, help="output directory")
    seg.add_argument(
        "--overlay-link",
        action="store_true",
        help="reference the input raster by path instead of embedding it",
    )

    syn = sub.add_parser("synth", help="generate a synthetic test image", allow_abbrev=False)
    syn.add_argument("--kind", required=True, choices=list(SHAPES))
    syn.add_argument("--width", type=int, required=True)
    syn.add_argument("--height", type=int, required=True)
    syn.add_argument("--fg", type=float, default=0.9)
    syn.add_argument("--bg", type=float, default=0.1)
    for name in dict.fromkeys(name for names in SHAPES.values() for name in names):
        syn.add_argument("--" + name.replace("_", "-"), type=float)
    syn.add_argument("--noise-sd", type=float, default=0.0, help="Gaussian SD on 0-255 scale")
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--out", required=True, help="output PGM path")

    grad = sub.add_parser("gradcheck", help="finite-difference gradient validation",
                          allow_abbrev=False)
    grad.add_argument("--input", required=True)
    ginit = grad.add_mutually_exclusive_group(required=True)
    ginit.add_argument("--init-circle", metavar="CX,CY,R")
    ginit.add_argument("--poly", metavar="FILE")
    grad.add_argument("--eta", type=float, default=0.0)
    grad.add_argument("--factor", type=int, default=16,
                      choices=SupersampledEvaluator.FACTORS[1:])
    grad.add_argument("--h", type=float, default=0.25,
                      help="displacement step (px), below the image's larger side")
    grad.add_argument("--threshold", type=float, default=0.1)
    grad.add_argument("--gate", type=float, default=1e-4,
                      help="skip vertices with |analytic| below this")
    grad.add_argument("--vertices", type=int, default=48,
                      help="vertex count for --init-circle")
    return parser


def _start_polygon(circle, path, vertices: int) -> Polygon:
    """The CCW start polygon: an n-gon from "CX,CY,R", else the polygon file.

    A polygon file may cross itself, and is then rejected with
    ``DegeneratePolygon``; an n-gon is simple by construction.
    """
    if circle is None:
        p = ensure_ccw(read_polygon(path))
        if not is_simple(p):
            raise DegeneratePolygon("initial polygon is not simple")
        return p
    parts = circle.split(",")
    if len(parts) != 3:
        raise ValueError("expected CX,CY,R")
    cx, cy, r = map(float, parts)
    return init_circle((cx, cy), r, vertices)


def _load_for_mode(path: str, mode: str):
    """Returns (image used for segmentation, raw image for overlays)."""
    raw = read_pnm(path)
    if mode == "gray":
        return (to_gray(raw) if raw.colorspace == RGB else raw), raw
    if raw.colorspace != RGB:
        raise PolysegError(f"--mode {mode} requires a PPM (color) input")
    return (srgb_to_lab(raw) if mode == "lab" else raw), raw


def _cmd_segment(args) -> int:
    if args.snapshot_every < 0:
        raise ValueError("--snapshot-every must be non-negative (0 means off)")
    work, raw = _load_for_mode(args.input, args.mode)
    p0 = _start_polygon(args.init_circle, args.init_poly, args.n_vertices)
    cfg = EvolveConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(EvolveConfig)})
    os.makedirs(args.out, exist_ok=True)
    snapshots = []

    def record(k, poly):
        if args.snapshot_every > 0 and k > 0 and k % args.snapshot_every == 0:
            snapshots.append((k, poly))

    try:
        result = run(work, p0, cfg, callback=record)
    except PolysegError as exc:
        if exc.partial is None:
            raise
        write_trace_csv(exc.partial.trace, os.path.join(args.out, "trace.csv"))
        print(
            f"polyseg: run aborted after {exc.partial.iterations_run} iterations: {exc}",
            file=sys.stderr,
        )
        return 2

    write_trace_csv(result.trace, os.path.join(args.out, "trace.csv"))
    write_polygon(result.final_polygon, os.path.join(args.out, "final_polygon.txt"))
    write_mask(rasterize_mask(result.final_polygon, work.width, work.height),
               os.path.join(args.out, "final_mask.pgm"))

    color_mode = args.mode in ("rgb", "lab")
    init_color, final_color = ("blue", "red") if color_mode else ("green", "yellow")
    href = os.path.relpath(args.input, args.out) if args.overlay_link else data_uri(raw)
    curves = [(poly, "#999999", 0.6) for _, poly in snapshots]
    curves.append((p0, init_color, 1.0))
    curves.append((result.final_polygon, final_color, 1.0))
    with open(os.path.join(args.out, "overlay.svg"), "w", encoding="ascii") as fh:
        fh.write(overlay_svg(raw, curves, href=href))
    for k, poly in snapshots:
        with open(os.path.join(args.out, f"snapshot_{k}.svg"), "w", encoding="ascii") as fh:
            fh.write(overlay_svg(raw, [(poly, init_color, 1.0)], href=href))
    with open(os.path.join(args.out, "energy.svg"), "w", encoding="ascii") as fh:
        fh.write(energy_svg(result.trace))

    status = "converged" if result.converged else "max-iters"
    print(
        f"polyseg: {status} after {result.iterations_run} iterations, "
        f"E={result.trace[-1].total:.6g}, simple={is_simple(result.final_polygon)}"
    )
    # vertices, not the mask: under the top-left rule the mask never sets
    # the last row or column
    pts = result.final_polygon.points
    far = (work.width - 1, work.height - 1)
    if np.all(pts.min(axis=0) <= 0) and np.all(pts.max(axis=0) >= far):
        print("polyseg: warning: the contour touches all four sides of the frame; a start "
              'that holds less than half object grows this way (README, "Choosing the start")',
              file=sys.stderr)
    return 0


def _cmd_synth(args) -> int:
    params = {k: getattr(args, k) for k in SHAPES[args.kind] if getattr(args, k) is not None}
    img = synth_shape(args.kind, args.width, args.height, args.fg, args.bg, params)
    write_pnm(add_gaussian_noise(img, args.noise_sd, Rng(args.seed)), args.out)
    return 0


def _cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.h) and args.h > 0):
        raise ValueError("--h must be positive and finite")
    if not (math.isfinite(args.gate) and args.gate >= 0):
        raise ValueError("--gate must be non-negative and finite")
    if not (math.isfinite(args.threshold) and args.threshold > 0):
        raise ValueError("--threshold must be positive and finite")
    if not math.isfinite(args.eta):
        raise ValueError("--eta must be finite")
    img, _ = _load_for_mode(args.input, "gray")
    # a step beyond the frame measures no gradient, and edges of ~1e154 px
    # overflow the crossing kernel
    if args.h >= max(img.width, img.height):
        raise ValueError("--h must be smaller than the image's larger side "
                         f"({max(img.width, img.height)} px)")
    p = _start_polygon(args.init_circle, args.poly, args.vertices)

    g = shape_gradient(img, p, args.eta)
    analytic = g.speeds * vertex_weights(p)
    ev = SupersampledEvaluator(img, args.factor)
    h = args.h
    # moves 2i and 2i+1 push vertex i by +h and -h along its normal
    index = np.repeat(np.arange(len(p)), 2)
    moved = p.points[index] + np.tile((h, -h), len(p))[:, None] * g.normals[index]
    # a move changes only the two edges at its vertex: into it and out of it
    into = np.hypot(*(moved - p.points[index - 1]).T)
    out = np.hypot(*(p.points[(index + 1) % len(p)] - moved).T)
    if min(into.min(), out.min()) <= MIN_EDGE_LEN:
        raise DegeneratePolygon("consecutive vertices coincide")
    perimeter = p.lengths.sum() - p.lengths[index - 1] - p.lengths[index] + into + out
    total = breakdown_from_stats(ev.moved_stats(p, index, moved), perimeter, args.eta).total
    fd = (total[0::2] - total[1::2]) / (2.0 * h)
    worst = 0.0
    print(f"{'vertex':>6} {'analytic':>14} {'fd':>14} {'rel_err':>10}")
    for i in range(len(p)):
        if abs(analytic[i]) > args.gate:
            rel = abs(analytic[i] - fd[i]) / abs(analytic[i])
            worst = max(worst, rel)
            print(f"{i:>6} {analytic[i]:>14.6e} {fd[i]:>14.6e} {rel:>10.4f}")
        else:
            print(f"{i:>6} {analytic[i]:>14.6e} {fd[i]:>14.6e} {'(gated)':>10}")
    print(f"max relative error: {worst:.4f} (threshold {args.threshold})")
    return 0 if worst < args.threshold else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the exit-code contract
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "segment":
            return _cmd_segment(args)
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_gradcheck(args)
    except (PolysegError, OSError, ValueError) as exc:
        print(f"polyseg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
