"""Workload definitions: seeded input generation, CLI argv and ground truth.

Each workload is one `polyseg` command on one generated input.  The seed
only changes the noise realisation (segment workloads) or the phase of the
lobe modulation (gradcheck), never the sizes, so the per-iteration work is
the same for every seed.  NOTES.md records why each workload exists.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Segment:
    """`polyseg segment` on a noisy disk centred in a size x size frame."""

    size: int
    mode: str  # "gray" (PGM input) or "rgb" (PPM input)
    r_true: float  # disk radius as a share of the frame width
    r_init: float  # initial circle radius as a share of the frame width
    vertices: int
    eta: float
    extra: tuple = ()
    iou_floor: float | None = None  # None: IoU is reported, not gated


@dataclass(frozen=True)
class Gradcheck:
    """`polyseg gradcheck` on a smooth three-lobed bump."""

    size: int
    factor: int
    vertices: int
    eta: float
    r_init: float
    threshold: float = 0.1
    mode: str = field(default="gray", init=False)


WORKLOADS = {
    # raster-bound: full-frame fill and moments dominate each iteration
    "frame_gray": Segment(size=1024, mode="gray", r_true=0.30, r_init=0.34,
                          vertices=100, eta=1e-4, iou_floor=0.98),
    # guard-bound: the O(n^2) simplicity check dominates; fixed budget because
    # the default e_thr stops dense contours early (see NOTES.md)
    "contour_dense": Segment(size=512, mode="gray", r_true=0.30, r_init=0.45,
                             vertices=400, eta=2e-4,
                             extra=("--iters", "300", "--e-thr", "1e-12")),
    # the only three-channel path
    "color_rgb": Segment(size=384, mode="rgb", r_true=0.30, r_init=0.36,
                         vertices=150, eta=2.6e-4, iou_floor=0.98),
    # supersampled evaluator: one large set-up, then cheap per-call stats
    "gradcheck_smooth": Gradcheck(size=256, factor=16, vertices=64, eta=1e-3,
                                  r_init=0.30),
}

RGB_FG = (0.8, 0.3, 0.2)
RGB_BG = (0.2, 0.5, 0.7)


def centre(w) -> float:
    return (w.size - 1) / 2.0


def truth_mask(w) -> np.ndarray:
    """Pixel centres strictly inside the synthetic disk (as ``synth_shape``)."""
    c = centre(w)
    ys, xs = np.mgrid[0 : w.size, 0 : w.size].astype(np.float64)
    r = w.r_true * w.size
    return (xs - c) ** 2 + (ys - c) ** 2 < r * r


def make_input(ps, w, seed: int, path: str) -> None:
    """Write the workload's input image for ``seed`` to ``path``."""
    n, c = w.size, centre(w)
    if isinstance(w, Gradcheck):
        phase = float(ps.Rng(seed).uniforms(1)[0]) * 2.0 * np.pi
        ys, xs = np.mgrid[0:n, 0:n].astype(np.float64)
        dx, dy = xs - c, ys - c
        rho = np.hypot(dx, dy) / (1.0 + 0.25 * np.cos(3.0 * np.arctan2(dy, dx) + phase))
        data = 0.1 + 0.8 * np.exp(-(rho**2) / (2.0 * (0.22 * n) ** 2))
        img = ps.Image(np.clip(data, 0.0, 1.0), ps.GRAY)
    elif w.mode == "gray":
        disk = ps.synth_shape("disk", n, n, 0.9, 0.1, {"cx": c, "cy": c, "r": w.r_true * n})
        img = ps.add_gaussian_noise(disk, 25.0, ps.Rng(seed))
    else:
        inside = truth_mask(w)[:, :, None]
        clean = np.where(inside, np.array(RGB_FG), np.array(RGB_BG))
        noise = ps.Rng(seed).normals(clean.size).reshape(clean.shape) * 0.1
        img = ps.Image(np.clip(clean + noise, 0.0, 1.0), ps.RGB)
    ps.write_pnm(img, path)


def argv(w, input_path: str, out_dir: str) -> list[str]:
    """The `polyseg` command line of one job."""
    c = centre(w)
    circle = f"{c},{c},{w.r_init * w.size}"
    if isinstance(w, Gradcheck):
        return ["gradcheck", "--input", input_path, "--init-circle", circle,
                "--factor", str(w.factor), "--vertices", str(w.vertices),
                "--eta", str(w.eta), "--threshold", str(w.threshold)]
    return ["segment", "--input", input_path, "--mode", w.mode,
            "--init-circle", circle, "--vertices", str(w.vertices),
            "--eta", str(w.eta), *w.extra, "--out", out_dir]
