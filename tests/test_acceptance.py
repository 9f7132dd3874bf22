"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are fixed here and must not be loosened.
"""

import time

import numpy as np
import sympy as sp

import polyseg as ps
from polyseg.cli import main

from helpers import (
    blob_image,
    disk_fixture,
    hausdorff_to_circle,
    lab_scalar,
    polygon_energy,
    star_polygon,
)


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_01_gradient_correctness():
    # analytic speeds[i]*w_i vs central differences of the factor-16
    # supersampled energy on 5 seeded random simple 40-gons, 10% relative
    t0 = time.time()
    img = blob_image()
    eta, h = 1e-3, 0.25
    ev = ps.SupersampledEvaluator(img, 16)
    worst, checked = 0.0, 0
    for seed in range(5):
        p = star_polygon(seed, n=40)
        assert ps.is_simple(p)
        g = ps.shape_gradient(img, p, eta)
        analytic = g.speeds * ps.vertex_weights(p)
        for i in range(len(p)):
            if abs(analytic[i]) <= 1e-4:
                continue
            plus = p.points.copy()
            plus[i] += h * g.normals[i]
            minus = p.points.copy()
            minus[i] -= h * g.normals[i]
            fd = (
                polygon_energy(ev, ps.Polygon(plus), eta).total
                - polygon_energy(ev, ps.Polygon(minus), eta).total
            ) / (2 * h)
            rel = abs(analytic[i] - fd) / abs(analytic[i])
            worst = max(worst, rel)
            checked += 1
            assert rel < 0.10, f"seed {seed} vertex {i}: rel err {rel:.3f}"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    assert checked >= 50
    report(1, f"gradient check: {checked} vertices, worst rel err "
              f"{worst:.3f} < 0.10, {elapsed:.1f}s < 60s")


def test_02_area_derivative_law():
    t0 = time.time()
    delta = 1e-4
    worst = 0.0
    for seed in range(100):
        p = star_polygon(seed, n=150, center=(0, 0), r_mean=30, amp=0.08)
        nrm = ps.outward_normals(p)
        w = ps.vertex_weights(p)
        for i in range(0, len(p), 5):
            plus = p.points.copy()
            plus[i] += delta * nrm[i]
            minus = p.points.copy()
            minus[i] -= delta * nrm[i]
            fd = (
                ps.polygon_area(ps.Polygon(plus))
                - ps.polygon_area(ps.Polygon(minus))
            ) / (2 * delta)
            rel = abs(fd - w[i]) / w[i]
            worst = max(worst, rel)
            assert rel < 1e-3
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(2, f"area law on 100 polygons: worst rel err {worst:.2e} < 1e-3, "
              f"{elapsed:.1f}s < 5s")


def test_03_analytic_circle_oracle():
    t0 = time.time()
    W = H = 128
    Rd, A, B = 44.0, 0.9, 0.1
    img = ps.synth_shape("disk", W, H, A, B, {"cx": 64, "cy": 64, "r": Rd})
    r = sp.symbols("r", positive=True)
    a1 = sp.pi * (Rd**2 - r**2)
    a2 = W * H - sp.pi * Rd**2
    mu = (A * a1 + B * a2) / (a1 + a2)
    E2 = (A**2 * a1 + B**2 * a2) / (a1 + a2) - mu**2
    ref = float((sp.diff(E2, r) / (2 * sp.pi * r)).subs(r, 30.0))
    p = ps.init_circle((64, 64), 30.0, 100)
    g = ps.shape_gradient(img, p, 0.0)
    spread = (g.speeds.max() - g.speeds.min()) / abs(g.speeds.mean())
    rel = abs(g.speeds.mean() - ref) / abs(ref)
    elapsed = time.time() - t0
    assert spread < 0.02
    assert rel < 0.02
    assert elapsed < 30.0
    report(3, f"circle oracle: spread {spread:.2e} < 2%, closed-form rel err "
              f"{rel:.4f} < 2%, {elapsed:.1f}s < 30s")


def test_04_synthetic_segmentation():
    # clean disk: radius-1.5x init, 100 vertices, <= 100 iterations, <= 2 px
    t0 = time.time()
    clean = disk_fixture()
    p0 = ps.init_circle((100, 100), 90, 100)
    cfg = ps.EvolveConfig(n_vertices=100, eta=5e-4, max_iters=100)
    res = ps.run(clean, p0, cfg)
    hd_clean = hausdorff_to_circle(res.final_polygon, (100, 100), 60)
    t_clean = time.time() - t0
    assert hd_clean <= 2.0
    assert res.iterations_run <= 100
    assert t_clean < 30.0

    # SD=25 noise: within 3 px at its (converged) stop
    t0 = time.time()
    noisy = disk_fixture(noise_sd=25.0)
    cfg = ps.EvolveConfig(n_vertices=100, eta=5e-4, max_iters=240)
    res_n = ps.run(noisy, p0, cfg)
    hd_noisy = hausdorff_to_circle(res_n.final_polygon, (100, 100), 60)
    t_noisy = time.time() - t0
    assert res_n.converged
    assert hd_noisy <= 3.0
    assert t_noisy < 30.0
    report(4, f"disk segmentation: clean Hausdorff {hd_clean:.2f}px <= 2 in "
              f"{res.iterations_run} iters ({t_clean:.1f}s); noisy "
              f"{hd_noisy:.2f}px <= 3 at iter {res_n.iterations_run} "
              f"({t_noisy:.1f}s)")


def test_05_energy_monotonicity_and_convergence():
    noisy = disk_fixture(noise_sd=25.0)
    p0 = ps.init_circle((100, 100), 90, 100)
    cfg = ps.EvolveConfig(n_vertices=100, eta=5e-4, max_iters=500, window=20)
    res = ps.run(noisy, p0, cfg)
    assert res.converged
    assert res.iterations_run < 500
    tot = np.array([row.total for row in res.trace])
    w = cfg.window
    nw = len(tot) // w
    means = tot[: nw * w].reshape(nw, w).mean(axis=1)
    frac = float((np.diff(means) <= 0).mean())
    assert frac >= 0.95
    report(5, f"noisy disk: {frac*100:.0f}% of window pairs non-increasing "
              f">= 95%, converged at iter {res.iterations_run} < 500")


def test_06_curvature_flow_sanity():
    # dt_cap below the stability bound of the highest curvature mode
    # (dt * 8*eta/L^2 < 1), so the circle stays circular to round-off
    img = ps.Image(np.full((128, 128), 0.5), ps.GRAY)
    p0 = ps.init_circle((64, 64), 50.0, 100)
    cfg = ps.EvolveConfig(n_vertices=100, eta=1e-4, dt_cap=1e4,
                          max_iters=100, e_thr=1e-12)
    res = ps.run(img, p0, cfg)
    assert res.iterations_run == 100
    d = np.hypot(res.final_polygon.points[:, 0] - 64,
                 res.final_polygon.points[:, 1] - 64)
    spread = d.max() - d.min()
    assert spread < 1e-6 * d.mean()
    perims = [row.e3 for row in res.trace]
    assert all(b < a for a, b in zip(perims, perims[1:]))
    report(6, f"curvature flow: radius spread {spread:.2e} < 1e-6*r "
              f"(r={d.mean():.1f}), perimeter strictly decreasing over 100 iters")


def test_07_constant_image_null():
    worst = 0.0
    for value in (0.0, 0.31, 0.5, 1.0):
        img = ps.Image(np.full((96, 96), value), ps.GRAY)
        for seed in (0, 1):
            p = star_polygon(seed, n=50, center=(48, 48), r_mean=20)
            g = ps.shape_gradient(img, p, 0.0)
            worst = max(worst, float(np.abs(g.speeds).max()))
            assert np.abs(g.speeds).max() < 1e-12
    report(7, f"constant-image null: max |region gradient| {worst:.2e} < 1e-12")


def test_08_channel_linearity_and_lab():
    img = blob_image()
    p = star_polygon(2, n=40)
    single = ps.shape_gradient(img, p, 0.0)
    g3 = ps.shape_gradient(ps.Image(np.repeat(img.data, 3, axis=2), ps.RGB), p, 0.0)
    dev = float(np.abs(g3.speeds - 3.0 * single.speeds).max())
    assert dev < 1e-12

    rng = np.random.default_rng(123)
    cols = rng.uniform(0, 1, (1000, 3))
    lab = ps.srgb_to_lab(ps.Image(cols.reshape(10, 100, 3), ps.RGB)).data.reshape(-1, 3)
    worst = 0.0
    for i in range(1000):
        L, a, b = lab_scalar(*cols[i])
        stored = np.array([L / 100, (a + 128) / 255, (b + 128) / 255])
        worst = max(worst, float(np.abs(lab[i] - stored).max()))
        assert np.abs(lab[i] - stored).max() < 1e-6
    white = ps.srgb_to_lab(ps.Image(np.ones((1, 1, 3)), ps.RGB)).data[0, 0]
    ideal = np.array([1.0, 128 / 255, 128 / 255])
    assert np.abs(white - ideal).max() < 1e-6
    report(8, f"3x-channel deviation {dev:.2e} < 1e-12; LAB vs scalar oracle "
              f"{worst:.2e} < 1e-6; white at L*=100, a*=b*=0")


def test_09_cli_reproducibility(tmp_path):
    src = tmp_path / "disk.pgm"
    assert main([
        "synth", "--kind", "disk", "--width", "120", "--height", "120",
        "--cx", "60", "--cy", "60", "--r", "35", "--noise-sd", "25",
        "--seed", "3", "--out", str(src),
    ]) == 0
    args = [
        "segment", "--input", str(src), "--init-circle", "60,60,52",
        "--eta", "5e-4", "--iters", "60", "--vertices", "60",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    t_same = (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    p_same = (out1 / "final_polygon.txt").read_bytes() == (out2 / "final_polygon.txt").read_bytes()
    assert t_same and p_same
    report(9, "two identical CLI invocations: trace.csv and "
              "final_polygon.txt byte-identical")


def test_10_paper_configuration_smoke():
    # 250x250 noisy fixture, 150 vertices, 350-iteration budget
    t0 = time.time()
    img = ps.synth_shape("disk", 250, 250, 0.9, 0.1, {"cx": 125, "cy": 125, "r": 75})
    img = ps.add_gaussian_noise(img, 25.0, ps.Rng(7))
    p0 = ps.init_circle((125, 125), 112.5, 150)
    cfg = ps.EvolveConfig(n_vertices=150, eta=5e-4, max_iters=350)
    res = ps.run(img, p0, cfg)
    elapsed = time.time() - t0
    assert res.converged
    assert res.iterations_run <= 350
    assert elapsed < 120.0
    last = res.trace[-1]
    first = res.trace[0]
    assert last.total < first.total  # energy decreased
    report(10, f"250x250/150-vertex run: converged at iter "
               f"{res.iterations_run} <= 350, energy {first.total:.3f} -> "
               f"{last.total:.3f}, {elapsed:.1f}s < 120s")


def test_11_narrow_slot():
    # the paper's "narrow boundaries": an 8 px slot, 100 px deep, cut into a
    # clean square is followed to its bottom by 200 vertices (~4 px apart)
    t0 = time.time()
    ys, xs = np.mgrid[0:256, 0:256]
    square = (xs >= 48) & (xs < 208) & (ys >= 48) & (ys < 208)
    slot = (xs >= 124) & (xs < 132) & (ys >= 48) & (ys < 148)
    truth = square & ~slot
    img = ps.Image(np.where(truth, 0.9, 0.1), ps.GRAY)
    p0 = ps.init_circle((127.5, 127.5), 125, 200)
    res = ps.run(img, p0, ps.EvolveConfig(n_vertices=200, eta=5e-5, max_iters=630))
    mask = ps.rasterize_mask(res.final_polygon, 256, 256)
    iou = (mask & truth).sum() / (mask | truth).sum()
    in_slot = int((mask & slot).sum())
    elapsed = time.time() - t0
    assert res.converged
    assert iou >= 0.998
    assert in_slot <= 10
    assert elapsed < 30.0
    report(11, f"8 px slot: IoU {iou:.4f} >= 0.998, {in_slot} <= 10 slot pixels "
               f"inside, converged at iter {res.iterations_run} <= 630")


def test_12_start_must_hold_more_than_half_object():
    # the variance energy's basin: a start holding a share p of object at
    # contrast d changes var(inside) by d^2 p (1 - 2p) / |inside| per
    # background pixel it drops, so below p = 1/2 the region term pushes
    # the contour outward; noise-free disk, eta 0
    t0 = time.time()
    img = ps.synth_shape("disk", 128, 128, 0.6, 0.4, {"cx": 63.5, "cy": 63.5, "r": 25})
    disk = img.data[:, :, 0] > 0.5
    cfg = ps.EvolveConfig(n_vertices=100, eta=0.0)
    # concentric start circles that hold the share p of the disk
    held, lost = (ps.run(img, ps.init_circle((63.5, 63.5), 25 / np.sqrt(p), 100), cfg)
                  for p in (0.55, 0.45))
    held_mask, lost_mask = (ps.rasterize_mask(r.final_polygon, 128, 128) for r in (held, lost))
    iou = (held_mask & disk).sum() / (held_mask | disk).sum()
    grown = int(lost_mask.sum())
    elapsed = time.time() - t0
    assert held.converged
    assert iou >= 0.98
    assert grown > 0.9 * disk.size
    assert elapsed < 30.0
    report(12, f"basin: p = 0.55 start reaches IoU {iou:.4f} >= 0.98 at iter "
               f"{held.iterations_run}; p = 0.45 "
               f"grows to {grown} of {disk.size} pixels (> 90%)")
