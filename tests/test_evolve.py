import csv
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyseg as ps
import polyseg.evolve
import polyseg.geometry
from helpers import hausdorff_to_circle, numpy_calls, pentagram, star_polygon


class TestInitCircle:
    def test_radius_and_count(self):
        p = ps.init_circle((125, 125), 100, 100)
        assert len(p) == 100
        d = np.hypot(p.points[:, 0] - 125, p.points[:, 1] - 125)
        assert np.abs(d - 100).max() < 1e-9

    def test_uniform_edges_and_ccw(self):
        p = ps.init_circle((10, 20), 5, 150)
        e = np.roll(p.points, -1, axis=0) - p.points
        lens = np.hypot(e[:, 0], e[:, 1])
        assert lens.max() - lens.min() < 1e-12
        assert ps.polygon_area(p) > 0

    def test_square_as_fourgon(self):
        side = 2.0
        p = ps.init_circle((0, 0), np.sqrt(2) / 2 * side, 4)
        assert ps.polygon_area(p) == pytest.approx(side * side / 2 * 2)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            ps.init_circle((0, 0), -1.0, 10)
        with pytest.raises(ValueError):
            ps.init_circle((0, 0), 1.0, 2)


class TestStep:
    def test_zero_speeds_identity(self):
        p = ps.init_circle((10, 10), 5, 20)
        g = ps.GradientField(
            speeds=np.zeros(20),
            normals=ps.outward_normals(p),
        )
        q, max_disp = ps.step(p, g, 123.0, (20, 20))
        assert np.array_equal(q.points, p.points)
        assert max_disp == 0.0

    def test_dt_zero_identity(self):
        p = ps.init_circle((10, 10), 5, 20)
        g = ps.GradientField(
            speeds=np.ones(20),
            normals=ps.outward_normals(p),
        )
        q, max_disp = ps.step(p, g, 0.0, (20, 20))
        assert np.array_equal(q.points, p.points)
        assert max_disp == 0.0

    def test_curvature_shrinkage_on_constant_image(self):
        # every vertex moves inward by dt * eta / r
        img = ps.Image(np.full((64, 64), 0.5), ps.GRAY)
        r0, eta, dt = 12.0, 0.2, 5.0
        p = ps.init_circle((32, 32), r0, 48)
        g = ps.shape_gradient(img, p, eta)
        q, max_disp = ps.step(p, g, dt, (64, 64))
        d = np.hypot(q.points[:, 0] - 32, q.points[:, 1] - 32)
        assert np.abs(d - (r0 - dt * eta / r0)).max() < 1e-9
        assert max_disp == pytest.approx(dt * eta / r0, rel=1e-9)

    def test_clamped_to_frame(self):
        p = ps.init_circle((5, 5), 4.5, 16)
        g = ps.GradientField(
            speeds=-np.ones(16),  # outward push
            normals=ps.outward_normals(p),
        )
        q, _ = ps.step(p, g, 1.0, (10, 10))
        assert q.points.min() >= 0.0
        assert q.points.max() <= 9.0
        assert q.points.max() == 9.0  # clamping engaged

    @staticmethod
    def still(p):
        return ps.GradientField(speeds=np.zeros(len(p)), normals=ps.outward_normals(p))

    def test_drops_vertices_clamped_onto_one_corner(self):
        p = ps.Polygon([[-3.0, -1.0], [-1.0, -3.0], [8.0, 1.0], [8.0, 8.0], [1.0, 8.0]])
        q, max_disp = ps.step(p, self.still(p), 1.0, (10, 10))
        assert q.points.tolist() == [[0.0, 0.0], [8.0, 1.0], [8.0, 8.0], [1.0, 8.0]]
        assert max_disp == math.hypot(3.0, 1.0)  # the dropped vertex's move counts

    def test_drops_across_the_closing_edge(self):
        p = ps.Polygon([[-1.0, -3.0], [8.0, 1.0], [8.0, 8.0], [1.0, 8.0], [-3.0, -1.0]])
        q, _ = ps.step(p, self.still(p), 1.0, (10, 10))
        assert q.points.tolist() == [[0.0, 0.0], [8.0, 1.0], [8.0, 8.0], [1.0, 8.0]]

    def test_drops_vertex_clamped_within_rounding_of_its_successor(self):
        # (-3, 1e-15) clamps to (0, 1e-15), an edge Polygon would reject
        p = ps.Polygon([[-3.0, 1e-15], [-1.0, -3.0], [8.0, 1.0], [8.0, 8.0], [1.0, 8.0]])
        q, _ = ps.step(p, self.still(p), 1.0, (10, 10))
        assert q.points.tolist() == [[0.0, 0.0], [8.0, 1.0], [8.0, 8.0], [1.0, 8.0]]

    def test_fewer_than_three_left_raises(self):
        p = ps.Polygon([[-3.0, -1.0], [-1.0, -3.0], [8.0, 8.0]])
        with pytest.raises(ps.DegeneratePolygon, match="at least 3"):
            ps.step(p, self.still(p), 1.0, (10, 10))


class TestConverged:
    def mkrow(self, i, total):
        return ps.TraceRow(iter=i, e1=0, e2=0, e3=0, total=total,
                           area=0, max_disp=0)

    def test_constant_trace(self):
        trace = [self.mkrow(i, 5.0) for i in range(20)]
        assert ps.converged(trace, 1e-4, 10)
        assert not ps.converged(trace[:19], 1e-4, 10)

    def test_geometric_decay(self):
        trace = [self.mkrow(i, 0.9**i) for i in range(50)]
        assert not ps.converged(trace, 0.05, 1)  # relative change is 0.1

    def test_decreasing_then_flat(self):
        totals = [10.0 - 0.5 * i for i in range(20)] + [0.5] * 40
        trace = [self.mkrow(i, t) for i, t in enumerate(totals)]
        fired = [k for k in range(2, len(trace) + 1)
                 if ps.converged(trace[:k], 1e-3, 10)]
        assert fired and fired[0] > 20  # only after the flat region begins


class TestRun:
    def test_constant_image_eta_zero(self):
        img = ps.Image(np.full((48, 48), 0.5), ps.GRAY)
        p0 = ps.init_circle((24, 24), 10, 40)
        cfg = ps.EvolveConfig(n_vertices=40, eta=0.0, max_iters=100)
        res = ps.run(img, p0, cfg)
        assert res.converged
        assert res.iterations_run == 2 * cfg.window  # first possible check
        assert np.abs(res.final_polygon.points - p0.points).max() < 1e-6

    def test_clean_disk_locks_within_100_iterations(self, disk_clean):
        p0 = ps.init_circle((100, 100), 90, 100)
        cfg = ps.EvolveConfig(n_vertices=100, eta=5e-4, max_iters=100)
        res = ps.run(disk_clean, p0, cfg)
        hd = hausdorff_to_circle(res.final_polygon, (100, 100), 60)
        assert hd <= 2.0
        assert ps.is_simple(res.final_polygon)
        # residual data terms are at the rasterization-band level; the
        # equilibrium sits a fraction of a pixel inside the value edge
        last = res.trace[-1]
        assert last.e1 + last.e2 < 5e-3

    def test_collapse_raises_with_partial_trace(self):
        img = ps.Image(np.full((64, 64), 0.5), ps.GRAY)
        p0 = ps.init_circle((32, 32), 6, 30)
        # pure curvature flow shrinks the small circle below the guard
        cfg = ps.EvolveConfig(n_vertices=30, eta=0.5, dt_cap=12.0, max_iters=400,
                              e_thr=1e-12)
        with pytest.raises(ps.EmptyRegion) as exc_info:
            ps.run(img, p0, cfg)
        partial = exc_info.value.partial
        assert partial is not None
        assert len(partial.trace) > 0
        assert not partial.converged

    def test_frame_covering_start_raises_with_partial(self):
        img = ps.Image(np.full((64, 64), 0.5), ps.GRAY)
        p0 = ps.init_circle((32, 32), 60, 40)
        with pytest.raises(ps.EmptyRegion) as exc_info:
            ps.run(img, p0, ps.EvolveConfig(n_vertices=40))
        partial = exc_info.value.partial
        assert partial is not None
        assert partial.iterations_run == 0
        assert not partial.converged

    def test_degenerate_first_step_raises_with_partial(self, monkeypatch):
        def degenerate_step(*args, **kwargs):
            raise ps.DegeneratePolygon("consecutive vertices coincide")

        monkeypatch.setattr(polyseg.evolve, "step", degenerate_step)
        img = ps.synth_shape("disk", 120, 120, 0.9, 0.1, {"cx": 60, "cy": 60, "r": 35})
        p0 = ps.init_circle((20, 20), 30, 60)
        cfg = ps.EvolveConfig(n_vertices=60, eta=5e-4, max_iters=200)
        with pytest.raises(ps.DegeneratePolygon, match="coincide") as exc_info:
            ps.run(img, p0, cfg)
        partial = exc_info.value.partial
        assert partial is not None
        assert partial.iterations_run == 0
        assert np.array_equal(partial.final_polygon.points, p0.points)
        assert not partial.converged

    def test_dropped_vertex_counts_in_max_disp_and_resample_restores(self):
        # the far vertex is clamped onto the corner (0, 0) together with its
        # successor and dropped; it moved the farthest
        img = ps.synth_shape("disk", 64, 64, 0.9, 0.1, {"cx": 25, "cy": 25, "r": 15})
        p0 = ps.Polygon([[-20.0, -20.0], [-0.5, -0.5], [40.0, 5.0], [40.0, 40.0], [5.0, 40.0]])
        cfg = ps.EvolveConfig(n_vertices=5, eta=1e-3, max_iters=3, resample_every=2,
                              e_thr=1e-12)
        counts = []
        res = ps.run(img, p0, cfg, callback=lambda k, p: counts.append(len(p)))
        assert counts == [5, 4, 5]
        assert res.trace[0].max_disp > math.hypot(20.0, 20.0) - 0.5
        assert all(r.max_disp <= 0.5 + 1e-12 for r in res.trace[1:])

    def test_start_errors_carry_no_partial(self):
        img = ps.synth_shape("disk", 64, 64, 0.9, 0.1, {"cx": 32, "cy": 32, "r": 14})
        flat = ps.Polygon([[10.0, 10.0], [20.0, 10.0], [30.0, 10.0]])
        for p0 in (pentagram(), flat):
            with pytest.raises(ps.DegeneratePolygon) as exc_info:
                ps.run(img, p0, ps.EvolveConfig(n_vertices=40))
            assert exc_info.value.partial is None

    def test_self_intersecting_start_raises(self):
        img = ps.synth_shape("disk", 64, 64, 0.9, 0.1, {"cx": 32, "cy": 32, "r": 14})
        p0 = pentagram()
        assert ps.polygon_area(p0) != 0.0
        with pytest.raises(ps.DegeneratePolygon, match="not simple"):
            ps.run(img, p0, ps.EvolveConfig(n_vertices=40, eta=5e-4, max_iters=60))

    def test_guard_called_once_per_candidate_step(self, monkeypatch):
        # a guard that accepts the start and rejects every step: each
        # iteration checks the step and its four halvings once each, then
        # keeps the last one flagged; the result is not checked again
        calls = []

        def guard(p):
            calls.append(p)
            return len(calls) == 1

        monkeypatch.setattr(polyseg.evolve, "is_simple", guard)
        img = ps.synth_shape("disk", 64, 64, 0.9, 0.1, {"cx": 32, "cy": 32, "r": 14})
        cfg = ps.EvolveConfig(n_vertices=40, eta=5e-4, max_iters=3)
        res = ps.run(img, ps.init_circle((32, 32), 20, 40), cfg)
        assert res.flagged_steps == 3
        assert len(calls) == 1 + 3 * 5  # start, five candidates per iteration

    def test_no_mask_fill_and_one_guard_per_candidate(self, monkeypatch):
        # the loop works on the polygon only: its mask and its simplicity
        # are derived by whoever needs them, after the run
        calls = {"is_simple": 0, "step": 0, "fill_mask": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for mod, name in ((polyseg.evolve, "is_simple"), (polyseg.evolve, "step"),
                          (polyseg.backend, "fill_mask")):
            monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
        img = ps.synth_shape("disk", 64, 64, 0.9, 0.1, {"cx": 32, "cy": 32, "r": 14})
        cfg = ps.EvolveConfig(n_vertices=40, eta=5e-4, max_iters=7)
        res = ps.run(img, ps.init_circle((32, 32), 20, 40), cfg)
        assert res.iterations_run == 7
        assert calls["step"] >= 7
        assert calls["is_simple"] == 1 + calls["step"]  # the start, then each candidate
        assert calls["fill_mask"] == 0

    def test_means_once_and_no_weights_per_iteration(self, monkeypatch):
        # the region statistics, and with them the means, once per iteration
        counts = {"stats": 0, "vertex_weights": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        # the package attribute ``polyseg.energy`` is the function
        energy_mod = sys.modules["polyseg.energy"]
        evaluator = polyseg.raster.SupersampledEvaluator
        monkeypatch.setattr(evaluator, "stats", counting("stats", evaluator.stats))
        weights = counting("vertex_weights", polyseg.geometry.vertex_weights)
        for mod in (polyseg.geometry, energy_mod, polyseg.evolve):
            monkeypatch.setattr(mod, "vertex_weights", weights, raising=False)
        img = ps.synth_shape("disk", 64, 64, 0.9, 0.1, {"cx": 32, "cy": 32, "r": 14})
        cfg = ps.EvolveConfig(n_vertices=40, eta=5e-4, max_iters=7)
        res = ps.run(img, ps.init_circle((32, 32), 20, 40), cfg)
        assert res.iterations_run == 7
        assert counts == {"stats": 7, "vertex_weights": 0}

    def test_numpy_wrapper_calls_per_iteration(self):
        # on a few hundred vertices an iteration costs NumPy's Python-level
        # call overhead more than arithmetic.  NumPy 2.4.6 makes 28 calls per
        # iteration here (133 before the loop was trimmed); the bound leaves
        # room for other NumPy releases
        img = ps.synth_shape("disk", 64, 64, 0.9, 0.1, {"cx": 32, "cy": 32, "r": 20})
        img = ps.add_gaussian_noise(img, 25.0, ps.Rng(1))
        cfg = ps.EvolveConfig(n_vertices=40, eta=5e-4, max_iters=30, e_thr=1e-12)
        p0 = ps.init_circle((32, 32), 24, 40)
        ps.run(img, p0, cfg)  # NumPy's lazily loaded modules load outside the count
        res, calls = numpy_calls(ps.run, img, p0, cfg)
        assert res.iterations_run == 30
        assert calls / res.iterations_run <= 70

    def test_determinism(self, disk_noisy):
        p0 = ps.init_circle((100, 100), 80, 60)
        cfg = ps.EvolveConfig(n_vertices=60, eta=5e-4, max_iters=40)
        a = ps.run(disk_noisy, p0, cfg)
        b = ps.run(disk_noisy, p0, cfg)
        assert np.array_equal(a.final_polygon.points, b.final_polygon.points)
        assert [r.total for r in a.trace] == [r.total for r in b.trace]

    def test_trace_iter_strictly_increasing(self, disk_clean):
        p0 = ps.init_circle((100, 100), 70, 50)
        cfg = ps.EvolveConfig(n_vertices=50, eta=5e-4, max_iters=30)
        res = ps.run(disk_clean, p0, cfg)
        iters = [r.iter for r in res.trace]
        assert iters == sorted(set(iters))

    def test_callback_sees_every_iteration(self, disk_clean):
        p0 = ps.init_circle((100, 100), 70, 40)
        cfg = ps.EvolveConfig(n_vertices=40, eta=5e-4, max_iters=15)
        seen = []
        ps.run(disk_clean, p0, cfg, callback=lambda k, poly: seen.append(k))
        assert seen == list(range(15))

    def test_adaptive_displacement_cap(self, disk_noisy):
        # the pixel cap binds: the fastest vertex moves exactly 0.5 px
        p0 = ps.init_circle((100, 100), 90, 100)
        cfg = ps.EvolveConfig(n_vertices=100, eta=5e-4, max_iters=120)
        res = ps.run(disk_noisy, p0, cfg)
        assert len(res.trace) == 120
        assert all(abs(r.max_disp - 0.5) < 1e-12 for r in res.trace)

    def test_dt_cap_binds_as_a_fixed_small_step(self):
        # pure curvature flow on a circle: speed eta / r, far below the
        # pixel cap, so the step is dt_cap and moves every vertex
        # dt_cap * eta / r
        img = ps.Image(np.full((128, 128), 0.5), ps.GRAY)
        p0 = ps.init_circle((64, 64), 50, 100)
        cfg = ps.EvolveConfig(n_vertices=100, eta=1e-4, dt_cap=1e4, max_iters=1)
        res = ps.run(img, p0, cfg)
        expected = cfg.dt_cap * cfg.eta / 50.0
        assert res.trace[0].max_disp == pytest.approx(expected, rel=1e-9)

    @staticmethod
    def _noisy_frame_disk(n, vertices):
        # the perfbench frame_gray input at side n: disk r = 0.30 n, values
        # 0.9 on 0.1, noise sd 25; start circle 0.34 n
        c = (n - 1) / 2.0
        img = ps.synth_shape("disk", n, n, 0.9, 0.1, {"cx": c, "cy": c, "r": 0.30 * n})
        p0 = ps.init_circle((c, c), 0.34 * n, vertices)
        return ps.add_gaussian_noise(img, 25.0, ps.Rng(1)), p0

    def test_default_dt_cap_does_not_bind_on_a_large_frame(self):
        # region speeds scale like 1/area: on a 1024^2 frame the pixel cap,
        # not dt_cap, must set every step of the approach
        img, p0 = self._noisy_frame_disk(1024, 100)
        res = ps.run(img, p0, ps.EvolveConfig(eta=1e-4, max_iters=50))
        assert len(res.trace) == 50
        assert all(abs(r.max_disp - 0.5) < 1e-12 for r in res.trace)

    def test_large_frame_converges_within_default_max_iters(self):
        n = 2048
        img, p0 = self._noisy_frame_disk(n, 400)
        res = ps.run(img, p0, ps.EvolveConfig(n_vertices=400, eta=5e-5))
        assert res.converged
        assert res.iterations_run < ps.EvolveConfig().max_iters
        assert res.flagged_steps == 0
        c = (n - 1) / 2.0
        ys, xs = np.ogrid[0:n, 0:n]
        truth = (xs - c) ** 2 + (ys - c) ** 2 < (0.30 * n) ** 2
        mask = ps.rasterize_mask(res.final_polygon, n, n)
        iou = (truth & mask).sum() / (truth | mask).sum()
        assert iou >= 0.998

    def test_pure_curvature_flow_circle_stays_circular(self):
        img = ps.Image(np.full((128, 128), 0.5), ps.GRAY)
        p0 = ps.init_circle((64, 64), 50, 100)
        # dt_cap below the highest curvature mode's stability bound
        cfg = ps.EvolveConfig(n_vertices=100, eta=1e-4, dt_cap=1e4,
                              max_iters=100, e_thr=1e-12)
        res = ps.run(img, p0, cfg)
        assert res.iterations_run == 100
        d = np.hypot(res.final_polygon.points[:, 0] - 64,
                     res.final_polygon.points[:, 1] - 64)
        assert d.max() - d.min() < 1e-6 * d.mean()
        perims = [r.e3 for r in res.trace]
        assert all(b < a for a, b in zip(perims, perims[1:]))

    def test_descent_on_smooth_blobs(self, blob64):
        # window-averaged energy non-increasing in >= 95% of windows
        p0 = ps.init_circle((32, 32), 20, 60)
        cfg = ps.EvolveConfig(n_vertices=60, eta=1e-3, max_iters=200, e_thr=1e-9)
        res = ps.run(blob64, p0, cfg)
        tot = np.array([r.total for r in res.trace])
        w = cfg.window
        nw = len(tot) // w
        means = tot[: nw * w].reshape(nw, w).mean(axis=1)
        frac = (np.diff(means) <= 0).mean()
        assert frac >= 0.95


def _finite_trace(trace) -> bool:
    return all(
        np.isfinite([r.e1, r.e2, r.e3, r.total, r.area, r.max_disp]).all() for r in trace
    )


class TestRunProperty:
    """run() returns a finite result or raises a PolysegError with a finite
    partial trace, over random star starts, images and configs."""

    @given(
        size=st.integers(24, 64),
        disk=st.booleans(),
        noise_sd=st.floats(0.0, 50.0),
        seed=st.integers(0, 2**16),
        start_n=st.integers(3, 120),
        centre=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        r_share=st.floats(0.05, 0.6),
        amp=st.floats(0.0, 0.4),
        n=st.integers(3, 120),
        log_eta=st.floats(-5.0, -1.0),
        max_iters=st.integers(1, 40),
        resample_every=st.integers(1, 12),
        window=st.integers(1, 10),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_finite_result_or_partial(
        self, size, disk, noise_sd, seed, start_n, centre, r_share, amp, n, log_eta,
        max_iters, resample_every, window,
    ):
        c = (size - 1) / 2.0
        if disk:
            img = ps.synth_shape("disk", size, size, 0.9, 0.1, {"cx": c, "cy": c, "r": size / 4})
            img = ps.add_gaussian_noise(img, noise_sd, ps.Rng(seed))
        else:
            img = ps.Image(np.random.default_rng(seed).uniform(0, 1, (size, size)), ps.GRAY)
        p0 = star_polygon(
            seed, n=start_n, center=(centre[0] * (size - 1), centre[1] * (size - 1)),
            r_mean=r_share * size, amp=amp,
        )
        cfg = ps.EvolveConfig(
            n_vertices=n, eta=10.0**log_eta, max_iters=max_iters,
            resample_every=resample_every, window=window,
        )
        try:
            res = ps.run(img, p0, cfg)
        except ps.PolysegError as exc:
            if exc.partial is None:
                # only the start checks raise without a partial
                assert isinstance(exc, ps.DegeneratePolygon)
                assert abs(ps.polygon_area(p0)) < 1e-9 or not ps.is_simple(p0)
            else:
                assert _finite_trace(exc.partial.trace)
            return
        assert np.isfinite(res.final_polygon.points).all()
        assert _finite_trace(res.trace)


class TestTraceCsv:
    def test_schema_and_precision(self, tmp_path, disk_clean):
        p0 = ps.init_circle((100, 100), 70, 40)
        cfg = ps.EvolveConfig(n_vertices=40, eta=5e-4, max_iters=12)
        res = ps.run(disk_clean, p0, cfg)
        path = tmp_path / "trace.csv"
        ps.write_trace_csv(res.trace, path)
        raw = path.read_bytes()
        assert b"\r" not in raw  # LF endings
        rows = list(csv.DictReader(raw.decode().splitlines()))
        assert list(rows[0]) == [
            "iter", "e1", "e2", "e3", "total", "area", "perimeter", "max_disp",
        ]
        assert len(rows) == 12
        for row, tr in zip(rows, res.trace):
            assert int(row["iter"]) == tr.iter
            # >= 9 significant digits round-trip
            assert float(row["total"]) == pytest.approx(tr.total, rel=1e-9)


class TestEvolveConfig:
    def test_defaults(self):
        cfg = ps.EvolveConfig()
        assert cfg.n_vertices == 100
        assert cfg.dt_cap == 1e8
        assert cfg.eta == 0.1
        assert cfg.max_iters == 500
        assert cfg.e_thr == 1e-4
        assert cfg.resample_every == 10
        assert cfg.window == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_vertices": 2},
            {"dt_cap": 0.0},
            {"max_iters": 0},
            {"e_thr": 0.0},
            {"resample_every": 0},
            {"eta": -1e-3},
            {"window": 0},
            {"n_vertices": math.nan},
            {"n_vertices": 40.0},
            {"max_iters": math.nan},
            {"max_iters": 2.5},
            {"resample_every": math.nan},
            {"window": math.nan},
            # a bool is an Integral, but not a count
            {"n_vertices": True},
            {"max_iters": True},
            {"resample_every": True},
            {"window": True},
        ],
    )
    def test_invalid(self, kwargs):
        # the message names the rejected field
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ps.EvolveConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["dt_cap", "e_thr", "eta"])
    def test_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            ps.EvolveConfig(**{name: value})
