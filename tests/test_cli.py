import base64
import dataclasses
import importlib.util
import os
import pathlib
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import polyseg as ps
import polyseg.backend
import polyseg.cli
import polyseg.evolve
import polyseg.imageio
import polyseg.svgout
from polyseg.cli import main

from helpers import blob_image, gradcheck_table, pentagram

SVG_IMAGE = "{http://www.w3.org/2000/svg}image"
XLINK_HREF = "{http://www.w3.org/1999/xlink}href"


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py as a module, read from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture()
def disk_pgm(tmp_path):
    path = tmp_path / "disk.pgm"
    rc = main([
        "synth", "--kind", "disk", "--width", "120", "--height", "120",
        "--fg", "0.9", "--bg", "0.1", "--cx", "60", "--cy", "60", "--r", "35",
        "--out", str(path),
    ])
    assert rc == 0
    return path


@pytest.fixture()
def blob_pgm(tmp_path):
    path = tmp_path / "blob.pgm"
    ps.write_pnm(blob_image(), path)
    return path


def segment_args(disk_pgm, out_dir, extra=()):
    return [
        "segment", "--input", str(disk_pgm), "--init-circle", "60,60,52",
        "--eta", "5e-4", "--iters", "80", "--vertices", "60",
        "--out", str(out_dir), *extra,
    ]


class TestSynth:
    def test_writes_readable_pgm(self, disk_pgm):
        img = ps.read_pnm(disk_pgm)
        assert img.width == 120 and img.height == 120
        direct = ps.synth_shape(
            "disk", 120, 120, 0.9, 0.1, {"cx": 60, "cy": 60, "r": 35}
        )
        quant = np.round(direct.data * 255) / 255
        assert np.abs(img.data - quant).max() < 1e-12

    def test_noisy_deterministic(self, tmp_path):
        args = [
            "synth", "--kind", "disk", "--width", "40", "--height", "40",
            "--cx", "20", "--cy", "20", "--r", "12",
            "--noise-sd", "25", "--seed", "7",
        ]
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_oversize_exits_one(self, tmp_path):
        rc = main([
            "synth", "--kind", "disk", "--width", "40", "--height", "40",
            "--cx", "20", "--cy", "20", "--r", "30", "--out", str(tmp_path / "x.pgm"),
        ])
        assert rc == 1

    SHAPES = {
        "disk": ["--cx", "20", "--cy", "20", "--r", "12"],
        "rectangle": ["--x0", "5", "--y0", "5", "--x1", "30", "--y1", "30"],
        "annulus": ["--cx", "20", "--cy", "20", "--r-inner", "5", "--r-outer", "12"],
        "two_blobs": ["--cx1", "12", "--cy1", "12", "--r1", "6",
                      "--cx2", "28", "--cy2", "28", "--r2", "6"],
    }

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("kind", sorted(SHAPES))
    def test_non_finite_shape_parameter_exits_one(self, tmp_path, capsys, kind, value):
        # NaN passes every bounds comparison, so each parameter is tried alone
        params = self.SHAPES[kind]
        out = tmp_path / "x.pgm"
        base = ["synth", "--kind", kind, "--width", "40", "--height", "40",
                "--out", str(out)]
        assert main(base + params) == 0
        out.unlink()
        for i in range(1, len(params), 2):
            bad = params[:i] + [value] + params[i + 1:]
            assert main(base + bad) == 1, bad
            assert "shape parameters must be finite" in capsys.readouterr().err
            assert not out.exists()


    @pytest.mark.parametrize("sd", ["-5", "nan", "inf"])
    def test_bad_noise_sd_exits_one(self, tmp_path, capsys, sd):
        out = tmp_path / "x.pgm"
        rc = main([
            "synth", "--kind", "disk", "--width", "40", "--height", "40",
            "--cx", "20", "--cy", "20", "--r", "12", "--noise-sd", sd, "--out", str(out),
        ])
        assert rc == 1
        assert "noise SD must be non-negative and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_kinds_and_shape_flags_come_from_the_table(self, capsys):
        shapes = polyseg.imageio.SHAPES
        assert main(["synth", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        usage = text[: text.index(" options:")]
        assert re.search(r"--kind \{([^}]*)\}", usage)[1].split(",") == list(shapes)
        flags = list(dict.fromkeys(re.findall(r"--[a-z0-9-]+", usage)))
        shape_flags = flags[flags.index("--bg") + 1 : flags.index("--noise-sd")]
        names = dict.fromkeys(name for names in shapes.values() for name in names)
        assert shape_flags == ["--" + name.replace("_", "-") for name in names]


class TestSegment:
    # each tuning flag and the EvolveConfig field it sets
    TUNING = {
        "--eta": "eta", "--dt-cap": "dt_cap", "--iters": "max_iters",
        "--e-thr": "e_thr", "--vertices": "n_vertices",
        "--resample-every": "resample_every", "--window": "window",
    }

    def test_defaults_are_the_evolve_config_defaults(self, disk_pgm, tmp_path, monkeypatch):
        seen = []

        def capture(img, p0, cfg, callback=None):
            seen.append((len(p0), cfg))
            raise ps.PolysegError("captured")

        monkeypatch.setattr(polyseg.cli, "run", capture)
        rc = main([
            "segment", "--input", str(disk_pgm), "--init-circle", "60,60,52",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert seen == [(ps.EvolveConfig().n_vertices, ps.EvolveConfig())]

    def test_help_shows_the_evolve_config_defaults(self, capsys):
        cfg = ps.EvolveConfig()
        assert sorted(self.TUNING.values()) == sorted(f.name for f in dataclasses.fields(cfg))
        assert main(["segment", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        options = text[text.index(" options:") :]
        entries = {e.split()[0]: e for e in re.split(r" (?=--[a-z])", options)}
        for flag, name in self.TUNING.items():
            shown = re.search(r"\(default: ([^)]*)\)", entries[flag])[1]
            default = getattr(cfg, name)
            assert type(default)(shown) == default, flag

    def test_negative_snapshot_every_exits_one(self, disk_pgm, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(segment_args(disk_pgm, out, extra=["--snapshot-every", "-3"]))
        assert rc == 1
        assert "--snapshot-every" in capsys.readouterr().err
        assert not out.exists()
        assert main(segment_args(disk_pgm, out, extra=["--snapshot-every", "0"])) == 0
        assert not list(out.glob("snapshot_*.svg"))

    def test_outputs_and_exit_zero(self, disk_pgm, tmp_path):
        out = tmp_path / "run"
        rc = main(segment_args(disk_pgm, out, extra=["--snapshot-every", "20"]))
        assert rc == 0
        for name in ("trace.csv", "final_polygon.txt", "final_mask.pgm",
                     "overlay.svg", "energy.svg"):
            assert (out / name).exists(), name
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,e1,e2,e3,total,area,perimeter,max_disp"
        assert len(lines) - 1 <= 80
        mask = ps.read_pnm(out / "final_mask.pgm")
        assert set(np.unique(mask.data)).issubset({0.0, 1.0})
        poly = ps.read_polygon(out / "final_polygon.txt")
        assert len(poly) == 60

    def test_overlay_svg_structure(self, disk_pgm, tmp_path, monkeypatch):
        encoded = []
        encode = polyseg.imageio._pnm_bytes

        def counting_pnm_bytes(quant):
            encoded.append(quant.shape[2])
            return encode(quant)

        # the one 8-bit encoder, under its name in each module that calls it
        for module in (polyseg.imageio, polyseg.svgout):
            monkeypatch.setattr(module, "_pnm_bytes", counting_pnm_bytes)
        out = tmp_path / "run"
        rc = main(segment_args(disk_pgm, out, extra=["--snapshot-every", "20"]))
        assert rc == 0
        root = ET.parse(out / "overlay.svg").getroot()
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        snapshots = list(out.glob("snapshot_*.svg"))
        assert snapshots
        assert len(polylines) == len(snapshots) + 2  # initial + final
        href = root.find(SVG_IMAGE).get(XLINK_HREF)
        for snap in snapshots:
            snap_root = ET.parse(snap).getroot()
            assert len(snap_root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 1
            assert snap_root.find(SVG_IMAGE).get(XLINK_HREF) == href
        # the mask as a PGM, and one raster encoding serves every overlay
        assert sorted(encoded) == [1, 3]

    @pytest.mark.parametrize("channels", [1, 3])
    def test_overlay_embeds_quantized_input(self, tmp_path, channels):
        rng = np.random.default_rng(channels)
        data = rng.uniform(-0.1, 1.1, (40, 50, channels))
        img = ps.Image(np.clip(data, 0, 1), ps.GRAY if channels == 1 else ps.RGB)
        path = tmp_path / ("in.pgm" if channels == 1 else "in.ppm")
        ps.write_pnm(img, path)
        out = tmp_path / "run"
        rc = main(["segment", "--input", str(path), "--mode",
                   "gray" if channels == 1 else "rgb", "--init-circle", "25,20,12",
                   "--iters", "3", "--vertices", "20", "--out", str(out)])
        assert rc == 0
        root = ET.parse(out / "overlay.svg").getroot()
        href = root.find(SVG_IMAGE).get(XLINK_HREF)
        prefix = "data:image/x-portable-pixmap;base64,"
        assert href.startswith(prefix)
        quant = np.array([[[min(255, max(0, round(v * 255))) for v in px] for px in row]
                          for row in ps.read_pnm(path).data], dtype=np.uint8)
        expected = b"P6\n50 40\n255\n" + np.repeat(quant, 3 // channels, axis=2).tobytes()
        assert base64.b64decode(href[len(prefix):]) == expected

    def test_peak_memory_of_run_and_outputs(self, tmp_path):
        # a run must hold the image and its two (H, W+1) row prefix tables;
        # the mask, the overlay raster and the rest may add a quarter more
        n = 512
        path = tmp_path / "disk.pgm"
        assert main([
            "synth", "--kind", "disk", "--width", str(n), "--height", str(n),
            "--cx", "256", "--cy", "256", "--r", "150", "--noise-sd", "25",
            "--seed", "1", "--out", str(path),
        ]) == 0
        tracemalloc.start()
        try:
            rc = main([
                "segment", "--input", str(path), "--init-circle", "256,256,180",
                "--vertices", "100", "--eta", "1e-4", "--out", str(tmp_path / "o"),
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 1.25 * 8 * (n * n + 2 * n * (n + 1))  # 7.87 MB

    def test_reproducible_byte_identical(self, disk_pgm, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(segment_args(disk_pgm, out1)) == 0
        assert main(segment_args(disk_pgm, out2)) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "final_polygon.txt").read_bytes() == (out2 / "final_polygon.txt").read_bytes()

    def test_missing_input_exits_one(self, tmp_path):
        rc = main([
            "segment", "--input", str(tmp_path / "nope.pgm"),
            "--init-circle", "10,10,5", "--out", str(tmp_path / "o"),
        ])
        assert rc == 1

    @pytest.mark.parametrize("content", [
        b"P2\n50000 50000\n255\n0 1 2\n",  # header far larger than the file
        b"P2\n2 2\n255\n0 255 128\n",  # one sample short
        b"P2\n1 1\n255\n-" + b"9" * 400 + b"\n",  # too negative for a float
    ], ids=["huge-header", "one-short", "huge-negative"])
    def test_malformed_ascii_input_exits_one(self, tmp_path, capsys, content):
        path = tmp_path / "bad.pgm"
        path.write_bytes(content)
        rc = main([
            "segment", "--input", str(path), "--init-circle", "1,1,1",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert "polyseg: error: " in capsys.readouterr().err

    def test_init_outside_image_exits_two(self, disk_pgm, tmp_path):
        rc = main([
            "segment", "--input", str(disk_pgm), "--init-circle", "500,500,30",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2

    def test_degenerate_step_exits_two_with_trace(self, disk_pgm, tmp_path, monkeypatch):
        def degenerate_step(*args, **kwargs):
            raise ps.DegeneratePolygon("consecutive vertices coincide")

        monkeypatch.setattr(polyseg.evolve, "step", degenerate_step)
        out = tmp_path / "o"
        rc = main([
            "segment", "--input", str(disk_pgm), "--init-circle", "20,20,30",
            "--eta", "5e-4", "--iters", "200", "--vertices", "60", "--out", str(out),
        ])
        assert rc == 2
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines == ["iter,e1,e2,e3,total,area,perimeter,max_disp"]

    @pytest.mark.parametrize("circle", ["20,20,30", "100,100,40", "0,0,30"])
    def test_clamp_onto_frame_corner_runs_on(self, disk_pgm, tmp_path, capsys, circle):
        # the first step clamps neighbouring vertices onto one frame corner;
        # centred on the corner, some land within 1e-15 px of each other
        out = tmp_path / "o"
        rc = main([
            "segment", "--input", str(disk_pgm), "--init-circle", circle,
            "--eta", "5e-4", "--iters", "200", "--vertices", "60", "--out", str(out),
        ])
        assert rc == 0
        reported = int(re.search(r"after (\d+) iterations", capsys.readouterr().out)[1])
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == reported + 1
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(reported))

    def test_overlay_link_writes_relative_href(self, disk_pgm, tmp_path):
        out = tmp_path / "run"
        rc = main(segment_args(disk_pgm, out, extra=["--overlay-link", "--snapshot-every", "20"]))
        assert rc == 0
        snapshots = list(out.glob("snapshot_*.svg"))
        assert snapshots
        for svg in [out / "overlay.svg", *snapshots]:
            assert ET.parse(svg).getroot().find(SVG_IMAGE).get(XLINK_HREF) == os.path.relpath(
                disk_pgm, out
            )
            assert "data:" not in svg.read_text()

    def test_runs_without_mask_stats(self, disk_pgm, blob_pgm, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("mask_stats called")

        monkeypatch.setattr(polyseg.backend, "mask_stats", fail)
        assert main(segment_args(disk_pgm, tmp_path / "o")) == 0
        assert main([
            "gradcheck", "--input", str(blob_pgm),
            "--init-circle", "32,32,15", "--vertices", "40", "--eta", "1e-3",
        ]) == 0

    def test_negative_eta_exits_one(self, disk_pgm, tmp_path, capsys):
        # "--eta -1e-3" is already an argparse usage error: "-1e-3" reads as an option
        rc = main(segment_args(disk_pgm, tmp_path / "o", extra=["--eta=-1e-3"]))
        assert rc == 1
        assert "eta must not be negative" in capsys.readouterr().err

    def test_flag_prefixes_are_usage_errors(self, disk_pgm, tmp_path):
        # the removed --dt does not pass as an abbreviation of --dt-cap
        for flag in ("--dt", "--vert"):
            out = tmp_path / flag.strip("-")
            assert main(segment_args(disk_pgm, out, extra=[flag, "12"])) == 1
            assert not out.exists()

    def test_usage_error_exits_one(self, disk_pgm, tmp_path):
        # both init specs at once
        rc = main([
            "segment", "--input", str(disk_pgm), "--init-circle", "10,10,5",
            "--init-poly", "x.txt", "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        # an empty circle spec is a malformed circle, not a missing file
        rc = main([
            "segment", "--input", str(disk_pgm), "--init-circle", "",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1

    def test_init_poly_file(self, disk_pgm, tmp_path):
        poly_path = tmp_path / "init.txt"
        ps.write_polygon(ps.init_circle((60, 60), 50, 40), poly_path)
        out = tmp_path / "run"
        rc = main([
            "segment", "--input", str(disk_pgm), "--init-poly", str(poly_path),
            "--eta", "5e-4", "--iters", "40", "--vertices", "40",
            "--out", str(out),
        ])
        assert rc == 0

    def test_self_intersecting_init_poly_exits_one(self, disk_pgm, tmp_path):
        poly_path = tmp_path / "star.txt"
        ps.write_polygon(pentagram((60, 60), 40), poly_path)
        out = tmp_path / "run"
        rc = main([
            "segment", "--input", str(disk_pgm), "--init-poly", str(poly_path),
            "--eta", "5e-4", "--iters", "40", "--vertices", "40", "--out", str(out),
        ])
        assert rc == 1

    def test_lab_mode_requires_color(self, disk_pgm, tmp_path):
        rc = main([
            "segment", "--input", str(disk_pgm), "--mode", "lab",
            "--init-circle", "60,60,40", "--out", str(tmp_path / "o"),
        ])
        assert rc == 1

    def test_rgb_mode_runs(self, tmp_path):
        rgb = np.full((80, 80, 3), 0.2)
        rgb[20:60, 20:60, 0] = 0.9
        rgb[20:60, 20:60, 1] = 0.6
        path = tmp_path / "color.ppm"
        ps.write_pnm(ps.Image(rgb, ps.RGB), path)
        for mode in ("rgb", "lab"):
            out = tmp_path / f"run_{mode}"
            rc = main([
                "segment", "--input", str(path), "--mode", mode,
                "--init-circle", "40,40,32", "--eta", "5e-4",
                "--iters", "60", "--vertices", "50", "--out", str(out),
            ])
            assert rc == 0
            root = ET.parse(out / "overlay.svg").getroot()
            strokes = [el.get("stroke") for el in
                       root.findall(".//{http://www.w3.org/2000/svg}polyline")]
            assert strokes[-2:] == ["blue", "red"]  # color-mode styling


class TestGradcheck:
    def test_blob_passes(self, blob_pgm):
        rc = main([
            "gradcheck", "--input", str(blob_pgm),
            "--init-circle", "32,32,15", "--vertices", "40",
            "--eta", "1e-3",
        ])
        assert rc == 0

    @pytest.mark.parametrize("image", ["blob", "readme_clean"])
    def test_table_matches_the_whole_polygon_oracle(self, blob_pgm, tmp_path, capsys, image):
        # each move's energy from its moved edges prints what evaluating
        # every moved polygon in full prints
        if image == "blob":
            path, (cx, cy, r, n) = blob_pgm, (32, 32, 15, 40)
        else:  # the README example
            path, (cx, cy, r, n) = tmp_path / "clean.pgm", (100, 100, 70, 48)
            assert main([
                "synth", "--kind", "disk", "--width", "200", "--height", "200",
                "--fg", "0.9", "--bg", "0.1", "--cx", "100", "--cy", "100", "--r", "60",
                "--out", str(path),
            ]) == 0
        rc = main([
            "gradcheck", "--input", str(path), "--init-circle", f"{cx},{cy},{r}",
            "--vertices", str(n), "--eta", "1e-3", "--factor", "16",
        ])
        assert rc == 0
        expected = gradcheck_table(ps.read_pnm(path), ps.init_circle((cx, cy), r, n), 1e-3)
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_benchmark_table_matches_the_whole_polygon_oracle(self, workloads, tmp_path,
                                                              capsys, seed):
        # the gradcheck_smooth workload: 64 vertices at factor 16
        w = workloads.WORKLOADS["gradcheck_smooth"]
        path = str(tmp_path / "smooth.pgm")
        workloads.make_input(ps, w, seed, path)
        assert main(workloads.argv(w, path, str(tmp_path / "out"))) == 0
        c = workloads.centre(w)
        p = ps.init_circle((c, c), w.r_init * w.size, w.vertices)
        expected = gradcheck_table(ps.read_pnm(path), p, w.eta, factor=w.factor,
                                   threshold=w.threshold)
        assert capsys.readouterr().out == expected

    def test_move_that_collapses_an_edge_exits_one(self, tmp_path, capsys):
        # vertex 1's move by -h lands on vertex 0: the moved polygon would
        # have two coincident vertices, an input error found before any row
        img = ps.synth_shape("disk", 64, 64, 0.9, 0.1, {"cx": 32, "cy": 32, "r": 16})
        ps.write_pnm(img, tmp_path / "disk.pgm")
        ps.write_polygon(ps.Polygon([(10, 30), (10, 10), (40, 30)]), tmp_path / "tri.txt")
        rc = main([
            "gradcheck", "--input", str(tmp_path / "disk.pgm"),
            "--poly", str(tmp_path / "tri.txt"), "--h", "20",
        ])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "consecutive vertices coincide" in err

    def test_constant_image_passes(self, tmp_path):
        path = tmp_path / "const.pgm"
        ps.write_pnm(ps.Image(np.full((48, 48), 0.5), ps.GRAY), path)
        rc = main([
            "gradcheck", "--input", str(path),
            "--init-circle", "24,24,10", "--vertices", "30",
        ])
        assert rc == 0

    def test_error_above_threshold_exits_three(self, blob_pgm, capsys):
        # the blob's measured max relative error is 0.041 (test_blob_passes)
        rc = main([
            "gradcheck", "--input", str(blob_pgm),
            "--init-circle", "32,32,15", "--vertices", "40",
            "--eta", "1e-3", "--threshold", "0.01",
        ])
        assert rc == 3
        assert "(threshold 0.01)" in capsys.readouterr().out

    def test_polygon_off_the_image_exits_one(self, blob_pgm):
        # exit 2 is kept for segment runs that stop with a partial result
        rc = main([
            "gradcheck", "--input", str(blob_pgm), "--init-circle", "500,500,10",
        ])
        assert rc == 1

    def test_self_intersecting_poly_exits_one(self, disk_pgm, tmp_path, capsys):
        # a bad start polygon is an input error, not a gradient defect
        poly_path = tmp_path / "star.txt"
        ps.write_polygon(pentagram((60, 60), 40), poly_path)
        rc = main(["gradcheck", "--input", str(disk_pgm), "--poly", str(poly_path)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "initial polygon is not simple" in err

    @pytest.mark.parametrize("h", ["0", "-0.25", "nan", "inf"])
    def test_bad_step_exits_one(self, blob_pgm, capsys, h):
        rc = main([
            "gradcheck", "--input", str(blob_pgm), "--init-circle", "32,32,15", "--h", h,
        ])
        assert rc == 1
        assert "--h must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["64", "1e300"])
    def test_step_not_below_the_frame_exits_one(self, tmp_path, capsys, h):
        # a 1e300 px step overflowed the crossing kernel's arithmetic
        img = ps.synth_shape("disk", 64, 64, 0.9, 0.1, {"cx": 32, "cy": 32, "r": 16})
        ps.write_pnm(img, tmp_path / "disk.pgm")
        rc = main([
            "gradcheck", "--input", str(tmp_path / "disk.pgm"), "--init-circle", "32,32,15",
            "--h", h,
        ])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--h must be smaller than the image's larger side (64 px)" in err

    @pytest.mark.parametrize(
        "flag, value, rule",
        [
            ("--gate", "-1e-4", "non-negative and finite"),
            ("--gate", "nan", "non-negative and finite"),
            ("--gate", "inf", "non-negative and finite"),
            ("--threshold", "0", "positive and finite"),
            ("--threshold", "-0.1", "positive and finite"),
            ("--threshold", "nan", "positive and finite"),
            ("--threshold", "inf", "positive and finite"),
            ("--eta", "nan", "finite"),
            ("--eta", "inf", "finite"),
        ],
    )
    def test_bad_gate_or_threshold_exits_one(self, blob_pgm, capsys, flag, value, rule):
        # a non-finite gate, or a non-finite eta that makes every analytic
        # value NaN, would gate every vertex and pass with error 0
        rc = main([
            "gradcheck", "--input", str(blob_pgm), "--init-circle", "32,32,15",
            f"{flag}={value}",
        ])
        assert rc == 1
        assert f"{flag} must be {rule}" in capsys.readouterr().err

    def test_io_error_exits_one(self, tmp_path):
        rc = main([
            "gradcheck", "--input", str(tmp_path / "missing.pgm"),
            "--init-circle", "1,1,1",
        ])
        assert rc == 1
