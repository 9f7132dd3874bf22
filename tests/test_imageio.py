import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyseg as ps
from polyseg.imageio import SHAPES, write_mask


class TestReadPnm:
    def test_p2_ascii(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 255 128 64\n")
        img = ps.read_pnm(path)
        assert img.colorspace == ps.GRAY
        expect = np.array([0, 255, 128, 64]) / 255.0
        assert np.abs(img.data.ravel() - expect).max() < 1e-12

    def test_p6_single_red_pixel(self, tmp_path):
        path = tmp_path / "a.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\x00\x00")
        img = ps.read_pnm(path)
        assert img.colorspace == ps.RGB
        assert img.data[0, 0].tolist() == [1.0, 0.0, 0.0]

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2 # magic\n# a comment line\n2 1 # dims\n255\n7 9\n")
        img = ps.read_pnm(path)
        assert img.width == 2 and img.height == 1

    def test_sixteen_bit_big_endian(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + (30000).to_bytes(2, "big"))
        img = ps.read_pnm(path)
        assert img.data[0, 0, 0] == pytest.approx(30000 / 65535)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ps.ParseError):
            ps.read_pnm(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\nxx 4\n255\n")
        with pytest.raises(ps.ParseError):
            ps.read_pnm(path)

    @pytest.mark.parametrize("content, match", [
        (b"P5 4", "unexpected end of PNM header"),
        (b"P5\n0 4\n255\n", "non-positive PNM dimensions"),
        (b"P5\n1 1\n0\n\x00", "maxval 0 out of range"),
        (b"P5\n1 1\n65536\n\x00\x00", "maxval 65536 out of range"),
        (b"P5\n1 1\n255", "missing separator before binary payload"),
    ], ids=["ends-after-width", "width-0", "maxval-0", "maxval-65536", "ends-after-maxval"])
    def test_bad_header(self, tmp_path, content, match):
        path = tmp_path / "a.pgm"
        path.write_bytes(content)
        with pytest.raises(ps.ParseError, match=match):
            ps.read_pnm(path)

    @pytest.mark.parametrize("content", [
        b"P5\n2 1\n15\n\x0f\xc8",  # byte 200 above maxval 15
        b"P5\n1 1\n1000\n" + (1001).to_bytes(2, "big"),
        b"P2\n2 1\n255\n7 256\n",
        b"P2\n1 1\n255\n" + b"9" * 400 + b"\n",  # too large for a float
        b"P2\n2 1\n255\n-5 7\n",
        b"P3\n1 1\n255\n0 -1 0\n",
        b"P2\n1 1\n255\n-" + b"9" * 400 + b"\n",  # too negative for a float
    ])
    def test_sample_outside_maxval(self, tmp_path, content):
        path = tmp_path / "a.pnm"
        path.write_bytes(content)
        with pytest.raises(ps.ParseError, match="outside"):
            ps.read_pnm(path)

    @pytest.mark.parametrize("content", [
        b"P2\n50000 50000\n255\n0 1 2\n",  # header far larger than the file
        b"P2\n2 2\n255\n0 255 128\n",  # one sample short
        b"P3\n1 1\n255\n10 20 # a comment, not a sample\n",
    ], ids=["huge-header", "one-short", "comment-not-sample"])
    def test_truncated_ascii_payload(self, tmp_path, content):
        path = tmp_path / "a.pnm"
        path.write_bytes(content)
        with pytest.raises(ps.ParseError, match="truncated PNM payload"):
            ps.read_pnm(path)

    @pytest.mark.parametrize("content", [
        b"P2\n2 1\n255\n7 abc\n",
        b"P3\n1 1\n255\n1 2 3x\n",
    ])
    def test_non_integer_sample_is_named(self, tmp_path, content):
        path = tmp_path / "a.pnm"
        path.write_bytes(content)
        with pytest.raises(ps.ParseError, match="expected integer PNM sample, got b'(abc|3x)'"):
            ps.read_pnm(path)

    def test_large_ascii_file_matches_binary_twin(self, tmp_path):
        # 1024x1024 samples: the ASCII payload is read in one pass
        q = np.random.default_rng(11).integers(0, 256, (1024, 1024), dtype=np.uint8)
        (tmp_path / "a.pgm").write_bytes(
            b"P2\n1024 1024\n255\n" + " ".join(map(str, q.ravel())).encode() + b"\n")
        (tmp_path / "b.pgm").write_bytes(b"P5\n1024 1024\n255\n" + q.tobytes())
        ascii_img, binary_img = ps.read_pnm(tmp_path / "a.pgm"), ps.read_pnm(tmp_path / "b.pgm")
        assert ascii_img.colorspace == binary_img.colorspace == ps.GRAY
        assert np.array_equal(ascii_img.data, binary_img.data)

    def test_ascii_read_peak_memory(self, tmp_path):
        # the file, the int64 samples and the float image, plus a few MB
        # for one slice of tokens; a token list of the whole payload with
        # its Python ints takes about 70 bytes per sample
        q = np.random.default_rng(5).integers(0, 256, (512, 512), dtype=np.uint8)
        content = b"P2\n512 512\n255\n" + " ".join(map(str, q.ravel())).encode() + b"\n"
        (tmp_path / "a.pgm").write_bytes(content)
        tracemalloc.start()
        try:
            img = ps.read_pnm(tmp_path / "a.pgm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(img.data[:, :, 0], q / 255.0)
        assert peak < len(content) + 16 * q.size + 4e6  # 9.1 MB

    def test_samples_at_zero_and_maxval(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n2 1\n15\n\x00\x0f")
        assert ps.read_pnm(path).data[0, :, 0].tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("magic", [b"P1", b"P4", b"P7"])
    def test_unsupported_formats(self, tmp_path, magic):
        path = tmp_path / "a.pbm"
        path.write_bytes(magic + b"\n2 2\n0 1 1 0\n")
        with pytest.raises(ps.UnsupportedFormat):
            ps.read_pnm(path)

    def test_not_pnm(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"GIF89a....")
        with pytest.raises(ps.ParseError):
            ps.read_pnm(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ps.read_pnm(tmp_path / "nope.pgm")


class TestWritePnm:
    @given(st.integers(0, 10_000), st.booleans(), st.sampled_from([1, 3]))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_quantized(self, tmp_path_factory, seed, binary, channels):
        tmp = tmp_path_factory.mktemp("pnm")
        rng = np.random.default_rng(seed)
        quant = rng.integers(0, 256, (5, 7, channels)) / 255.0
        img = ps.Image(quant, ps.GRAY if channels == 1 else ps.RGB)
        path = tmp / "x.pnm"
        if binary:
            ps.write_pnm(img, path)
        else:  # write_pnm writes binary only; the ASCII file is built here
            magic = b"P2" if channels == 1 else b"P3"
            samples = " ".join(str(v) for v in np.rint(quant * 255).astype(int).ravel())
            path.write_bytes(b"%s\n7 5\n255\n%s\n" % (magic, samples.encode("ascii")))
        back = ps.read_pnm(path)
        assert back.colorspace == img.colorspace
        assert np.array_equal(back.data, img.data)

    def test_constant_half_writes_128(self, tmp_path):
        img = ps.Image(np.full((2, 2), 0.5), ps.GRAY)
        path = tmp_path / "h.pgm"
        ps.write_pnm(img, path)
        assert path.read_bytes().endswith(b"\x80" * 4)

    @given(st.integers(0, 10_000), st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=20, deadline=None)
    def test_mask_bytes_match_the_image_writer(self, tmp_path_factory, seed, h, w):
        tmp = tmp_path_factory.mktemp("mask")
        mask = np.random.default_rng(seed).uniform(0, 1, (h, w)) < 0.5
        write_mask(mask, tmp / "mask.pgm")
        ps.write_pnm(ps.Image(mask, ps.GRAY), tmp / "image.pgm")
        assert (tmp / "mask.pgm").read_bytes() == (tmp / "image.pgm").read_bytes()

    def test_lab_refused(self, tmp_path):
        lab = ps.srgb_to_lab(ps.Image(np.full((2, 2, 3), 0.5), ps.RGB))
        with pytest.raises(ps.WrongColorspace):
            ps.write_pnm(lab, tmp_path / "x.ppm")

    def test_unwritable_path(self, tmp_path):
        img = ps.Image(np.zeros((2, 2)), ps.GRAY)
        with pytest.raises(OSError):
            ps.write_pnm(img, tmp_path / "no" / "such" / "dir" / "x.pgm")


class TestToGray:
    def test_white(self):
        img = ps.Image(np.ones((2, 2, 3)), ps.RGB)
        assert np.all(ps.to_gray(img).data == 1.0)

    def test_pure_green(self):
        data = np.zeros((2, 2, 3))
        data[:, :, 1] = 1.0
        assert ps.to_gray(ps.Image(data, ps.RGB)).data[0, 0, 0] == pytest.approx(0.7152)

    def test_random_vs_scalar_oracle(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(0, 1, (6, 6, 3))
        gray = ps.to_gray(ps.Image(data, ps.RGB)).data[:, :, 0]
        for r in range(6):
            for c in range(6):
                expect = (
                    0.2126 * data[r, c, 0]
                    + 0.7152 * data[r, c, 1]
                    + 0.0722 * data[r, c, 2]
                )
                assert abs(gray[r, c] - expect) < 1e-12

    def test_gray_input_refused(self):
        with pytest.raises(ps.WrongColorspace):
            ps.to_gray(ps.Image(np.zeros((2, 2)), ps.GRAY))


class TestSynthShape:
    def test_disk_count_matches_center_test(self):
        img = ps.synth_shape("disk", 200, 200, 0.9, 0.1, {"cx": 100, "cy": 100, "r": 60})
        ys, xs = np.mgrid[0:200, 0:200]
        expect = (xs - 100) ** 2 + (ys - 100) ** 2 < 60**2
        assert np.array_equal(img.data[:, :, 0] == 0.9, expect)

    def test_disk_count_near_continuous_area(self):
        r = 60
        img = ps.synth_shape("disk", 200, 200, 1.0, 0.0, {"cx": 100, "cy": 100, "r": r})
        count = (img.data == 1.0).sum()
        assert abs(count - np.pi * r * r) < 2 * np.pi * r + 8

    def test_fg_equals_bg(self):
        img = ps.synth_shape("disk", 32, 32, 0.4, 0.4, {"cx": 16, "cy": 16, "r": 8})
        assert np.all(img.data == 0.4)

    def test_rectangle_covering_everything(self):
        img = ps.synth_shape(
            "rectangle", 16, 12, 0.8, 0.1, {"x0": 0, "y0": 0, "x1": 15, "y1": 11}
        )
        assert np.all(img.data == 0.8)

    def test_annulus(self):
        img = ps.synth_shape(
            "annulus", 64, 64, 1.0, 0.0,
            {"cx": 32, "cy": 32, "r_inner": 10, "r_outer": 20},
        )
        ys, xs = np.mgrid[0:64, 0:64]
        d2 = (xs - 32) ** 2 + (ys - 32) ** 2
        expect = (d2 >= 100) & (d2 < 400)
        assert np.array_equal(img.data[:, :, 0] == 1.0, expect)

    def test_two_blobs(self):
        img = ps.synth_shape(
            "two_blobs", 64, 32, 1.0, 0.0,
            {"cx1": 16, "cy1": 16, "r1": 8, "cx2": 46, "cy2": 16, "r2": 10},
        )
        assert (img.data == 1.0).sum() > 0

    def test_oversize_shape(self):
        with pytest.raises(ps.BadParams):
            ps.synth_shape("disk", 64, 64, 0.9, 0.1, {"cx": 32, "cy": 32, "r": 40})

    def test_bad_intensity(self):
        with pytest.raises(ps.BadParams):
            ps.synth_shape("disk", 64, 64, 1.2, 0.1, {"cx": 32, "cy": 32, "r": 8})

    def test_unknown_kind(self):
        with pytest.raises(ps.BadParams):
            ps.synth_shape("pentagon", 64, 64, 0.9, 0.1, {})

    def test_missing_params(self):
        with pytest.raises(ps.BadParams):
            ps.synth_shape("disk", 64, 64, 0.9, 0.1, {"cx": 32})

    @pytest.mark.parametrize("kind, width, params, match", [
        ("disk", 0, {"cx": 32, "cy": 32, "r": 8}, "image dimensions must be positive"),
        ("disk", 64, {"cx": 32, "cy": 32, "r": 0}, "radius must be positive"),
        ("rectangle", 64, {"x0": 10, "y0": 10, "x1": 64, "y1": 20},
         "rectangle exceeds image bounds"),
        ("annulus", 64, {"cx": 32, "cy": 32, "r_inner": 10, "r_outer": 10},
         "annulus needs 0 < r_inner < r_outer"),
    ], ids=["width-0", "radius-0", "rectangle-past-frame", "annulus-inner-not-below-outer"])
    def test_bad_geometry(self, kind, width, params, match):
        with pytest.raises(ps.BadParams, match=match):
            ps.synth_shape(kind, width, 64, 0.9, 0.1, params)

    @pytest.mark.parametrize("kind", list(SHAPES))
    def test_missing_params_are_the_table_entry(self, kind):
        missing = ", ".join(SHAPES[kind])
        with pytest.raises(ps.BadParams, match=f"missing shape parameters: {missing}$"):
            ps.synth_shape(kind, 64, 64, 0.9, 0.1, {})


class TestNoise:
    def test_zero_sd_identity(self):
        img = ps.Image(np.full((8, 8), 0.3), ps.GRAY)
        out = ps.add_gaussian_noise(img, 0.0, ps.Rng(1))
        assert np.array_equal(out.data, img.data)

    def test_seed_determinism(self):
        img = ps.Image(np.full((16, 16), 0.5), ps.GRAY)
        a = ps.add_gaussian_noise(img, 25.0, ps.Rng(99))
        b = ps.add_gaussian_noise(img, 25.0, ps.Rng(99))
        assert np.array_equal(a.data, b.data)

    def test_moments_at_mid_gray(self):
        # frozen check: seed 2024, 256x256 constant 0.5, SD 25/255
        img = ps.Image(np.full((256, 256), 0.5), ps.GRAY)
        noisy = ps.add_gaussian_noise(img, 25.0, ps.Rng(2024))
        d = noisy.data - 0.5
        assert abs(d.mean()) < 0.004
        assert abs(d.std() - 25 / 255) < 0.05 * (25 / 255)

    def test_clamped_range(self):
        img = ps.Image(np.full((32, 32), 0.02), ps.GRAY)
        noisy = ps.add_gaussian_noise(img, 60.0, ps.Rng(3))
        assert noisy.data.min() >= 0.0 and noisy.data.max() <= 1.0

    @pytest.mark.parametrize("sd", [-5.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_sd_raises(self, sd):
        img = ps.Image(np.full((8, 8), 0.3), ps.GRAY)
        with pytest.raises(ps.BadParams, match="non-negative and finite"):
            ps.add_gaussian_noise(img, sd, ps.Rng(1))


class TestRng:
    def test_uniform_range_and_mean(self):
        u = ps.Rng(5).uniforms(100_000)
        assert u.min() > 0.0 and u.max() <= 1.0
        assert abs(u.mean() - 0.5) < 0.005

    def test_streams_differ_by_seed(self):
        assert not np.array_equal(ps.Rng(1).uniforms(64), ps.Rng(2).uniforms(64))

    def test_uniform_batching_invariance(self):
        r = ps.Rng(11)
        a = np.concatenate([r.uniforms(3), r.uniforms(5)])
        assert np.array_equal(a, ps.Rng(11).uniforms(8))

    def test_normal_moments(self):
        z = ps.Rng(8).normals(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
