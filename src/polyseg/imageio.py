"""PNM image I/O, grayscale conversion, synthetic shapes, and seeded noise.

Reading supports P2/P5 (PGM) and P3/P6 (PPM) with maxval 255 or 65535;
writing emits binary (P5/P6) maxval-255 files only.  Sample values are
stored as floats in [0, 1] (raw values divided by maxval).
"""

import numpy as np

from .errors import BadParams, ParseError, UnsupportedFormat, WrongColorspace
from .image import GRAY, RGB, Image

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class Rng:
    """Seedable splitmix64 generator with a deterministic stream.

    The k-th uniform draw depends only on (seed, k); identical seeds and
    call sequences give bit-identical outputs on every platform.  Each
    ``normals`` call consumes whole Box-Muller pairs, so batching normal
    draws differently changes the stream (uniform draws do not).
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._drawn = 0

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]."""
        idx = np.arange(self._drawn + 1, self._drawn + n + 1, dtype=np.uint64)
        self._drawn += n
        z = self._seed + idx * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
        return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normal deviates via Box-Muller."""
        m = (n + 1) // 2
        u1 = self.uniforms(m)
        u2 = self.uniforms(m)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(2.0 * np.pi * u2)
        out[1::2] = r * np.sin(2.0 * np.pi * u2)
        return out[:n]


class _Tokens:
    """Whitespace/comment-aware tokenizer over PNM header bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.eof = "unexpected end of PNM header"  # raised on running out of tokens

    def next(self) -> bytes:
        d, i = self.data, self.pos
        while i < len(d):
            if d[i : i + 1].isspace():
                i += 1
            elif d[i] == ord("#"):
                while i < len(d) and d[i] not in (10, 13):
                    i += 1
            else:
                break
        if i >= len(d):
            raise ParseError(self.eof)
        j = i
        while j < len(d) and not d[j : j + 1].isspace() and d[j] != ord("#"):
            j += 1
        self.pos = j
        return d[i:j]

    def next_int(self) -> int:
        tok = self.next()
        try:
            return int(tok)
        except ValueError as exc:
            raise ParseError(f"expected integer in PNM header, got {tok!r}") from exc


def read_pnm(path) -> Image:
    """Read a PGM/PPM file into a GRAY or RGB image.

    Raises
    ------
    ParseError
        Malformed header, truncated payload, or a sample outside
        [0, maxval].
    UnsupportedFormat
        P1/P4 bitmaps and P7 (PAM).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    tok = _Tokens(raw)
    magic = tok.next()
    if magic in (b"P1", b"P4", b"P7"):
        raise UnsupportedFormat(f"{magic.decode('ascii', 'replace')} is not supported")
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise ParseError(f"not a PNM file (magic {magic[:2]!r})")
    width = tok.next_int()
    height = tok.next_int()
    maxval = tok.next_int()
    if width < 1 or height < 1:
        raise ParseError("non-positive PNM dimensions")
    if not 0 < maxval < 65536:
        raise ParseError(f"maxval {maxval} out of range")
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels

    if magic in (b"P2", b"P3"):
        # each sample takes a digit and all but the last a separator, so a
        # header claiming more than the file holds is refused unallocated
        if len(raw) - tok.pos < 2 * count - 1:
            raise ParseError("truncated PNM payload")
        tok.eof = "truncated PNM payload"
        vals = np.empty(count, dtype=np.float64)
        for k in range(count):
            # capped at both ends so a sample too large for a float is rejected below
            vals[k] = min(max(tok.next_int(), -1), maxval + 1)
    else:
        # exactly one whitespace byte separates maxval from the payload
        if tok.pos >= len(raw) or not raw[tok.pos : tok.pos + 1].isspace():
            raise ParseError("missing separator before binary payload")
        payload = raw[tok.pos + 1 :]
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = count * dtype.itemsize
        if len(payload) < need:
            raise ParseError("truncated PNM payload")
        vals = np.frombuffer(payload[:need], dtype=dtype)
    if vals.min() < 0 or vals.max() > maxval:
        raise ParseError(f"PNM sample outside [0, {maxval}]")

    data = (vals / float(maxval)).reshape(height, width, channels)
    return Image(data, RGB if channels == 3 else GRAY)


def quantize8(data: np.ndarray) -> np.ndarray:
    """Samples in [0, 1] as uint8: round(value*255) clamped to [0, 255]."""
    buf = data * 255.0  # rounded and clipped in place: one float64 temporary
    np.rint(buf, out=buf)
    np.clip(buf, 0, 255, out=buf)
    return buf.astype(np.uint8)


def _pnm_bytes(quant: np.ndarray) -> bytes:
    """An (H, W, 1 or 3) uint8 array as binary PGM or PPM bytes, maxval 255."""
    h, w, c = quant.shape
    return b"%s\n%d %d\n255\n" % (b"P5" if c == 1 else b"P6", w, h) + quant.tobytes()


def write_pnm(img: Image, path) -> None:
    """Write a GRAY image as PGM or an RGB image as PPM, binary, maxval 255.

    Samples are quantized by :func:`quantize8`.  LAB images are refused;
    convert or retag first.
    """
    if img.colorspace not in (GRAY, RGB):
        raise WrongColorspace(f"cannot write {img.colorspace} data as PNM")
    data = _pnm_bytes(quantize8(img.data))
    with open(path, "wb") as fh:
        fh.write(data)


def to_gray(img: Image) -> Image:
    """Rec. 709 luma of the stored (gamma-encoded) RGB values."""
    if img.colorspace != RGB:
        raise WrongColorspace("to_gray expects an RGB image")
    luma = img.data @ np.array([0.2126, 0.7152, 0.0722])
    return Image(luma, GRAY)


def _require(params: dict, keys: tuple) -> list:
    missing = [k for k in keys if k not in params]
    if missing:
        raise BadParams(f"missing shape parameters: {', '.join(missing)}")
    vals = [float(params[k]) for k in keys]
    # every comparison with NaN is false, so no bounds check of synth_shape
    # would reject it
    if not np.all(np.isfinite(vals)):
        raise BadParams("shape parameters must be finite")
    return vals


# Synthetic shape kinds and their parameter names, in the order synth_shape
# reads them.
SHAPES = {
    "disk": ("cx", "cy", "r"),
    "rectangle": ("x0", "y0", "x1", "y1"),  # inclusive center bounds
    "annulus": ("cx", "cy", "r_inner", "r_outer"),  # r_inner <= dist < r_outer
    "two_blobs": ("cx1", "cy1", "r1", "cx2", "cy2", "r2"),  # union of two disks
}


def synth_shape(kind: str, width: int, height: int, fg: float, bg: float, params: dict) -> Image:
    """Synthetic grayscale test image with exact indicator geometry.

    Pixel centers strictly inside the shape get value fg, all others bg.
    ``SHAPES`` lists the kinds and the params each one reads.

    Raises
    ------
    BadParams
        On an unknown kind, out-of-range intensities, missing or non-finite
        shape parameters or a shape exceeding the image bounds.
    """
    if width < 1 or height < 1:
        raise BadParams("image dimensions must be positive")
    if not (0.0 <= fg <= 1.0 and 0.0 <= bg <= 1.0):
        raise BadParams("fg and bg must lie in [0, 1]")
    if kind not in SHAPES:
        raise BadParams(f"unknown shape kind {kind!r}")
    vals = _require(params, SHAPES[kind])
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)

    def check_disk(cx, cy, r):
        if r <= 0:
            raise BadParams("radius must be positive")
        if cx - r < -0.5 or cx + r > width - 0.5 or cy - r < -0.5 or cy + r > height - 0.5:
            raise BadParams("disk exceeds image bounds")

    if kind == "disk":
        cx, cy, r = vals
        check_disk(cx, cy, r)
        inside = (xs - cx) ** 2 + (ys - cy) ** 2 < r * r
    elif kind == "rectangle":
        x0, y0, x1, y1 = vals
        if not (0 <= x0 <= x1 <= width - 1 and 0 <= y0 <= y1 <= height - 1):
            raise BadParams("rectangle exceeds image bounds")
        inside = (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
    elif kind == "annulus":
        cx, cy, r_in, r_out = vals
        if not 0 < r_in < r_out:
            raise BadParams("annulus needs 0 < r_inner < r_outer")
        check_disk(cx, cy, r_out)
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        inside = (d2 >= r_in * r_in) & (d2 < r_out * r_out)
    else:  # two_blobs
        cx1, cy1, r1, cx2, cy2, r2 = vals
        check_disk(cx1, cy1, r1)
        check_disk(cx2, cy2, r2)
        inside = ((xs - cx1) ** 2 + (ys - cy1) ** 2 < r1 * r1) | (
            (xs - cx2) ** 2 + (ys - cy2) ** 2 < r2 * r2
        )

    data = np.where(inside, fg, bg)
    return Image(data, GRAY)


def add_gaussian_noise(img: Image, sd_255: float, rng: Rng) -> Image:
    """Additive Gaussian noise with SD given on the 0-255 scale, clamped.

    value' = clamp(value + N(0, sd_255/255), 0, 1), independently per
    sample; identical seeds give bit-identical results.  An SD of 0
    returns a copy; a negative or non-finite SD raises ``BadParams``.
    """
    if not (np.isfinite(sd_255) and sd_255 >= 0):
        raise BadParams("noise SD must be non-negative and finite")
    if sd_255 == 0:
        return Image(img.data.copy(), img.colorspace)
    noise = rng.normals(img.data.size).reshape(img.data.shape) * (sd_255 / 255.0)
    return Image(np.clip(img.data + noise, 0.0, 1.0), img.colorspace)
