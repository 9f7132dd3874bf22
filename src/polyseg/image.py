"""Image container and bilinear sampling.

Pixel (row r, col c) has its center at continuous coordinates (x=c, y=r);
polygons live in this same frame.  Samples are floats in [0, 1] per channel.
"""

from dataclasses import dataclass

import numpy as np

GRAY = "gray"
RGB = "rgb"
LAB = "lab"

_CHANNELS = {GRAY: 1, RGB: 3, LAB: 3}


@dataclass(frozen=True)
class Image:
    """A (height, width, channels) float64 raster with a colorspace tag.

    Grayscale images have one channel; RGB and LAB images have three.  LAB
    data is stored rescaled to [0, 1]: L*/100, (a*+128)/255, (b*+128)/255.
    """

    data: np.ndarray
    colorspace: str = GRAY

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim == 2:
            data = data[:, :, None]
        if data.ndim != 3:
            raise ValueError("image data must be (H, W) or (H, W, C)")
        if data.shape[0] == 0 or data.shape[1] == 0:
            raise ValueError(f"image needs at least one row and one column, got {data.shape[:2]}")
        if self.colorspace not in _CHANNELS:
            raise ValueError(f"unknown colorspace {self.colorspace!r}")
        if data.shape[2] != _CHANNELS[self.colorspace]:
            raise ValueError(
                f"{self.colorspace} image needs {_CHANNELS[self.colorspace]} "
                f"channel(s), got {data.shape[2]}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("image samples must be finite")
        object.__setattr__(self, "data", data)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


def _cell(u, n: int):
    """Interpolation cells of coordinates u on an axis of n samples.

    u is clamped onto [0, n-1] first.  Returns (i0, i1, t): the samples on
    either side of each coordinate (i1 = i0 + 1, or i0 itself on a
    one-sample axis) and t = u - i0, the weight of i1.
    """
    u = np.clip(u, 0.0, n - 1.0)
    i0 = np.clip(np.floor(u).astype(np.int64), 0, max(n - 2, 0))
    return i0, np.minimum(i0 + 1, n - 1), u - i0


def bilinear_sample(img: Image, xs, ys) -> np.ndarray:
    """Sample the image at continuous points, clamped at the borders.

    Returns an (npoints, C) array.  Coordinates outside the pixel-center
    frame [0, W-1] x [0, H-1] are clamped onto it before interpolation.
    """
    data = img.data
    h, w = data.shape[:2]
    x0, x1, tx = _cell(np.atleast_1d(np.asarray(xs, dtype=np.float64)), w)
    y0, y1, ty = _cell(np.atleast_1d(np.asarray(ys, dtype=np.float64)), h)
    tx, ty = tx[:, None], ty[:, None]
    top = (1.0 - tx) * data[y0, x0] + tx * data[y0, x1]
    bot = (1.0 - tx) * data[y1, x0] + tx * data[y1, x1]
    return (1.0 - ty) * top + ty * bot
