"""sRGB -> CIELAB conversion.

Color segmentation needs no code of its own: ``shape_gradient`` on a
three-channel ``Image`` sums the per-channel region terms and adds the
curvature term once.  LAB channels are rescaled into [0, 1]
(L*/100, (a*+128)/255, (b*+128)/255) so that variances stay commensurate
with grayscale defaults.
"""

import numpy as np

from .errors import WrongColorspace
from .image import LAB, RGB, Image

# sRGB/D65 linear RGB -> XYZ matrix and the D65 white point (2 degree observer).
_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_D65 = np.array([0.95047, 1.0, 1.08883])


def srgb_to_lab(img: Image) -> Image:
    """Convert an sRGB image to CIELAB, stored rescaled into [0, 1].

    Applies the inverse sRGB gamma, the sRGB/D65 matrix to XYZ, and the CIE
    f(t) nonlinearity with the D65 white point.

    Raises
    ------
    WrongColorspace
        If the input is not tagged RGB.
    """
    if img.colorspace != RGB:
        raise WrongColorspace("srgb_to_lab expects an RGB image")
    u = img.data
    linear = np.where(u <= 0.04045, u / 12.92, ((u + 0.055) / 1.055) ** 2.4)
    xyz = linear @ _RGB_TO_XYZ.T
    t = xyz / _D65
    delta = 6.0 / 29.0
    ft = np.where(t > delta**3, np.cbrt(t), t / (3.0 * delta**2) + 4.0 / 29.0)
    fx, fy, fz = ft[:, :, 0], ft[:, :, 1], ft[:, :, 2]
    lab = np.empty_like(u)
    lab[:, :, 0] = (116.0 * fy - 16.0) / 100.0
    lab[:, :, 1] = (500.0 * (fx - fy) + 128.0) / 255.0
    lab[:, :, 2] = (200.0 * (fy - fz) + 128.0) / 255.0
    return Image(lab, LAB)

