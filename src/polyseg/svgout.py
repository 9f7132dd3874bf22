"""SVG writers for contour overlays and energy curves.

Overlays are SVG 1.1 documents in pixel-center coordinates (viewBox starts
at -0.5 so pixel (0, 0) spans [-0.5, 0.5]^2) containing one <image> for the
raster background and one <polyline> per curve.  The raster is embedded as
a base64 PPM data URI (:func:`data_uri`) or referenced by path.
"""

import base64

import numpy as np

from .evolve import TraceRow
from .geometry import Polygon
from .image import GRAY, Image
from .imageio import _pnm_bytes, quantize8


def _points_attr(p: Polygon) -> str:
    pts = np.concatenate([p.points, p.points[:1]], axis=0)
    return " ".join(f"{x:.6g},{y:.6g}" for x, y in pts)


def data_uri(img: Image) -> str:
    """The raster as a base64 PPM data URI, for the href of its overlays.

    Gray samples are copied into three channels, so every raster is a PPM.
    """
    quant = quantize8(img.data)
    if img.colorspace == GRAY:
        quant = np.repeat(quant, 3, axis=2)
    b64 = base64.b64encode(_pnm_bytes(quant)).decode("ascii")
    return f"data:image/x-portable-pixmap;base64,{b64}"


def overlay_svg(img: Image, curves: list, href: str) -> str:
    """Overlay document: the raster plus (polygon, color, width) curves.

    href links the raster: a path, or ``data_uri(img)``, which one caller
    can encode once for several overlays of the same image.
    """
    w, h = img.width, img.height
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'xmlns:xlink="http://www.w3.org/1999/xlink" '
        f'width="{w}" height="{h}" viewBox="-0.5 -0.5 {w} {h}">',
        f'<image x="-0.5" y="-0.5" width="{w}" height="{h}" '
        f'preserveAspectRatio="none" image-rendering="pixelated" '
        f'xlink:href="{href}"/>',
    ]
    for poly, color, width in curves:
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
            f'points="{_points_attr(poly)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def energy_svg(trace: list[TraceRow]) -> str:
    """Energy curves over iterations: total red, e1 black, e2 green, e3 blue."""
    width, height, margin = 640, 420, 45.0
    series = [
        ("red", [r.total for r in trace]),
        ("black", [r.e1 for r in trace]),
        ("green", [r.e2 for r in trace]),
        ("blue", [r.e3 for r in trace]),
    ]
    n = len(trace)
    lo = min(min(vals) for _, vals in series)
    hi = max(max(vals) for _, vals in series)
    span = hi - lo if hi > lo else 1.0

    def sx(i):
        return margin + (width - 2 * margin) * (i / max(n - 1, 1))

    def sy(v):
        return height - margin - (height - 2 * margin) * ((v - lo) / span)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#444" stroke-width="1"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="#444" stroke-width="1"/>',
        f'<text x="{width - margin}" y="{height - margin + 16}" font-size="11" '
        f'text-anchor="end">iteration {n - 1}</text>',
        f'<text x="{margin - 4}" y="{margin}" font-size="11" '
        f'text-anchor="end">{hi:.4g}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" font-size="11" '
        f'text-anchor="end">{lo:.4g}</text>',
    ]
    for color, vals in series:
        pts = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(vals))
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
