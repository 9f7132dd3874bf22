"""Exception types shared across the package."""


class PolysegError(Exception):
    """Base class for all polyseg errors.

    ``partial`` is None unless the evolution loop raised the error after
    its start checks; it then holds the ``SegmentationResult`` accumulated
    before the abort.
    """

    partial = None


class DegeneratePolygon(PolysegError):
    """Polygon is unusable: too few vertices, zero area, or collapsed edges."""


class EmptyRegion(PolysegError):
    """One side of the segmentation (inside or outside) has no pixels.

    Raised by rasterization when the contour encloses no pixel centers, by
    region statistics when either side is empty, and by the evolution loop
    when the contour collapses.
    """


class WrongColorspace(PolysegError):
    """Operation applied to an image in an unsupported colorspace."""


class ParseError(PolysegError):
    """Malformed input file (PNM header/payload or polygon text)."""


class UnsupportedFormat(ParseError):
    """Recognized but unsupported image format (P1/P4 bitmaps, PAM)."""


class BadParams(PolysegError):
    """Invalid synthetic-shape parameters."""
