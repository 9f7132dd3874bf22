"""Polygon representation and discrete differential geometry.

A contour is an explicit closed polygon: an ordered (n, 2) list of (x, y)
vertices with the closing edge implicit.  A :class:`Polygon` keeps the edge
vectors and lengths it validates, and every edge-based quantity here reads
them.  This module provides orientation normalization, area and perimeter,
outward vertex normals, discrete curvature, uniform arc-length resampling,
a simplicity test, and the text file format for polygons.

The simplicity test is the guard that keeps the evolving polygon a valid
boundary.  It runs on every candidate step, so a sort-and-sweep broad phase
hands it only the non-adjacent edge pairs whose bounding boxes overlap:
O(n log n + pairs) work, O(n^2) only when every box overlaps every other.
Triangles have no non-adjacent pairs and are simple by construction.
"""

import numpy as np

from .errors import DegeneratePolygon, ParseError

# Consecutive vertices closer than this are considered coincident.
MIN_EDGE_LEN = 1e-9

# Signed areas below this magnitude are treated as degenerate.
MIN_AREA = 1e-9


class Polygon:
    """Closed polygon given by an ordered (n, 2) float64 vertex array.

    Construction validates the basic invariants: at least 3 vertices, all
    coordinates finite, and no two consecutive vertices coincident (minimum
    edge length 1e-9 px, closing edge included).  Orientation is *not*
    normalized here; use :func:`ensure_ccw`.

    It keeps three read-only arrays: ``points``, ``edges`` (successor minus
    vertex, so ``edges[-1]`` is the closing edge) and their ``lengths``.

    Vertices are (x, y) pairs in the pixel-center frame: pixel (row r,
    col c) of an image has its center at (x=c, y=r).
    """

    __slots__ = ("points", "edges", "lengths")

    def __init__(self, points):
        pts = np.array(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DegeneratePolygon("polygon requires an (n, 2) vertex array")
        if pts.shape[0] < 3:
            raise DegeneratePolygon("polygon requires at least 3 vertices")
        if not np.all(np.isfinite(pts)):
            raise DegeneratePolygon("polygon vertices must be finite")
        edges = np.concatenate((pts[1:], pts[:1])) - pts
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        if np.min(lengths) <= MIN_EDGE_LEN:
            raise DegeneratePolygon("consecutive vertices coincide")
        for arr in (pts, edges, lengths):
            arr.flags.writeable = False
        self.points, self.edges, self.lengths = pts, edges, lengths

    def __len__(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:
        return f"Polygon(n={len(self)})"


def polygon_area(p: Polygon) -> float:
    """Signed shoelace area of the polygon, positive for CCW orientation."""
    x, y = p.points[:, 0], p.points[:, 1]
    xn, yn = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
    return 0.5 * float(np.sum(x * yn - xn * y))


def polygon_perimeter(p: Polygon) -> float:
    """Total edge length of the closed polygon, closing edge included."""
    return float(np.sum(p.lengths))


def ensure_ccw(p: Polygon) -> Polygon:
    """Return the polygon with counter-clockwise (positive area) orientation.

    The vertex set is unchanged; for clockwise input the order is reversed
    while keeping the original first vertex first.

    Raises
    ------
    DegeneratePolygon
        If the signed area magnitude is below 1e-9 (collinear/degenerate).
    """
    a = polygon_area(p)
    if abs(a) < MIN_AREA:
        raise DegeneratePolygon("polygon area is (near) zero")
    if a > 0:
        return p
    pts = p.points
    return Polygon(np.concatenate([pts[:1], pts[1:][::-1]]))


def outward_normals(p: Polygon) -> np.ndarray:
    """Unit outward normal at each vertex of a CCW polygon.

    The normal at vertex i is the central-difference tangent
    v_{i+1} - v_{i-1} rotated by -90 degrees and normalized, which points
    away from the enclosed region at convex vertices.

    Returns an (n, 2) array of unit vectors.

    Raises
    ------
    DegeneratePolygon
        If v_{i+1} == v_{i-1} for some vertex (undefined tangent).
    """
    pts = p.points
    t = np.concatenate((pts[1:], pts[:1])) - np.concatenate((pts[-1:], pts[:-1]))
    norm = np.hypot(t[:, 0], t[:, 1])
    if np.min(norm) < 1e-12:
        raise DegeneratePolygon("neighbors of a vertex coincide")
    n = np.empty_like(t)
    n[:, 0] = t[:, 1] / norm
    n[:, 1] = -t[:, 0] / norm
    return n


def vertex_weights(p: Polygon) -> np.ndarray:
    """Boundary-integral weight per vertex: half the adjacent edge lengths.

    These weights turn per-vertex normal speeds into a midpoint-rule
    quadrature of a boundary integral.
    """
    lengths = p.lengths
    return 0.5 * (lengths + np.concatenate((lengths[-1:], lengths[:-1])))


def discrete_curvature(p: Polygon) -> np.ndarray:
    """Signed curvature (1/px) at each vertex via the circumscribed circle.

    The curvature at vertex i is the inverse circumradius of
    (v_{i-1}, v_i, v_{i+1}), signed positive where the CCW polygon turns
    left (locally convex).  Collinear triples give exactly 0.  The estimate
    is exact on circles: any three cocircular points reproduce 1/r.
    """
    e2, l2 = p.edges, p.lengths
    e1 = np.concatenate((e2[-1:], e2[:-1]))
    chord = e1 + e2
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    denom = np.concatenate((l2[-1:], l2[:-1])) * l2 * np.hypot(chord[:, 0], chord[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(denom > 0.0, 2.0 * cross / denom, 0.0)
    return kappa


def resample_uniform(p: Polygon, n_target: int) -> Polygon:
    """Redistribute vertices uniformly by arc length along the closed curve.

    The first output vertex is anchored at the current first vertex; the
    remaining n_target - 1 vertices are placed at equal arc-length spacing
    along the polyline by linear interpolation.

    Raises
    ------
    DegeneratePolygon
        If n_target < 3.
    """
    if n_target < 3:
        raise DegeneratePolygon("resample target must be at least 3 vertices")
    closed = np.concatenate([p.points, p.points[:1]], axis=0)
    cum = np.concatenate([[0.0], np.cumsum(p.lengths)])
    t = np.arange(n_target) * (cum[-1] / n_target)
    xs = np.interp(t, cum, closed[:, 0])
    ys = np.interp(t, cum, closed[:, 1])
    return Polygon(np.column_stack([xs, ys]))


def is_simple(p: Polygon) -> bool:
    """True iff no two non-adjacent edges intersect (even touching).

    A sort-and-sweep broad phase (Shamos & Hoey, 1976) lists the candidate
    pairs: the edges are sorted by the left end of their bounding box, each
    one is paired with the later edges that start no further right than it
    ends, and pairs whose y-ranges are disjoint or whose edges are adjacent
    (the closing edge and edge 0 included) are dropped.  Both box
    comparisons are inclusive, so boxes that only touch stay candidates.
    A triangle has only adjacent pairs, so it is simple by construction.

    The narrow phase evaluates ``cross(v_j, v_{j+1}, v_k)``, the side of
    edge j's line that vertex k lies on, for the four vertex-against-edge
    orientations of each candidate pair.  Edges i and j cross properly iff
    each one's endpoints lie strictly on opposite sides of the other's line;
    a vertex touches edge j iff it is collinear with it and inside its
    bounding box (no vertex of a non-adjacent pair is an endpoint of the
    other edge).  When edge i+1 folds back along edge i, v_{i+2} lies on
    edge i or v_i on edge i+1, and edge i+2 or edge i-1, which that vertex
    starts or ends, is not adjacent to it.  Pairs with disjoint boxes cannot
    intersect and are never evaluated; an all-pairs test with these
    predicates can report a crossing for such a pair when rounding meets
    nearly collinear vertices, this one cannot.

    Cost is O(n log n + pairs) time and memory, O(n^2) when every box
    overlaps every other.
    """
    n = len(p)
    pts, edge = p.points, p.edges
    x, y = pts[:, 0], pts[:, 1]
    nxt = np.concatenate((pts[1:], pts[:1]))
    lo, hi = np.minimum(pts, nxt), np.maximum(pts, nxt)
    order = np.argsort(lo[:, 0], kind="stable")
    ends = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    # sorted edge s pairs with sorted edges s+1 .. ends[s]-1
    counts = ends - np.arange(1, n + 1)
    a = np.repeat(np.arange(n), counts)
    b = a + 1 + (np.arange(a.size) - np.repeat(np.cumsum(counts) - counts, counts))
    a, b = order[a], order[b]
    keep = (lo[a, 1] <= hi[b, 1]) & (lo[b, 1] <= hi[a, 1])
    keep &= ((b - a) % n != 1) & ((a - b) % n != 1)
    a, b = a[keep], b[keep]
    a1, b1 = (a + 1) % n, (b + 1) % n
    # vertex k against edge j: a's endpoints against b, then b's against a
    k = np.concatenate((a, a1, b, b1))
    j = np.concatenate((b, b, a, a))
    orient = (y[k] - y[j]) * edge[j, 0] - (x[k] - x[j]) * edge[j, 1]
    m = a.size
    a_across_b = orient[:m] * orient[m : 2 * m] < 0
    b_across_a = orient[2 * m : 3 * m] * orient[3 * m :] < 0
    if np.any(a_across_b & b_across_a):
        return False
    zero = orient == 0
    k, j = k[zero], j[zero]
    return not bool(np.any(((lo[j] <= pts[k]) & (pts[k] <= hi[j])).all(axis=1)))


def read_polygon(path) -> Polygon:
    """Read a polygon from text: one "x y" pair per line, '#' lines ignored."""
    pts = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'x y'")
            try:
                pts.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad coordinate") from exc
    if len(pts) < 3:
        raise DegeneratePolygon(f"{path}: fewer than 3 vertices")
    return Polygon(pts)


def write_polygon(p: Polygon, path) -> None:
    """Write the polygon in the text format read by :func:`read_polygon`."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for x, y in p.points:
            fh.write(f"{x:.12g} {y:.12g}\n")
