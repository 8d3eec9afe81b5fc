"""Vectorized geometric predicates for workspace collision checking.

Each predicate is one elementwise kernel that broadcasts over leading axes,
so one call tests whole batches of points, segments and obstacles; the
matrix forms (m points or segments against k) are broadcast calls of those
kernels.  Obstacles are discs, axis-aligned boxes and simple (possibly
non-convex) polygons; polygons are stored CCW.
"""

from __future__ import annotations

import numpy as np


def _as_points(pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    return pts


def polygon_area(vertices: np.ndarray) -> float:
    """Signed area; positive for CCW orientation."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# -- elementwise kernels: coordinates on the last axis ------------------------


def edge_crossings(p, a, b) -> np.ndarray:
    """Whether the ray from p in +x crosses the edge a-b, counted the
    even-odd way (half-open in y)."""
    x, y = p[..., 0], p[..., 1]
    ax, ay = a[..., 0], a[..., 1]
    bx, by = b[..., 0], b[..., 1]
    cond = (ay > y) != (by > y)
    # where cond holds, |y - ay| <= |by - ay| bounds xint; elsewhere it is
    # unused and may be inf or nan
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xint = ax + (y - ay) * (bx - ax) / (by - ay)
    return cond & (x < xint)


def point_segment_dist(p, a, b) -> np.ndarray:
    """Distance from p to the segment a-b."""
    d = b - a
    dd = np.sum(d * d, axis=-1)
    ap = p - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.sum(ap * d, axis=-1) / dd
    t = np.where(dd == 0.0, 0.0, t)
    t = np.clip(t, 0.0, 1.0)
    closest = a + t[..., None] * d
    return np.linalg.norm(p - closest, axis=-1)


def _cross(o, p, q):
    return ((p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1])
            - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0]))


def _on_segment(o, p, q, c):
    return (np.abs(c) <= 1e-12) & \
        (q[..., 0] >= np.minimum(o[..., 0], p[..., 0]) - 1e-12) & \
        (q[..., 0] <= np.maximum(o[..., 0], p[..., 0]) + 1e-12) & \
        (q[..., 1] >= np.minimum(o[..., 1], p[..., 1]) - 1e-12) & \
        (q[..., 1] <= np.maximum(o[..., 1], p[..., 1]) + 1e-12)


def segment_crossing(a0, a1, b0, b1) -> np.ndarray:
    """Whether segment a0-a1 meets segment b0-b1, properly or touching
    within 1e-12."""
    d1 = _cross(b0, b1, a0)
    d2 = _cross(b0, b1, a1)
    d3 = _cross(a0, a1, b0)
    d4 = _cross(a0, a1, b1)
    # a crossing also needs the boxes to meet: when all four points are
    # collinear, rounding gives the cross products arbitrary signs
    a_lo, a_hi = np.minimum(a0, a1), np.maximum(a0, a1)
    b_lo, b_hi = np.minimum(b0, b1), np.maximum(b0, b1)
    boxes_meet = (a_lo[..., 0] <= b_hi[..., 0]) & \
        (b_lo[..., 0] <= a_hi[..., 0]) & \
        (a_lo[..., 1] <= b_hi[..., 1]) & (b_lo[..., 1] <= a_hi[..., 1])
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & boxes_meet
    touch = (_on_segment(b0, b1, a0, d1) | _on_segment(b0, b1, a1, d2)
             | _on_segment(a0, a1, b0, d3) | _on_segment(a0, a1, b1, d4))
    return proper | touch


def segment_segment_dist(a0, a1, b0, b1) -> np.ndarray:
    """Distance between segments a0-a1 and b0-b1, 0 where they meet."""
    d = np.minimum(
        np.minimum(point_segment_dist(a0, b0, b1),
                   point_segment_dist(a1, b0, b1)),
        np.minimum(point_segment_dist(b0, a0, a1),
                   point_segment_dist(b1, a0, a1)))
    return np.where(segment_crossing(a0, a1, b0, b1), 0.0, d)


def box_signed_distance(p, lo, hi) -> np.ndarray:
    """Signed distance from p to the box [lo, hi], in any dimension."""
    outside = np.maximum(np.maximum(lo - p, p - hi), 0.0)
    dist_out = np.linalg.norm(outside, axis=-1)
    inside_margin = np.minimum(p - lo, hi - p).min(axis=-1)
    return np.where(dist_out > 0, dist_out, -inside_margin)


def disc_signed_distance(p, center, radius) -> np.ndarray:
    """Signed distance from p to the disc (ball) of the given radius."""
    return np.linalg.norm(p - center, axis=-1) - radius


def polygon_signed_distance(dist, odd) -> np.ndarray:
    """Signed distance to a polygon from a point's distance to its boundary
    and the parity of its ray crossings: negative inside, and a point
    within 1e-12 of the boundary counts as inside."""
    return np.where(odd | (dist <= 1e-12), -dist, dist)


# -- matrix forms ------------------------------------------------------------


def polygons_contain(polygons, pts) -> np.ndarray:
    """Even-odd containment of points (p, 2) in each of m polygons
    (m, nv, 2) -> (m, p); a point on an edge may count either way."""
    a = polygons[:, None]
    b = np.roll(polygons, -1, axis=1)[:, None]
    crossings = np.sum(edge_crossings(pts[None, :, None, :], a, b), axis=2)
    return (crossings % 2) == 1


def points_to_segments_dist(pts, seg_a, seg_b) -> np.ndarray:
    """Distance matrix (m, k) from m points to k segments."""
    pts = _as_points(pts)
    a = np.asarray(seg_a, dtype=float)
    b = np.asarray(seg_b, dtype=float)
    return point_segment_dist(pts[:, None, :], a[None], b[None])


class Obstacle:
    """Static workspace obstacle with a signed distance field for points."""

    def signed_distance(self, pts) -> np.ndarray:
        raise NotImplementedError

    def boundary_segments(self):
        """(seg_a, seg_b) arrays for edge-based tests; None for discs."""
        return None

    def bounding_box(self):
        """(lo, hi) corners of the axis-aligned box that holds the
        obstacle; None when unknown."""
        return None


class Disc(Obstacle):
    def __init__(self, center, radius: float):
        if radius <= 0:
            raise ValueError("disc radius must be positive")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def signed_distance(self, pts) -> np.ndarray:
        return disc_signed_distance(_as_points(pts), self.center,
                                    self.radius)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


class Box(Obstacle):
    """Axis-aligned box; works in any dimension."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if np.any(self.lo >= self.hi):
            raise ValueError("box lo must be strictly below hi componentwise")

    def signed_distance(self, pts) -> np.ndarray:
        return box_signed_distance(_as_points(pts), self.lo, self.hi)

    def bounding_box(self):
        return self.lo, self.hi

    def boundary_segments(self):
        if len(self.lo) != 2:
            return None
        (x0, y0), (x1, y1) = self.lo, self.hi
        v = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
        return v, np.roll(v, -1, axis=0)


class Polygon(Obstacle):
    """Simple CCW polygon (>= 3 non-collinear vertices)."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise ValueError("polygon needs >= 3 planar vertices")
        area = polygon_area(v)
        if abs(area) < 1e-12:
            raise ValueError("polygon vertices are collinear")
        if area < 0:
            raise ValueError("polygon vertices must be ordered CCW")
        self.vertices = v

    def signed_distance(self, pts) -> np.ndarray:
        pts = _as_points(pts)
        a, b = self.boundary_segments()
        d = points_to_segments_dist(pts, a, b).min(axis=1)
        return polygon_signed_distance(d, polygons_contain(a[None], pts)[0])

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def boundary_segments(self):
        a = self.vertices
        return a, np.roll(a, -1, axis=0)
