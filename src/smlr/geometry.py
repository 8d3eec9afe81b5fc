"""Vectorized geometric predicates for workspace collision checking.

All point arguments are numpy arrays of shape (m, d); predicates return
per-row results so motion checks can evaluate a whole discretized segment in
one call.  Obstacles are discs, axis-aligned boxes and simple (possibly
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


def polygons_contain(polygons, pts) -> np.ndarray:
    """Even-odd containment of points (p, 2) in each of m polygons
    (m, nv, 2) -> (m, p); a point on an edge may count either way."""
    a = polygons
    b = np.roll(polygons, -1, axis=1)
    x = pts[None, :, None, 0]
    y = pts[None, :, None, 1]
    ax, ay = a[:, None, :, 0], a[:, None, :, 1]
    bx, by = b[:, None, :, 0], b[:, None, :, 1]
    cond = (ay > y) != (by > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = ax + (y - ay) * (bx - ax) / (by - ay)
    crossings = np.sum(cond & (x < xint), axis=2)
    return (crossings % 2) == 1


def points_in_polygon(pts, vertices) -> np.ndarray:
    """Even-odd rule containment test, boundary counts as inside."""
    pts = _as_points(pts)
    v = np.asarray(vertices, dtype=float)
    inside = polygons_contain(v[None], pts)[0]
    # boundary: distance to any edge ~ 0
    on_edge = points_to_segments_dist(pts, v, np.roll(v, -1, axis=0)) \
        .min(axis=1) <= 1e-12
    return inside | on_edge


def points_to_segments_dist(pts, seg_a, seg_b) -> np.ndarray:
    """Distance matrix (m, k) from m points to k segments."""
    pts = _as_points(pts)
    a = np.asarray(seg_a, dtype=float)
    b = np.asarray(seg_b, dtype=float)
    d = b - a                                     # (k, 2)
    dd = np.sum(d * d, axis=1)                    # (k,)
    ap = pts[:, None, :] - a[None, :, :]          # (m, k, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.sum(ap * d[None, :, :], axis=2) / dd[None, :]
    t = np.where(dd[None, :] == 0.0, 0.0, t)
    t = np.clip(t, 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.linalg.norm(pts[:, None, :] - closest, axis=2)


def segments_intersect(a0, a1, b0, b1) -> np.ndarray:
    """Pairwise proper-or-touching intersection of segment batches.

    a0, a1: (m, 2); b0, b1: (k, 2); returns (m, k) booleans.
    """
    a0 = np.asarray(a0, float)[:, None, :]
    a1 = np.asarray(a1, float)[:, None, :]
    b0 = np.asarray(b0, float)[None, :, :]
    b1 = np.asarray(b1, float)[None, :, :]

    def cross(o, p, q):
        return ((p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1])
                - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0]))

    d1 = cross(b0, b1, a0)
    d2 = cross(b0, b1, a1)
    d3 = cross(a0, a1, b0)
    d4 = cross(a0, a1, b1)
    # a crossing also needs the boxes to meet: when all four points are
    # collinear, rounding gives the cross products arbitrary signs
    a_lo, a_hi = np.minimum(a0, a1), np.maximum(a0, a1)
    b_lo, b_hi = np.minimum(b0, b1), np.maximum(b0, b1)
    boxes_meet = (a_lo[..., 0] <= b_hi[..., 0]) & \
        (b_lo[..., 0] <= a_hi[..., 0]) & \
        (a_lo[..., 1] <= b_hi[..., 1]) & (b_lo[..., 1] <= a_hi[..., 1])
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & boxes_meet

    def on_seg(o, p, q, c):
        return (np.abs(c) <= 1e-12) & \
            (q[..., 0] >= np.minimum(o[..., 0], p[..., 0]) - 1e-12) & \
            (q[..., 0] <= np.maximum(o[..., 0], p[..., 0]) + 1e-12) & \
            (q[..., 1] >= np.minimum(o[..., 1], p[..., 1]) - 1e-12) & \
            (q[..., 1] <= np.maximum(o[..., 1], p[..., 1]) + 1e-12)

    touch = (on_seg(b0, b1, a0, d1) | on_seg(b0, b1, a1, d2)
             | on_seg(a0, a1, b0, d3) | on_seg(a0, a1, b1, d4))
    return proper | touch


def segments_to_segments_dist(a0, a1, b0, b1) -> np.ndarray:
    """Distance matrix (m, k) between segment batches (0 on intersection)."""
    inter = segments_intersect(a0, a1, b0, b1)
    d = np.minimum(
        np.minimum(points_to_segments_dist(a0, b0, b1),
                   points_to_segments_dist(a1, b0, b1)),
        np.minimum(points_to_segments_dist(b0, a0, a1).T,
                   points_to_segments_dist(b1, a0, a1).T))
    return np.where(inter, 0.0, d)


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
        pts = _as_points(pts)
        return np.linalg.norm(pts - self.center, axis=1) - self.radius

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
        pts = _as_points(pts)
        outside = np.maximum(np.maximum(self.lo - pts, pts - self.hi), 0.0)
        dist_out = np.linalg.norm(outside, axis=1)
        inside_margin = np.minimum(pts - self.lo, self.hi - pts).min(axis=1)
        return np.where(dist_out > 0, dist_out, -inside_margin)

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
        a = self.vertices
        b = np.roll(a, -1, axis=0)
        d = points_to_segments_dist(pts, a, b).min(axis=1)
        inside = points_in_polygon(pts, a)
        return np.where(inside, -d, d)

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def boundary_segments(self):
        a = self.vertices
        return a, np.roll(a, -1, axis=0)
