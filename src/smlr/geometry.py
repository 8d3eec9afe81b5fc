"""Vectorized geometric predicates for workspace collision checking.

Each predicate is one elementwise kernel that broadcasts over leading axes,
so one call tests whole batches of points, segments and obstacles; the
collision world calls them on gathered (point or segment, obstacle) pairs.
Obstacles are discs, axis-aligned boxes and simple (possibly
non-convex) polygons; polygons are stored CCW.
"""

from __future__ import annotations

import numpy as np


def finite_array(name, values) -> np.ndarray:
    """values as a float array; a NaN or inf entry, which would pass every
    comparison it should fail, raises a ValueError naming name."""
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite, got {v.tolist()}")
    return v


def polygon_area(vertices: np.ndarray) -> float:
    """Signed area; positive for CCW orientation."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# -- elementwise kernels: coordinates on the last axis ------------------------


def _norm(x) -> np.ndarray:
    """Euclidean norm over the last axis: the float operations that
    np.linalg.norm(x, axis=-1) runs on real input, without its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


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


def _point_segment_sq(p, a, b) -> np.ndarray:
    """Squared distance from p to the segment a-b."""
    d = b - a
    dd = np.add.reduce(d * d, axis=-1)
    ap = p - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.add.reduce(ap * d, axis=-1) / dd
    t = np.where(dd == 0.0, 0.0, t)
    t = np.clip(t, 0.0, 1.0)
    off = p - (a + t[..., None] * d)
    return np.add.reduce(off * off, axis=-1)


def point_segment_dist(p, a, b) -> np.ndarray:
    """Distance from p to the segment a-b."""
    return np.sqrt(_point_segment_sq(p, a, b))


def _cross(e, w):
    """z of the cross product of the edge vector e and w, the vector from
    the edge's start to a point: (p - o) x (q - o) for e = p - o and
    w = q - o."""
    return e[..., 0] * w[..., 1] - e[..., 1] * w[..., 0]


def _in_box(q, lo, hi):
    """Whether the planar point q lies in the box [lo, hi]."""
    inside = (lo <= q) & (q <= hi)
    return inside[..., 0] & inside[..., 1]


def segment_crossing(a0, a1, b0, b1) -> np.ndarray:
    """Whether segment a0-a1 meets segment b0-b1, properly or touching
    within 1e-12."""
    ea, eb = a1 - a0, b1 - b0
    d1 = _cross(eb, a0 - b0)
    d2 = _cross(eb, a1 - b0)
    d3 = _cross(ea, b0 - a0)
    d4 = _cross(ea, b1 - a0)
    # a crossing also needs the boxes to meet: when all four points are
    # collinear, rounding gives the cross products arbitrary signs
    a_lo, a_hi = np.minimum(a0, a1), np.maximum(a0, a1)
    b_lo, b_hi = np.minimum(b0, b1), np.maximum(b0, b1)
    meet = (a_lo <= b_hi) & (b_lo <= a_hi)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & \
        meet[..., 0] & meet[..., 1]
    # a touch: an endpoint within 1e-12 of the other segment's line (its
    # cross product) and of its box.  Most batches have no cross product
    # that small, and then no pair touches.
    n1, n2, n3, n4 = (np.abs(c) <= 1e-12 for c in (d1, d2, d3, d4))
    if not (n1 | n2 | n3 | n4).any():
        return proper
    a_lo, a_hi = a_lo - 1e-12, a_hi + 1e-12
    b_lo, b_hi = b_lo - 1e-12, b_hi + 1e-12
    touch = (n1 & _in_box(a0, b_lo, b_hi)) | (n2 & _in_box(a1, b_lo, b_hi)) \
        | (n3 & _in_box(b0, a_lo, a_hi)) | (n4 & _in_box(b1, a_lo, a_hi))
    return proper | touch


def segment_segment_dist(a0, a1, b0, b1) -> np.ndarray:
    """Distance between segments a0-a1 and b0-b1: 0 where they meet, else
    the least distance from an endpoint of one to the other.  The square
    root is taken of the least squared distance only; sqrt is monotone, so
    that is the least distance bit for bit."""
    sq = np.minimum(np.minimum(_point_segment_sq(a0, b0, b1),
                               _point_segment_sq(a1, b0, b1)),
                    np.minimum(_point_segment_sq(b0, a0, a1),
                               _point_segment_sq(b1, a0, a1)))
    return np.where(segment_crossing(a0, a1, b0, b1), 0.0, np.sqrt(sq))


def box_near(p, lo, hi, margin: float) -> np.ndarray:
    """Whether the signed distance from p to the box [lo, hi] is <= margin,
    for a margin >= 0, from the floats the verdict needs: closed
    containment lo <= p <= hi at margin 0, the distance outside the box
    against the margin above it.  (A distance outside the box below
    1e-154 squares to 0, so a point that close counts as near at any
    positive margin.)"""
    if margin == 0:
        return ((lo <= p) & (p <= hi)).all(axis=-1)
    outside = np.maximum(np.maximum(lo - p, p - hi), 0.0)
    return _norm(outside) <= margin


def disc_signed_distance(p, center, radius) -> np.ndarray:
    """Signed distance from p to the disc (ball) of the given radius."""
    return _norm(p - center) - radius


def polygon_signed_distance(dist, odd) -> np.ndarray:
    """Signed distance to a polygon from a point's distance to its boundary
    and the parity of its ray crossings: negative inside, and a point
    within 1e-12 of the boundary counts as inside."""
    return np.where(odd | (dist <= 1e-12), -dist, dist)


class Obstacle:
    """Static workspace obstacle, tested through the compiled
    CollisionWorld."""

    def boundary_segments(self):
        """(seg_a, seg_b) arrays for edge-based tests; None for discs."""
        return None

    def bounding_box(self):
        """(lo, hi) corners of the axis-aligned box that holds the
        obstacle."""
        raise NotImplementedError


class Disc(Obstacle):
    def __init__(self, center, radius: float):
        if not 0 < radius < np.inf:
            raise ValueError("disc radius must be positive and finite")
        self.center = finite_array("disc center", center)
        self.radius = float(radius)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


class Box(Obstacle):
    """Axis-aligned box; works in any dimension."""

    def __init__(self, lo, hi):
        self.lo = finite_array("box lo", lo)
        self.hi = finite_array("box hi", hi)
        if np.any(self.lo >= self.hi):
            raise ValueError("box lo must be strictly below hi componentwise")

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
        v = finite_array("polygon vertices", vertices)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise ValueError("polygon needs >= 3 planar vertices")
        area = polygon_area(v)
        if abs(area) < 1e-12:
            raise ValueError("polygon vertices are collinear")
        if area < 0:
            raise ValueError("polygon vertices must be ordered CCW")
        self.vertices = v

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def boundary_segments(self):
        a = self.vertices
        return a, np.roll(a, -1, axis=0)
