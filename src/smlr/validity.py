"""Per-level constraint checking: robot models, state and motion validity.

A :class:`LevelValidity` owns the robot geometry of one abstraction level and
the shared obstacle list, compiled once into a :class:`CollisionWorld` of
stacked arrays.  All checks are vectorized over batches of states and over
obstacles, so the discretized motions from one state to many others are
validated in a single numpy pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (Box, Disc, points_to_segments_dist,
                       segments_intersect, segments_to_segments_dist)
from .spaces import StateSpace

# States tested per collision pass: bounds the (states x obstacle edges)
# temporaries on the grid oracle's batches of 1e4-1e5 states.
CHUNK_STATES = 1024


class CollisionWorld:
    """An obstacle list compiled into stacked arrays for one-pass tests.

    Boxes are stacked into (nb, d) lo/hi arrays, discs into centres and
    radii, and every obstacle's boundary segments (2-D boxes and polygons)
    into one (ns, 2) pair.  Other obstacles (polygons) keep their own signed
    distance field and are tested in a short loop.  Each test uses the same
    float operations as the obstacle's own predicate, so results are
    bit-identical to testing the obstacles one by one.
    """

    def __init__(self, obstacles):
        boxes = [o for o in obstacles if isinstance(o, Box)]
        discs = [o for o in obstacles if isinstance(o, Disc)]
        self.others = [o for o in obstacles
                       if not isinstance(o, (Box, Disc))]
        for kind, dims in (("box", {len(b.lo) for b in boxes}),
                           ("disc", {len(d.center) for d in discs})):
            if len(dims) > 1:
                raise ValueError(f"{kind} obstacles mix dimensions "
                                 f"{sorted(dims)}")
        self.has_boxes = bool(boxes)
        if boxes:
            self.box_lo = np.stack([b.lo for b in boxes])
            self.box_hi = np.stack([b.hi for b in boxes])
        self.has_discs = bool(discs)
        if discs:
            self.disc_centers = np.stack([d.center for d in discs])
            self.disc_radii = np.array([d.radius for d in discs])
        segs = [s for s in (o.boundary_segments() for o in obstacles)
                if s is not None]
        self.has_segments = bool(segs)
        if segs:
            self.seg_a = np.concatenate([a for a, _ in segs])
            self.seg_b = np.concatenate([b for _, b in segs])
        self.empty = not obstacles

    def near_points(self, pts, margin: float, discs: bool = True):
        """Rows of pts whose signed distance to some obstacle is <= margin
        (discs skipped when discs is False) -> (m,) bool."""
        hit = np.zeros(len(pts), dtype=bool)
        p = pts[:, None, :]
        if self.has_boxes:
            lo, hi = self.box_lo, self.box_hi
            outside = np.maximum(np.maximum(lo - p, p - hi), 0.0)
            dist_out = np.linalg.norm(outside, axis=2)
            inside_margin = np.minimum(p - lo, hi - p).min(axis=2)
            sd = np.where(dist_out > 0, dist_out, -inside_margin)
            hit |= (sd <= margin).any(axis=1)
        if discs and self.has_discs:
            sd = np.linalg.norm(p - self.disc_centers, axis=2) \
                - self.disc_radii
            hit |= (sd <= margin).any(axis=1)
        for o in self.others:
            hit |= o.signed_distance(pts) <= margin
        return hit


# -- posed-polygon helpers (robot polygon differs per state) ----------------

def _posed_vertices(local_vertices, xy, theta):
    """Rigid transform of local vertices for m poses -> (m, nv, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    vx, vy = local_vertices[:, 0], local_vertices[:, 1]
    px = c[:, None] * vx[None, :] - s[:, None] * vy[None, :] + xy[:, 0:1]
    py = s[:, None] * vx[None, :] + c[:, None] * vy[None, :] + xy[:, 1:2]
    return np.stack([px, py], axis=-1)


def _posed_contains(verts, points):
    """Even-odd containment of fixed points in per-pose polygons -> (m, p)."""
    a = verts                                  # (m, nv, 2)
    b = np.roll(verts, -1, axis=1)
    x = points[None, :, None, 0]
    y = points[None, :, None, 1]
    ax, ay = a[:, None, :, 0], a[:, None, :, 1]
    bx, by = b[:, None, :, 0], b[:, None, :, 1]
    cond = (ay > y) != (by > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = ax + (y - ay) * (bx - ax) / (by - ay)
    crossings = np.sum(cond & (x < xint), axis=2)
    return (crossings % 2) == 1


def _posed_edges_point_dist(verts, points):
    """Min distance from fixed points to each pose's polygon edges
    -> (m, p)."""
    a = verts[:, None, :, :]                   # (m, 1, nv, 2)
    d = np.roll(verts, -1, axis=1)[:, None, :, :] - a
    dd = np.sum(d * d, axis=3)
    pt = points[None, :, None, :]              # (1, p, 1, 2)
    ap = pt - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.sum(ap * d, axis=3) / dd
    t = np.where(dd == 0.0, 0.0, np.clip(t, 0.0, 1.0))
    closest = a + t[..., None] * d
    return np.linalg.norm(pt - closest, axis=3).min(axis=2)


# -- robot models ------------------------------------------------------------

class RobotModel:
    """Maps level states to workspace geometry and tests obstacle overlap."""

    def collides(self, coords: np.ndarray,
                 world: CollisionWorld) -> np.ndarray:
        """Rows of coords whose posed robot overlaps any obstacle of world;
        the robot is posed once for the whole batch -> (m,) bool."""
        raise NotImplementedError

    def in_workspace(self, coords, lo, hi) -> np.ndarray:
        raise NotImplementedError


@dataclass
class PointRobot(RobotModel):
    position_indices: tuple = (0, 1)

    def _pos(self, coords):
        return coords[:, list(self.position_indices)]

    def collides(self, coords, world):
        return world.near_points(self._pos(coords), 0.0)

    def in_workspace(self, coords, lo, hi):
        p = self._pos(coords)
        return np.all((p >= lo) & (p <= hi), axis=1)


@dataclass
class DiscRobot(RobotModel):
    radius: float = 0.05
    position_indices: tuple = (0, 1)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disc robot radius must be positive")

    def _pos(self, coords):
        return coords[:, list(self.position_indices)]

    def collides(self, coords, world):
        return world.near_points(self._pos(coords), self.radius)

    def in_workspace(self, coords, lo, hi):
        p = self._pos(coords)
        return np.all((p >= lo + self.radius) & (p <= hi - self.radius),
                      axis=1)


@dataclass
class PolygonRobot(RobotModel):
    """Rigid (possibly non-convex) polygon posed by (x, y, theta) coords."""

    vertices: np.ndarray = None
    pose_indices: tuple = (0, 1, 2)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[0] < 3:
            raise ValueError("polygon robot needs >= 3 vertices")

    def _verts(self, coords):
        i, j, k = self.pose_indices
        xy = coords[:, [i, j]]
        theta = coords[:, k]
        return _posed_vertices(self.vertices, xy, theta)

    def collides(self, coords, world):
        verts = self._verts(coords)
        m, nv, _ = verts.shape
        flat = verts.reshape(m * nv, 2)
        hit = world.near_points(flat, 0.0).reshape(m, nv).any(axis=1)
        if world.has_discs:
            c = world.disc_centers
            hit |= _posed_contains(verts, c).any(axis=1)
            hit |= (_posed_edges_point_dist(verts, c)
                    <= world.disc_radii).any(axis=1)
        if world.has_segments:
            hit |= _posed_contains(verts, world.seg_a).any(axis=1)
            rb = np.roll(verts, -1, axis=1).reshape(m * nv, 2)
            hit |= segments_intersect(flat, rb, world.seg_a, world.seg_b) \
                .reshape(m, -1).any(axis=1)
        return hit

    def in_workspace(self, coords, lo, hi):
        verts = self._verts(coords)
        return np.all((verts >= lo) & (verts <= hi), axis=(1, 2))


@dataclass
class ChainRobot(RobotModel):
    """Planar kinematic chain: base position plus relative joint angles.

    Links are capsules of half-width link_radius; self-collision is ignored.
    """

    link_lengths: tuple = (0.1, 0.1)
    link_radius: float = 0.01
    base_indices: tuple = (0, 1)
    angle_indices: tuple = (2, 3)

    def __post_init__(self):
        if len(self.angle_indices) != len(self.link_lengths):
            raise ValueError("one joint angle per link required")
        if self.link_radius <= 0 or any(l <= 0 for l in self.link_lengths):
            raise ValueError("link geometry must be positive")

    def joints(self, coords):
        """Joint positions including the base -> (m, L+1, 2)."""
        base = coords[:, list(self.base_indices)]
        angles = np.cumsum(coords[:, list(self.angle_indices)], axis=1)
        lengths = np.asarray(self.link_lengths, dtype=float)
        steps = lengths[None, :, None] * np.stack(
            [np.cos(angles), np.sin(angles)], axis=-1)
        pts = np.concatenate([base[:, None, :],
                              base[:, None, :] + np.cumsum(steps, axis=1)],
                             axis=1)
        return pts

    def _links(self, coords):
        j = self.joints(coords)
        return j[:, :-1, :], j[:, 1:, :]

    def collides(self, coords, world):
        a, b = self._links(coords)
        m, L, _ = a.shape
        fa, fb = a.reshape(m * L, 2), b.reshape(m * L, 2)
        r = self.link_radius
        hit = (world.near_points(fa, r, discs=False)
               | world.near_points(fb, r, discs=False)) \
            .reshape(m, L).any(axis=1)
        if world.has_discs:
            d = points_to_segments_dist(world.disc_centers, fa, fb)
            d = d.reshape(-1, m, L).min(axis=2)
            hit |= (d <= (world.disc_radii + r)[:, None]).any(axis=0)
        if world.has_segments:
            d = segments_to_segments_dist(fa, fb, world.seg_a, world.seg_b)
            hit |= (d.reshape(m, -1) <= r).any(axis=1)
        return hit

    def in_workspace(self, coords, lo, hi):
        j = self.joints(coords)
        r = self.link_radius
        return np.all((j >= lo + r) & (j <= hi - r), axis=(1, 2))


# -- level validity ----------------------------------------------------------

@dataclass(frozen=True)
class LevelValidity:
    """Constraint function of one level: robot + shared obstacles.

    check_resolution is the motion discretization step as a fraction of the
    space's max extent.  The obstacles are compiled into a CollisionWorld at
    construction, so the object is frozen: derive a variant with
    dataclasses.replace.
    """

    space: StateSpace
    robot: RobotModel
    obstacles: list = field(default_factory=list)
    workspace_lo: np.ndarray | None = None
    workspace_hi: np.ndarray | None = None
    check_resolution: float = 0.01

    def __post_init__(self):
        if not 0 < self.check_resolution <= 1:
            raise ValueError("check_resolution must be in (0, 1]")
        object.__setattr__(self, "_extent", self.space.max_extent())
        object.__setattr__(self, "_world", CollisionWorld(self.obstacles))

    def valid_mask(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[None, :]
        ok = np.ones(len(coords), dtype=bool)
        if self.workspace_lo is not None:
            ok &= self.robot.in_workspace(coords, self.workspace_lo,
                                          self.workspace_hi)
        if self._world.empty:
            return ok
        idx = np.flatnonzero(ok)
        for i in range(0, len(idx), CHUNK_STATES):
            part = idx[i:i + CHUNK_STATES]
            ok[part] = ~self.robot.collides(coords[part], self._world)
        return ok

    def is_valid(self, x) -> bool:
        return bool(self.valid_mask(np.asarray(x, dtype=float)[None, :])[0])

    def _steps(self, length: float) -> int:
        """Discretization steps of a straight motion of the given length."""
        step = self.check_resolution * self._extent
        return max(1, int(math.ceil(length / step)))

    def motion_valid(self, a, b) -> bool:
        # not motions_valid(a, [b]): its batch set-up costs more than this
        # on the one-motion checks of path simplification and interfaces
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        svals = np.linspace(0.0, 1.0,
                            self._steps(self.space.distance(a, b)) + 1)
        pts = self.space.interpolate_many(a, b, svals)
        return bool(self.valid_mask(pts).all())

    def motions_valid(self, a, bs) -> list[bool]:
        """motion_valid(a, b) for every row b of bs, with all the motions'
        states checked in one valid_mask call.

        Each motion is discretized into the states motion_valid checks:
        s = k * (1 / n) for k = 0..n with the last value 1.0, the values
        np.linspace(0, 1, n + 1) returns.
        """
        a = np.asarray(a, dtype=float)
        bs = np.asarray(bs, dtype=float)
        if not len(bs):
            return []
        n = np.array([self._steps(d) for d in self.space.distances(a, bs)])
        ends = np.cumsum(n + 1)
        starts = ends - (n + 1)
        rows = np.repeat(np.arange(len(bs)), n + 1)
        svals = (np.arange(ends[-1]) - starts[rows]) * (1.0 / n)[rows]
        svals[ends - 1] = 1.0
        pts = self.space.interpolate_rows(a, bs, rows, svals)
        return np.logical_and.reduceat(self.valid_mask(pts), starts).tolist()
