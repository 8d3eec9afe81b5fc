"""Per-level constraint checking: robot models, state and motion validity.

A :class:`LevelValidity` owns the robot geometry of one abstraction level and
the shared obstacle list, compiled once into a :class:`CollisionWorld` of
stacked arrays.  All checks are vectorized over batches of states and over
obstacles, so the discretized motions from one state to many others are
validated in a single numpy pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (Box, Disc, points_to_segments_dist, polygons_contain,
                       segments_intersect, segments_to_segments_dist)
from .spaces import StateSpace

# States tested per collision pass: bounds the (states x obstacle edges)
# temporaries on the grid oracle's batches of 1e4-1e5 states.
CHUNK_STATES = 1024

# Motion states worth one extra valid_mask call in LevelValidity.visibility.
# On the shipped polygon and chain worlds a valid sample checked on its own
# costs 60-100 us, as much as 5-30 of the motion states (3-12 us each) an
# invalid sample wastes in a fused call (2-vCPU Xeon VM, with the broad
# phase; 0.4-0.47 ms and 12-20 us before it).  The value predates the broad
# phase and is kept: it decides which states are checked, so a new value
# has to win paired benchmark runs first.
CALL_STATES = 32

# Widening of each obstacle's bounding box in the broad phase, far above the
# 1e-12 touch tolerance of segments_intersect and points_in_polygon and the
# rounding of the exact tests, so a pose they find touching is a candidate.
BOX_MARGIN = 1e-9


class CollisionWorld:
    """An obstacle list compiled into stacked arrays for one-pass tests.

    Boxes are stacked into (nb, d) lo/hi arrays, discs into centres and
    radii, and every obstacle's boundary segments (2-D boxes and polygons)
    into one (ns, 2) pair.  Other obstacles (polygons) keep their own signed
    distance field and are tested in a short loop.  Each test uses the same
    float operations as the obstacle's own predicate, so results are
    bit-identical to testing the obstacles one by one.

    When every obstacle is planar, their bounding boxes widened by
    BOX_MARGIN are stacked too (aabb_lo, aabb_hi), and the polygon and chain
    robots run their exact test only on the poses whose box meets one
    (broad_phase).
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
        bounds = [o.bounding_box() for o in obstacles]
        self.has_aabbs = not self.empty and all(
            b is not None and len(b[0]) == 2 for b in bounds)
        if self.has_aabbs:
            self.aabb_lo = np.stack([lo for lo, _ in bounds]) - BOX_MARGIN
            self.aabb_hi = np.stack([hi for _, hi in bounds]) + BOX_MARGIN

    def broad_phase(self, lo, hi):
        """Rows whose planar box [lo[i], hi[i]] meets some obstacle's
        widened box, the only rows that can collide -> (m,) bool; every
        row when the world has no boxes."""
        if not self.has_aabbs:
            return np.ones(len(lo), dtype=bool)
        meets = (lo[:, None, :] <= self.aabb_hi) & \
            (hi[:, None, :] >= self.aabb_lo)
        return meets.all(axis=2).any(axis=1)

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


# -- robot models ------------------------------------------------------------

def _posed_vertices(local_vertices, xy, theta):
    """Rigid transform of local vertices for m poses -> (m, nv, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    vx, vy = local_vertices[:, 0], local_vertices[:, 1]
    px = c[:, None] * vx[None, :] - s[:, None] * vy[None, :] + xy[:, 0:1]
    py = s[:, None] * vx[None, :] + c[:, None] * vy[None, :] + xy[:, 1:2]
    return np.stack([px, py], axis=-1)


def _in_workspace(body_lo, body_hi, lo, hi, r):
    """Rows whose box [body_lo, body_hi], widened by r, lies inside the
    workspace [lo, hi]; every row when there is none -> (m,) bool."""
    if lo is None:
        return np.ones(len(body_lo), dtype=bool)
    return np.all((body_lo >= lo + r) & (body_hi <= hi - r), axis=1)


def _valid_body(body, r, world, lo, hi, collides):
    """Validity of posed bodies (m, k, 2) whose points are widened by r:
    the workspace test and the broad phase share each pose's box, and the
    exact collides(body[rows], world) runs only on the rows both pass."""
    body_lo, body_hi = body.min(axis=1), body.max(axis=1)
    ok = _in_workspace(body_lo, body_hi, lo, hi, r)
    rows = np.flatnonzero(ok & world.broad_phase(body_lo - r, body_hi + r))
    if len(rows):
        ok[rows] = ~collides(body[rows], world)
    return ok


class RobotModel:
    """Maps level states to workspace geometry and tests its validity."""

    def valid(self, coords: np.ndarray, world: CollisionWorld,
              lo: np.ndarray | None, hi: np.ndarray | None) -> np.ndarray:
        """Rows of coords whose posed robot lies inside the workspace box
        [lo, hi] (any pose when lo is None) and overlaps no obstacle of
        world; the robot is posed once for the whole batch -> (m,) bool."""
        raise NotImplementedError


@dataclass
class PointRobot(RobotModel):
    position_indices: tuple = (0, 1)
    # a point is a disc of radius 0: a class attribute, not a field, so
    # PointRobot's one positional field stays position_indices
    radius = 0.0

    def _pos(self, coords):
        return coords[:, list(self.position_indices)]

    def valid(self, coords, world, lo, hi):
        # every row, not only those inside the workspace: a row gather
        # costs about as much as the obstacle test it would save
        p = self._pos(coords)
        return _in_workspace(p, p, lo, hi, self.radius) & \
            ~world.near_points(p, self.radius)


@dataclass
class DiscRobot(PointRobot):
    radius: float = 0.05
    position_indices: tuple = (0, 1)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disc robot radius must be positive")


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

    def valid(self, coords, world, lo, hi):
        return _valid_body(self._verts(coords), 0.0, world, lo, hi,
                           self._collides)

    @staticmethod
    def _collides(verts, world):
        m, nv, _ = verts.shape
        flat = verts.reshape(m * nv, 2)
        rb = np.roll(verts, -1, axis=1).reshape(m * nv, 2)
        hit = world.near_points(flat, 0.0).reshape(m, nv).any(axis=1)
        if world.has_discs:
            c = world.disc_centers
            hit |= polygons_contain(verts, c).any(axis=1)
            d = points_to_segments_dist(c, flat, rb)
            d = d.reshape(-1, m, nv).min(axis=2)
            hit |= (d <= world.disc_radii[:, None]).any(axis=0)
        if world.has_segments:
            hit |= polygons_contain(verts, world.seg_a).any(axis=1)
            hit |= segments_intersect(flat, rb, world.seg_a, world.seg_b) \
                .reshape(m, -1).any(axis=1)
        return hit


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

    def valid(self, coords, world, lo, hi):
        return _valid_body(self.joints(coords), self.link_radius, world, lo,
                           hi, self._collides)

    def _collides(self, joints, world):
        a, b = joints[:, :-1, :], joints[:, 1:, :]
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


# -- level validity ----------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _fractions(n: int) -> np.ndarray:
    """np.linspace(0, 1, n + 1), read-only: the interpolation parameters
    of a motion of n steps."""
    s = np.linspace(0.0, 1.0, n + 1)
    s.setflags(write=False)
    return s


class Visibility(NamedTuple):
    """LevelValidity.visibility(a, bs): whether a is valid, whether each
    motion a -> bs[i] is valid, and each motion's exact length."""

    state: bool
    motions: list[bool]
    distances: list[float]


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
        if self._world.empty and self.workspace_lo is None:
            return np.ones(len(coords), dtype=bool)
        ok = np.empty(len(coords), dtype=bool)
        for i in range(0, len(coords), CHUNK_STATES):
            ok[i:i + CHUNK_STATES] = self.robot.valid(
                coords[i:i + CHUNK_STATES], self._world, self.workspace_lo,
                self.workspace_hi)
        return ok

    def is_valid(self, x) -> bool:
        return bool(self.valid_mask(np.asarray(x, dtype=float)[None, :])[0])

    def motion_steps(self, lengths):
        """Discretization steps n = max(1, ceil(d / step)) of straight
        motions of length d: an int array shaped like lengths."""
        step = self.check_resolution * self._extent
        return np.maximum(1, np.ceil(np.asarray(lengths) / step)).astype(int)

    def motion_points(self, a, bs, dists, first: int = 1):
        """States first..n of each motion a[i] -> bs[i] (a is one state or
        one per row of bs) of length dists[i], concatenated, and the index
        of each motion's first state -> (points, starts).  Motion i has
        n = motion_steps(dists[i]) steps; state k lies at s = k * (1 / n),
        exactly 1.0 at k = n: np.linspace(0, 1, n + 1)[k].  State 0 is the
        start itself, by default left to the caller."""
        n = self.motion_steps(dists)
        svals = np.concatenate([_fractions(k)[first:] for k in n.tolist()])
        count = n + (1 - first)
        a = np.asarray(a, dtype=float)
        if a.ndim == 2:
            a = np.repeat(a, count, axis=0)
        pts = self.space.interpolate_many(
            a, np.repeat(np.asarray(bs, dtype=float), count, axis=0), svals)
        return pts, np.cumsum(count) - count

    def motion_states(self, a, b) -> np.ndarray:
        """The states motion_valid(a, b) checks: states 0..n of the motion,
        as motion_points discretizes it."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return self.motion_points(a, b[None, :], [self.space.distance(a, b)],
                                  first=0)[0]

    def motion_valid(self, a, b) -> bool:
        # not visibility(a, [b]): its batch set-up costs more than this on
        # the one-motion checks of path simplification and interfaces
        return bool(self.valid_mask(self.motion_states(a, b)).all())

    def paths_valid(self, paths) -> np.ndarray:
        """path_valid of each polyline of paths, from one valid_mask call
        -> (len(paths),) bool.  A one-state path is its motion to itself,
        so only that state is checked."""
        paths = [np.asarray(p, dtype=float) for p in paths]
        paths = [p if len(p) > 1 else np.concatenate([p, p]) for p in paths]
        a = np.concatenate([p[:-1] for p in paths])
        b = np.concatenate([p[1:] for p in paths])
        pts, starts = self.motion_points(a, b, self.space.distances(a, b),
                                         first=0)
        motions = np.logical_and.reduceat(self.valid_mask(pts), starts)
        firsts = np.cumsum([0] + [len(p) - 1 for p in paths[:-1]])
        return np.logical_and.reduceat(motions, firsts)

    def path_valid(self, path) -> bool:
        """motion_valid(a, b) for every segment a -> b of the polyline path:
        states 0..n of each segment, the same states, in one valid_mask
        call."""
        return bool(self.paths_valid([path])[0])

    def visibility(self, a, bs, p_valid: float = 1.0) -> Visibility:
        """is_valid(a), motion_valid(a, b) for every row b of bs and the
        exact distance(a, b), from one valid_mask call.

        The batch is a itself, then motion_points' states 1..n of each
        motion.  Each motion's state 0 equals a byte for byte when a is
        normalized, so it is checked once for all of them.

        p_valid is the caller's estimate that a is valid.  When the motion
        states an invalid a would waste, (1 - p_valid) * S of S, outweigh
        the second call a valid a then pays, p_valid * CALL_STATES, a is
        checked on its own first and its motions only if it is valid.
        """
        a = np.asarray(a, dtype=float)
        bs = np.asarray(bs, dtype=float)
        if not len(bs):
            return Visibility(bool(self.valid_mask(a[None, :])[0]), [], [])
        dists = self.space.distances(a, bs)
        blocked = Visibility(False, [False] * len(bs), dists)
        total = self.motion_steps(dists).sum()
        alone = (1.0 - p_valid) * total > p_valid * CALL_STATES
        if alone and not self.valid_mask(a[None, :])[0]:
            return blocked
        pts, starts = self.motion_points(a, bs, dists)
        if alone:
            mask = self.valid_mask(pts)
        else:
            mask = self.valid_mask(np.concatenate([a[None, :], pts]))
            if not mask[0]:
                return blocked
            mask = mask[1:]
        motions = np.logical_and.reduceat(mask, starts).tolist()
        return Visibility(True, motions, dists)
