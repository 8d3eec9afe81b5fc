"""Per-level constraint checking: robot models, state and motion validity.

A :class:`LevelValidity` owns the robot geometry of one abstraction level and
the shared obstacle list, compiled once into a :class:`CollisionWorld` of
stacked arrays.  All checks are vectorized over batches of states and over
obstacles, so the discretized motions from one state to many others are
validated in a single numpy pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .geometry import (Box, Disc, Polygon, box_signed_distance,
                       disc_signed_distance, edge_crossings,
                       point_segment_dist, polygon_signed_distance,
                       segment_crossing, segment_segment_dist)
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
# 1e-12 touch tolerance of the segment and containment kernels and the
# rounding of the exact tests, so a pair they find touching is a candidate.
BOX_MARGIN = 1e-9


def _take(x, rows):
    """x[rows] in column-major order, whatever the order of x.  The
    elementwise kernels and their reductions over the short trailing axes
    (points, coordinates) run 1.5 to 5 times faster on it."""
    return np.take(x.T, rows, axis=-1).T


class CollisionWorld:
    """An obstacle list compiled into stacked arrays for one-pass tests.

    The obstacles are numbered boxes first, then discs, then polygons, each
    kind in list order.  Boxes are stacked into (nb, d) lo/hi arrays and
    discs into centres and radii.  Every obstacle's boundary segments (2-D
    boxes and polygons) form one (ns, 2) pair; row j of seg_table lists
    obstacle j's seg_count[j] segments, padded with -1.

    near_points tests points against every obstacle at once (point and disc
    robots).  The polygon and chain robots test (pose, obstacle) pairs
    instead: broad_phase pairs each pose with the obstacles whose bounding
    box, widened by BOX_MARGIN, meets the pose's box, and the exact tests
    run on those pairs only.  Each test uses the same float operations as
    the obstacle's own predicate, so results are bit-identical to testing
    the obstacles one by one.
    """

    def __init__(self, obstacles):
        for o in obstacles:
            if not isinstance(o, (Box, Disc, Polygon)):
                raise TypeError(f"unsupported obstacle {type(o).__name__}")
        boxes = [o for o in obstacles if isinstance(o, Box)]
        discs = [o for o in obstacles if isinstance(o, Disc)]
        self.polygons = [o for o in obstacles if isinstance(o, Polygon)]
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
        ordered = boxes + discs + self.polygons
        # the numbers of the first disc and the first polygon
        self.first_disc = len(boxes)
        self._kind_starts = np.array([len(boxes), len(boxes) + len(discs)])
        segs = [o.boundary_segments() for o in ordered]
        self.seg_count = np.array([0 if s is None else len(s[0])
                                   for s in segs], dtype=int)
        self.has_segments = bool(self.seg_count.sum())
        if self.has_segments:
            self.seg_a = np.concatenate([s[0] for s in segs if s is not None])
            self.seg_b = np.concatenate([s[1] for s in segs if s is not None])
        cols = np.arange(self.seg_count.max(initial=0))
        first = np.cumsum(self.seg_count) - self.seg_count
        self.seg_table = np.where(cols < self.seg_count[:, None],
                                  first[:, None] + cols, -1)
        self.empty = not obstacles
        bounds = [o.bounding_box() for o in ordered]
        self.has_aabbs = not self.empty and all(len(lo) == 2
                                                for lo, _ in bounds)
        if self.has_aabbs:
            self.aabb_lo = np.stack([lo for lo, _ in bounds]) - BOX_MARGIN
            self.aabb_hi = np.stack([hi for _, hi in bounds]) + BOX_MARGIN

    def broad_phase(self, lo, hi):
        """(pose, obstacle) index pairs whose boxes meet: pose i's planar
        box [lo[i], hi[i]] and the obstacle's bounding box widened by
        BOX_MARGIN.  Only these pairs can collide.  Every pair when the
        world has no planar boxes.  The pairs are sorted by obstacle, so
        each kind's pairs are one run (kind_slices) -> (pose, obstacle)
        int arrays."""
        if not self.has_aabbs:
            obs, pose = np.nonzero(np.ones((len(self.seg_table), len(lo)),
                                           dtype=bool))
            return pose, obs
        meets = (self.aabb_lo[:, None] <= hi) & (self.aabb_hi[:, None] >= lo)
        obs, pose = np.nonzero(meets[..., 0] & meets[..., 1])
        return pose, obs

    def kind_slices(self, obs):
        """The runs of the pairs whose obstacles obs (sorted) are boxes,
        discs and polygons -> three slices."""
        d, p = np.searchsorted(obs, self._kind_starts).tolist()
        return slice(0, d), slice(d, p), slice(p, len(obs))

    def segment_rows(self, obs):
        """One row per boundary segment of each pair's obstacle obs[i],
        grouped by pair in segment order: each row's pair and segment
        -> (pair, seg) int arrays."""
        table = self.seg_table[obs]
        pair, col = np.nonzero(table >= 0)
        return pair, table[pair, col]

    def points_near(self, pts, obs, margin: float, discs: bool = True):
        """Pairs i where some point of pts[i] (n, k, 2) has signed distance
        <= margin to obstacle obs[i] (disc pairs skipped when discs is
        False) -> (n,) bool."""
        hit = np.zeros(len(obs), dtype=bool)
        box, disc, poly = self.kind_slices(obs)
        if box.stop:
            j = obs[box]
            sd = box_signed_distance(pts[box], _take(self.box_lo, j)[:, None],
                                     _take(self.box_hi, j)[:, None])
            hit[box] = (sd <= margin).any(axis=1)
        if discs and disc.stop > disc.start:
            j = obs[disc] - self.first_disc
            sd = disc_signed_distance(pts[disc],
                                      _take(self.disc_centers, j)[:, None],
                                      self.disc_radii[j, None])
            hit[disc] = (sd <= margin).any(axis=1)
        if poly.stop > poly.start:
            count = self.seg_count[obs[poly]]
            pair, seg = self.segment_rows(obs[poly])
            p = _take(pts[poly], pair)
            a = _take(self.seg_a, seg)[:, None]
            b = _take(self.seg_b, seg)[:, None]
            first = np.cumsum(count) - count
            d = np.minimum.reduceat(point_segment_dist(p, a, b), first)
            odd = np.logical_xor.reduceat(edge_crossings(p, a, b), first)
            hit[poly] = (polygon_signed_distance(d, odd) <= margin).any(axis=1)
        return hit

    def near_points(self, pts, margin: float):
        """Rows of pts (m, d) whose signed distance to some obstacle is
        <= margin, every obstacle tested -> (m,) bool."""
        hit = np.zeros(len(pts), dtype=bool)
        p = pts[:, None, :]
        if self.has_boxes:
            sd = box_signed_distance(p, self.box_lo, self.box_hi)
            hit |= (sd <= margin).any(axis=1)
        if self.has_discs:
            sd = disc_signed_distance(p, self.disc_centers, self.disc_radii)
            hit |= (sd <= margin).any(axis=1)
        for o in self.polygons:
            hit |= o.signed_distance(pts) <= margin
        return hit


# -- robot models ------------------------------------------------------------

def _posed_vertices(local_vertices, xy, theta):
    """Rigid transform of local vertices for m poses -> (m, nv, 2),
    column-major."""
    c, s = np.cos(theta), np.sin(theta)
    vx, vy = local_vertices[:, 0, None], local_vertices[:, 1, None]
    px = c * vx - s * vy + xy[:, 0]
    py = s * vx + c * vy + xy[:, 1]
    return np.stack([px, py]).T


def _in_workspace(body_lo, body_hi, lo, hi, r):
    """Rows whose box [body_lo, body_hi], widened by r, lies inside the
    workspace [lo, hi]; every row when there is none -> (m,) bool."""
    if lo is None:
        return np.ones(len(body_lo), dtype=bool)
    return np.all((body_lo >= lo + r) & (body_hi <= hi - r), axis=1)


def _valid_body(body, r, world, lo, hi, collides):
    """Validity of posed bodies (m, k, 2) whose points are widened by r.
    The workspace test and the broad phase share each pose's box: the poses
    inside the workspace are paired with the obstacles their box meets, and
    the exact collides(body[pose], world, obs) runs on those pairs only."""
    body_lo, body_hi = body.min(axis=1), body.max(axis=1)
    ok = _in_workspace(body_lo, body_hi, lo, hi, r)
    rows = np.flatnonzero(ok)
    if not len(rows):
        return ok
    pose, obs = world.broad_phase(_take(body_lo, rows) - r,
                                  _take(body_hi, rows) + r)
    if len(pose):
        pose = rows[pose]
        ok[pose[collides(_take(body, pose), world, obs)]] = False
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
    def _collides(a, world, obs):
        """Whether the posed polygon a[i] (n, nv, 2) overlaps obstacle
        obs[i]: a vertex inside the obstacle, a disc's centre inside the
        polygon or within its radius of an edge, an obstacle corner inside
        the polygon, or an edge crossing an obstacle edge -> (n,) bool."""
        b = np.roll(a, -1, axis=1)
        hit = world.points_near(a, obs, 0.0)
        _, disc, _ = world.kind_slices(obs)
        if disc.stop > disc.start:
            j = obs[disc] - world.first_disc
            c = _take(world.disc_centers, j)[:, None]
            ea, eb = a[disc], b[disc]
            inside = np.logical_xor.reduce(edge_crossings(c, ea, eb), axis=1)
            d = point_segment_dist(c, ea, eb).min(axis=1)
            hit[disc] |= inside | (d <= world.disc_radii[j])
        if world.has_segments:
            pair, seg = world.segment_rows(obs)
            p = _take(world.seg_a, seg)[:, None]
            q = _take(world.seg_b, seg)[:, None]
            ea, eb = _take(a, pair), _take(b, pair)
            inside = np.logical_xor.reduce(edge_crossings(p, ea, eb), axis=1)
            hit[pair[inside | segment_crossing(ea, eb, p, q).any(axis=1)]] \
                = True
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
        """Joint positions including the base -> (m, L+1, 2),
        column-major."""
        base = coords[:, list(self.base_indices)].T[:, None, :]
        angles = np.cumsum(coords[:, list(self.angle_indices)].T, axis=0)
        lengths = np.asarray(self.link_lengths, dtype=float)[:, None]
        steps = lengths * np.stack([np.cos(angles), np.sin(angles)])
        return np.concatenate([base, base + np.cumsum(steps, axis=1)],
                              axis=1).T

    def valid(self, coords, world, lo, hi):
        return _valid_body(self.joints(coords), self.link_radius, world, lo,
                           hi, self._collides)

    def _collides(self, j, world, obs):
        """Whether the chain posed as j[i] (n, L+1, 2) overlaps obstacle
        obs[i]: a joint within link_radius of a box or polygon, or a link
        within link_radius of a disc or of an obstacle edge -> (n,) bool."""
        a, b = j[:, :-1], j[:, 1:]
        r = self.link_radius
        hit = world.points_near(j, obs, r, discs=False)
        _, disc, _ = world.kind_slices(obs)
        if disc.stop > disc.start:
            k = obs[disc] - world.first_disc
            d = point_segment_dist(_take(world.disc_centers, k)[:, None],
                                   a[disc], b[disc])
            hit[disc] |= d.min(axis=1) <= world.disc_radii[k] + r
        if world.has_segments:
            pair, seg = world.segment_rows(obs)
            d = segment_segment_dist(_take(a, pair), _take(b, pair),
                                     _take(world.seg_a, seg)[:, None],
                                     _take(world.seg_b, seg)[:, None])
            hit[pair[(d <= r).any(axis=1)]] = True
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
    dataclasses.replace, as half_resolution does once per object.
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

    @functools.cached_property
    def half_resolution(self) -> LevelValidity:
        """This validity at half the check resolution, derived once: the
        planner's final check of a solution."""
        return replace(self, check_resolution=self.check_resolution / 2.0)

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

    def motions_valid(self, a, bs) -> np.ndarray:
        """motion_valid(a[i], bs[i]) for each row pair (a is one state or
        one per row of bs): states 0..n of every motion, as motion_points
        discretizes it, from one valid_mask call -> (len(bs),) bool."""
        a = np.asarray(a, dtype=float)
        bs = np.asarray(bs, dtype=float)
        pts, starts = self.motion_points(a, bs, self.space.distances(a, bs),
                                         first=0)
        return np.logical_and.reduceat(self.valid_mask(pts), starts)

    def motion_valid(self, a, b) -> bool:
        # not visibility(a, [b]): its batch set-up costs more than this on
        # the one-motion checks of interfaces
        b = np.asarray(b, dtype=float)
        return bool(self.motions_valid(a, b[None, :])[0])

    def paths_valid(self, paths) -> np.ndarray:
        """path_valid of each polyline of paths, from one valid_mask call
        -> (len(paths),) bool.  A one-state path is its motion to itself,
        so only that state is checked."""
        paths = [np.asarray(p, dtype=float) for p in paths]
        paths = [p if len(p) > 1 else np.concatenate([p, p]) for p in paths]
        motions = self.motions_valid(np.concatenate([p[:-1] for p in paths]),
                                     np.concatenate([p[1:] for p in paths]))
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
