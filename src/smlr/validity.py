"""Per-level constraint checking: robot models, state and motion validity.

A :class:`LevelValidity` owns the robot geometry of one abstraction level and
the shared obstacle list, compiled once into a :class:`CollisionWorld` of
stacked arrays.  All checks are vectorized over batches of states and over
obstacles, so the discretized motions from one state to many others are
validated in a single numpy pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (Box, Disc, Polygon, box_near, disc_signed_distance,
                       edge_crossings, finite_array, point_segment_dist,
                       polygon_signed_distance, segment_crossing,
                       segment_segment_dist)
from .spaces import StateSpace

# States one collision pass poses and tests: valid_mask cuts the grid
# oracle's batches of 1e4-1e5 states into passes of at most this many.  A
# pass's temporaries grow with its states times the world's obstacles: the
# broad phase's (state, obstacle) box tests, the point robots' near_points
# entries, and the exact test's (pose, obstacle) pairs with their obstacle
# edges, which the broad phase leaves to the obstacles a pose's box meets.
PASS_SIZE = 8192

# Widening of each obstacle's bounding box in the broad phase, far above the
# 1e-12 touch tolerance of the segment and containment kernels and the
# rounding of the exact tests, so a pair they find touching is a candidate.
BOX_MARGIN = 1e-9


def _take(x, rows):
    """x[rows] in column-major order, whatever the order of x.  The
    elementwise kernels and their reductions over the short trailing axes
    (points, coordinates) run 1.5 to 5 times faster on it."""
    return x.T.take(rows, axis=-1).T


def _take_points(x, rows, cols):
    """x[rows, cols] of an (n, k, 2) array of points, in column-major
    order: one take of flat indices, about five times faster than the
    two fancy indices -> (len(rows), 2)."""
    return x.T.reshape(2, -1).take(cols * len(x) + rows, axis=1).T


class CollisionWorld:
    """An obstacle list compiled into stacked arrays for one-pass tests.

    The obstacles are numbered boxes first, then discs, then polygons, each
    kind in list order.  Boxes are stacked into (nb, d) lo/hi arrays and
    discs into centres and radii.  Every obstacle's boundary segments (2-D
    boxes and polygons) form one (ns, 2) pair; row j of seg_table lists
    obstacle j's seg_count[j] segments, padded with -1.

    near_points tests points against every obstacle (point and disc
    robots): every box and disc at once, each polygon through points_near
    on every (point, polygon) pair.  The polygon and chain robots test
    (pose, obstacle) pairs instead: broad_phase pairs each pose with the
    obstacles whose bounding box, widened by BOX_MARGIN, meets the pose's
    box, and the exact tests run on those pairs only, in stages, each on
    the pairs that the ones before left open; segment_pairs keeps only the
    body segments whose own box meets the obstacle's.  Each test uses the
    same float operations as the obstacle's own predicate, so results are
    bit-identical to testing the obstacles one by one.
    """

    def __init__(self, obstacles):
        for o in obstacles:
            if not isinstance(o, (Box, Disc, Polygon)):
                raise TypeError(f"unsupported obstacle {type(o).__name__}")
        boxes = [o for o in obstacles if isinstance(o, Box)]
        discs = [o for o in obstacles if isinstance(o, Disc)]
        polygons = [o for o in obstacles if isinstance(o, Polygon)]
        for kind, group in (("box obstacles", boxes),
                            ("disc obstacles", discs),
                            ("obstacles", obstacles)):
            dims = {len(o.bounding_box()[0]) for o in group}
            if len(dims) > 1:
                raise ValueError(f"{kind} mix dimensions {sorted(dims)}")
        self.has_boxes = bool(boxes)
        if boxes:
            self.box_lo = np.stack([b.lo for b in boxes])
            self.box_hi = np.stack([b.hi for b in boxes])
        self.has_discs = bool(discs)
        if discs:
            self.disc_centers = np.stack([d.center for d in discs])
            self.disc_radii = np.array([d.radius for d in discs])
        ordered = boxes + discs + polygons
        # the numbers of the first disc and of every polygon
        self.first_disc = len(boxes)
        self.polygon_ids = np.arange(len(boxes) + len(discs), len(ordered))
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
        bounds = (np.array([o.bounding_box() for o in ordered]) if ordered
                  else np.empty((0, 2, 2)))
        self.aabb_lo = bounds[:, 0] - BOX_MARGIN
        self.aabb_hi = bounds[:, 1] + BOX_MARGIN

    def broad_phase(self, lo, hi):
        """(pose, obstacle) index pairs whose boxes meet: pose i's planar
        box [lo[i], hi[i]] and the obstacle's bounding box widened by
        BOX_MARGIN.  Only these pairs can collide.  The pairs are sorted
        by obstacle, so each kind's pairs are one run (kind_slices)
        -> (pose, obstacle) int arrays."""
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

    def segment_pairs(self, a, b, pad: float, obs):
        """Rows of the segment test: body segment a[i, e]-b[i, e] of pair
        i (a and b (n, k, 2)) is kept when its box, widened by pad, meets
        the bounding box of obstacle obs[i], itself widened by BOX_MARGIN,
        and becomes one row per boundary segment of that obstacle, grouped
        by pair and segment -> (pair, edge, seg) int arrays.  Two segments
        cross or touch (segment_crossing) only where their boxes meet
        within 1e-12, and lie within pad of each other only where their
        boxes meet within pad, so no row dropped can hit."""
        lo = _take(self.aabb_lo, obs)[:, None]
        hi = _take(self.aabb_hi, obs)[:, None]
        meets = (np.minimum(a, b) - pad <= hi) & \
            (np.maximum(a, b) + pad >= lo)
        pair, edge = np.nonzero(meets[..., 0] & meets[..., 1])
        row, seg = self.segment_rows(obs[pair])
        return pair[row], edge[row], seg

    def points_near(self, pts, obs, kinds, margin: float,
                    discs: bool = True):
        """Pairs i where some point of pts[i] (n, k, 2) has signed distance
        <= margin to obstacle obs[i] (disc pairs skipped when discs is
        False), given kinds = kind_slices(obs) -> (n,) bool."""
        hit = np.zeros(len(obs), dtype=bool)
        box, disc, poly = kinds
        if box.stop:
            j = obs[box]
            hit[box] = box_near(pts[box], _take(self.box_lo, j)[:, None],
                                _take(self.box_hi, j)[:, None],
                                margin).any(axis=1)
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
        <= margin, every obstacle tested: boxes and discs all at once, and
        each (row, polygon) pair through points_near -> (m,) bool."""
        p = pts[:, None, :]
        hit = (box_near(p, self.box_lo, self.box_hi, margin).any(axis=1)
               if self.has_boxes else np.zeros(len(pts), dtype=bool))
        if self.has_discs:
            sd = disc_signed_distance(p, self.disc_centers, self.disc_radii)
            hit |= (sd <= margin).any(axis=1)
        if len(self.polygon_ids):
            obs = np.repeat(self.polygon_ids, len(pts))
            row = np.tile(np.arange(len(pts)), len(self.polygon_ids))
            near = self.points_near(_take(p, row), obs, self.kind_slices(obs),
                                    margin)
            hit |= near.reshape(len(self.polygon_ids), -1).any(axis=0)
        return hit


# -- robot models ------------------------------------------------------------

def _posed_vertices(local_vertices, xy, theta):
    """Rigid transform of local vertices for m poses -> (m, nv, 2),
    column-major."""
    c, s = np.cos(theta), np.sin(theta)
    vx, vy = local_vertices[:, 0, None], local_vertices[:, 1, None]
    px = c * vx - s * vy + xy[:, 0]
    py = s * vx + c * vy + xy[:, 1]
    return np.array([px, py]).T


def _in_workspace(body_lo, body_hi, lo, hi, r):
    """Rows whose box [body_lo, body_hi], widened by r, lies inside the
    workspace [lo, hi]; every row when there is none -> (m,) bool."""
    if lo is None:
        return np.ones(len(body_lo), dtype=bool)
    return ((body_lo >= lo + r) & (body_hi <= hi - r)).all(axis=1)


def rotation_pad(rho: float, delta: float) -> float:
    """Bound on how far, along either workspace axis, a point within rho
    of a pivot strays from the chord between its two end positions while
    the body turns by delta at a uniform rate: rho (1 - cos(delta/2))
    across the chord (the sagitta) plus rho (delta/2 - sin(delta/2))
    along it.  Both are measured from the chord's point at the same
    fraction of the motion, so the bound still holds when the pivot
    translates linearly at the same time.  inf beyond a half turn, for
    which the bound is not derived."""
    a = abs(delta) / 2.0
    if a > math.pi / 2.0:
        return math.inf
    return rho * ((1.0 - math.cos(a)) + (a - math.sin(a)))


def _distinct(name, indices):
    """Reject a coordinate listed twice in indices: the body would read it
    as two of its own coordinates."""
    if len(set(indices)) != len(indices):
        raise ValueError(f"{name} repeat a coordinate, got {list(indices)}")


class RobotModel:
    """Maps level states to workspace geometry and tests its validity.

    A robot is described once: body(coords) poses its points, and radius
    widens each of them (0 for a point or polygon, the link radius for a
    chain).  body_box and the planar valid follow from the two; a planar
    robot adds its exact test of posed bodies against obstacles,
    _collides, and motion_pad.  position_indices are the coordinates that
    translate the body in the workspace; a body posed at a circular one
    jumps where the coordinate wraps at 0/2*pi."""

    position_indices: tuple
    radius = 0.0

    def body(self, coords: np.ndarray) -> np.ndarray:
        """The posed body points of each row -> (m, k, 2), column-major
        (a point robot's one point has as many coordinates as its
        position)."""
        raise NotImplementedError

    def body_box(self, coords: np.ndarray):
        """Workspace box of each row's posed body, its radius included:
        the box valid tests against the workspace and, for polygon and
        chain robots, in the broad phase -> (lo, hi), each (m, 2)."""
        body = self.body(coords)
        return body.min(axis=1) - self.radius, body.max(axis=1) + self.radius

    def valid(self, coords: np.ndarray, world: CollisionWorld,
              lo: np.ndarray | None, hi: np.ndarray | None) -> np.ndarray:
        """Rows of coords whose posed robot lies inside the workspace box
        [lo, hi] (any pose when lo is None) and overlaps no obstacle of
        world; the robot is posed once for the whole batch -> (m,) bool.
        The workspace test and the broad phase share each pose's box: the
        poses inside the workspace are paired with the obstacles their box
        meets, and the exact _collides runs on those pairs only."""
        body, r = self.body(coords), self.radius
        body_lo, body_hi = body.min(axis=1), body.max(axis=1)
        ok = _in_workspace(body_lo, body_hi, lo, hi, r)
        rows = np.flatnonzero(ok)
        if not len(rows):
            return ok
        pose, obs = world.broad_phase(_take(body_lo, rows) - r,
                                      _take(body_hi, rows) + r)
        if len(pose):
            pose = rows[pose]
            ok[pose[self._collides(_take(body, pose), world, obs)]] = False
        return ok

    def _collides(self, body, world: CollisionWorld, obs) -> np.ndarray:
        """Whether the posed body[i] (n, k, 2), its points widened by
        radius, overlaps obstacle obs[i] of world -> (n,) bool."""
        raise NotImplementedError

    def motion_pad(self, axis: int, delta: float) -> float:
        """Widening that holds the body box of every state of a straight
        motion inside the hull of its two end boxes, where the motion
        changes coordinate axis by delta (a shortest-arc difference on a
        circle) and may translate the body too: 0 for a position (the body
        translates linearly, unless the coordinate wraps at a circle's
        seam) or a coordinate the body ignores, rotation_pad for a joint or
        heading angle.  It is not a bound for two angles moving at once."""
        raise NotImplementedError


@dataclass
class PointRobot(RobotModel):
    # a point is a disc of radius 0: RobotModel.radius, not a field, so
    # PointRobot's one positional field stays position_indices
    position_indices: tuple = (0, 1)

    def __post_init__(self):
        _distinct("position_indices", self.position_indices)

    def _pos(self, coords):
        return coords[:, list(self.position_indices)]

    def body(self, coords):
        return self._pos(coords)[:, None]

    def valid(self, coords, world, lo, hi):
        # every row, not only those inside the workspace: a row gather
        # costs about as much as the obstacle test it would save
        p = self._pos(coords)
        return _in_workspace(p, p, lo, hi, self.radius) & \
            ~world.near_points(p, self.radius)

    def motion_pad(self, axis, delta):
        return 0.0


@dataclass
class DiscRobot(PointRobot):
    radius: float = 0.05
    position_indices: tuple = (0, 1)

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.radius < math.inf:
            raise ValueError("disc robot radius must be positive and finite")


@dataclass
class PolygonRobot(RobotModel):
    """Rigid (possibly non-convex) polygon posed by (x, y, theta) coords."""

    vertices: np.ndarray = None
    pose_indices: tuple = (0, 1, 2)

    def __post_init__(self):
        v = self.vertices = finite_array("polygon robot vertices",
                                         self.vertices)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise ValueError("polygon robot needs >= 3 planar vertices")
        if len(self.pose_indices) != 3:
            raise ValueError("polygon robot needs 3 pose indices")
        _distinct("pose_indices", self.pose_indices)

    def body(self, coords):
        """The posed vertices."""
        i, j, k = self.pose_indices
        xy = coords[:, [i, j]]
        theta = coords[:, k]
        return _posed_vertices(self.vertices, xy, theta)

    @property
    def position_indices(self):
        return self.pose_indices[:2]

    def motion_pad(self, axis, delta):
        """The heading turns the polygon about its pose point, which its
        farthest vertex is rho away from."""
        if axis != self.pose_indices[2]:
            return 0.0
        return rotation_pad(float(np.hypot(*self.vertices.T).max()), delta)

    @staticmethod
    def _collides(a, world, obs):
        """Whether the posed polygon a[i] (n, nv, 2) overlaps obstacle
        obs[i], in stages, each on the pairs the ones before left open: a
        vertex inside the obstacle; a disc's centre inside the polygon or
        within its radius of an edge, or an obstacle corner inside the
        polygon; an edge crossing an obstacle edge -> (n,) bool."""
        hit = world.points_near(a, obs, world.kind_slices(obs), 0.0)
        live = np.flatnonzero(~hit)
        a, obs = _take(a, live), obs[live]
        # each vertex's successor: np.roll(a, -1, axis=1), column-major
        b = np.concatenate([a[:, 1:], a[:, :1]], axis=1)
        found = np.zeros(len(live), dtype=bool)
        _, disc, _ = world.kind_slices(obs)
        if disc.stop > disc.start:
            j = obs[disc] - world.first_disc
            c = _take(world.disc_centers, j)[:, None]
            ea, eb = a[disc], b[disc]
            inside = np.logical_xor.reduce(edge_crossings(c, ea, eb), axis=1)
            d = point_segment_dist(c, ea, eb).min(axis=1)
            found[disc] = inside | (d <= world.disc_radii[j])
        if world.has_segments:
            pair, seg = world.segment_rows(obs)
            p = _take(world.seg_a, seg)[:, None]
            inside = edge_crossings(p, _take(a, pair), _take(b, pair))
            found[pair[np.logical_xor.reduce(inside, axis=1)]] = True
            rest = np.flatnonzero(~found)
            pair, edge, seg = world.segment_pairs(
                _take(a, rest), _take(b, rest), 0.0, obs[rest])
            pose = rest[pair]
            cross = segment_crossing(
                _take_points(a, pose, edge),
                _take_points(a, pose, (edge + 1) % a.shape[1]),
                _take(world.seg_a, seg), _take(world.seg_b, seg))
            found[pose[cross]] = True
        hit[live[found]] = True
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
        if len(self.base_indices) != 2:
            raise ValueError("chain robot needs 2 base indices")
        if len(self.angle_indices) != len(self.link_lengths):
            raise ValueError("one joint angle per link required")
        _distinct("base_indices and angle_indices",
                  (*self.base_indices, *self.angle_indices))
        lengths = finite_array("link_lengths", self.link_lengths)
        if not 0 < self.link_radius < math.inf or not (lengths > 0).all():
            raise ValueError("link geometry must be positive")

    def body(self, coords):
        """The joint positions, the base first -> (m, L+1, 2)."""
        base = coords[:, list(self.base_indices)].T[:, None, :]
        angles = np.cumsum(coords[:, list(self.angle_indices)].T, axis=0)
        lengths = np.asarray(self.link_lengths, dtype=float)[:, None]
        steps = lengths * np.array([np.cos(angles), np.sin(angles)])
        return np.concatenate([base, base + np.cumsum(steps, axis=1)],
                              axis=1).T

    @property
    def position_indices(self):
        return self.base_indices

    @property
    def radius(self):
        return self.link_radius

    def motion_pad(self, axis, delta):
        """Joint angle j turns the links from j on about joint j; their
        far ends are at most the sum of those links' lengths away."""
        if axis not in self.angle_indices:
            return 0.0
        j = list(self.angle_indices).index(axis)
        return rotation_pad(float(sum(self.link_lengths[j:])), delta)

    def _collides(self, j, world, obs):
        """Whether the chain posed as j[i] (n, L+1, 2) overlaps obstacle
        obs[i], in two stages: a joint within link_radius of a box or
        polygon; then, on the pairs left open, a link within link_radius
        of a disc or of an obstacle edge -> (n,) bool."""
        r = self.link_radius
        hit = world.points_near(j, obs, world.kind_slices(obs), r,
                                discs=False)
        live = np.flatnonzero(~hit)
        j, obs = _take(j, live), obs[live]
        a, b = j[:, :-1], j[:, 1:]
        found = np.zeros(len(live), dtype=bool)
        _, disc, _ = world.kind_slices(obs)
        if disc.stop > disc.start:
            k = obs[disc] - world.first_disc
            d = point_segment_dist(_take(world.disc_centers, k)[:, None],
                                   a[disc], b[disc])
            found[disc] = d.min(axis=1) <= world.disc_radii[k] + r
        if world.has_segments:
            pair, edge, seg = world.segment_pairs(a, b, r, obs)
            d = segment_segment_dist(_take_points(j, pair, edge),
                                     _take_points(j, pair, edge + 1),
                                     _take(world.seg_a, seg),
                                     _take(world.seg_b, seg))
            found[pair[d <= r]] = True
        hit[live[found]] = True
        return hit


# -- level validity ----------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _fractions(n: int) -> np.ndarray:
    """np.linspace(0, 1, n + 1), read-only: the interpolation parameters
    of a motion of n steps."""
    s = np.linspace(0.0, 1.0, n + 1)
    s.setflags(write=False)
    return s


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
        if self.workspace_lo is not None:
            finite_array("workspace", [self.workspace_lo, self.workspace_hi])
        object.__setattr__(self, "_extent", self.space.max_extent())
        object.__setattr__(self, "_world", CollisionWorld(self.obstacles))
        # no obstacle and no workspace box: every state is valid, so
        # valid_mask and the motion checks return all-true and check none
        object.__setattr__(self, "unconstrained",
                           self._world.empty and self.workspace_lo is None)

    @functools.cached_property
    def half_resolution(self) -> LevelValidity:
        """This validity at half the check resolution, derived once: the
        planner's final check of a solution."""
        return replace(self, check_resolution=self.check_resolution / 2.0)

    def valid_mask(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[None, :]
        if self.unconstrained:
            return np.ones(len(coords), dtype=bool)
        ok = np.empty(len(coords), dtype=bool)
        for i in range(0, len(coords), PASS_SIZE):
            ok[i:i + PASS_SIZE] = self.robot.valid(
                coords[i:i + PASS_SIZE], self._world, self.workspace_lo,
                self.workspace_hi)
        return ok

    def boxes_clear(self, lo, hi) -> np.ndarray:
        """Rows whose workspace box [lo[i], hi[i]], widened by BOX_MARGIN,
        lies inside the workspace and meets no obstacle's bounding box
        (itself widened by BOX_MARGIN, as in the broad phase).  A state
        whose RobotModel.body_box lies in such a box, up to rounding far
        below the margin, passes valid_mask: no obstacle is near it, and
        it is inside the workspace -> (m,) bool."""
        lo = np.asarray(lo, dtype=float) - BOX_MARGIN
        hi = np.asarray(hi, dtype=float) + BOX_MARGIN
        ok = _in_workspace(lo, hi, self.workspace_lo, self.workspace_hi, 0.0)
        # apart from each obstacle's box along some axis; one column at a
        # time against scalar bounds, 3-4 times faster than comparing the
        # (m, 2) rows with each bounding box
        w = self._world
        for ob_lo, ob_hi in zip(w.aabb_lo.tolist(), w.aabb_hi.tolist()):
            ok &= np.logical_or.reduce([
                (h < a) | (l > b)
                for l, h, a, b in zip(lo.T, hi.T, ob_lo, ob_hi)])
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
        start itself, by default left to the caller.  No motions give no
        states."""
        n = self.motion_steps(dists)
        svals = np.concatenate([_fractions(k)[first:] for k in n.tolist()]
                               or [np.empty(0)])
        count = n + (1 - first)
        a = np.asarray(a, dtype=float)
        if a.ndim == 2:
            a = np.repeat(a, count, axis=0)
        pts = self.space.interpolate_many(
            a, np.repeat(np.asarray(bs, dtype=float), count, axis=0), svals)
        return pts, np.cumsum(count) - count

    def motions_valid(self, a, bs) -> np.ndarray:
        """motion_valid(a[i], bs[i]) for each row pair (a is one state or
        one per row of bs): states 0..n of every motion, as motion_points
        discretizes it, from one valid_mask call, or none on an
        unconstrained level -> (len(bs),) bool."""
        a = np.asarray(a, dtype=float)
        bs = np.asarray(bs, dtype=float)
        if self.unconstrained:
            return np.ones(len(bs), dtype=bool)
        pts, starts = self.motion_points(a, bs, self.space.distances(a, bs),
                                         first=0)
        return np.logical_and.reduceat(self.valid_mask(pts), starts)

    def motion_valid(self, a, b) -> bool:
        b = np.asarray(b, dtype=float)
        return bool(self.motions_valid(a, b[None, :])[0])

    def motions_from(self, a, bs, dists) -> np.ndarray:
        """motion_valid(a, b) for each row b of bs, of length dists[i],
        where a (one state or one per row of bs) is valid: motion_points'
        states 1..n of every motion from one valid_mask call.  Each
        motion's state 0 equals its a byte for byte when a is normalized,
        so it is left to the check of a.  An unconstrained level checks
        none -> (len(bs),) bool."""
        if self.unconstrained:
            return np.ones(len(bs), dtype=bool)
        pts, starts = self.motion_points(a, bs, dists)
        return np.logical_and.reduceat(self.valid_mask(pts), starts)
