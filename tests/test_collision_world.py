"""The compiled collision world and batched motion checks against the
per-obstacle and per-motion code they replace.

The reference below tests the workspace point by point and then one
obstacle at a time on every state, exactly as valid_mask did before the
obstacles were compiled into stacked arrays, before the bounding-box broad
phase and before each robot answered both in one posed pass; the
world-level masks must equal it bit for bit.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import smlr.validity as validity_module
from smlr.geometry import (Box, Disc, Polygon, box_near, disc_signed_distance,
                           edge_crossings, point_segment_dist,
                           polygon_signed_distance, segment_crossing,
                           segment_segment_dist)
from smlr.scenario import load_scenario, shipped_scenario_dir
from smlr.spaces import CircleSpace, ProductSpace, RealVectorSpace
from smlr.sparse_graph import AddOutcome, SparseRoadmap
from smlr.validity import (BOX_MARGIN, PASS_SIZE, ChainRobot,
                           CollisionWorld, DiscRobot, LevelValidity,
                           PointRobot, PolygonRobot)
from test_sparse_graph import visible_guard_distances

# -- matrix forms of the segment kernels, as references -----------------------


def segments_intersect(a0, a1, b0, b1) -> np.ndarray:
    """Pairwise proper-or-touching intersection of segment batches.

    a0, a1: (m, 2); b0, b1: (k, 2); returns (m, k) booleans.
    """
    return segment_crossing(np.asarray(a0, float)[:, None, :],
                            np.asarray(a1, float)[:, None, :],
                            np.asarray(b0, float)[None, :, :],
                            np.asarray(b1, float)[None, :, :])


def segments_to_segments_dist(a0, a1, b0, b1) -> np.ndarray:
    """Distance matrix (m, k) between segment batches (0 on intersection)."""
    return segment_segment_dist(np.asarray(a0, float)[:, None, :],
                                np.asarray(a1, float)[:, None, :],
                                np.asarray(b0, float)[None, :, :],
                                np.asarray(b1, float)[None, :, :])


def points_to_segments_dist(pts, seg_a, seg_b) -> np.ndarray:
    """Distance matrix (m, k) from m points to k segments."""
    return point_segment_dist(np.asarray(pts, float)[:, None, :],
                              np.asarray(seg_a, float)[None],
                              np.asarray(seg_b, float)[None])


def polygons_contain(polygons, pts) -> np.ndarray:
    """Even-odd containment of points (p, 2) in each of m polygons
    (m, nv, 2) -> (m, p); a point on an edge may count either way."""
    a = polygons[:, None]
    b = np.roll(polygons, -1, axis=1)[:, None]
    crossings = np.sum(edge_crossings(pts[None, :, None, :], a, b), axis=2)
    return (crossings % 2) == 1


# -- per-obstacle reference ---------------------------------------------------


def box_signed_distance(p, lo, hi) -> np.ndarray:
    """Signed distance from p to the box [lo, hi], in any dimension."""
    outside = np.maximum(np.maximum(lo - p, p - hi), 0.0)
    dist_out = np.linalg.norm(outside, axis=-1)
    inside_margin = np.minimum(p - lo, hi - p).min(axis=-1)
    return np.where(dist_out > 0, dist_out, -inside_margin)


def signed_distance(obstacle, pts) -> np.ndarray:
    """Signed distance from each point of pts (m, d) to one obstacle, the
    obstacle on its own: negative inside, and for a polygon a point within
    1e-12 of the boundary counts as inside.  The compiled world's verdicts
    must equal these compared with the robot's margin."""
    pts = np.asarray(pts, dtype=float)
    if isinstance(obstacle, Box):
        return box_signed_distance(pts, obstacle.lo, obstacle.hi)
    if isinstance(obstacle, Disc):
        return disc_signed_distance(pts, obstacle.center, obstacle.radius)
    a, b = obstacle.boundary_segments()
    d = points_to_segments_dist(pts, a, b).min(axis=1)
    return polygon_signed_distance(d, polygons_contain(a[None], pts)[0])


def _ref_edges_point_dist(verts, point):
    a = verts
    b = np.roll(verts, -1, axis=1)
    d = b - a
    dd = np.sum(d * d, axis=2)
    ap = point[None, None, :] - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.sum(ap * d, axis=2) / dd
    t = np.where(dd == 0.0, 0.0, np.clip(t, 0.0, 1.0))
    closest = a + t[:, :, None] * d
    return np.linalg.norm(point[None, None, :] - closest, axis=2).min(axis=1)


def _ref_polygon(robot, coords, obstacle):
    verts = robot.body(coords)
    m, nv, _ = verts.shape
    flat = verts.reshape(m * nv, 2)
    hit = (signed_distance(obstacle, flat) <= 0.0).reshape(m, nv).any(axis=1)
    if isinstance(obstacle, Disc):
        center_in = polygons_contain(verts, obstacle.center[None, :])[:, 0]
        near = _ref_edges_point_dist(verts, obstacle.center) \
            <= obstacle.radius
        return hit | center_in | near
    seg = obstacle.boundary_segments()
    if seg is None:
        return hit
    oa, ob = seg
    corner_in = polygons_contain(verts, oa).any(axis=1)
    rb = np.roll(verts, -1, axis=1).reshape(m * nv, 2)
    crossing = segments_intersect(flat, rb, oa, ob) \
        .reshape(m, nv, -1).any(axis=(1, 2))
    return hit | corner_in | crossing


def _ref_chain(robot, coords, obstacle):
    j = robot.body(coords)
    a, b = j[:, :-1, :], j[:, 1:, :]
    m, L, _ = a.shape
    fa, fb = a.reshape(m * L, 2), b.reshape(m * L, 2)
    if isinstance(obstacle, Disc):
        d = points_to_segments_dist(obstacle.center[None, :], fa, fb)
        d = d.reshape(m, L).min(axis=1)
        return d <= obstacle.radius + robot.link_radius
    near_end = (signed_distance(obstacle, fa) <= robot.link_radius) | \
               (signed_distance(obstacle, fb) <= robot.link_radius)
    near_end = near_end.reshape(m, L).any(axis=1)
    seg = obstacle.boundary_segments()
    if seg is None:
        return near_end
    oa, ob = seg
    d = segments_to_segments_dist(fa, fb, oa, ob)
    crossing = (d.reshape(m, L, -1) <= robot.link_radius).any(axis=(1, 2))
    return near_end | crossing


def ref_collides(robot, coords, obstacle):
    if isinstance(robot, PolygonRobot):
        return _ref_polygon(robot, coords, obstacle)
    if isinstance(robot, ChainRobot):
        return _ref_chain(robot, coords, obstacle)
    return signed_distance(obstacle, robot._pos(coords)) <= robot.radius


def ref_in_workspace(robot, coords, lo, hi):
    """Every posed vertex, joint or position inside [lo, hi], shrunk by the
    robot's radius (0 for a point or polygon)."""
    body, r = robot.body(coords), robot.radius
    return np.all((body >= lo + r) & (body <= hi - r), axis=(1, 2))


def ref_valid_mask(v: LevelValidity, coords):
    coords = np.asarray(coords, dtype=float)
    ok = np.ones(len(coords), dtype=bool)
    if v.workspace_lo is not None:
        ok &= ref_in_workspace(v.robot, coords, v.workspace_lo,
                               v.workspace_hi)
    for obs in v.obstacles:
        if not ok.any():
            break
        idx = np.nonzero(ok)[0]
        ok[idx] &= ~ref_collides(v.robot, coords[idx], obs)
    return ok


# -- random worlds -----------------------------------------------------------

unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def boxes(draw, dim=2):
    lo = [draw(st.floats(0.0, 0.8)) for _ in range(dim)]
    hi = [x + draw(st.floats(0.005, 0.3)) for x in lo]
    return Box(lo, hi)


@st.composite
def discs(draw, dim=2):
    return Disc([draw(unit) for _ in range(dim)],
                draw(st.floats(0.005, 0.3)))


@st.composite
def star_vertices(draw, scale, n_max=7):
    """A simple CCW polygon, star-shaped around the origin it contains:
    jittered increasing angles with gaps below pi, random radii."""
    n = draw(st.integers(3, n_max))
    sector = 2 * math.pi / n
    angles = [i * sector + draw(st.floats(0.0, 0.45 * sector))
              for i in range(n)]
    radii = draw(st.lists(st.floats(0.3 * scale, scale), min_size=n,
                          max_size=n))
    return np.array([[r * math.cos(t), r * math.sin(t)]
                     for r, t in zip(radii, angles)])


@st.composite
def polygons(draw):
    v = draw(star_vertices(0.2)) + np.array([draw(unit), draw(unit)])
    try:
        return Polygon(v)
    except ValueError:      # near-collinear draw
        return Box([0.1, 0.1], [0.2, 0.2])


def obstacles(dim=2, max_size=6):
    kinds = [boxes(dim), discs(dim)] + ([polygons()] if dim == 2 else [])
    return st.lists(st.one_of(kinds), max_size=max_size)


@st.composite
def robots(draw):
    kind = draw(st.sampled_from(["point", "disc", "polygon", "chain"]))
    if kind == "point":
        return PointRobot()
    if kind == "disc":
        return DiscRobot(radius=draw(st.floats(0.005, 0.1)))
    if kind == "polygon":
        return PolygonRobot(vertices=draw(star_vertices(0.15)))
    lengths = tuple(draw(st.lists(st.floats(0.02, 0.3), min_size=1,
                                  max_size=3)))
    return ChainRobot(link_lengths=lengths,
                      link_radius=draw(st.floats(0.002, 0.05)),
                      angle_indices=tuple(range(2, 2 + len(lengths))))


def robot_dim(robot):
    if isinstance(robot, PolygonRobot):
        return 3
    if isinstance(robot, ChainRobot):
        return 2 + len(robot.link_lengths)
    return 2


def anchors(o):
    """Obstacle corners, where touching contacts decide the verdict, and
    its centre, where a robot posed there may swallow a small obstacle."""
    if isinstance(o, Disc):
        return [o.center]
    if isinstance(o, Box):
        return [o.lo, (o.lo + o.hi) / 2] + list(o.boundary_segments()[0]
                                                 if len(o.lo) == 2 else [])
    return [o.vertices.mean(axis=0)] + list(o.vertices)


def states(rng, robot, m, obstacle_list):
    """Uniform states, the first ones moved onto obstacle anchors."""
    dim = robot_dim(robot)
    x = rng.random((m, dim))
    x[:, 2:] = rng.uniform(-math.pi, math.pi, (m, dim - 2))
    points = [p for o in obstacle_list for p in anchors(o)]
    for i in range(min(m, len(points))):
        x[i, :2] = points[i][:2]
    return x


def validity(robot, obstacle_list, workspace):
    dim = robot_dim(robot)
    plane = RealVectorSpace([[0, 1], [0, 1]])
    space = plane if dim == 2 else ProductSpace(
        [plane, RealVectorSpace([[-math.pi, math.pi]] * (dim - 2))])
    lo, hi = (np.zeros(2), np.ones(2)) if workspace else (None, None)
    return LevelValidity(space=space, robot=robot, obstacles=obstacle_list,
                         workspace_lo=lo, workspace_hi=hi)


class TestWorldEqualsPerObstacle:
    @settings(max_examples=150, deadline=None)
    @given(robot=robots(), obstacle_list=obstacles(),
           workspace=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_masks_bit_identical(self, robot, obstacle_list, workspace,
                                 seed):
        v = validity(robot, obstacle_list, workspace)
        x = states(np.random.default_rng(seed), robot, 60, obstacle_list)
        np.testing.assert_array_equal(v.valid_mask(x), ref_valid_mask(v, x))

    @settings(max_examples=10, deadline=None)
    @given(robot=robots(), obstacle_list=obstacles(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_batch_beyond_chunk_size(self, robot, obstacle_list, seed):
        v = validity(robot, obstacle_list, workspace=True)
        x = states(np.random.default_rng(seed), robot,
                   2 * PASS_SIZE + 7, obstacle_list)
        np.testing.assert_array_equal(v.valid_mask(x), ref_valid_mask(v, x))

    @settings(max_examples=60, deadline=None)
    @given(robot=robots(), obstacle_list=obstacles(),
           workspace=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           cuts=st.lists(st.integers(0, 60), max_size=4))
    def test_row_wise(self, robot, obstacle_list, workspace, seed, cuts):
        """A row's verdict depends on that row alone: any split of the
        batch, its rows in any order, and the batch in C or Fortran order
        give the same mask bytes."""
        v = validity(robot, obstacle_list, workspace)
        rng = np.random.default_rng(seed)
        x = states(rng, robot, 60, obstacle_list)
        whole = v.valid_mask(x).tobytes()
        parts = [v.valid_mask(part) for part in np.split(x, sorted(cuts))]
        assert np.concatenate(parts).tobytes() == whole
        assert v.valid_mask(np.asfortranarray(x)).tobytes() == whole
        order = rng.permutation(len(x))
        assert v.valid_mask(x[order]).tobytes() == \
            v.valid_mask(x)[order].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 3]), data=st.data(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_point_robot_other_dimensions(self, dim, data, seed):
        obstacle_list = data.draw(obstacles(dim))
        robot = PointRobot(position_indices=tuple(range(dim)))
        v = LevelValidity(space=RealVectorSpace([[0, 1]] * dim),
                          robot=robot, obstacles=obstacle_list)
        x = np.random.default_rng(seed).random((50, dim))
        np.testing.assert_array_equal(v.valid_mask(x), ref_valid_mask(v, x))

    @pytest.mark.parametrize("robot", [
        PointRobot(), DiscRobot(radius=0.05),
        PolygonRobot(vertices=[[0, 0], [0.1, 0], [0, 0.1]]),
        ChainRobot(link_lengths=(0.1,), link_radius=0.01,
                   angle_indices=(2,))], ids=lambda r: type(r).__name__)
    def test_empty_obstacle_list(self, robot):
        v = validity(robot, [], workspace=True)
        x = states(np.random.default_rng(0), robot, 30, [])
        np.testing.assert_array_equal(v.valid_mask(x), ref_valid_mask(v, x))

    @pytest.mark.parametrize("obstacle", [
        Disc([0.5, 0.5], 0.01), Box([0.49, 0.49], [0.51, 0.51]),
        Polygon([[0.49, 0.49], [0.51, 0.49], [0.5, 0.51]])],
        ids=["disc", "box", "polygon"])
    def test_obstacle_inside_polygon_robot(self, obstacle):
        robot = PolygonRobot(vertices=[[0.1, 0], [0, 0.1], [-0.1, 0],
                                       [0, -0.1]])
        v = validity(robot, [obstacle], workspace=True)
        x = np.array([[0.5, 0.5, 0.3], [0.5, 0.8, 0.3]])
        np.testing.assert_array_equal(v.valid_mask(x), [False, True])
        np.testing.assert_array_equal(ref_valid_mask(v, x), [False, True])

    def test_mixed_box_dimensions_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^obstacles mix dimensions \[1, 2\]$"):
            LevelValidity(space=RealVectorSpace([[0, 1], [0, 1]]),
                          robot=PointRobot(),
                          obstacles=[Box([0.1, 0.1], [0.2, 0.2]),
                                     Box([0.5], [0.6])])

    def test_mixed_kind_dimensions_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^obstacles mix dimensions \[2, 3\]$"):
            LevelValidity(space=RealVectorSpace([[0, 1], [0, 1]]),
                          robot=PointRobot(),
                          obstacles=[Box([0.1, 0.1], [0.2, 0.2]),
                                     Disc([0.5] * 3, 0.1)])


# -- bounding-box broad phase -------------------------------------------------

BOUNDARY_OBSTACLES = [Box([0.375, 0.4375], [0.625, 0.5625]),
                      Disc([0.5, 0.5], 0.125),
                      Polygon([[0.375, 0.4375], [0.625, 0.5],
                               [0.4375, 0.625]])]
TOUCHING_ROBOTS = [
    PolygonRobot(vertices=[[0.0, 0.0], [0.125, 0.0625], [0.03125, 0.125]]),
    ChainRobot(link_lengths=(0.125, 0.0625), link_radius=0.03125,
               angle_indices=(2, 3))]


def poses_around(robot, obstacle, gap):
    """Poses whose robot box lies gap outside the obstacle's bounding box,
    beside each of its sides and corners; gap 0 touches it exactly.  At
    zero angles cos and sin are exact, so with these dyadic shapes every
    posed coordinate is exact too."""
    zero = np.zeros((1, robot_dim(robot)))
    body = robot.body(zero)[0]
    body_lo = body.min(axis=0) - robot.radius
    body_hi = body.max(axis=0) + robot.radius
    lo, hi = obstacle.bounding_box()
    poses = []
    for side in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1),
                 (1, 0), (1, 1)):
        xy = (lo + hi) / 2 - (body_lo + body_hi) / 2
        for i, s in enumerate(side):
            if s > 0:
                xy[i] = hi[i] + gap - body_lo[i]
            elif s < 0:
                xy[i] = lo[i] - gap - body_hi[i]
        poses.append(np.concatenate([xy, zero[0, 2:]]))
    return np.array(poses)


def meeting_pairs(robot, coords, obstacle_list):
    """(m, n) whether pose i's box (widened by the link radius) meets
    obstacle j's bounding box widened by BOX_MARGIN."""
    body, pad = robot.body(coords), robot.radius
    lo, hi = body.min(axis=1) - pad, body.max(axis=1) + pad
    olo = np.array([o.bounding_box()[0] for o in obstacle_list]) - BOX_MARGIN
    ohi = np.array([o.bounding_box()[1] for o in obstacle_list]) + BOX_MARGIN
    return ((lo[:, None] <= ohi) & (hi[:, None] >= olo)).all(axis=2)


def body_segments(robot, body):
    """Each posed body's segments: a polygon's edges, a chain's links
    -> (a, b), each (m, k, 2)."""
    if isinstance(robot, ChainRobot):
        return body[:, :-1], body[:, 1:]
    return body, np.roll(body, -1, axis=1)


def staged_rows(robot, coords, obstacle_list):
    """The rows of the segment stage of the exact test, for poses inside
    the workspace: each pair of a pose and an obstacle with segments whose
    boxes meet, and that neither a vertex or joint near the obstacle nor
    (for a polygon robot) an obstacle corner inside the polygon decides;
    each of the pose's edges or links whose box (widened by the link
    radius) meets the obstacle's bounding box widened by BOX_MARGIN,
    against each segment of the obstacle -> list of the four end points'
    bytes per row."""
    chain = isinstance(robot, ChainRobot)
    pad = robot.radius
    body = robot.body(coords)
    a, b = body_segments(robot, body)
    meets = meeting_pairs(robot, coords, obstacle_list)
    rows = []
    for j, o in enumerate(obstacle_list):
        if o.boundary_segments() is None:
            continue
        oa, ob = o.boundary_segments()
        lo, hi = o.bounding_box()
        for i in np.flatnonzero(meets[:, j]):
            if (signed_distance(o, body[i]) <= pad).any() or (
                    not chain and polygons_contain(body[i][None], oa).any()):
                continue
            seg_lo = np.minimum(a[i], b[i]) - pad
            seg_hi = np.maximum(a[i], b[i]) + pad
            kept = ((seg_lo <= hi + BOX_MARGIN)
                    & (seg_hi >= lo - BOX_MARGIN)).all(axis=1)
            rows += [(a[i, e].tobytes(), b[i, e].tobytes(), p.tobytes(),
                      q.tobytes())
                     for e in np.flatnonzero(kept) for p, q in zip(oa, ob)]
    return rows


class TestBroadPhase:
    @pytest.mark.parametrize("robot", TOUCHING_ROBOTS,
                             ids=lambda r: type(r).__name__)
    @pytest.mark.parametrize("obstacle", BOUNDARY_OBSTACLES,
                             ids=["box", "disc", "polygon"])
    def test_touching_the_bounding_box(self, robot, obstacle):
        v = validity(robot, [obstacle], workspace=False)
        touching = poses_around(robot, obstacle, 0.0)
        got = v.valid_mask(touching)
        np.testing.assert_array_equal(got, ref_valid_mask(v, touching))
        if isinstance(obstacle, Box):
            # a box fills its bounding box: every side contact collides
            assert not got[[1, 3, 4, 6]].any()
        outside = poses_around(robot, obstacle, 1e-7)
        np.testing.assert_array_equal(v.valid_mask(outside),
                                      ref_valid_mask(v, outside))
        assert v.valid_mask(outside).all()

    @pytest.mark.parametrize("robot", TOUCHING_ROBOTS,
                             ids=lambda r: type(r).__name__)
    def test_exact_test_runs_on_candidates_only(self, robot, monkeypatch):
        rows = []
        for name in ("segment_crossing", "segment_segment_dist"):
            original = getattr(validity_module, name)

            def counted(*ends, _original=original):
                rows.extend(zip(*([r.tobytes() for r in e] for e in ends)))
                return _original(*ends)
            monkeypatch.setattr(validity_module, name, counted)
        v = validity(robot, BOUNDARY_OBSTACLES, workspace=True)
        far = np.zeros((50, robot_dim(robot)))
        far[:, 0] = np.linspace(0.05, 0.1, 50)
        far[:, 1] = 0.1
        assert v.valid_mask(far).all()
        assert rows == []
        touching = poses_around(robot, BOUNDARY_OBSTACLES[0], 0.0)
        assert ref_in_workspace(robot, touching, v.workspace_lo,
                                v.workspace_hi).all()
        near = np.concatenate([far, touching])
        np.testing.assert_array_equal(v.valid_mask(near),
                                      ref_valid_mask(v, near))
        want = staged_rows(robot, touching, BOUNDARY_OBSTACLES)
        assert sorted(rows) == sorted(want)
        # the stages drop rows: every boundary segment of each obstacle with
        # segments (the box and the polygon) whose box meets a touching
        # pose's box, against each of that pose's links or edges, is more
        per_pose = len(robot.vertices) if isinstance(robot, PolygonRobot) \
            else len(robot.link_lengths)
        meets = meeting_pairs(robot, touching, BOUNDARY_OBSTACLES)
        segments = sum(meets[:, j].sum() * len(o.boundary_segments()[0])
                       for j, o in enumerate(BOUNDARY_OBSTACLES)
                       if o.boundary_segments() is not None)
        assert 0 < len(rows) < segments * per_pose

    @pytest.mark.parametrize("robot", TOUCHING_ROBOTS,
                             ids=lambda r: type(r).__name__)
    def test_exact_test_sees_meeting_pairs_only(self, robot, monkeypatch):
        """The exact test gets exactly the (pose, obstacle) pairs whose
        boxes meet, among the poses inside the workspace: each posed body
        once per obstacle its box meets."""
        seen = []
        original = CollisionWorld.points_near

        def points_near(self, pts, obs, *rest, **kw):
            seen.extend(zip((p.tobytes() for p in pts), obs.tolist()))
            return original(self, pts, obs, *rest, **kw)
        monkeypatch.setattr(CollisionWorld, "points_near", points_near)
        v = validity(robot, BOUNDARY_OBSTACLES, workspace=True)
        rng = np.random.default_rng(11)
        x = np.concatenate(
            [states(rng, robot, 300, BOUNDARY_OBSTACLES)]
            + [poses_around(robot, o, gap) for o in BOUNDARY_OBSTACLES
               for gap in (0.0, 1e-7)])
        np.testing.assert_array_equal(v.valid_mask(x), ref_valid_mask(v, x))
        inside = ref_in_workspace(robot, x, v.workspace_lo, v.workspace_hi)
        meets = meeting_pairs(robot, x, BOUNDARY_OBSTACLES) & inside[:, None]
        body = robot.body(x)
        want = [(body[i].tobytes(), int(j))
                for i, j in zip(*np.nonzero(meets))]
        assert sorted(seen) == sorted(want)
        # the broad phase drops most pairs of the poses it keeps
        kept = meets.any(axis=1)
        assert 0 < len(want) < kept.sum() * len(BOUNDARY_OBSTACLES)

    @pytest.mark.parametrize("robot", TOUCHING_ROBOTS,
                             ids=lambda r: type(r).__name__)
    def test_empty_world_with_workspace(self, robot):
        """An empty world has (0, 2) boxes: no pairs, and only the
        workspace test decides."""
        v = validity(robot, [], workspace=True)
        assert v._world.aabb_lo.shape == v._world.aabb_hi.shape == (0, 2)
        pose, obs = v._world.broad_phase(np.zeros((4, 2)), np.ones((4, 2)))
        assert pose.tolist() == obs.tolist() == []
        x = states(np.random.default_rng(5), robot, 300, [])
        want = ref_valid_mask(v, x)
        assert 0 < want.sum() < len(x)
        np.testing.assert_array_equal(v.valid_mask(x), want)


def face_robot(kind, side):
    """A robot and its pose at y = 0 whose long edge or link lies along
    y = 0, at angle 0, so that its posed coordinates are exact, and spans
    the x range of BOUNDARY_OBSTACLES' box.  For side +1 (-1) the robot
    sits above (below) the box: the polygon's bar lies beyond the long
    edge, away from the box, and an arm 0.0625 or more to the right of
    the box reaches down (up) across the box's face, so the pose's box
    meets the box whatever the long segment's gap -> (robot, coords)."""
    if kind == "polygon":
        bar = [[0.0, -0.0625], [0.5, -0.0625], [0.5, 0.25], [0.4375, 0.25],
               [0.4375, 0.0], [0.0, 0.0]]
        if side > 0:
            bar = [[x, -y] for x, y in bar[::-1]]
        return PolygonRobot(vertices=bar), np.array([0.25, 0.0, 0.0])
    robot = ChainRobot(link_lengths=(0.5, 0.125), link_radius=0.03125,
                       angle_indices=(2, 3))
    return robot, np.array([0.25, 0.0, 0.0, -side * math.pi / 2])


class TestSegmentBroadPhase:
    """segment_pairs keeps a body segment exactly when its own box,
    widened by the link radius, meets the obstacle's bounding box widened
    by BOX_MARGIN: here one long edge or link of a pose whose box meets
    the obstacle's through another segment."""

    @pytest.mark.parametrize("kind", ["polygon", "chain"])
    @pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
    def test_segment_box_at_the_margin(self, kind, side):
        box = BOUNDARY_OBSTACLES[0]
        robot, pose = face_robot(kind, side)
        v = validity(robot, [box], workspace=True)
        pad = robot.radius
        face = box.bounding_box()[side > 0][1]
        widened = face + side * BOX_MARGIN
        # the gap between the long segment's box and the box's face: 0,
        # half the crossing kernel's 1e-12 touch tolerance, BOX_MARGIN as
        # the broad phase rounds it, and one ulp beyond that
        targets = [face, face + side * 5e-13, widened,
                   np.nextafter(widened, side * np.inf)]
        x = np.repeat(pose[None], len(targets), axis=0)
        x[:, 1] = [t + side * pad for t in targets]
        a, b = body_segments(robot, robot.body(x))
        flat = (a[..., 1] == b[..., 1]) & (a[..., 1] == x[:, 1, None])
        assert (flat.sum(axis=1) == 1).all()
        long = int(np.flatnonzero(flat[0])[0])
        near = (np.minimum if side > 0 else np.maximum)(
            a[:, long, 1], b[:, long, 1]) - side * pad
        assert near.tolist() == targets
        assert meeting_pairs(robot, x, [box]).all()
        assert ref_in_workspace(robot, x, v.workspace_lo,
                                v.workspace_hi).all()
        for i in range(len(x)):
            _, edge, _ = v._world.segment_pairs(
                a[i:i + 1], b[i:i + 1], pad, np.zeros(1, dtype=int))
            assert set(edge.tolist()) == ({long} if i < 3 else set())
        want = ref_valid_mask(v, x)
        # the touching segment collides; 5e-13 apart only a polygon's edge
        # does, by the crossing kernel's touch tolerance
        assert want.tolist() == [False, kind == "chain", True, True]
        np.testing.assert_array_equal(v.valid_mask(x), want)


class TestOnePosedPass:
    @pytest.mark.parametrize("robot", TOUCHING_ROBOTS,
                             ids=lambda r: type(r).__name__)
    def test_each_chunk_posed_once(self, robot, monkeypatch):
        """The workspace test and the collision test share one pose of
        each slice of PASS_SIZE states."""
        v = validity(robot, BOUNDARY_OBSTACLES, workspace=True)
        n = PASS_SIZE
        rng = np.random.default_rng(2)
        small = states(rng, robot, n, BOUNDARY_OBSTACLES)
        large = states(rng, robot, 2 * n + 7, BOUNDARY_OBSTACLES)
        want = [ref_valid_mask(v, x) for x in (small, large)]
        posed = []
        original = type(robot).body

        def counted(self, coords):
            posed.append(len(coords))
            return original(self, coords)
        monkeypatch.setattr(type(robot), "body", counted)
        np.testing.assert_array_equal(v.valid_mask(small), want[0])
        assert posed == [n]
        posed.clear()
        np.testing.assert_array_equal(v.valid_mask(large), want[1])
        assert posed == [n, n, 7]

    @pytest.mark.parametrize("robot", TOUCHING_ROBOTS,
                             ids=lambda r: type(r).__name__)
    def test_small_batch_in_one_pass(self, robot, monkeypatch):
        """A planner-sized batch, 256 states, is posed once and tested by
        one _collides call."""
        v = validity(robot, BOUNDARY_OBSTACLES, workspace=True)
        x = states(np.random.default_rng(3), robot, 256, BOUNDARY_OBSTACLES)
        want = ref_valid_mask(v, x)
        posed, pairs = count_passes(robot, monkeypatch)
        np.testing.assert_array_equal(v.valid_mask(x), want)
        assert posed == [256]
        assert len(pairs) == 1 and pairs[0] > 0


def count_passes(robot, monkeypatch):
    """Record the rows of every body call of robot's class and the pairs
    of every _collides call of robot -> (posed, pairs) lists."""
    posed, pairs = [], []
    body, collides = type(robot).body, robot._collides

    def counted_body(self, coords):
        posed.append(len(coords))
        return body(self, coords)

    def counted_collides(b, world, obs):
        pairs.append(len(obs))
        return collides(b, world, obs)
    monkeypatch.setattr(type(robot), "body", counted_body)
    monkeypatch.setattr(robot, "_collides", counted_collides)
    return posed, pairs


def scattered_obstacles(rng, n):
    """n boxes, discs and triangles of 0.05-0.25 across the unit square."""
    out = []
    for kind, (x, y), size in zip(rng.integers(0, 3, n), rng.random((n, 2)),
                                  rng.uniform(0.05, 0.25, n)):
        if kind == 0:
            out.append(Box([x, y], [x + size, y + size]))
        elif kind == 1:
            out.append(Disc([x, y], size / 2))
        else:
            out.append(Polygon([[x, y], [x + size, y],
                                [x + size / 3, y + size]]))
    return out


class TestPassBound:
    """Each collision pass poses and tests at most PASS_SIZE states, and
    the bound changes no verdict."""

    @pytest.mark.parametrize("size", [1, 2, 7])
    @settings(max_examples=25, deadline=None)
    @given(robot=robots(), obstacle_list=obstacles(max_size=40),
           workspace=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_any_bound_gives_the_same_masks(self, size, robot,
                                            obstacle_list, workspace, seed):
        v = validity(robot, obstacle_list, workspace)
        x = states(np.random.default_rng(seed), robot, 30, obstacle_list)
        want = ref_valid_mask(v, x)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(validity_module, "PASS_SIZE", size)
            assert v.valid_mask(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("robot", [PointRobot(), DiscRobot(radius=0.02)],
                             ids=lambda r: type(r).__name__)
    def test_no_pass_exceeds_the_bound(self, robot, monkeypatch):
        """10,000 states among 40 obstacles: a point or a disc tests them
        against the obstacles in two passes, of PASS_SIZE states and of
        the rest (TestOnePosedPass counts a polygon's and a chain's)."""
        rng = np.random.default_rng(5)
        obstacle_list = scattered_obstacles(rng, 40)
        v = validity(robot, obstacle_list, workspace=True)
        x = states(rng, robot, 10_000, obstacle_list)
        want = ref_valid_mask(v, x)
        world, tested = v._world, []
        near_points = world.near_points

        def counted(pts, margin):
            tested.append(len(pts))
            return near_points(pts, margin)
        monkeypatch.setattr(world, "near_points", counted)
        assert v.valid_mask(x).tobytes() == want.tobytes()
        assert tested == [PASS_SIZE, 10_000 - PASS_SIZE]


# -- dense point-sampled reference --------------------------------------------

def body_points(robot, coords, rng, n=200):
    """n points of each posed robot body -> (m, n, 2).  A polygon robot
    drawn by star_vertices is star-shaped around its local origin, so its
    points lie in the triangles (origin, v[i], v[i + 1]); a chain's lie
    within link_radius of its links."""
    m = len(coords)
    if isinstance(robot, PolygonRobot):
        v = robot.vertices
        i = rng.integers(0, len(v), (m, n))
        t, s = rng.random((m, n, 1)), rng.random((m, n, 1))
        s[:, :len(v)] = 1.0                      # on the boundary
        local = s * (v[i] + t * (v[(i + 1) % len(v)] - v[i]))
        x, y, theta = (coords[:, k, None] for k in robot.pose_indices)
        c, sn = np.cos(theta), np.sin(theta)
        return np.stack([c * local[..., 0] - sn * local[..., 1] + x,
                         sn * local[..., 0] + c * local[..., 1] + y],
                        axis=-1)
    j = robot.body(coords)
    link = rng.integers(0, len(j[0]) - 1, (m, n))
    a = np.take_along_axis(j, link[..., None], axis=1)
    b = np.take_along_axis(j, link[..., None] + 1, axis=1)
    t = rng.random((m, n, 1))
    rho = robot.link_radius * rng.random((m, n, 1))
    phi = rng.uniform(0, 2 * math.pi, (m, n))
    return a + t * (b - a) + rho * np.stack([np.cos(phi), np.sin(phi)],
                                            axis=-1)


class TestDenseReference:
    @settings(max_examples=100, deadline=None)
    @given(robot=robots().filter(
               lambda r: isinstance(r, (PolygonRobot, ChainRobot))),
           obstacle_list=obstacles(), seed=st.integers(0, 2 ** 32 - 1))
    def test_body_point_inside_an_obstacle_collides(self, robot,
                                                    obstacle_list, seed):
        """A pose with a body point more than 1e-9 deep in an obstacle is
        invalid, whatever the broad phase and the exact tests decide."""
        v = validity(robot, obstacle_list, workspace=False)
        rng = np.random.default_rng(seed)
        x = states(rng, robot, 40, obstacle_list)
        pts = body_points(robot, x, rng)
        deep = np.zeros(len(x), dtype=bool)
        for o in obstacle_list:
            sd = signed_distance(o, pts.reshape(-1, 2)).reshape(len(x), -1)
            deep |= (sd < -1e-9).any(axis=1)
        assert not (v.valid_mask(x) & deep).any()


# -- segments_intersect properties --------------------------------------------

coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)


def segment_batch(n_max=4):
    return st.lists(st.tuples(point, point), min_size=1, max_size=n_max) \
        .map(lambda segs: (np.array([a for a, _ in segs]),
                           np.array([b for _, b in segs])))


class TestSegmentsIntersect:
    @settings(max_examples=300, deadline=None)
    @given(a=segment_batch(), b=segment_batch())
    def test_symmetric(self, a, b):
        np.testing.assert_array_equal(segments_intersect(*a, *b),
                                      segments_intersect(*b, *a).T)

    @settings(max_examples=300, deadline=None)
    @given(p=point, q=point, r=point)
    def test_shared_endpoint_intersects(self, p, q, r):
        p, q, r = (np.array([x]) for x in (p, q, r))
        for a in ((p, q), (q, p)):
            for b in ((p, r), (r, p)):
                assert segments_intersect(*a, *b)[0, 0]

    @settings(max_examples=500, deadline=None)
    @given(p=point, angle=st.floats(0.0, 2 * math.pi),
           s=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    def test_collinear_disjoint_never_intersect(self, p, angle, s):
        """Two pieces of one line, more than 1e-9 apart, in every
        orientation and argument order."""
        s = sorted(s)
        assume(s[2] - s[1] > 1e-9)
        u = np.array([math.cos(angle), math.sin(angle)])
        q0, q1, q2, q3 = ((np.array(p) + si * u)[None, :] for si in s)
        for a in ((q0, q1), (q1, q0)):
            for b in ((q2, q3), (q3, q2)):
                assert not segments_intersect(*a, *b)[0, 0]
                assert not segments_intersect(*b, *a)[0, 0]

    @settings(max_examples=500, deadline=None)
    @given(a0=point, a1=point, b0=point, b1=point,
           gap=st.floats(2 * BOX_MARGIN, 1.0), axis=st.sampled_from([0, 1]),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_apart_beyond_margin_never_intersect(self, a0, a1, b0, b1, gap,
                                                 axis, sign):
        """The broad phase's premise: boxes more than BOX_MARGIN apart hold
        no intersecting pair.  B is moved beside A along one axis."""
        a = np.array([a0, a1])
        b = np.array([b0, b1])
        if sign > 0:
            b[:, axis] += a[:, axis].max() - b[:, axis].min() + gap
        else:
            b[:, axis] -= b[:, axis].max() - a[:, axis].min() + gap
        apart = max((b.min(axis=0) - a.max(axis=0)).max(),
                    (a.min(axis=0) - b.max(axis=0)).max())
        assert apart > BOX_MARGIN
        assert not segments_intersect(a[:1], a[1:], b[:1], b[1:])[0, 0]


# -- elementwise kernels against the matrix forms ---------------------------

# a coarse lattice makes collinear, touching and shared-endpoint segments
# and points on edges common; plain floats cover the general position
lattice = st.integers(-4, 4).map(lambda v: v / 4)
mixed = st.one_of(lattice, st.floats(-1.0, 1.0))
lattice_point = st.tuples(mixed, mixed)


def point_batch(n_max=5):
    return st.lists(lattice_point, min_size=1, max_size=n_max).map(np.array)


def lattice_segments(n_max=5):
    return st.lists(st.tuples(lattice_point, lattice_point), min_size=1,
                    max_size=n_max).map(
        lambda segs: (np.array([a for a, _ in segs]),
                      np.array([b for _, b in segs])))


def row_pairs(draw, m, k):
    """Random (i, j) index pairs, every pair at least once."""
    i, j = np.divmod(np.arange(m * k), k)
    extra = draw(st.lists(st.tuples(st.integers(0, m - 1),
                                    st.integers(0, k - 1)), max_size=6))
    i = np.concatenate([i, [a for a, _ in extra]]).astype(int)
    j = np.concatenate([j, [b for _, b in extra]]).astype(int)
    return i, j


def gathered(x, rows, layout):
    """x[rows], row-major or column-major."""
    g = x[rows]
    return np.asfortranarray(g) if layout == "F" else g


layouts = st.sampled_from(["C", "F"])


class TestKernelsEqualMatrixForms:
    """Each elementwise kernel fed gathered row pairs, in either memory
    order, gives the bytes of the matrix form at those pairs."""

    @settings(max_examples=300, deadline=None)
    @given(a=lattice_segments(), b=lattice_segments(), data=st.data(),
           layout=layouts)
    def test_segment_crossing(self, a, b, data, layout):
        i, j = row_pairs(data.draw, len(a[0]), len(b[0]))
        got = segment_crossing(*(gathered(x, i, layout) for x in a),
                               *(gathered(x, j, layout) for x in b))
        assert got.tobytes() == segments_intersect(*a, *b)[i, j].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(a=lattice_segments(), b=lattice_segments(), data=st.data(),
           layout=layouts)
    def test_segment_segment_dist(self, a, b, data, layout):
        i, j = row_pairs(data.draw, len(a[0]), len(b[0]))
        got = segment_segment_dist(*(gathered(x, i, layout) for x in a),
                                   *(gathered(x, j, layout) for x in b))
        want = segments_to_segments_dist(*a, *b)[i, j]
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(p=point_batch(), seg=lattice_segments(), data=st.data(),
           layout=layouts)
    def test_point_segment_dist(self, p, seg, data, layout):
        i, j = row_pairs(data.draw, len(p), len(seg[0]))
        got = point_segment_dist(gathered(p, i, layout),
                                 *(gathered(x, j, layout) for x in seg))
        want = points_to_segments_dist(p, *seg)[i, j]
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(p=point_batch(), data=st.data(), layout=layouts)
    def test_edge_crossings_parity(self, p, data, layout):
        """Per (polygon, point) pair, the parity of the crossings over the
        polygon's gathered edges is polygons_contain."""
        n = data.draw(st.integers(3, 6))
        polys = np.array(data.draw(st.lists(
            st.lists(lattice_point, min_size=n, max_size=n), min_size=1,
            max_size=4)))
        i, j = row_pairs(data.draw, len(polys), len(p))
        a = gathered(polys, i, layout)
        b = gathered(np.roll(polys, -1, axis=1), i, layout)
        odd = np.logical_xor.reduce(
            edge_crossings(gathered(p, j, layout)[:, None], a, b), axis=1)
        assert odd.tobytes() == polygons_contain(polys, p)[i, j].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(p=point_batch(), corners=lattice_segments(), data=st.data(),
           layout=layouts)
    def test_box_and_disc_signed_distance(self, p, corners, data, layout):
        """Against each obstacle's signed_distance, and the broadcast form
        of near_points."""
        lo = np.minimum(*corners)
        hi = np.maximum(*corners) + 0.25
        radii = hi[:, 0] - lo[:, 0]
        i, j = row_pairs(data.draw, len(p), len(lo))
        q = gathered(p, i, layout)
        boxes = box_signed_distance(q, gathered(lo, j, layout),
                                    gathered(hi, j, layout))
        discs = disc_signed_distance(q, gathered(lo, j, layout), radii[j])
        box_matrix = np.stack([signed_distance(Box(a, b), p)
                               for a, b in zip(lo, hi)], axis=1)
        disc_matrix = np.stack([signed_distance(Disc(c, r), p)
                                for c, r in zip(lo, radii)], axis=1)
        assert boxes.tobytes() == box_matrix[i, j].tobytes()
        assert discs.tobytes() == disc_matrix[i, j].tobytes()
        assert box_signed_distance(p[:, None], lo, hi).tobytes() == \
            box_matrix.tobytes()


# -- verdict-only kernels against their references -------------------------


def point_segment_dist_reference(p, a, b):
    """point_segment_dist's reference, with np.sum and np.linalg.norm."""
    d = b - a
    dd = np.sum(d * d, axis=-1)
    ap = p - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.sum(ap * d, axis=-1) / dd
    t = np.where(dd == 0.0, 0.0, t)
    t = np.clip(t, 0.0, 1.0)
    closest = a + t[..., None] * d
    return np.linalg.norm(p - closest, axis=-1)


def cross_reference(o, p, q):
    """(p - o) x (q - o), one coordinate difference at a time."""
    return ((p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1])
            - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0]))


def cross_products(a0, a1, b0, b1):
    """The four cross products of segment_crossing_reference."""
    return (cross_reference(b0, b1, a0), cross_reference(b0, b1, a1),
            cross_reference(a0, a1, b0), cross_reference(a0, a1, b1))


def segment_crossing_reference(a0, a1, b0, b1):
    """segment_crossing's reference: the four cross products from one
    helper each, and the four touch terms always computed."""
    def on_segment(o, p, q, c):
        return (np.abs(c) <= 1e-12) & \
            (q[..., 0] >= np.minimum(o[..., 0], p[..., 0]) - 1e-12) & \
            (q[..., 0] <= np.maximum(o[..., 0], p[..., 0]) + 1e-12) & \
            (q[..., 1] >= np.minimum(o[..., 1], p[..., 1]) - 1e-12) & \
            (q[..., 1] <= np.maximum(o[..., 1], p[..., 1]) + 1e-12)

    d1, d2, d3, d4 = cross_products(a0, a1, b0, b1)
    a_lo, a_hi = np.minimum(a0, a1), np.maximum(a0, a1)
    b_lo, b_hi = np.minimum(b0, b1), np.maximum(b0, b1)
    boxes_meet = (a_lo[..., 0] <= b_hi[..., 0]) & \
        (b_lo[..., 0] <= a_hi[..., 0]) & \
        (a_lo[..., 1] <= b_hi[..., 1]) & (b_lo[..., 1] <= a_hi[..., 1])
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & boxes_meet
    touch = (on_segment(b0, b1, a0, d1) | on_segment(b0, b1, a1, d2)
             | on_segment(a0, a1, b0, d3) | on_segment(a0, a1, b1, d4))
    return proper | touch


def segment_segment_dist_reference(a0, a1, b0, b1):
    """segment_segment_dist's reference: the least of four point-segment
    distances, each through point_segment_dist_reference."""
    d = np.minimum(
        np.minimum(point_segment_dist_reference(a0, b0, b1),
                   point_segment_dist_reference(a1, b0, b1)),
        np.minimum(point_segment_dist_reference(b0, a0, a1),
                   point_segment_dist_reference(b1, a0, a1)))
    return np.where(segment_crossing_reference(a0, a1, b0, b1), 0.0, d)


# box faces on a lattice that holds 0.0, where one ulp outside a face is a
# subnormal whose square is 0
box_bound = st.one_of(st.just(0.0), st.integers(-8, 8).map(lambda v: v / 4),
                      st.floats(-2.0, 2.0))
margins = st.one_of(st.just(0.0), st.floats(1e-9, 1.0),
                    st.sampled_from([0.25, 0.125]))


@st.composite
def boxes_and_points(draw):
    """Boxes [lo, hi] of 1-3 dimensions, a margin, and points whose every
    coordinate lies on a face of one box, one ulp inside or outside it,
    at the margin from it or anywhere: faces, edges and corners."""
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    lo = np.array([[draw(box_bound) for _ in range(dim)] for _ in range(k)])
    hi = lo + np.array([[draw(st.sampled_from([0.25, 1.0, 1e-3]))
                         for _ in range(dim)] for _ in range(k)])
    margin = draw(margins)
    pts = []
    for _ in range(draw(st.integers(1, 8))):
        j = draw(st.integers(0, k - 1))
        row = []
        for i in range(dim):
            face = draw(st.sampled_from([lo[j, i], hi[j, i]]))
            out = -1.0 if face == lo[j, i] else 1.0
            row.append(draw(st.sampled_from([
                face, np.nextafter(face, -np.inf), np.nextafter(face, np.inf),
                face + out * margin,
                np.nextafter(face + out * margin, out * np.inf),
                np.nextafter(face + out * margin, -out * np.inf),
                (lo[j, i] + hi[j, i]) / 2, draw(st.floats(-3.0, 3.0))])))
        pts.append(row)
    return lo, hi, margin, np.array(pts)


def contact_pairs(n_max=6):
    """Batches of segment pairs that share an endpoint, meet in a T (one
    starts on the other), lie on one line, or lie anywhere on the lattice;
    each pair in either argument order and direction."""
    @st.composite
    def pair(draw):
        a0 = np.array(draw(lattice_point))
        a1 = np.array(draw(lattice_point))
        kind = draw(st.sampled_from(["shared", "t", "collinear", "any"]))
        s = [draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0, -0.5, 1.5]),
                            st.floats(-2.0, 2.0))) for _ in range(2)]
        on = [a0 + x * (a1 - a0) for x in s]
        if kind == "shared":
            b0, b1 = draw(st.sampled_from([a0, a1])), np.array(
                draw(lattice_point))
        elif kind == "t":
            b0 = on[0]
            b1 = b0 + np.array([a0[1] - a1[1], a1[0] - a0[0]]) * s[1]
        elif kind == "collinear":
            b0, b1 = on
        else:
            b0, b1 = (np.array(draw(lattice_point)) for _ in range(2))
        segs = [(a0, a1), (b0, b1)]
        if draw(st.booleans()):
            segs.reverse()
        return [(q, p) if draw(st.booleans()) else (p, q) for p, q in segs]

    return st.lists(pair(), min_size=1, max_size=n_max).map(
        lambda pairs: tuple(np.array([p[i][j] for p in pairs])
                            for i in (0, 1) for j in (0, 1)))


class TestVerdictKernels:
    """The verdict-only kernels give the bytes of their references."""

    @settings(max_examples=400, deadline=None)
    @given(case=boxes_and_points())
    def test_box_near_is_signed_distance_within_margin(self, case):
        lo, hi, margin, pts = case
        want = box_signed_distance(pts[:, None], lo, hi) <= margin
        got = box_near(pts[:, None], lo, hi, margin)
        assert got.tobytes() == want.tobytes()

    def test_box_near_one_ulp_outside_a_face_at_zero(self):
        """Outside by a subnormal, whose square is 0: not near at margin 0
        (closed containment), near at any normal positive margin."""
        lo, hi = np.zeros(2), np.ones(2)
        pts = np.array([[np.nextafter(0.0, -1.0), 0.5],
                        [0.5, np.nextafter(1.0, 2.0)], [0.0, 0.0]])
        assert box_near(pts, lo, hi, 0.0).tolist() == [False, False, True]
        assert (box_signed_distance(pts, lo, hi) <= 0.0).tolist() == \
            [False, False, True]
        assert box_near(pts, lo, hi, 1e-9).all()

    @settings(max_examples=400, deadline=None)
    @given(pairs=contact_pairs(), layout=layouts)
    def test_segment_crossing_on_contacts(self, pairs, layout):
        a0, a1, b0, b1 = (np.asfortranarray(x) if layout == "F" else x
                          for x in pairs)
        want = segment_crossing_reference(a0, a1, b0, b1)
        assert segment_crossing(a0, a1, b0, b1).tobytes() == want.tobytes()
        # every pair against every pair, as the collision world pairs them
        m = [x[:, None] for x in (a0, a1)] + [x[None] for x in (b0, b1)]
        assert segment_crossing(*m).tobytes() == \
            segment_crossing_reference(*m).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 8),
           k=st.integers(1, 8))
    def test_segment_crossing_in_general_position(self, seed, m, k):
        """Batches with no cross product within 1e-12 of zero: the touch
        terms are skipped and every pair is a proper crossing or none."""
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, (2, m, 2))
        b = rng.uniform(-1.0, 1.0, (2, k, 2))
        pairs = [x[:, None] for x in a] + [x[None] for x in b]
        assume(not any((np.abs(c) <= 1e-12).any()
                       for c in cross_products(*pairs)))
        assert segment_crossing(*pairs).tobytes() == \
            segment_crossing_reference(*pairs).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(p=point_batch(), seg=lattice_segments(), data=st.data(),
           layout=layouts)
    def test_point_segment_dist_equals_linalg_norm(self, p, seg, data,
                                                   layout):
        i, j = row_pairs(data.draw, len(p), len(seg[0]))
        args = (gathered(p, i, layout),
                *(gathered(x, j, layout) for x in seg))
        assert point_segment_dist(*args).tobytes() == \
            point_segment_dist_reference(*args).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(a=lattice_segments(), b=lattice_segments(), data=st.data(),
           layout=layouts)
    def test_segment_segment_dist_equals_four_point_distances(
            self, a, b, data, layout):
        i, j = row_pairs(data.draw, len(a[0]), len(b[0]))
        args = (*(gathered(x, i, layout) for x in a),
                *(gathered(x, j, layout) for x in b))
        assert segment_segment_dist(*args).tobytes() == \
            segment_segment_dist_reference(*args).tobytes()
        # the chain robot's shapes: a pose's links against one segment
        args = (*(gathered(x, i, layout)[:, None] for x in a),
                *(gathered(x, j, layout)[:, None] for x in b))
        assert segment_segment_dist(*args).tobytes() == \
            segment_segment_dist_reference(*args).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(1, 4), data=st.data(), layout=layouts)
    def test_disc_signed_distance_equals_linalg_norm(self, dim, data,
                                                     layout):
        rows = st.lists(st.lists(mixed, min_size=dim, max_size=dim),
                        min_size=1, max_size=6).map(np.array)
        p, c = data.draw(rows), data.draw(rows)
        r = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(c),
                                        max_size=len(c))))
        i, j = row_pairs(data.draw, len(p), len(c))
        q, cj = gathered(p, i, layout), gathered(c, j, layout)
        want = np.linalg.norm(q - cj, axis=-1) - r[j]
        assert disc_signed_distance(q, cj, r[j]).tobytes() == want.tobytes()


# -- every shipped level against the per-obstacle reference -----------------

SHIPPED_LEVELS = [
    pytest.param(path.name, k, id=f"{path.stem}-level{k}")
    for path in sorted(shipped_scenario_dir().glob("*.yaml"))
    for k in range(len(load_scenario(path).seq.levels))]


def shipped_poses_around(level, obstacle, gap):
    """States of level whose robot box lies gap outside the obstacle's
    bounding box, beside each of its sides and corners (poses_around,
    with a point or disc robot as a body of one point, in any
    dimension)."""
    robot, dim = level.validity.robot, level.space.dim
    if isinstance(robot, (PolygonRobot, ChainRobot)):
        poses = poses_around(robot, obstacle, gap)
        assert poses.shape[1] == dim
        return poses
    pad = robot.radius
    lo, hi = obstacle.bounding_box()
    states = []
    for side in itertools.product((-1, 0, 1), repeat=len(lo)):
        if not any(side):
            continue
        xy = (lo + hi) / 2
        for i, s in enumerate(side):
            if s > 0:
                xy[i] = hi[i] + gap + pad
            elif s < 0:
                xy[i] = lo[i] - gap - pad
        x = np.zeros(dim)
        x[list(robot.position_indices)] = xy
        states.append(x)
    return np.array(states)


class TestShippedWorlds:
    @pytest.mark.parametrize("name, index", SHIPPED_LEVELS)
    def test_valid_mask_equals_per_obstacle_reference(self, name, index):
        """Every level of every shipped scenario: 2,000 uniform states and
        the states touching each obstacle's bounding box or 1e-7 outside
        it, valid_mask byte-equal to the per-obstacle loop."""
        level = load_scenario(shipped_scenario_dir() / name).seq.levels[index]
        v = level.validity
        x = np.concatenate(
            [level.space.sample_uniform(np.random.default_rng(index), 2000)]
            + [shipped_poses_around(level, o, gap) for o in v.obstacles
               for gap in (0.0, 1e-7)])
        assert v.valid_mask(x).tobytes() == ref_valid_mask(v, x).tobytes()


# -- batched motion checks ---------------------------------------------------

def scenario(name):
    return load_scenario(shipped_scenario_dir() / f"{name}.yaml")


@pytest.fixture
def batches(monkeypatch):
    """Every batch of states valid_mask checks, in call order."""
    seen = []
    original = LevelValidity.valid_mask

    def valid_mask(self, coords):
        seen.append(np.array(coords, dtype=float))
        return original(self, coords)
    monkeypatch.setattr(LevelValidity, "valid_mask", valid_mask)
    return seen


def roadmap_of(v, bs):
    """A roadmap on v whose guards are the rows of bs, with delta twice
    the space's diameter, so every guard is near every state."""
    rm = SparseRoadmap(v.space, v, 2 * v.space.max_extent())
    for b in bs:
        rm.add_guard(b)
    return rm


def visible_one(rm, q):
    """The one-row visibility query: q's value of visible_in_order."""
    return next(rm.visible_in_order(np.asarray(q, dtype=float)[None]))


def assert_same_as_one_by_one(v, q, bs, batches):
    """The one-row visibility query on the roadmap whose guards are bs
    equals is_valid(q), and motion_valid(q, b) with the exact
    distance(q, b) for each b, nearest first (ties by smaller id), from one
    valid_mask call over [q] and, if q is valid, one over the one-by-one
    states 0..n of every motion in guard order."""
    rm = roadmap_of(v, bs)
    batches.clear()
    state = v.is_valid(q)
    motions = [v.motion_valid(q, b) for b in bs]
    one_by_one = batches[1:]
    assert len(one_by_one) == len(bs)
    dists = [v.space.distance(q, b) for b in bs]
    order = sorted(range(len(bs)), key=lambda g: (dists[g], g))
    batches.clear()
    got = visible_one(rm, q)
    if state:
        assert list(got.items()) == [(g, dists[g]) for g in order
                                     if motions[g]]
    else:
        assert got is None
    assert batches[0].tobytes() == q[None, :].tobytes()
    if state and len(bs):
        assert len(batches) == 2
        expected = np.concatenate(one_by_one)
        assert batches[1].tobytes() == expected.tobytes()
    else:
        assert len(batches) == 1


class TestMotionsValid:
    """SparseRoadmap.visible_in_order, the state check and then the motion
    check, against is_valid and motion_valid one by one."""

    @settings(max_examples=60, deadline=None)
    @given(robot=robots(), obstacle_list=obstacles(),
           workspace=st.booleans(), seed=st.integers(0, 2 ** 16),
           k=st.integers(0, 6), one_start=st.booleans())
    def test_given_lengths_equal_computed(self, robot, obstacle_list,
                                          workspace, seed, k, one_start):
        """motions_valid given the lengths from space.distances, as the
        visibility query gives its table's, answers as it does without
        them."""
        v = validity(robot, obstacle_list, workspace)
        rng = np.random.default_rng(seed)
        x = states(rng, robot, 2 * k + 1, obstacle_list)
        a, bs = (x[0] if one_start else x[:k]), x[k + 1:]
        got = v.motions_valid(a, bs, v.space.distances(a, bs))
        assert got.tobytes() == v.motions_valid(a, bs).tobytes()

    def test_invalid_start_fails_with_lengths(self):
        """State 0 is checked with the rest, so a motion from an invalid
        start fails even when its lengths are given."""
        v = validity(PointRobot(), [Box([0.4, 0.4], [0.6, 0.6])], False)
        q = np.array([0.59, 0.5])          # inside the box, by its edge
        bs = np.array([[0.9, 0.5], [0.9, 0.7]])
        dists = v.space.distances(q, bs)
        pts, starts = v.motion_points(q, bs, dists)
        # states 1..n of each motion are clear of the box
        assert v.valid_mask(pts).tolist() == [
            k not in starts.tolist() for k in range(len(pts))]
        assert v.motions_valid(q, bs, dists).tolist() == [False, False]

    def test_circle_wrapped_torus(self, batches):
        v = scenario("torus_band_feasible").seq.finest.validity
        rng = np.random.default_rng(3)
        two_pi = 2 * math.pi
        for _ in range(20):
            q = rng.random(2) * two_pi
            bs = rng.random((15, 2)) * two_pi
            # targets across the 0 / 2*pi seam from q
            bs[:5] = np.mod(q + rng.uniform(-0.5, 0.5, (5, 2)) + math.pi,
                            two_pi)
            bs[5] = np.mod(q - 1e-9, two_pi)
            assert_same_as_one_by_one(v, q, bs, batches)

    def test_chain4_states(self, batches):
        sc = scenario("chain4_feasible")
        v, space = sc.seq.finest.validity, sc.seq.finest.space
        rng = np.random.default_rng(4)
        for _ in range(20):
            q = space.sample_uniform(rng)
            bs = np.stack([space.sample_uniform(rng) for _ in range(12)])
            assert_same_as_one_by_one(v, q, bs, batches)

    def test_zero_length_motions(self, batches):
        v = scenario("chain4_feasible").seq.finest.validity
        q = np.array([0.2, 0.5, 0.3, -0.4])
        assert_same_as_one_by_one(v, q, np.stack([q, q, q + 1e-12]), batches)

    def test_q_in_collision(self, batches):
        sc = scenario("torus_band_feasible")
        v = sc.seq.finest.validity
        q = np.array([2.25, 1.0])          # inside the first band
        assert not v.is_valid(q)
        bs = np.array([[1.9, 1.0], [2.6, 1.2], [2.25, 5.5], [2.25, 1.0]])
        assert_same_as_one_by_one(v, q, bs, batches)
        assert visible_one(roadmap_of(v, bs), q) is None

    def test_empty_targets(self, batches):
        v = scenario("torus_band_feasible").seq.finest.validity
        for q in (np.array([1.0, 1.0]), np.array([2.25, 1.0])):
            for bs in (np.empty((0, 2)), []):
                rm = roadmap_of(v, bs)
                batches.clear()
                state = v.is_valid(q)
                assert visible_one(rm, q) == \
                    ({} if state else None)
                assert len(batches) == 2

    def test_visible_guards_unchanged_on_seeded_roadmap(self):
        level = scenario("chain4_feasible").seq.finest
        rm = SparseRoadmap(level.space, level.validity,
                           0.25 * level.space.max_extent())
        rng = np.random.default_rng(7)
        for _ in range(400):
            x = level.space.sample_uniform(rng)
            if level.validity.is_valid(x):
                rm.add_conditional(x)
        assert rm.num_guards > 10
        rng = np.random.default_rng(5)
        seen = 0
        for _ in range(40):
            q = rm.space.sample_uniform(rng)
            d = rm.space.distance_many(q, rm.guard_coords())
            near = [g for g in np.argsort(d, kind="stable")
                    if d[g] <= rm.delta]
            expected = [int(g) for g in near
                        if rm.validity.motion_valid(q, rm.guard_state(g))]
            assert rm.visible_guards(q) == expected
            seen += len(expected)
        assert seen > 0

    def test_planner_step_builds_the_same_roadmap(self):
        """The planner's step (q's value of visible_in_order, then
        add_conditional with it) against is_valid followed by
        add_conditional(q)."""
        level = scenario("se2_lshape_feasible").seq.finest
        delta = 0.25 * level.space.max_extent()
        fused, two_pass = (SparseRoadmap(level.space, level.validity, delta)
                           for _ in range(2))
        rng = np.random.default_rng(9)
        outcomes = []
        for _ in range(400):
            x = level.space.sample_uniform(rng)
            visible = visible_one(fused, x)
            if visible is None:
                fused.record_failure()
            else:
                outcomes.append(fused.add_conditional(x, visible))
            if level.validity.is_valid(x):
                assert two_pass.add_conditional(x) is outcomes[-1]
            else:
                two_pass.record_failure()
            assert (visible is None) != level.validity.is_valid(x)
        assert len(set(outcomes)) >= 3
        assert fused.guard_coords().tobytes() == \
            two_pass.guard_coords().tobytes()
        assert fused.edges == two_pass.edges
        assert fused.consecutive_failures == two_pass.consecutive_failures
        assert fused.total_samples == two_pass.total_samples

    @pytest.mark.parametrize("name, index", [
        pytest.param("se2_lshape_feasible", -1, id="se2_lshape_feasible"),
        pytest.param("chain4_feasible", -1, id="chain4_feasible"),
        pytest.param("torus_band_feasible", -1, id="torus_band_feasible"),
        # the levels the one-level phase samples on the benchmark mix
        *(pytest.param(name, 0, id=f"{name}-level0")
          for name in ("chain4_feasible", "torus_band_feasible",
                       "se2_bugtrap_feasible", "se2_lshape_feasible")),
    ])
    def test_block_values_equal_one_at_a_time(self, batches, name, index):
        """visible_in_order with add_conditional after each value against
        the reference visible_guard_distances one sample at a time: the
        same values, in the same order, and the same roadmap.  A block
        costs one valid_mask call for its rows, one for their motions and
        at most one per admission before a later row; some rows are taken
        after an admission in their block, so their table columns were
        added."""
        level = scenario(name).seq.levels[index]
        delta = 0.25 * level.space.max_extent()
        block, single = (SparseRoadmap(level.space, level.validity, delta)
                         for _ in range(2))
        rng = np.random.default_rng(9)
        outcomes = set()
        after_admission = 0
        for _ in range(25):
            xs = level.space.sample_uniform(rng, 16)
            values = block.visible_in_order(xs)
            calls = admitted = 0
            for x in xs:
                before = len(batches)
                got = next(values)
                calls += len(batches) - before
                expected = visible_guard_distances(single, x)
                assert (got is None) == (expected is None)
                if got is None:
                    block.record_failure()
                    single.record_failure()
                    continue
                after_admission += admitted > 0
                assert list(got.items()) == list(expected.items())
                outcome = block.add_conditional(x, got)
                assert single.add_conditional(x, expected) is outcome
                admitted += outcome is not AddOutcome.REJECTED
                outcomes.add(outcome)
            assert calls <= 2 + admitted
        assert len(outcomes) >= 3
        assert after_admission > 0
        assert block.guard_coords().tobytes() == \
            single.guard_coords().tobytes()
        assert block.edges == single.edges
        assert block._blocked == single._blocked
        assert block.consecutive_failures == single.consecutive_failures
        assert block.total_samples == single.total_samples


class TestBatchedSpaceHelpers:
    @pytest.mark.parametrize("name", ["chain4_feasible",
                                      "torus_band_feasible",
                                      "se2_lshape_feasible"])
    def test_distances_equal_scalar_distance(self, name):
        space = scenario(name).seq.finest.space
        rng = np.random.default_rng(6)
        for _ in range(200):
            q = space.sample_uniform(rng)
            pts = np.stack([space.sample_uniform(rng) for _ in range(10)])
            got = space.distances(q, pts)
            assert all(isinstance(d, float) for d in got)
            assert got == [space.distance(q, p) for p in pts]
            # row pairs, and one state on the right
            assert space.distances(pts[:-1], pts[1:]) == \
                [space.distance(a, b) for a, b in zip(pts[:-1], pts[1:])]
            assert space.distances(pts, q) == \
                [space.distance(p, q) for p in pts]

    def test_interpolate_many_broadcasts_rows(self):
        space = ProductSpace([RealVectorSpace([[0, 1]]), CircleSpace()])
        a = np.array([0.2, 6.1])
        bs = np.array([[0.9, 0.1], [0.3, 3.0]])
        s = np.linspace(0.0, 1.0, 7)
        want = np.concatenate([space.interpolate_many(a, b, s) for b in bs])
        svals = np.concatenate([s, s])
        rows = np.repeat(bs, 7, axis=0)
        assert space.interpolate_many(a, rows, svals).tobytes() == \
            want.tobytes()
        starts = np.repeat(np.stack([a, a]), 7, axis=0)
        assert space.interpolate_many(starts, rows, svals).tobytes() == \
            want.tobytes()
        reverse = np.concatenate([space.interpolate_many(b, a, s)
                                  for b in bs])
        assert space.interpolate_many(rows, a, svals).tobytes() == \
            reverse.tobytes()

    def test_interpolate_many_rejects_wrong_state_shape(self):
        space = RealVectorSpace([[0, 1], [0, 1]])
        for a, b in ((np.zeros(2), np.zeros(3)), (np.zeros((1, 3)),
                                                  np.zeros(2))):
            with pytest.raises(ValueError, match="state has shape"):
                space.interpolate_many(a, b, np.zeros(1))
