"""The compiled collision world and batched motion checks against the
per-obstacle and per-motion code they replace.

The reference below tests the workspace point by point and then one
obstacle at a time on every state, exactly as valid_mask did before the
obstacles were compiled into stacked arrays, before the bounding-box broad
phase and before each robot answered both in one posed pass; the
world-level masks must equal it bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import smlr.validity as validity_module
from smlr.geometry import (Box, Disc, Polygon, box_signed_distance,
                           disc_signed_distance, edge_crossings,
                           point_segment_dist, points_to_segments_dist,
                           polygons_contain, segment_crossing,
                           segment_segment_dist, segments_intersect,
                           segments_to_segments_dist)
from smlr.scenario import load_scenario, shipped_scenario_dir
from smlr.spaces import CircleSpace, ProductSpace, RealVectorSpace
from smlr.sparse_graph import SparseRoadmap
from smlr.validity import (BOX_MARGIN, CHUNK_STATES, ChainRobot,
                           CollisionWorld, DiscRobot, LevelValidity,
                           PointRobot, PolygonRobot)

# -- per-obstacle reference ---------------------------------------------------


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
    verts = robot._verts(coords)
    m, nv, _ = verts.shape
    flat = verts.reshape(m * nv, 2)
    hit = (obstacle.signed_distance(flat) <= 0.0).reshape(m, nv).any(axis=1)
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
    j = robot.joints(coords)
    a, b = j[:, :-1, :], j[:, 1:, :]
    m, L, _ = a.shape
    fa, fb = a.reshape(m * L, 2), b.reshape(m * L, 2)
    if isinstance(obstacle, Disc):
        d = points_to_segments_dist(obstacle.center[None, :], fa, fb)
        d = d.reshape(m, L).min(axis=1)
        return d <= obstacle.radius + robot.link_radius
    near_end = (obstacle.signed_distance(fa) <= robot.link_radius) | \
               (obstacle.signed_distance(fb) <= robot.link_radius)
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
    p = robot._pos(coords)
    margin = robot.radius if isinstance(robot, DiscRobot) else 0.0
    return obstacle.signed_distance(p) <= margin


def ref_in_workspace(robot, coords, lo, hi):
    """Every posed vertex, joint or position inside [lo, hi], shrunk by the
    disc radius or link radius."""
    if isinstance(robot, PolygonRobot):
        verts = robot._verts(coords)
        return np.all((verts >= lo) & (verts <= hi), axis=(1, 2))
    if isinstance(robot, ChainRobot):
        j = robot.joints(coords)
        r = robot.link_radius
        return np.all((j >= lo + r) & (j <= hi - r), axis=(1, 2))
    p = robot._pos(coords)
    if isinstance(robot, DiscRobot):
        return np.all((p >= lo + robot.radius) & (p <= hi - robot.radius),
                      axis=1)
    return np.all((p >= lo) & (p <= hi), axis=1)


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


def obstacles(dim=2):
    kinds = [boxes(dim), discs(dim)] + ([polygons()] if dim == 2 else [])
    return st.lists(st.one_of(kinds), max_size=6)


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
                   2 * CHUNK_STATES + 7, obstacle_list)
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
        with pytest.raises(ValueError, match="box obstacles mix dimensions"):
            LevelValidity(space=RealVectorSpace([[0, 1], [0, 1]]),
                          robot=PointRobot(),
                          obstacles=[Box([0.1, 0.1], [0.2, 0.2]),
                                     Box([0.5], [0.6])])


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
    body = (robot._verts(zero) if isinstance(robot, PolygonRobot)
            else robot.joints(zero))[0]
    pad = robot.link_radius if isinstance(robot, ChainRobot) else 0.0
    body_lo, body_hi = body.min(axis=0) - pad, body.max(axis=0) + pad
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


def posed_body(robot, coords):
    """Posed vertices or joints -> (m, k, 2)."""
    return robot._verts(coords) if isinstance(robot, PolygonRobot) \
        else robot.joints(coords)


def meeting_pairs(robot, coords, obstacle_list):
    """(m, n) whether pose i's box (widened by the link radius) meets
    obstacle j's bounding box widened by BOX_MARGIN."""
    body = posed_body(robot, coords)
    pad = robot.link_radius if isinstance(robot, ChainRobot) else 0.0
    lo, hi = body.min(axis=1) - pad, body.max(axis=1) + pad
    olo = np.array([o.bounding_box()[0] for o in obstacle_list]) - BOX_MARGIN
    ohi = np.array([o.bounding_box()[1] for o in obstacle_list]) + BOX_MARGIN
    return ((lo[:, None] <= ohi) & (hi[:, None] >= olo)).all(axis=2)


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

            def counted(a0, *rest, _original=original):
                rows.append(a0.shape[:2])
                return _original(a0, *rest)
            monkeypatch.setattr(validity_module, name, counted)
        v = validity(robot, BOUNDARY_OBSTACLES, workspace=True)
        far = np.zeros((50, robot_dim(robot)))
        far[:, 0] = np.linspace(0.05, 0.1, 50)
        far[:, 1] = 0.1
        assert v.valid_mask(far).all()
        assert rows == []
        touching = poses_around(robot, BOUNDARY_OBSTACLES[0], 0.0)
        near = np.concatenate([far, touching])
        np.testing.assert_array_equal(v.valid_mask(near),
                                      ref_valid_mask(v, near))
        # one row per boundary segment of each obstacle with segments (the
        # box and the polygon) whose box meets a touching pose's box, each
        # row holding that pose's links or edges
        per_pose = len(robot.vertices) if isinstance(robot, PolygonRobot) \
            else len(robot.link_lengths)
        meets = meeting_pairs(robot, touching, BOUNDARY_OBSTACLES)
        segments = sum(meets[:, j].sum() * len(o.boundary_segments()[0])
                       for j, o in enumerate(BOUNDARY_OBSTACLES)
                       if o.boundary_segments() is not None)
        assert rows == [(segments, per_pose)]

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
        body = posed_body(robot, x)
        want = [(body[i].tobytes(), int(j))
                for i, j in zip(*np.nonzero(meets))]
        assert sorted(seen) == sorted(want)
        # the broad phase drops most pairs of the poses it keeps
        kept = meets.any(axis=1)
        assert 0 < len(want) < kept.sum() * len(BOUNDARY_OBSTACLES)

    def test_non_planar_world_has_no_boxes(self):
        v = LevelValidity(space=RealVectorSpace([[0, 1]] * 3),
                          robot=PointRobot(position_indices=(0, 1, 2)),
                          obstacles=[Box([0.1] * 3, [0.2] * 3)])
        assert not v._world.has_aabbs
        # every (row, obstacle) pair is a candidate
        pose, obs = v._world.broad_phase(np.zeros((4, 2)), np.ones((4, 2)))
        assert pose.tolist() == [0, 1, 2, 3]
        assert obs.tolist() == [0] * 4


class TestOnePosedPass:
    @pytest.mark.parametrize("robot", TOUCHING_ROBOTS,
                             ids=lambda r: type(r).__name__)
    def test_each_chunk_posed_once(self, robot, monkeypatch):
        """The workspace test and the collision test share one pose of
        each chunk of CHUNK_STATES states."""
        v = validity(robot, BOUNDARY_OBSTACLES, workspace=True)
        rng = np.random.default_rng(2)
        small = states(rng, robot, CHUNK_STATES, BOUNDARY_OBSTACLES)
        large = states(rng, robot, 2 * CHUNK_STATES + 7, BOUNDARY_OBSTACLES)
        want = [ref_valid_mask(v, x) for x in (small, large)]
        name = "_verts" if isinstance(robot, PolygonRobot) else "joints"
        posed = []
        original = getattr(type(robot), name)

        def counted(self, coords):
            posed.append(len(coords))
            return original(self, coords)
        monkeypatch.setattr(type(robot), name, counted)
        np.testing.assert_array_equal(v.valid_mask(small), want[0])
        assert posed == [CHUNK_STATES]
        posed.clear()
        np.testing.assert_array_equal(v.valid_mask(large), want[1])
        assert posed == [CHUNK_STATES, CHUNK_STATES, 7]


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
    j = robot.joints(coords)
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
            sd = o.signed_distance(pts.reshape(-1, 2)).reshape(len(x), -1)
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
        """Against Box.signed_distance and Disc.signed_distance, and the
        broadcast form of near_points."""
        lo = np.minimum(*corners)
        hi = np.maximum(*corners) + 0.25
        radii = hi[:, 0] - lo[:, 0]
        i, j = row_pairs(data.draw, len(p), len(lo))
        q = gathered(p, i, layout)
        boxes = box_signed_distance(q, gathered(lo, j, layout),
                                    gathered(hi, j, layout))
        discs = disc_signed_distance(q, gathered(lo, j, layout), radii[j])
        box_matrix = np.stack([Box(a, b).signed_distance(p)
                               for a, b in zip(lo, hi)], axis=1)
        disc_matrix = np.stack([Disc(c, r).signed_distance(p)
                                for c, r in zip(lo, radii)], axis=1)
        assert boxes.tobytes() == box_matrix[i, j].tobytes()
        assert discs.tobytes() == disc_matrix[i, j].tobytes()
        assert box_signed_distance(p[:, None], lo, hi).tobytes() == \
            box_matrix.tobytes()


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


def assert_same_as_one_by_one(v, q, bs, batches):
    """visibility(q, bs) equals is_valid(q) and motion_valid(q, b) for each
    b, from one valid_mask call over [q] and the one-by-one states with each
    motion's state 0 (byte-equal to q) removed."""
    batches.clear()
    state = v.is_valid(q)
    motions = [v.motion_valid(q, b) for b in bs]
    one_by_one = batches[1:]
    assert len(one_by_one) == len(bs)
    assert all(m[0].tobytes() == q.tobytes() for m in one_by_one)
    expected = np.concatenate([q[None, :]] + [m[1:] for m in one_by_one])
    batches.clear()
    got = v.visibility(q, bs)
    assert got == (state, motions, [v.space.distance(q, b) for b in bs])
    assert len(batches) == 1
    assert batches[0].tobytes() == expected.tobytes()


class TestMotionsValid:
    """LevelValidity.visibility, the fused state and motion check, against
    is_valid and motion_valid one by one."""

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
        assert v.visibility(q, bs).motions == [False] * 4

    def test_sample_checked_alone_when_likely_invalid(self, batches):
        sc = scenario("chain4_feasible")
        v, space = sc.seq.finest.validity, sc.seq.finest.space
        rng = np.random.default_rng(8)
        outcomes = set()
        for _ in range(30):
            q = space.sample_uniform(rng)
            bs = np.stack([space.sample_uniform(rng) for _ in range(5)])
            batches.clear()
            fused = v.visibility(q, bs)
            fused_states = batches[0]
            batches.clear()
            assert v.visibility(q, bs, p_valid=0.0) == fused
            # q on its own, then states 1..n of its motions if q is valid
            assert batches[0].tobytes() == q[None, :].tobytes()
            assert len(batches) == (2 if fused.state else 1)
            assert np.concatenate(batches).tobytes() == \
                (fused_states if fused.state else q[None, :]).tobytes()
            outcomes.add(fused.state)
        assert outcomes == {True, False}

    def test_empty_targets(self, batches):
        v = scenario("torus_band_feasible").seq.finest.validity
        for q in (np.array([1.0, 1.0]), np.array([2.25, 1.0])):
            for bs in (np.empty((0, 2)), []):
                batches.clear()
                assert v.visibility(q, bs) == (v.is_valid(q), [], [])
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
        """The planner's step (one visibility call, then add_conditional
        with it) against is_valid followed by add_conditional(q)."""
        level = scenario("se2_lshape_feasible").seq.finest
        delta = 0.25 * level.space.max_extent()
        fused, two_pass = (SparseRoadmap(level.space, level.validity, delta)
                           for _ in range(2))
        rng = np.random.default_rng(9)
        outcomes = []
        for _ in range(400):
            x = level.space.sample_uniform(rng)
            visible = fused.visible_guard_distances(x)
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
