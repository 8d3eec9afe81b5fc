"""The compiled collision world and batched motion checks against the
per-obstacle and per-motion code they replace.

The reference below tests one obstacle at a time on every state, exactly as
valid_mask did before the obstacles were compiled into stacked arrays and
before the bounding-box broad phase; the world-level masks must equal it
bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smlr.validity as validity_module
from smlr.geometry import (Box, Disc, Polygon, points_to_segments_dist,
                           segments_intersect, segments_to_segments_dist)
from smlr.scenario import load_scenario, shipped_scenario_dir
from smlr.spaces import CircleSpace, ProductSpace, RealVectorSpace
from smlr.sparse_graph import SparseRoadmap
from smlr.validity import (BOX_MARGIN, CHUNK_STATES, ChainRobot, DiscRobot,
                           LevelValidity, PointRobot, PolygonRobot,
                           _posed_contains)

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
        center_in = _posed_contains(verts, obstacle.center[None, :])[:, 0]
        near = _ref_edges_point_dist(verts, obstacle.center) \
            <= obstacle.radius
        return hit | center_in | near
    seg = obstacle.boundary_segments()
    if seg is None:
        return hit
    oa, ob = seg
    corner_in = _posed_contains(verts, oa).any(axis=1)
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


def ref_valid_mask(v: LevelValidity, coords):
    coords = np.asarray(coords, dtype=float)
    ok = np.ones(len(coords), dtype=bool)
    if v.workspace_lo is not None:
        ok &= v.robot.in_workspace(coords, v.workspace_lo, v.workspace_hi)
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
        for name in ("segments_intersect", "segments_to_segments_dist"):
            original = getattr(validity_module, name)

            def counted(a0, *rest, _original=original):
                rows.append(len(a0))
                return _original(a0, *rest)
            monkeypatch.setattr(validity_module, name, counted)
        v = validity(robot, BOUNDARY_OBSTACLES, workspace=True)
        far = np.zeros((50, robot_dim(robot)))
        far[:, 0] = np.linspace(0.05, 0.1, 50)
        far[:, 1] = 0.1
        assert v.valid_mask(far).all()
        assert rows == []
        near = np.concatenate([far, poses_around(robot,
                                                 BOUNDARY_OBSTACLES[0], 0.0)])
        np.testing.assert_array_equal(v.valid_mask(near),
                                      ref_valid_mask(v, near))
        # one link or edge row per candidate pose's link or edge
        per_pose = len(robot.vertices) if isinstance(robot, PolygonRobot) \
            else len(robot.link_lengths)
        assert rows == [8 * per_pose]

    def test_non_planar_world_has_no_boxes(self):
        v = LevelValidity(space=RealVectorSpace([[0, 1]] * 3),
                          robot=PointRobot(position_indices=(0, 1, 2)),
                          obstacles=[Box([0.1] * 3, [0.2] * 3)])
        assert not v._world.has_aabbs
        assert v._world.broad_phase(np.zeros((4, 2)),
                                    np.ones((4, 2))).tolist() == [0, 1, 2, 3]


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
    """LevelValidity.visibility, the fused state and motion check that
    replaced motions_valid, against is_valid and motion_valid one by one."""

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

    def test_interpolate_rows_matches_interpolate_many(self):
        space = ProductSpace([RealVectorSpace([[0, 1]]), CircleSpace()])
        a = np.array([0.2, 6.1])
        bs = np.array([[0.9, 0.1], [0.3, 3.0]])
        s = np.linspace(0.0, 1.0, 7)
        rows = np.array([0] * 7 + [1] * 7)
        got = space.interpolate_rows(a, bs, rows, np.concatenate([s, s]))
        want = np.concatenate([space.interpolate_many(a, b, s) for b in bs])
        assert got.tobytes() == want.tobytes()

    def test_interpolate_rows_rejects_wrong_target_shape(self):
        space = RealVectorSpace([[0, 1], [0, 1]])
        with pytest.raises(ValueError, match="targets have shape"):
            space.interpolate_rows(np.zeros(2), np.zeros(3), np.zeros(1, int),
                                   np.zeros(1))
