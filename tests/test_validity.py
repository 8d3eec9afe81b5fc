import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smlr.geometry import Box, Disc, Polygon
from smlr.spaces import CircleSpace, ProductSpace, RealVectorSpace
from smlr.validity import (ChainRobot, DiscRobot, LevelValidity, PointRobot,
                           PolygonRobot)
from test_spaces import motion_states

UNIT = [[0.0, 1.0], [0.0, 1.0]]


def point_world(obstacles, res=0.01):
    space = RealVectorSpace(UNIT)
    return LevelValidity(space=space, robot=PointRobot(),
                         obstacles=obstacles,
                         workspace_lo=np.zeros(2), workspace_hi=np.ones(2),
                         check_resolution=res)


NAN = float("nan")

# each class that owns a coordinate rejects a NaN or infinite one, which
# would pass every comparison it should fail
NON_FINITE = {
    "box_lo": lambda: Box([NAN, 0.0], [1.0, 1.0]),
    "box_hi": lambda: Box([0.0, 0.0], [1.0, math.inf]),
    "disc_center": lambda: Disc([NAN, 0.5], 0.1),
    "disc_radius": lambda: Disc([0.5, 0.5], math.inf),
    "polygon": lambda: Polygon([[0.0, 0.0], [1.0, NAN], [0.0, 1.0]]),
    "real_bounds": lambda: RealVectorSpace([[0.0, math.inf]]),
    "product_weight": lambda: ProductSpace(
        [RealVectorSpace(UNIT), CircleSpace()], [1.0, NAN]),
    "disc_robot": lambda: DiscRobot(radius=NAN),
    "polygon_robot": lambda: PolygonRobot(
        vertices=[[0.0, 0.0], [1.0, 0.0], [NAN, 1.0]]),
    "link_length": lambda: ChainRobot(link_lengths=(NAN, 0.1)),
    "link_radius": lambda: ChainRobot(link_radius=math.inf),
    "workspace": lambda: LevelValidity(
        space=RealVectorSpace(UNIT), robot=PointRobot(),
        workspace_lo=np.array([NAN, 0.0]), workspace_hi=np.ones(2)),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_non_finite_value_rejected(name):
    with pytest.raises(ValueError, match="finite|positive"):
        NON_FINITE[name]()


class TestIsValid:
    def test_empty_world(self):
        v = point_world([])
        assert v.is_valid([0.5, 0.5])

    def test_point_inside_disc(self):
        v = point_world([Disc([0.5, 0.5], 0.2)])
        assert not v.is_valid([0.5, 0.5])
        assert v.is_valid([0.9, 0.9])

    def test_disc_robot_near_wall(self):
        # wall segment as a thin box; center 0.05 away, radius 0.1 collides
        wall = Box([0.5, 0.0], [0.5001, 1.0])
        space = RealVectorSpace(UNIT)
        v = LevelValidity(space=space, robot=DiscRobot(radius=0.1),
                          obstacles=[wall])
        assert not v.is_valid([0.45, 0.5])
        assert v.is_valid([0.35, 0.5])

    def test_workspace_bounds(self):
        space = RealVectorSpace([[-1, 2], [-1, 2]])
        v = LevelValidity(space=space, robot=DiscRobot(radius=0.1),
                          obstacles=[],
                          workspace_lo=np.zeros(2), workspace_hi=np.ones(2))
        assert not v.is_valid([0.05, 0.5])  # disc pokes out of workspace
        assert v.is_valid([0.5, 0.5])


class TestMotionValid:
    def test_zero_length(self):
        v = point_world([Disc([0.5, 0.5], 0.1)])
        assert v.motion_valid([0.2, 0.2], [0.2, 0.2])

    def test_blocked_by_wall(self):
        v = point_world([Box([0.45, 0.0], [0.55, 1.0])])
        assert not v.motion_valid([0.2, 0.5], [0.8, 0.5])

    def test_free_segment(self):
        v = point_world([Box([0.45, 0.0], [0.55, 0.4])])
        assert v.motion_valid([0.2, 0.8], [0.8, 0.8])

    def test_symmetry_randomized(self):
        v = point_world([Disc([0.5, 0.5], 0.22), Box([0.1, 0.1], [0.2, 0.9])])
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = v.space.sample_uniform(rng)
            b = v.space.sample_uniform(rng)
            assert v.motion_valid(a, b) == v.motion_valid(b, a)

    def test_resolution_monotonicity(self):
        obstacles = [Disc([0.52, 0.5], 0.07)]
        coarse = point_world(obstacles, res=0.05)
        fine = point_world(obstacles, res=0.01)
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = coarse.space.sample_uniform(rng)
            b = coarse.space.sample_uniform(rng)
            if not coarse.motion_valid(a, b):
                assert not fine.motion_valid(a, b)


class TestPolygonRobot:
    def lshape(self):
        return PolygonRobot(vertices=[[-0.025, -0.025], [0.175, -0.025],
                                      [0.175, 0.025], [0.025, 0.025],
                                      [0.025, 0.125], [-0.025, 0.125]])

    def world(self, obstacles):
        space = ProductSpace([RealVectorSpace(UNIT), CircleSpace()],
                             weights=[1.0, 0.1])
        return LevelValidity(space=space, robot=self.lshape(),
                             obstacles=obstacles,
                             workspace_lo=np.zeros(2),
                             workspace_hi=np.ones(2))

    def test_free_pose(self):
        v = self.world([Disc([0.8, 0.8], 0.05)])
        assert v.is_valid([0.4, 0.4, 0.0])

    def test_arm_hits_disc(self):
        v = self.world([Disc([0.6, 0.4], 0.05)])
        assert not v.is_valid([0.4, 0.4, 0.0])     # arm reaches x=0.575
        assert v.is_valid([0.4, 0.4, math.pi / 2])  # rotated away

    def test_robot_contains_small_obstacle(self):
        v = self.world([Disc([0.45, 0.4], 0.01)])
        assert not v.is_valid([0.4, 0.4, 0.0])

    def test_workspace_rotation(self):
        v = self.world([])
        assert v.is_valid([0.5, 0.5, 1.0])
        assert not v.is_valid([0.99, 0.5, 0.0])  # arm pokes outside


class TestChainRobot:
    def world(self, obstacles):
        space = ProductSpace(
            [RealVectorSpace(UNIT),
             RealVectorSpace([[-math.pi, math.pi], [-math.pi, math.pi]])],
            weights=[1.0, 0.05])
        robot = ChainRobot(link_lengths=(0.2, 0.2), link_radius=0.02)
        return LevelValidity(space=space, robot=robot, obstacles=obstacles,
                             workspace_lo=np.zeros(2),
                             workspace_hi=np.ones(2))

    def test_joints_forward_kinematics(self):
        robot = ChainRobot(link_lengths=(0.2, 0.2), link_radius=0.02)
        j = robot.body(np.array([[0.5, 0.5, 0.0, math.pi / 2]]))
        assert np.allclose(j[0, 0], [0.5, 0.5])
        assert np.allclose(j[0, 1], [0.7, 0.5])
        assert np.allclose(j[0, 2], [0.7, 0.7])

    def test_link_hits_obstacle(self):
        v = self.world([Disc([0.6, 0.5], 0.05)])
        assert not v.is_valid([0.35, 0.5, 0.0, 0.0])  # first link skewers it
        assert v.is_valid([0.35, 0.5, math.pi / 2, 0.0])

    def test_capsule_radius_matters(self):
        # passing 0.03 above the disc surface: 0.02 radius clears, 0.05 hits
        v = self.world([Disc([0.5, 0.3], 0.1)])
        assert v.is_valid([0.3, 0.45, 0.0, 0.0])
        fat = ChainRobot(link_lengths=(0.2, 0.2), link_radius=0.06)
        vfat = LevelValidity(space=v.space, robot=fat,
                             obstacles=v.obstacles,
                             workspace_lo=np.zeros(2),
                             workspace_hi=np.ones(2))
        assert not vfat.is_valid([0.3, 0.45, 0.0, 0.0])


# robots and their space dimensions; the chain's angles are coordinates 2-4
BODIES = {
    "disc": (DiscRobot(radius=0.05), 2),
    "polygon": (TestPolygonRobot().lshape(), 3),
    "chain": (ChainRobot(link_lengths=(0.2, 0.15, 0.1), link_radius=0.02,
                         angle_indices=(2, 3, 4)), 5),
}


class TestBody:
    """Each robot states its body once: body_box is the posed body points'
    box widened by radius, bit for bit."""

    @pytest.mark.parametrize("kind, radius, points", [
        ("point", 0.0, 1), ("disc", 0.05, 1), ("polygon", 0.0, 6),
        ("chain", 0.02, 4)], ids=["point", "disc", "polygon", "chain"])
    def test_body_box_is_body_widened_by_radius(self, kind, radius, points):
        robot, dim = BODIES.get(kind, (PointRobot(), 2))
        x = np.random.default_rng(3).uniform(-4.0, 4.0, (50, dim))
        body = robot.body(x)
        assert robot.radius == radius
        assert body.shape == (len(x), points, 2)
        lo, hi = robot.body_box(x)
        assert lo.tobytes() == (body.min(1) - robot.radius).tobytes()
        assert hi.tobytes() == (body.max(1) + robot.radius).tobytes()


class TestMotionPad:
    @pytest.mark.parametrize("kind", sorted(BODIES))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_swept_boxes_in_padded_hull(self, kind, data):
        # a straight motion that changes one coordinate by at most a half
        # turn and translates the body at once: every state's body box
        # lies in the hull of the two end boxes widened by motion_pad
        robot, dim = BODIES[kind]
        coord = st.floats(-4.0, 4.0)
        a = np.array(data.draw(st.lists(coord, min_size=dim, max_size=dim)))
        axis = data.draw(st.integers(0, dim - 1))
        delta = data.draw(st.floats(-math.pi, math.pi))
        b = a.copy()
        b[axis] += delta
        b[list(robot.position_indices)] += data.draw(
            st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
        s = np.linspace(0.0, 1.0, 257)[:, None]
        lo, hi = robot.body_box(a + s * (b - a))
        pad = robot.motion_pad(axis, delta) + 1e-12
        assert (lo >= np.minimum(lo[0], lo[-1]) - pad).all()
        assert (hi <= np.maximum(hi[0], hi[-1]) + pad).all()
        # beyond a half turn an angle's pad is no bound
        if robot.motion_pad(axis, 1.0) > 0:
            assert robot.motion_pad(axis, -math.pi - 1e-6) == math.inf


class TestAngleSpaceObstacles:
    def test_point_robot_on_circle(self):
        space = CircleSpace()
        v = LevelValidity(space=space, robot=PointRobot(position_indices=(0,)),
                          obstacles=[Box([2.0], [2.5])])
        assert not v.is_valid([2.2])
        assert v.is_valid([1.0])

    def test_torus_band(self):
        t2 = ProductSpace([CircleSpace(), CircleSpace()])
        v = LevelValidity(space=t2, robot=PointRobot(),
                          obstacles=[Box([2.0, 0.0], [2.5, 2 * math.pi])])
        assert not v.is_valid([2.2, 3.0])
        assert v.is_valid([1.0, 3.0])


SE2_LSHAPE = PolygonRobot(vertices=[[-0.025, -0.025], [0.175, -0.025],
                                    [0.175, 0.025], [0.025, 0.025],
                                    [0.025, 0.125], [-0.025, 0.125]])
PATH_SPACES = {
    "r2": lambda: RealVectorSpace(UNIT),
    "t2": lambda: ProductSpace([CircleSpace(), CircleSpace()]),
    "se2": lambda: ProductSpace([RealVectorSpace(UNIT), CircleSpace()],
                                weights=[1.0, 0.1]),
}


@st.composite
def polyline_worlds(draw, kind):
    """A level on R^2 (point robot), T^2 (point robot) or SE(2) (L-shaped
    polygon robot) with up to four boxes, and a polyline of 1-6 states
    inside the space's bounds, some of them repeated."""
    space = PATH_SPACES[kind]()
    scale = 2 * math.pi if kind == "t2" else 1.0
    coord = st.floats(0.0, scale)
    boxes = []
    for _ in range(draw(st.integers(0, 4))):
        x, y = draw(coord), draw(coord)
        w, h = (draw(st.floats(0.02, 0.4)) * scale for _ in range(2))
        boxes.append(Box([x, y], [x + w, y + h]))
    robot = SE2_LSHAPE if kind == "se2" else PointRobot()
    v = LevelValidity(space=space, robot=robot, obstacles=boxes,
                      check_resolution=draw(st.floats(0.01, 0.3)))
    state = st.lists(st.floats(0.0, 1.0, exclude_max=True),
                     min_size=space.dim, max_size=space.dim).map(
        lambda u: space.lo + np.array(u) * (space.hi - space.lo))
    path = draw(st.lists(state, min_size=1, max_size=6))
    if len(path) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(path) - 2))
        path.insert(i + 1, path[i].copy())
    return v, path


class TestPathValid:
    """A path's check is motions_valid on its segments, as the section test
    and simplify_path ask it."""

    @pytest.mark.parametrize("kind", sorted(PATH_SPACES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_motion_valid_per_segment(self, kind, data):
        v, path = data.draw(polyline_worlds(kind))
        path = np.array(path)
        # each state to itself: the zero-length motion checks that state
        assert v.motions_valid(path, path).tolist() == \
            v.valid_mask(path).tolist()
        # a one-state path has no segment and checks none
        assert v.motions_valid(path[:-1], path[1:]).tolist() == [
            v.motion_valid(a, b) for a, b in zip(path[:-1], path[1:])]

    def test_no_motions(self):
        """motions_valid and motions_from answer no motions with an empty
        bool array, from one or no start."""
        v = point_world([Box([0.4, 0.4], [0.6, 0.6])])
        none = np.empty((0, 2))
        got = [v.motions_valid(none, none), v.motions_valid([0.1, 0.1], none),
               v.motions_from(none, none, np.empty(0)),
               v.motions_from([0.1, 0.1], none, np.empty(0))]
        for mask in got:
            assert mask.dtype == bool and mask.shape == (0,)

    @pytest.mark.parametrize("kind", sorted(PATH_SPACES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_motions_valid_equals_motion_states(self, kind, data):
        # motions_valid, which motion_valid calls, against the states of
        # each motion checked on their own
        v, path = data.draw(polyline_worlds(kind))
        path = np.array(path)
        for a, bs in ((path[0], path), (path, path[::-1])):
            want = [bool(v.valid_mask(motion_states(v, x, b)).all())
                    for x, b in zip(np.broadcast_to(a, bs.shape), bs)]
            assert v.motions_valid(a, bs).tolist() == want

    @pytest.mark.parametrize("kind", sorted(PATH_SPACES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_batch_equals_one_at_a_time(self, kind, data):
        # paths of one length as the rows of one array, their segments in
        # one call, row after row, as the section test checks its detours
        v, first = data.draw(polyline_worlds(kind))
        paths = [first] + [data.draw(polyline_worlds(kind))[1]
                           for _ in range(data.draw(st.integers(0, 4)))]
        n = max(2, min(map(len, paths)))
        rows = np.array([(p * n)[:n] for p in paths])
        dim = rows.shape[-1]
        batch = v.motions_valid(rows[:, :-1].reshape(-1, dim),
                                rows[:, 1:].reshape(-1, dim))
        assert batch.reshape(len(rows), -1).tolist() == [
            v.motions_valid(p[:-1], p[1:]).tolist() for p in rows]

    def test_one_valid_mask_call(self, monkeypatch):
        v = point_world([Box([0.45, 0.0], [0.55, 0.4])])
        calls = []
        valid_mask = LevelValidity.valid_mask

        def counting(self, coords):
            calls.append(len(coords))
            return valid_mask(self, coords)
        monkeypatch.setattr(LevelValidity, "valid_mask", counting)
        a = np.array([[0.2, 0.8], [0.2, 0.2], [0.3, 0.3]])
        b = np.array([[0.8, 0.8], [0.5, 0.2], [0.3, 0.3]])
        assert v.motions_valid(a, b).tolist() == [True, False, True]
        assert len(calls) == 1


class TestUnconstrained:
    """A level with no obstacle and no workspace box answers every motion
    check without building a state, with the verdicts of the same level
    given a box out of reach, whose checks reach valid_mask."""

    @pytest.mark.parametrize("kind", sorted(PATH_SPACES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_discretized_verdicts(self, kind, data):
        v, path = data.draw(polyline_worlds(kind))
        path = np.array(path)
        free = LevelValidity(space=v.space, robot=v.robot,
                             check_resolution=v.check_resolution)
        far = Box([10.0, 10.0], [11.0, 11.0])
        boxed = LevelValidity(space=v.space, robot=v.robot, obstacles=[far],
                              check_resolution=v.check_resolution)
        walled = LevelValidity(space=v.space, robot=v.robot,
                               workspace_lo=np.zeros(2),
                               workspace_hi=np.ones(2))
        assert free.unconstrained
        assert not boxed.unconstrained and not walled.unconstrained
        checked = {}
        valid_mask = LevelValidity.valid_mask

        def counting(self, coords):
            checked[id(self)] = checked.get(id(self), 0) + len(coords)
            return valid_mask(self, coords)

        def verdicts(lv):
            dists = lv.space.distances(path[0], path)
            return (lv.motions_valid(path[0], path).tolist(),
                    lv.motions_valid(path, path[::-1]).tolist(),
                    lv.motions_from(path[0], path, dists).tolist(),
                    lv.motions_valid(path[:1], path[:1]).tolist())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LevelValidity, "valid_mask", counting)
            got, want = verdicts(free), verdicts(boxed)
        assert got == want
        assert id(free) not in checked and checked[id(boxed)] > 0
