import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smlr.geometry import Box, Disc, Polygon
from smlr.spaces import CircleSpace, ProductSpace, RealVectorSpace
from smlr.validity import (ChainRobot, DiscRobot, LevelValidity, PointRobot,
                           PolygonRobot)

UNIT = [[0.0, 1.0], [0.0, 1.0]]


def point_world(obstacles, res=0.01):
    space = RealVectorSpace(UNIT)
    return LevelValidity(space=space, robot=PointRobot(),
                         obstacles=obstacles,
                         workspace_lo=np.zeros(2), workspace_hi=np.ones(2),
                         check_resolution=res)


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
        j = robot.joints(np.array([[0.5, 0.5, 0.0, math.pi / 2]]))
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
    @pytest.mark.parametrize("kind", sorted(PATH_SPACES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_motion_valid_per_segment(self, kind, data):
        v, path = data.draw(polyline_worlds(kind))
        want = all(v.motion_valid(a, b) for a, b in zip(path[:-1], path[1:]))
        if len(path) == 1:
            want = v.is_valid(path[0])
        assert v.path_valid(path) == want

    @pytest.mark.parametrize("kind", sorted(PATH_SPACES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_motions_valid_equals_motion_states(self, kind, data):
        # motions_valid, which motion_valid and paths_valid call, against
        # the states of each motion checked on their own
        v, path = data.draw(polyline_worlds(kind))
        path = np.array(path)
        for a, bs in ((path[0], path), (path, path[::-1])):
            want = [bool(v.valid_mask(v.motion_states(x, b)).all())
                    for x, b in zip(np.broadcast_to(a, bs.shape), bs)]
            assert v.motions_valid(a, bs).tolist() == want

    @pytest.mark.parametrize("kind", sorted(PATH_SPACES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_batch_equals_one_at_a_time(self, kind, data):
        v, first = data.draw(polyline_worlds(kind))
        paths = [first] + [data.draw(polyline_worlds(kind))[1]
                           for _ in range(data.draw(st.integers(0, 4)))]
        batch = v.paths_valid(paths)
        assert batch.tolist() == [v.path_valid(p) for p in paths]

    def test_one_valid_mask_call(self, monkeypatch):
        v = point_world([Box([0.45, 0.0], [0.55, 0.4])])
        calls = []
        valid_mask = LevelValidity.valid_mask

        def counting(self, coords):
            calls.append(len(coords))
            return valid_mask(self, coords)
        monkeypatch.setattr(LevelValidity, "valid_mask", counting)
        paths = [[[0.2, 0.8], [0.8, 0.8]], [[0.2, 0.2], [0.5, 0.2]],
                 [[0.3, 0.3]]]
        assert v.paths_valid(paths).tolist() == [True, False, True]
        assert len(calls) == 1
