import math

import numpy as np
import pytest

from smlr.geometry import Box, Disc
from smlr.oracle import GridOracle
from smlr.sparse_graph import SparseRoadmap
from smlr.spaces import CircleSpace, ProductSpace, RealVectorSpace
from smlr.validity import DiscRobot, LevelValidity, PointRobot


def world(obstacles, robot=None):
    space = RealVectorSpace([[0, 1], [0, 1]])
    return space, LevelValidity(space=space, robot=robot or PointRobot(),
                                obstacles=obstacles,
                                workspace_lo=np.zeros(2),
                                workspace_hi=np.ones(2))


class TestFeasibility:
    def test_empty_world(self):
        space, v = world([])
        o = GridOracle(space, v, 0.05)
        assert o.feasible([0.1, 0.1], [0.9, 0.9])

    def test_partition_wall(self):
        space, v = world([Box([0.45, 0.0], [0.55, 1.0])])
        o = GridOracle(space, v, 0.03)
        assert not o.feasible([0.2, 0.5], [0.8, 0.5])

    def test_gap_vs_disc_diameter(self):
        # wall with a gap of height 0.2 around y=0.5
        obstacles = [Box([0.45, 0.0], [0.55, 0.4]),
                     Box([0.45, 0.6], [0.55, 1.0])]
        space, v_small = world(obstacles, DiscRobot(radius=0.05))
        _, v_big = world(obstacles, DiscRobot(radius=0.12))
        assert GridOracle(space, v_small, 0.02).feasible(
            [0.2, 0.5], [0.8, 0.5])
        assert not GridOracle(space, v_big, 0.02).feasible(
            [0.2, 0.5], [0.8, 0.5])

    def test_occupied_endpoint_raises(self):
        space, v = world([Disc([0.5, 0.5], 0.2)])
        o = GridOracle(space, v, 0.05)
        with pytest.raises(ValueError):
            o.feasible([0.5, 0.5], [0.9, 0.9])

    def test_monotone_in_robot_size(self):
        obstacles = [Box([0.45, 0.0], [0.55, 0.42]),
                     Box([0.45, 0.58], [0.55, 1.0])]
        start, goal = [0.2, 0.5], [0.8, 0.5]
        previous = True
        for r in (0.02, 0.05, 0.09, 0.12):
            space, v = world(obstacles, DiscRobot(radius=r))
            feasible = GridOracle(space, v, 0.02).feasible(start, goal)
            assert previous or not feasible  # inflation never re-enables
            previous = feasible


class TestShortestPath:
    def test_straight_corridor(self):
        space, v = world([])
        o = GridOracle(space, v, 0.01)
        cost = o.shortest_path_cost([0.1, 0.5], [0.9, 0.5])
        assert cost == pytest.approx(0.8, rel=0.05)

    def test_disconnected_none(self):
        space, v = world([Box([0.45, 0.0], [0.55, 1.0])])
        o = GridOracle(space, v, 0.03)
        assert o.shortest_path_cost([0.2, 0.5], [0.8, 0.5]) is None

    def test_same_cell_zero(self):
        space, v = world([])
        o = GridOracle(space, v, 0.1)
        assert o.shortest_path_cost([0.51, 0.51], [0.52, 0.52]) == 0.0

    def test_around_obstacle_not_shorter_than_straight(self):
        space, v = world([Disc([0.5, 0.5], 0.2)])
        o = GridOracle(space, v, 0.02)
        cost = o.shortest_path_cost([0.1, 0.5], [0.9, 0.5])
        assert cost is not None
        assert cost >= 0.8

    def test_torus_wraps(self):
        t2 = ProductSpace([CircleSpace(), CircleSpace()])
        v = LevelValidity(space=t2, robot=PointRobot(), obstacles=[])
        o = GridOracle(t2, v, 0.15)
        cost = o.shortest_path_cost([0.2, 0.0], [2 * math.pi - 0.2, 0.0])
        assert cost == pytest.approx(0.4, abs=0.2)


class TestGraph:
    def test_motion_substeps(self, monkeypatch):
        # a wall thinner than a cell, between two columns of free centres
        space, v = world([Box([0.49, 0.0], [0.51, 1.0])])
        one, four = (GridOracle(space, v, 0.1, motion_substeps=n)
                     for n in (1, 4))
        checked = []
        original = LevelValidity.valid_mask

        def valid_mask(self, coords):
            checked.append(len(coords))
            return original(self, coords)
        monkeypatch.setattr(LevelValidity, "valid_mask", valid_mask)
        # one substep has no interior state: the edges across the wall
        # stay, and the graph checks nothing
        assert one.feasible([0.45, 0.5], [0.55, 0.5])
        assert checked == []
        assert not four.feasible([0.45, 0.5], [0.55, 0.5])
        assert checked
        g = one.graph().tocoo()
        for r, c, w in zip(g.row, g.col, g.data):
            assert w == pytest.approx(
                space.distance(one.centers[r], one.centers[c]))


class TestCoverageFraction:
    def make_roadmap(self, edges, guards):
        space = RealVectorSpace([[0, 1], [0, 1]])
        v = LevelValidity(space=space, robot=PointRobot(), obstacles=[])
        rm = SparseRoadmap(space, v, delta=0.25)
        for g in guards:
            rm.add_guard(np.array(g, dtype=float))
        for u, w in edges:
            rm.add_edge(u, w)
        return space, v, rm

    def test_empty_graph(self):
        space, v, rm = self.make_roadmap([], [])
        o = GridOracle(space, v, 0.05)
        assert o.coverage_fraction(rm, 0.25) == 0.0

    def test_single_guard_huge_delta(self):
        space, v, rm = self.make_roadmap([], [[0.5, 0.5]])
        o = GridOracle(space, v, 0.05)
        assert o.coverage_fraction(rm, 2.0) == 1.0

    def test_edge_tube_area(self):
        space, v, rm = self.make_roadmap([(0, 1)], [[0.0, 0.5], [1.0, 0.5]])
        o = GridOracle(space, v, 0.01)
        measured = o.coverage_fraction(rm, 0.25)
        assert measured == pytest.approx(0.5, abs=0.02)  # band y in [.25,.75]

    def test_monotone_in_delta_and_growth(self):
        space, v, rm = self.make_roadmap([(0, 1)], [[0.2, 0.2], [0.8, 0.2]])
        o = GridOracle(space, v, 0.04)
        c1 = o.coverage_fraction(rm, 0.1)
        c2 = o.coverage_fraction(rm, 0.3)
        assert c2 >= c1
        rm.add_guard(np.array([0.5, 0.8]))
        rm.add_edge(0, 2)
        c3 = o.coverage_fraction(rm, 0.1)
        assert c3 >= c1
