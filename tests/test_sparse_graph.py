import itertools
import math

import numpy as np
import pytest

from smlr.geometry import Box
from smlr.sparse_graph import AddOutcome, SparseRoadmap
from smlr.spaces import RealVectorSpace
from smlr.validity import LevelValidity, PointRobot


def free_world(delta=0.25, stretch=3.0):
    space = RealVectorSpace([[0, 1], [0, 1]])
    v = LevelValidity(space=space, robot=PointRobot(), obstacles=[])
    return SparseRoadmap(space, v, delta=delta, stretch_t=stretch)


def walled_world(delta=0.3):
    space = RealVectorSpace([[0, 1], [0, 1]])
    v = LevelValidity(space=space, robot=PointRobot(),
                      obstacles=[Box([0.48, 0.2], [0.52, 0.8])])
    return SparseRoadmap(space, v, delta=delta, stretch_t=3.0)


def brute_components(rm):
    """Connected components recomputed from scratch (oracle for union-find)."""
    parent = list(range(rm.num_guards))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for u, v, _ in rm.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return [find(i) for i in range(rm.num_guards)]


class TestVisibleGuards:
    def test_empty_graph(self):
        rm = free_world()
        assert rm.visible_guards([0.5, 0.5]) == []

    def test_single_guard_in_range(self):
        rm = free_world(delta=0.25)
        rm.add_guard(np.array([0.5, 0.5]))
        assert rm.visible_guards([0.5, 0.625]) == [0]

    def test_wall_blocks_visibility(self):
        rm = walled_world(delta=0.3)
        rm.add_guard(np.array([0.42, 0.5]))
        # metric-near but the wall blocks the straight-line motion
        assert rm.visible_guards([0.58, 0.5]) == []

    def test_ordered_by_distance(self):
        rm = free_world(delta=0.5)
        rm.add_guard(np.array([0.5, 0.8]))
        rm.add_guard(np.array([0.5, 0.6]))
        assert rm.visible_guards([0.5, 0.5]) == [1, 0]


class TestAddConditional:
    def test_coverage_on_empty_graph(self):
        rm = free_world()
        assert rm.add_conditional([0.5, 0.5]) is AddOutcome.ADDED_COVERAGE
        assert rm.num_guards == 1
        assert rm.consecutive_failures == 0

    def test_new_coverage_guard_sees_nobody(self):
        rm = free_world(delta=0.2)
        rng = np.random.default_rng(2)
        for _ in range(300):
            q = rm.space.sample_uniform(rng)
            if rm.add_conditional(q) is AddOutcome.ADDED_COVERAGE:
                gid = rm.num_guards - 1
                others = rm.visible_guards(rm.guard_state(gid))
                assert others == [gid]

    def test_connectivity_merges_components(self):
        rm = free_world(delta=0.25)
        rm.add_guard(np.array([0.3, 0.5]))
        rm.add_guard(np.array([0.675, 0.5]))  # 1.5 * delta apart
        out = rm.add_conditional([0.4875, 0.5])  # midway, sees both
        assert out is AddOutcome.ADDED_CONNECTIVITY
        assert rm.num_edges == 2
        assert rm.same_component(0, 1)

    def test_rejection_increments_counter(self):
        rm = free_world(delta=0.25)
        rm.add_guard(np.array([0.5, 0.5]))
        before = rm.consecutive_failures
        out = rm.add_conditional([0.5, 0.625])  # one visible guard, no pair
        assert out is AddOutcome.REJECTED
        assert rm.consecutive_failures == before + 1

    def test_success_resets_counter(self):
        rm = free_world(delta=0.2)
        rm.record_failure()
        rm.record_failure()
        assert rm.consecutive_failures == 2
        rm.add_conditional([0.5, 0.5])
        assert rm.consecutive_failures == 0

    def test_interface_edge_between_visible_pair(self):
        rm = free_world(delta=0.25)
        rm.add_guard(np.array([0.4, 0.5]))
        rm.add_guard(np.array([0.6, 0.5]))
        rm.add_edge(0, 1)  # one component now
        rm.add_guard(np.array([0.4, 0.7]))
        rm.add_edge(0, 2)
        # q sees guards 1 and 2 (distance 0.2 each): no edge between them
        out = rm.add_conditional([0.5, 0.6])
        assert out in (AddOutcome.ADDED_INTERFACE_EDGE,
                       AddOutcome.ADDED_INTERFACE_VERTEX)

    def test_interface_vertex_when_pair_blocked(self):
        rm = walled_world(delta=0.3)
        rm.add_guard(np.array([0.40, 0.62]))
        rm.add_guard(np.array([0.60, 0.62]))
        rm.components.union(0, 1)  # same component but no edge (wall between)
        out = rm.add_conditional([0.5, 0.85])
        assert out is AddOutcome.ADDED_INTERFACE_VERTEX
        assert rm.num_guards == 3
        assert rm.has_edge(2, 0) and rm.has_edge(2, 1)

    @pytest.mark.parametrize("witness, outcome", [
        ((0.5, 0.1), AddOutcome.ADDED_QUALITY),   # detour 1.37 > 3 * 0.226
        ((0.5, 0.95), AddOutcome.REJECTED),       # detour 0.38 < 3 * 0.226
    ])
    @pytest.mark.parametrize("precomputed", [False, True])
    def test_quality_test_against_stretched_detour(self, witness, outcome,
                                                   precomputed):
        # u and w straddle the wall top, both 0.113 from q above it; their
        # direct motion is blocked and the witness bridges them
        rm = walled_world(delta=0.3)
        u = rm.add_guard(np.array([0.42, 0.78]))
        w = rm.add_guard(np.array([0.58, 0.78]))
        c = rm.add_guard(np.array(witness))
        rm.add_edge(u, c)
        rm.add_edge(w, c)
        q = np.array([0.5, 0.86])
        visible = rm.visible_guard_distances(q)
        dq = dict(visible)
        assert [dq[g] for g in (u, w)] == \
            [rm.space.distance(q, rm.guard_state(g)) for g in (u, w)]
        out = rm.add_conditional(q, visible if precomputed else None)
        assert out is outcome


class TestShortestPath:
    def triangle(self, long_edge):
        rm = free_world(delta=1.5)
        rm.add_guard(np.array([0.0, 0.0]))
        rm.add_guard(np.array([long_edge, 0.0]))
        rm.add_guard(np.array([long_edge / 2, 0.05]))
        rm.adjacency = [[], [], []]
        rm.edge_set = set()
        rm.edges = []
        # force edge lengths 1, 1, long_edge via direct construction
        rm.adjacency[0] = [(2, 1.0), (1, long_edge)]
        rm.adjacency[1] = [(2, 1.0), (0, long_edge)]
        rm.adjacency[2] = [(0, 1.0), (1, 1.0)]
        rm.edges = [(0, 1, long_edge), (0, 2, 1.0), (1, 2, 1.0)]
        rm.edge_set = {(0, 1), (0, 2), (1, 2)}
        rm.components.union(0, 1)
        rm.components.union(1, 2)
        return rm

    def test_same_vertex(self):
        rm = free_world()
        rm.add_guard(np.array([0.1, 0.1]))
        assert rm.shortest_graph_path(0, 0) == ([0], 0.0)

    def test_disconnected(self):
        rm = free_world()
        rm.add_guard(np.array([0.1, 0.1]))
        rm.add_guard(np.array([0.9, 0.9]))
        assert rm.shortest_graph_path(0, 1) is None

    def test_direct_edge_beats_two_hops(self):
        rm = self.triangle(long_edge=1.9)
        path, cost = rm.shortest_graph_path(0, 1)
        assert path == [0, 1]
        assert cost == pytest.approx(1.9)

    def test_two_hops_beat_long_edge(self):
        rm = self.triangle(long_edge=2.1)
        path, cost = rm.shortest_graph_path(0, 1)
        assert path == [0, 2, 1]
        assert cost == pytest.approx(2.0)

    def test_unknown_guard(self):
        rm = free_world()
        with pytest.raises(ValueError):
            rm.shortest_graph_path(0, 5)

    def test_bounded_query_matches_full(self):
        rm = self.triangle(long_edge=2.1)
        assert not rm.path_cost_exceeds(0, 1, 2.0)
        assert rm.path_cost_exceeds(0, 1, 1.9)


class TestCoverageEstimate:
    def test_formula_values(self):
        rm = free_world()
        rm.consecutive_failures = 100
        assert rm.coverage_estimate() == pytest.approx(0.99)
        rm.consecutive_failures = 1000
        assert rm.coverage_estimate() == pytest.approx(0.999)
        rm.consecutive_failures = 1
        assert rm.coverage_estimate() == 0.0
        rm.consecutive_failures = 0
        assert rm.coverage_estimate() == 0.0


class TestComponentsConsistency:
    def test_union_find_matches_recomputation(self):
        rng = np.random.default_rng(3)
        rm = walled_world(delta=0.25)
        for _ in range(400):
            q = rm.space.sample_uniform(rng)
            if rm.validity.is_valid(q):
                rm.add_conditional(q)
            labels = brute_components(rm)
            for u, v in itertools.combinations(range(rm.num_guards), 2):
                assert (labels[u] == labels[v]) == rm.same_component(u, v)


class TestEdgeSampling:
    def test_edgeless_returns_none(self):
        rm = free_world()
        rm.add_guard(np.array([0.5, 0.5]))
        assert rm.sample_edge_point(np.random.default_rng(0)) is None

    def test_points_lie_on_edges(self):
        rm = free_world(delta=0.5)
        rm.add_guard(np.array([0.2, 0.2]))
        rm.add_guard(np.array([0.8, 0.2]))
        rm.add_guard(np.array([0.8, 0.8]))
        rm.add_edge(0, 1)
        rm.add_edge(1, 2)
        rng = np.random.default_rng(1)
        from smlr.spaces import point_to_edge_distance
        for _ in range(200):
            p = rm.sample_edge_point(rng)
            d = min(point_to_edge_distance(rm.space, p, rm.guard_state(u),
                                           rm.guard_state(v))
                    for u, v, _ in rm.edges)
            assert d <= 1e-9

    def test_length_weighted_edges(self):
        rm = free_world(delta=1.5)
        rm.add_guard(np.array([0.0, 0.0]))
        rm.add_guard(np.array([0.9, 0.0]))   # long edge
        rm.add_guard(np.array([0.0, 0.1]))   # short edge
        rm.add_edge(0, 1)
        rm.add_edge(0, 2)
        rng = np.random.default_rng(5)
        on_long = 0
        n = 5000
        for _ in range(n):
            p = rm.sample_edge_point(rng)
            if p[1] < 1e-9:
                on_long += 1
        assert on_long / n == pytest.approx(0.9, abs=0.03)
