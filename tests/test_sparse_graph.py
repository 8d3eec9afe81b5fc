import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smlr.geometry import Box
from smlr.sparse_graph import AddOutcome, SparseRoadmap
from smlr.spaces import RealVectorSpace
from smlr.validity import LevelValidity, PointRobot


def visible_guard_distances(rm, q) -> dict[int, float] | None:
    """The visibility query one sample at a time, kept as the reference for
    SparseRoadmap.visible_in_order: {id: distance} of the guards within
    delta of q with a valid straight-line motion, ordered by increasing
    distance (ties by smaller id); None when q itself is invalid.  q is
    checked on its own, then its motions in one more valid_mask call
    (LevelValidity.motions_valid), with the lengths read from its
    distance_many row."""
    q = np.asarray(q, dtype=float)
    if not rm.validity.valid_mask(q[None, :])[0]:
        return None
    dists = rm.space.distance_many(q, rm.guard_coords())
    order = dists.argsort(kind="stable")
    near = order[:(dists <= rm.delta).sum()]
    lengths = dists[near].tolist()
    sees = rm.validity.motions_valid(q, rm.guard_coords()[near], lengths)
    return {g: d for g, d, ok in zip(near.tolist(), lengths, sees) if ok}


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


class TestParameters:
    """delta and stretch_t are checked in the form that rejects NaN, which
    compares false with every bound."""

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
    def test_delta_must_be_positive(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            free_world(delta=delta)

    @pytest.mark.parametrize("stretch", [1.0, 0.5, math.nan])
    def test_stretch_must_exceed_one(self, stretch):
        with pytest.raises(ValueError, match="stretch factor must exceed 1"):
            free_world(stretch=stretch)


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

    def test_invalid_state_rejected(self):
        space = RealVectorSpace([[0, 1], [0, 1]])
        v = LevelValidity(space=space, robot=PointRobot(),
                          obstacles=[Box([0.4, 0.4], [0.6, 0.6])])
        rm = SparseRoadmap(space, v, delta=0.25, stretch_t=3.0)
        assert rm.add_conditional([0.5, 0.5]) is AddOutcome.REJECTED
        assert rm.num_guards == 0
        assert rm.consecutive_failures == 1
        assert rm.total_samples == 1
        assert rm.add_conditional([0.2, 0.2]) is AddOutcome.ADDED_COVERAGE
        assert v.is_valid(rm.guard_state(0))
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
        visible = next(rm.visible_in_order(q[None]))
        dq = dict(visible)
        assert [dq[g] for g in (u, w)] == \
            [rm.space.distance(q, rm.guard_state(g)) for g in (u, w)]
        out = rm.add_conditional(q, visible if precomputed else None)
        assert out is outcome
        for u, v, length in rm.edges:
            assert length.hex() == rm.space.distance(
                rm.guard_state(u), rm.guard_state(v)).hex()


class TestShortestPath:
    def triangle(self, long_edge):
        rm = free_world(delta=1.5)
        rm.add_guard(np.array([0.0, 0.0]))
        rm.add_guard(np.array([long_edge, 0.0]))
        rm.add_guard(np.array([long_edge / 2, 0.05]))
        # force edge lengths 1, 1, long_edge via direct construction
        rm.adjacency = [{2: 1.0, 1: long_edge}, {2: 1.0, 0: long_edge},
                        {0: 1.0, 1: 1.0}]
        rm.edges = [(0, 1, long_edge), (0, 2, 1.0), (1, 2, 1.0)]
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


class TestStores:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 120),
           delta=st.sampled_from([0.12, 0.3]))
    def test_each_fact_stored_once(self, seed, n, delta):
        """After any sequence of samples, guards, edges, blocked pairs and
        components agree with one another."""
        rm = walled_world(delta)
        rng = np.random.default_rng(seed)
        added = []
        for _ in range(n):
            q = rm.space.sample_uniform(rng)
            before = rm.num_guards
            if rm.validity.is_valid(q):
                rm.add_conditional(q)
            else:
                rm.record_failure()
            added += [q] * (rm.num_guards - before)

        coords = rm.guard_coords()
        assert coords.shape == (len(added), 2)
        for i, q in enumerate(added):
            assert coords[i].tobytes() == rm.guard_state(i).tobytes() == \
                q.tobytes()

        lengths = {(u, v): length for u, v, length in rm.edges}
        assert len(lengths) == len(rm.edges)
        # lengths read from a visibility dict are the guards' distance
        for (u, v), length in lengths.items():
            assert length.hex() == rm.space.distance(
                rm.guard_state(u), rm.guard_state(v)).hex()
        assert all(u < v for u, v in lengths)
        assert sum(map(len, rm.adjacency)) == 2 * len(rm.edges)
        for u, nbrs in enumerate(rm.adjacency):
            for v, length in nbrs.items():
                assert rm.adjacency[v][u] == length == \
                    lengths[min(u, v), max(u, v)]
        labels = brute_components(rm)
        for u, v in itertools.combinations(range(rm.num_guards), 2):
            assert rm.has_edge(u, v) == rm.has_edge(v, u) == \
                ((u, v) in lengths)
            assert (labels[u] == labels[v]) == rm.same_component(u, v)
        assert rm._blocked.isdisjoint(lengths)


    def test_guard_store_keeps_admitted_bytes(self):
        """After 200 admissions the guard store's rows are the admitted
        states byte for byte, and every guard_coords() array taken on the
        way still holds the guards of its time."""
        rm = free_world()
        states = np.random.default_rng(3).random((200, 2))
        taken = []
        for i, q in enumerate(states):
            assert rm.add_guard(q) == i
            view = rm.guard_coords()
            taken.append((view, view.tobytes()))
        assert rm.guard_coords().tobytes() == states.tobytes()
        for i, (view, was) in enumerate(taken):
            assert view.shape == (i + 1, 2)
            assert view.tobytes() == was == states[:i + 1].tobytes()


def lattice_world(walled):
    """Guards on the valid points of the 0.125 lattice of the unit square,
    so a sample on the half lattice is at one distance from its four
    nearest guards and one on the lattice at exactly delta = 0.125 from its
    four neighbours."""
    rm = walled_world(0.125) if walled else free_world(0.125)
    ticks = np.arange(9) * 0.125
    for x in ticks:
        for y in ticks:
            if rm.validity.is_valid([x, y]):
                rm.add_guard(np.array([x, y]))
    return rm


class TestNearOrder:
    @pytest.mark.parametrize("walled", [False, True],
                             ids=["unconstrained", "walled"])
    @pytest.mark.parametrize("kind", ["lattice", "half_lattice", "uniform"])
    def test_block_values_equal_one_at_a_time(self, walled, kind):
        """visible_in_order against the reference visible_guard_distances
        one sample at a time, add_conditional after each: the same near sets in the same
        order, which is the order of (distance, id) pairs, the same lengths
        and the same roadmap."""
        block, single = lattice_world(walled), lattice_world(walled)
        assert block.validity.unconstrained is not walled
        rng = np.random.default_rng(11)
        ties = admitted = 0
        for _ in range(6):
            if kind == "uniform":
                xs = rng.random((16, 2))
            else:
                xs = rng.integers(0, 8, (16, 2)) * 0.125
                if kind == "half_lattice":
                    xs += 0.0625
            values = block.visible_in_order(xs)
            for x in xs:
                got = next(values)
                want = visible_guard_distances(single, x)
                assert (got is None) == (want is None)
                if got is None:
                    block.record_failure()
                    single.record_failure()
                    continue
                assert list(got.items()) == list(want.items())
                d = block.space.distance_many(x, block.guard_coords())
                near = sorted((d[g], g) for g in range(len(d))
                              if d[g] <= block.delta)
                assert list(got) == [
                    g for _, g in near
                    if block.validity.motion_valid(x, block.guard_state(g))]
                lengths = list(got.values())
                ties += len(lengths) - len(set(lengths))
                outcome = block.add_conditional(x, got)
                assert single.add_conditional(x, want) is outcome
                admitted += outcome is not AddOutcome.REJECTED
        assert admitted > 0
        if kind != "uniform":
            assert ties > 0
        assert block.guard_coords().tobytes() == \
            single.guard_coords().tobytes()
        assert block.edges == single.edges


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
        from smlr.spaces import points_to_edge_distance
        for _ in range(200):
            p = rm.sample_edge_point(rng)
            d = min(points_to_edge_distance(rm.space, p[None],
                                            rm.guard_state(u),
                                            rm.guard_state(v))[0]
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
