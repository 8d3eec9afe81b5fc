import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

import smlr.oracle as oracle_module
from smlr.geometry import Box, Disc, Polygon
from smlr.oracle import GridOracle
from smlr.sparse_graph import SparseRoadmap
from smlr.spaces import CircleSpace, ProductSpace, RealVectorSpace
from smlr.validity import (ChainRobot, DiscRobot, LevelValidity, PointRobot,
                           PolygonRobot)


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


class TestResolution:
    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_rejects_non_finite_or_non_positive(self, h):
        space, v = world([])
        with pytest.raises(ValueError, match="finite and positive"):
            GridOracle(space, v, h)

    @pytest.mark.parametrize("hi, h, cells", [
        (1.0, 1e-6, "1e\\+12"),
        # 2**29 cells and 4 offsets: exactly 2**31 entries
        (2.0 ** 29, 1.0, "5.369e\\+08"),
        # the cell count overflows to inf, which once cast to a 1-cell grid
        (1.0, 1e-320, "inf"),
    ])
    def test_rejects_resolution_overflowing_int32_indices(
            self, monkeypatch, hi, h, cells):
        space = RealVectorSpace([[0, 1], [0, hi]])
        v = LevelValidity(space=space, robot=PointRobot(), obstacles=[])

        def allocating(*args, **kwargs):
            raise AssertionError("grid allocated before the bound check")
        for name in ("arange", "meshgrid"):
            monkeypatch.setattr(np, name, allocating)
        monkeypatch.setattr(LevelValidity, "valid_mask", allocating)
        with pytest.raises(ValueError,
                           match=f"resolution {h} gives {cells} cells"):
            GridOracle(space, v, h)


class TestCellOf:
    @pytest.mark.parametrize("x, cell", [
        ((-5e-10, 0.5), (0, 5)),
        ((1 + 5e-10, 0.5), (9, 5)),
        ((0.5, -5e-10), (5, 0)),
        ((0.5, 1 + 5e-10), (5, 9)),
    ])
    def test_states_just_outside_bounds_clamp_to_edge_cells(self, x, cell):
        space = RealVectorSpace.unit(2)
        v = LevelValidity(space=space, robot=PointRobot(), obstacles=[])
        o = GridOracle(space, v, 0.1)
        assert space.contains(x)
        assert o.cell_of(x) == np.ravel_multi_index(cell, o.cells_per_dim)
        assert o.feasible(x, (0.5, 0.5))


class TestShortestPath:
    def test_straight_corridor(self):
        space, v = world([])
        o = GridOracle(space, v, 0.01)
        cost = o.shortest_path_cost([0.1, 0.5], [0.9, 0.5])
        assert cost == pytest.approx(0.8, rel=0.05)

    def test_disconnected_none(self, monkeypatch):
        space, v = world([Box([0.45, 0.0], [0.55, 1.0])])
        o = GridOracle(space, v, 0.03)

        # answered from the component labels, without a search
        def no_dijkstra(*args, **kwargs):
            raise AssertionError("Dijkstra run across components")
        monkeypatch.setattr(oracle_module, "dijkstra", no_dijkstra)
        assert o.shortest_path_cost([0.2, 0.5], [0.8, 0.5]) is None

    def test_cost_equals_full_dijkstra(self):
        # a full wall, a partial one and a closed ring: three components
        space, v = world([Box([0.45, 0.0], [0.55, 1.0]),
                          Box([0.2, 0.0], [0.3, 0.8]),
                          Box([0.65, 0.1], [0.95, 0.16]),
                          Box([0.65, 0.34], [0.95, 0.4]),
                          Box([0.65, 0.1], [0.71, 0.4]),
                          Box([0.89, 0.1], [0.95, 0.4])])
        o = GridOracle(space, v, 0.05)
        free = np.nonzero(o.free)[0]
        assert len(set(o._component_labels()[free])) == 3
        rng = np.random.default_rng(3)
        answers = set()
        for cs, cg in rng.choice(free, size=(60, 2)):
            full = oracle_module.dijkstra(o.graph(), directed=False,
                                          indices=cs)[cg]
            cost = o.shortest_path_cost(o.centers[cs], o.centers[cg])
            assert cost == (None if math.isinf(full) else full)
            answers.add(cost is None)
        assert answers == {True, False}

    def test_long_detour_doubles_the_limit(self, monkeypatch):
        # the wall leaves a gap at the far end only: the path is about ten
        # times the centre distance, so the bounded search doubles its
        # limit several times
        space, v = world([Box([0.45, 0.0], [0.55, 0.9])])
        o = GridOracle(space, v, 0.02)
        start, goal = [0.41, 0.05], [0.59, 0.05]
        full = oracle_module.dijkstra(o.graph(), directed=False,
                                      indices=o.cell_of(start))[
            o.cell_of(goal)]
        limits = []
        bounded = oracle_module.dijkstra

        def recording(*args, limit=np.inf, **kwargs):
            limits.append(limit)
            return bounded(*args, limit=limit, **kwargs)
        monkeypatch.setattr(oracle_module, "dijkstra", recording)
        cost = o.shortest_path_cost(start, goal)
        assert np.float64(cost).tobytes() == full.tobytes()
        assert len(limits) >= 3
        assert limits[-2] < full <= limits[-1]

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


def certify_nothing(monkeypatch):
    """Send every lattice edge through the substep check."""
    monkeypatch.setattr(GridOracle, "_certified",
                        lambda self, src, *args: np.zeros(len(src), bool))


class TestGraph:
    def test_motion_substeps(self, monkeypatch):
        certify_nothing(monkeypatch)
        # a wall thinner than a cell, between two columns of free centres
        space, v = world([Box([0.49, 0.0], [0.51, 1.0])])
        # steps of 0.1 and 0.025 of the diameter sqrt(2) split a diagonal
        # of h * sqrt(2) = 0.1 * sqrt(2) into 1 and 4 substeps
        one, four = (GridOracle(space, replace(v, check_resolution=c), 0.1)
                     for c in (0.1, 0.025))
        assert (one._substeps, four._substeps) == (1, 4)
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
            assert w == space.distance(one.centers[r], one.centers[c])

    def test_indices_are_int32(self, monkeypatch):
        # SciPy keeps int32 index arrays as they are; int64 ones it copies
        # to int32, which costs time and memory
        handed = []

        def recording(arg, **kwargs):
            handed.append(arg)
            return csr_matrix(arg, **kwargs)
        monkeypatch.setattr(oracle_module, "csr_matrix", recording)
        space, v = world([Disc([0.5, 0.5], 0.2)])
        g = GridOracle(space, v, 0.05).graph()
        [(_, indices, indptr)] = handed
        assert indices.dtype == indptr.dtype == np.int32
        assert np.shares_memory(g.indices, indices)
        assert np.shares_memory(g.indptr, indptr)


def reference_graph(o):
    """The graph built from every offset of every free cell, each motion
    checked from both ends, as GridOracle.graph built it before it stored
    each neighbour pair once, each entry weighed by StateSpace.distances;
    where two entries share a (row, col), one is kept instead of their
    sum."""
    dim = o.space.dim
    offsets = [sgn * np.eye(dim, dtype=int)[i]
               for i in range(dim) for sgn in (1, -1)]
    if dim == 2:
        offsets += [np.array(d) for d in itertools.product((-1, 1), repeat=2)]
    shape = tuple(o.cells_per_dim)
    grid_idx = np.arange(o.n_cells).reshape(shape)
    free = o.free.reshape(shape)
    lightest = {}
    for off in offsets:
        shifted = grid_idx
        valid = np.ones(shape, dtype=bool)
        for axis, step in enumerate(off):
            if step == 0:
                continue
            shifted = np.roll(shifted, -step, axis=axis)
            if not o.space.circular[axis]:
                sl = [slice(None)] * dim
                sl[axis] = slice(-step, None) if step > 0 \
                    else slice(None, -step)
                valid[tuple(sl)] = False
        src = grid_idx[free & valid]
        dst = shifted[free & valid]
        keep = o.free[dst]
        src, dst = src[keep], dst[keep]
        if o._substeps > 1:
            ok = o._edge_valid_mask(o.centers[src], o.centers[dst])
            src, dst = src[ok], dst[ok]
        w = o.space.distances(o.centers[src], o.centers[dst])
        for r, c, x in zip(src.tolist(), dst.tolist(), w):
            lightest[r, c] = min(x, lightest.get((r, c), math.inf))
    rows, cols = np.array(list(lightest), dtype=int).reshape(-1, 2).T
    return csr_matrix((list(lightest.values()), (rows, cols)),
                      shape=(o.n_cells, o.n_cells))


@st.composite
def obstacle_worlds(draw, scale):
    """Up to five boxes, discs and star-shaped polygons inside
    [0, scale]^2."""
    coord = st.floats(0.0, scale)
    obstacles = []
    for kind in draw(st.lists(st.sampled_from(["box", "disc", "polygon"]),
                              max_size=5)):
        x, y = draw(coord), draw(coord)
        if kind == "disc":
            obstacles.append(Disc([x, y], draw(st.floats(0.02, 0.2)) * scale))
        elif kind == "box":
            w, h = (draw(st.floats(0.02, 0.5)) * scale for _ in range(2))
            obstacles.append(Box([x, y], [x + w, y + h]))
        else:
            # vertices at increasing angles around (x, y): simple and CCW
            n = draw(st.integers(3, 6))
            radii = draw(st.lists(st.floats(0.02, 0.2), min_size=n,
                                  max_size=n))
            angles = 2 * math.pi * np.arange(n) / n
            obstacles.append(Polygon(
                np.array([x, y]) + scale * np.array(radii)[:, None]
                * np.stack([np.cos(angles), np.sin(angles)], axis=-1)))
    return obstacles


SE2_ROBOT = PolygonRobot(vertices=[[-0.025, -0.025], [0.175, -0.025],
                                   [0.175, 0.025], [0.025, 0.025],
                                   [0.025, 0.125], [-0.025, 0.125]])


def grid_level(kind, obstacles):
    """Validity on R^2 (disc robot), T^2 (point robot), R^2 x S^1 with
    weight 0.1 on the angle (L-shaped polygon robot) or R^2 x S^1 x
    [-pi, pi] with weight 0.05 on each joint angle (two-link chain)."""
    if kind == "torus":
        space = ProductSpace([CircleSpace(), CircleSpace()])
        return LevelValidity(space=space, robot=PointRobot(),
                             obstacles=obstacles)
    plane = RealVectorSpace([[0, 1], [0, 1]])
    if kind == "plane":
        space, robot = plane, DiscRobot(radius=0.03)
    elif kind == "se2":
        space = ProductSpace([plane, CircleSpace()], [1.0, 0.1])
        robot = SE2_ROBOT
    else:
        space = ProductSpace(
            [plane, CircleSpace(), RealVectorSpace([[-math.pi, math.pi]])],
            [1.0, 0.05, 0.05])
        robot = ChainRobot(link_lengths=(0.15, 0.15), link_radius=0.02)
    return LevelValidity(space=space, robot=robot, obstacles=obstacles,
                         workspace_lo=np.zeros(2), workspace_hi=np.ones(2))


class TestGraphEqualsReference:
    # resolutions from 1-3 cells on an axis to about 30; at most about 10
    # on the chain's four axes.  The coarse torus and chain resolutions ask
    # for one or two cells on a circle and get the floor of three
    KINDS = {"plane": (1.0, (0.04, 0.6)), "torus": (2 * math.pi, (0.2, 4.0)),
             "se2": (1.0, (0.07, 0.8)), "chain": (1.0, (0.12, 0.8))}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), substeps=st.sampled_from([1, 4]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_same_free_labels_and_distances(self, kind, data, substeps,
                                            seed):
        scale, (h_lo, h_hi) = self.KINDS[kind]
        v = grid_level(kind, data.draw(obstacle_worlds(scale)))
        h = data.draw(st.floats(h_lo, h_hi))
        # substeps = ceil(h * sqrt(dim) / (check_resolution * extent))
        diagonal = h * math.sqrt(v.space.dim) / v.space.max_extent()
        v = replace(v, check_resolution=min(1.0, diagonal / (substeps - 0.5)))
        o = GridOracle(v.space, v, h)
        # one substep needs h * sqrt(dim) <= extent: h <= pi on the torus
        assume(o._substeps == substeps)
        np.testing.assert_array_equal(o.free, v.valid_mask(o.centers))
        free = np.flatnonzero(o.free)
        assume(len(free))
        ref = reference_graph(o)
        labels = connected_components(ref, directed=False)[1]
        assert o._component_labels().tobytes() == labels.tobytes()
        sources = np.random.default_rng(seed).choice(free, 3)
        assert dijkstra(o.graph(), directed=False, indices=sources) \
            .tobytes() == dijkstra(ref, directed=False,
                                   indices=sources).tobytes()
        # entry for entry: a simple graph, with no self-loop and one entry
        # per unordered pair, one per pair of the reference, each weighing
        # the space's distance of its two centres bit for bit, in either
        # argument order
        r = ref.tocoo()
        g = o.graph().tocoo()
        entries = list(zip(g.row.tolist(), g.col.tolist()))
        assert all(row != col for row, col in entries)
        assert len(set(map(frozenset, entries))) == g.nnz
        assert set(map(frozenset, entries)) == set(
            map(frozenset, zip(r.row.tolist(), r.col.tolist())))
        rows, cols = o.centers[g.row], o.centers[g.col]
        for a, b in ((rows, cols), (cols, rows)):
            assert np.array(o.space.distances(a, b)).tobytes() \
                == g.data.tobytes()


class CheckedPairs(GridOracle):
    """A GridOracle that records the pairs graph() hands to the substep
    check; every other entry of its graph was certified."""

    def _edge_weights(self, src, dst, w):
        self.checked.update(zip(src.tolist(), dst.tolist()))
        return super()._edge_weights(src, dst, w)


class TestEdgeCertificate:
    # coarse lattices, 2 to about 15 cells on a real axis and 3 or more on
    # a circle: each edge is long against the robot, so the rotation pads
    # are wide
    KINDS = {"plane": (1.0, (0.07, 0.5)), "torus": (2 * math.pi, (0.3, 3.0)),
             "se2": (1.0, (0.08, 0.5)), "chain": (1.0, (0.15, 0.5))}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), substeps=st.sampled_from([2, 3, 5]))
    def test_certified_edges_pass_both_ways(self, kind, data, substeps):
        scale, (h_lo, h_hi) = self.KINDS[kind]
        v = grid_level(kind, data.draw(obstacle_worlds(scale)))
        h = data.draw(st.floats(h_lo, h_hi))
        diagonal = h * math.sqrt(v.space.dim) / v.space.max_extent()
        v = replace(v, check_resolution=diagonal / (substeps - 0.5))
        o = CheckedPairs(v.space, v, h)
        assume(o._substeps == substeps)
        o.checked = set()
        g = o.graph().tocoo()
        certified = np.array([(r, c) for r, c in zip(g.row.tolist(),
                                                     g.col.tolist())
                              if (r, c) not in o.checked], dtype=int)
        assume(len(certified))
        a, b = o.centers[certified[:, 0]], o.centers[certified[:, 1]]
        assert o._edge_valid_mask(a, b).all()
        assert o._edge_valid_mask(b, a).all()


def per_substep_mask(o, a, b):
    """The motion check of the edges a[i] -> b[i] as _edge_valid_mask
    once made it: one valid_mask call per interior substep over all
    edges, the masks ANDed."""
    ok = np.ones(len(a), dtype=bool)
    for s in np.linspace(0.0, 1.0, o._substeps + 1)[1:-1]:
        ok &= o.validity.valid_mask(
            o.space.interpolate_many(a, b, np.full(len(a), s)))
    return ok


def counted_masks(monkeypatch):
    """Record the rows of every valid_mask call -> list."""
    checked = []
    original = LevelValidity.valid_mask

    def valid_mask(self, coords):
        checked.append(len(coords))
        return original(self, coords)
    monkeypatch.setattr(LevelValidity, "valid_mask", valid_mask)
    return checked


class TestEdgeMaskInOneCall:
    @pytest.mark.parametrize("kind", sorted(TestEdgeCertificate.KINDS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), substeps=st.sampled_from([2, 3, 5]))
    def test_equals_per_substep_loop(self, kind, data, substeps):
        """Random edges between cell centres: the one-call mask equals
        the per-substep loop, byte for byte, from one valid_mask call of
        every edge's interior states."""
        scale, (h_lo, h_hi) = TestEdgeCertificate.KINDS[kind]
        v = grid_level(kind, data.draw(obstacle_worlds(scale)))
        h = data.draw(st.floats(h_lo, h_hi))
        diagonal = h * math.sqrt(v.space.dim) / v.space.max_extent()
        v = replace(v, check_resolution=diagonal / (substeps - 0.5))
        o = GridOracle(v.space, v, h)
        assume(o._substeps == substeps)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        a, b = (o.centers[rng.integers(0, o.n_cells, 50)] for _ in "ab")
        want = per_substep_mask(o, a, b)
        with pytest.MonkeyPatch.context() as mp:
            checked = counted_masks(mp)
            got = o._edge_valid_mask(a, b)
        assert checked == [50 * (substeps - 1)]
        assert got.tobytes() == want.tobytes()

    def test_no_edge_checks_nothing(self, monkeypatch):
        space, v = world([Box([0.4, 0.4], [0.6, 0.6])])
        o = GridOracle(space, replace(v, check_resolution=0.02), 0.1)
        assert o._substeps > 1
        checked = counted_masks(monkeypatch)
        none = np.empty((0, 2))
        assert o._edge_valid_mask(none, none).shape == (0,)
        assert checked == []


class TestOnePosingPerCentre:
    @pytest.mark.parametrize("kind, h", [("se2", 0.1), ("chain", 0.25)])
    def test_centres_posed_once(self, kind, h, monkeypatch):
        """__init__ checks the cell centres in one valid_mask call, and
        graph() poses only the postures, for the centre boxes, and the
        substep states it checks."""
        v = grid_level(kind, [Box([0.4, 0.4], [0.6, 0.6]),
                              Disc([0.2, 0.8], 0.1)])
        robot = v.robot
        posed, checked = [], []
        original_pose = type(robot).body
        original_mask = LevelValidity.valid_mask

        def counted_pose(self, coords):
            posed.append(len(coords))
            return original_pose(self, coords)

        def counted_mask(self, coords):
            checked.append(len(coords))
            return original_mask(self, coords)
        monkeypatch.setattr(type(robot), "body", counted_pose)
        monkeypatch.setattr(LevelValidity, "valid_mask", counted_mask)
        o = GridOracle(v.space, v, h)
        assert o._substeps > 1
        assert checked == [o.n_cells] and sum(posed) == o.n_cells
        posed.clear()
        checked.clear()
        o.graph()
        cells = o.cells_per_dim[list(robot.position_indices)]
        postures = o.n_cells // math.prod(cells.tolist())
        assert 1 < postures < o.n_cells
        assert sum(checked) > 0
        assert sum(posed) == postures + sum(checked)
        np.testing.assert_array_equal(o.free, v.valid_mask(o.centers))

    @pytest.mark.parametrize("kind", ["point", "disc", "se2", "chain"])
    def test_centre_boxes_equal_body_box(self, kind):
        """A centre's box is its position plus its posture's box at
        position 0, in body_box's own float operations: the posed body's
        min and max plus the position, then minus and plus the radius.
        Byte-equal for a point, a disc (here on positions (2, 0) of a 3-D
        space whose axis 1 it ignores), a polygon and a chain."""
        if kind == "point":
            space = RealVectorSpace([[0, 1], [-1, 2]])
            v = LevelValidity(space=space, robot=PointRobot())
        elif kind == "disc":
            space = RealVectorSpace([[0, 1], [-1, 2], [2, 3.5]])
            v = LevelValidity(space=space, robot=DiscRobot(
                radius=0.03, position_indices=(2, 0)))
        else:
            v = grid_level(kind, [])
        o = GridOracle(v.space, v, 0.25 if kind == "chain" else 0.1)
        lo, hi = o._centre_boxes()
        want_lo, want_hi = v.robot.body_box(o.centers)
        assert lo.shape == want_lo.shape == (o.n_cells, 2)
        assert lo.tobytes() == want_lo.tobytes()
        assert hi.tobytes() == want_hi.tobytes()


class TestCircleFloor:
    """A circular axis gets three cells or more however coarse h is, and
    every axis a spacing of at most h / sqrt(w_i) in the metric, so the
    lattice is a simple graph: no self-loop, one entry per cell pair."""

    @pytest.mark.parametrize("kind, h", [
        *(("circle", h) for h in (1.3, 2.5, 4.0, 7.0, 100.0)),
        *(("torus", h) for h in (1.3, 2.5, 4.0, 7.0, 100.0)),
        *(("se2", h) for h in (0.3, 0.7, 1.3, 2.5)),
        *(("chain", h) for h in (0.3, 0.5, 0.8, 2.5))])
    def test_three_cells_per_circle(self, kind, h):
        if kind == "circle":
            space = CircleSpace()
            v = LevelValidity(space=space, robot=PointRobot(), obstacles=[])
        else:
            v = grid_level(kind, [Box([0.4, 0.4], [0.6, 0.6])])
        o = GridOracle(v.space, v, h)
        circular = o.space.circular
        assert circular.any()
        assert (o.cells_per_dim[circular] >= 3).all()
        assert (o.step * np.sqrt(o.space.weights) <= h).all()
        g = o.graph().tocoo()
        entries = list(zip(g.row.tolist(), g.col.tolist()))
        assert all(row != col for row, col in entries)
        assert len(set(map(frozenset, entries))) == g.nnz


class TestDuplicateEntries:
    def test_two_cell_circle(self):
        # h = 4.0 asks for two cells and gets three, 2*pi/3 apart: three
        # entries, one per pair, each the centres' distance
        space = CircleSpace()
        o = GridOracle(space, LevelValidity(space=space, robot=PointRobot(),
                                            obstacles=[]), 4.0)
        assert o.n_cells == 3
        assert o.graph().nnz == 3
        for a, b in itertools.combinations(o.centers, 2):
            cost = o.shortest_path_cost(a, b)
            assert cost == space.distance(a, b)
            assert cost == pytest.approx(2 * math.pi / 3)

    def test_two_by_two_torus_diagonal(self):
        # h = 4.0 asks for 2 x 2 cells and gets 3 x 3: each cell's eight
        # neighbours are the other eight cells, so the 36 entries are the
        # 36 cell pairs, each once
        t2 = ProductSpace([CircleSpace(), CircleSpace()])
        o = GridOracle(t2, LevelValidity(space=t2, robot=PointRobot(),
                                         obstacles=[]), 4.0)
        assert o.n_cells == 9
        g = o.graph().tocoo()
        assert g.nnz == 36
        assert set(map(frozenset, zip(g.row.tolist(), g.col.tolist()))) \
            == set(map(frozenset, itertools.combinations(range(9), 2)))
        cells = [np.unravel_index(c, o.cells_per_dim) for c in range(9)]
        diagonals = [(p, q) for p, q in itertools.combinations(range(9), 2)
                     if cells[p][0] != cells[q][0]
                     and cells[p][1] != cells[q][1]]
        assert len(diagonals) == 18
        for p, q in diagonals:
            a, b = o.centers[p], o.centers[q]
            assert o.shortest_path_cost(a, b) == t2.distance(a, b)
            assert t2.distance(a, b) == pytest.approx(
                2 * math.pi / 3 * math.sqrt(2))

    def test_two_by_two_torus_diagonal_not_certified(self):
        """The box and polygon that once blocked both motions between the
        two cells pi apart of a 2 x 2 torus, now on its 3 x 3 floor: the
        graph equals the reference pair for pair, and every pair whose
        moved position coordinate crosses the 0/2*pi seam goes to the
        substep check, however clear its box hull."""
        t2 = ProductSpace([CircleSpace(), CircleSpace()])
        obstacles = [
            Box([2.3355, 5.2137], [3.6015, 8.0451]),
            Polygon([[6.1165, 1.9166], [6.1181, 2.4421], [5.1496, 2.4962],
                     [5.0436, 1.26], [6.3007, 0.8291]])]
        v = LevelValidity(space=t2, robot=PointRobot(), obstacles=obstacles)
        h = 4.0
        v = replace(v, check_resolution=h * math.sqrt(2) / (
            t2.max_extent() * 3.5))
        o = CheckedPairs(t2, v, h)
        o.checked = set()
        assert o._substeps == 4 and o.n_cells == 9
        g, ref = o.graph().tocoo(), reference_graph(o).tocoo()
        assert set(map(frozenset, zip(g.row.tolist(), g.col.tolist()))) == \
            set(map(frozenset, zip(ref.row.tolist(), ref.col.tolist())))
        seam = set()
        n = o.cells_per_dim
        for p in np.flatnonzero(o.free):
            cell = np.array(np.unravel_index(p, n))
            for off in o._neighbor_offsets():
                moved = cell + off
                q = np.ravel_multi_index(moved % n, n)
                if o.free[q] and ((moved < 0) | (moved >= n)).any():
                    seam.add((int(p), int(q)))
        assert seam and seam <= o.checked


class TestOneCheckPerPair:
    def test_reverse_direction_keeps_edge(self, monkeypatch):
        # only motions towards smaller x pass: every pair across x fails
        # from the cell whose offset reaches the other and passes only
        # backwards, and pairs along y have no edge
        certify_nothing(monkeypatch)
        space, v = world([])
        o = GridOracle(space, replace(v, check_resolution=0.05), 0.25)
        assert o._substeps > 1
        monkeypatch.setattr(GridOracle, "_edge_valid_mask",
                            lambda self, a, b: b[:, 0] < a[:, 0])
        g = o.graph().tocoo()
        edges = {frozenset((r, c)): w for r, c, w in zip(g.row, g.col, g.data)}
        assert len(edges) == g.nnz
        cells = [np.unravel_index(c, o.cells_per_dim)
                 for c in range(o.n_cells)]
        expected = {frozenset((p, q)) for p, q in
                    itertools.combinations(range(o.n_cells), 2)
                    if abs(cells[p][0] - cells[q][0]) == 1
                    and abs(cells[p][1] - cells[q][1]) <= 1}
        assert set(edges) == expected
        for pair, w in edges.items():
            p, q = pair
            assert w == space.distance(o.centers[p], o.centers[q])

    @staticmethod
    def checked_states(monkeypatch, obstacles):
        """A 4 x 8 x 2 lattice of 4 substeps in a workspace that holds
        every cell box, and its 136 neighbour pairs, each an edge, and the
        number of states valid_mask checked while graph() built it
        -> (oracle, count)."""
        space = RealVectorSpace([[0, 1], [0, 2], [0, 0.5]])
        v = LevelValidity(space=space, robot=PointRobot(),
                          obstacles=obstacles,
                          workspace_lo=np.array([-1.0, -1.0]),
                          workspace_hi=np.array([2.0, 3.0]))
        h = 0.25
        diagonal = h * math.sqrt(3) / space.max_extent()
        o = GridOracle(space, replace(v, check_resolution=diagonal / 3.5), h)
        assert o._substeps == 4
        n = o.cells_per_dim
        pairs = sum((n[i] - 1) * np.prod(np.delete(n, i)) for i in range(3))
        assert pairs == 136
        checked = []
        original = LevelValidity.valid_mask

        def valid_mask(self, coords):
            checked.append(len(coords))
            return original(self, coords)
        monkeypatch.setattr(LevelValidity, "valid_mask", valid_mask)
        assert o.graph().nnz == pairs
        return o, sum(checked)

    def test_one_motion_check_per_pair(self, monkeypatch):
        certify_nothing(monkeypatch)
        _, checked = self.checked_states(monkeypatch, [])
        assert checked == 136 * 3   # 3 interior states per pair

    def test_cleared_world_checks_no_state(self, monkeypatch):
        # the one obstacle lies beyond the lattice: every pair is certified
        o, checked = self.checked_states(monkeypatch,
                                         [Box([1.5, 1.5], [1.8, 1.8])])
        assert checked == 0
        g = o.graph().tocoo()
        for r, c, w in zip(g.row, g.col, g.data):
            assert w == o.space.distance(o.centers[r], o.centers[c])


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
