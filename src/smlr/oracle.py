"""Brute-force grid oracle: ground-truth feasibility, shortest-path baselines
and graph-coverage measurement on spaces of dimension <= 4.

Occupancy is sampled at cell centers, so answers converge to the truth as the
resolution h goes to zero; circular dimensions wrap periodically.

The graph checks a lattice edge's interior substep states only where a box
certificate does not decide it: the hull of its two cells' body boxes,
widened by the robot's pad for the moved axes (0 for a translation, a
sagitta-type bound for a rotation), contains the body box of every state
between them.  When that widened hull lies inside the workspace and meets no
obstacle's bounding box, valid_mask would pass every one of those states, so
the edge stands without them and the graph is the same.  The body boxes come
from one posing per posture, the coordinates other than the position.  Each
edge weighs StateSpace.distance of its two centres, bit for bit, so an oracle
cost is a sum of the planner's own metric.

This is the one module that needs SciPy, and `import smlr` does not import
it.  SciPy loads at module level, not inside the methods, so a caller that
imports `smlr.oracle` up front pays for it there and not in its first query.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .spaces import StateSpace, points_to_edge_distance
from .validity import LevelValidity

MAX_ORACLE_DIM = 4


class GridOracle:
    """Regular grid over one level; resolution h is in metric units, so
    per-coordinate spacing is h / sqrt(w_i).  The graph's indices are
    int32, so a resolution whose cell count times the number of neighbour
    offsets reaches 2**31 raises ValueError."""

    def __init__(self, space: StateSpace, validity: LevelValidity,
                 resolution: float):
        if not (math.isfinite(resolution) and resolution > 0):
            raise ValueError(
                f"resolution must be finite and positive, got {resolution}")
        if space.dim > MAX_ORACLE_DIM:
            raise ValueError(
                f"oracle limited to {MAX_ORACLE_DIM} dimensions")
        self.space = space
        self.validity = validity
        self.h = float(resolution)
        ext = np.where(space.circular, 2.0 * math.pi, space.hi - space.lo)
        metric_ext = ext * np.sqrt(space.weights)
        # graph() indexes cells and entries in int32; checked in floats,
        # where a tiny h gives inf, before any array is allocated
        with np.errstate(over="ignore"):
            cells_per_dim = np.maximum(1.0, np.ceil(metric_ext / self.h))
        cells = math.prod(cells_per_dim.tolist())
        if cells * len(self._neighbor_offsets()) >= 2 ** 31:
            raise ValueError(
                f"resolution {resolution} gives {cells:.4g} cells, too "
                f"many for int32 graph indices (cells x neighbour offsets "
                f"must be below 2**31)")
        self.cells_per_dim = cells_per_dim.astype(int)
        self.step = ext / self.cells_per_dim
        self._centers_1d = [
            space.lo[i] + (np.arange(self.cells_per_dim[i]) + 0.5)
            * self.step[i] for i in range(space.dim)]
        mesh = np.meshgrid(*self._centers_1d, indexing="ij")
        self.centers = np.stack([m.ravel() for m in mesh], axis=-1)
        self.n_cells = len(self.centers)
        self.free = validity.valid_mask(self.centers)
        # neighbor centers are at most h*sqrt(dim) apart
        self._substeps = int(validity.motion_steps(
            self.h * math.sqrt(space.dim)))
        self._graph = None
        self._labels = None

    # -- indexing -----------------------------------------------------------

    def cell_of(self, x) -> int:
        x = self.space.normalize(x)
        idx = np.floor((x - self.space.lo) / self.step).astype(int)
        # contains() admits states up to 1e-9 outside [lo, hi]
        idx = np.clip(idx, 0, self.cells_per_dim - 1)
        return int(np.ravel_multi_index(idx, self.cells_per_dim))

    def _neighbor_offsets(self):
        """One offset per neighbour pair, the one whose first nonzero
        component is positive: the n axis offsets, plus in 2D the two
        diagonals for tighter shortest-path costs."""
        dim = self.space.dim
        offs = list(np.eye(dim, dtype=int))
        if dim == 2:
            offs += [np.array([1, -1]), np.array([1, 1])]
        return offs

    def _edge_valid_mask(self, a, b):
        """Motion check of the edges a[i] -> b[i] at their interior
        substep states, all from one valid_mask call: the states stacked
        substep-major, and an edge passes where all of its states pass.
        No edge checks no state."""
        if not len(a):
            return np.ones(0, dtype=bool)
        s = np.linspace(0.0, 1.0, self._substeps + 1)[1:-1]
        k = (len(s), 1)
        states = self.space.interpolate_many(np.tile(a, k), np.tile(b, k),
                                             np.repeat(s, len(a)))
        return self.validity.valid_mask(states).reshape(len(s), -1).all(
            axis=0)

    def _offset_weights(self, off):
        """Centre distances across off on the whole lattice, from each cell
        to its neighbour, as an array that broadcasts to the grid's shape.

        Along a moved axis the centre differences b - a take only a handful
        of distinct values, and a distance depends only on the differences
        (0 on the other axes).  So StateSpace.distances of one cell pair per
        combination of distinct values gives every weight, bit for bit, and
        each cell reads its own through the inverse indices of np.unique.
        """
        ends = [(c[:1], c[:1]) for c in self._centers_1d]
        inverse = [[0]] * self.space.dim
        for i in np.flatnonzero(off):
            c = self._centers_1d[i]
            nxt = np.roll(c, -off[i])
            _, first, inverse[i] = np.unique(nxt - c, return_index=True,
                                             return_inverse=True)
            ends[i] = (c[first], nxt[first])
        a, b = (np.stack([m.ravel() for m in np.meshgrid(
            *side, indexing="ij")], axis=-1) for side in zip(*ends))
        w = np.reshape(self.space.distances(a, b), [len(x) for x, _ in ends])
        return w[np.ix_(*inverse)]

    def _edge_weights(self, src, dst, w):
        """Weight w[i] of the pair src[i]-dst[i] where its motion passes in
        either direction, inf where neither does; dst -> src is checked
        only where src -> dst fails."""
        a, b = self.centers[src], self.centers[dst]
        fail = np.flatnonzero(~self._edge_valid_mask(a, b))
        fail = fail[~self._edge_valid_mask(b[fail], a[fail])]
        w = w.copy()
        w[fail] = np.inf
        return w

    def _centre_boxes(self):
        """Every centre's RobotModel.body_box -> (lo, hi), one row per cell.
        A body moves with its position coordinates, so a centre's box is its
        position plus the box of its posture (its other coordinates) posed
        at position 0: one posing of the few postures, broadcast over the
        lattice.  The posture's body min and max get the position added
        before the radius, as body_box adds and subtracts them, so the
        floats are body_box's own."""
        robot = self.validity.robot
        pos = list(robot.position_indices)
        axes = [[0.0] if i in pos else c
                for i, c in enumerate(self._centers_1d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        body = robot.body(np.stack([m.ravel() for m in mesh], axis=-1))
        at = self.centers[:, pos].reshape(*self.cells_per_dim, len(pos))
        lo, hi = ((at + b.reshape(*mesh[0].shape, len(pos))).reshape(
            self.n_cells, len(pos)) for b in (body.min(axis=1),
                                              body.max(axis=1)))
        return lo - robot.radius, hi + robot.radius

    def _certified(self, src, dst, boxes, pad):
        """Edges src[i]-dst[i] whose two cell boxes' hull, widened by pad,
        is clear (LevelValidity.boxes_clear) -> (n,) bool.  The body box
        of every interior state, in either direction, lies in that hull
        (RobotModel.motion_pad), so valid_mask passes each of them."""
        lo, hi = boxes
        return self.validity.boxes_clear(
            np.minimum(lo[src], lo[dst]) - pad,
            np.maximum(hi[src], hi[dst]) + pad)

    def graph(self):
        """Sparse adjacency over free cells, edge weight = StateSpace.distance
        of the two centres, the same in either argument order.

        Each neighbour pair is one entry, in the row of the cell whose
        offset reaches the other; SciPy reads the graph undirected.  A pair
        is an edge when its motion passes in either direction.  Each offset
        is one pass over the whole lattice: the index and free grids
        rolled by the offset give every cell's neighbour and whether it is
        free, and _offset_weights every distance.  A pair that _certified
        clears is an edge with no substep checked; one whose moved position
        coordinate crosses a circle's 0/2*pi seam is never certified, since
        its body jumps across the workspace, nor is any pair across a
        circular position axis of two cells, whose centres are pi apart
        both ways.  Indices are int32, which SciPy's csgraph routines use
        without a copy.
        """
        if self._graph is not None:
            return self._graph
        shape = tuple(self.cells_per_dim)
        grid_idx = np.arange(self.n_cells, dtype=np.int32).reshape(shape)
        free = self.free.reshape(shape)
        offsets = self._neighbor_offsets()
        robot = self.validity.robot
        positions = set(robot.position_indices)
        # one substep has no interior state to check, and an unconstrained
        # level passes every state
        checked = self._substeps > 1 and not self.validity.unconstrained
        if checked:
            boxes = self._centre_boxes()
        # column k: each cell's neighbour across offsets[k] and the edge
        # weight, inf where there is no edge
        nbr = np.empty((self.n_cells, len(offsets)), dtype=np.int32)
        wts = np.empty(nbr.shape)
        for k, off in enumerate(offsets):
            axes = tuple(np.flatnonzero(off))
            shift = tuple(-off[a] for a in axes)
            nbr[:, k] = np.roll(grid_idx, shift, axis=axes).ravel()
            edge = free & np.roll(free, shift, axis=axes)
            seam = np.zeros(shape, dtype=bool) if checked else None
            for a in axes:
                # the cells whose neighbour across off wraps around axis a
                sl = [slice(None)] * len(shape)
                sl[a] = slice(-off[a], None) if off[a] > 0 \
                    else slice(None, -off[a])
                if not self.space.circular[a]:
                    edge[tuple(sl)] = False
                elif checked and a in positions:
                    # two cells are pi apart both ways, a tie that the
                    # shortest arc may break across the seam: every pair
                    if shape[a] == 2:
                        sl[a] = slice(None)
                    seam[tuple(sl)] = True
            wts[:, k] = np.where(edge, self._offset_weights(off),
                                 np.inf).ravel()
            if not checked:
                continue
            src = np.flatnonzero(edge)
            # a centre difference along a is at most step[a], up to
            # rounding that BOX_MARGIN absorbs; the sum has one nonzero term
            # at most, since an offset moves one axis beyond 2-D and a
            # robot with an angle has three coordinates or more
            pad = sum(robot.motion_pad(a, self.step[a]) for a in axes)
            rest = src[~self._certified(src, nbr[src, k], boxes, pad)
                       | seam.ravel()[src]]
            wts[rest, k] = self._edge_weights(rest, nbr[rest, k],
                                              wts[rest, k])
        # only on an axis of one or two cells can two offsets reach the
        # same neighbour: one entry per (row, col), an edge if either is
        if (self.cells_per_dim <= 2).any():
            for k, j in itertools.combinations(range(len(offsets)), 2):
                same = np.flatnonzero(nbr[:, k] == nbr[:, j])
                wts[same, k] = np.minimum(wts[same, k], wts[same, j])
                wts[same, j] = np.inf
        edge = np.isfinite(wts)
        indptr = np.zeros(self.n_cells + 1, dtype=np.int32)
        np.cumsum(edge.sum(axis=1, dtype=np.int32), out=indptr[1:])
        self._graph = csr_matrix((wts[edge], nbr[edge], indptr),
                                 shape=(self.n_cells, self.n_cells))
        return self._graph

    def _component_labels(self):
        if self._labels is None:
            _, self._labels = connected_components(self.graph(),
                                                   directed=False)
        return self._labels

    # -- queries ------------------------------------------------------------

    def _endpoint_cell(self, x, name):
        c = self.cell_of(x)
        if not self.free[c]:
            raise ValueError(f"{name} cell is occupied at this resolution")
        return c

    def feasible(self, start, goal) -> bool:
        cs = self._endpoint_cell(start, "start")
        cg = self._endpoint_cell(goal, "goal")
        labels = self._component_labels()
        return bool(labels[cs] == labels[cg])

    def shortest_path_cost(self, start, goal) -> float | None:
        cs = self._endpoint_cell(start, "start")
        cg = self._endpoint_cell(goal, "goal")
        if cs == cg:
            return 0.0
        # undirected Dijkstra reaches exactly the cells of cs's component
        labels = self._component_labels()
        if labels[cs] != labels[cg]:
            return None
        # a search bounded by limit finds the same distances as a full one
        # within it; start from the centre distance times sqrt(dim), which
        # bounds an axis-aligned path in free space, and double until cg
        limit = self.space.distance(self.centers[cs], self.centers[cg]) \
            * math.sqrt(self.space.dim)
        while True:
            cost = dijkstra(self.graph(), directed=False, indices=cs,
                            limit=limit)[cg]
            if not math.isinf(cost):
                return float(cost)
            limit *= 2.0

    def coverage_fraction(self, roadmap, delta: float) -> float:
        """Fraction of free cell centers within delta of the roadmap's edge
        images (isolated guards count as degenerate edges)."""
        free_centers = self.centers[self.free]
        if len(free_centers) == 0:
            return 0.0
        if roadmap.num_guards == 0:
            return 0.0
        covered = np.zeros(len(free_centers), dtype=bool)
        segments = [(roadmap.guard_state(u), roadmap.guard_state(v))
                    for u, v, _ in roadmap.edges]
        in_edge = {u for u, v, _ in roadmap.edges} | \
                  {v for u, v, _ in roadmap.edges}
        for g in range(roadmap.num_guards):
            if g not in in_edge:
                s = roadmap.guard_state(g)
                segments.append((s, s))
        for u, v in segments:
            idx = np.nonzero(~covered)[0]
            if not len(idx):
                break
            d = points_to_edge_distance(self.space, free_centers[idx], u, v)
            covered[idx] = d <= delta
        return float(np.mean(covered))
