"""Brute-force grid oracle: ground-truth feasibility, shortest-path baselines
and graph-coverage measurement on spaces of dimension <= 4.

Occupancy is sampled at cell centers, so answers converge to the truth as the
resolution h goes to zero; circular dimensions wrap periodically.

This is the one module that needs SciPy, and `import smlr` does not import
it.  SciPy loads at module level, not inside the methods, so a caller that
imports `smlr.oracle` up front pays for it there and not in its first query.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .spaces import StateSpace, points_to_edge_distance
from .validity import LevelValidity

MAX_ORACLE_DIM = 4


class GridOracle:
    """Regular grid over one level; resolution h is in metric units, so
    per-coordinate spacing is h / sqrt(w_i)."""

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
        self.cells_per_dim = np.maximum(
            1, np.ceil(metric_ext / self.h).astype(int))
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
        """Axis offsets (2n neighbors); diagonals added in 2D for tighter
        shortest-path costs."""
        dim = self.space.dim
        offs = []
        for i in range(dim):
            for sgn in (1, -1):
                off = np.zeros(dim, dtype=int)
                off[i] = sgn
                offs.append(off)
        if dim == 2:
            for dx, dy in itertools.product((-1, 1), repeat=2):
                offs.append(np.array([dx, dy]))
        return offs

    def _edge_valid_mask(self, a, b):
        """Motion check of the edges a[i] -> b[i] at their interior
        substep states, one substep at a time over the edges still valid."""
        ok = np.ones(len(a), dtype=bool)
        for s in np.linspace(0.0, 1.0, self._substeps + 1)[1:-1]:
            idx = np.nonzero(ok)[0]
            if not len(idx):
                break
            mid = self.space.interpolate_many(a[idx], b[idx],
                                              np.full(len(idx), s))
            ok[idx] &= self.validity.valid_mask(mid)
        return ok

    def graph(self):
        """Sparse adjacency over free cells, edge weight = center distance."""
        if self._graph is not None:
            return self._graph
        shape = tuple(self.cells_per_dim)
        grid_idx = np.arange(self.n_cells).reshape(shape)
        circ = self.space.circular
        rows, cols, data = [], [], []
        free = self.free.reshape(shape)
        for off in self._neighbor_offsets():
            shifted = grid_idx
            valid = np.ones(shape, dtype=bool)
            for axis, o in enumerate(off):
                if o == 0:
                    continue
                shifted = np.roll(shifted, -o, axis=axis)
                if not circ[axis]:
                    sl = [slice(None)] * len(shape)
                    sl[axis] = slice(-o, None) if o > 0 else slice(None, -o)
                    valid[tuple(sl)] = False
            pair_ok = free & valid
            src = grid_idx[pair_ok].ravel()
            dst = shifted[pair_ok].ravel()
            keep = self.free[dst]
            src, dst = src[keep], dst[keep]
            if not len(src):
                continue
            # one substep has no interior state to check
            if self._substeps > 1:
                motion_ok = self._edge_valid_mask(self.centers[src],
                                                  self.centers[dst])
                src, dst = src[motion_ok], dst[motion_ok]
                if not len(src):
                    continue
            d = self.space._diff(self.centers[src], self.centers[dst])
            w = np.sqrt((d * d) @ self.space.weights)
            rows.append(src)
            cols.append(dst)
            data.append(w)
        if rows:
            rows = np.concatenate(rows)
            cols = np.concatenate(cols)
            data = np.concatenate(data)
        else:
            rows = cols = data = np.empty(0)
        self._graph = coo_matrix((data, (rows, cols)),
                                 shape=(self.n_cells, self.n_cells)).tocsr()
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
        dist = dijkstra(self.graph(), directed=False, indices=cs)
        cost = dist[cg]
        return None if math.isinf(cost) else float(cost)

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
