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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .spaces import StateSpace, points_to_edge_distance, wrap_angle
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

    def _center_differences(self, cells, off):
        """Centre differences b - a, wrapped as StateSpace._diff wraps
        them, from each cell a of cells to its neighbour b across off, and
        from b to a -> two (len(cells), dim) arrays.  Each axis's
        differences come from a table over its cells_per_dim[i] centres,
        gathered per cell; an axis off does not move reads 0."""
        fwd = np.zeros((len(cells), self.space.dim))
        rev = np.zeros_like(fwd)
        n = self.cells_per_dim
        for i in np.flatnonzero(off):
            c = self._centers_1d[i]
            nxt = np.roll(c, -off[i])
            f, r = nxt - c, c - nxt
            if self.space.circular[i]:
                f, r = wrap_angle(f), wrap_angle(r)
            t = cells // int(np.prod(n[i + 1:])) % n[i]
            fwd[:, i], rev[:, i] = f[t], r[t]
        return fwd, rev

    def _edge_weights(self, src, dst, off):
        """Weight of the pair src[i]-dst[i], dst[i] the neighbour across
        off: the smaller center distance over the directions whose motion
        passes, inf where neither does.  A distance is one matrix product
        over the differences, which can differ from distance() in the last
        bit.

        dst -> src is checked only where src -> dst fails or, on circular
        coordinates, where the two directions' distances differ in the last
        bit; on real coordinates they are always equal.
        """
        fwd, rev = self._center_differences(src, off)
        w_ab = np.sqrt((fwd * fwd) @ self.space.weights)
        w_ba = (np.sqrt((rev * rev) @ self.space.weights)
                if self.space.circular.any() else w_ab)
        # one substep has no interior state to check
        if self._substeps <= 1:
            return np.minimum(w_ab, w_ba)
        a, b = self.centers[src], self.centers[dst]
        w = np.where(self._edge_valid_mask(a, b), w_ab, np.inf)
        back = np.flatnonzero(np.isinf(w) | (w_ab != w_ba))
        back = back[self._edge_valid_mask(b[back], a[back])]
        w[back] = np.minimum(w[back], w_ba[back])
        return w

    def graph(self):
        """Sparse adjacency over free cells, edge weight = center distance.

        Each neighbour pair is one entry, in the row of the cell whose
        offset reaches the other; SciPy reads the graph undirected.  A pair
        is an edge when its motion passes in either direction.
        """
        if self._graph is not None:
            return self._graph
        shape = tuple(self.cells_per_dim)
        grid_idx = np.arange(self.n_cells).reshape(shape)
        circ = self.space.circular
        offsets = self._neighbor_offsets()
        # column k: each cell's neighbour across offsets[k] and the edge
        # weight, inf where there is no edge
        nbr = np.empty((self.n_cells, len(offsets)), dtype=grid_idx.dtype)
        wts = np.full(nbr.shape, np.inf)
        for k, off in enumerate(offsets):
            shifted = grid_idx
            inside = self.free.reshape(shape).copy()
            for axis, o in enumerate(off):
                if o == 0:
                    continue
                shifted = np.roll(shifted, -o, axis=axis)
                if not circ[axis]:
                    sl = [slice(None)] * len(shape)
                    sl[axis] = slice(-o, None) if o > 0 else slice(None, -o)
                    inside[tuple(sl)] = False
            nbr[:, k] = shifted.ravel()
            src = np.flatnonzero(inside)
            src = src[self.free[nbr[src, k]]]
            wts[src, k] = self._edge_weights(src, nbr[src, k], off)
        # on a circular axis of one or two cells, two offsets can reach the
        # same neighbour: one entry per (row, col), the lighter one
        for k, j in itertools.combinations(range(len(offsets)), 2):
            same = np.flatnonzero(nbr[:, k] == nbr[:, j])
            wts[same, k] = np.minimum(wts[same, k], wts[same, j])
            wts[same, j] = np.inf
        edge = np.isfinite(wts)
        indptr = np.concatenate(([0], np.cumsum(edge.sum(axis=1))))
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
