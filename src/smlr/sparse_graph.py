"""Incremental sparse roadmap spanner.

Guards are admitted through four tests (coverage, connectivity, interface,
shortcut); everything else is rejected and counted toward the consecutive
failure counter that drives the probabilistic infeasibility estimate.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum

import numpy as np

from .spaces import StateSpace
from .validity import LevelValidity


class AddOutcome(Enum):
    ADDED_COVERAGE = "coverage"
    ADDED_CONNECTIVITY = "connectivity"
    ADDED_INTERFACE_VERTEX = "interface_vertex"
    ADDED_INTERFACE_EDGE = "interface_edge"
    ADDED_QUALITY = "quality"
    REJECTED = "rejected"


class UnionFind:
    def __init__(self):
        self.parent: list[int] = []

    def add(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller root wins
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb


class SparseRoadmap:
    """Sparse spanner over one level's state space.

    delta is the visibility radius in the level's metric units; stretch_t is
    the spanner stretch factor for the shortcut test.
    """

    def __init__(self, space: StateSpace, validity: LevelValidity,
                 delta: float, stretch_t: float = 3.0):
        if delta <= 0:
            raise ValueError("visibility radius delta must be positive")
        if stretch_t <= 1:
            raise ValueError("stretch factor must exceed 1")
        self.space = space
        self.validity = validity
        self.delta = delta
        self.stretch_t = stretch_t
        self._coords: list[np.ndarray] = []
        self._coord_arr = np.empty((0, space.dim))
        self._coord_arr_dirty = False
        self.adjacency: list[list[tuple[int, float]]] = []
        self.edge_set: set[tuple[int, int]] = set()
        self.edges: list[tuple[int, int, float]] = []
        self._edge_cum: np.ndarray | None = None
        self.components = UnionFind()
        self.consecutive_failures = 0
        self.total_additions = 0
        self.total_samples = 0
        self._motion_cache: dict[tuple[int, int], bool] = {}
        self._checked = 0   # samples visible_guard_distances checked
        self._invalid = 0   # of them invalid

    # -- basic accessors ----------------------------------------------------

    @property
    def num_guards(self) -> int:
        return len(self._coords)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def guard_state(self, i: int) -> np.ndarray:
        return self._coords[i]

    def guard_coords(self) -> np.ndarray:
        if self._coord_arr_dirty:
            self._coord_arr = np.stack(self._coords) if self._coords else \
                np.empty((0, self.space.dim))
            self._coord_arr_dirty = False
        return self._coord_arr

    def same_component(self, u: int, v: int) -> bool:
        return self.components.find(u) == self.components.find(v)

    # -- mutation -----------------------------------------------------------

    def add_guard(self, q: np.ndarray) -> int:
        gid = self.components.add()
        self._coords.append(np.asarray(q, dtype=float).copy())
        self._coord_arr_dirty = True
        self.adjacency.append([])
        return gid

    def add_edge(self, u: int, v: int):
        key = (min(u, v), max(u, v))
        if key in self.edge_set:
            return
        length = self.space.distance(self._coords[u], self._coords[v])
        self.edge_set.add(key)
        self.edges.append((key[0], key[1], length))
        self.adjacency[u].append((v, length))
        self.adjacency[v].append((u, length))
        self.components.union(u, v)
        self._edge_cum = None

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_set

    # -- queries ------------------------------------------------------------

    def _guard_motion_valid(self, u: int, v: int) -> bool:
        key = (min(u, v), max(u, v))
        cached = self._motion_cache.get(key)
        if cached is None:
            cached = self.validity.motion_valid(self._coords[u],
                                                self._coords[v])
            self._motion_cache[key] = cached
        return cached

    def visible_guard_distances(self, q) -> list[tuple[int, float]] | None:
        """(id, distance) of the guards within delta of q with a valid
        straight-line motion, ordered by increasing distance (ties by
        smaller id); None when q itself is invalid.  q and all the motions
        are checked in one valid_mask call, unless the share of invalid
        states seen so far makes checking q first cheaper (see
        LevelValidity.visibility)."""
        q = np.asarray(q, dtype=float)
        coords = self.guard_coords()
        dists = self.space.distance_many(q, coords)
        near = np.nonzero(dists <= self.delta)[0]
        order = near[np.lexsort((near, dists[near]))]
        p_valid = (self._checked - self._invalid + 1) / (self._checked + 2)
        vis = self.validity.visibility(q, coords[order], p_valid)
        self._checked += 1
        self._invalid += not vis.state
        if not vis.state:
            return None
        return [(int(g), d) for g, ok, d in
                zip(order, vis.motions, vis.distances) if ok]

    def visible_guards(self, q) -> list[int]:
        """Ids of visible_guard_distances(q); [] when q is invalid."""
        return [g for g, _ in self.visible_guard_distances(q) or []]

    def shortest_graph_path(self, u: int, v: int):
        """Dijkstra path (ids, cost) or None if disconnected; deterministic
        tie-break by smaller guard id."""
        n = self.num_guards
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("unknown guard id")
        if u == v:
            return [u], 0.0
        if not self.same_component(u, v):
            return None
        dist = {u: 0.0}
        prev: dict[int, int] = {}
        heap = [(0.0, u)]
        done = set()
        while heap:
            cost, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            if node == v:
                break
            for nbr, length in sorted(self.adjacency[node]):
                cand = cost + length
                if cand < dist.get(nbr, math.inf) - 1e-15:
                    dist[nbr] = cand
                    prev[nbr] = node
                    heapq.heappush(heap, (cand, nbr))
        if v not in dist:
            return None
        path = [v]
        while path[-1] != u:
            path.append(prev[path[-1]])
        path.reverse()
        return path, dist[v]

    def path_cost_exceeds(self, u: int, v: int, bound: float) -> bool:
        """True iff the graph shortest path between u and v exceeds bound
        (early-exit bounded Dijkstra)."""
        if u == v:
            return bound < 0.0
        if not self.same_component(u, v):
            return True
        dist = {u: 0.0}
        heap = [(0.0, u)]
        done = set()
        while heap:
            cost, node = heapq.heappop(heap)
            if cost > bound:
                return True
            if node in done:
                continue
            done.add(node)
            if node == v:
                return False
            for nbr, length in self.adjacency[node]:
                cand = cost + length
                if cand <= bound and cand < dist.get(nbr, math.inf) - 1e-15:
                    dist[nbr] = cand
                    heapq.heappush(heap, (cand, nbr))
        return True

    def solution_query(self, start_id: int, goal_id: int):
        """Shortest roadmap path as a list of states, or None."""
        res = self.shortest_graph_path(start_id, goal_id)
        if res is None:
            return None
        ids, cost = res
        return [self._coords[i] for i in ids], cost

    def coverage_estimate(self) -> float:
        """Probabilistic free-space coverage 1 - 1/M from the consecutive
        failure counter."""
        return 1.0 - 1.0 / max(self.consecutive_failures, 1)

    # -- conditional addition -----------------------------------------------

    def record_failure(self):
        """Count an addition failure (e.g. an invalid sample)."""
        self.total_samples += 1
        self.consecutive_failures += 1

    def _succeed(self):
        self.total_samples += 1
        self.consecutive_failures = 0
        self.total_additions += 1

    def _have_common_neighbor(self, u: int, w: int) -> bool:
        nbrs = {g for g, _ in self.adjacency[u]}
        return any(g in nbrs for g, _ in self.adjacency[w])

    def add_conditional(self, q, visible=None) -> AddOutcome:
        """Apply the four admission tests in order; q must be a valid state.

        visible is visible_guard_distances(q) when the caller has it; an
        invalid q sees no guard.
        """
        q = np.asarray(q, dtype=float)
        if visible is None:
            visible = self.visible_guard_distances(q) or []
        vis = [g for g, _ in visible]

        # (1) coverage
        if not vis:
            self.add_guard(q)
            self._succeed()
            return AddOutcome.ADDED_COVERAGE

        # (2) connectivity
        comps: dict[int, int] = {}
        for g in vis:  # vis ordered by distance: first per component = nearest
            root = self.components.find(g)
            comps.setdefault(root, g)
        if len(comps) >= 2:
            gid = self.add_guard(q)
            for g in comps.values():
                self.add_edge(gid, g)
            self._succeed()
            return AddOutcome.ADDED_CONNECTIVITY

        # (3) interface
        for i in range(len(vis)):
            for j in range(i + 1, len(vis)):
                u, w = vis[i], vis[j]
                if self.has_edge(u, w):
                    continue
                if self.space.distance(self._coords[u], self._coords[w]) \
                        > 2.0 * self.delta:
                    continue
                if self._guard_motion_valid(u, w):
                    self.add_edge(u, w)
                    self._succeed()
                    return AddOutcome.ADDED_INTERFACE_EDGE
                if self._have_common_neighbor(u, w):
                    # a witness vertex already bridges this blocked pair;
                    # adding another would grow the graph without bound
                    continue
                gid = self.add_guard(q)
                self.add_edge(gid, u)
                self.add_edge(gid, w)
                self._succeed()
                return AddOutcome.ADDED_INTERFACE_VERTEX

        # (4) quality / shortcut
        dq = dict(visible)
        for i in range(len(vis)):
            for j in range(i + 1, len(vis)):
                u, w = vis[i], vis[j]
                if self.has_edge(u, w):
                    continue
                through = dq[u] + dq[w]
                if self.path_cost_exceeds(u, w, self.stretch_t * through):
                    gid = self.add_guard(q)
                    self.add_edge(gid, u)
                    self.add_edge(gid, w)
                    self._succeed()
                    return AddOutcome.ADDED_QUALITY

        self.total_samples += 1
        self.consecutive_failures += 1
        return AddOutcome.REJECTED

    # -- restriction-sampling support ----------------------------------------

    def sample_edge_point(self, rng: np.random.Generator) -> np.ndarray | None:
        """Uniform point on the graph restriction: edge picked proportional
        to its length, then uniform along it.  None if the graph is edgeless."""
        if not self.edges:
            return None
        if self._edge_cum is None:
            lengths = np.array([e[2] for e in self.edges])
            self._edge_cum = np.cumsum(lengths)
        total = self._edge_cum[-1]
        if total <= 0.0:
            u, v, _ = self.edges[0]
            return self._coords[u].copy()
        r = rng.random() * total
        idx = int(np.searchsorted(self._edge_cum, r, side="right"))
        idx = min(idx, len(self.edges) - 1)
        u, v, _ = self.edges[idx]
        s = rng.random()
        return self.space.interpolate(self._coords[u], self._coords[v], s)
