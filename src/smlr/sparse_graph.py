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
        if not delta > 0:
            raise ValueError("visibility radius delta must be positive")
        if not stretch_t > 1:
            raise ValueError("stretch factor must exceed 1")
        self.space = space
        self.validity = validity
        self.delta = delta
        self.stretch_t = stretch_t
        self._coords = np.empty((0, space.dim))   # row i is guard i
        self.adjacency: list[dict[int, float]] = []   # neighbour -> length
        self.edges: list[tuple[int, int, float]] = []  # insertion order
        self._edge_cum: np.ndarray | None = None
        self.components = UnionFind()
        self.consecutive_failures = 0
        self.total_additions = 0
        self.total_samples = 0
        # (min, max) guard pairs whose motion failed; a valid one is an edge
        self._blocked: set[tuple[int, int]] = set()

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
        """The guards as an (n, dim) array.  add_guard replaces it with a
        longer one, so an array taken earlier keeps its rows."""
        return self._coords

    def same_component(self, u: int, v: int) -> bool:
        return self.components.find(u) == self.components.find(v)

    # -- mutation -----------------------------------------------------------

    def add_guard(self, q: np.ndarray) -> int:
        gid = self.components.add()
        self._coords = np.concatenate(
            [self._coords, np.asarray(q, dtype=float)[None]])
        self.adjacency.append({})
        return gid

    def add_edge(self, u: int, v: int, length: float | None = None):
        """Add the edge u - v of the given length, by default the distance
        of its guards; the caller's length must be that distance."""
        if v in self.adjacency[u]:
            return
        if length is None:
            length = self.space.distance(self._coords[u], self._coords[v])
        self.edges.append((min(u, v), max(u, v), length))
        self.adjacency[u][v] = length
        self.adjacency[v][u] = length
        self.components.union(u, v)
        self._edge_cum = None

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    # -- queries ------------------------------------------------------------

    def _near_orders(self, table):
        """The guards by increasing distance, ties by smaller id, from one
        stable argsort of each distance_many row of table, and how many of
        them lie within delta -> (order, count): the near guards of row k
        are order[k, :count[k]]."""
        return (table.argsort(axis=-1, kind="stable"),
                (table <= self.delta).sum(axis=-1))

    def visible_in_order(self, xs):
        """{id: distance} of the guards within delta of x with a valid
        straight-line motion, ordered by increasing distance (ties by
        smaller id), or None when x itself is invalid, for each row x of xs
        in turn, as a generator: a value taken after admissions counts the
        admitted guards too.

        The rows are checked in one valid_mask call.  One distance_many
        table holds the distances from the valid rows not yet taken to the
        guards, and their motions to the guards within delta are checked
        in one more call, each blocked motion's entry set to inf.  The
        table is sorted once by _near_orders, so each row's visible guards
        are a prefix of its order.  When a row is taken after admissions,
        the admitted guards' columns are added to the table in one
        distance_many call, the new motions within delta are checked in one
        more, and the table is sorted again.  Every finite entry equals
        distance bit for bit, so each row's visible set, order and lengths
        are those of one row checked alone.
        """
        xs = np.asarray(xs, dtype=float)
        valid = self.validity.valid_mask(xs)
        # row k of each: the k-th valid row not yet taken; table[k, g] is
        # its distance to guard g, or inf when g is within delta and the
        # motion to g is blocked
        starts = xs[valid]
        table = self.space.distance_many(starts, self._coords)
        self._check_motions(starts, table, 0)
        order, count = self._near_orders(table)
        for ok in valid.tolist():
            if not ok:
                yield None
                continue
            fetched = table.shape[1]
            if fetched < self.num_guards:
                table = np.hstack([table, self.space.distance_many(
                    starts, self._coords[fetched:])])
                self._check_motions(starts, table, fetched)
                order, count = self._near_orders(table)
            near = order[0, :count[0]]
            yield dict(zip(near.tolist(), table[0, near].tolist()))
            starts, table = starts[1:], table[1:]
            order, count = order[1:], count[1:]

    def _check_motions(self, starts, table, first):
        """Set table[k, g] to inf for every guard g >= first with
        table[k, g] <= delta whose motion from starts[k] is blocked, from
        one LevelValidity.motions_valid call given the table's entries as
        the motions' lengths."""
        ks, gs = np.nonzero(table[:, first:] <= self.delta)
        if len(ks):
            gs += first
            blocked = ~self.validity.motions_valid(
                starts[ks], self._coords[gs], table[ks, gs])
            table[ks[blocked], gs[blocked]] = np.inf

    def visible_guards(self, q) -> list[int]:
        """Ids of the guards visible from q, nearest first; [] when q is
        invalid."""
        return list(next(self.visible_in_order(
            np.asarray(q, dtype=float)[None])) or ())

    def _search(self, u: int, v: int, bound: float = math.inf):
        """Dijkstra from u until v is settled, over paths of cost at most
        bound -> (dist, prev) maps, or None when no such path reaches v.
        Neighbours are visited in id order, so ties go to the smaller
        guard id."""
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
                return dist, prev
            for nbr, length in sorted(self.adjacency[node].items()):
                cand = cost + length
                if cand <= bound and cand < dist.get(nbr, math.inf) - 1e-15:
                    dist[nbr] = cand
                    prev[nbr] = node
                    heapq.heappush(heap, (cand, nbr))
        return None

    def shortest_graph_path(self, u: int, v: int):
        """Dijkstra path (ids, cost) or None if disconnected; deterministic
        tie-break by smaller guard id."""
        n = self.num_guards
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("unknown guard id")
        found = self.same_component(u, v) and self._search(u, v)
        if not found:
            return None
        dist, prev = found
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
        return not self.same_component(u, v) or \
            self._search(u, v, bound) is None

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

    def _admit(self, q, visible, nbrs, outcome) -> AddOutcome:
        """Add guard q with an edge of length visible[g] to each g in nbrs,
        count the success and return outcome."""
        gid = self.add_guard(q)
        for g in nbrs:
            self.add_edge(gid, g, visible[g])
        self._succeed()
        return outcome

    def add_conditional(self, q, visible=None) -> AddOutcome:
        """Apply the four admission tests in order.

        visible is q's value of visible_in_order when the caller has it;
        otherwise it is computed here, and an invalid q counts as a failure
        and is rejected, as in the planner's own step.  Its values become
        the lengths of the new guard's edges, so a caller's dict must hold
        the distance_many values that visible_in_order gives, which equal
        space.distance bit for bit.  The interface and shortcut tests walk
        one list of the visible guard pairs without an edge: neither adds
        an edge before it returns.
        """
        q = np.asarray(q, dtype=float)
        if visible is None:
            visible = next(self.visible_in_order(q[None]))
            if visible is None:
                self.record_failure()
                return AddOutcome.REJECTED
        vis = list(visible)

        # (1) coverage
        if not vis:
            return self._admit(q, visible, (), AddOutcome.ADDED_COVERAGE)

        # (2) connectivity
        comps: dict[int, int] = {}
        for g in vis:  # vis ordered by distance: first per component = nearest
            root = self.components.find(g)
            comps.setdefault(root, g)
        if len(comps) >= 2:
            return self._admit(q, visible, comps.values(),
                               AddOutcome.ADDED_CONNECTIVITY)

        pairs = [(u, w) for i, u in enumerate(vis) for w in vis[i + 1:]
                 if not self.has_edge(u, w)]

        # (3) interface
        for u, w in pairs:
            pair = (min(u, w), max(u, w))
            if pair not in self._blocked:
                if self.validity.motion_valid(self._coords[u],
                                              self._coords[w]):
                    self.add_edge(u, w)
                    self._succeed()
                    return AddOutcome.ADDED_INTERFACE_EDGE
                self._blocked.add(pair)
            if not self.adjacency[u].keys().isdisjoint(self.adjacency[w]):
                # a witness vertex already bridges this blocked pair;
                # adding another would grow the graph without bound
                continue
            return self._admit(q, visible, (u, w),
                               AddOutcome.ADDED_INTERFACE_VERTEX)

        # (4) quality / shortcut
        for u, w in pairs:
            through = visible[u] + visible[w]
            if self.path_cost_exceeds(u, w, self.stretch_t * through):
                return self._admit(q, visible, (u, w),
                                   AddOutcome.ADDED_QUALITY)

        self.record_failure()
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
