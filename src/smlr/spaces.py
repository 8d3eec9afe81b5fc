"""Composable geometric state spaces: real boxes, circles and weighted products.

Every space is internally flattened to per-coordinate arrays (bounds, weight,
wrap flag), so the metric is a weighted Euclidean norm with wrap-around
handling on circular coordinates.  States are plain float64 numpy arrays of
length ``space.dim``; circular coordinates are kept normalized to [0, 2*pi).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _wrap_angles(x: np.ndarray) -> np.ndarray:
    """Angles x wrapped into [0, 2*pi).  np.mod rounds an angle just below
    a multiple of 2*pi (by less than half an ulp of 2*pi) up to 2*pi
    itself; that value is 0.0 here."""
    x = np.mod(x, TWO_PI)
    x[x == TWO_PI] = 0.0
    return x


class StateSpace:
    """Base class; concrete spaces fill in the flat per-coordinate arrays.

    Attributes:
        dim: number of coordinates.
        lo, hi: per-coordinate bounds (circles use [0, 2*pi)).
        weights: per-coordinate metric weight (>0).
        circular: boolean mask of wrap-around coordinates.
    """

    dim: int
    lo: np.ndarray
    hi: np.ndarray
    weights: np.ndarray
    circular: np.ndarray

    def _init_flat(self, lo, hi, weights, circular):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.circular = np.asarray(circular, dtype=bool)
        self.dim = len(self.lo)
        # the circular coordinates (None without any), as a slice when they
        # are contiguous: a view, far cheaper than a mask on short arrays
        idx = np.flatnonzero(self.circular)
        self._wrap = idx if len(idx) else None
        if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
            self._wrap = slice(int(idx[0]), int(idx[-1]) + 1)
        if np.any(self.lo >= self.hi):
            raise ValueError("lower bound must be strictly below upper bound")
        if not np.all((self.weights > 0) & (self.weights < np.inf)):
            raise ValueError("metric weights must be positive and finite")

    # -- state handling ----------------------------------------------------

    def _check(self, x, rows: bool = False) -> np.ndarray:
        """x as one state (dim,); with rows, also as states (n, dim)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,) or x.ndim > 1 + rows:
            raise ValueError(f"state has shape {x.shape}, expected "
                             f"({self.dim},){' or (n, dim)' if rows else ''}")
        return x

    def normalize(self, x) -> np.ndarray:
        """Return a copy with circular coordinates wrapped into [0, 2*pi)."""
        x = self._check(x).copy()
        x[self.circular] = _wrap_angles(x[self.circular])
        return x

    def contains(self, x, atol: float = 1e-9) -> bool:
        x = self._check(x)
        return bool(np.all(x >= self.lo - atol) and np.all(x <= self.hi + atol))

    # -- metric ------------------------------------------------------------

    def _diff(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-coordinate difference b - a, shortest-arc on circles, in
        [-pi, pi)."""
        d = b - a
        c = self._wrap
        if c is not None:
            d[..., c] = np.mod(d[..., c] + math.pi, TWO_PI) - math.pi
        return d

    def _absdiff(self, a, b) -> np.ndarray:
        """Per-coordinate |b - a| with circular wrap; exactly symmetric."""
        d = np.abs(b - a)
        c = self._wrap
        if c is not None:
            dc = np.mod(d[..., c], TWO_PI)
            d[..., c] = np.minimum(dc, TWO_PI - dc)
        return d

    def _norm(self, d) -> np.ndarray:
        """sqrt(sum_i w_i d_i**2) over the last axis of the differences d.
        np.vecdot runs the BLAS dot kernel that np.dot runs on one state,
        once per row; the squares are made C-ordered because strided rows
        take another BLAS path, which rounds differently."""
        return np.sqrt(np.vecdot(np.multiply(d, d, order="C"), self.weights))

    def distance(self, a, b) -> float:
        """The metric: _norm on the one pair, the kernel of distances and
        distance_many."""
        return float(self._norm(self._absdiff(self._check(a),
                                              self._check(b))))

    def distances(self, a, b) -> list[float]:
        """distance(a[i], b[i]) for each row pair, bit for bit; a and b are
        each one state or rows of states."""
        d = self._absdiff(self._check(a, rows=True),
                          self._check(b, rows=True))
        return self._norm(d.reshape(-1, self.dim)).tolist()

    def distance_many(self, q, pts: np.ndarray) -> np.ndarray:
        """distance(x, p) for each row p of pts, bit for bit: q one state
        -> (len(pts),), or rows of states (n, dim) -> the (n, len(pts))
        table with one row per row x of q."""
        q = self._check(q, rows=True)
        pts = np.asarray(pts, dtype=float)
        return self._norm(self._absdiff(q[..., None, :], pts))

    # -- interpolation -----------------------------------------------------

    def interpolate(self, a, b, s: float) -> np.ndarray:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"interpolation parameter {s} outside [0, 1]")
        return self.interpolate_many(self._check(a), self._check(b), [s])[0]

    def interpolate_many(self, a, b, svals: np.ndarray) -> np.ndarray:
        """State i lies on the segment from a to b at svals[i]; a and b are
        each one state or one row per s -> (len(svals), dim):
        a + s * _diff(a, b), wrapped into [0, 2*pi) on circles."""
        a = self._check(a, rows=True)
        b = self._check(b, rows=True)
        svals = np.asarray(svals, dtype=float)
        x = svals[:, None] * self._diff(a, b)
        x += a
        c = self._wrap
        if c is not None:
            x[:, c] = _wrap_angles(x[:, c])
        return x

    # -- sampling ----------------------------------------------------------

    def sample_uniform(self, rng: np.random.Generator,
                       n: int | None = None) -> np.ndarray:
        """One uniform state (dim,), or n of them (n, dim) from one draw:
        the same values as n single draws, leaving rng where they would."""
        u = rng.random(self.dim if n is None else (n, self.dim))
        return self.lo + u * (self.hi - self.lo)

    def sample_uniform_near(self, center, radius: float,
                            rng: np.random.Generator) -> np.ndarray:
        """Per-coordinate perturbation of half-width radius/sqrt(n*w_i),
        clamped to bounds (wrapped on circles); guarantees
        distance(center, result) <= radius."""
        center = self._check(center)
        if not 0 <= radius < math.inf:
            raise ValueError("radius must be nonnegative and finite")
        if radius == 0.0:
            return center.copy()
        half = radius / np.sqrt(self.dim * self.weights)
        half = np.where(self.circular, np.minimum(half, math.pi), half)
        x = center + rng.uniform(-half, half)
        x[self.circular] = _wrap_angles(x[self.circular])
        nc = ~self.circular
        x[nc] = np.clip(x[nc], self.lo[nc], self.hi[nc])
        return x

    def max_extent(self) -> float:
        """Diameter of the space under its metric."""
        return float(self._norm(np.where(self.circular, math.pi,
                                         self.hi - self.lo)))


class RealVectorSpace(StateSpace):
    """Axis-aligned box in R^n with the Euclidean metric."""

    def __init__(self, bounds):
        bounds = np.asarray(bounds, dtype=float)
        if bounds.ndim != 2 or bounds.shape[1] != 2 or bounds.shape[0] < 1:
            raise ValueError("bounds must be a (n, 2) array of [lo, hi] rows")
        if not np.isfinite(bounds).all():
            raise ValueError(f"bounds must be finite, got {bounds.tolist()}")
        n = bounds.shape[0]
        self._init_flat(bounds[:, 0], bounds[:, 1],
                        np.ones(n), np.zeros(n, dtype=bool))

    @classmethod
    def unit(cls, n: int) -> "RealVectorSpace":
        return cls([[0.0, 1.0]] * n)


class CircleSpace(StateSpace):
    """Single angle in radians with period 2*pi; shortest-arc metric."""

    def __init__(self):
        self._init_flat([0.0], [TWO_PI], [1.0], [True])


class ProductSpace(StateSpace):
    """Weighted product of child spaces; metric sqrt(sum w_i * d_i^2)."""

    def __init__(self, children, weights=None):
        if len(children) < 2:
            raise ValueError("product space needs at least 2 children")
        if weights is None:
            weights = [1.0] * len(children)
        if len(weights) != len(children):
            raise ValueError("one weight per child required")
        if any(w <= 0 for w in weights):
            raise ValueError("child weights must be positive")
        lo = np.concatenate([c.lo for c in children])
        hi = np.concatenate([c.hi for c in children])
        w = np.concatenate([float(wc) * c.weights
                            for wc, c in zip(weights, children)])
        circ = np.concatenate([c.circular for c in children])
        self._init_flat(lo, hi, w, circ)


class CoordinateSubspace(StateSpace):
    """Space formed by a coordinate subset of another space (fiber spaces)."""

    def __init__(self, parent: StateSpace, indices):
        indices = np.asarray(indices, dtype=int)
        self._init_flat(parent.lo[indices], parent.hi[indices],
                        parent.weights[indices], parent.circular[indices])


def _shift_combos(n_circ: int) -> np.ndarray:
    """Every combination of -2*pi, 0 and 2*pi shifts -> (3**n_circ, n_circ)."""
    shifts = itertools.product((-TWO_PI, 0.0, TWO_PI), repeat=n_circ)
    return np.array(list(shifts)).reshape(3 ** n_circ, n_circ)


def points_to_edge_distance(space: StateSpace, pts: np.ndarray,
                            u, v) -> np.ndarray:
    """Exact metric distance from each row of pts to the image of the
    segment u--v.

    The interpolated segment is linear in unwrapped coordinates (shortest-arc
    increments on circles), so the distance is a weighted point-to-segment
    distance minimized over the 2*pi shifts of the points' circular
    coordinates.
    """
    pts = np.asarray(pts, dtype=float)
    u = space._check(u)
    v = space._check(v)
    w = np.sqrt(space.weights)
    a = u * w
    d = space._diff(u, v) * w
    dd = float(np.dot(d, d))
    circ_idx = np.nonzero(space.circular)[0]
    best = np.full(len(pts), np.inf)
    qw = pts * w
    for combo in _shift_combos(len(circ_idx)):
        p = qw.copy()
        p[:, circ_idx] += combo * w[circ_idx]
        if dd == 0.0:
            dist = np.linalg.norm(p - a, axis=1)
        else:
            s = np.clip((p - a) @ d / dd, 0.0, 1.0)
            dist = np.linalg.norm(p - (a + s[:, None] * d), axis=1)
        best = np.minimum(best, dist)
    return best
