"""Product-space fiber bundles: coordinate-subset projections, lifts and
fiber sampling, plus a statistical admissibility check between levels."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import CoordinateSubspace, StateSpace
from .validity import LevelValidity, _distinct


@dataclass
class FiberBundle:
    """Bundle X -> B where B is a coordinate subset of X.

    The fiber space is the complementary coordinate subset; it may be
    zero-dimensional (identity-like projections between levels that differ
    only in robot geometry).
    """

    bundle_space: StateSpace
    base_space: StateSpace
    base_indices: np.ndarray

    def __post_init__(self):
        self.base_indices = np.asarray(self.base_indices, dtype=int)
        nx, nb = self.bundle_space.dim, self.base_space.dim
        if len(self.base_indices) != nb:
            raise ValueError("base index count must match base dimension")
        # a set check, not np.unique: that imports numpy.ma, 9-15 ms of a
        # fresh process's set-up that nothing else uses
        listed = self.base_indices.tolist()
        _distinct("base_indices", listed)
        if self.base_indices.min() < 0 or self.base_indices.max() >= nx:
            raise ValueError("base indices out of range for bundle space")
        base = set(listed)
        self.fiber_indices = np.array(
            [i for i in range(nx) if i not in base], dtype=int)
        self.fiber_space = (CoordinateSubspace(self.bundle_space,
                                               self.fiber_indices)
                            if len(self.fiber_indices) else None)

    @property
    def fiber_dim(self) -> int:
        return len(self.fiber_indices)

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.bundle_space.dim,):
            raise ValueError("state dimension does not match bundle space")
        return x[self.base_indices].copy()

    def project_many(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(xs, dtype=float)[:, self.base_indices]

    def lift(self, b, f=None) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.base_space.dim,):
            raise ValueError("base state dimension mismatch")
        return self.lift_many(b[None], f)[0]

    def lift_many(self, bs, f=None) -> np.ndarray:
        """lift(b, f) of each row b of bs -> (n, dim), at one fiber f
        (fiber_dim,) or at one fiber per row (n, fiber_dim)."""
        bs = np.asarray(bs, dtype=float)
        if bs.ndim != 2 or bs.shape[1] != self.base_space.dim:
            raise ValueError("base state dimension mismatch")
        x = np.empty((len(bs), self.bundle_space.dim))
        x[:, self.base_indices] = bs
        if self.fiber_dim:
            f = np.asarray(f, dtype=float)
            if f.shape not in ((self.fiber_dim,),
                               (len(bs), self.fiber_dim)):
                raise ValueError("fiber state dimension mismatch")
            x[:, self.fiber_indices] = f
        return x

    def fiber_of(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x[self.fiber_indices].copy()

    def sample_fiber(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform fiber sample; product bundles have base-independent
        fibers, so no base point is needed."""
        if self.fiber_space is None:
            return np.empty(0)
        return self.fiber_space.sample_uniform(rng)


@dataclass
class Level:
    """One abstraction level: its space and constraint function, built on
    that same space."""

    space: StateSpace
    validity: LevelValidity

    def __post_init__(self):
        # the planner takes delta, sampling and the metric from space and
        # the motion checks from validity.space
        if self.validity.space is not self.space:
            raise ValueError("level validity is built on another space")


@dataclass
class FiberBundleSequence:
    """Ordered levels X_1..X_K with K-1 bundles linking consecutive pairs."""

    levels: list[Level]
    bundles: list[FiberBundle] = field(default_factory=list)

    def __post_init__(self):
        if len(self.levels) < 1:
            raise ValueError("sequence needs at least one level")
        if len(self.bundles) != len(self.levels) - 1:
            raise ValueError("need exactly K-1 bundles for K levels")
        for k, bundle in enumerate(self.bundles):
            if bundle.bundle_space is not self.levels[k + 1].space:
                raise ValueError(f"bundle {k} does not map level {k + 2}")
            if bundle.base_space is not self.levels[k].space:
                raise ValueError(f"bundle {k} does not project to level {k+1}")

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def finest(self) -> Level:
        return self.levels[-1]

    def project_to_level(self, x, k: int) -> np.ndarray:
        """Project a finest-level state down to level k (0-based)."""
        x = np.asarray(x, dtype=float)
        for bundle in reversed(self.bundles[k:]):
            x = bundle.project(x)
        return x

    def flat(self) -> "FiberBundleSequence":
        """One-level sequence over the finest space (flat baseline)."""
        return FiberBundleSequence(levels=[self.finest], bundles=[])


@dataclass
class AdmissibilityReport:
    checked: int
    violations: int


def check_admissibility(seq: FiberBundleSequence, n_samples: int,
                        rng: np.random.Generator) -> AdmissibilityReport:
    """Sample each level k >= 2 and count feasible states whose projection is
    infeasible on the level below (violations of downward feasibility)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    checked = 0
    violations = 0
    for k, bundle in enumerate(seq.bundles):
        upper = seq.levels[k + 1]
        lower = seq.levels[k]
        xs = upper.space.sample_uniform(rng, n_samples)
        checked += n_samples
        feasible = upper.validity.valid_mask(xs)
        if feasible.any():
            bases = bundle.project_many(xs[feasible])
            base_ok = lower.validity.valid_mask(bases)
            violations += int(np.sum(~base_ok))
    return AdmissibilityReport(checked=checked, violations=violations)
