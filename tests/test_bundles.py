import math

import numpy as np
import pytest

from smlr.bundles import (FiberBundle, FiberBundleSequence, Level,
                          check_admissibility)
from smlr.geometry import Box, Disc
from smlr.spaces import CircleSpace, ProductSpace, RealVectorSpace
from smlr.validity import DiscRobot, LevelValidity, PointRobot


def torus_over_circle():
    t2 = ProductSpace([CircleSpace(), CircleSpace()])
    s1 = CircleSpace()
    return FiberBundle(bundle_space=t2, base_space=s1, base_indices=[0])


def r4_over_r2():
    x = RealVectorSpace([[0, 1]] * 4)
    b = RealVectorSpace([[0, 1]] * 2)
    return FiberBundle(bundle_space=x, base_space=b, base_indices=[0, 1])


class TestProjectLift:
    def test_torus_projection_drops_fiber(self):
        bundle = torus_over_circle()
        assert bundle.project([0.5, 1.2]) == pytest.approx([0.5])

    def test_r4_projection(self):
        bundle = r4_over_r2()
        assert np.allclose(bundle.project([0.1, 0.2, 0.3, 0.4]), [0.1, 0.2])

    def test_lift_is_pairing(self):
        bundle = torus_over_circle()
        x = bundle.lift([0.5], [1.2])
        assert np.allclose(x, [0.5, 1.2])

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        for bundle in (torus_over_circle(), r4_over_r2()):
            for _ in range(100):
                b = bundle.base_space.sample_uniform(rng)
                f = bundle.fiber_space.sample_uniform(rng)
                x = bundle.lift(b, f)
                assert np.array_equal(bundle.project(x), b)
                assert np.array_equal(bundle.fiber_of(x), f)

    def test_lift_many_lifts_each_row(self):
        rng = np.random.default_rng(2)
        for bundle in (torus_over_circle(), r4_over_r2()):
            bs = bundle.base_space.sample_uniform(rng, 5)
            f = bundle.fiber_space.sample_uniform(rng)
            assert bundle.lift_many(bs, f).tobytes() == \
                np.stack([bundle.lift(b, f) for b in bs]).tobytes()
            # one fiber per row
            fs = bundle.fiber_space.sample_uniform(rng, 5)
            assert bundle.lift_many(bs, fs).tobytes() == \
                np.stack([bundle.lift(b, f) for b, f in zip(bs, fs)]).tobytes()

    def test_dimension_mismatch(self):
        bundle = torus_over_circle()
        with pytest.raises(ValueError):
            bundle.project([0.5])
        with pytest.raises(ValueError):
            bundle.lift([0.5, 0.2], [1.0])
        with pytest.raises(ValueError):
            bundle.lift([0.5], [1.0, 2.0])
        with pytest.raises(ValueError):
            bundle.lift_many([0.5, 0.2], [1.0])
        for f in ([[1.0]] * 2, [[1.0]] * 4, [[[1.0]]] * 3, [1.0, 2.0]):
            with pytest.raises(ValueError):
                bundle.lift_many([[0.5]] * 3, f)

    def test_zero_dim_fiber(self):
        a = RealVectorSpace([[0, 1], [0, 1]])
        b = RealVectorSpace([[0, 1], [0, 1]])
        bundle = FiberBundle(bundle_space=a, base_space=b,
                             base_indices=[0, 1])
        assert bundle.fiber_dim == 0
        assert np.allclose(bundle.lift([0.3, 0.4]), [0.3, 0.4])

    def test_projection_lipschitz(self):
        # unit-weight base coordinates: projection cannot expand distances
        rng = np.random.default_rng(1)
        bundle = torus_over_circle()
        for _ in range(200):
            x = bundle.bundle_space.sample_uniform(rng)
            y = bundle.bundle_space.sample_uniform(rng)
            dx = bundle.bundle_space.distance(x, y)
            db = bundle.base_space.distance(bundle.project(x),
                                            bundle.project(y))
            assert db <= dx + 1e-9


def se2():
    return ProductSpace([RealVectorSpace.unit(2), CircleSpace()], [1.0, 0.1])


def planar_chain():
    return ProductSpace([RealVectorSpace.unit(2),
                         RealVectorSpace([[-3.1416, 3.1416]] * 2)],
                        [1.0, 0.05])


class TestIndices:
    """The bundle's own checks of base_indices, and the fiber indices of
    the shipped bundle shapes."""

    @pytest.mark.parametrize("indices, match", [
        ([0, 0], r"^base_indices repeat a coordinate, got \[0, 0\]$"),
        ([0], "base index count must match base dimension"),
        ([0, 1, 2], "base index count must match base dimension"),
        ([0, 3], "base indices out of range for bundle space"),
        ([-1, 1], "base indices out of range for bundle space"),
    ], ids=["repeated", "too_few", "too_many", "above_range",
            "below_range"])
    def test_bad_indices_rejected(self, indices, match):
        with pytest.raises(ValueError, match=match):
            FiberBundle(bundle_space=se2(), base_space=RealVectorSpace.unit(2),
                        base_indices=indices)

    @pytest.mark.parametrize("bundle_space, base_space, base, fiber", [
        (ProductSpace([CircleSpace(), CircleSpace()]), CircleSpace(), [0],
         [1]),
        (se2(), RealVectorSpace.unit(2), [0, 1], [2]),
        (planar_chain(), RealVectorSpace.unit(2), [0, 1], [2, 3]),
    ], ids=["torus", "se2", "chain"])
    def test_fiber_indices_of_shipped_shapes(self, bundle_space, base_space,
                                             base, fiber):
        bundle = FiberBundle(bundle_space=bundle_space,
                             base_space=base_space, base_indices=base)
        assert bundle.base_indices.tolist() == base
        assert bundle.fiber_indices.tolist() == fiber
        assert bundle.fiber_indices.dtype == np.dtype(int)
        assert bundle.fiber_space.dim == len(fiber)


class TestSampleFiber:
    def test_containment_and_determinism(self):
        bundle = torus_over_circle()
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        fa = [bundle.sample_fiber(rng_a) for _ in range(20)]
        fb = [bundle.sample_fiber(rng_b) for _ in range(20)]
        for x, y in zip(fa, fb):
            assert 0 <= x[0] < 2 * math.pi
            assert np.array_equal(x, y)

    def test_circle_fiber_uniformity(self):
        bundle = torus_over_circle()
        rng = np.random.default_rng(11)
        thetas = np.array([bundle.sample_fiber(rng)[0]
                           for _ in range(10 ** 5)])
        assert abs(np.cos(thetas).mean()) < 0.01


def nested_disc_sequence(base_radius):
    """Two R^2 levels, bundle robot = disc 0.1, base robot = disc of the
    given radius; admissible iff base_radius <= 0.1."""
    obstacles = [Disc([0.5, 0.5], 0.15)]
    ws = (np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    base_space = RealVectorSpace([[0, 1], [0, 1]])
    top_space = RealVectorSpace([[0, 1], [0, 1]])
    base = Level(base_space, LevelValidity(
        space=base_space, robot=DiscRobot(radius=base_radius),
        obstacles=obstacles, workspace_lo=ws[0], workspace_hi=ws[1]))
    top = Level(top_space, LevelValidity(
        space=top_space, robot=DiscRobot(radius=0.1),
        obstacles=obstacles, workspace_lo=ws[0], workspace_hi=ws[1]))
    bundle = FiberBundle(bundle_space=top_space, base_space=base_space,
                         base_indices=[0, 1])
    return FiberBundleSequence(levels=[base, top], bundles=[bundle])


class TestAdmissibility:
    def test_nested_geometry_admissible(self):
        seq = nested_disc_sequence(base_radius=0.05)
        report = check_admissibility(seq, 10 ** 4, np.random.default_rng(5))
        assert report.checked == 10 ** 4
        assert report.violations == 0

    def test_inflated_base_violates(self):
        seq = nested_disc_sequence(base_radius=0.2)
        report = check_admissibility(seq, 10 ** 4, np.random.default_rng(5))
        assert report.violations > 0

    def test_single_level_trivial(self):
        space = RealVectorSpace([[0, 1], [0, 1]])
        seq = FiberBundleSequence(levels=[Level(space, LevelValidity(
            space=space, robot=PointRobot(), obstacles=[]))], bundles=[])
        report = check_admissibility(seq, 100, np.random.default_rng(0))
        assert report.checked == 0 and report.violations == 0


class TestSequence:
    def test_flat_reduction(self):
        seq = nested_disc_sequence(base_radius=0.05)
        flat = seq.flat()
        assert flat.depth == 1
        assert flat.finest is seq.finest

    def test_project_to_level(self):
        t2 = ProductSpace([CircleSpace(), CircleSpace()])
        s1 = CircleSpace()
        levels = [Level(s1, LevelValidity(space=s1,
                                          robot=PointRobot((0,)),
                                          obstacles=[])),
                  Level(t2, LevelValidity(space=t2, robot=PointRobot(),
                                          obstacles=[]))]
        bundle = FiberBundle(bundle_space=t2, base_space=s1,
                             base_indices=[0])
        seq = FiberBundleSequence(levels=levels, bundles=[bundle])
        assert seq.project_to_level([0.5, 1.2], 0) == pytest.approx([0.5])
        assert np.allclose(seq.project_to_level([0.5, 1.2], 1), [0.5, 1.2])

    def test_mismatched_bundle_rejected(self):
        t2 = ProductSpace([CircleSpace(), CircleSpace()])
        s1 = CircleSpace()
        other = CircleSpace()
        levels = [Level(s1, LevelValidity(space=s1, robot=PointRobot((0,)),
                                          obstacles=[])),
                  Level(t2, LevelValidity(space=t2, robot=PointRobot(),
                                          obstacles=[]))]
        bundle = FiberBundle(bundle_space=t2, base_space=other,
                             base_indices=[0])
        with pytest.raises(ValueError):
            FiberBundleSequence(levels=levels, bundles=[bundle])

    def test_validity_on_another_space_rejected(self):
        """The planner takes delta, sampling and the metric from the
        level's space and motion checks from its validity's: one level, one
        space object."""
        space = RealVectorSpace.unit(2)
        other = RealVectorSpace([[0, 10], [0, 10]])
        with pytest.raises(ValueError, match="another space"):
            Level(space=space, validity=LevelValidity(space=other,
                                                      robot=PointRobot()))
        # an equal space that is another object is rejected too
        with pytest.raises(ValueError, match="another space"):
            Level(space=space, validity=LevelValidity(
                space=RealVectorSpace.unit(2), robot=PointRobot()))
        level = Level(space=space, validity=LevelValidity(space=space,
                                                          robot=PointRobot()))
        assert FiberBundleSequence(levels=[level]).finest is level
