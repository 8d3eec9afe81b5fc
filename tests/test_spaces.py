import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smlr.spaces import (CircleSpace, ProductSpace, RealVectorSpace,
                         points_to_edge_distance)
from smlr.validity import LevelValidity, PointRobot

TWO_PI = 2.0 * math.pi


def torus():
    return ProductSpace([CircleSpace(), CircleSpace()])


class TestDistance:
    def test_euclidean_345(self):
        space = RealVectorSpace([[0, 5], [0, 5]])
        assert space.distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_circle_wraparound(self):
        c = CircleSpace()
        assert c.distance([0.1], [TWO_PI - 0.1]) == pytest.approx(0.2)

    def test_torus_weighted_euclidean(self):
        t2 = torus()
        a = np.array([0.0, 0.0])
        b = np.array([0.3, 0.4])
        assert t2.distance(a, b) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            RealVectorSpace([[0, 1]]).distance([0.0], [0.1, 0.2])

    def test_metric_axioms_randomized(self):
        rng = np.random.default_rng(7)
        spaces = [RealVectorSpace([[0, 2], [-1, 3], [0, 1]]),
                  torus(),
                  ProductSpace([RealVectorSpace([[0, 1], [0, 1]]),
                                CircleSpace()], weights=[1.0, 0.3])]
        for space in spaces:
            for _ in range(200):
                a = space.sample_uniform(rng)
                b = space.sample_uniform(rng)
                c = space.sample_uniform(rng)
                dab = space.distance(a, b)
                assert dab >= 0
                assert dab == space.distance(b, a)
                assert space.distance(a, a) == 0.0
                assert space.distance(a, c) <= dab + space.distance(b, c) \
                    + 1e-9


class TestInterpolate:
    def test_endpoints(self):
        space = RealVectorSpace([[0, 1], [0, 1]])
        a, b = np.array([0.1, 0.2]), np.array([0.9, 0.4])
        assert np.allclose(space.interpolate(a, b, 0.0), a)
        assert np.allclose(space.interpolate(a, b, 1.0), b)

    def test_circle_shortest_arc_midpoint_crosses_seam(self):
        c = CircleSpace()
        mid = c.interpolate([0.1], [TWO_PI - 0.1], 0.5)
        assert mid[0] == pytest.approx(0.0, abs=1e-12)

    def test_s_out_of_range(self):
        space = RealVectorSpace([[0, 1]])
        with pytest.raises(ValueError):
            space.interpolate([0.0], [1.0], 1.5)

    def test_proportional_distance_randomized(self):
        rng = np.random.default_rng(3)
        spaces = [RealVectorSpace([[0, 1], [0, 2]]), torus(),
                  ProductSpace([RealVectorSpace([[0, 1]]), CircleSpace()],
                               weights=[2.0, 0.5])]
        for space in spaces:
            for _ in range(200):
                a = space.sample_uniform(rng)
                b = space.sample_uniform(rng)
                s = rng.random()
                x = space.interpolate(a, b, s)
                assert abs(space.distance(a, x)
                           - s * space.distance(a, b)) <= 1e-9


class TestSampling:
    def test_bounds_containment(self):
        space = RealVectorSpace([[0, 1], [0, 1]])
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = space.sample_uniform(rng)
            assert space.contains(x)

    def test_uniform_mean(self):
        space = RealVectorSpace([[0, 1]])
        rng = np.random.default_rng(42)
        samples = np.array([space.sample_uniform(rng)[0]
                            for _ in range(10 ** 5)])
        assert abs(samples.mean() - 0.5) < 0.01

    def test_determinism(self):
        space = torus()
        rng1, rng2 = np.random.default_rng(11), np.random.default_rng(11)
        seq1 = [space.sample_uniform(rng1) for _ in range(50)]
        seq2 = [space.sample_uniform(rng2) for _ in range(50)]
        assert all((x == y).all() for x, y in zip(seq1, seq2))

    @pytest.mark.parametrize("space", [
        RealVectorSpace([[0, 2], [-1, 3], [0, 1]]), CircleSpace(), torus(),
        ProductSpace([RealVectorSpace([[0, 1]] * 2), CircleSpace()],
                     [1.0, 0.3])], ids=["box", "circle", "torus", "se2"])
    @pytest.mark.parametrize("seed", range(5))
    def test_many_draws_equal_single_draws(self, space, seed):
        many, single = np.random.default_rng(seed), np.random.default_rng(seed)
        xs = space.sample_uniform(many, 7)
        assert xs.shape == (7, space.dim)
        singles = [space.sample_uniform(single) for _ in range(7)]
        assert xs.tobytes() == np.stack(singles).tobytes()
        assert many.bit_generator.state == single.bit_generator.state


class TestSampleNear:
    def test_zero_radius_returns_center(self):
        space = torus()
        rng = np.random.default_rng(1)
        center = space.sample_uniform(rng)
        assert (space.sample_uniform_near(center, 0.0, rng) == center).all()

    def test_radius_bound(self):
        rng = np.random.default_rng(2)
        spaces = [RealVectorSpace([[0, 1], [0, 1]]), torus(),
                  ProductSpace([RealVectorSpace([[0, 1], [0, 1]]),
                                CircleSpace()], weights=[1, 0.2])]
        for space in spaces:
            center = space.sample_uniform(rng)
            for _ in range(10 ** 4 // 3):
                x = space.sample_uniform_near(center, 0.3, rng)
                assert space.distance(center, x) <= 0.3 + 1e-12
                assert space.contains(x)

    def test_circle_wraps_across_seam(self):
        c = CircleSpace()
        rng = np.random.default_rng(4)
        center = np.array([0.05])
        below = False
        for _ in range(2000):
            x = c.sample_uniform_near(center, 0.2, rng)
            assert c.distance(center, x) <= 0.2 + 1e-12
            if x[0] > math.pi:  # landed on the far side of the seam
                below = True
        assert below

    @pytest.mark.parametrize("radius", [-0.1, math.nan, math.inf])
    def test_radius_must_be_nonnegative_and_finite(self, radius):
        with pytest.raises(ValueError,
                           match="radius must be nonnegative and finite"):
            torus().sample_uniform_near([1.0, 1.0], radius,
                                        np.random.default_rng(0))


class TestMaxExtent:
    def test_unit_square(self):
        assert RealVectorSpace([[0, 1], [0, 1]]).max_extent() == \
            pytest.approx(math.sqrt(2))

    def test_circle(self):
        assert CircleSpace().max_extent() == pytest.approx(math.pi)

    def test_torus(self):
        assert torus().max_extent() == pytest.approx(math.pi * math.sqrt(2))


class TestInvariants:
    def test_product_needs_two_children(self):
        with pytest.raises(ValueError):
            ProductSpace([CircleSpace()])

    def test_positive_weights(self):
        with pytest.raises(ValueError):
            ProductSpace([CircleSpace(), CircleSpace()], weights=[1, 0])

    def test_bounds_ordering(self):
        with pytest.raises(ValueError):
            RealVectorSpace([[1, 0]])

    def test_normalize_wraps(self):
        t2 = torus()
        x = t2.normalize([7.0, -1.0])
        assert 0 <= x[0] < TWO_PI and 0 <= x[1] < TWO_PI

    def test_wrap_just_below_zero_is_zero(self):
        # np.mod rounds an angle within half an ulp of 2*pi below 0 up to
        # 2*pi itself; normalize and interpolate_many give 0.0 instead
        assert np.mod(-1e-17, TWO_PI) == TWO_PI
        c = CircleSpace()
        assert c.normalize([-1e-17]).tolist() == [0.0]
        assert c.interpolate_many([0.0], [6.0], [1e-17]).tolist() == [[0.0]]


class TestEdgeDistance:
    def test_point_segment_plane(self):
        r2 = RealVectorSpace([[0, 1], [0, 1]])
        assert points_to_edge_distance(r2, [[0.5, 0.4], [2.0, 0.0]],
                                       [0, 0], [1, 0]) == \
            pytest.approx([0.4, 1.0])

    def test_matches_dense_minimization(self):
        rng = np.random.default_rng(12)
        space = ProductSpace([RealVectorSpace([[0, 1]]), CircleSpace()],
                             weights=[1.0, 0.7])
        for _ in range(50):
            u = space.sample_uniform(rng)
            v = space.sample_uniform(rng)
            q = space.sample_uniform(rng)
            dense = min(space.distance(q, space.interpolate(u, v, s))
                        for s in np.linspace(0, 1, 2001))
            exact = points_to_edge_distance(space, q[None], u, v)[0]
            assert exact <= dense + 1e-12
            assert exact >= dense - 1e-3

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(13)
        space = torus()
        u, v = space.sample_uniform(rng), space.sample_uniform(rng)
        pts = np.stack([space.sample_uniform(rng) for _ in range(40)])
        vec = points_to_edge_distance(space, pts, u, v)
        for i in range(len(pts)):
            assert vec[i] == pytest.approx(
                points_to_edge_distance(space, pts[i][None], u, v)[0])


# -- properties on weighted products of real and circle factors --------------

@st.composite
def weighted_products(draw):
    """A real interval, a circle, or a weighted product of 2-5 of them."""
    children = []
    for kind in draw(st.lists(st.sampled_from(["real", "circle"]),
                              min_size=1, max_size=5)):
        if kind == "circle":
            children.append(CircleSpace())
        else:
            lo = draw(st.floats(-5, 4))
            children.append(RealVectorSpace([[lo,
                                              lo + draw(st.floats(0.1, 5))]]))
    if len(children) == 1:
        return children[0]
    weights = draw(st.lists(st.floats(0.1, 10), min_size=len(children),
                            max_size=len(children)))
    return ProductSpace(children, weights)


def draw_state(draw, space, wrap=True):
    """A state in the bounds; with wrap, circle coordinates may lie
    anywhere in [-20, 20], not only in [0, 2*pi)."""
    return np.array([
        draw(st.floats(-20, 20)) if c and wrap else draw(st.floats(lo, hi))
        for lo, hi, c in zip(space.lo, space.hi, space.circular)])


# the same rows in four memory layouts
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "every_other_row": lambda x: np.repeat(x, 2, axis=0)[::2],
    "every_other_column": lambda x: np.repeat(x, 2, axis=1)[:, ::2],
}


def reference_distance(space, a, b):
    """The scalar metric formula, a test-local reference for the kernel
    behind distance: math.sqrt(np.dot(weights, d * d)) on the wrapped
    absolute differences d."""
    d = space._absdiff(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return math.sqrt(np.dot(space.weights, d * d))


def reference_interpolate(space, a, b, s):
    """a + s * _diff(a, b), wrapped into [0, 2*pi) on circles (np.mod,
    whose rounding up to 2*pi itself is taken to 0.0): a test-local
    reference for interpolate."""
    a = np.asarray(a, dtype=float)
    x = a + s * space._diff(a, np.asarray(b, dtype=float))
    w = np.mod(x[space.circular], TWO_PI)
    x[space.circular] = np.where(w == TWO_PI, 0.0, w)
    return x


@st.composite
def spaces_with_states(draw, k):
    space = draw(weighted_products())
    return space, [draw_state(draw, space) for _ in range(k)]


class TestMetricProperties:
    @settings(max_examples=200, deadline=None)
    @given(spaces_with_states(3))
    def test_metric_axioms(self, case):
        space, (a, b, c) = case
        d = space.distance
        assert d(a, b) == d(b, a)
        assert d(a, a) == 0.0
        assert d(a, c) <= d(a, b) + d(b, c) + 1e-12
        assert max(d(a, b), d(b, c), d(a, c)) <= space.max_extent()

    @settings(max_examples=100, deadline=None)
    @given(spaces_with_states(7))
    def test_row_pair_distances_equal_distance(self, case):
        space, states = case
        q, rows = states[0], np.stack(states[1:])
        a, b = rows[:3], rows[3:]

        def ref(x, y):
            return reference_distance(space, x, y)
        assert space.distances(a, b) == [ref(x, y) for x, y in zip(a, b)]
        assert space.distances(q, rows) == [ref(q, y) for y in rows]
        assert space.distances(rows, q) == [ref(x, q) for x in rows]
        assert space.distances(q, rows[0]) == [ref(q, rows[0])]
        assert [space.distance(q, y) for y in rows] == \
            [ref(q, y) for y in rows]

    @settings(max_examples=200, deadline=None)
    @given(spaces_with_states(2),
           st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    def test_interpolate_equals_scalar_formula(self, case, s):
        space, (a, b) = case
        assert space.interpolate(a, b, s).tobytes() == \
            reference_interpolate(space, a, b, s).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(spaces_with_states(12), st.integers(1, 11),
           st.sampled_from(sorted(LAYOUTS)), st.sampled_from(sorted(LAYOUTS)))
    def test_vectorized_distances_equal_distance(self, case, split, xs_layout,
                                                 pts_layout):
        """distances, distance_many from one state and the distance_many
        table equal the scalar formula bit for bit, whatever the inputs'
        memory layout: BLAS rounds a strided dot product differently."""
        space, states = case
        rows = np.stack(states)
        xs = LAYOUTS[xs_layout](rows[:split])
        pts = LAYOUTS[pts_layout](rows[split:])
        want = np.array([[reference_distance(space, x, p) for p in pts]
                         for x in xs])
        assert space.distance_many(xs, pts).tobytes() == want.tobytes()
        for x, row in zip(xs, want):
            assert space.distance_many(x, pts).tobytes() == row.tobytes()
        n = min(len(xs), len(pts))
        pairs = np.diagonal(want[:n, :n])
        assert np.array(space.distances(xs[:n], pts[:n])).tobytes() == \
            pairs.tobytes()
        assert np.array(space.distances(xs[0], pts)).tobytes() == \
            want[0].tobytes()


@st.composite
def motion_batches(draw):
    """A validity with some check resolution on a weighted product, and
    1-4 motions from one start or from one start per motion."""
    space = draw(weighted_products())
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        a = draw_state(draw, space)
    else:
        a = np.stack([draw_state(draw, space) for _ in range(k)])
    bs = np.stack([draw_state(draw, space, wrap=False) for _ in range(k)])
    v = LevelValidity(space=space, robot=PointRobot((0,)),
                      check_resolution=draw(st.floats(0.01, 1)))
    return v, a, bs


def motion_states(v, a, b):
    """States 0..n of the one motion a -> b, as v.motion_points discretizes
    it: the states v.motion_valid(a, b) checks."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return v.motion_points(a, b[None], [v.space.distance(a, b)])[0]


def reference_motion(v, a, b):
    """States 0..n of the motion a -> b from np.linspace and the scalar
    formulas, n = max(1, ceil(distance / step))."""
    step = v.check_resolution * v.space.max_extent()
    n = max(1, math.ceil(reference_distance(v.space, a, b) / step))
    return np.stack([reference_interpolate(v.space, a, b, s)
                     for s in np.linspace(0.0, 1.0, n + 1)])


class TestMotionDiscretization:
    @settings(max_examples=150, deadline=None)
    @given(motion_batches())
    def test_equals_linspace_and_scalar_interpolate(self, batch):
        v, a, bs = batch
        want = [reference_motion(v, x, b)
                for x, b in zip(np.broadcast_to(a, bs.shape), bs)]
        for x, b, states in zip(np.broadcast_to(a, bs.shape), bs, want):
            assert motion_states(v, x, b).tobytes() == states.tobytes()
        pts, starts = v.motion_points(a, bs, v.space.distances(a, bs))
        assert pts.tobytes() == np.concatenate(want).tobytes()
        assert starts.tolist() == \
            np.cumsum([0] + [len(s) for s in want[:-1]]).tolist()

    def test_signed_zero_start_and_last_step(self):
        # 49 * (1 / 49) rounds below 1.0, so the last state needs s = 1.0;
        # interpolate(a, b, 0) turns a start of -0.0 into +0.0
        v = LevelValidity(space=RealVectorSpace([[-1, 1]]),
                          robot=PointRobot((0,)), check_resolution=0.005)
        a, b = np.array([-0.0]), np.array([0.485])
        assert v.motion_steps(v.space.distance(a, b)) == 49
        assert 49 * (1.0 / 49) != 1.0
        want = reference_motion(v, a, b)
        assert motion_states(v, a, b).tobytes() == want.tobytes()
        for start in (a, a[None, :]):
            pts, starts = v.motion_points(start, b[None, :], [0.485])
            assert pts.tobytes() == want.tobytes()
            assert starts.tolist() == [0]

