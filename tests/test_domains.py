import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermetric import verify
from hypermetric.domains import (
    Domain,
    GenericDomain,
    HalfSpace,
    Interval,
    PointSet,
    PuncturedSpace,
    UnitBall,
    as_point,
    distance_to_set_many,
    lipschitz_defect,
    parse_domain,
    sample_complement,
    sample_interior,
)

ALL_DOMAINS = [
    UnitBall(2),
    UnitBall(3),
    HalfSpace(2),
    PuncturedSpace(2),
    Interval(0.0, 1.0),
]


def annulus_domain():
    """Generic test domain: annulus 0.25 < |x| < 1 via its exact clearance."""

    def dist(xs):
        r = np.linalg.norm(xs, axis=1)
        return np.minimum(r - 0.25, 1.0 - r)

    def member(xs):
        r = np.linalg.norm(xs, axis=1)
        return (r > 0.25) & (r < 1.0)

    return GenericDomain(2, dist, member, ((-1.0, -1.0), (1.0, 1.0)))


class TestOverrideFlags:
    """``boundary_strata`` and ``pair_window`` follow the overrides of
    ``chord_reach`` and ``geodesic_window``."""

    def test_built_in_flags(self):
        flags = {d.spec_string(): (d.boundary_strata, d.pair_window)
                 for d in [*ALL_DOMAINS, annulus_domain()]}
        assert flags == {"ball:2": (True, False), "ball:3": (True, False),
                         "halfspace:2": (True, True), "punctured:2": (True, True),
                         "interval:0:1": (True, False), "generic:2": (False, False)}

    def test_chord_reach_override_draws_collinear_triples(self):
        class ReachingAnnulus(GenericDomain):
            def chord_reach(self, z, u, delta):
                # the clearance is 1-Lipschitz, so this step keeps delta
                return np.maximum(self.clearance_many(z) - delta, 0.0)

        ring = annulus_domain()
        reaching = ReachingAnnulus(2, ring.distance_fn, ring.membership_fn, ring.box)
        assert reaching.boundary_strata and not ring.boundary_strata
        size = 400
        n_col = round(verify._FRAC_COLLINEAR * size)
        for domain, collinear in ((reaching, True), (ring, False)):
            xs, ys, zs = verify._triple_block(domain, size, np.random.default_rng(5))
            assert xs.shape == (size, 2)
            u, v = (xs - zs)[-n_col:], (ys - zs)[-n_col:]
            # x and y on opposite sides of z along one line
            cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
            line = ((np.abs(cross) <= 1e-12 * (1.0 + np.abs(u).sum(1) * np.abs(v).sum(1)))
                    & (np.sum(u * v, axis=1) <= 0.0))
            assert line.all() == collinear
            assert np.all(domain.clearance_many(np.concatenate([xs, ys, zs])) > 0.0)


class TestContains:
    def test_ball_center(self):
        assert UnitBall(2).contains_many([(0, 0)]).tolist() == [True]

    def test_ball_boundary_excluded(self):
        assert UnitBall(2).contains_many([(1, 0)]).tolist() == [False]

    def test_interval_midpoint(self):
        assert Interval(0, 1).contains_many([0.5]).tolist() == [True]

    def test_punctured_origin_excluded(self):
        assert PuncturedSpace(2).contains_many([(0, 0)]).tolist() == [False]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            UnitBall(2).contains_many([(1, 0, 0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            as_point((np.nan, 0))


class TestBoundaryDistance:
    def test_ball(self):
        assert UnitBall(2).clearance_many([(0.5, 0)])[0] == pytest.approx(0.5, abs=1e-15)

    def test_halfspace(self):
        assert HalfSpace(2).clearance_many([(3, 0.25)])[0] == pytest.approx(0.25, abs=1e-15)

    def test_interval(self):
        assert Interval(0, 1).clearance_many([0.2])[0] == pytest.approx(0.2, abs=1e-15)

    def test_outside_reads_nonpositive(self):
        assert UnitBall(2).clearance_many([(2, 0)])[0] == -1.0

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=lambda d: d.spec_string())
    def test_positivity_on_samples(self, domain):
        pts = sample_interior(domain, 500, seed=3, min_clearance=1e-9)
        d = domain.clearance_many(pts)
        assert np.all(d > 0)


class TestBruteForceBoundaryOracle:
    """Closed-form clearances against dense boundary sampling (n = 2)."""

    N_BOUNDARY = 10_000

    def test_ball(self):
        domain = UnitBall(2)
        pts = sample_interior(domain, 50, seed=1, min_clearance=1e-3)
        ang = 2 * np.pi * np.arange(self.N_BOUNDARY) / self.N_BOUNDARY
        boundary = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        for p in pts:
            brute = np.min(np.linalg.norm(boundary - p, axis=1))
            assert abs(brute - domain.clearance_many([p])[0]) < 1e-6

    def test_halfspace(self):
        domain = HalfSpace(2)
        pts = sample_interior(domain, 50, seed=2, min_clearance=1e-2)
        for p in pts:
            line = np.linspace(p[0] - 1.0, p[0] + 1.0, self.N_BOUNDARY)
            boundary = np.stack([line, np.zeros_like(line)], axis=1)
            brute = np.min(np.linalg.norm(boundary - p, axis=1))
            assert abs(brute - domain.clearance_many([p])[0]) < 1e-6

    def test_interval(self):
        domain = Interval(0, 1)
        pts = sample_interior(domain, 50, seed=3, min_clearance=1e-3)
        boundary = np.array([[0.0], [1.0]])
        for p in pts:
            brute = np.min(np.abs(boundary[:, 0] - p[0]))
            assert abs(brute - domain.clearance_many([p])[0]) < 1e-15


class TestDistanceToSet:
    def test_single_point(self):
        a = PointSet(np.array([[1.0, 0.0]]))
        assert distance_to_set_many([(0, 0)], a) == pytest.approx([1.0])

    def test_nearer_of_two(self):
        a = PointSet(np.array([[3.0, 0.0], [0.0, 2.0]]))
        assert distance_to_set_many([(0, 0)], a) == pytest.approx([2.0])

    def test_translation(self):
        eps = 0.125
        a = PointSet(np.array([[1.0, 1.0 + eps]]))
        assert distance_to_set_many([(1, 1)], a) == pytest.approx([eps], abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            PointSet(np.empty((0, 2)))

    def test_member_inside_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            PointSet.outside(UnitBall(2), [[0.5, 0.0]])

    def test_complement_sampler(self):
        for domain in ALL_DOMAINS:
            a = sample_complement(domain, 5, seed=9)
            assert not np.any(domain.contains_many(a.points))

    def test_lipschitz_for_point_sets(self):
        domain = UnitBall(2)
        a = sample_complement(domain, 6, seed=4)
        xs = sample_interior(domain, 400, seed=5, min_clearance=1e-6)
        ys = sample_interior(domain, 400, seed=6, min_clearance=1e-6)

        gap = np.abs(distance_to_set_many(xs, a) - distance_to_set_many(ys, a))
        assert np.all(gap <= np.linalg.norm(xs - ys, axis=1) + 1e-12)


class TestSampling:
    def test_contract(self):
        pts = sample_interior(UnitBall(2), 100, seed=7, min_clearance=1e-3)
        assert pts.shape == (100, 2)
        assert np.all(UnitBall(2).clearance_many(pts) >= 1e-3)

    def test_determinism(self):
        a = sample_interior(UnitBall(2), 100, seed=7, min_clearance=1e-3)
        b = sample_interior(UnitBall(2), 100, seed=7, min_clearance=1e-3)
        assert np.array_equal(a, b)

    def test_interval_range(self):
        pts = sample_interior(Interval(0, 1), 3, seed=1, min_clearance=0.01)
        assert pts.shape == (3, 1)
        assert np.all((pts >= 0.01) & (pts <= 0.99))

    def test_infeasible_clearance(self):
        with pytest.raises(ValueError, match="^could not reach clearance 1.0 in ball:2; "
                                             "clearance is likely infeasible for the sample box$"):
            sample_interior(UnitBall(2), 10, seed=0, min_clearance=1.0)

    def test_rare_acceptance_still_fills_the_request(self):
        # under 1% of the 9-cube lies in the ball: well over 200 batches,
        # each accepting a few points
        pts = sample_interior(UnitBall(9), 10000, 1, 1e-3)
        assert pts.shape == (10000, 9)
        assert np.all(UnitBall(9).clearance_many(pts) >= 1e-3)

    def test_batches_that_accept_points_keep_the_stream(self):
        # the batch sizes are as before, so a request that filled within
        # 200 batches draws the same points
        rng = np.random.default_rng(4)
        expected = []
        while len(expected) < 50:
            cand = rng.uniform(-1.0, 1.0, size=(max(1024, 2 * (50 - len(expected))), 3))
            expected.extend(cand[UnitBall(3).clearance_many(cand) >= 0.6][:50 - len(expected)])
        assert np.array_equal(sample_interior(UnitBall(3), 50, 4, 0.6), expected)

    def test_clearance_reached_only_in_the_box_corners(self):
        # |x| reaches 2 sqrt(2) at the corners of [-2, 2]^2
        pts = sample_interior(PuncturedSpace(2), 3, 0, min_clearance=2.2)
        assert np.all(PuncturedSpace(2).clearance_many(pts) >= 2.2)

    def test_clearance_reached_only_along_a_tall_box(self):
        upper = GenericDomain(2, lambda xs: xs[:, 1], lambda xs: xs[:, 1] > 0.0,
                              ((-1.0, 0.0), (1.0, 3.0)))
        pts = sample_interior(upper, 3, 0, min_clearance=2.0)
        assert np.all(pts[:, 1] >= 2.0)


class TestGenericBox:
    def test_list_box_is_stored_as_float_tuples(self):
        ring = annulus_domain()
        listed = GenericDomain(2, ring.distance_fn, ring.membership_fn, [[-1, -1], [1, 1]])
        assert listed.box == ((-1.0, -1.0), (1.0, 1.0)) == ring.box
        assert all(type(v) is float for row in listed.box for v in row)

    @pytest.mark.parametrize("dimension, box", [
        (0, ((), ())),
        (2, ((-1.0, -1.0),)),
        (2, ((-1.0, -1.0), (1.0, 1.0), (2.0, 2.0))),
        (2, ((-1.0,), (1.0,))),
        (2, ((-1.0, "a"), (1.0, 1.0))),
        (2, ((-1.0, -1.0), (1.0, math.inf))),
        (2, ((-1.0, math.nan), (1.0, 1.0))),
        (2, ((1.0, -1.0), (-1.0, 1.0))),
        (2, ((-1.0, 1.0), (1.0, 1.0))),
    ], ids=["dimension-0", "one-row", "three-rows", "short-rows", "not-a-number",
            "infinite", "nan", "inverted", "empty"])
    def test_bad_box_rejected(self, dimension, box):
        ring = annulus_domain()
        with pytest.raises(ValueError, match=r"box .* must be two rows"):
            GenericDomain(dimension, ring.distance_fn, ring.membership_fn, box)


class TestLipschitz:
    @pytest.mark.parametrize(
        "domain", ALL_DOMAINS + [annulus_domain()], ids=lambda d: d.spec_string()
    )
    def test_clearance_is_1_lipschitz(self, domain):
        assert lipschitz_defect(domain) <= 1e-12


class TestParseDomain:
    def test_round_trip(self):
        for spec in ["ball:2", "halfspace:3", "punctured:2", "interval:0:1"]:
            assert parse_domain(spec).spec_string() == spec

    @pytest.mark.parametrize("a, b, spec", [
        (0.1234567, 1.0, "interval:0.1234567:1"),
        (1 / 3, 2.5, "interval:0.3333333333333333:2.5"),
        (-1e-7, 123456789.0, "interval:-1e-07:123456789.0"),
    ])
    def test_interval_spec_keeps_its_endpoints(self, a, b, spec):
        domain = Interval(a, b)
        assert domain.spec_string() == spec
        assert parse_domain(spec) == domain

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown domain"):
            parse_domain("torus:2")

    def test_bad_interval(self):
        with pytest.raises(ValueError, match="a < b"):
            parse_domain("interval:1:0")


# mixed signs, magnitudes 1e-300..1e3, exact zeros, and full mantissas
# of one scale, where the order of a sum of squares shows in its bits
COORDINATE = st.one_of(
    st.just(0.0),
    st.floats(-2.0, 2.0),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0, exclude_max=True),
              st.integers(-300, 2)))


@st.composite
def lattice_axes(draw, domain):
    return [np.array(draw(st.lists(COORDINATE, min_size=1, max_size=6)))
            for _ in range(domain.dimension)]


@st.composite
def point_blocks(draw, domain):
    """One (N, k) coordinate array per axis, as a block of lattice nodes
    and stencil offsets gives them."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 4)))
    return [np.array(draw(st.lists(COORDINATE, min_size=shape[0] * shape[1],
                                   max_size=shape[0] * shape[1]))).reshape(shape)
            for _ in range(domain.dimension)]


GRID_DOMAINS = [UnitBall(1), UnitBall(2), UnitBall(3), HalfSpace(1), HalfSpace(2), HalfSpace(3),
                PuncturedSpace(2), PuncturedSpace(3), Interval(0.0, 1.0), annulus_domain()]


def as_blocks(*axes):
    """(N, k) coordinate arrays, as a block of lattice nodes and stencil
    offsets gives them: each 1-D axis repeated in three rows."""
    return [np.tile(a, (3, 1)) for a in axes]


class TestClearanceGrid:
    """The array form of the clearance query gives the row form's bits."""

    @staticmethod
    def assert_rows_bits(domain, coords):
        grid = domain.clearance_grid(coords)
        coords = np.broadcast_arrays(*coords)
        rows = np.stack([c.ravel() for c in coords], axis=1)
        expected = domain.clearance_many(rows)
        assert grid.shape == coords[0].shape
        assert np.array_equal(grid.ravel().view(np.int64), expected.view(np.int64))

    @given(st.sampled_from(GRID_DOMAINS).flatmap(
        lambda domain: st.tuples(st.just(domain), lattice_axes(domain))))
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_bit_identical_to_clearance_many(self, case):
        domain, axes = case
        self.assert_rows_bits(domain, np.ix_(*axes))

    @given(st.sampled_from(GRID_DOMAINS).flatmap(
        lambda domain: st.tuples(st.just(domain), point_blocks(domain))))
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_blocks_bit_identical_to_clearance_many(self, case):
        domain, coords = case
        self.assert_rows_bits(domain, coords)

    @pytest.mark.parametrize("domain", [UnitBall(2), HalfSpace(2), PuncturedSpace(2)],
                             ids=["ball", "halfspace", "punctured"])
    def test_axis_count_must_match_the_dimension(self, domain):
        with pytest.raises(ValueError, match="expected 2 coordinate axes"):
            domain.clearance_grid(np.ix_(np.zeros(3)))

    @pytest.mark.parametrize("domain", [UnitBall(2), HalfSpace(2), PuncturedSpace(2)],
                             ids=["ball", "halfspace", "punctured"])
    def test_blocks_axis_count_must_match_the_dimension(self, domain):
        with pytest.raises(ValueError, match="expected 2 coordinate axes"):
            domain.clearance_grid(as_blocks(np.zeros(3)))

    @pytest.mark.parametrize("domain", GRID_DOMAINS, ids=lambda d: d.spec_string())
    def test_non_finite_coordinates_are_rejected(self, domain):
        axes = [np.zeros(2)] * (domain.dimension - 1) + [np.array([0.5, np.nan])]
        with pytest.raises(ValueError, match="finite"):
            domain.clearance_grid(np.ix_(*axes))

    @pytest.mark.parametrize("domain", GRID_DOMAINS, ids=lambda d: d.spec_string())
    def test_blocks_non_finite_coordinates_are_rejected(self, domain):
        axes = [np.zeros(2)] * (domain.dimension - 1) + [np.array([0.5, np.nan])]
        with pytest.raises(ValueError, match="finite"):
            domain.clearance_grid(as_blocks(*axes))

    @pytest.mark.parametrize("domain", GRID_DOMAINS, ids=lambda d: d.spec_string())
    def test_rows_with_non_finite_coordinates_are_rejected(self, domain):
        rows = np.full((2, domain.dimension), 0.5)
        rows[1, -1] = np.inf
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            domain.clearance_many(rows)

    @pytest.mark.parametrize("domain", GRID_DOMAINS[:-1], ids=lambda d: d.spec_string())
    def test_rows_give_a_fresh_array(self, domain):
        rows = np.full((3, domain.dimension), 0.25)
        d = domain.clearance_many(rows)
        assert not np.shares_memory(d, rows)
        d[:] = -1.0
        assert np.all(rows == 0.25)

    def test_result_is_a_fresh_array(self):
        axis = np.array([0.5, 1.0])
        grid = HalfSpace(2).clearance_grid(np.ix_(np.zeros(3), axis))
        grid[0, 0] = -1.0
        assert axis[0] == 0.5 and np.all(grid[1:] == axis)

    @pytest.mark.parametrize("domain", [cls(n) for cls in (UnitBall, PuncturedSpace, HalfSpace)
                                        for n in range(1, 11)] + [Interval(-0.3, 1.7)],
                             ids=lambda d: d.spec_string())
    def test_rows_read_the_lattice_bits(self, domain):
        # norm(axis=1) sums 8 or more squares pairwise, the lattice in axis order
        rng = np.random.default_rng(1)
        n = domain.dimension
        xs = rng.normal(size=(4000, n)) * 10.0 ** rng.integers(-5, 2, size=(4000, 1))
        rows = domain.clearance_many(xs)
        assert np.array_equal(rows.view(np.int64),
                              domain.clearance_grid(list(xs.T)).view(np.int64))

    def test_each_domain_writes_one_clearance_formula(self):
        for cls in (UnitBall, HalfSpace, PuncturedSpace, Interval):
            assert "clearance_grid" in vars(cls) and "clearance_many" not in vars(cls)
        assert "clearance_many" in vars(GenericDomain)
        assert "clearance_grid" not in vars(GenericDomain)
        for cls in (Domain, UnitBall, HalfSpace, PuncturedSpace, Interval, GenericDomain):
            assert not hasattr(cls, "max_feasible_clearance")

    def test_a_domain_without_a_clearance_says_so(self):
        class Bare(Domain):
            dimension = 2

        with pytest.raises(NotImplementedError):
            Bare().clearance_many(np.zeros((3, 2)))
        with pytest.raises(NotImplementedError):
            Bare().clearance_grid(np.ix_(np.zeros(3), np.zeros(2)))
