import numpy as np
import pytest

from hypermetric.domains import UnitBall, sample_interior
from hypermetric.metrics import h_many, rho_ball_many, rho_halfspace_many
from hypermetric.moebius import (
    BallAutomorphism,
    BallToHalfSpace,
    Identity,
    absolute_ratio,
)

B2 = UnitBall(2)


def random_centers(count, seed, max_norm=0.8):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * (max_norm * np.sqrt(rng.random((count, 1))))


class TestAbsoluteRatio:
    def test_collinear_1d(self):
        assert absolute_ratio([0.0], [1.0], [2.0], [3.0]) == pytest.approx(4.0)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(4, 3))
        a, b, c, d = pts
        assert absolute_ratio(a, b, c, d) == pytest.approx(absolute_ratio(b, a, d, c))

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(4, 2))
        a, b, c, d = pts
        assert absolute_ratio(a, b, c, d) == pytest.approx(
            absolute_ratio(2 * a, 2 * b, 2 * c, 2 * d), rel=1e-12
        )

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            absolute_ratio([0, 0], [0, 0], [1, 0], [2, 0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariance_under_maps(self, seed):
        rng = np.random.default_rng(seed)
        quad = 0.9 * rng.uniform(-1, 1, size=(4, 2))
        quad /= max(1.0, np.max(np.linalg.norm(quad, axis=1)) / 0.9)
        before = absolute_ratio(*quad)
        for mapping in (
            BallAutomorphism(np.array([0.3, -0.2])),
            BallToHalfSpace(2),
            Identity(UnitBall(2)),
        ):
            imgs = mapping.apply_many(quad)
            after = absolute_ratio(*imgs)
            assert after == pytest.approx(before, abs=1e-9, rel=1e-9)


class TestApply:
    def test_automorphism_sends_center_to_origin(self):
        m = BallAutomorphism(np.array([0.5, 0.0]))
        assert np.allclose(m.apply_many([(0.5, 0.0)])[0], (0.0, 0.0), atol=1e-14)

    def test_automorphism_is_involution(self):
        m = BallAutomorphism(np.array([0.4, 0.3]))
        x = np.array([0.2, -0.6])
        assert np.allclose(m.apply_many(m.apply_many([x]))[0], x, atol=1e-12)

    def test_identity_fixes_points(self):
        assert np.allclose(Identity(UnitBall(2)).apply_many([(0.1, 0.9)])[0], (0.1, 0.9))

    def test_zero_center_is_identity(self):
        m = BallAutomorphism(np.array([0.0, 0.0]))
        x = np.array([0.3, 0.4])
        assert np.array_equal(m.apply_many([x])[0], x)

    def test_ball_to_halfspace_center(self):
        img = BallToHalfSpace(2).apply_many([(0.0, 0.0)])[0]
        assert img[-1] > 0
        assert np.allclose(img, (0.0, 1.0), atol=1e-14)

    def test_ball_to_halfspace_south_pole_limit(self):
        img = BallToHalfSpace(2).apply_many([(0.0, -1 + 1e-9)])[0]
        assert np.linalg.norm(img) < 1e-8

    def test_outside_source_rejected(self):
        with pytest.raises(ValueError, match="unit ball"):
            BallAutomorphism(np.array([0.5, 0.0])).apply_many([(1.5, 0.0)])
        with pytest.raises(ValueError, match="< 1"):
            BallAutomorphism(np.array([1.0, 0.0]))

    def test_automorphism_stays_in_ball(self):
        pts = sample_interior(B2, 500, seed=5, min_clearance=1e-4)
        for center in random_centers(5, seed=6):
            img = BallAutomorphism(center).apply_many(pts)
            assert np.all(np.linalg.norm(img, axis=1) < 1.0)

    def test_halfspace_image_is_interior(self):
        pts = sample_interior(B2, 500, seed=7, min_clearance=1e-4)
        img = BallToHalfSpace(2).apply_many(pts)
        assert np.all(img[:, -1] > 0)


class TestIsometry:
    def test_ball_automorphisms(self):
        xs = sample_interior(B2, 1000, seed=1, min_clearance=1e-3)
        ys = sample_interior(B2, 1000, seed=2, min_clearance=1e-3)
        rho = rho_ball_many(xs, ys)
        for center in random_centers(10, seed=3):
            m = BallAutomorphism(center)
            gap = np.abs(rho_ball_many(m.apply_many(xs), m.apply_many(ys)) - rho)
            assert np.max(gap) <= 1e-9

    def test_ball_to_halfspace(self):
        xs = sample_interior(B2, 1000, seed=4, min_clearance=1e-3)
        ys = sample_interior(B2, 1000, seed=5, min_clearance=1e-3)
        m = BallToHalfSpace(2)
        gap = np.abs(
            rho_halfspace_many(m.apply_many(xs), m.apply_many(ys))
            - rho_ball_many(xs, ys)
        )
        assert np.max(gap) <= 1e-9

    def test_ball_to_halfspace_3d(self):
        B3 = UnitBall(3)
        xs = sample_interior(B3, 500, seed=6, min_clearance=1e-3)
        ys = sample_interior(B3, 500, seed=7, min_clearance=1e-3)
        m = BallToHalfSpace(3)
        gap = np.abs(
            rho_halfspace_many(m.apply_many(xs), m.apply_many(ys))
            - rho_ball_many(xs, ys)
        )
        assert np.max(gap) <= 1e-9


class TestDistortionBounds:
    """Two-sided h distortion of the Moebius families (factor 2)."""

    @pytest.mark.parametrize("c", [1.0, 2.0, 5.0])
    def test_ball_automorphism_distortion(self, c):
        xs = sample_interior(B2, 1000, seed=8, min_clearance=1e-3)
        ys = sample_interior(B2, 1000, seed=9, min_clearance=1e-3)
        h = h_many(B2, xs, ys, c)
        for center in random_centers(5, seed=10):
            m = BallAutomorphism(center)
            h_img = h_many(B2, m.apply_many(xs), m.apply_many(ys), c)
            assert np.all(h_img <= 2 * h + 1e-10)

    @pytest.mark.parametrize("c", [1.0, 2.0, 5.0])
    def test_ball_to_halfspace_distortion(self, c):
        from hypermetric.domains import HalfSpace

        xs = sample_interior(B2, 1000, seed=11, min_clearance=1e-3)
        ys = sample_interior(B2, 1000, seed=12, min_clearance=1e-3)
        h = h_many(B2, xs, ys, c)
        m = BallToHalfSpace(2)
        h_img = h_many(HalfSpace(2), m.apply_many(xs), m.apply_many(ys), c)
        assert np.all(h_img <= 2 * h + 1e-10)
