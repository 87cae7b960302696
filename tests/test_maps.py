import numpy as np
import pytest

from hypermetric.domains import HalfSpace, UnitBall, sample_interior
from hypermetric.maps import (
    BilipschitzEstimate,
    RadialStretch,
    bilipschitz_estimate,
    linear_dilatation,
    parse_map,
)
from hypermetric.metrics import MetricParams, h_many
from hypermetric.moebius import BallAutomorphism, BallToHalfSpace, Identity

B2 = UnitBall(2)
H2 = HalfSpace(2)
C2 = MetricParams(2.0)


class TestApplyMap:
    def test_identity(self):
        assert np.array_equal(Identity(B2).apply_many([(0.3, -0.4)])[0], (0.3, -0.4))

    def test_stretch_example(self):
        assert np.allclose(RadialStretch(2.0).apply_many([(0.5, 0)])[0], (0.25, 0), atol=1e-15)

    def test_stretch_alpha_one_is_identity(self):
        pts = sample_interior(B2, 200, seed=0, min_clearance=1e-3)
        out = RadialStretch(1.0).apply_many(pts)
        assert np.allclose(out, pts, atol=1e-15)

    def test_stretch_fixes_origin(self):
        assert np.array_equal(RadialStretch(2.0).apply_many([(0.0, 0.0)])[0], (0.0, 0.0))

    def test_stretch_maps_ball_to_ball(self):
        pts = sample_interior(B2, 500, seed=1, min_clearance=1e-4)
        out = RadialStretch(2.0).apply_many(pts)
        assert np.all(np.linalg.norm(out, axis=1) < 1.0)

    def test_outside_source_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            RadialStretch(2.0).apply_many([(1.5, 0.0)])

    def test_moebius_target_domain(self):
        m = BallToHalfSpace(2)
        assert m.source.spec_string() == "ball:2"
        assert m.target.spec_string() == "halfspace:2"


class TestLinearDilatation:
    def test_identity_ratio_is_one(self):
        est = linear_dilatation(Identity(B2), (0.1, 0.2), [0.1, 0.01, 0.001])
        assert all(abs(r - 1.0) <= 1e-12 for r in est.ratios)
        assert est.H_hat == pytest.approx(1.0, abs=1e-12)

    def test_moebius_converges_to_one(self):
        # exact sampled ratio for a ball automorphism at the origin:
        # (1 + |a| r) / (1 - |a| r)
        a = 0.5
        est = linear_dilatation(
            BallAutomorphism(np.array([a, 0.0])),
            (0.0, 0.0),
            [0.1, 0.01, 0.001],
            sphere_samples=64,
        )
        for r, ratio in zip(est.radii, est.ratios):
            assert ratio == pytest.approx((1 + a * r) / (1 - a * r), abs=5e-9)
        assert abs(est.H_hat - 1.0) <= 1.1e-3  # 2 |a| r at the last radius
        assert est.ratios[0] > est.ratios[1] > est.ratios[2]

    def test_stretch_ratio_near_alpha(self):
        est = linear_dilatation(
            RadialStretch(2.0), (0.5, 0.0), [0.1, 0.01, 0.001], sphere_samples=128
        )
        # finite-radius ratios approach the limit alpha = 2 from above
        assert 1.0 < est.H_hat <= 2.0 + 5e-3
        assert est.ratios[0] > est.ratios[1] > est.ratios[2] > 2.0
        assert est.H_hat == pytest.approx(2.0, abs=5e-3)
        # brute-force directional-derivative oracle at the same point
        z = np.array([0.5, 0.0])
        eps = 1e-7
        dirs = np.stack([np.cos(np.linspace(0, 2 * np.pi, 256, endpoint=False)),
                         np.sin(np.linspace(0, 2 * np.pi, 256, endpoint=False))], axis=1)
        f = RadialStretch(2.0).apply_many
        stretch = np.linalg.norm(f(z + eps * dirs) - f(z[None, :]), axis=1) / eps
        oracle = np.max(stretch) / np.min(stretch)
        assert est.H_hat == pytest.approx(oracle, abs=5e-3)

    def test_radius_exceeding_clearance_rejected(self):
        with pytest.raises(ValueError, match="clearance"):
            linear_dilatation(Identity(B2), (0.9, 0.0), [0.5])

    def test_nondecreasing_radii_rejected(self):
        with pytest.raises(ValueError, match="decreasing"):
            linear_dilatation(Identity(B2), (0.0, 0.0), [0.01, 0.1])

    def test_collision_detected(self):
        # alpha=2 squares the radius; 1e-200 underflows to a collision
        with pytest.raises(ArithmeticError, match="collision"):
            linear_dilatation(RadialStretch(2.0), (0.0, 0.0), [1e-200])

    def test_sphere_sample_floor(self):
        with pytest.raises(ValueError, match=">= 16"):
            linear_dilatation(Identity(B2), (0.0, 0.0), [0.1], sphere_samples=8)


class TestBilipschitz:
    def test_identity(self):
        est = bilipschitz_estimate(Identity(B2), C2, 1000, seed=5)
        assert est.L_hat == pytest.approx(1.0, abs=1e-12)

    def test_moebius_bounded_by_two(self):
        est = bilipschitz_estimate(
            BallAutomorphism(np.array([0.5, 0.0])), C2, 5000, seed=6
        )
        assert est.L_hat <= 2.0 + 1e-9

    def test_stretch_finite_recorded(self):
        est = bilipschitz_estimate(RadialStretch(2.0), C2, 10_000, seed=3)
        assert isinstance(est, BilipschitzEstimate)
        assert np.isfinite(est.L_hat) and est.L_hat > 1.0
        assert est.sample_count == 10_000


class TestLocalSphereBracket:
    """h on concentric sphere points: for |x-z| = |y-z| = t d(z) and
    |x-y| = t d(z), h lies in [log(1+ct/(1+t)), log(1+ct/(1-t))]."""

    @pytest.mark.parametrize("domain", [B2, H2], ids=lambda d: d.spec_string())
    def test_bracket(self, domain):
        t = 0.1
        c = 2.0
        rng = np.random.default_rng(11)
        zs = sample_interior(domain, 200, seed=12, min_clearance=1e-2)
        d = domain.clearance_many(zs)
        phase = rng.uniform(0, 2 * np.pi, size=200)
        # chord |x-y| = t d(z) forces a 60-degree arc between x and y
        ang_x = phase
        ang_y = phase + np.pi / 3.0
        offs_x = np.stack([np.cos(ang_x), np.sin(ang_x)], axis=1)
        offs_y = np.stack([np.cos(ang_y), np.sin(ang_y)], axis=1)
        xs = zs + (t * d)[:, None] * offs_x
        ys = zs + (t * d)[:, None] * offs_y
        h = h_many(domain, xs, ys, c)
        lo = np.log1p(c * t / (1 + t))
        hi = np.log1p(c * t / (1 - t))
        assert np.all(h >= lo - 1e-12)
        assert np.all(h <= hi + 1e-12)


class TestDilatationVsBilipschitz:
    """Sampled linear dilatation against the squared distortion constant."""

    @pytest.mark.parametrize(
        "mapping, z",
        [
            (Identity(B2), (0.1, 0.0)),
            (BallAutomorphism(np.array([0.4, 0.1])), (0.0, 0.0)),
            (RadialStretch(2.0), (0.5, 0.0)),
        ],
    )
    def test_h_le_l_squared(self, mapping, z):
        dil = linear_dilatation(mapping, z, [0.01, 0.001], sphere_samples=64)
        bil = bilipschitz_estimate(mapping, C2, 10_000, seed=3)
        assert dil.H_hat <= bil.L_hat**2 + 5e-2


class TestParseMap:
    def test_specs(self):
        assert isinstance(parse_map("identity:ball:2"), Identity)
        assert isinstance(parse_map("auto:0.5,0"), BallAutomorphism)
        assert isinstance(parse_map("b2h:2"), BallToHalfSpace)
        assert isinstance(parse_map("stretch:2.0"), RadialStretch)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown map"):
            parse_map("rotate:90")
