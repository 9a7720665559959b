"""Tests for the radially symmetric background flows.

The algebraic density route is checked against an independent brentq
oracle, its Chebyshev series against the algebraic route, the swirl
stream against scipy adaptive quadrature, and the ODE route against the
algebraic one through classify().
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from spiralflow.errors import DomainError, InternalConsistencyError, RegimeError
from spiralflow.gas import GasModel, stagnation_density
from spiralflow.meshing import Circle, build_annulus_mesh
from spiralflow.radial import FlowRegime, RadialBackground, mach_ode_rhs


def oracle_density(bg, r):
    """Independent root solve for the background density at radius r."""
    gamma = bg.gamma
    mdot = bg.source_strength
    const = 0.5 * (gamma + 1.0) / (gamma - 1.0)

    def resid(rho):
        return (
            0.5 * (mdot / (r * rho)) ** 2
            + 0.5 * bg.kappa2**2 / r**2
            + rho ** (gamma - 1.0) / (gamma - 1.0)
            - const
        )

    lo = (mdot / r) ** (2.0 / (gamma + 1.0))
    hi = stagnation_density(gamma)
    if resid(lo) >= 0.0:
        return lo
    return brentq(resid, lo, hi, xtol=1e-15)


@pytest.fixture(scope="module")
def gm():
    return GasModel(gamma=2.0)


@pytest.fixture(scope="module")
def bg(gm):
    return RadialBackground(gm, 0.3, 0.4)


class TestDensity:
    def test_density_at_body_is_rho0(self, bg):
        # gamma=2: rho0 = (3 - q0^2)/2 with q0^2 = 0.25
        assert bg.rho0 == pytest.approx(1.375, abs=1e-15)
        assert bg.density(1.0) == pytest.approx(bg.rho0, abs=1e-12)

    def test_frozen_state_at_r2(self, bg):
        st_ = bg.state(2.0)
        assert st_.rho_b == pytest.approx(1.4701592279897, abs=1e-10)
        assert st_.U1 == pytest.approx(0.1402909263659, abs=1e-10)
        assert st_.U2 == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("k1,k2", [(0.3, 0.4), (0.7, 0.0), (0.2, -0.6), (0.5, 0.95)])
    def test_matches_brentq_oracle(self, gm, k1, k2):
        b = RadialBackground(gm, k1, k2)
        for r in [1.0, 1.01, 1.5, 2.0, 5.0, 20.0, 80.0]:
            assert b.density(r) == pytest.approx(oracle_density(b, r), abs=1e-11)

    def test_vectorized_matches_scalar(self, bg):
        r = np.array([1.0, 1.3, 2.7, 10.0])
        vec = bg.density(r)
        for i, ri in enumerate(r):
            assert vec[i] == bg.density(float(ri))

    def test_limits_to_stagnation(self, bg):
        # subsonic flow comes to rest far out
        assert bg.density(1e4) == pytest.approx(stagnation_density(2.0), abs=1e-6)

    def test_monotone_outward(self, bg):
        r = np.linspace(1.0, 40.0, 400)
        rho = bg.density(r)
        assert np.all(np.diff(rho) > 0.0)

    def test_density_extends_inward_to_choking(self, bg):
        # the root continues below the body circle down to where the
        # radial mass flux chokes (near r = 0.551 here); the public state
        # accessors stop at r = 1, where the flow problem lives
        assert bg.density(0.9) == pytest.approx(oracle_density(bg, 0.9), abs=1e-11)
        with pytest.raises(RegimeError):
            bg.density(0.5)
        with pytest.raises(DomainError):
            bg.density(-1.0)
        with pytest.raises(DomainError):
            bg.state(0.9)

    @given(
        k1=st.floats(0.05, 0.7),
        k2=st.floats(-0.6, 0.6),
        r=st.floats(1.0, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, gm, k1, k2, r):
        b = RadialBackground(gm, k1, k2)
        s = b.state(r)
        # conserved mass flux and circulation
        assert s.r * s.rho_b * s.U1 == pytest.approx(b.source_strength, rel=1e-10)
        assert s.r * s.U2 == pytest.approx(k2, abs=1e-14)
        # Bernoulli relation
        q2 = s.U1**2 + s.U2**2
        bern = q2 / 2.0 + s.rho_b / 1.0 - 1.5  # gamma=2 closure
        assert abs(bern) <= 1e-10


class TestConstruction:
    def test_kappa1_range(self, gm):
        with pytest.raises(DomainError):
            RadialBackground(gm, 0.0, 0.3)
        with pytest.raises(DomainError):
            RadialBackground(gm, 1.0, 0.3)

    def test_kappa2_range(self, gm):
        with pytest.raises(DomainError):
            RadialBackground(gm, 0.3, 1.0)
        with pytest.raises(DomainError):
            RadialBackground(gm, 0.3, -1.2)

    def test_radially_sonic_body_rejected(self, gm):
        # kappa1^2 exceeds the squared sound speed at the body
        with pytest.raises(RegimeError):
            RadialBackground(gm, 0.9, 0.99)

    def test_body_speed_past_the_speed_limit_rejected(self):
        # at gamma 10 the squared speed is capped at 11/9 < 0.8^2 + 0.8^2
        with pytest.raises(RegimeError, match="no admissible body state"):
            RadialBackground(GasModel(10.0, 0.1), 0.8, 0.8)

    def test_negative_swirl_allowed(self, gm):
        b = RadialBackground(gm, 0.3, -0.4)
        assert b.rho0 == pytest.approx(1.375)
        assert b.swirl_stream(2.0) > 0.0


class TestSwirlStream:
    def test_zero_at_body_and_without_swirl(self, gm, bg):
        assert bg.swirl_stream(1.0) == 0.0
        b0 = RadialBackground(gm, 0.3, 0.0)
        assert np.all(b0.swirl_stream(np.array([1.0, 2.0, 9.0])) == 0.0)

    @pytest.mark.parametrize("k1,k2", [(0.3, 0.4), (0.2, -0.6), (0.5, 0.95)])
    def test_matches_quadrature_oracle(self, gm, k1, k2):
        b = RadialBackground(gm, k1, k2)
        for r in [1.2, 2.0, 7.5, 30.0]:
            oracle = -k2 * quad(
                lambda t: b.density(t) / t, 1.0, r, epsabs=1e-13, epsrel=1e-13
            )[0]
            assert b.swirl_stream(r) == pytest.approx(oracle, abs=1e-10)

    def test_rejects_inner_radius(self, bg):
        with pytest.raises(DomainError):
            bg.swirl_stream(0.88)

    def test_series_reuse(self, gm):
        # one series serves every call, so a radius gets the same value
        # whatever else is in the batch
        b = RadialBackground(gm, 0.3, 0.4)
        far = b.swirl_stream(40.0)
        near = b.swirl_stream(np.array([1.5, 3.0, 40.0]))
        oracle = -0.4 * quad(lambda t: b.density(t) / t, 1.0, 3.0, epsabs=1e-13)[0]
        assert near[1] == pytest.approx(oracle, abs=1e-10)
        assert near[2] == far

    def test_exactly_zero_on_circle_body(self, gm):
        # the circle anchor's zero-step solve needs exact zero body data;
        # hypot puts some of these nodes one ulp inside r = 1
        mesh = build_annulus_mesh(Circle(1.0), 8.0, 0.1)
        b = RadialBackground(gm, 0.6, 0.7)
        assert b.swirl_stream(1.0) == 0.0
        assert np.all(b.swirl_stream(np.hypot(*mesh.points[mesh.body_nodes].T)) == 0.0)

    def test_radial_derivative(self, bg):
        # d/dr of the swirl stream is -kappa2 rho_b / r
        h = 1e-6
        for r in [1.5, 4.0]:
            fd = (bg.swirl_stream(r + h) - bg.swirl_stream(r - h)) / (2.0 * h)
            assert fd == pytest.approx(-bg.kappa2 * bg.density(r) / r, rel=1e-7)

    def test_decreasing_for_positive_swirl(self, bg):
        vals = bg.swirl_stream(np.linspace(1.0, 20.0, 100))
        assert np.all(np.diff(vals) < 0.0)


class TestDensitySeries:
    """The Chebyshev series in t = 1/r that the hot paths read."""

    @pytest.mark.parametrize("gamma", [1.4, 2.0])
    @pytest.mark.parametrize(
        "k1,k2",
        [
            (0.3, 0.2),
            (0.6, 0.79),
            (0.9, 0.3),
            (0.2, -0.6),
            (0.99, 0.05),
            (0.999, 0.0),
            (0.9999, 0.0),
        ],
    )
    def test_matches_root_solve(self, gamma, k1, k2):
        b = RadialBackground(GasModel(gamma), k1, k2)
        rng = np.random.default_rng(11)
        r = np.concatenate([rng.uniform(1.0, 1e3, 400), 1.0 + np.logspace(-12, -1, 60)])
        rho = b.density(r)
        # the build's own tolerance: the root solve loses accuracy like
        # 1/(1 - M1^2) toward radial choking
        tol = max(1e-13, 16.0 * np.finfo(float).eps / (1.0 - b.mach_numbers_at_body()[0]))
        assert np.max(np.abs(b._fitted_density(1.0 / r) - rho) / rho) <= tol

    def test_refuses_series_it_cannot_check(self, gm, monkeypatch):
        # a root solve noisier than the tolerance everywhere can never be
        # matched; the build must fail loudly, not return its last fit
        real_density = RadialBackground.density
        rng = np.random.default_rng(5)

        def noisy_density(self, r):
            return real_density(self, r) * (1.0 + 1e-9 * rng.standard_normal(np.shape(r)))

        monkeypatch.setattr(RadialBackground, "density", noisy_density)
        b = RadialBackground(gm, 0.3, 0.2)
        with pytest.raises(InternalConsistencyError, match="density series"):
            b.stream_gradient(np.array([[2.0, 0.0]]))

    def test_hot_paths_skip_root_solve(self, gm, monkeypatch):
        calls = []
        real_density = RadialBackground.density

        def counting_density(self, r):
            calls.append(self)
            return real_density(self, r)

        monkeypatch.setattr(RadialBackground, "density", counting_density)
        pts = np.array([[1.0, 0.0], [2.0, 3.0], [-40.0, 7.0]])
        b = RadialBackground(gm, 0.3, 0.2)
        b.stream_gradient(pts)
        # one batched root solve builds all pieces of a smooth background
        assert calls == [b]
        b.swirl_stream(np.array([1.0, 3.0, 50.0]))
        b.stream_gradient(pts)
        b.swirl_stream(7.0)
        assert calls == [b]
        other = RadialBackground(gm, 0.3, 0.2)
        other.swirl_stream(2.0)
        other.stream_gradient(pts)
        assert calls == [b, other]


class TestStreamGradient:
    def test_pure_source_is_azimuthal(self, gm):
        b = RadialBackground(gm, 0.3, 0.0)
        g = b.stream_gradient(np.array([[2.0, 0.0], [0.0, 3.0]]))
        assert g[0] == pytest.approx([0.0, b.source_strength / 2.0], abs=1e-14)
        assert g[1] == pytest.approx([-b.source_strength / 3.0, 0.0], abs=1e-14)

    def test_swirl_part_is_radial(self, gm):
        b = RadialBackground(gm, 0.3, 0.4)
        pts = np.array([[1.5, 0.7], [-2.0, 0.4]])
        for p, g in zip(pts, b.stream_gradient(pts)):
            r = np.hypot(*p)
            source = b.source_strength * np.array([-p[1], p[0]]) / r**2
            expect = source - 0.4 * b.density(r) * p / r**2
            assert g == pytest.approx(expect, rel=1e-12)

    def test_velocity_matches_state(self, bg):
        # rho_b * velocity is the rotated stream gradient; check speeds agree
        pts = np.array([[2.0, 0.0], [0.0, -3.5], [1.0, 1.0]])
        g = bg.stream_gradient(pts)
        for p, gi in zip(pts, g):
            s = bg.state(float(np.hypot(*p)))
            speed = np.hypot(*gi) / s.rho_b
            assert speed == pytest.approx(np.hypot(s.U1, s.U2), rel=1e-12)

    def test_far_field_decay_slope(self, bg):
        # |grad psi0| falls off like 1/r
        r = np.array([10.0, 20.0, 40.0, 80.0])
        pts = np.stack([r, np.zeros_like(r)], axis=-1)
        mag = np.hypot(*bg.stream_gradient(pts).T)
        slope = np.polyfit(np.log(r), np.log(mag), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)


class TestStreamGradientDomain:
    def test_rejects_points_inside_unit_circle(self, bg):
        with pytest.raises(DomainError):
            bg.stream_gradient(np.array([0.5, 0.5]))


class TestMachOde:
    def test_frozen_rhs_value(self):
        d1, d2, dm = mach_ode_rhs(2.0, 1.0, 0.04, 0.09, 0.13)
        assert dm == pytest.approx(-0.2884375, abs=1e-12)

    def test_total_defaults_to_sum(self):
        assert mach_ode_rhs(2.0, 1.5, 0.04, 0.09) == mach_ode_rhs(
            2.0, 1.5, 0.04, 0.09, 0.13
        )

    def test_rest_state_is_stationary(self):
        assert mach_ode_rhs(1.4, 2.0, 0.0, 0.0) == (0.0, 0.0, 0.0)

    def test_matches_derivative_of_algebraic_msq(self, bg):
        # centered difference of the algebraic route against the ODE rhs
        h = 1e-4
        for r in [1.3, 2.0, 6.0]:
            s = bg.state(r)
            d = mach_ode_rhs(2.0, r, s.M1sq, s.M2sq)[2]
            fd = (bg.state(r + h).Msq - bg.state(r - h).Msq) / (2.0 * h)
            assert fd == pytest.approx(d, rel=1e-5)

    def test_rhs_consistency(self):
        # the three right sides satisfy d1 + d2 = dm when m1+m2 = m
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = 1.0 + 2.0 * rng.random()
            r = 1.0 + 5.0 * rng.random()
            m1 = 0.9 * rng.random()
            m2 = rng.random()
            d1, d2, dm = mach_ode_rhs(g, r, m1, m2, m1 + m2)
            assert d1 + d2 == pytest.approx(dm, rel=1e-12, abs=1e-14)

    def test_singular_at_radial_sonic(self):
        with pytest.raises(RegimeError):
            mach_ode_rhs(2.0, 1.0, 1.0, 0.1, 1.1)
        with pytest.raises(RegimeError):
            mach_ode_rhs(2.0, 1.0, 1.0 - 1e-13, 0.1)


class TestClassify:
    def test_subsonic_example(self, bg):
        cl = bg.classify(r_max=50.0)
        assert cl.regime is FlowRegime.UNIFORMLY_SUBSONIC
        assert cl.max_rel_mismatch < 1e-6
        assert cl.max_msq < 1.0
        assert np.all(np.diff(cl.msq_ode) < 0.0)

    def test_transonic_example(self, gm):
        b = RadialBackground(gm, 0.5, 0.95)
        cl = b.classify(r_max=50.0)
        assert cl.regime is FlowRegime.SMOOTH_TRANSONIC
        assert cl.max_rel_mismatch < 1e-6
        assert cl.max_msq > 1.0
        assert cl.msq_ode[-1] < 1.0  # crossed the sonic circle smoothly

    def test_sonic_boundary_case(self, gm):
        b = RadialBackground(gm, 0.6, 0.8)
        cl = b.classify(r_max=10.0)
        assert cl.regime is FlowRegime.SONIC_AT_BODY
        assert cl.max_rel_mismatch < 1e-6

    def test_rejects_bad_rmax(self, bg):
        with pytest.raises(DomainError):
            bg.integrate_mach(r_max=1.0)
