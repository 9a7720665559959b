"""Gas closure tests.

The independent oracles here are deliberately primitive: scalar bisection
(scipy brentq) on the Bernoulli residual for the density, and adaptive
quadrature for the energy density.  The library must agree with them.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from spiralflow.errors import DomainError, InternalConsistencyError
from spiralflow.gas import (
    EllipticityBounds,
    GasModel,
    bracketed_root,
    density_from_speed,
    stagnation_density,
)


def oracle_density(gamma, s):
    """Bisection oracle for the subsonic-branch density at squared mass flux s."""
    const = 0.5 * (gamma + 1.0) / (gamma - 1.0)

    def resid(rho):
        return 0.5 * s / rho**2 + rho ** (gamma - 1.0) / (gamma - 1.0) - const

    hi = stagnation_density(gamma)
    if resid(1.0) >= 0.0:
        # sonic endpoint; the residual derivative vanishes there and
        # bisection has nothing to do
        return 1.0
    return brentq(resid, 1.0, hi, xtol=1e-14, rtol=8.9e-16)


def oracle_flux(gm, s):
    """Adaptive-quadrature oracle for F(s) = int_0^s dt / Htilde(t)."""
    pts = [p for p in (gm.s_blend_lo, gm.s_blend_hi) if p < s]
    val, _ = quad(
        lambda t: 1.0 / gm.truncated_density(t), 0.0, s,
        points=pts or None, epsabs=1e-12, epsrel=1e-12, limit=200,
    )
    return val


class TestDensityFromSpeed:
    def test_frozen_values_gamma2(self):
        assert density_from_speed(2.0, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert density_from_speed(2.0, 0.0) == pytest.approx(1.5, abs=1e-14)
        assert density_from_speed(2.0, 0.5) == pytest.approx(1.25, abs=1e-14)

    def test_sonic_state_any_gamma(self):
        for gamma in (1.2, 1.4, 2.0, 3.0):
            assert density_from_speed(gamma, 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_stagnation_matches_helper(self):
        for gamma in (1.4, 2.0, 2.7):
            assert density_from_speed(gamma, 0.0) == pytest.approx(
                stagnation_density(gamma), rel=1e-14
            )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            density_from_speed(2.0, -0.1)
        with pytest.raises(DomainError):
            density_from_speed(2.0, 3.1)

    @given(
        gamma=st.floats(1.1, 3.0),
        q2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_decreasing_in_speed(self, gamma, q2):
        rho = density_from_speed(gamma, q2)
        assert 1.0 - 1e-12 <= rho <= stagnation_density(gamma) + 1e-12


class TestDensityFromMassFlux:
    def test_frozen_values_gamma2(self):
        gm = GasModel(2.0, 0.1)
        # 0.78125/(2*1.25^2) + 1.25 = 1.5 exactly
        assert gm.density_from_mass_flux(0.78125) == pytest.approx(1.25, abs=1e-11)
        assert gm.density_from_mass_flux(1.0) == pytest.approx(1.0, abs=1e-10)
        assert gm.density_from_mass_flux(0.0) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("gamma", [1.3, 1.4, 2.0, 2.5])
    def test_matches_bisection_oracle(self, gamma):
        gm = GasModel(gamma, 0.1)
        # stay below the sonic endpoint, where the root is ill-conditioned
        # and the oracle itself is only good to ~sqrt(residual tolerance)
        s = np.linspace(0.0, 0.999, 41)
        rho = gm.density_from_mass_flux(s)
        expect = [oracle_density(gamma, v) for v in s]
        assert np.max(np.abs(rho - expect)) < 1e-10

    def test_residual_at_solution(self):
        gm = GasModel(2.0, 0.1)
        s = np.linspace(0.0, 1.0, 101)
        rho = gm.density_from_mass_flux(s)
        resid = 0.5 * s / rho**2 + rho - 1.5
        assert np.max(np.abs(resid)) <= 1e-12

    def test_each_point_as_if_solved_alone(self):
        # per-point bisection: no point's density depends on the batch
        gm = GasModel(2.0, 0.1)
        s = np.linspace(0.0, 1.0, 2001)[::7]
        rho = gm.density_from_mass_flux(s)
        alone = np.array([gm.density_from_mass_flux(v) for v in s])
        assert np.array_equal(rho, alone)

    @pytest.mark.parametrize("s", [np.nan, [0.5, np.nan]])
    def test_nan_raises(self, s):
        gm = GasModel(2.0, 0.1)
        with pytest.raises(InternalConsistencyError, match="mass-flux density"):
            gm.density_from_mass_flux(s)

    def test_domain_errors(self):
        gm = GasModel(2.0, 0.1)
        with pytest.raises(DomainError):
            gm.density_from_mass_flux(-1e-9)
        with pytest.raises(DomainError, match="truncated_density"):
            gm.density_from_mass_flux(1.0 + 1e-9)

    @given(gamma=st.floats(1.15, 2.9), q2=st.floats(0.0, 1.0))
    @example(gamma=1.2, q2=0.9999999999999999)  # s lands 2e-15 above 1
    @settings(max_examples=60, deadline=None)
    def test_inverse_of_speed_law(self, gamma, q2):
        # push a subsonic state through both closures: s = (rho q)^2 must
        # return the same density
        rho = density_from_speed(gamma, q2)
        s = rho**2 * q2
        gm = GasModel(gamma, 0.1)
        assert gm.density_from_mass_flux(s) == pytest.approx(rho, rel=2e-7, abs=2e-7)


class TestBracketedRoot:
    def test_roots_across_binades(self):
        # roots from 1e-3 to 1e3 in brackets spanning all those binades:
        # each ends within one ulp of its root, as if solved alone
        c = np.geomspace(1e-3, 1e3, 97)
        lo, hi = np.full_like(c, 5e-4), np.full_like(c, 2e3)
        root = bracketed_root(lambda x: x - c, lo, hi, "test")
        assert np.all(np.abs(root - c) <= np.spacing(c))
        alone = [bracketed_root(lambda x, v=v: x - v, 5e-4, 2e3, "test") for v in c]
        assert np.array_equal(root, alone)

    def test_residual_rule_names_what(self):
        # a root outside its bracket leaves the residual far from zero
        with pytest.raises(InternalConsistencyError, match="widget residual"):
            bracketed_root(lambda x: x - 3.0, np.zeros(2), np.ones(2), "widget")


class TestTruncatedDensity:
    def test_matches_exact_below_band(self):
        gm = GasModel(2.0, 0.1)
        s = np.linspace(0.0, gm.s_blend_lo, 30)
        assert np.allclose(gm.truncated_density(s), gm.density_from_mass_flux(s),
                           rtol=0, atol=1e-12)

    def test_constant_above_band_frozen(self):
        gm = GasModel(2.0, 0.1)
        v = gm.truncated_density(2.0)
        assert v == pytest.approx(oracle_density(2.0, 0.9), abs=1e-10)
        assert v == pytest.approx(1.173, abs=1e-3)
        assert gm.truncated_density(5.0) == v

    def test_passthrough_frozen(self):
        gm = GasModel(2.0, 0.1)
        assert gm.truncated_density(0.78125) == pytest.approx(1.25, abs=1e-11)

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.01])
    def test_monotone_decreasing(self, eps):
        gm = GasModel(2.0, eps)
        s = np.linspace(0.0, 2.0, 4001)
        v = gm.truncated_density(s)
        assert np.all(np.diff(v) <= 1e-12)

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.025])
    def test_junctions_are_c2(self, eps):
        # the blend polynomial must carry the exact value/slope/curvature of
        # the exact branch at the left junction and be flat at the right one
        from numpy.polynomial import polynomial as P

        from spiralflow.gas import (
            _mass_flux_density_curvature,
            _mass_flux_density_raw,
            _mass_flux_density_slope,
        )

        gm = GasModel(2.0, eps)
        assert len(gm._blend_coef) == 6  # quintic
        w = gm._blend_width
        c = gm._blend_coef
        d1 = P.polyder(c)
        d2 = P.polyder(c, 2)
        s0 = gm.s_blend_lo
        rho0 = float(_mass_flux_density_raw(2.0, np.asarray(s0)))
        slope0 = _mass_flux_density_slope(2.0, s0, rho0)
        curv0 = _mass_flux_density_curvature(2.0, s0, rho0)
        assert P.polyval(0.0, c) == pytest.approx(rho0, rel=1e-12)
        assert P.polyval(0.0, d1) / w == pytest.approx(slope0, rel=1e-10)
        assert P.polyval(0.0, d2) / w**2 == pytest.approx(curv0, rel=1e-8)
        assert P.polyval(1.0, c) == pytest.approx(gm.rho_cut, rel=1e-12)
        assert abs(P.polyval(1.0, d1) / w) < 1e-9 * max(1.0, abs(slope0))
        assert abs(P.polyval(1.0, d2) / w**2) < 1e-7 * max(1.0, abs(curv0))

    @given(gamma=st.floats(1.1, 3.0), eps=st.floats(0.01, 0.24))
    @settings(max_examples=40, deadline=None)
    def test_blend_stays_decreasing(self, gamma, eps):
        gm = GasModel(gamma, eps)
        s = np.linspace(gm.s_blend_lo, gm.s_blend_hi, 200)
        assert np.all(np.diff(gm.truncated_density(s)) <= 1e-12)


class TestFluxPotential:
    def test_zero_at_zero(self):
        gm = GasModel(2.0, 0.1)
        F, Fp, _ = gm.flux_eval(0.0)
        assert abs(F) < 1e-14
        assert Fp == pytest.approx(1.0 / 1.5, rel=1e-12)

    def test_frozen_window(self):
        gm = GasModel(2.0, 0.1)
        F, _, _ = gm.flux_eval(0.5)
        assert 1.0 / 3.0 < F < 0.5

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.0125])
    def test_matches_quadrature_oracle(self, eps):
        gm = GasModel(2.0, eps)
        for s in (0.1, 0.5, 1.0 - 1.5 * eps, 1.2, 2.0):
            F, _, _ = gm.flux_eval(s)
            assert F == pytest.approx(oracle_flux(gm, s), abs=1e-8)

    def test_derivative_identity(self):
        # cached F' must equal 1/Htilde well below the documented 1e-10
        gm = GasModel(2.0, 0.1)
        s = np.linspace(0.0, 2.0, 1000)
        _, Fp, _ = gm.flux_eval(s)
        assert np.max(np.abs(Fp - 1.0 / gm.truncated_density(s))) <= 1e-10

    def test_cache_accuracy_report(self):
        assert GasModel(2.0, 0.1).cache_accuracy() <= 1e-8
        assert GasModel(1.4, 0.05).cache_accuracy() <= 1e-8

    def test_linear_tail(self):
        gm = GasModel(2.0, 0.1)
        F1, _, _ = gm.flux_eval(1.2)
        F2, _, _ = gm.flux_eval(1.7)
        assert F2 - F1 == pytest.approx(0.5 / gm.rho_cut, rel=1e-12)

    def test_convex_increasing(self):
        gm = GasModel(2.0, 0.05)
        s = np.linspace(0.0, 2.0, 800)
        F, _, _ = gm.flux_eval(s)
        d = np.diff(F)
        assert np.all(d > 0)
        assert np.all(np.diff(d) >= -1e-12)


ORDER_SUBSETS = [p for n in (1, 2, 3) for p in itertools.permutations((0, 1, 2), n)]


class TestFluxOrders:
    """flux_eval(s, orders) returns exactly the full triple's entries."""

    @pytest.fixture(scope="class")
    def gm(self):
        return GasModel(2.0, 0.1)

    @pytest.fixture(scope="class")
    def samples(self, gm):
        # the body, the blend window and the linear tail, interleaved
        body = np.linspace(0.0, gm.s_blend_lo, 37)
        blend = np.linspace(gm.s_blend_lo, gm.s_blend_hi, 23)[1:-1]
        tail = np.linspace(gm.s_blend_hi, 2.0, 11)
        s = np.concatenate([body, blend, tail])
        return np.random.default_rng(5).permutation(s)

    @pytest.mark.parametrize("orders", ORDER_SUBSETS)
    def test_array_subset_bit_identical(self, gm, samples, orders):
        full = gm.flux_eval(samples)
        part = gm.flux_eval(samples, orders)
        assert isinstance(part, tuple) and len(part) == len(orders)
        for k, vals in zip(orders, part):
            assert np.array_equal(vals, full[k])

    @pytest.mark.parametrize("orders", ORDER_SUBSETS)
    def test_scalar_subset_bit_identical(self, gm, orders):
        for s in (0.3, 0.5 * (gm.s_blend_lo + gm.s_blend_hi), gm.s_blend_hi, 1.5):
            full = gm.flux_eval(s)
            part = gm.flux_eval(s, orders)
            assert all(type(v) is float for v in part)
            assert part == tuple(full[k] for k in orders)

    def test_default_is_the_triple(self, gm, samples):
        default = gm.flux_eval(samples)
        explicit = gm.flux_eval(samples, (0, 1, 2))
        assert len(default) == 3
        assert all(np.array_equal(a, b) for a, b in zip(default, explicit))

    def test_coefficient_matrix_with_given_derivatives(self, gm):
        g = np.random.default_rng(2).uniform(-0.7, 0.7, size=(50, 2))
        derivs = gm.flux_eval(np.sum(g**2, axis=-1), (1, 2))
        assert np.array_equal(gm.coefficient_matrix(g, derivs), gm.coefficient_matrix(g))


class TestCoefficientMatrix:
    def test_rest_state_frozen(self):
        gm = GasModel(2.0, 0.1)
        a = gm.coefficient_matrix(np.zeros(2))
        assert np.allclose(a, np.eye(2) / 1.5, atol=1e-12)
        assert np.allclose(a, 0.6667 * np.eye(2), atol=1e-3)

    def test_symmetric(self):
        gm = GasModel(2.0, 0.1)
        rng = np.random.default_rng(7)
        g = rng.normal(size=(50, 2))
        a = gm.coefficient_matrix(g)
        assert np.allclose(a, np.swapaxes(a, -1, -2), atol=1e-14)

    def test_eigenvalues_within_bounds(self):
        gm = GasModel(2.0, 0.1)
        b = gm.ellipticity_bounds()
        rng = np.random.default_rng(11)
        g = rng.normal(size=(300, 2)) * 0.7
        g = g[np.sum(g**2, axis=1) <= b.s_cap]
        a = gm.coefficient_matrix(g)
        w = np.linalg.eigvalsh(a)
        assert np.all(w >= b.lam - 1e-12)
        assert np.all(w <= b.Lam + 1e-12)

    @pytest.mark.parametrize("eps", [0.2, 0.05])
    def test_matches_root_solve_oracle(self, eps):
        # the cached F' I + 2 F'' g g^T against (H I - 2 H' g g^T) / H^2
        # with H from the root solve and H' by central differences of it,
        # across the exact branch, blend and tail
        gm = GasModel(2.0, eps)
        rng = np.random.default_rng(5)
        g = rng.normal(size=(400, 2))
        g *= (np.sqrt(rng.uniform(0.01, 1.5, 400)) / np.linalg.norm(g, axis=1))[:, None]
        s = np.sum(g**2, axis=1)
        d = 1e-6
        h = gm.truncated_density(s)
        hp = (gm.truncated_density(s + d) - gm.truncated_density(s - d)) / (2 * d)
        outer = g[:, :, None] * g[:, None, :]
        expect = (h[:, None, None] * np.eye(2) - 2.0 * hp[:, None, None] * outer) / (
            h[:, None, None] ** 2
        )
        a = gm.coefficient_matrix(g)
        assert np.max(np.abs(a - expect)) <= 1e-6 * np.max(np.abs(expect))

    def test_rotation_invariant_spectrum(self):
        gm = GasModel(2.0, 0.1)
        g = np.array([0.6, 0.0])
        th = 1.234
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        w1 = np.linalg.eigvalsh(gm.coefficient_matrix(g))
        w2 = np.linalg.eigvalsh(gm.coefficient_matrix(R @ g))
        assert np.allclose(w1, w2, atol=1e-12)


class TestEllipticityBounds:
    def test_frozen_gamma2(self):
        b = GasModel(2.0, 0.1).ellipticity_bounds()
        assert isinstance(b, EllipticityBounds)
        assert b.lam <= 2.0 / 3.0 <= b.Lam
        assert b.lam == pytest.approx(0.99 * 2.0 / 3.0, rel=1e-9)

    def test_ratio_grows_as_eps_shrinks(self):
        ratios = []
        for eps in (0.2, 0.1, 0.05):
            b = GasModel(2.0, eps).ellipticity_bounds()
            ratios.append(b.Lam / b.lam)
        assert ratios[0] < ratios[1] < ratios[2]


class TestConstruction:
    def test_parameter_domains(self):
        with pytest.raises(DomainError):
            GasModel(1.0, 0.1)
        with pytest.raises(DomainError):
            GasModel(2.0, 0.25)
        with pytest.raises(DomainError):
            GasModel(2.0, 0.0)

    def test_tiny_eps_cache_still_accurate(self):
        gm = GasModel(2.0, 2e-5)
        assert gm.cache_accuracy() <= 1e-8
