"""Continuation drivers: removal schedules, sweeps, bisection, ladders."""

import numpy as np
import pytest

from spiralflow.errors import (
    ConfigError,
    NonConvergenceError,
    NonMonotoneError,
    RegimeError,
)
from spiralflow.gas import GasModel
from spiralflow.meshing import Circle, PerturbedCircle, build_annulus_mesh
from spiralflow.radial import RadialBackground
from spiralflow.solver import FlowProblem, solve
from spiralflow import continuation as ct


@pytest.fixture(scope="module")
def circle_mesh():
    return build_annulus_mesh(Circle(1.0), 8.0, 0.1)


@pytest.fixture(scope="module")
def wavy_mesh():
    return build_annulus_mesh(PerturbedCircle(1.2, 0.1, 3), 16.0, 0.3)


def _background(k1, k2):
    return RadialBackground(GasModel(2.0, 0.1), k1, k2)


class TestSchedule:
    def test_default_is_strictly_decreasing(self):
        s = ct.DEFAULT_SCHEDULE
        assert all(b < a for a, b in zip(s, s[1:]))
        assert all(0 < e < 0.5 for e in s)

    @pytest.mark.parametrize(
        "bad", [(), (0.2, 0.2), (0.1, 0.2), (0.6, 0.1), (0.2, 0.0)]
    )
    def test_bad_schedules_rejected(self, bad, circle_mesh):
        with pytest.raises(ConfigError, match="schedule"):
            ct.solve_with_truncation_removal(
                _background(0.3, 0.2), circle_mesh, schedule=bad
            )


class TestRemoval:
    def test_mild_flow_certifies_immediately(self, circle_mesh):
        rem = ct.solve_with_truncation_removal(_background(0.3, 0.2), circle_mesh)
        assert rem.removed
        assert len(rem.rungs) == 1
        assert rem.eps_final == ct.DEFAULT_SCHEDULE[0]
        assert rem.s_max < 1.0 - 2.0 * rem.eps_final
        assert rem.rungs[0].certified

    def test_near_critical_needs_deep_schedule(self, circle_mesh):
        bg = _background(0.6, 0.75)
        rem = ct.solve_with_truncation_removal(bg, circle_mesh)
        # the default schedule bottoms out before the flux ceiling clears
        assert not rem.removed
        assert len(rem.rungs) == len(ct.DEFAULT_SCHEDULE)
        assert all(not r.certified for r in rem.rungs)
        deep = ct.DEFAULT_SCHEDULE + (0.005,)
        rem2 = ct.solve_with_truncation_removal(bg, circle_mesh, schedule=deep)
        assert rem2.removed
        assert rem2.eps_final == 0.005

    def test_rungs_share_discretization_and_background(self, circle_mesh, monkeypatch):
        problems, calls = [], []
        real_solve = ct.solve
        real_gradient = RadialBackground.stream_gradient

        def recording_solve(problem, **kw):
            problems.append(problem)
            return real_solve(problem, **kw)

        def counting_gradient(self, points):
            calls.append(len(points))
            return real_gradient(self, points)

        monkeypatch.setattr(ct, "solve", recording_solve)
        monkeypatch.setattr(RadialBackground, "stream_gradient", counting_gradient)
        rem = ct.solve_with_truncation_removal(_background(0.6, 0.75), circle_mesh)
        assert len(problems) == len(rem.rungs) == len(ct.DEFAULT_SCHEDULE)
        assert [p.gas.eps for p in problems] == list(ct.DEFAULT_SCHEDULE)
        first = problems[0]
        for p in problems[1:]:
            for name in ("mesh", "restriction", "cells", "g0", "dirichlet"):
                assert getattr(p, name) is getattr(first, name)
        # the circle mesh is rotation invariant: the rungs solve on its
        # orbit reduction, and the background is sampled on the sector
        orbits = circle_mesh.reduction
        assert circle_mesh.rotation.k == circle_mesh.n_cols
        assert first.restriction is orbits.restriction
        assert first.cells is orbits.sector
        assert calls == [circle_mesh.n_triangles // circle_mesh.rotation.k]

    def test_wavy_body_certifies_past_roundoff_stall(self):
        # at h = 0.05 the last Newton decrement (about 3e-17) is below the
        # energy's roundoff; an energy-tested line search stalls there
        mesh = build_annulus_mesh(PerturbedCircle(1.2, 0.1, 3), 16.0, 0.05)
        rem = ct.solve_with_truncation_removal(_background(0.3, 0.2), mesh)
        assert rem.removed
        assert rem.eps_final == 0.2
        assert rem.rungs[0].newton_iterations <= 5

    def test_consecutive_certified_widths_agree(self, wavy_mesh):
        # once the truncation is slack, every width solves the same
        # untruncated problem; minimizers can differ only by solver tol
        bg = _background(0.3, 0.2)
        sols = []
        for eps in (0.2, 0.1):
            pr = FlowProblem(GasModel(2.0, eps), bg, wavy_mesh, newton_tol=1e-11)
            sols.append(solve(pr))
            assert sols[-1].s_max < 1.0 - 2.0 * eps
        diff = sols[0].u_full - sols[1].u_full
        pr = sols[0].problem
        err = np.sqrt(pr.dirichlet_seminorm_sq(diff))
        assert err <= 1e-7

    def test_rung_records_are_coherent(self, circle_mesh):
        rem = ct.solve_with_truncation_removal(_background(0.6, 0.7), circle_mesh)
        for r in rem.rungs:
            assert r.s_max > 0 and r.q_max > 0
            assert r.certified == (r.s_max < 1 - 2 * r.eps)
            if r.certified:
                # slack truncation means the exact subsonic branch is used
                assert r.q_max < 1.0
        assert rem.q_max == rem.rungs[-1].q_max


class TestSweep:
    def test_swirl_sweep_monotone(self, circle_mesh):
        res = ct.parameter_sweep(
            2.0, 0.3, 0.0, ct.SweepAxis.KAPPA2, [0.1, 0.25, 0.4, 0.55], circle_mesh
        )
        assert [r.kappa2 for r in res.rows] == [0.1, 0.25, 0.4, 0.55]
        assert all(r.kappa1 == 0.3 for r in res.rows)
        assert all(r.converged and r.removed for r in res.rows)
        q = [r.q_max for r in res.rows]
        assert all(b > a for a, b in zip(q, q[1:]))
        assert 0 < res.modulus_of_continuity() < 10.0

    def test_source_axis(self, circle_mesh):
        res = ct.parameter_sweep(
            2.0, 0.0, 0.2, ct.SweepAxis.KAPPA1, [0.2, 0.4], circle_mesh
        )
        assert [r.kappa1 for r in res.rows] == [0.2, 0.4]
        assert all(r.kappa2 == 0.2 for r in res.rows)

    def test_axis_accepts_string(self, circle_mesh):
        res = ct.parameter_sweep(2.0, 0.3, 0.0, "kappa2", [0.2], circle_mesh)
        assert res.axis is ct.SweepAxis.KAPPA2


class TestCriticalSearch:
    def test_validations(self, circle_mesh):
        with pytest.raises(ConfigError, match="tol"):
            ct.find_critical_parameter(
                2.0, 0.6, 0.0, "kappa2", 0.4, 0.8, circle_mesh, tol=1e-4
            )
        with pytest.raises(ConfigError, match="lo < hi"):
            ct.find_critical_parameter(
                2.0, 0.6, 0.0, "kappa2", 0.8, 0.4, circle_mesh
            )
        with pytest.raises(ConfigError, match="n_grid"):
            ct.find_critical_parameter(
                2.0, 0.6, 0.0, "kappa2", 0.4, 0.8, circle_mesh, n_grid=2
            )

    def test_finds_default_schedule_flip(self, circle_mesh):
        # with the stock schedule the certification ceiling is 1 - 2*0.0125;
        # the flip must sit strictly below the continuum critical swirl
        res = ct.find_critical_parameter(
            2.0, 0.6, 0.0, "kappa2", 0.3, 0.75, circle_mesh, n_grid=4, tol=0.01
        )
        assert res.width <= 0.01
        assert 0.6 < res.lo < res.hi < 0.75
        flags = dict(res.evaluations)
        assert flags[res.evaluations[0][0]] is True

    def test_grid_extension_when_all_removable(self, circle_mesh):
        # scan range ends well below the flip; the search must push on
        res = ct.find_critical_parameter(
            2.0, 0.6, 0.0, "kappa2", 0.1, 0.3, circle_mesh, n_grid=3, tol=0.01
        )
        assert res.lo > 0.3
        assert res.width <= 0.01

    def test_lower_bound_not_removable(self, circle_mesh):
        deep = ct.DEFAULT_SCHEDULE + (3e-4,)
        with pytest.raises(RegimeError, match="lower search bound"):
            ct.find_critical_parameter(
                2.0,
                0.6,
                0.0,
                "kappa2",
                0.85,
                0.88,
                circle_mesh,
                n_grid=3,
                schedule=deep,
            )

    def test_non_monotone_predicate_reported(self, circle_mesh):
        # at this width the discrete flux ceiling dips back below the
        # threshold past the peak, so the scan sees true-false-true
        deep = ct.DEFAULT_SCHEDULE + (3e-4,)
        with pytest.raises(NonMonotoneError) as exc:
            ct.find_critical_parameter(
                2.0,
                0.6,
                0.0,
                "kappa2",
                0.75,
                0.95,
                circle_mesh,
                n_grid=5,
                schedule=deep,
            )
        (va, fa), (vb, fb), (vc, fc) = exc.value.triple
        assert fa and not fb and fc
        assert va < vb < vc


class TestLimitStudy:
    def test_ladder_approaches_from_below(self, circle_mesh):
        study = ct.sonic_limit_study(
            2.0, 0.6, 0.0, "kappa2", 0.4, 0.76, 4, circle_mesh, annulus=(1.5, 3.0)
        )
        k2 = [r.kappa2 for r in study.rungs]
        assert k2[0] == pytest.approx(0.4)
        assert all(r.kappa1 == 0.6 for r in study.rungs)
        assert all(b > a for a, b in zip(k2, k2[1:]))
        assert all(v < 0.76 for v in k2)
        # each rung halves the remaining distance
        gaps = [0.76 - v for v in k2]
        for a, b in zip(gaps, gaps[1:]):
            assert b == pytest.approx(a / 2)
        q = study.q_max_sequence()
        assert all(b > a for a, b in zip(q, q[1:]))
        assert study.rungs[0].velocity_shift is None
        shifts = study.velocity_shifts()
        assert np.all(shifts > 0)
        # geometric parameter ladder: the velocity settles geometrically
        assert shifts[-1] < shifts[0]
        for r in study.rungs:
            assert r.irrot_residual <= 1e-8
            assert r.mass_residual <= 1e-8

    def test_ladder_speed_tracks_body_algebra(self, circle_mesh):
        # on a circle the top speed sits at the body, where the exact
        # normalized value is sqrt(kappa1^2 + kappa2^2); the centroid
        # sampling lags that by O(h), so the worst gap should halve
        # from h = 0.1 to h = 0.05
        worst = {}
        for h, mesh in ((0.1, circle_mesh), (0.05, build_annulus_mesh(Circle(1.0), 8.0, 0.05))):
            sched = ct.deepened_schedule(mesh, 2.0, 0.6, 0.794)
            study = ct.sonic_limit_study(
                2.0, 0.6, 0.0, "kappa2", 0.4, 0.8, 6, mesh, schedule=sched
            )
            gaps = [
                abs(r.q_max - np.sqrt(0.36 + r.kappa2**2)) for r in study.rungs
            ]
            assert max(gaps) <= 0.6 * h
            worst[h] = max(gaps)
        assert worst[0.05] <= 0.65 * worst[0.1]

    def test_validations(self, circle_mesh):
        with pytest.raises(ConfigError, match="n_seq"):
            ct.sonic_limit_study(2.0, 0.6, 0.0, "kappa2", 0.4, 0.7, 1, circle_mesh)
        with pytest.raises(ConfigError, match="annulus"):
            ct.sonic_limit_study(
                2.0, 0.6, 0.0, "kappa2", 0.4, 0.7, 3, circle_mesh, annulus=(40.0, 50.0)
            )
        with pytest.raises(ConfigError, match="lo < hi"):
            ct.sonic_limit_study(2.0, 0.6, 0.0, "kappa2", 0.7, 0.4, 3, circle_mesh)
