"""Solver checks: exact anchors, derivatives, convexity, and invariances."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from spiralflow import continuation as ct
from spiralflow import gas as gas_module
from spiralflow.errors import ConfigError, InternalConsistencyError, NonConvergenceError
from spiralflow.gas import GasModel
from spiralflow.meshing import Circle, PerturbedCircle, TriangleMesh, build_annulus_mesh
from spiralflow.radial import RadialBackground
from spiralflow import solver as sv


def truncation_active(sol):
    """True when some triangle reaches the blended part of the flux law."""
    return sol.s_max >= sol.problem.gas.s_blend_lo


@pytest.fixture(scope="module")
def gas():
    return GasModel(2.0, 0.05)


@pytest.fixture(scope="module")
def circle_problem(gas):
    bg = RadialBackground(gas, 0.3, 0.2)
    mesh = build_annulus_mesh(Circle(1.0), 20.0, 0.25)
    return sv.FlowProblem(gas, bg, mesh)


@pytest.fixture(scope="module")
def wavy_problem(gas):
    bg = RadialBackground(gas, 0.3, 0.2)
    mesh = build_annulus_mesh(PerturbedCircle(1.2, 0.1, 3), 16.0, 0.3)
    return sv.FlowProblem(gas, bg, mesh)


@pytest.fixture(scope="module")
def wavy_solution(wavy_problem):
    return sv.solve(wavy_problem)


class TestCircleAnchor:
    def test_unit_circle_zero_correction(self, circle_problem):
        # body data vanishes on the unit circle, so u = 0 is the exact
        # discrete minimizer and Newton must stop before its first step
        sol = sv.solve(circle_problem)
        assert sol.newton_iterations == 0
        assert np.max(np.abs(sol.u_full)) == 0.0
        rep = sv.decay_report(sol)
        assert rep.exact_match
        assert rep.slope is None

    def test_larger_circle_gauge_still_radial(self, gas):
        # constant body data: the gauge far field absorbs it and the
        # total gradient stays exactly radial
        bg = RadialBackground(gas, 0.3, 0.2)
        mesh = build_annulus_mesh(Circle(1.3), 20.0, 0.25)
        sol = sv.solve(sv.FlowProblem(gas, bg, mesh, newton_tol=1e-13))
        du = np.linalg.norm(sol.problem.u_gradients(sol.u_full), axis=-1)
        assert np.max(du) <= 1e-10

    def test_wavy_body_needs_iterations(self, wavy_solution):
        assert wavy_solution.newton_iterations >= 1
        assert wavy_solution.gradient_norm <= 1e-9 * (1 + abs(wavy_solution.energy))


class TestDerivatives:
    def test_gradient_matches_finite_differences(self, wavy_problem):
        rng = np.random.default_rng(7)
        n = wavy_problem.n_reduced
        for _ in range(20):
            u = 0.05 * rng.standard_normal(n)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            h = 1e-6
            fd = (wavy_problem.energy(u + h * v) - wavy_problem.energy(u - h * v)) / (
                2 * h
            )
            an = float(wavy_problem.gradient(u) @ v)
            assert abs(fd - an) <= 1e-5 * (1 + abs(an))

    def test_hessian_matches_finite_differences(self, wavy_problem):
        rng = np.random.default_rng(8)
        n = wavy_problem.n_reduced
        for _ in range(20):
            u = 0.05 * rng.standard_normal(n)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            h = 1e-6
            fd = (
                wavy_problem.gradient(u + h * v) - wavy_problem.gradient(u - h * v)
            ) / (2 * h)
            an = wavy_problem.hessian(u) @ v
            assert np.linalg.norm(fd - an) <= 1e-4 * (1 + np.linalg.norm(an))

    def test_hessian_between_laplacian_bounds(self, wavy_problem):
        # uniform ellipticity of the truncated flux law transfers verbatim
        # to the assembled matrices: 2*lam*K <= H <= 2*Lam*K in quadratic form
        rng = np.random.default_rng(9)
        K = wavy_problem.mesh.reduction.laplacian
        bounds = wavy_problem.gas.ellipticity_bounds()
        for _ in range(10):
            u = 0.1 * rng.standard_normal(wavy_problem.n_reduced)
            H = wavy_problem.hessian(u)
            v = rng.standard_normal(wavy_problem.n_reduced)
            kv = float(v @ (K @ v))
            hv = float(v @ (H @ v))
            assert 2.0 * bounds.lam * kv <= hv * (1 + 1e-12)
            assert hv <= 2.0 * bounds.Lam * kv * (1 + 1e-12)

    def test_nan_state_names_triangle(self, wavy_problem):
        u = np.zeros(wavy_problem.n_reduced)
        u[0] = np.nan
        with pytest.raises(InternalConsistencyError, match="triangle"):
            wavy_problem.energy(u)
        with pytest.raises(InternalConsistencyError, match="triangle"):
            wavy_problem.gradient(u)


class TestConvexity:
    def test_midpoint_gap_dominates_prediction(self, wavy_problem):
        rng = np.random.default_rng(10)
        n = wavy_problem.n_reduced
        for _ in range(25):
            a = 0.3 * rng.standard_normal(n)
            b = 0.3 * rng.standard_normal(n)
            gap, bound = sv.convexity_gap(wavy_problem, a, b)
            assert gap >= bound - 1e-10

    def test_energy_history_decreases(self, wavy_solution, wavy_problem):
        e = wavy_solution.energy_history
        assert all(e[i + 1] <= e[i] + 1e-14 for i in range(len(e) - 1))
        assert e[0] == wavy_problem.energy(np.zeros(wavy_problem.n_reduced))
        # the zero full field is the unconstrained minimum with I = 0, so
        # any admissible competitor for nonzero body data sits above it
        assert wavy_solution.energy > 0.0


class TestLinearSolve:
    @pytest.fixture
    def splu_calls(self, monkeypatch):
        calls = []
        splu = sv.spla.splu

        def counting(matrix):
            calls.append(matrix.shape)
            return splu(matrix)

        monkeypatch.setattr(sv.spla, "splu", counting)
        return calls

    def test_cg_step_matches_direct_solve(self, wavy_problem):
        rng = np.random.default_rng(13)
        n = wavy_problem.n_reduced
        for u in (np.zeros(n), 0.05 * rng.standard_normal(n)):
            g = wavy_problem.gradient(u)
            step, iterations, converged = sv._newton_direction(wavy_problem, u, g)
            direct = spla.splu(wavy_problem.hessian(u)).solve(-g)  # the oracle
            assert converged and 1 <= iterations <= sv.CG_MAX_ITERATIONS
            assert np.linalg.norm(step - direct) <= 1e-8 * np.linalg.norm(direct)

    def test_iterations_recorded_per_step(self, wavy_solution, circle_problem):
        assert len(wavy_solution.linear_iterations) == wavy_solution.newton_iterations
        assert all(n >= 1 for n in wavy_solution.linear_iterations)
        assert sv.solve(circle_problem).linear_iterations == []

    def test_one_factor_per_mesh(self, splu_calls):
        mesh = build_annulus_mesh(PerturbedCircle(1.2, 0.1, 3), 16.0, 0.3)
        bg = RadialBackground(GasModel(2.0, 0.1), 0.6, 0.7)
        rem = ct.solve_with_truncation_removal(bg, mesh)
        assert sum(r.newton_iterations >= 1 for r in rem.rungs) >= 2
        bg2 = RadialBackground(GasModel(2.0, 0.1), 0.6, 0.5)
        ct.solve_with_truncation_removal(bg2, mesh)
        assert len(splu_calls) == 1
        other = build_annulus_mesh(PerturbedCircle(1.2, 0.1, 3), 16.0, 0.25)
        ct.solve_with_truncation_removal(bg2, other)
        assert len(splu_calls) == 2

    def test_zero_step_solve_builds_no_factor(self, gas, splu_calls):
        mesh = build_annulus_mesh(Circle(1.0), 20.0, 0.25)
        sol = sv.solve(sv.FlowProblem(gas, RadialBackground(gas, 0.3, 0.2), mesh))
        assert sol.newton_iterations == 0
        assert splu_calls == []

    def test_cg_iterations_mesh_independent(self):
        # Lam/lam bounds the preconditioned condition number whatever h is
        body = PerturbedCircle(1.2, 0.1, 3)
        for h in (0.2, 0.1, 0.05):
            mesh = build_annulus_mesh(body, 16.0, h)
            for eps in (0.2, 0.0125):
                g = GasModel(2.0, eps)
                sol = sv.solve(sv.FlowProblem(g, RadialBackground(g, 0.3, 0.2), mesh))
                assert sol.newton_iterations >= 1
                assert max(sol.linear_iterations) <= 20, (h, eps, sol.linear_iterations)

    def test_cg_failure_carries_record(self, monkeypatch, wavy_problem):
        tolerances = []

        def stalled(A, b, **kwargs):
            tolerances.append(kwargs["rtol"])
            return np.zeros_like(b), kwargs["maxiter"]

        monkeypatch.setattr(sv.spla, "cg", stalled)
        with pytest.raises(NonConvergenceError, match="CG did not reach") as info:
            sv.solve(wavy_problem)
        u = info.value.iterate
        assert np.array_equal(u, np.zeros(wavy_problem.n_reduced))
        assert info.value.history == [wavy_problem.reduction.norm(wavy_problem.gradient(u))]
        # a cold first step runs at the forcing term's cap, and the message names it
        assert tolerances == [0.01]
        assert "rtol 0.01 in" in str(info.value)


class TestForcingTerm:
    """Inexact Newton: each CG step is solved only as tightly as Newton needs."""

    @pytest.fixture(scope="class")
    def wavy_mesh(self):
        return build_annulus_mesh(PerturbedCircle(1.2, 0.1, 3), 16.0, 0.1)

    @staticmethod
    def fixed_rtol(monkeypatch, run):
        """run() with every step solved to the floor CG_RTOL, the tight solve."""
        with monkeypatch.context() as m:
            m.setattr(sv, "_forcing_term", lambda gnorm, prev_gnorm: sv.CG_RTOL)
            return run()

    def test_first_step_is_capped_by_the_gradient_norm(self):
        assert sv._forcing_term(3.0, None) == 0.01
        assert sv._forcing_term(0.002, None) == 0.002
        assert sv._forcing_term(1e-13, None) == sv.CG_RTOL

    def test_ratio_term_after_the_first_step(self):
        assert sv._forcing_term(0.005, 1.0) == pytest.approx(0.9 * 0.005**2)
        assert sv._forcing_term(0.005, 0.006) == 0.005  # slow decrease: gnorm caps
        assert sv._forcing_term(0.005, 0.5) == pytest.approx(0.9 * 0.01**2)

    def test_clamped_to_floor_and_cap(self):
        norms = np.logspace(-16, 3, 39)
        for gnorm in norms:
            for prev in (None, *norms):
                assert sv.CG_RTOL <= sv._forcing_term(gnorm, prev) <= 0.01

    # (0.8, 0.2) has the truncation active, |g| = 2.8 at u = 0, and one CG
    # iteration reaching 0.03: a cap of 0.1 would take that loose first step
    # and cost a fifth Newton step
    @pytest.mark.parametrize("kappa2, eps", [(0.2, 0.1), (0.8, 0.2)])
    def test_cold_solve_matches_the_tight_solve(self, monkeypatch, wavy_mesh, kappa2, eps):
        gas = GasModel(2.0, eps)
        problem = sv.FlowProblem(gas, RadialBackground(gas, 0.3, kappa2), wavy_mesh)
        sol = sv.solve(problem)
        tight = self.fixed_rtol(monkeypatch, lambda: sv.solve(problem))
        assert sol.newton_iterations == tight.newton_iterations >= 1
        assert 2 * sum(sol.linear_iterations) <= sum(tight.linear_iterations)
        diff = np.max(np.abs(sol.u_full - tight.u_full))
        assert diff <= 1e-9 * np.max(np.abs(tight.u_full))

    @pytest.mark.parametrize("h", [0.1, 0.3])
    def test_warm_rungs_take_no_extra_newton_steps(self, monkeypatch, h):
        # each rung starts from the previous rung's minimizer, so its first
        # gradient is small; the gnorm cap keeps that first step tight
        # (without it the last rung at h = 0.3 takes 3 steps, not 2)
        mesh = build_annulus_mesh(PerturbedCircle(1.2, 0.1, 3), 16.0, h)
        bg = RadialBackground(GasModel(2.0, 0.1), 0.6, 0.7)
        rem = ct.solve_with_truncation_removal(bg, mesh)
        tight = self.fixed_rtol(monkeypatch, lambda: ct.solve_with_truncation_removal(bg, mesh))
        assert len(rem.rungs) == len(tight.rungs) >= 2
        steps = [r.newton_iterations for r in rem.rungs]
        tight_steps = [r.newton_iterations for r in tight.rungs]
        assert all(a <= b for a, b in zip(steps, tight_steps)), (steps, tight_steps)


class TestInvariance:
    def test_initial_guess_independence(self, wavy_problem, wavy_solution):
        rng = np.random.default_rng(11)
        other = sv.solve(
            wavy_problem, initial=0.5 * rng.standard_normal(wavy_problem.n_reduced)
        )
        assert np.max(np.abs(other.u_full - wavy_solution.u_full)) <= 1e-8

    def test_node_permutation_invariance(self, gas, wavy_solution):
        mesh = wavy_solution.problem.mesh
        rng = np.random.default_rng(12)
        perm = rng.permutation(mesh.n_points)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(mesh.n_points)
        pmesh = TriangleMesh(
            mesh.points[inv],
            perm[mesh.triangles],
            perm[mesh.body_nodes],
            perm[mesh.outer_nodes],
            body_theta=mesh.body_theta,
        )
        bg = wavy_solution.problem.background
        psol = sv.solve(sv.FlowProblem(gas, bg, pmesh))
        assert np.max(np.abs(psol.u_full[perm] - wavy_solution.u_full)) <= 1e-8


class TestResiduals:
    def test_corrected_residuals_tiny(self, wavy_solution):
        irrot, mass = sv.weak_residuals(wavy_solution)
        assert irrot <= 1e-8
        assert mass <= 1e-12  # exact P1 identity, roundoff only

    def test_perturbation_raises_residual(self, wavy_solution):
        irrot0, _ = sv.weak_residuals(wavy_solution)
        u = wavy_solution.u_reduced.copy()
        u[wavy_solution.problem.n_reduced // 2] += 1e-3
        bumped = sv.FlowSolution(
            problem=wavy_solution.problem,
            u_reduced=u,
            u_full=wavy_solution.problem.full_vector(u),
            newton_iterations=0,
            gradient_norm=np.nan,
            energy=np.nan,
            s_max=np.nan,
            q_max=np.nan,
        )
        irrot1, _ = sv.weak_residuals(bumped)
        assert irrot1 >= 10.0 * max(irrot0, 1e-12)

    def test_raw_residual_refines(self, gas):
        # the uncorrected weak form carries the quadrature defect of the
        # radial background; it has to shrink under mesh refinement
        bg = RadialBackground(gas, 0.3, 0.2)
        vals = []
        for h in (0.2, 0.1):
            mesh = build_annulus_mesh(Circle(1.0), 8.0, h)
            sol = sv.solve(sv.FlowProblem(gas, bg, mesh))
            irrot, mass = sv.weak_residuals(sol, include_background=True)
            vals.append(max(irrot, mass))
        assert vals[1] <= vals[0] / 3.0


class TestDiagnostics:
    def test_boundary_flux_matches_source(self, wavy_solution, gas):
        # total outflow is set by the source alone, whatever the shape
        bg = wavy_solution.problem.background
        expect = 2.0 * np.pi * bg.source_strength
        got = sv.boundary_flux(wavy_solution)
        assert abs(got - expect) <= 0.05 * expect

    def test_boundary_flux_circle_second_order(self, gas):
        bg = RadialBackground(gas, 0.3, 0.2)
        expect = 2.0 * np.pi * bg.source_strength
        errs = []
        for h in (0.2, 0.1):
            mesh = build_annulus_mesh(Circle(1.0), 8.0, h)
            sol = sv.solve(sv.FlowProblem(gas, bg, mesh))
            errs.append(abs(sv.boundary_flux(sol) - expect) / expect)
        assert errs[0] <= 0.02
        assert errs[1] <= errs[0] / 2.5

    def test_gradient_error_first_order(self, gas):
        bg = RadialBackground(gas, 0.3, 0.2)
        errs = []
        for h in (0.2, 0.1):
            mesh = build_annulus_mesh(Circle(1.0), 8.0, h)
            sol = sv.solve(sv.FlowProblem(gas, bg, mesh))
            errs.append(sv.background_gradient_error(sol))
        assert errs[1] <= 0.05
        order = np.log(errs[0] / errs[1]) / np.log(2.0)
        assert order >= 0.9

    def test_boundary_flux_matches_edge_loop(self, wavy_solution):
        # reference: the per-edge rule, one triangle lookup and one
        # background evaluation per body edge
        pr = wavy_solution.problem.whole
        mesh = pr.mesh
        du = pr.u_gradients(wavy_solution.u_full)
        expect = 0.0
        for a, b in mesh.body_edge_list():
            t = next(
                i for i, tri in enumerate(mesh.triangles) if a in tri and b in tri
            )
            mid = 0.5 * (mesh.points[a] + mesh.points[b])
            e = mesh.points[b] - mesh.points[a]
            w = du[t] + pr.background.stream_gradient(mid)
            expect += w[1] * e[1] + w[0] * e[0]
        assert sv.boundary_flux(wavy_solution) == pytest.approx(expect, rel=1e-12)

    def test_boundary_flux_names_unowned_body_edge(self, gas, wavy_problem):
        mesh = wavy_problem.mesh
        body = mesh.body_nodes.copy()
        body[[3, 4]] = body[[4, 3]]
        bad = TriangleMesh(mesh.points, mesh.triangles, body, mesh.outer_nodes)
        pr = sv.FlowProblem(gas, wavy_problem.background, bad)
        u = np.zeros(pr.n_reduced)
        sol = sv.FlowSolution(
            problem=pr,
            u_reduced=u,
            u_full=pr.full_vector(u),
            newton_iterations=0,
            gradient_norm=np.nan,
            energy=np.nan,
            s_max=np.nan,
            q_max=np.nan,
        )
        with pytest.raises(InternalConsistencyError, match=r"body edge \(\d+, \d+\)"):
            sv.boundary_flux(sol)

    def test_density_matches_root_solve_oracle(self, wavy_solution):
        # hot paths read 1/F' from the cache; the root solve is the oracle
        rho = sv.recover_fields(wavy_solution).density
        exact = wavy_solution.problem.gas.truncated_density(wavy_solution.state.s)
        assert np.max(np.abs(rho - exact) / exact) <= 1e-12

    def test_recover_fields_consistency(self, wavy_solution):
        fields = sv.recover_fields(wavy_solution)
        w = wavy_solution.state.w
        flux = np.linalg.norm(w, axis=-1)
        assert np.allclose(fields.density * fields.speed, flux, rtol=1e-12)
        assert np.allclose(
            np.linalg.norm(fields.velocity, axis=-1), fields.speed, rtol=1e-12
        )
        # velocity is the rotated stream gradient over density
        assert np.allclose(fields.velocity[:, 0] * fields.density, w[:, 1])
        assert np.allclose(fields.velocity[:, 1] * fields.density, -w[:, 0])
        gamma = wavy_solution.problem.gas.gamma
        assert np.allclose(
            fields.mach, fields.speed / fields.density ** (0.5 * (gamma - 1))
        )
        # strictly subsonic data stays strictly subsonic
        assert not fields.supersonic.any()
        assert np.all(fields.mach < 1.0)
        assert not truncation_active(wavy_solution)

    def test_wavy_decay_rate(self, gas):
        # three-fold symmetric boundary data: leading far-field multipole
        # has order 3, so |grad u| ~ r^-4
        bg = RadialBackground(gas, 0.3, 0.2)
        mesh = build_annulus_mesh(PerturbedCircle(1.2, 0.1, 3), 32.0, 0.2)
        sol = sv.solve(sv.FlowProblem(gas, bg, mesh))
        rep = sv.decay_report(sol)
        assert not rep.exact_match
        assert -5.0 <= rep.slope <= -3.2

    @pytest.mark.parametrize("r_out, n_rings", [(4.0 * 1.3, 0), (8.0, 1)])
    def test_decay_report_without_evidence(self, gas, r_out, n_rings):
        # the correction does not vanish, but no ring cannot show that it
        # does and one ring cannot carry a slope
        bg = RadialBackground(gas, 0.3, 0.2)
        mesh = build_annulus_mesh(PerturbedCircle(1.2, 0.1, 3), r_out, 0.3)
        sol = sv.solve(sv.FlowProblem(gas, bg, mesh))
        assert np.max(np.linalg.norm(sol.problem.u_gradients(sol.u_full), axis=-1)) > 1e-2
        rep = sv.decay_report(sol)
        assert rep.ring_radii.size == n_rings
        assert not rep.exact_match
        assert rep.slope is None


class TestValidation:
    def test_bad_far_field(self, gas, wavy_problem):
        # the outer ring always floats on the gauge; there is no policy to pick
        with pytest.raises(TypeError, match="far_field"):
            sv.FlowProblem(gas, wavy_problem.background, wavy_problem.mesh, far_field="open")

    def test_bad_initial_size(self, wavy_problem):
        with pytest.raises(ConfigError, match="wrong size"):
            sv.solve(wavy_problem, initial=np.zeros(3))

    def test_bad_newton_settings(self, gas, wavy_problem):
        with pytest.raises(ConfigError):
            sv.FlowProblem(
                gas, wavy_problem.background, wavy_problem.mesh, newton_tol=-1.0
            )

    def test_iteration_budget_exhaustion(self, monkeypatch, gas, wavy_problem):
        monkeypatch.setattr(sv, "NEWTON_MAX_ITERATIONS", 1)
        with pytest.raises(NonConvergenceError, match="in 1 iterations"):
            sv.solve(
                sv.FlowProblem(
                    gas, wavy_problem.background, wavy_problem.mesh, newton_tol=1e-16
                )
            )


class TestIterateState:
    """One flux evaluation per iterate: each series of F at most once."""

    @pytest.fixture
    def flux_log(self, monkeypatch):
        """Events in call order: ("energy" | "gradient" | "hessian",) on entry,
        ("flux", orders, enclosing method) per flux_eval, ("series", n) per
        piecewise Chebyshev evaluation of n series inside flux_eval."""
        log, context = [], []
        real_flux = GasModel.flux_eval
        real_chebval = gas_module.piecewise_chebval

        def flux_eval(self, s, orders=(0, 1, 2)):
            log.append(("flux", tuple(orders), context[-1] if context else None))
            return real_flux(self, s, orders)

        def chebval(breaks, x, *series):
            log.append(("series", len(series)))
            return real_chebval(breaks, x, *series)

        def entering(name, real):
            def method(self, *args, **kwargs):
                log.append((name,))
                context.append(name)
                try:
                    return real(self, *args, **kwargs)
                finally:
                    context.pop()

            return method

        monkeypatch.setattr(GasModel, "flux_eval", flux_eval)
        monkeypatch.setattr(gas_module, "piecewise_chebval", chebval)
        for name in ("energy", "gradient", "hessian"):
            monkeypatch.setattr(
                sv.FlowProblem, name, entering(name, getattr(sv.FlowProblem, name))
            )
        return log

    def test_zero_step_rung_two_calls_four_series(self, flux_log):
        mesh = build_annulus_mesh(Circle(1.0), 8.0, 0.25)
        bg = RadialBackground(GasModel(2.0, 0.1), 0.6, 0.75)
        flux_log.clear()
        rem = ct.solve_with_truncation_removal(bg, mesh)
        rungs = len(rem.rungs)
        assert rungs >= 2
        assert all(r.newton_iterations == 0 for r in rem.rungs)
        calls = [e[1] for e in flux_log if e[0] == "flux"]
        assert len(calls) == 2 * rungs
        assert sum(len(orders) for orders in calls) == 4 * rungs
        assert sum(e[1] for e in flux_log if e[0] == "series") == 4 * rungs

    def test_trials_ask_for_f_and_only_hessian_for_f2(self, flux_log, wavy_problem):
        sol = sv.solve(wavy_problem)
        n = sol.newton_iterations
        assert n >= 2
        calls = [e for e in flux_log if e[0] == "flux"]
        # F'' is asked for by the Hessian alone, once per Newton step
        assert [e for e in calls if 2 in e[1]] == [("flux", (2,), "hessian")] * n
        # energies between a Hessian and the next gradient are line-search
        # trials; each evaluates F and nothing else
        trials, after_hessian = [], False
        for i, e in enumerate(flux_log):
            if e[0] in ("hessian", "gradient"):
                after_hessian = e[0] == "hessian"
            elif e == ("energy",) and after_hessian:
                trials.append(flux_log[i + 1])
        assert len(trials) >= 1
        assert trials == [("flux", (0,), "energy")] * len(trials)
        # one evaluation per iterate, one per Hessian, one per trial
        assert len(calls) == (n + 1) + n + len(trials)

    def test_explicit_state_matches_stateless(self, wavy_problem):
        rng = np.random.default_rng(21)
        n = wavy_problem.n_reduced
        for u in (np.zeros(n), 0.05 * rng.standard_normal(n)):
            fresh = sv.IterateState(wavy_problem, u)
            primed = sv.IterateState(wavy_problem, u)
            primed.flux(0, 1)  # as the solve primes each iterate
            for st in (fresh, primed):
                assert wavy_problem.energy(u, st) == wavy_problem.energy(u)
                assert np.array_equal(wavy_problem.gradient(u, st), wavy_problem.gradient(u))
                h_state, h_plain = wavy_problem.hessian(u, st), wavy_problem.hessian(u)
                assert np.array_equal(h_state.indptr, h_plain.indptr)
                assert np.array_equal(h_state.indices, h_plain.indices)
                assert np.array_equal(h_state.data, h_plain.data)

    def test_state_kept_for_the_hessian(self, wavy_problem):
        # the solve releases all but w and F' before the Hessian, which
        # then evaluates F'' from w without keeping it
        u = 0.05 * np.random.default_rng(22).standard_normal(wavy_problem.n_reduced)
        st = sv.IterateState(wavy_problem, u)
        st.flux(0, 1)
        st.keep_hessian_inputs()
        assert st.u_full is None and st.du is None and st.s is None
        h_kept = wavy_problem.hessian(u, st)
        assert list(st._flux) == [1]
        h_plain = wavy_problem.hessian(u)
        assert np.array_equal(h_kept.data, h_plain.data)

    def test_s_max_and_q_max_from_final_state(self, wavy_solution):
        # the solve's final state: on the sector the solve ran on
        final = sv.IterateState(wavy_solution.problem, wavy_solution.u_reduced)
        s = final.s
        speed = np.sqrt(s) / (1.0 / final.flux(1)[0])  # as recover_fields
        assert wavy_solution.s_max == float(np.max(s))
        assert wavy_solution.q_max == float(np.max(speed))


class TestOneStatePerSolution:
    """Every post-solve diagnostic reads the solution's one whole-mesh state."""

    @pytest.mark.parametrize(
        "body, outer, h, whole_binding",
        [
            (PerturbedCircle(1.2, 0.1, 1), 16.0, 0.3, 0),  # k = 1: its own whole view
            (Circle(1.0), 20.0, 0.25, 1),  # k > 1: the whole view binds its gas once
        ],
    )
    def test_one_gradient_and_one_fprime(self, monkeypatch, gas, body, outer, h, whole_binding):
        mesh = build_annulus_mesh(body, outer, h)
        assert (mesh.rotation.k > 1) == bool(whole_binding)
        sol = sv.solve(sv.FlowProblem(gas, RadialBackground(gas, 0.3, 0.2), mesh))
        gradients, flux_orders = [], []
        real_gradients, real_flux = sv.FlowProblem.u_gradients, GasModel.flux_eval

        def u_gradients(self, u_full):
            gradients.append(self.cells is mesh)
            return real_gradients(self, u_full)

        def flux_eval(self, s, orders=(0, 1, 2)):
            flux_orders.append(tuple(orders))
            return real_flux(self, s, orders)

        monkeypatch.setattr(sv.FlowProblem, "u_gradients", u_gradients)
        monkeypatch.setattr(GasModel, "flux_eval", flux_eval)
        sv.recover_fields(sol)
        sv.weak_residuals(sol)
        sv.weak_residuals(sol, include_background=True)
        sv.boundary_flux(sol)
        sv.decay_report(sol)
        sv.background_gradient_error(sol)
        assert sol.state.s.shape == (mesh.n_triangles,)
        assert gradients == [True]
        # the whole view's background binding asks for F and F' at g0
        assert flux_orders == [(0, 1)] * whole_binding + [(1,)]
