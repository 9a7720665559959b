"""Solver checks: exact anchors, derivatives, convexity, and invariances."""

import numpy as np
import pytest

from spiralflow.errors import ConfigError, InternalConsistencyError
from spiralflow.gas import GasModel
from spiralflow.meshing import Circle, PerturbedCircle, TriangleMesh, build_annulus_mesh
from spiralflow.radial import RadialBackground
from spiralflow import solver as sv


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
        sol = sv.solve(sv.FlowProblem(gas, bg, mesh, far_field="gauge", newton_tol=1e-13))
        du = np.linalg.norm(sol.problem.u_gradients(sol.u_full), axis=-1)
        assert np.max(du) <= 1e-10

    def test_larger_circle_zero_policy_not_radial(self, gas):
        # pinning u = 0 on the outer ring fights the constant body data
        # and excites the spurious log mode
        bg = RadialBackground(gas, 0.3, 0.2)
        mesh = build_annulus_mesh(Circle(1.3), 20.0, 0.25)
        sol = sv.solve(sv.FlowProblem(gas, bg, mesh, far_field="zero"))
        du = np.linalg.norm(sol.problem.u_gradients(sol.u_full), axis=-1)
        assert np.max(du) > 1e-4

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
        K = wavy_problem.mesh.reduction(wavy_problem.far_field).laplacian
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
        pr = wavy_solution.problem
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
        )
        with pytest.raises(InternalConsistencyError, match=r"body edge \(\d+, \d+\)"):
            sv.boundary_flux(sol)

    def test_density_matches_root_solve_oracle(self, wavy_solution):
        # hot paths read 1/F' from the cache; the root solve is the oracle
        rho = wavy_solution.reconstructed_density()
        exact = wavy_solution.problem.gas.truncated_density(wavy_solution.mass_flux_sq)
        assert np.max(np.abs(rho - exact) / exact) <= 1e-12
        fields = sv.recover_fields(wavy_solution)
        assert np.array_equal(fields.density, rho)

    def test_recover_fields_consistency(self, wavy_solution):
        fields = sv.recover_fields(wavy_solution)
        w = wavy_solution.total_gradient
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
        assert not wavy_solution.truncation_active()

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
        with pytest.raises(ConfigError, match="far_field"):
            sv.FlowProblem(gas, wavy_problem.background, wavy_problem.mesh, far_field="open")

    def test_bad_initial_size(self, wavy_problem):
        with pytest.raises(ConfigError, match="wrong size"):
            sv.solve(wavy_problem, initial=np.zeros(3))

    def test_bad_newton_settings(self, gas, wavy_problem):
        with pytest.raises(ConfigError):
            sv.FlowProblem(
                gas, wavy_problem.background, wavy_problem.mesh, newton_tol=-1.0
            )
        with pytest.raises(ConfigError):
            sv.FlowProblem(
                gas, wavy_problem.background, wavy_problem.mesh, max_iterations=0
            )

    def test_iteration_budget_exhaustion(self, gas, wavy_problem):
        from spiralflow.errors import NonConvergenceError

        with pytest.raises(NonConvergenceError):
            sv.solve(
                sv.FlowProblem(
                    gas,
                    wavy_problem.background,
                    wavy_problem.mesh,
                    newton_tol=1e-16,
                    max_iterations=1,
                )
            )
