"""Rotation symmetry: detection from the geometry and the orbit-reduced solve.

A mesh that a rotation by 2 pi / k maps onto itself is solved with one
unknown per node orbit on one triangle per triangle orbit.  The full
path is forced by making the detection report k = 1, so these tests pin
that the sector solve is the full solve up to roundoff, and that the
detection refuses every mesh the rotation does not map onto itself.
"""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from spiralflow import continuation as ct
from spiralflow import meshing
from spiralflow import solver as sv
from spiralflow.gas import GasModel
from spiralflow.meshing import Circle, PerturbedCircle, TriangleMesh, build_annulus_mesh
from spiralflow.radial import RadialBackground

ROOT = Path(__file__).resolve().parent.parent
WAVY = PerturbedCircle(1.2, 0.1, 3)

# (body, R_out, h, kappa1, kappa2); the wavy meshes have 36 and 72 columns
CASES = {
    "circle": (Circle(1.0), 8.0, 0.1, 0.6, 0.75),
    "wavy36": (WAVY, 16.0, 0.21, 0.3, 0.2),
    "wavy72": (WAVY, 16.0, 0.105, 0.6, 0.7),
}


def _renumbered(mesh, seed):
    """The same mesh with nodes and triangles in a seeded random order."""
    if seed == 0:
        return mesh
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_points)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(mesh.n_points)
    order = rng.permutation(mesh.n_triangles)
    return TriangleMesh(
        mesh.points[inv], perm[mesh.triangles][order], perm[mesh.body_nodes], perm[mesh.outer_nodes]
    )


def _no_rotation(mesh):
    return meshing.Rotation(1)


def _removal(case, seed):
    """Every rung's solution of one removal, and the removal."""
    body, r_out, h, k1, k2 = CASES[case]
    mesh = _renumbered(build_annulus_mesh(body, r_out, h), seed)
    bg = RadialBackground(GasModel(2.0, 0.1), k1, k2)
    solutions = []
    real = ct.solve

    def recording(problem, **kw):
        solutions.append(real(problem, **kw))
        return solutions[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ct, "solve", recording)
        rem = ct.solve_with_truncation_removal(bg, mesh)
    return rem, solutions


@pytest.fixture(
    scope="module",
    params=[(c, s) for c in CASES for s in (0, 7)],
    ids=lambda p: f"{p[0]}-seed{p[1]}",
)
def pair(request):
    """(sector removal, full removal) of one case; the full one is forced."""
    case, seed = request.param
    sector = _removal(case, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshing, "detect_rotation", _no_rotation)
        full = _removal(case, seed)
    return case, sector, full


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestDetection:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_largest_rotation_found(self, seed):
        circle = build_annulus_mesh(Circle(1.0), 8.0, 0.1)
        assert _renumbered(circle, seed).rotation.k == circle.body_nodes.size
        for h in (0.21, 0.105):
            assert _renumbered(build_annulus_mesh(WAVY, 16.0, h), seed).rotation.k == 3

    @pytest.mark.parametrize(
        "body, h, n_cols",
        [(WAVY, 0.05, 151), (WAVY, 0.025, 302), (PerturbedCircle(1.2, 0.1, 1), 0.105, 72)],
        ids=["wavy151", "wavy302", "mode1"],
    )
    def test_no_rotation(self, body, h, n_cols):
        mesh = build_annulus_mesh(body, 16.0, h)
        assert mesh.n_cols == n_cols
        assert mesh.rotation.k == 1
        assert mesh.reduction.sector is None and mesh.reduction.multiplicity is None

    def test_flipped_diagonal_breaks_rotation(self):
        # the points stay invariant, one quad's triangles do not
        mesh = build_annulus_mesh(Circle(1.0), 8.0, 0.25)
        a, b, c, d = 0, 1, mesh.n_cols + 1, mesh.n_cols
        assert {tuple(mesh.triangles[0]), tuple(mesh.triangles[1])} == {(a, d, c), (a, c, b)}
        tris = mesh.triangles.copy()
        tris[0], tris[1] = (a, d, b), (b, d, c)
        flipped = TriangleMesh(mesh.points, tris, mesh.body_nodes, mesh.outer_nodes)
        assert np.all(flipped.areas > 0.0)
        assert flipped.rotation.k == 1

    def test_detected_on_first_use(self, monkeypatch):
        calls = []
        real = meshing.detect_rotation

        def counting(mesh):
            calls.append(mesh)
            return real(mesh)

        monkeypatch.setattr(meshing, "detect_rotation", counting)
        mesh = build_annulus_mesh(WAVY, 16.0, 0.21)
        assert calls == []
        assert mesh.rotation is mesh.rotation
        assert calls == [mesh]

    def test_orbit_reduction_is_the_restricted_laplacian(self, monkeypatch):
        # restriction^T K restriction over the whole mesh, from one
        # triangle per orbit weighted by k
        mesh = _renumbered(build_annulus_mesh(WAVY, 16.0, 0.21), 3)
        k = mesh.rotation.k
        t = mesh.triangles
        eye = np.broadcast_to(np.eye(2), (mesh.n_triangles, 2, 2))
        rows, cols = np.repeat(t, 3, axis=1).ravel(), np.tile(t, 3).ravel()
        nodal = sp.coo_matrix(
            (mesh.local_stiffness(eye).ravel(), (rows, cols)), shape=(mesh.n_points,) * 2
        ).tocsr()
        red = mesh.reduction
        assert red.sector.triangles.shape[0] * k == mesh.n_triangles
        expect = (red.restriction.T @ nodal @ red.restriction).toarray()
        err = np.max(np.abs(red.laplacian.toarray() - expect))
        assert err <= 1e-13 * np.max(np.abs(expect))
        # the hat norms are the nodal Laplacian's diagonal; scipy sums the
        # duplicate entries in another order, so they agree to roundoff
        # with its assembly, and bit for bit with the whole-mesh
        # reduction's, which adds in triangle order like hat_norms
        diag = np.sqrt(nodal.diagonal())
        assert np.max(np.abs(mesh.hat_norms - diag) / diag) <= 1e-15
        monkeypatch.setattr(meshing, "detect_rotation", _no_rotation)
        full = TriangleMesh(mesh.points, mesh.triangles, mesh.body_nodes, mesh.outer_nodes)
        interior = full.interior
        lap_diag = full.reduction.laplacian.diagonal()[: interior.size]
        assert np.array_equal(full.hat_norms[interior], np.sqrt(lap_diag))
        assert np.array_equal(full.hat_norms, mesh.hat_norms)


class TestSectorSolve:
    def test_rotation_used(self, pair):
        case, (rem, _), (full, _) = pair
        mesh, full_mesh = rem.solution.problem.mesh, full.solution.problem.mesh
        assert full_mesh.rotation.k == 1
        k = mesh.rotation.k
        assert k == (mesh.body_nodes.size if case == "circle" else 3)
        n_sector, n_full = rem.solution.problem.n_reduced, full.solution.problem.n_reduced
        assert (n_sector - 1) * k == n_full - 1

    def test_same_minimizer(self, pair):
        _, (rem, _), (full, _) = pair
        assert np.max(np.abs(rem.solution.u_full - full.solution.u_full)) <= 1e-14
        assert _rel(rem.energy, full.energy) <= 1e-12
        assert _rel(rem.s_max, full.s_max) <= 1e-14
        assert _rel(rem.q_max, full.q_max) <= 1e-14
        assert rem.removed == full.removed
        assert [r.certified for r in rem.rungs] == [r.certified for r in full.rungs]

    def test_same_newton_and_cg_counts(self, pair):
        _, (rem, sector_sols), (full, full_sols) = pair
        assert [r.newton_iterations for r in rem.rungs] == [r.newton_iterations for r in full.rungs]
        assert [s.linear_iterations for s in sector_sols] == [s.linear_iterations for s in full_sols]

    def test_gradient_norm_is_the_full_norm(self, pair):
        _, (_, sector_sols), (_, full_sols) = pair
        for a, b in zip(sector_sols, full_sols):
            # a rung's first gradient (at zero or at the previous width's
            # minimizer) lies well above roundoff
            head = max(b.residual_history[0], 1e-300)
            assert abs(a.residual_history[0] - b.residual_history[0]) <= 1e-12 * head + 1e-16

    def test_diagnostics_on_the_whole_mesh(self, pair):
        _, (rem, _), (full, _) = pair
        a, b = rem.solution, full.solution
        fa, fb = sv.recover_fields(a), sv.recover_fields(b)
        assert fa.speed.shape == fb.speed.shape == (b.problem.mesh.n_triangles,)
        for name in ("density", "speed", "mach", "velocity"):
            assert np.max(np.abs(getattr(fa, name) - getattr(fb, name))) <= 1e-13
        assert np.max(np.abs(a.state.s - b.state.s)) <= 1e-13
        for ra, rb in zip(sv.weak_residuals(a), sv.weak_residuals(b)):
            assert abs(ra - rb) <= 1e-12
        assert _rel(sv.boundary_flux(a), sv.boundary_flux(b)) <= 1e-13
        assert np.allclose(sv.decay_report(a).ring_maxima, sv.decay_report(b).ring_maxima, rtol=1e-8, atol=1e-15)
        assert abs(sv.background_gradient_error(a) - sv.background_gradient_error(b)) <= 1e-13


@pytest.mark.parametrize("case", ["circle", "wavy36"])
def test_derivatives_at_an_invariant_iterate(case, monkeypatch):
    # the sector's energy, gradient norm and Hessian are the full ones at
    # the same field; the far-field gauge gets a large value so that its
    # weight in the norm shows
    body, r_out, h, k1, k2 = CASES[case]
    gas = GasModel(2.0, 0.05)
    bg = RadialBackground(gas, k1, k2)
    sector = sv.FlowProblem(gas, bg, build_annulus_mesh(body, r_out, h))
    monkeypatch.setattr(meshing, "detect_rotation", _no_rotation)
    full = sv.FlowProblem(gas, bg, build_annulus_mesh(body, r_out, h))
    # full unknown i takes the value of orbit unknown j when they share a node
    to_full = ((full.restriction.T @ sector.restriction) > 0).astype(float)
    rng = np.random.default_rng(4)
    u = 0.05 * rng.standard_normal(sector.n_reduced)
    u[-1] = 0.5
    u_f = to_full @ u
    assert np.array_equal(full.full_vector(u_f), sector.full_vector(u))
    assert _rel(sector.energy(u), full.energy(u_f)) <= 1e-12
    g_s, g_f = sector.gradient(u), full.gradient(u_f)
    assert np.max(np.abs(to_full.T @ g_f - g_s)) <= 1e-12 * np.max(np.abs(g_s))
    assert _rel(sector.reduction.norm(g_s), np.linalg.norm(g_f)) <= 1e-12
    h_s = sector.hessian(u).toarray()
    h_f = (to_full.T @ full.hessian(u_f) @ to_full).toarray()
    assert np.max(np.abs(h_s - h_f)) <= 1e-12 * np.max(np.abs(h_f))


class TestWholeView:
    def test_no_view_without_rotation(self):
        mesh = build_annulus_mesh(WAVY, 16.0, 0.3)
        assert mesh.rotation.k == 1
        rem = ct.solve_with_truncation_removal(RadialBackground(GasModel(2.0, 0.1), 0.3, 0.2), mesh)
        sol = rem.solution
        sv.recover_fields(sol)
        sv.weak_residuals(sol)
        sv.boundary_flux(sol)
        pr = sol.problem
        assert pr.whole is pr
        assert pr.cells is mesh
        assert "_whole" not in vars(pr)
        # the diagnostics add the one cached state and nothing else
        assert set(vars(sol)) == {f.name for f in fields(sv.FlowSolution)} | {"state"}
        assert set(vars(rem)) == {f.name for f in fields(ct.RemovalResult)}

    def test_view_built_once_per_gas(self):
        mesh = build_annulus_mesh(WAVY, 16.0, 0.21)
        gas = GasModel(2.0, 0.1)
        pr = sv.FlowProblem(gas, RadialBackground(gas, 0.3, 0.2), mesh)
        assert pr.cells is mesh.reduction.sector
        assert pr.g0.shape == (mesh.n_triangles // 3, 2)
        whole = pr.whole
        assert whole is pr.whole
        assert whole.cells is mesh and whole.whole is whole
        assert whole.reduction is pr.reduction
        assert whole.restriction is pr.restriction
        assert whole.g0.shape == (mesh.n_triangles, 2)
        for name in ("gas", "background", "dirichlet", "mesh"):
            assert getattr(whole, name) is getattr(pr, name)
        other = pr.with_gas(GasModel(2.0, 0.05))
        assert other.whole is not whole
        assert other.whole.gas is other.gas

    def test_one_reduction_per_mesh(self, monkeypatch):
        # the whole view reuses the solve's unknowns and builds none
        built = []
        real = meshing.Reduction

        def counting(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(meshing, "Reduction", counting)
        mesh = build_annulus_mesh(WAVY, 16.0, 0.21)
        rem = ct.solve_with_truncation_removal(RadialBackground(GasModel(2.0, 0.1), 0.3, 0.2), mesh)
        sol = rem.solution
        sv.recover_fields(sol)
        sv.weak_residuals(sol)
        assert mesh.rotation.k == 3
        assert sol.problem.whole is not sol.problem
        assert built == [mesh.reduction]

    def test_whole_view_energy_and_gradient(self):
        # the same unknowns summed over every triangle instead of one per orbit
        mesh = build_annulus_mesh(WAVY, 16.0, 0.21)
        gas = GasModel(2.0, 0.05)
        pr = sv.FlowProblem(gas, RadialBackground(gas, 0.3, 0.2), mesh)
        u = 0.05 * np.random.default_rng(6).standard_normal(pr.n_reduced)
        assert _rel(pr.whole.energy(u), pr.energy(u)) <= 1e-13
        g, g_whole = pr.gradient(u), pr.whole.gradient(u)
        assert np.max(np.abs(g_whole - g)) <= 1e-13 * np.max(np.abs(g))


def test_no_spatial_index_imported():
    code = (
        "import sys, spiralflow.cli\n"
        "from spiralflow import continuation as ct\n"
        "from spiralflow.gas import GasModel\n"
        "from spiralflow.meshing import Circle, build_annulus_mesh\n"
        "from spiralflow.radial import RadialBackground\n"
        "mesh = build_annulus_mesh(Circle(1.0), 8.0, 0.25)\n"
        "rem = ct.solve_with_truncation_removal(RadialBackground(GasModel(2.0, 0.1), 0.3, 0.2), mesh)\n"
        "assert mesh.rotation.k > 1 and rem.removed\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
