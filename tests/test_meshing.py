"""Mesh generator and VTK writer tests: topology, quality, determinism."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from spiralflow.errors import DomainError, MeshQualityError
from spiralflow.meshing import (
    MIN_ANGLE_DEG,
    Circle,
    PerturbedCircle,
    TriangleMesh,
    build_annulus_mesh,
    mesh_quality_report,
)
from spiralflow.vtkio import write_vtk

from renumbering import renumbered


@pytest.fixture(scope="module")
def circle_mesh():
    return build_annulus_mesh(Circle(1.0), outer_radius=20.0, target_h=0.25)


@pytest.fixture(scope="module")
def wavy_mesh():
    return build_annulus_mesh(
        PerturbedCircle(1.2, 0.1, 3), outer_radius=20.0, target_h=0.2
    )


@pytest.fixture(scope="module")
def lopsided_mesh():
    # a mode-1 ripple has no rotation symmetry, so its mesh stays k = 1
    return build_annulus_mesh(
        PerturbedCircle(1.2, 0.1, 1), outer_radius=20.0, target_h=0.2
    )


class TestBodies:
    def test_circle_radius(self):
        c = Circle(2.0)
        assert np.all(c.boundary_radius(np.linspace(0, 6, 7)) == 2.0)
        assert c.max_radius() == 2.0

    def test_perturbed_radius(self):
        b = PerturbedCircle(1.2, 0.1, 3)
        theta = np.linspace(0.0, 2 * np.pi, 13)
        assert b.boundary_radius(theta) == pytest.approx(1.2 + 0.1 * np.cos(3 * theta))
        assert b.max_radius() == pytest.approx(1.3)
        assert b.mean_radius() == 1.2

    def test_bodies_must_enclose_unit_disk(self):
        with pytest.raises(DomainError):
            Circle(0.5)
        with pytest.raises(DomainError):
            PerturbedCircle(1.0, 0.1, 3)  # dips inside the unit circle
        with pytest.raises(DomainError):
            PerturbedCircle(1.2, 0.2, 3)  # touches it
        PerturbedCircle(1.0, 0.0, 3)  # degenerate but legal: the unit circle

    def test_perturbation_validation(self):
        with pytest.raises(DomainError):
            PerturbedCircle(1.5, -0.1, 3)
        with pytest.raises(DomainError):
            PerturbedCircle(1.5, 0.1, 0)


class TestTopology:
    def test_counts(self, circle_mesh):
        m = circle_mesh
        n_cols = m.body_nodes.size
        n_rings = m.n_points // n_cols
        assert m.n_points == n_rings * n_cols
        assert m.n_triangles == 2 * (n_rings - 1) * n_cols

    def test_euler_characteristic_is_zero(self, circle_mesh, wavy_mesh):
        # annulus: V - E + F_tri = 0 once the outer face is dropped
        assert circle_mesh.euler_characteristic() == 0
        assert wavy_mesh.euler_characteristic() == 0

    def test_watertight(self, circle_mesh):
        edges, counts = circle_mesh.edges(return_counts=True)
        assert set(np.unique(counts)) == {1, 2}
        # boundary edges: one ring of segments on each boundary
        assert int(np.sum(counts == 1)) == 2 * circle_mesh.body_nodes.size

    def test_orientation_ccw(self, circle_mesh, wavy_mesh):
        assert np.all(circle_mesh.areas > 0.0)
        assert np.all(wavy_mesh.areas > 0.0)

    def test_body_edges_form_closed_cycle(self, circle_mesh):
        be = circle_mesh.body_edge_list()
        n_cols = circle_mesh.body_nodes.size
        assert len(be) == n_cols
        assert np.array_equal(np.sort(be[:, 0]), np.arange(n_cols))
        assert set(be[:, 1]) == set(be[:, 0])

    def test_refinement_quadruples_triangles(self):
        coarse = build_annulus_mesh(Circle(1.0), 16.0, 0.4)
        fine = build_annulus_mesh(Circle(1.0), 16.0, 0.2)
        ratio = fine.n_triangles / coarse.n_triangles
        assert 3.5 <= ratio <= 4.5


class TestGeometry:
    def test_boundary_placement(self, wavy_mesh):
        body = PerturbedCircle(1.2, 0.1, 3)
        pts = wavy_mesh.points[wavy_mesh.body_nodes]
        r = np.hypot(pts[:, 0], pts[:, 1])
        expect = body.boundary_radius(wavy_mesh.body_theta)
        assert np.max(np.abs(r - expect)) <= 1e-12
        assert np.min(r) >= 1.1 - 1e-12  # body encloses the unit disk with margin
        outer = wavy_mesh.points[wavy_mesh.outer_nodes]
        assert np.max(np.abs(np.hypot(outer[:, 0], outer[:, 1]) - 20.0)) <= 1e-12 * 20

    def test_target_spacing_near_body(self, circle_mesh):
        be = circle_mesh.body_edge_list()
        pts = circle_mesh.points
        lens = np.linalg.norm(pts[be[:, 0]] - pts[be[:, 1]], axis=1)
        assert np.max(lens) <= 0.25  # chord below arc target

    def test_grading_is_geometric(self, circle_mesh):
        m = circle_mesh
        col0 = m.points[:: m.body_nodes.size]  # ring radii along theta = 0
        r = np.hypot(col0[:, 0], col0[:, 1])
        ratios = r[1:] / r[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    def test_quality(self, circle_mesh, wavy_mesh):
        assert circle_mesh.min_angle_deg() >= 20.0
        assert wavy_mesh.min_angle_deg() >= 20.0

    def test_area_covers_annulus(self, circle_mesh):
        # total triangle area approaches pi (R^2 - 1) from below
        exact = np.pi * (20.0**2 - 1.0)
        total = float(np.sum(circle_mesh.areas))
        assert 0.97 * exact < total < exact

    def test_sharp_body_rejected(self):
        with pytest.raises(MeshQualityError):
            build_annulus_mesh(
                PerturbedCircle(1.6, 0.55, 12), outer_radius=20.0, target_h=0.2
            )

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            build_annulus_mesh(Circle(1.0), outer_radius=3.9, target_h=0.1)
        with pytest.raises(DomainError):
            build_annulus_mesh(Circle(1.0), outer_radius=10.0, target_h=0.0)


class TestColumnRule:
    """The column count is the arc-length count rounded up to a multiple of
    the body's rotation order, so a k-fold rippled body's grid is k-fold
    invariant."""

    @pytest.mark.parametrize("mode", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("h", [0.3, 0.17, 0.1, 0.05])
    def test_multiple_of_mode(self, mode, h):
        body = PerturbedCircle(1.2, 0.1, mode)
        assert body.rotation_order() == mode
        mesh = build_annulus_mesh(body, outer_radius=8.0, target_h=h)
        arc = math.ceil(2.0 * math.pi * 1.2 / h)
        n_cols = mesh.body_nodes.size
        assert n_cols % mode == 0
        assert 0 <= n_cols - arc < mode
        assert mesh.rotation.k == mode
        assert mesh.min_angle_deg() >= MIN_ANGLE_DEG

    @pytest.mark.parametrize("radius, h", [(1.0, 0.25), (1.0, 0.1), (1.3, 0.07), (2.0, 0.05)])
    def test_circle_columns_unchanged(self, radius, h):
        assert Circle(radius).rotation_order() == 1
        mesh = build_annulus_mesh(Circle(radius), outer_radius=8.0 * radius, target_h=h)
        n_cols = mesh.body_nodes.size
        assert n_cols == max(8, math.ceil(2.0 * math.pi * radius / h))
        assert mesh.rotation.k == n_cols


class TestAssembly:
    def test_fixed_pattern_matches_triple_product(self, lopsided_mesh):
        # oracle: full COO assembly, then restriction^T K restriction, on a
        # permuted numbering so the pattern is not banded
        mesh = renumbered(lopsided_mesh, 14)
        assert mesh.rotation.k == 1
        red = mesh.reduction
        x = np.random.default_rng(15).standard_normal((mesh.n_triangles, 2, 2))
        t = mesh.triangles
        rows, cols = np.repeat(t, 3, axis=1).ravel(), np.tile(t, 3).ravel()
        for coef in (np.broadcast_to(np.eye(2), x.shape), x @ x.transpose(0, 2, 1)):
            k_loc = mesh.local_stiffness(coef)
            full = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(mesh.n_points,) * 2)
            expect = (red.restriction.T @ full.tocsr() @ red.restriction).toarray()
            got = red.assemble(k_loc)
            assert got.has_canonical_format
            assert np.max(np.abs(got.toarray() - expect)) <= 1e-14 * np.max(np.abs(expect))

    @pytest.mark.parametrize("name", ["circle_mesh", "wavy_mesh"])
    def test_hat_norms_bit_identical_to_stiffness_diagonal(self, name, request):
        # the weak residuals in report.json divide by these norms
        mesh = request.getfixturevalue(name)
        eye = np.broadcast_to(np.eye(2), (mesh.n_triangles, 2, 2))
        diag = np.diagonal(mesh.local_stiffness(eye), axis1=1, axis2=2)
        expect = np.sqrt(
            np.bincount(mesh.triangles.ravel(), weights=diag.ravel(), minlength=mesh.n_points)
        )
        assert np.array_equal(mesh.hat_norms, expect)


class TestQualityReport:
    def test_equilateral_triangle(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        tri = TriangleMesh(
            pts, np.array([[0, 1, 2]]), body_nodes=[], outer_nodes=[]
        )
        rep = mesh_quality_report(tri)
        assert rep.min_angle_deg == pytest.approx(60.0, abs=1e-10)
        assert rep.max_aspect == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-12)
        assert (rep.n_points, rep.n_edges, rep.n_triangles) == (3, 3, 1)

    def test_counts_match_euler_inputs(self, circle_mesh):
        rep = mesh_quality_report(circle_mesh)
        assert rep.n_points - rep.n_edges + rep.n_triangles == 0
        assert rep.min_angle_deg >= 20.0
        assert rep.max_aspect < 3.0  # shape-regular by construction


class TestDeterminism:
    def test_rebuild_identical(self):
        m1 = build_annulus_mesh(PerturbedCircle(1.2, 0.1, 3), 20.0, 0.2)
        m2 = build_annulus_mesh(PerturbedCircle(1.2, 0.1, 3), 20.0, 0.2)
        assert m1.points.tobytes() == m2.points.tobytes()
        assert m1.triangles.tobytes() == m2.triangles.tobytes()


class TestVtk:
    def test_roundtrip_structure(self, tmp_path, circle_mesh):
        m = circle_mesh
        path = tmp_path / "out.vtk"
        write_vtk(
            path,
            m,
            point_data={"height": m.points[:, 0]},
            cell_data={"area": m.areas, "grad": np.zeros((m.n_triangles, 2))},
        )
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "DATASET UNSTRUCTURED_GRID" in lines
        assert f"POINTS {m.n_points} double" in lines
        assert f"CELLS {m.n_triangles} {4 * m.n_triangles}" in lines
        i = lines.index(f"CELL_TYPES {m.n_triangles}")
        assert lines[i + 1] == "5"
        assert f"POINT_DATA {m.n_points}" in lines
        assert "SCALARS height double 1" in lines
        assert "VECTORS grad double" in lines
        # every point line carries a zero third coordinate
        first_pt = lines[lines.index(f"POINTS {m.n_points} double") + 1]
        assert first_pt.split()[2] == "0"

    def test_byte_identical_rewrites(self, tmp_path, circle_mesh):
        p1 = tmp_path / "a.vtk"
        p2 = tmp_path / "b.vtk"
        write_vtk(p1, circle_mesh, point_data={"f": np.sin(circle_mesh.points[:, 1])})
        write_vtk(p2, circle_mesh, point_data={"f": np.sin(circle_mesh.points[:, 1])})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_match_per_value_formatting(self, tmp_path, circle_mesh):
        # blocks are formatted in one call each; every value must still
        # read as "%.17g" of itself, non-finite and signed zeros included
        m = circle_mesh
        cell = np.linspace(-1.0, 1.0, m.n_triangles)
        cell[:4] = [np.nan, np.inf, -np.inf, -0.0]
        vec = np.stack([cell, 1e-300 * cell], axis=1)
        point = 1e20 * np.sin(m.points[:, 0])
        path = tmp_path / "f.vtk"
        write_vtk(path, m, point_data={"p": point}, cell_data={"c": cell, "v": vec}, title="t")

        def f(x):
            return "%.17g" % float(x)

        lines = ["# vtk DataFile Version 3.0", "t", "ASCII", "DATASET UNSTRUCTURED_GRID"]
        lines += [f"POINTS {m.n_points} double"] + [f"{f(x)} {f(y)} 0" for x, y in m.points]
        lines += [f"CELLS {m.n_triangles} {4 * m.n_triangles}"]
        lines += [f"3 {a} {b} {c}" for a, b, c in m.triangles]
        lines += [f"CELL_TYPES {m.n_triangles}"] + ["5"] * m.n_triangles
        lines += [f"POINT_DATA {m.n_points}", "SCALARS p double 1", "LOOKUP_TABLE default"]
        lines += [f(x) for x in point]
        lines += [f"CELL_DATA {m.n_triangles}", "SCALARS c double 1", "LOOKUP_TABLE default"]
        lines += [f(x) for x in cell]
        lines += ["VECTORS v double"] + [f"{f(x)} {f(y)} 0" for x, y in vec]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_size_mismatch_rejected(self, tmp_path, circle_mesh):
        with pytest.raises(ValueError):
            write_vtk(tmp_path / "bad.vtk", circle_mesh, point_data={"f": np.ones(3)})
        assert not (tmp_path / "bad.vtk").exists()
