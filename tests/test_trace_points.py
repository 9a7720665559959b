"""The benchmark's trace points stay where its tracer wraps them.

bench/tracer.py replaces class attributes and module globals by name and
skips a name it no longer finds, so a rename or a flux law evaluated
outside GasModel.flux_eval would quietly empty or skew a per-layer
metric (gas.flux_eval_s, solver.energy_evals, solver.backtracks) rather
than fail.  Likewise a mesh that bench/workloads.py renumbers and that
lost its rotation symmetry would leave the orbit path and slow every
workload rather than fail.  These checks make such a change fail here
instead.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from spiralflow import cli, config, radial, vtkio
from spiralflow import continuation as ct
from spiralflow import gas, meshing
from spiralflow import solver as sv
from spiralflow.meshing import Circle, PerturbedCircle, build_annulus_mesh
from spiralflow.radial import RadialBackground


@pytest.mark.parametrize(
    "cls, attr",
    [
        (gas.GasModel, "__init__"),
        (gas.GasModel, "flux_eval"),
        (gas.GasModel, "coefficient_matrix"),
        (sv.FlowProblem, "__init__"),
        (sv.FlowProblem, "energy"),
        (sv.FlowProblem, "gradient"),
        (sv.FlowProblem, "hessian"),
    ],
)
def test_method_defined_on_its_class(cls, attr):
    # the tracer wraps cls.__dict__[attr]; an inherited or renamed method is skipped
    assert callable(cls.__dict__.get(attr))


def test_solver_module_globals():
    assert callable(sv.solve)
    assert ct.solve is sv.solve  # the removal reaches it through this alias
    # SuperLU is reached as solver.spla.splu, which the tracer counts
    assert sv.spla is scipy.sparse.linalg


def _bench(name):
    """bench/<name>.py as the benchmark runs it, loaded from this checkout."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_installs_and_restores():
    """install() looks up every name it wraps without a default, so a
    deleted name (meshing.mesh_quality_report is one that only the tests
    and the tracer use) fails the traced benchmark; the traced run takes
    a Newton step, so SuperLU goes through the tracer's handle; uninstall()
    puts back every attribute it replaced."""
    owners = (cli, config, ct, gas, meshing, radial, sv, vtkio)
    owners += (gas.GasModel, radial.RadialBackground, sv.FlowProblem)
    before = [(owner, dict(vars(owner))) for owner in owners]
    tracer = _bench("tracer").Tracer()
    tracer.install()
    try:
        patched = [(owner, attr) for owner, attr, _ in tracer._undo]
        mesh = build_annulus_mesh(PerturbedCircle(1.2, 0.1, 3), 16.0, 0.3)
        bg = RadialBackground(gas.GasModel(2.0, 0.1), 0.3, 0.2)
        rem = ct.solve_with_truncation_removal(bg, mesh, schedule=(0.21, 0.11))
    finally:
        tracer.uninstall()
    assert sum(rung.newton_iterations for rung in rem.rungs) >= 1
    assert (meshing, "mesh_quality_report") in patched and (sv, "spla") in patched
    names = {span.name for span in tracer.spans}
    assert {"solver.solve", "solver.gradient", "gas.flux_eval"} <= names
    # the traced splu takes the matrix alone: a keyword added to the
    # solver's spla.splu call would fail here, not only in the benchmark
    assert {"solver.splu", "solver.lu_solve"} <= names
    for owner, attrs in before:
        now = vars(owner)
        assert set(now) == set(attrs), owner
        assert all(now[name] is value for name, value in attrs.items()), owner


def test_flux_law_work_goes_through_flux_eval(monkeypatch):
    """Every series evaluation of F and every root solve of the density
    in a removal and its diagnostics happen inside flux_eval or, for the
    cache build, inside GasModel.__init__."""
    _check_flux_law_work(monkeypatch, 0.3, 1)


def test_flux_law_work_on_a_sector_goes_through_flux_eval(monkeypatch):
    # h = 0.21 gives 36 columns: the mesh is 3-fold invariant and solved on a sector
    _check_flux_law_work(monkeypatch, 0.21, 3)


def _check_flux_law_work(monkeypatch, h, k):
    inside, outside = [], []
    real = {name: gas.GasModel.__dict__[name] for name in ("__init__", "flux_eval")}

    def within(name):
        def method(self, *args, **kwargs):
            inside.append(name)
            try:
                return real[name](self, *args, **kwargs)
            finally:
                inside.pop()

        return method

    def watched(label, fn):
        def call(*args, **kwargs):
            if not inside:
                outside.append(label)
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(gas.GasModel, "__init__", within("__init__"))
    monkeypatch.setattr(gas.GasModel, "flux_eval", within("flux_eval"))
    monkeypatch.setattr(gas, "piecewise_chebval", watched("chebval", gas.piecewise_chebval))
    monkeypatch.setattr(gas, "_mass_flux_density_raw", watched("root", gas._mass_flux_density_raw))
    coefficient_calls = []
    real_coefficient = gas.GasModel.coefficient_matrix

    def coefficient_matrix(self, *args, **kwargs):
        coefficient_calls.append(1)
        return real_coefficient(self, *args, **kwargs)

    monkeypatch.setattr(gas.GasModel, "coefficient_matrix", coefficient_matrix)

    # a mode-k ripple: mode 1 has no symmetry and solves on the whole mesh
    mesh = build_annulus_mesh(PerturbedCircle(1.2, 0.1, k), 16.0, h)
    assert mesh.rotation.k == k
    bg = RadialBackground(gas.GasModel(1.7, 0.1), 0.3, 0.2)
    rem = ct.solve_with_truncation_removal(bg, mesh, schedule=(0.21, 0.11))
    sol = rem.solution
    sv.recover_fields(sol)
    sv.weak_residuals(sol)
    sv.weak_residuals(sol, include_background=True)
    sv.boundary_flux(sol)
    assert sum(r.newton_iterations for r in rem.rungs) >= 1
    assert outside == []
    # the Hessian's coefficient goes through the traced coefficient_matrix
    assert len(coefficient_calls) == sum(r.newton_iterations for r in rem.rungs)
    assert np.isfinite(sol.q_max)


@pytest.mark.parametrize("h, k", [(0.3, 1), (0.21, 3)])
def test_newton_work_goes_through_traced_methods(monkeypatch, h, k):
    """The per-triangle energy, gradient and Hessian work of a removal,
    on a sector as on the whole mesh, runs inside the FlowProblem methods
    the tracer wraps: one gradient per iterate and one Hessian per step."""
    # a mode-k ripple: mode 1 has no symmetry and solves on the whole mesh
    mesh = build_annulus_mesh(PerturbedCircle(1.2, 0.1, k), 16.0, h)
    assert mesh.rotation.k == k
    mesh.reduction  # the Laplacian is built before watching
    entered, context, work = [], [], []

    def entering(name, real):
        def method(self, *args, **kwargs):
            entered.append(name)
            context.append(name)
            try:
                return real(self, *args, **kwargs)
            finally:
                context.pop()

        return method

    for name in ("energy", "gradient", "hessian"):
        monkeypatch.setattr(sv.FlowProblem, name, entering(name, getattr(sv.FlowProblem, name)))

    def watched(module):
        real = module.check_finite

        def check_finite(contrib, what):
            work.append((what, context[-1] if context else None))
            return real(contrib, what)

        return check_finite

    monkeypatch.setattr(sv, "check_finite", watched(sv))
    monkeypatch.setattr(meshing, "check_finite", watched(meshing))
    rem = ct.solve_with_truncation_removal(
        RadialBackground(gas.GasModel(1.7, 0.1), 0.3, 0.2), mesh, schedule=(0.21, 0.11)
    )
    steps = sum(r.newton_iterations for r in rem.rungs)
    assert steps >= 1
    owner = {"energy": "energy", "gradient": "gradient", "stiffness": "hessian"}
    assert work and all(ctx == owner[what] for what, ctx in work)
    assert entered.count("gradient") == steps + len(rem.rungs)
    assert entered.count("hessian") == steps
    assert entered.count("energy") >= steps + len(rem.rungs)


def test_bench_meshes_stay_on_the_orbit_path():
    """The benchmark's renumbered meshes keep the mesh's rotation symmetry:
    3-fold on the wavy body, one turn per body node on the circle."""
    workloads = _bench("workloads")
    for h in workloads.WavyRefine.spacings["full"]:
        mesh = build_annulus_mesh(PerturbedCircle(1.2, 0.1, 3), 16.0, h)
        assert workloads.renumbered(mesh, 1).rotation.k == 3
    mesh = build_annulus_mesh(Circle(1.0), 20.0, workloads.CircleCritical.spacings["full"])
    assert workloads.renumbered(mesh, 1).rotation.k == mesh.body_nodes.size
