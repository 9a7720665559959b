"""The benchmark's three workloads.

Each workload has an untimed `setup` (everything the timed part reuses),
a timed `run_round` that only calls the library, and an untimed `check`
of the round's outputs.  A round is one closed-loop request: the next
starts only after the previous has returned.  See NOTES.md for why each
workload was chosen and which layer it stresses.
"""

import hashlib
import json
import shutil

import numpy as np

from spiralflow import cli, meshing
from spiralflow import continuation as ct
from spiralflow import solver as sv
from spiralflow.errors import SpiralFlowError
from spiralflow.gas import GasModel
from spiralflow.meshing import Circle, PerturbedCircle, TriangleMesh
from spiralflow.radial import RadialBackground

GAMMA = 2.0


class DeadlineExceeded(SpiralFlowError):
    """Raised into a round that runs past its run's deadline, so that the
    operation it stops counts as failed like any other SpiralFlowError."""


def renumbered(mesh, seed):
    """The same mesh with nodes and triangles in a seeded random order.

    Seed 0 keeps the mesh as built.  The renumbering leaves the discrete
    problem unchanged (tests/test_solver.py pins that invariance); it
    changes only memory order and the sparse fill of the factorization.
    """
    if seed == 0:
        return mesh
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_points)  # perm[old] = new
    inv = np.empty_like(perm)
    inv[perm] = np.arange(mesh.n_points)
    order = rng.permutation(mesh.n_triangles)
    return TriangleMesh(
        mesh.points[inv],
        perm[mesh.triangles][order],
        perm[mesh.body_nodes],
        perm[mesh.outer_nodes],
        body_theta=mesh.body_theta,
    )


def mesh_size(mesh):
    return {"nodes": int(mesh.n_points), "triangles": int(mesh.n_triangles)}


# Own copy of the mesh-calibrated final truncation level; ROADMAP open
# item 5 merges this with the copies in tests/test_acceptance.py,
# scripts/calibrate_critical_search.py and scripts/choking_ladder.py
# into one `continuation` function.
def deepened_schedule(mesh, kappa1=0.6, pivot=0.794, gamma=GAMMA):
    """Default schedule plus a final width that flips removal at the pivot swirl."""
    bg = RadialBackground(GasModel(gamma, 0.1), kappa1, pivot)
    s_peak = float(np.max(np.sum(bg.stream_gradient(mesh.centroids) ** 2, axis=-1)))
    return ct.DEFAULT_SCHEDULE + (0.5 * (1.0 - s_peak),)


class WavyRefine:
    """Removal solves on the README wavy body at two resolutions."""

    name = "wavy_refine"
    spacings = {"full": (0.05, 0.025), "tiny": (0.3, 0.2)}

    def __init__(self, size, seed, workdir):
        self.hs = self.spacings[size]
        self.seed = seed

    def setup(self):
        self.background = RadialBackground(GasModel(GAMMA, 0.1), 0.3, 0.2)
        body = PerturbedCircle(1.2, 0.1, 3)
        self.meshes = [
            (h, renumbered(meshing.build_annulus_mesh(body, 16.0, h), self.seed)) for h in self.hs
        ]

    def mesh_sizes(self):
        return {f"wavy_h{h:g}": mesh_size(m) for h, m in self.meshes}

    def run_round(self):
        """One removal solve per mesh; a SpiralFlowError counts as a failed solve."""
        out = []
        for h, mesh in self.meshes:
            try:
                rem = ct.solve_with_truncation_removal(self.background, mesh)
            except SpiralFlowError as exc:
                out.append((h, exc, None))
                continue
            sv.recover_fields(rem.solution)
            sv.weak_residuals(rem.solution)
            out.append((h, rem, sv.boundary_flux(rem.solution)))
        return out

    def check(self, out):
        attempted, failures, checks = len(out), [], {}
        target = 2.0 * np.pi * self.background.rho0 * self.background.kappa1
        for h, rem, flux in out:
            if isinstance(rem, SpiralFlowError):
                failures.append(f"h={h:g}: {type(rem).__name__}: {rem}")
                continue
            checks[f"h{h:g}_certified"] = bool(rem.removed)
            # gate 9's 2 % bound on the body mass flux 2 pi rho0 kappa1
            checks[f"h{h:g}_body_flux"] = bool(abs(flux - target) <= 0.02 * abs(target))
        return attempted, failures, checks


class CircleCritical:
    """Gate 2: bisection for the swirl where removal first fails on the circle."""

    name = "circle_critical"
    spacings = {"full": 0.05, "tiny": 0.15}

    def __init__(self, size, seed, workdir):
        self.h = self.spacings[size]
        self.seed = seed

    def setup(self):
        self.mesh = renumbered(meshing.build_annulus_mesh(Circle(1.0), 20.0, self.h), self.seed)
        self.schedule = deepened_schedule(self.mesh)

    def mesh_sizes(self):
        return {f"circle_h{self.h:g}": mesh_size(self.mesh)}

    def run_round(self):
        try:
            return ct.find_critical_parameter(
                GAMMA, 0.6, 0.0, "kappa2", 0.4, 0.9, self.mesh,
                n_grid=11, tol=0.02, schedule=self.schedule,
            )
        except SpiralFlowError as exc:
            return exc

    def check(self, res):
        if isinstance(res, SpiralFlowError):
            return 1, [f"{type(res).__name__}: {res}"], {}
        # the body state turns sonic at swirl 0.8 when kappa1 = 0.6
        return 1, [], {
            "bracket_contains_0.8": bool(res.lo <= 0.8 <= res.hi),
            "bracket_width": bool(res.width <= 0.02),
        }


class CliCircleVtk:
    """`spiralflow solve` in-process on a circle, each run into a fresh directory."""

    name = "cli_circle_vtk"
    artifacts = ("report.json", "rings.csv", "solution.vtk")
    spacings = {"full": 0.025, "tiny": 0.2}

    def __init__(self, size, seed, workdir):
        self.h = self.spacings[size]
        self.seed = seed
        self.workdir = workdir
        self.runs = 0
        self.reference = None
        self.mesh = None

    def setup(self):
        """Write the run config; the seed only shuffles its key order."""
        doc = {
            "spec_version": 1,
            "gamma": GAMMA,
            "kappa1": 0.3,
            "kappa2": 0.2,
            "body": {"kind": "circle", "a": 1.0},
            "mesh": {"h": self.h, "R_out": 20.0},
        }
        keys = list(doc)
        if self.seed != 0:
            keys = [keys[i] for i in np.random.default_rng(self.seed).permutation(len(keys))]
        self.config = self.workdir / "config.json"
        self.config.write_text(json.dumps({k: doc[k] for k in keys}, indent=1))

    def mesh_sizes(self):
        return {f"cli_circle_h{self.h:g}": self.mesh} if self.mesh else {}

    def run_round(self):
        self.runs += 1
        outdir = self.workdir / f"run-{self.runs}"
        argv = ["solve", "--config", str(self.config), "--output", str(outdir), "--quiet"]
        return outdir, cli.main(argv)

    def check(self, out):
        outdir, code = out
        try:
            if code != 0:
                return 1, [f"exit code {code}"], {}
            digests = {
                name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                for name in self.artifacts
            }
            report = json.loads((outdir / "report.json").read_text())
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        self.mesh = {"nodes": report["mesh"]["points"], "triangles": report["mesh"]["triangles"]}
        if self.reference is None:
            self.reference = digests
        return 1, [], {
            "removed": report["removed"] is True,
            "irrot_residual": report["irrot_residual"] <= 1e-8,
            "mass_residual": report["mass_residual"] <= 1e-8,
            "decay_exact_match": report["decay"]["exact_match"] is True,
            "byte_identical_rerun": digests == self.reference,
        }


WORKLOADS = {w.name: w for w in (WavyRefine, CircleCritical, CliCircleVtk)}
