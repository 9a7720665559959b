"""End-to-end acceptance gates for the whole pipeline.

Each test covers one numbered gate, measures everything it needs, and
funnels the result into a single PASS/FAIL line (printed again as a
scoreboard after the run).  Tolerances live in the assertions here and
nowhere else, so a regression shows up as a changed number on the line
rather than a silent tolerance drift.

Gate 3 is expected to fail as stated and is marked strict-xfail: the
three-fold body it prescribes cannot excite the slowly decaying angular
mode its slope window presumes.  The companion evidence test pins the
blame on the body symmetry, not the solver.
"""

import time

import numpy as np
import pytest

from spiralflow import continuation as ct
from spiralflow import solver as sv
from spiralflow.gas import GasModel
from spiralflow.meshing import Circle, PerturbedCircle, build_annulus_mesh
from spiralflow.radial import RadialBackground

SEED = 20260823


@pytest.fixture(scope="module")
def circle_mesh_mid():
    return build_annulus_mesh(Circle(1.0), 20.0, 0.1)


@pytest.fixture(scope="module")
def circle_mesh_fine():
    return build_annulus_mesh(Circle(1.0), 20.0, 0.05)


@pytest.fixture(scope="module")
def wavy_body():
    return PerturbedCircle(1.2, 0.1, 3)


@pytest.fixture(scope="module")
def wavy_problem_small(wavy_body):
    gas = GasModel(2.0, 0.05)
    bg = RadialBackground(gas, 0.3, 0.2)
    return sv.FlowProblem(gas, bg, build_annulus_mesh(wavy_body, 16.0, 0.3))


def test_gate01_radial_background_reproduced_on_circle(
    circle_mesh_mid, circle_mesh_fine, verdict
):
    # on a circular body the correction vanishes, so the recovered
    # gradient against the radial closed form measures pure consistency
    gas = GasModel(2.0, 0.1)
    bg = RadialBackground(gas, 0.3, 0.2)
    errs, walls = {}, {}
    for h, mesh in ((0.1, circle_mesh_mid), (0.05, circle_mesh_fine)):
        t0 = time.perf_counter()
        sol = sv.solve(sv.FlowProblem(gas, bg, mesh))
        walls[h] = time.perf_counter() - t0
        errs[h] = sv.background_gradient_error(sol)
    order = float(np.log2(errs[0.1] / errs[0.05]))
    slowest = max(walls.values())
    ok = errs[0.1] <= 0.05 and order >= 0.9 and slowest <= 60.0
    verdict(
        "gate 1",
        ok,
        f"gradient rel err {errs[0.1]:.4f} at h=0.1 (cap 0.05), "
        f"refinement order {order:.3f} (floor 0.9), "
        f"slowest solve {slowest:.2f}s (cap 60)",
    )


def test_gate02_critical_swirl_bracket_on_circle(circle_mesh_fine, verdict):
    # at kappa1 = 0.6 the body state reaches sonic at swirl 0.8
    # (0.36 + 0.64 = 1), so the bracket has to straddle that value
    t0 = time.perf_counter()
    res = ct.find_critical_parameter(
        2.0,
        0.6,
        0.0,
        "kappa2",
        0.4,
        0.9,
        circle_mesh_fine,
        n_grid=11,
        tol=0.02,
        schedule=ct.deepened_schedule(circle_mesh_fine, 2.0, 0.6, 0.794),
    )
    wall = time.perf_counter() - t0
    ok = res.lo <= 0.8 <= res.hi and res.width <= 0.02 and wall <= 900.0
    verdict(
        "gate 2",
        ok,
        f"bracket [{res.lo:.4f}, {res.hi:.4f}] for target 0.8, "
        f"width {res.width:.4f} (cap 0.02), {len(res.evaluations)} removals, "
        f"{wall:.1f}s (cap 900)",
    )


def _ring_slopes(body, gas, kappa1, kappa2):
    slopes = {}
    for R in (32.0, 64.0):
        bg = RadialBackground(gas, kappa1, kappa2)
        sol = sv.solve(sv.FlowProblem(gas, bg, build_annulus_mesh(body, R, 0.2)))
        slopes[R] = sv.decay_report(sol).slope
    return slopes


@pytest.mark.xfail(
    strict=True,
    reason="the three-fold body symmetry kills every angular mode below m=3, "
    "so the correction decays like r**-4; the [-2.4, -1.6] window presumes "
    "an m=1 mode this body cannot excite",
)
def test_gate03_correction_decay_exponent(wavy_body, verdict):
    slopes = _ring_slopes(wavy_body, GasModel(2.0, 0.05), 0.3, 0.2)
    drift = abs(slopes[64.0] - slopes[32.0])
    ok = -2.4 <= slopes[32.0] <= -1.6 and drift <= 0.2
    verdict(
        "gate 3",
        ok,
        f"ring-decay slope {slopes[32.0]:.3f} (window [-2.4, -1.6]), "
        f"slope drift {drift:.3f} under domain doubling (cap 0.2)",
    )


def test_gate03_decay_exponent_symmetry_evidence(wavy_body, verdict):
    # same solver, same amplitude: slope tracks -(k + 1), and the k=1
    # ripple lands inside the window, pinning the gate 3 failure on the
    # prescribed body symmetry rather than the discretization
    gas = GasModel(2.0, 0.05)
    s3 = _ring_slopes(wavy_body, gas, 0.3, 0.2)
    s1 = _ring_slopes(PerturbedCircle(1.2, 0.1, 1), gas, 0.3, 0.2)
    ok = (
        abs(s3[32.0] + 4.0) <= 0.5
        and abs(s3[64.0] - s3[32.0]) <= 0.2
        and -2.4 <= s1[32.0] <= -1.6
        and abs(s1[64.0] - s1[32.0]) <= 0.2
    )
    verdict(
        "gate 3 evidence",
        ok,
        f"k=3 slope {s3[32.0]:.3f} ~ -4 with drift {abs(s3[64.0] - s3[32.0]):.3f}, "
        f"k=1 slope {s1[32.0]:.3f} inside [-2.4, -1.6] "
        f"with drift {abs(s1[64.0] - s1[32.0]):.3f}",
    )


def test_gate04_mach_integration_matches_algebra(verdict):
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        while True:
            k1 = rng.uniform(0.05, 0.9)
            k2 = rng.uniform(-0.9, 0.9)
            if k1 * k1 + k2 * k2 < 0.9:
                break
        bg = RadialBackground(GasModel(2.0, 0.05), k1, k2)
        r, _, _, msq = bg.integrate_mach(r_max=50.0)
        idx = np.linspace(0, len(r) - 1, 500).astype(int)
        rr = r[idx]
        rho = bg.density(rr)
        alg = (
            (bg.source_strength / (rr * rho)) ** 2 + (bg.kappa2 / rr) ** 2
        ) / rho ** (bg.gamma - 1.0)
        worst = max(worst, float(np.max(np.abs(msq[idx] - alg) / alg)))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-6 and wall <= 5.0
    verdict(
        "gate 4",
        ok,
        f"worst rel mismatch {worst:.3e} over 5 draws x 500 radii (cap 1e-6), "
        f"{wall:.2f}s (cap 5)",
    )


def test_gate05_midpoint_convexity_on_random_pairs(wavy_problem_small, verdict):
    rng = np.random.default_rng(SEED)
    n = wavy_problem_small.n_reduced
    slack = np.inf
    for _ in range(100):
        a = 0.3 * rng.standard_normal(n)
        b = 0.3 * rng.standard_normal(n)
        gap, bound = sv.convexity_gap(wavy_problem_small, a, b)
        slack = min(slack, gap - bound)
    ok = slack >= -1e-10
    verdict(
        "gate 5",
        ok,
        f"smallest midpoint slack {slack:.3e} over 100 pairs (floor -1e-10)",
    )


def test_gate06_derivatives_match_finite_differences(wavy_problem_small, verdict):
    rng = np.random.default_rng(SEED)
    n = wavy_problem_small.n_reduced
    worst_g = worst_h = 0.0
    for _ in range(20):
        u = 0.05 * rng.standard_normal(n)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        h = 1e-6
        fd = (
            wavy_problem_small.energy(u + h * v) - wavy_problem_small.energy(u - h * v)
        ) / (2 * h)
        an = float(wavy_problem_small.gradient(u) @ v)
        worst_g = max(worst_g, abs(fd - an) / (1 + abs(an)))
        fd_h = (
            wavy_problem_small.gradient(u + h * v)
            - wavy_problem_small.gradient(u - h * v)
        ) / (2 * h)
        an_h = wavy_problem_small.hessian(u) @ v
        worst_h = max(
            worst_h, np.linalg.norm(fd_h - an_h) / (1 + np.linalg.norm(an_h))
        )
    ok = worst_g <= 1e-5 and worst_h <= 1e-4
    verdict(
        "gate 6",
        ok,
        f"gradient FD mismatch {worst_g:.3e} (cap 1e-5), "
        f"hessian FD mismatch {worst_h:.3e} (cap 1e-4) at 20 states",
    )


def test_gate07_truncation_level_insensitivity(wavy_body, verdict):
    # two consecutive truncation levels, both certified untouched: the
    # minimizers must coincide to solver accuracy in the energy norm
    mesh = build_annulus_mesh(wavy_body, 16.0, 0.1)
    bg = RadialBackground(GasModel(2.0, 0.1), 0.3, 0.2)
    levels = (0.2, 0.1)
    sols = [
        sv.solve(sv.FlowProblem(GasModel(2.0, eps), bg, mesh, newton_tol=1e-11))
        for eps in levels
    ]
    certified = [
        s.s_max < 1.0 - 2.0 * eps for s, eps in zip(sols, levels)
    ]
    p = sols[0].problem
    diff = p.restriction @ (sols[0].u_reduced - sols[1].u_reduced)
    agree = float(np.sqrt(p.dirichlet_seminorm_sq(diff)))
    ok = all(certified) and agree <= 1e-7
    verdict(
        "gate 7",
        ok,
        f"levels {levels} both certified={all(certified)}, "
        f"energy-norm gap {agree:.3e} (cap 1e-7)",
    )


def test_gate08_choking_ladder(circle_mesh_mid, circle_mesh_fine, verdict):
    finals, deltas, resids, rising = {}, {}, {}, {}
    for h, mesh in ((0.1, circle_mesh_mid), (0.05, circle_mesh_fine)):
        study = ct.sonic_limit_study(
            2.0,
            0.6,
            0.0,
            "kappa2",
            0.4,
            0.8,
            8,
            mesh,
            schedule=ct.deepened_schedule(mesh, 2.0, 0.6, 0.794),
        )
        q = study.q_max_sequence()
        finals[h] = float(q[-1])
        deltas[h] = max(0.0, float(q.max()) - 1.0)
        resids[h] = max(max(r.irrot_residual, r.mass_residual) for r in study.rungs)
        rising[h] = bool(np.all(np.diff(q) > 0.0))
    ok = (
        all(rising.values())
        and finals[0.05] >= 0.97
        and max(resids.values()) <= 1e-6
        and deltas[0.05] <= max(0.5 * deltas[0.1], 1e-12)
    )
    verdict(
        "gate 8",
        ok,
        f"q_max rising at both levels={all(rising.values())}, "
        f"final q_max {finals[0.05]:.4f} at h=0.05 (floor 0.97), "
        f"sonic overshoot {deltas[0.1]:.2e} -> {deltas[0.05]:.2e} under refinement, "
        f"worst weak residual {max(resids.values()):.2e} (cap 1e-6)",
    )


def test_gate09_body_flux_conservation(wavy_body, verdict):
    gas = GasModel(2.0, 0.1)
    bg = RadialBackground(gas, 0.3, 0.2)
    sol = sv.solve(sv.FlowProblem(gas, bg, build_annulus_mesh(wavy_body, 16.0, 0.05)))
    flux = sv.boundary_flux(sol)
    target = 2.0 * np.pi * bg.rho0 * bg.kappa1
    rel = abs(flux - target) / abs(target)
    ok = rel <= 0.02
    verdict(
        "gate 9",
        ok,
        f"body mass flux {flux:.6f} vs source {target:.6f}, "
        f"rel gap {rel:.3e} (cap 0.02) at h=0.05",
    )
