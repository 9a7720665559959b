"""Finite-element minimization of the truncated flow energy.

The stream function is split as psi = psi0 + u where psi0 is the radial
background (multivalued angle part plus swirl part) and u is a
single-valued correction, piecewise linear on the triangulation.  The
discrete energy, per triangle of area A with constant total gradient
w = grad(u) + G0,

    I(u) = sum_T A [ F(|w|^2) - F(|G0|^2) - 2 F'(|G0|^2) G0 . grad(u) ]

is normalized so I(0) = 0 and the linearization at u = 0 vanishes for an
exactly radial discrete background.  F is the truncated flux potential,
so I is smooth and uniformly convex on the whole space and Newton
iteration with backtracking converges globally.

Boundary handling: on the body, u takes the (single-valued) negative of
the background swirl stream, which makes the total stream function obey
the porous-inflow condition; on the truncation circle either u = 0 is
pinned ("zero") or all outer nodes share one floating constant ("gauge").
The gauge variant lets the discrete far field pick its own additive
constant and suppresses the spurious logarithmic mode a hard pin
introduces at finite truncation radius.
"""

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ConfigError, InternalConsistencyError, NonConvergenceError
from .meshing import check_finite

#: default Newton stopping tolerance, relative to 1 + |I(u)|
NEWTON_TOL = 1e-9


def _rot(w):
    """Rotate planar vectors (a, b) -> (b, -a); maps grad(psi) to rho*velocity."""
    return np.stack([w[..., 1], -w[..., 0]], axis=-1)


def _project_outside_unit_circle(points):
    """Push sample points that dip inside r = 1 back onto the circle.

    Chord midpoints of a body ring at radius one sit O(h^2) inside the
    circle, where the background refuses to evaluate; radial projection
    perturbs the sample by that same order, so no rule loses accuracy.
    """
    r = np.linalg.norm(points, axis=-1, keepdims=True)
    return np.where(r < 1.0, points / np.maximum(r, 1e-300), points)


class FlowProblem:
    """Discretized energy for one gas model, background, and mesh.

    The P1 operators are the mesh's; the background data are built here
    and shared with every problem made from this one by with_gas.  The
    problem also carries the Newton settings solve() runs with.
    """

    def __init__(
        self,
        gas,
        background,
        mesh,
        far_field="gauge",
        newton_tol=NEWTON_TOL,
        max_iterations=50,
    ):
        if not (newton_tol > 0.0):
            raise ConfigError("newton_tol", "tolerance must be positive")
        if max_iterations < 1:
            raise ConfigError("max_iterations", "need at least one iteration")
        self.restriction = mesh.reduction(far_field).restriction
        self.n_reduced = self.restriction.shape[1]
        self.background = background
        self.mesh = mesh
        self.far_field = far_field
        self.newton_tol = float(newton_tol)
        self.max_iterations = int(max_iterations)
        self.g0 = background.stream_gradient(mesh.centroids)
        self.s0 = np.sum(self.g0**2, axis=-1)
        body = mesh.body_nodes
        self.dirichlet = np.zeros(mesh.n_points)
        self.dirichlet[body] = -background.swirl_stream(np.hypot(*mesh.points[body].T))
        self._bind_gas(gas)

    def _bind_gas(self, gas):
        self.gas = gas
        self._f_s0, self._fp_s0, _ = gas.flux_eval(self.s0)

    def with_gas(self, gas):
        """The same problem under another flux law (same gamma, new eps)."""
        other = copy.copy(self)
        other._bind_gas(gas)
        return other

    # ------------------------------------------------------------------

    def full_vector(self, u_red):
        return self.restriction @ u_red + self.dirichlet

    def u_gradients(self, u_full):
        """Per-triangle gradient of the P1 field, (n_tri, 2)."""
        vals = u_full[self.mesh.triangles]
        return np.einsum("ti,tia->ta", vals, self.mesh.shape_gradients)

    def total_gradients(self, u_full):
        return self.u_gradients(u_full) + self.g0

    def energy(self, u_red):
        u = self.full_vector(u_red)
        du = self.u_gradients(u)
        w = du + self.g0
        s = np.sum(w**2, axis=-1)
        f, _, _ = self.gas.flux_eval(s)
        dens = f - self._f_s0 - 2.0 * self._fp_s0 * np.sum(self.g0 * du, axis=-1)
        contrib = self.mesh.areas * dens
        check_finite(contrib, "energy")
        return float(np.sum(contrib))

    def gradient_full(self, u_full, include_background_correction=True):
        """Nodal energy gradient in the full space.

        With the correction switched off this is the plain weak form of
        the flow equation tested against every hat function, background
        term included; the difference is the discrete radial defect.
        """
        w = self.total_gradients(u_full)
        s = np.sum(w**2, axis=-1)
        _, fp, _ = self.gas.flux_eval(s)
        flux = fp[:, None] * w
        if include_background_correction:
            flux = flux - self._fp_s0[:, None] * self.g0
        contrib = 2.0 * self.mesh.areas[:, None] * np.einsum(
            "ta,tia->ti", flux, self.mesh.shape_gradients
        )
        check_finite(contrib, "gradient")
        return np.bincount(
            self.mesh.triangles.ravel(),
            weights=contrib.ravel(),
            minlength=self.mesh.n_points,
        )

    def gradient(self, u_red):
        return self.restriction.T @ self.gradient_full(self.full_vector(u_red))

    def hessian(self, u_red):
        w = self.total_gradients(self.full_vector(u_red))
        full = self.mesh.stiffness(2.0 * self.gas.coefficient_matrix(w))
        return (self.restriction.T @ full @ self.restriction).tocsc()

    def dirichlet_seminorm_sq(self, u_full):
        du = self.u_gradients(u_full)
        return float(np.sum(self.mesh.areas * np.sum(du**2, axis=-1)))


@dataclass
class FlowSolution:
    """Converged minimizer plus the iteration record."""

    problem: FlowProblem
    u_reduced: np.ndarray
    u_full: np.ndarray
    newton_iterations: int
    gradient_norm: float
    energy: float
    residual_history: list = field(default_factory=list)
    energy_history: list = field(default_factory=list)

    @property
    def total_gradient(self):
        return self.problem.total_gradients(self.u_full)

    @property
    def mass_flux_sq(self):
        return np.sum(self.total_gradient**2, axis=-1)

    def reconstructed_density(self):
        """Density 1/F'(s) from the cached flux law."""
        return 1.0 / self.problem.gas.flux_eval(self.mass_flux_sq)[1]

    def reconstructed_speed(self):
        return np.sqrt(self.mass_flux_sq) / self.reconstructed_density()

    def max_mass_flux_sq(self):
        return float(np.max(self.mass_flux_sq))

    def truncation_active(self):
        """True when some triangle reaches the blended part of the flux law."""
        return self.max_mass_flux_sq() >= self.problem.gas.s_blend_lo


def solve(problem, initial=None):
    """Damped Newton minimization of the discrete energy.

    Tolerance and iteration budget come from the problem: iteration
    stops when the euclidean norm of the reduced gradient falls below
    problem.newton_tol * (1 + |I(u)|).  The convexity of the truncated
    energy makes the iteration globally convergent, so exhausting the
    problem.max_iterations budget raises.
    """
    u = np.zeros(problem.n_reduced) if initial is None else np.asarray(initial, float).copy()
    if u.shape != (problem.n_reduced,):
        raise ConfigError("initial", "initial iterate has the wrong size")
    history = []
    energies = []
    for it in range(problem.max_iterations + 1):
        g = problem.gradient(u)
        gnorm = float(np.linalg.norm(g))
        energy = problem.energy(u)
        history.append(gnorm)
        energies.append(energy)
        if gnorm <= problem.newton_tol * (1.0 + abs(energy)):
            return FlowSolution(
                problem=problem,
                u_reduced=u,
                u_full=problem.full_vector(u),
                newton_iterations=it,
                gradient_norm=gnorm,
                energy=energy,
                residual_history=history,
                energy_history=energies,
            )
        if it == problem.max_iterations:
            break
        h = problem.hessian(u)
        try:
            step = spla.splu(h).solve(-g)
        except RuntimeError as exc:  # pragma: no cover - SPD by construction
            raise NonConvergenceError(f"linear solve failed: {exc}", iterate=u)
        slope = float(g @ step)
        t = 1.0
        # The full step lowers I by about -slope / 2, but I is a sum of
        # differences of order-one flux potentials and carries roundoff
        # of a few 1e-16 (5e-16 at most along the final step on the wavy
        # body at h = 0.05).  Below 1e-13 (1 + |I|) the energy test is
        # noise; by convexity so small a decrement puts the iterate in
        # Newton's quadratic region, where the full step is right.
        if not 0.0 <= -slope <= 1e-13 * (1.0 + abs(energy)):
            while t >= 2.0**-30:
                if problem.energy(u + t * step) <= energy + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                raise NonConvergenceError(
                    "line search failed to reduce the energy",
                    iterate=u,
                    history=history,
                )
        u = u + t * step
    raise NonConvergenceError(
        f"Newton did not reach tol {problem.newton_tol:g} "
        f"in {problem.max_iterations} iterations",
        iterate=u,
        history=history,
    )


# ----------------------------------------------------------------------
# post-solve diagnostics


@dataclass
class FlowFields:
    """Per-triangle physical fields reconstructed from the stream function."""

    density: np.ndarray
    velocity: np.ndarray  # (n_tri, 2)
    speed: np.ndarray
    mach: np.ndarray
    supersonic: np.ndarray  # bool, speed >= sound speed


def recover_fields(sol):
    """Density, velocity, speed, and Mach number on each triangle.

    The momentum rho*u is the rotated stream gradient, so |grad psi| must
    equal rho*q exactly; that identity is asserted here as an internal
    check before dividing out the density.
    """
    w = sol.total_gradient
    flux = np.sqrt(np.sum(w**2, axis=-1))
    rho = sol.reconstructed_density()
    vel = _rot(w) / rho[:, None]
    speed = flux / rho
    if not np.allclose(rho * speed, flux, rtol=1e-12, atol=1e-14):
        raise InternalConsistencyError("density * speed != |grad psi|")
    gamma = sol.problem.gas.gamma
    mach = speed / rho ** (0.5 * (gamma - 1.0))
    return FlowFields(
        density=rho,
        velocity=vel,
        speed=speed,
        mach=mach,
        supersonic=speed >= 1.0,
    )


def weak_residuals(sol, include_background=False):
    """Normalized irrotationality and mass weak residuals.

    Each is max_v |form(v)| / |v|_H1 over interior hat test functions.
    By default the radial background term is subtracted from both forms;
    it cancels analytically, and subtracting it discretely isolates the
    solver error from the quadrature defect of the background.  With
    include_background=True the raw forms are reported instead (the
    far-field gauge function is excluded either way: against it the raw
    form measures the physical source flux, not an error).
    """
    pr = sol.problem
    mesh = pr.mesh
    red = mesh.reduction(pr.far_field)
    ni = red.interior_nodes.size
    g_irr = pr.gradient_full(
        sol.u_full, include_background_correction=not include_background
    )
    irr = (pr.restriction.T @ g_irr)[:ni]
    irrot = float(np.max(np.abs(irr) / (2.0 * red.test_norms[:ni])))

    w = pr.u_gradients(sol.u_full)
    if include_background:
        w = w + pr.g0
    flow = _rot(w)
    contrib = mesh.areas[:, None] * np.einsum("ta,tia->ti", flow, mesh.shape_gradients)
    m_full = np.bincount(
        mesh.triangles.ravel(), weights=contrib.ravel(), minlength=mesh.n_points
    )
    m = (pr.restriction.T @ m_full)[:ni]
    mass = float(np.max(np.abs(m) / red.test_norms[:ni]))
    return irrot, mass


def boundary_flux(sol):
    """Mass flux out through the body boundary, by edge-midpoint quadrature.

    The correction gradient is taken from the adjacent triangle (exact
    for a P1 field) and the background gradient is evaluated at the edge
    midpoint, so the rule is second order along the polygonal boundary.
    The continuum value is 2 pi rho0 kappa1 regardless of the body shape.
    """
    pr = sol.problem
    mesh = pr.mesh
    a, b = mesh.points[mesh.body_edge_list().T]
    mid = _project_outside_unit_circle(0.5 * (a + b))
    du = pr.u_gradients(sol.u_full)[mesh.body_edge_triangles]
    rho_u = _rot(du + pr.background.stream_gradient(mid))
    e = b - a
    return float(np.sum(rho_u[:, 0] * e[:, 1] - rho_u[:, 1] * e[:, 0]))


@dataclass
class DecayReport:
    """Far-field decay of the correction gradient, ring by ring."""

    exact_match: bool
    slope: float | None
    ring_radii: np.ndarray
    ring_maxima: np.ndarray


def decay_report(sol):
    """Log-log decay rate of max |grad u| over geometric radius rings.

    Rings double in radius from twice the body size to half the
    truncation radius.  exact_match needs a ring and every ring maximum
    below 1e-13; otherwise a rate is fitted from two rings or more, and
    slope is None when there are fewer.
    """
    pr = sol.problem
    mesh = pr.mesh
    body_r = np.max(np.hypot(*mesh.points[mesh.body_nodes].T))
    outer_r = np.max(np.hypot(*mesh.points[mesh.outer_nodes].T))
    lo = 2.0 * body_r
    hi = outer_r / 2.0
    edges = [lo]
    while edges[-1] * 2.0 < hi:
        edges.append(edges[-1] * 2.0)
    edges.append(hi)
    edges = np.array(edges)
    r_c = np.hypot(*mesh.centroids.T)
    mag = np.linalg.norm(pr.u_gradients(sol.u_full), axis=-1)
    mids, maxima = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (r_c >= a) & (r_c < b)
        if np.any(sel):
            mids.append(np.sqrt(a * b))
            maxima.append(float(np.max(mag[sel])))
    mids = np.array(mids)
    maxima = np.array(maxima)
    if mids.size and np.all(maxima <= 1e-13):
        return DecayReport(True, None, mids, maxima)
    if mids.size < 2:
        return DecayReport(False, None, mids, maxima)
    slope = float(np.polyfit(np.log(mids), np.log(np.maximum(maxima, 1e-300)), 1)[0])
    return DecayReport(False, slope, mids, maxima)


def background_gradient_error(sol):
    """Relative L2 distance between the discrete and radial gradients.

    The radial gradient is sampled with the 3-point edge-midpoint rule,
    which is exact for quadratics, so for a circular body (where the
    radial flow solves the problem exactly) this measures pure
    interpolation error and decays like h.
    """
    pr = sol.problem
    mesh = pr.mesh
    p = mesh.corners
    mids = _project_outside_unit_circle(0.5 * (p + np.roll(p, -1, axis=1)))
    exact = pr.background.stream_gradient(mids.reshape(-1, 2)).reshape(mids.shape)
    wh = sol.total_gradient[:, None, :]
    werr = np.sum((wh - exact) ** 2, axis=-1)
    wref = np.sum(exact**2, axis=-1)
    err = np.sum(mesh.areas / 3.0 * np.sum(werr, axis=-1))
    ref = np.sum(mesh.areas / 3.0 * np.sum(wref, axis=-1))
    return float(np.sqrt(err / ref))


def convexity_gap(problem, u_a, u_b):
    """Energy convexity margin for two reduced iterates.

    Returns (gap, bound): gap = I(a) + I(b) - 2 I(mid) and the uniform
    convexity prediction bound = (lam/2) |grad(a - b)|^2; gap >= bound up
    to roundoff for the truncated energy.
    """
    mid = 0.5 * (u_a + u_b)
    gap = problem.energy(u_a) + problem.energy(u_b) - 2.0 * problem.energy(mid)
    diff = problem.restriction @ (u_a - u_b)
    lam = problem.gas.ellipticity_bounds().lam
    bound = 0.5 * lam * problem.dirichlet_seminorm_sq(diff)
    return float(gap), float(bound)
