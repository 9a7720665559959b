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
the porous-inflow condition; on the truncation circle all outer nodes
share one floating constant, the gauge.  The discrete far field picks
its own additive constant, as the flow tending to the uniform far state
does; pinning u = 0 there would excite a spurious logarithmic mode at a
finite truncation radius.  Each mesh builds one Reduction, the one its
solves run on, and factors its Laplacian once.

Energy, gradient and Hessian at one iterate share an IterateState, which
evaluates each derivative of F there once; without one they build their own.

Newton is inexact: each step's CG solve stops at a forcing term, loose
far from the minimizer and O(|g|) near it, floored at CG_RTOL
(Eisenstat and Walker, SIAM J. Sci. Comput. 17, 1996).  Strict convexity
makes the damped iteration converge from any start with such steps, and
the stopping rule reads the gradient itself, so the answer's tolerance
does not depend on the forcing term.

Rotation symmetry: the energy is strictly convex, so when the mesh and
the radial background are invariant under rotation by 2 pi / k the
minimizer is invariant too.  On such a mesh the problem solves on the
mesh's reduction: one unknown per node orbit (plus the gauge), and
energy, gradient and Hessian summed over one triangle per orbit with area
weight k.  The Newton stopping rule reads the gradient's norm in the full
reduction, and s_max, q_max and the removal certificate come from the
sector's final state; they are exact for that discrete problem, which
differs from the full one only by the roundoff in the rotated
coordinates.  full_vector and FlowSolution.u_full give u on every node,
and the post-solve diagnostics run on the problem's whole-mesh view,
which sums over every triangle with the same unknowns.  With k = 1 the
problem is its own whole view.
"""

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ConfigError, InternalConsistencyError, NonConvergenceError
from .meshing import check_finite

#: default Newton stopping tolerance, relative to 1 + |I(u)|
NEWTON_TOL = 1e-9

#: floor of the forcing term: no Newton step is solved tighter than this
#: residual relative to the gradient
CG_RTOL = 1e-10
#: CG iterations per Newton step before the step fails; with the ratio
#: k = Lam/lam CG needs at most sqrt(k)/2 ln(2/rtol), worst at the floor
#: rtol = CG_RTOL: 37 at gamma 2 and eps 0.0125, 126 at eps 1e-4
CG_MAX_ITERATIONS = 500
#: cap of the forcing term: a step's linear error FORCING_MAX |g| stays
#: below what the exact step leaves (2.5 % of |g| = 2.8 on the truncated
#: wavy body at kappa (0.3, 0.8)), so loose steps cost no Newton step
FORCING_MAX = 0.01
#: factor of the forcing term's gradient-ratio term
FORCING_GAMMA = 0.9


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
        newton_tol=NEWTON_TOL,
        max_iterations=50,
    ):
        if not (newton_tol > 0.0):
            raise ConfigError("newton_tol", "tolerance must be positive")
        if max_iterations < 1:
            raise ConfigError("max_iterations", "need at least one iteration")
        self.background = background
        self.mesh = mesh
        self.newton_tol = float(newton_tol)
        self.max_iterations = int(max_iterations)
        self.reduction = mesh.reduction
        self.restriction = self.reduction.restriction
        self.n_reduced = self.restriction.shape[1]
        sector = self.reduction.sector
        self._sample(mesh if sector is None else sector)
        body = mesh.body_nodes
        self.dirichlet = np.zeros(mesh.n_points)
        self.dirichlet[body] = -background.swirl_stream(np.hypot(*mesh.points[body].T))
        self._bind_gas(gas)

    def _sample(self, cells):
        """Sum over cells, the sector's triangles or the whole mesh's, and
        sample the background gradient at their centroids."""
        self.cells = cells
        self.g0 = self.background.stream_gradient(cells.centroids)

    def _bind_gas(self, gas):
        self.gas = gas
        self._f_s0, self._fp_s0 = gas.flux_eval(np.sum(self.g0**2, axis=-1), (0, 1))

    def with_gas(self, gas):
        """The same problem under another flux law (same gamma, new eps)."""
        other = copy.copy(self)
        other.__dict__.pop("_whole", None)
        other._bind_gas(gas)
        return other

    @property
    def whole(self):
        """This problem on every triangle of the mesh, for the diagnostics.

        A problem that solves on a sector builds it on first use: the
        same unknowns, gas, background and Dirichlet data, with the
        triangles and the background gradient of the whole mesh.  Its
        energy and gradient equal the sector's for the same unknowns; its
        Hessian is not defined, since the reduced pattern is the sector's.
        It builds no Reduction.  Any other problem is its own whole view.
        """
        if self.cells is self.mesh:
            return self
        if "_whole" not in self.__dict__:
            whole = copy.copy(self)
            whole._sample(self.mesh)
            whole._bind_gas(self.gas)
            self._whole = whole
        return self._whole

    # ------------------------------------------------------------------

    def full_vector(self, u_red):
        """The correction u on every node of the mesh."""
        return self.restriction @ u_red + self.dirichlet

    def u_gradients(self, u_full):
        """Gradient of the P1 field on each of the problem's triangles, (n, 2)."""
        vals = u_full[self.cells.triangles]
        return np.einsum("ti,tia->ta", vals, self.cells.shape_gradients)

    def energy(self, u_red, state=None):
        st = IterateState(self, u_red) if state is None else state
        (f,) = st.flux(0)
        dens = f - self._f_s0 - 2.0 * self._fp_s0 * np.sum(self.g0 * st.du, axis=-1)
        contrib = self.cells.areas * dens
        check_finite(contrib, "energy")
        return float(np.sum(contrib))

    def gradient_full(self, state, include_background_correction=True):
        """Nodal energy gradient at the state's iterate in the full space.

        With the correction switched off this is the plain weak form of
        the flow equation tested against every hat function, background
        term included; the difference is the discrete radial defect.  On
        a sector the triangles outside it contribute nothing.
        """
        (fp,) = state.flux(1)
        flux = fp[:, None] * state.w
        if include_background_correction:
            flux = flux - self._fp_s0[:, None] * self.g0
        contrib = 2.0 * self.cells.areas[:, None] * np.einsum(
            "ta,tia->ti", flux, self.cells.shape_gradients
        )
        check_finite(contrib, "gradient")
        return np.bincount(
            self.cells.triangles.ravel(),
            weights=contrib.ravel(),
            minlength=self.mesh.n_points,
        )

    def gradient(self, u_red, state=None):
        st = IterateState(self, u_red) if state is None else state
        return self.restriction.T @ self.gradient_full(st)

    def hessian(self, u_red, state=None):
        st = IterateState(self, u_red) if state is None else state
        return self.reduction.assemble(
            self.cells.local_stiffness(2.0 * self.gas.coefficient_matrix(st.w, st.flux(1, 2)))
        )

    def dirichlet_seminorm_sq(self, u_full):
        du = self.u_gradients(u_full)
        return float(np.sum(self.cells.areas * np.sum(du**2, axis=-1)))


class IterateState:
    """What energy, gradient and hessian share at one reduced iterate of one problem.

    u_full, the correction gradient du, the total gradient w = du + g0 and
    s = |w|^2 per triangle; flux(*orders) evaluates each derivative of F at
    s once, the first time it is asked for.  keep_hessian_inputs() drops
    what the Hessian does not read.
    """

    def __init__(self, problem, u_red):
        self._at(problem, problem.full_vector(u_red))

    @classmethod
    def of_field(cls, problem, u_full):
        """The state at a correction given on every node of the mesh."""
        state = cls.__new__(cls)
        state._at(problem, u_full)
        return state

    def _at(self, problem, u_full):
        self.gas = problem.gas
        self.u_full = u_full
        self.du = problem.u_gradients(u_full)
        self.w = self.du + problem.g0
        self.s = np.sum(self.w**2, axis=-1)
        self._flux = {}

    def flux(self, *orders):
        have = self._flux
        missing = tuple(k for k in orders if k not in have)
        if missing:
            s = self.s
            if s is None:  # released: evaluate from w and keep nothing new
                have, s = dict(have), np.sum(self.w**2, axis=-1)
            have.update(zip(missing, self.gas.flux_eval(s, missing)))
        return tuple(have[k] for k in orders)

    def keep_hessian_inputs(self):
        """Release u_full, du, s and F: the Hessian reads only w, F' and F''."""
        self.u_full = self.du = self.s = None
        self._flux.pop(0, None)


@dataclass
class FlowSolution:
    """Converged minimizer plus the iteration record."""

    problem: FlowProblem
    u_reduced: np.ndarray
    u_full: np.ndarray
    newton_iterations: int
    gradient_norm: float
    energy: float
    s_max: float  # max |grad psi|^2 over the triangles, from the final state
    q_max: float  # max speed over the triangles, from the same state
    residual_history: list = field(default_factory=list)
    energy_history: list = field(default_factory=list)
    linear_iterations: list = field(default_factory=list)  # CG count per step

    @property
    def total_gradient(self):
        """grad psi on every triangle of the mesh, (n_tri, 2)."""
        whole = self.problem.whole
        return whole.u_gradients(self.u_full) + whole.g0

    @property
    def mass_flux_sq(self):
        return np.sum(self.total_gradient**2, axis=-1)


def _forcing_term(gnorm, prev_gnorm):
    """Relative CG tolerance for a Newton step at gradient norm gnorm.

    Eisenstat and Walker's second choice, FORCING_GAMMA (gnorm /
    prev_gnorm)^2, left out on a solve's first step (prev_gnorm None),
    capped at FORCING_MAX and at gnorm itself, and floored at CG_RTOL.
    The gnorm cap keeps a warm-started solve, whose first gradient is
    already small, from taking a loose first step.  Near the minimizer
    eta = O(gnorm), which keeps Newton's quadratic convergence (Dembo,
    Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982).
    """
    eta = min(FORCING_MAX, gnorm)
    if prev_gnorm is not None:
        eta = min(eta, FORCING_GAMMA * (gnorm / prev_gnorm) ** 2)
    return max(CG_RTOL, eta)


def _newton_direction(problem, u, g, state=None, rtol=CG_RTOL):
    """(d, iterations, converged) for H(u) d = -g by Laplacian-preconditioned CG
    to residual rtol |g|."""
    h = problem.hessian(u, state)
    factor = problem.reduction.laplacian_factor(spla.splu)
    precond = spla.LinearOperator(h.shape, matvec=factor.solve, dtype=float)
    iterations = []
    step, info = spla.cg(
        h,
        -g,
        rtol=rtol,
        atol=0.0,
        maxiter=CG_MAX_ITERATIONS,
        M=precond,
        callback=lambda _: iterations.append(1),
    )
    return step, len(iterations), info == 0


def solve(problem, initial=None):
    """Damped Newton minimization of the discrete energy.

    Tolerance and iteration budget come from the problem: iteration
    stops when the euclidean norm of the reduced gradient falls below
    problem.newton_tol * (1 + |I(u)|).  The convexity of the truncated
    energy makes the iteration globally convergent, so exhausting the
    problem.max_iterations budget raises.

    One IterateState serves each iterate: one flux evaluation gives F and
    F' to the energy and the gradient, and the Hessian adds F''.  Line
    search trials evaluate F only, the accepted trial's state serves the
    next iterate, and the final state gives s_max and q_max.

    Each step solves H d = -g by conjugate gradients preconditioned with
    the reduced Laplacian, inexactly: to the relative residual
    _forcing_term(gnorm, previous gnorm), between CG_RTOL and FORCING_MAX,
    in at most CG_MAX_ITERATIONS iterations, or raises.  Loose steps far
    from the minimizer cost a few CG iterations; the stopping rule is
    unchanged, so the solve ends at the same tolerance.  The ellipticity
    bounds lam <= H / 2K <= Lam make the iteration count independent of
    the mesh.  The Laplacian's SuperLU factor is built on the first step
    and then shared by every solve on the same mesh; a solve that takes
    no step builds none.
    """
    u = np.zeros(problem.n_reduced) if initial is None else np.asarray(initial, float).copy()
    if u.shape != (problem.n_reduced,):
        raise ConfigError("initial", "initial iterate has the wrong size")
    state = IterateState(problem, u)
    history = []
    energies = []
    linear = []
    for it in range(problem.max_iterations + 1):
        state.flux(0, 1)  # one evaluation serves the gradient and the energy
        g = problem.gradient(u, state)
        gnorm = problem.reduction.norm(g)
        energy = problem.energy(u, state)
        history.append(gnorm)
        energies.append(energy)
        if gnorm <= problem.newton_tol * (1.0 + abs(energy)):
            (fp,) = state.flux(1)
            return FlowSolution(
                problem=problem,
                u_reduced=u,
                u_full=state.u_full,
                newton_iterations=it,
                gradient_norm=gnorm,
                energy=energy,
                s_max=float(np.max(state.s)),
                q_max=float(np.max(np.sqrt(state.s) / (1.0 / fp))),
                residual_history=history,
                energy_history=energies,
                linear_iterations=linear,
            )
        if it == problem.max_iterations:
            break
        state.keep_hessian_inputs()
        eta = _forcing_term(gnorm, history[-2] if it else None)
        step, cg_iterations, converged = _newton_direction(problem, u, g, state, eta)
        if not converged:
            raise NonConvergenceError(
                f"CG did not reach rtol {eta:g} "
                f"in {CG_MAX_ITERATIONS} iterations",
                iterate=u,
                history=history,
            )
        linear.append(cg_iterations)
        slope = float(g @ step)
        # The full step lowers I by about -slope / 2, but I is a sum of
        # differences of order-one flux potentials and carries roundoff
        # of a few 1e-16 (5e-16 at most along the final step on the wavy
        # body at h = 0.05).  Below 1e-13 (1 + |I|) the energy test is
        # noise; by convexity so small a decrement puts the iterate in
        # Newton's quadratic region, where the full step is right.
        t = 1.0
        state = None  # freed before a trial builds its own
        trial = u + step
        state = IterateState(problem, trial)
        if not 0.0 <= -slope <= 1e-13 * (1.0 + abs(energy)):
            while not problem.energy(trial, state) <= energy + 1e-4 * t * slope:
                t *= 0.5
                if t < 2.0**-30:
                    raise NonConvergenceError(
                        "line search failed to reduce the energy",
                        iterate=u,
                        history=history,
                    )
                trial = u + t * step
                state = IterateState(problem, trial)
        u = trial
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
    st = IterateState.of_field(sol.problem.whole, sol.u_full)
    flux = np.sqrt(st.s)
    rho = 1.0 / st.flux(1)[0]
    vel = _rot(st.w) / rho[:, None]
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
    pr = sol.problem.whole
    mesh = pr.mesh
    interior = mesh.interior
    norms = mesh.hat_norms[interior]
    st = IterateState.of_field(pr, sol.u_full)
    g_irr = pr.gradient_full(st, include_background_correction=not include_background)
    irrot = float(np.max(np.abs(g_irr[interior]) / (2.0 * norms)))

    flow = _rot(st.w if include_background else st.du)
    contrib = mesh.areas[:, None] * np.einsum("ta,tia->ti", flow, mesh.shape_gradients)
    m_full = np.bincount(
        mesh.triangles.ravel(), weights=contrib.ravel(), minlength=mesh.n_points
    )
    mass = float(np.max(np.abs(m_full[interior]) / norms))
    return irrot, mass


def boundary_flux(sol):
    """Mass flux out through the body boundary, by edge-midpoint quadrature.

    The correction gradient is taken from the adjacent triangle (exact
    for a P1 field) and the background gradient is evaluated at the edge
    midpoint, so the rule is second order along the polygonal boundary.
    The continuum value is 2 pi rho0 kappa1 regardless of the body shape.
    """
    pr = sol.problem.whole
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
    pr = sol.problem.whole
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
    pr = sol.problem.whole
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
