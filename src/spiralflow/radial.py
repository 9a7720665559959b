"""Radially symmetric spiral background flows outside the unit disk.

The background velocity has a source part and a swirl part,

    rho_b(r) U1(r) = rho0 kappa1 / r,      U2(r) = kappa2 / r,

with the density rho_b(r) tied to the speed by the Bernoulli relation.
kappa1 and kappa2 are the radial and azimuthal speeds at the body r = 1,
and rho0 is the density there.  Everything is normalized to the sonic
state (speed 1, density 1).

The flow is uniformly subsonic when kappa1^2 + kappa2^2 < 1 and decays to
stagnation as r grows; for kappa1^2 + kappa2^2 > 1 it starts supersonic
and passes smoothly through the sonic circle, provided the radial Mach
number stays below 1.  Both descriptions are available twice over: as an
algebraic root of the Bernoulli/mass-flux system per radius, and as an
ODE system for the squared Mach numbers

    d(M1^2)/dr = -(2 (1 + M2^2) + (g-1) M^2) M1^2 / (r (1 - M1^2))
    d(M2^2)/dr = -(2 (1 - M1^2) + (g-1) M^2) M2^2 / (r (1 - M1^2))
    d(M^2)/dr  = -((g-1) M^2 + 2) M^2 / (r (1 - M1^2))

integrated outward from r = 1.  The two routes are cross-checked against
each other whenever the flow is classified.

The background stream function splits into a multivalued source part
(proportional to the polar angle) and a single-valued swirl part; only
the latter is needed as boundary data, and its gradient is single-valued.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InternalConsistencyError, RegimeError
from .gas import GasModel, density_from_speed, stagnation_density


def mach_ode_rhs(gamma, r, m1sq, m2sq, msq=None):
    """Right sides of the squared-Mach-number system at radius r.

    msq defaults to m1sq + m2sq; passing it separately lets an
    integrator carry the redundant third equation and watch its drift.
    """
    if msq is None:
        msq = m1sq + m2sq
    if abs(1.0 - m1sq) < 1e-12:
        raise RegimeError(f"radial Mach number reaches 1 at r={r:g}")
    denom = r * (1.0 - m1sq)
    d1 = -(2.0 * (1.0 + m2sq) + (gamma - 1.0) * msq) * m1sq / denom
    d2 = -(2.0 * (1.0 - m1sq) + (gamma - 1.0) * msq) * m2sq / denom
    dm = -((gamma - 1.0) * msq + 2.0) * msq / denom
    return d1, d2, dm


class FlowRegime(enum.Enum):
    UNIFORMLY_SUBSONIC = "uniformly_subsonic"
    SMOOTH_TRANSONIC = "smooth_transonic"
    SONIC_AT_BODY = "sonic_at_body"  # measure-zero boundary case, not covered


@dataclass(frozen=True)
class RadialState:
    """Algebraic background state at one radius."""

    r: float
    rho_b: float
    U1: float
    U2: float
    M1sq: float
    M2sq: float

    @property
    def Msq(self):
        return self.M1sq + self.M2sq


@dataclass
class RadialClassification:
    """Flow regime plus the ODE-versus-algebra evidence used to call it."""

    regime: FlowRegime
    r: np.ndarray
    msq_ode: np.ndarray
    msq_algebraic: np.ndarray
    max_rel_mismatch: float
    max_msq: float


class RadialBackground:
    """One spiral background flow; immutable after construction.

    Only gas.gamma enters the background (the truncation width eps is a
    solver concern), so one background can be shared across gas models of
    equal gamma.
    """

    def __init__(self, gas: GasModel, kappa1: float, kappa2: float):
        if not 0.0 < kappa1 < 1.0:
            raise DomainError(f"kappa1 must lie in (0, 1), got {kappa1:g}")
        if not abs(kappa2) < 1.0:
            raise DomainError(f"|kappa2| must be below 1, got {kappa2:g}")
        self.gas = gas
        self.gamma = gas.gamma
        self.kappa1 = float(kappa1)
        self.kappa2 = float(kappa2)
        self.rho0 = float(density_from_speed(self.gamma, kappa1**2 + kappa2**2))
        c0sq = self.rho0 ** (self.gamma - 1.0)
        if kappa1**2 >= c0sq:
            raise RegimeError(
                "radial Mach number at the body would reach 1; no smooth "
                "outward continuation exists for these parameters"
            )
        self.source_strength = self.rho0 * self.kappa1  # r rho_b U1, conserved
        self._panel_edges = [1.0]
        self._panel_cum = [0.0]

    # ------------------------------------------------------------------
    # algebraic route

    def density(self, r):
        """Background density, vectorized; root of the Bernoulli system.

        The branch with subsonic radial Mach number is taken; it is the
        one that continues smoothly from the state at r = 1.  Defined for
        every radius above the choking radius of the radial mass flux
        (which lies below the body for any admissible kappa), and raises
        RegimeError below it.
        """
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if np.any(r <= 0.0):
            raise DomainError("background density needs a positive radius")
        gamma = self.gamma
        mdot = self.source_strength
        const = 0.5 * (gamma + 1.0) / (gamma - 1.0)
        swirl = 0.5 * self.kappa2**2 / r**2

        def resid(rho):
            return (
                0.5 * (mdot / (r * rho)) ** 2
                + swirl
                + rho ** (gamma - 1.0) / (gamma - 1.0)
                - const
            )

        rho_hi = stagnation_density(gamma)
        # the residual is increasing for rho above the radial sonic density
        lo = np.minimum((mdot / r) ** (2.0 / (gamma + 1.0)), rho_hi)
        f_lo = resid(lo)
        if np.any(f_lo > 1e-11):
            bad = r[f_lo > 1e-11]
            raise RegimeError(
                f"no admissible background density at r={bad.flat[0]:g}; "
                "the radial mass flux chokes before that radius"
            )
        hi = np.full_like(r, rho_hi)
        rho = hi.copy()
        # fixed iteration count so results do not depend on how calls are
        # batched; 90 bisection halvings already shrink the bracket below
        # one ulp, Newton only accelerates that
        for _ in range(90):
            f = resid(rho)
            lo = np.where(f < 0.0, rho, lo)
            hi = np.where(f >= 0.0, rho, hi)
            df = rho ** (gamma - 2.0) - mdot**2 / (r**2 * rho**3)
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = rho - f / df
            ok = (df > 0.0) & np.isfinite(cand) & (cand > lo) & (cand < hi)
            rho = np.where(ok, cand, 0.5 * (lo + hi))
        rho = 0.5 * (lo + hi)
        if np.max(np.abs(resid(rho))) > 1e-12:
            raise InternalConsistencyError("background density residual above 1e-12")
        return float(rho[0]) if scalar else rho

    def state(self, r):
        """Full algebraic state at one radius outside the body circle."""
        r = float(r)
        if r < 1.0:
            raise DomainError("background states are reported for r >= 1")
        rho = self.density(r)
        u1 = self.source_strength / (r * rho)
        u2 = self.kappa2 / r
        csq = rho ** (self.gamma - 1.0)
        return RadialState(
            r=r, rho_b=rho, U1=u1, U2=u2, M1sq=u1**2 / csq, M2sq=u2**2 / csq
        )

    # ------------------------------------------------------------------
    # stream function pieces

    def swirl_stream(self, r):
        """Single-valued swirl part of the background stream function.

        Equals -kappa2 * integral_1^r rho_b(t)/t dt; zero at the body and
        for swirl-free flows.  Served from a cached adaptive panel
        decomposition (Gauss-Legendre, split until two orders agree).
        """
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if np.any(r < 1.0 - 1e-9):
            raise DomainError("swirl stream is defined for r >= 1")
        r = np.maximum(r, 1.0)
        if self.kappa2 == 0.0:
            out = np.zeros_like(r)
            return float(out[0]) if scalar else out
        self._ensure_panels(float(np.max(r)))
        edges = np.array(self._panel_edges)
        cum = np.array(self._panel_cum)
        idx = np.clip(np.searchsorted(edges, r, side="right") - 1, 0, len(edges) - 2)
        a = edges[idx]
        out = cum[idx] + self._panel_integral(a, r)
        out = -self.kappa2 * out
        return float(out[0]) if scalar else out

    def _integrand_nodes(self, a, b, n=16):
        x, w = np.polynomial.legendre.leggauss(n)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes = mid[..., None] + half[..., None] * x
        return nodes, half[..., None] * w

    def _panel_integral(self, a, b):
        """Vectorized Gauss-Legendre of rho_b(t)/t over [a_i, b_i]."""
        nodes, weights = self._integrand_nodes(a, b)
        vals = self.density(nodes) / nodes
        return np.sum(vals * weights, axis=-1)

    def _checked_panel(self, pa, pb):
        """Panel integral, or None if an 8-point rule disagrees with 16."""
        coarse_nodes, coarse_w = self._integrand_nodes(np.array(pa), np.array(pb), n=8)
        coarse = np.sum(self.density(coarse_nodes) / coarse_nodes * coarse_w, axis=-1)
        fine = self._panel_integral(np.array(pa), np.array(pb))
        if abs(float(fine) - float(coarse)) > 1e-13 and pb - pa > 1e-6:
            return None
        return float(fine)

    def _ensure_panels(self, rmax):
        """Grow the cached panel decomposition to cover [1, rmax].

        The cached cumulative values are integrals of rho_b/t from 1 to
        each panel edge.
        """
        while self._panel_edges[-1] < rmax:
            a = self._panel_edges[-1]
            b = min(max(a * 1.5, a + 0.1), max(rmax, a * 1.02))
            stack = [(a, b)]
            while stack:
                pa, pb = stack.pop()
                val = self._checked_panel(pa, pb)
                if val is None:
                    mid = 0.5 * (pa + pb)
                    stack.append((mid, pb))
                    stack.append((pa, mid))
                else:
                    self._panel_edges.append(pb)
                    self._panel_cum.append(self._panel_cum[-1] + val)

    def stream_gradient(self, points):
        """Gradient of the full background stream function at (..., 2) points.

        The multivalued angle part contributes a single-valued gradient,
        so this is well defined everywhere outside the origin.
        """
        points = np.asarray(points, dtype=float)
        x = points[..., 0]
        y = points[..., 1]
        rsq = x**2 + y**2
        r = np.sqrt(rsq)
        if np.any(r < 1.0 - 1e-9):
            raise DomainError("background gradient is defined for |x| >= 1")
        rho = self.density(np.maximum(r, 1.0))
        gx = (self.source_strength * (-y) - self.kappa2 * rho * x) / rsq
        gy = (self.source_strength * x - self.kappa2 * rho * y) / rsq
        return np.stack([gx, gy], axis=-1)

    # ------------------------------------------------------------------
    # ODE route and classification

    def mach_numbers_at_body(self):
        c0sq = self.rho0 ** (self.gamma - 1.0)
        m1 = self.kappa1**2 / c0sq
        m2 = self.kappa2**2 / c0sq
        return m1, m2, m1 + m2

    def integrate_mach(self, r_max=50.0):
        """March the Mach system outward with classical fixed-ratio RK4.

        The step is 1e-3 times the current radius, so the grid is
        geometric.  Returns (r, m1sq, m2sq, msq) arrays including r = 1.
        """
        if r_max <= 1.0:
            raise DomainError("r_max must exceed 1")
        gamma = self.gamma
        r = 1.0
        y = list(self.mach_numbers_at_body())
        rs = [r]
        ys = [tuple(y)]
        while r < r_max:
            h = min(1e-3 * r, r_max - r)

            def f(rr, yy):
                return mach_ode_rhs(gamma, rr, yy[0], yy[1], yy[2])

            k1 = f(r, y)
            k2 = f(r + 0.5 * h, [y[i] + 0.5 * h * k1[i] for i in range(3)])
            k3 = f(r + 0.5 * h, [y[i] + 0.5 * h * k2[i] for i in range(3)])
            k4 = f(r + h, [y[i] + h * k3[i] for i in range(3)])
            y = [
                y[i] + h * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) / 6.0
                for i in range(3)
            ]
            r += h
            rs.append(r)
            ys.append(tuple(y))
        arr = np.array(ys)
        return np.array(rs), arr[:, 0], arr[:, 1], arr[:, 2]

    def classify(self, r_max=50.0):
        """Call the regime and verify the ODE against the algebraic route.

        At every recorded radius the integrated M^2 is compared with the
        value reconstructed from the Bernoulli/mass-flux system; relative
        mismatch beyond 1e-6 raises InternalConsistencyError.
        """
        qsq0 = self.kappa1**2 + self.kappa2**2
        if qsq0 == 1.0:
            regime = FlowRegime.SONIC_AT_BODY
        elif qsq0 < 1.0:
            regime = FlowRegime.UNIFORMLY_SUBSONIC
        else:
            regime = FlowRegime.SMOOTH_TRANSONIC
        r, m1, m2, msq = self.integrate_mach(r_max=r_max)
        gamma = self.gamma
        # triple consistency: the third equation is redundant
        drift = np.max(np.abs(m1 + m2 - msq) / np.maximum(msq, 1e-30))
        if drift > 1e-6:
            raise InternalConsistencyError(
                f"Mach-number triple drifted apart by {drift:.3e}"
            )
        rho = self.density(r)
        csq = rho ** (gamma - 1.0)
        u1 = self.source_strength / (r * rho)
        u2 = self.kappa2 / r
        msq_alg = (u1**2 + u2**2) / csq
        rel = np.abs(msq - msq_alg) / np.maximum(np.abs(msq_alg), 1e-30)
        worst = float(np.max(rel))
        if worst > 1e-6:
            raise InternalConsistencyError(
                f"ODE and algebraic Mach numbers disagree by {worst:.3e}"
            )
        return RadialClassification(
            regime=regime,
            r=r,
            msq_ode=msq,
            msq_algebraic=msq_alg,
            max_rel_mismatch=worst,
            max_msq=float(np.max(msq)),
        )
