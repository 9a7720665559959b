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
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import DomainError, InternalConsistencyError, RegimeError
from .gas import (
    GasModel,
    bracketed_root,
    chained_antiderivative,
    density_from_speed,
    piecewise_chebval,
    speed_limit_sq,
    stagnation_density,
)


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
    equal gamma.  stream_gradient and swirl_stream read a series of the
    root solve density() in t = 1/r, built and checked on first use.
    """

    def __init__(self, gas: GasModel, kappa1: float, kappa2: float):
        if not 0.0 < kappa1 < 1.0:
            raise DomainError(f"kappa1 must lie in (0, 1), got {kappa1:g}")
        if not abs(kappa2) < 1.0:
            raise DomainError(f"|kappa2| must be below 1, got {kappa2:g}")
        self.gamma = gas.gamma
        self.kappa1 = float(kappa1)
        self.kappa2 = float(kappa2)
        q0sq = kappa1**2 + kappa2**2
        if q0sq >= speed_limit_sq(self.gamma):  # zero density at the body, or none
            raise RegimeError(f"no admissible body state: kappa1^2 + kappa2^2 = {q0sq:g}")
        self.rho0 = float(density_from_speed(self.gamma, q0sq))
        c0sq = self.rho0 ** (self.gamma - 1.0)
        if kappa1**2 >= c0sq:
            raise RegimeError(
                "radial Mach number at the body would reach 1; no smooth "
                "outward continuation exists for these parameters"
            )
        self.source_strength = self.rho0 * self.kappa1  # r rho_b U1, conserved
        self.rho_inf = stagnation_density(self.gamma)  # rho_b far out

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

        # the residual is increasing for rho above the radial sonic density
        lo = np.minimum((mdot / r) ** (2.0 / (gamma + 1.0)), self.rho_inf)
        f_lo = resid(lo)
        if np.any(f_lo > 1e-11):
            bad = r[f_lo > 1e-11]
            raise RegimeError(
                f"no admissible background density at r={bad.flat[0]:g}; "
                "the radial mass flux chokes before that radius"
            )
        rho = bracketed_root(resid, lo, np.full_like(r, self.rho_inf), "background density")
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

        Equals -kappa2 * integral_1^r rho_b(s)/s ds, zero at the body and
        for swirl-free flows; that is -kappa2 (rho_inf ln r + G(1) - G(1/r)).
        """
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if np.any(r < 1.0 - 1e-9):
            raise DomainError("swirl stream is defined for r >= 1")
        r = np.maximum(r, 1.0)
        breaks, _, G = self._series
        # G(1) from the same evaluation keeps the body value exactly zero
        (G_t,) = piecewise_chebval(breaks, np.append(1.0 / r, 1.0), G)
        out = -self.kappa2 * (self.rho_inf * np.log(r) + G_t[-1] - G_t[:-1])
        return float(out[0]) if scalar else out

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
        rho = self._fitted_density(1.0 / np.maximum(r, 1.0))
        gx = (self.source_strength * (-y) - self.kappa2 * rho * x) / rsq
        gy = (self.source_strength * x - self.kappa2 * rho * y) / rsq
        return np.stack([gx, gy], axis=-1)

    def _fitted_density(self, t):
        """rho_b at t = 1/r in [0, 1], read from the series."""
        breaks, g, _ = self._series
        return self.rho_inf + t * piecewise_chebval(breaks, t, g)[0]

    @cached_property
    def _series(self):
        """Piecewise Chebyshev series (breaks, g, G) in t = 1/r on [0, 1].

        rho_b = rho_inf + t g(t), with g smooth as rho_b is even in t, and
        G is the continuous antiderivative of g.  Pieces interpolate g at
        first-kind Chebyshev points; one batched root solve per round checks
        them between the nodes and at the ends, and halves those that fail:
        near radial choking rho_b has a branch point just past t = 1.
        """
        deg = 40
        # the root solve itself loses accuracy like 1/(1 - M1^2)
        tol = max(1e-13, 16.0 * np.finfo(float).eps / (1.0 - self.mach_numbers_at_body()[0]))
        x_fit = _cheb.chebpts1(deg + 1)
        x = np.concatenate([x_fit, _cheb.chebpts2(2 * deg + 1)])
        pieces = []
        todo = [(0.0, 0.5), (0.5, 0.75), (0.75, 0.875), (0.875, 1.0)]  # graded toward r = 1
        while todo:
            a, b = np.array(todo).T
            t = 0.5 * (a + b) + 0.5 * (b - a) * x[:, None]
            rho = np.full_like(t, self.rho_inf)
            rho[t > 0.0] = self.density(1.0 / t[t > 0.0])
            g = np.divide(rho - self.rho_inf, t, out=np.zeros_like(t), where=t > 0.0)
            coef = _cheb.chebfit(x_fit, g[: deg + 1], deg)
            fit = self.rho_inf + t * _cheb.chebval(x, coef).T
            err = np.max(np.abs(fit - rho) / rho, axis=0)
            todo = []
            for ak, bk, ck, ok in zip(a, b, coef.T, err <= tol):
                if ok:
                    pieces.append((ak, bk, ck))
                elif bk - ak < 2e-12 or len(todo) > 200:  # halves below 1e-12, or noise
                    raise InternalConsistencyError(f"density series fails near t={ak:g}")
                else:
                    todo += [(ak, 0.5 * (ak + bk)), (0.5 * (ak + bk), bk)]
        a, _, g = zip(*sorted(pieces, key=lambda piece: piece[0]))
        breaks = np.array(a + (1.0,))
        return breaks, g, chained_antiderivative(breaks, g)[0]

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
