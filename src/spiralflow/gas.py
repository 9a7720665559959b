"""Isentropic gas closures for the stream-function formulation.

Speeds are normalized by the critical speed, densities by the critical
density, so the sonic state is q = 1, rho = 1.  Along a streamline the
Bernoulli relation

    q^2 / 2 + rho^(gamma-1) / (gamma - 1) = (gamma + 1) / (2 (gamma - 1))

ties the flow speed q to the density rho.  Two inversions of that relation
are needed:

* density from the squared speed q^2 (closed form),
* density from the squared mass flux s = (rho q)^2, on the subsonic
  branch rho in [1, rho_stagnation].  This is the coefficient H(s) of the
  stream-function equation div(grad(psi) / H(|grad psi|^2)) = 0; it is
  decreasing on [0, 1] with H(1) = 1 and its derivative blows up at s = 1.

To keep the equation uniformly elliptic, H is replaced by a truncation
that follows H up to s = 1 - 2 eps, blends smoothly (quintic Hermite,
matching value and two derivatives on the left, flat on the right) on
[1 - 2 eps, 1 - eps], and stays constant beyond.  The energy density
F(s) = integral_0^s dt / H~(t) and its derivatives are served from a
piecewise Chebyshev cache built once per (gamma, eps).
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

from .errors import DomainError, InternalConsistencyError

#: squared-speed cap of the density law; rho -> 0 there
def speed_limit_sq(gamma):
    return (gamma + 1.0) / (gamma - 1.0)


def stagnation_density(gamma):
    """Density at rest, the maximum of the subsonic branch."""
    return ((gamma + 1.0) / 2.0) ** (1.0 / (gamma - 1.0))


def density_from_speed(gamma, q2):
    """Density as a function of squared speed (normalized Bernoulli law)."""
    q2 = np.asarray(q2, dtype=float)
    if np.any(q2 < 0.0) or np.any(q2 > speed_limit_sq(gamma)):
        raise DomainError(
            f"squared speed must lie in [0, {speed_limit_sq(gamma):g}] "
            f"for gamma={gamma:g}"
        )
    rho = (0.5 * (gamma + 1.0 - (gamma - 1.0) * q2)) ** (1.0 / (gamma - 1.0))
    return float(rho) if rho.ndim == 0 else rho


def _mass_flux_density_raw(gamma, s, max_iter=200):
    """Subsonic-branch density for squared mass flux s, vectorized.

    Solves s/(2 rho^2) + rho^(gamma-1)/(gamma-1) = (gamma+1)/(2(gamma-1))
    on the bracket [1, rho_stagnation], where the residual is increasing.
    Newton with bisection safeguard; iterates until the bracket width is
    below 1e-13 because the root is ill-conditioned near s = 1 (the
    residual derivative vanishes at the sonic point).
    """
    s = np.asarray(s, dtype=float)
    const = 0.5 * (gamma + 1.0) / (gamma - 1.0)
    rho_hi = stagnation_density(gamma)

    def resid(rho):
        return 0.5 * s / rho**2 + rho ** (gamma - 1.0) / (gamma - 1.0) - const

    lo = np.ones_like(s)
    hi = np.full_like(s, rho_hi)
    rho = hi.copy()
    for _ in range(max_iter):
        f = resid(rho)
        lo = np.where(f < 0.0, rho, lo)
        hi = np.where(f >= 0.0, rho, hi)
        if np.max(hi - lo) <= 1e-13:
            break
        df = rho ** (gamma - 2.0) - s / rho**3
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = rho - f / df
        ok = (df > 0.0) & np.isfinite(cand) & (cand > lo) & (cand < hi)
        rho = np.where(ok, cand, 0.5 * (lo + hi))
    else:
        raise InternalConsistencyError("mass-flux density solve did not bracket down")
    rho = 0.5 * (lo + hi)
    if np.max(np.abs(resid(rho))) > 1e-12:
        raise InternalConsistencyError("mass-flux density residual above 1e-12")
    return rho


def _mass_flux_density_slope(gamma, s, rho):
    """d rho / d s on the subsonic branch: -rho / (2 (rho^(gamma+1) - s))."""
    return -rho / (2.0 * (rho ** (gamma + 1.0) - s))


def _mass_flux_density_curvature(gamma, s, rho):
    """Second derivative of the subsonic branch density in s."""
    d = rho ** (gamma + 1.0) - s
    return -rho * ((gamma + 2.0) * rho ** (gamma + 1.0) - s) / (4.0 * d**3)


@dataclass(frozen=True)
class EllipticityBounds:
    """Uniform eigenvalue bounds of the coefficient matrix over s in [0, s_cap]."""

    lam: float
    Lam: float
    s_cap: float

    def __post_init__(self):
        if not (0.0 < self.lam <= self.Lam < np.inf):
            raise InternalConsistencyError(
                f"ellipticity bounds out of order: {self.lam}, {self.Lam}"
            )


class GasModel:
    """Gas closures for one (gamma, eps) pair; immutable after construction.

    gamma : adiabatic exponent, > 1
    eps   : truncation half-width parameter, in (0, 1/4); the coefficient
            is exact for s <= 1 - 2 eps and frozen for s >= 1 - eps
    """

    def __init__(self, gamma=2.0, eps=0.1, cache_degree=48):
        if not gamma > 1.0:
            raise DomainError(f"gamma must exceed 1, got {gamma:g}")
        if not 0.0 < eps < 0.25:
            raise DomainError(f"eps must lie in (0, 1/4), got {eps:g}")
        self.gamma = float(gamma)
        self.eps = float(eps)
        self.s_blend_lo = 1.0 - 2.0 * self.eps
        self.s_blend_hi = 1.0 - self.eps
        self.rho_stagnation = stagnation_density(self.gamma)
        self.rho_cut = float(_mass_flux_density_raw(self.gamma, self.s_blend_hi))
        self._build_blend()
        self._build_flux_cache(cache_degree)

    # ------------------------------------------------------------------
    # pointwise closures

    def density_from_speed(self, q2):
        return density_from_speed(self.gamma, q2)

    def density_from_mass_flux(self, s):
        """Exact subsonic-branch density H(s); domain s in [0, 1]."""
        s = np.asarray(s, dtype=float)
        if np.any(s < 0.0):
            raise DomainError("squared mass flux must be nonnegative")
        if np.any(s > 1.0):
            raise DomainError(
                "squared mass flux above 1 has no subsonic density; "
                "use truncated_density for the regularized coefficient"
            )
        rho = _mass_flux_density_raw(self.gamma, s)
        return float(rho) if rho.ndim == 0 else rho

    def truncated_density(self, s):
        """Elliptic coefficient H~(s): H below the blend window, constant above.

        Evaluated by root solve; this is the oracle the cached flux law is
        checked against.  Hot paths read 1/F' from flux_eval.
        """
        return self._truncated(s)

    def _truncated(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        if np.any(s < 0.0):
            raise DomainError("squared mass flux must be nonnegative")
        val = np.full_like(s, self.rho_cut)
        low = s <= self.s_blend_lo
        if np.any(low):
            val[low] = _mass_flux_density_raw(self.gamma, s[low])
        mid = (s > self.s_blend_lo) & (s < self.s_blend_hi)
        if np.any(mid):
            t = (s[mid] - self.s_blend_lo) / self._blend_width
            val[mid] = _poly.polyval(t, self._blend_coef)
        return float(val[0]) if scalar else val

    def flux_eval(self, s):
        """(F, F', F'') from the Chebyshev cache; F'' is 0 past the blend."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        if np.any(s < 0.0):
            raise DomainError("squared mass flux must be nonnegative")
        F = np.empty_like(s)
        Fp = np.empty_like(s)
        Fpp = np.zeros_like(s)
        tail = s >= self.s_blend_hi
        if np.any(tail):
            F[tail] = self._flux_tail_offset + (s[tail] - self.s_blend_hi) / self.rho_cut
            Fp[tail] = 1.0 / self.rho_cut
        body = ~tail
        if np.any(body):
            sb = s[body]
            idx = np.searchsorted(self._piece_breaks, sb, side="right") - 1
            idx = np.clip(idx, 0, len(self._piece_breaks) - 2)
            Fb = np.empty_like(sb)
            Fpb = np.empty_like(sb)
            Fppb = np.empty_like(sb)
            for k in range(len(self._piece_breaks) - 1):
                sel = idx == k
                if not np.any(sel):
                    continue
                a, b = self._piece_breaks[k], self._piece_breaks[k + 1]
                t = (2.0 * sb[sel] - (a + b)) / (b - a)
                Fpb[sel] = _cheb.chebval(t, self._piece_fp[k])
                Fb[sel] = _cheb.chebval(t, self._piece_f[k]) + self._piece_off[k]
                Fppb[sel] = _cheb.chebval(t, self._piece_fpp[k])
            F[body] = Fb
            Fp[body] = Fpb
            Fpp[body] = Fppb
        if scalar:
            return float(F[0]), float(Fp[0]), float(Fpp[0])
        return F, Fp, Fpp

    def coefficient_matrix(self, grad):
        """Symmetric coefficient matrix of the linearized operator at grad(psi).

        a = F' I + 2 F'' grad grad^T at s = |grad|^2, half the Hessian of
        F(|grad|^2), with F' and F'' from the cache the energy reads.
        Accepts shape (..., 2); returns shape (..., 2, 2).
        """
        grad = np.asarray(grad, dtype=float)
        _, fp, fpp = self.flux_eval(np.sum(grad**2, axis=-1))
        fp = np.asarray(fp)[..., None, None]
        fpp = np.asarray(fpp)[..., None, None]
        outer = grad[..., :, None] * grad[..., None, :]
        return fp * np.eye(2) + 2.0 * fpp * outer

    def ellipticity_bounds(self, s_cap=2.0):
        """Sampled uniform eigenvalue bounds with 0.99 / 1.01 safety margins.

        The matrix has eigenvalues F' (orthogonal to the gradient) and
        F' + 2 s F'' (along it); both depend on s only, so sampling s in
        [0, s_cap] (densely inside the blend window) suffices.
        """
        samples = np.concatenate(
            [
                np.linspace(0.0, s_cap, 4001),
                np.linspace(self.s_blend_lo, self.s_blend_hi, 2001),
            ]
        )
        _, e_perp, fpp = self.flux_eval(samples)
        e_par = e_perp + 2.0 * samples * fpp
        lam = 0.99 * min(e_perp.min(), e_par.min())
        Lam = 1.01 * max(e_perp.max(), e_par.max())
        return EllipticityBounds(lam=float(lam), Lam=float(Lam), s_cap=s_cap)

    def cache_accuracy(self, n=1000, s_cap=2.0):
        """Max deviation of the cached F' from 1/H~ on an s sample."""
        s = np.linspace(0.0, s_cap, n)
        _, fp, _ = self.flux_eval(s)
        return float(np.max(np.abs(fp - 1.0 / self.truncated_density(s))))

    # ------------------------------------------------------------------
    # construction helpers

    def _build_blend(self):
        s0, s1 = self.s_blend_lo, self.s_blend_hi
        width = s1 - s0
        rho0 = float(_mass_flux_density_raw(self.gamma, s0))
        y0 = rho0
        d0 = _mass_flux_density_slope(self.gamma, s0, rho0) * width
        a0 = _mass_flux_density_curvature(self.gamma, s0, rho0) * width**2
        y1 = self.rho_cut
        # quintic Hermite in t = (s - s0)/width: value/slope/curvature match
        # H on the left, flat (y1, 0, 0) on the right
        c = np.zeros(6)
        c[0], c[1], c[2] = y0, d0, 0.5 * a0
        rhs = np.array(
            [y1 - (c[0] + c[1] + c[2]), -(c[1] + 2.0 * c[2]), -2.0 * c[2]]
        )
        mat = np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 5.0], [6.0, 12.0, 20.0]])
        c[3:] = np.linalg.solve(mat, rhs)
        der = _poly.polyder(c)
        t = np.linspace(0.0, 1.0, 513)
        if np.any(_poly.polyval(t, der) > 1e-12):
            # extreme gamma can make the quintic overshoot; drop the
            # curvature match and use a monotone cubic instead
            c = np.zeros(4)
            c[0], c[1] = y0, d0
            rhs = np.array([y1 - c[0] - c[1], -c[1]])
            mat = np.array([[1.0, 1.0], [2.0, 3.0]])
            c[2:] = np.linalg.solve(mat, rhs)
            der = _poly.polyder(c)
            if np.any(_poly.polyval(t, der) > 1e-12):
                raise InternalConsistencyError("blend polynomial is not decreasing")
        self._blend_coef = c
        self._blend_width = width

    def _piece_breakpoints(self):
        """Dyadic refinement toward s = 1, where H loses smoothness."""
        pts = [self.s_blend_lo]
        width = 2.0 * self.eps
        while True:
            width *= 4.0
            b = 1.0 - width
            if b <= 0.25:
                break
            pts.append(b)
        pts.append(0.0)
        return np.array(pts[::-1])

    def _build_flux_cache(self, degree):
        breaks = list(self._piece_breakpoints()) + [self.s_blend_hi]
        self._piece_breaks = np.array(breaks)
        self._piece_fp = []
        self._piece_f = []
        self._piece_fpp = []
        self._piece_off = []
        offset = 0.0
        for a, b in zip(breaks[:-1], breaks[1:]):
            def fprime(t, a=a, b=b):
                s = 0.5 * (a + b) + 0.5 * (b - a) * t
                return 1.0 / self._truncated(np.minimum(s, self.s_blend_hi))

            coef = _cheb.chebinterpolate(fprime, degree)
            integ = _cheb.chebint(coef, scl=0.5 * (b - a))
            integ[0] -= _cheb.chebval(-1.0, integ)
            deriv = _cheb.chebder(coef, scl=2.0 / (b - a))
            self._piece_fp.append(coef)
            self._piece_f.append(integ)
            self._piece_fpp.append(deriv)
            self._piece_off.append(offset)
            offset += float(_cheb.chebval(1.0, integ))
        self._flux_tail_offset = offset
