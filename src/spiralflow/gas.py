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

#: truncation widths eps must lie in (0, EPS_MAX)
EPS_MAX = 0.25

#: the ellipticity bounds and the cache check sample s in [0, _S_CAP]
_S_CAP = 2.0


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


def piecewise_chebval(breaks, x, *series):
    """Values at x of each series, where series[j][k] holds the Chebyshev
    coefficients of series j on [breaks[k], breaks[k + 1]]."""
    idx = np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, len(breaks) - 2)
    out = [np.empty_like(x) for _ in series]
    for k in range(len(breaks) - 1):
        sel = idx == k
        if np.any(sel):
            a, b = breaks[k], breaks[k + 1]
            xk = (2.0 * x[sel] - (a + b)) / (b - a)
            for vals, coef in zip(out, series):
                vals[sel] = _cheb.chebval(xk, coef[k])
    return out


def chained_antiderivative(breaks, series):
    """Continuous antiderivative, 0 at breaks[0], of a piecewise series, and its end value."""
    out, end = [], 0.0
    for coef, a, b in zip(series, breaks[:-1], breaks[1:]):
        out.append(_cheb.chebint(coef, k=end, lbnd=-1.0, scl=0.5 * (b - a)))
        end = float(_cheb.chebval(1.0, out[-1]))
    return out, end


def bracketed_root(resid, lo, hi, what):
    """Root of resid, increasing on each bracket [lo, hi], vectorized.

    Plain bisection: each point halves its own bracket until no float lies
    strictly inside and returns that bracket's midpoint, so its root does not
    depend on the rest of the batch; the loop ends when the last bracket
    collapses.  A residual there above 1e-12, or NaN, is an
    InternalConsistencyError that names what.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    live = (lo < mid) & (mid < hi)
    while np.any(live):
        up = resid(mid) >= 0.0  # a NaN residual moves lo, so the loop still ends
        lo = np.where(live & ~up, mid, lo)
        hi = np.where(live & up, mid, hi)
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
    if not np.all(np.abs(resid(mid)) <= 1e-12):
        raise InternalConsistencyError(f"{what} residual above 1e-12")
    return mid


def _mass_flux_density_raw(gamma, s):
    """Subsonic-branch density for squared mass flux s, vectorized.

    Solves s/(2 rho^2) + rho^(gamma-1)/(gamma-1) = (gamma+1)/(2(gamma-1))
    by bisection on [1, rho_stagnation], where the residual is increasing;
    near s = 1 the root is ill-conditioned (the residual's slope vanishes
    at the sonic point), but bisection needs no slope.
    """
    s = np.asarray(s, dtype=float)
    const = 0.5 * (gamma + 1.0) / (gamma - 1.0)

    def resid(rho):
        return 0.5 * s / rho**2 + rho ** (gamma - 1.0) / (gamma - 1.0) - const

    hi = np.full_like(s, stagnation_density(gamma))
    return bracketed_root(resid, np.ones_like(s), hi, "mass-flux density")


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

    def __init__(self, gamma=2.0, eps=0.1):
        if not gamma > 1.0:
            raise DomainError(f"gamma must exceed 1, got {gamma:g}")
        if not 0.0 < eps < EPS_MAX:
            raise DomainError(f"eps must lie in (0, 1/4), got {eps:g}")
        self.gamma = float(gamma)
        self.eps = float(eps)
        self.s_blend_lo = 1.0 - 2.0 * self.eps
        self.s_blend_hi = 1.0 - self.eps
        self.rho_cut = float(_mass_flux_density_raw(self.gamma, self.s_blend_hi))
        self._build_blend()
        self._build_flux_cache()

    # ------------------------------------------------------------------
    # pointwise closures

    def density_from_mass_flux(self, s):
        """Exact subsonic-branch density H(s); domain s in [0, 1]."""
        s = np.asarray(s, dtype=float)
        if np.any(s < 0.0):
            raise DomainError("squared mass flux must be nonnegative")
        # round-off can put a sonic state from density_from_speed just above 1
        if np.any(s > 1.0 + 1e-14):
            raise DomainError(
                "squared mass flux above 1 has no subsonic density; "
                "use truncated_density for the regularized coefficient"
            )
        rho = _mass_flux_density_raw(self.gamma, np.minimum(s, 1.0))
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

    def flux_eval(self, s, orders=(0, 1, 2)):
        """The derivatives of F of the given orders at s, in that order, from
        the Chebyshev cache, evaluating only those; F'' is 0 past the blend."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        if np.any(s < 0.0):
            raise DomainError("squared mass flux must be nonnegative")
        out = [np.empty_like(s) for _ in orders]
        tail = s >= self.s_blend_hi
        if np.any(tail):
            f_tail = self._flux_tail_offset + (s[tail] - self.s_blend_hi) / self.rho_cut
            for vals, k in zip(out, orders):
                vals[tail] = (f_tail, 1.0 / self.rho_cut, 0.0)[k]
        body = ~tail
        if np.any(body):
            series = [self._pieces[k] for k in orders]
            for vals, v in zip(out, piecewise_chebval(self._piece_breaks, s[body], *series)):
                vals[body] = v
        if scalar:
            return tuple(float(v[0]) for v in out)
        return tuple(out)

    def coefficient_matrix(self, grad, derivs=None):
        """Symmetric coefficient matrix of the linearized operator at grad(psi).

        a = F' I + 2 F'' grad grad^T at s = |grad|^2, half the Hessian of
        F(|grad|^2), with derivs = (F', F'') at s or, by default, both
        from the cache the energy reads.
        Accepts shape (..., 2); returns shape (..., 2, 2).
        """
        grad = np.asarray(grad, dtype=float)
        if derivs is None:
            derivs = self.flux_eval(np.sum(grad**2, axis=-1), (1, 2))
        fp, fpp = (np.asarray(d)[..., None, None] for d in derivs)
        outer = grad[..., :, None] * grad[..., None, :]
        return fp * np.eye(2) + 2.0 * fpp * outer

    def ellipticity_bounds(self):
        """Sampled uniform eigenvalue bounds with 0.99 / 1.01 safety margins.

        The matrix has eigenvalues F' (orthogonal to the gradient) and
        F' + 2 s F'' (along it); both depend on s only, so sampling s in
        [0, 2] (densely inside the blend window) suffices.
        """
        samples = np.concatenate(
            [
                np.linspace(0.0, _S_CAP, 4001),
                np.linspace(self.s_blend_lo, self.s_blend_hi, 2001),
            ]
        )
        e_perp, fpp = self.flux_eval(samples, (1, 2))
        e_par = e_perp + 2.0 * samples * fpp
        lam = 0.99 * min(e_perp.min(), e_par.min())
        Lam = 1.01 * max(e_perp.max(), e_par.max())
        return EllipticityBounds(lam=float(lam), Lam=float(Lam), s_cap=_S_CAP)

    def cache_accuracy(self):
        """Max deviation of the cached F' from 1/H~ on 1000 samples of [0, 2]."""
        s = np.linspace(0.0, _S_CAP, 1000)
        (fp,) = self.flux_eval(s, (1,))
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

    def _build_flux_cache(self):
        breaks = list(self._piece_breakpoints()) + [self.s_blend_hi]
        self._piece_breaks = np.array(breaks)
        fprimes, derivs = [], []
        for a, b in zip(breaks[:-1], breaks[1:]):
            def fprime(t, a=a, b=b):
                s = 0.5 * (a + b) + 0.5 * (b - a) * t
                return 1.0 / self._truncated(np.minimum(s, self.s_blend_hi))

            fprimes.append(_cheb.chebinterpolate(fprime, 48))
            derivs.append(_cheb.chebder(fprimes[-1], scl=2.0 / (b - a)))
        flux, self._flux_tail_offset = chained_antiderivative(breaks, fprimes)
        self._pieces = (flux, fprimes, derivs)  # F, F', F'' per piece
