"""Truncation removal, parameter sweeps, and the approach to choking.

Everything here drives the basic solver through families of problems:
shrinking the truncation width until it provably does not bind, marching
a swirl or source parameter across its admissible range, locating the
parameter where removal first fails, and climbing a geometric ladder of
parameters toward that failure point while watching the velocity field
settle.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NonConvergenceError, NonMonotoneError, RegimeError
from .gas import EPS_MAX, GasModel
from .radial import RadialBackground
from .solver import (
    NEWTON_TOL,
    FlowProblem,
    FlowSolution,
    recover_fields,
    solve,
    weak_residuals,
)

DEFAULT_SCHEDULE = (0.2, 0.1, 0.05, 0.025, 0.0125)


@lru_cache(maxsize=64)
def _gas(gamma, eps):
    # gas models are immutable; sweeps rebuild the same handful of
    # (gamma, eps) pairs hundreds of times, so share them
    return GasModel(gamma, eps)


def checked_schedule(schedule, path="schedule"):
    """The truncation widths as a tuple, DEFAULT_SCHEDULE for None.

    A schedule is non-empty and strictly decreasing, and every width is
    one GasModel accepts; violations raise ConfigError at path.
    """
    sched = DEFAULT_SCHEDULE if schedule is None else tuple(float(e) for e in schedule)
    if len(sched) == 0:
        raise ConfigError(path, "empty truncation schedule")
    if any(not (0.0 < e < EPS_MAX) for e in sched):
        raise ConfigError(path, f"every width must lie in (0, {EPS_MAX:g})")
    if any(b >= a for a, b in zip(sched, sched[1:])):
        raise ConfigError(path, "widths must decrease strictly")
    return sched


def check_axis_values(axis, values):
    """Each value of {path: value} lies in the axis's open range, (0, 1) for
    kappa1 and (-1, 1) for kappa2; ConfigError at path."""
    axis = SweepAxis(axis)
    lo = 0.0 if axis is SweepAxis.KAPPA1 else -1.0
    for path, v in values.items():
        if not lo < v < 1.0:
            raise ConfigError(path, f"{axis.value} must lie in ({lo:g}, 1), got {v:g}")


def check_search(lo, hi, n_grid, axis, path=""):
    """The critical search's range rules; ConfigError at path + field."""
    if not (hi > lo):
        raise ConfigError(f"{path}hi", "need lo < hi")
    if n_grid < 3:
        raise ConfigError(f"{path}n_grid", "grid scan needs at least 3 points")
    check_axis_values(axis, {f"{path}lo": lo, f"{path}hi": hi})


def check_bracket_tol(tol, path="tol"):
    """The critical search's floor on the bracket width; ConfigError at path."""
    if tol < 1e-3:
        raise ConfigError(path, "bracket width below 1e-3 is not supported")


def check_ladder(lo, hi, n_seq, annulus, axis, path=""):
    """The sonic ladder's range rules; ConfigError at path + field."""
    if n_seq < 2:
        raise ConfigError(f"{path}n_seq", "a ladder needs at least 2 rungs")
    if not (hi > lo):
        raise ConfigError(f"{path}hi", "need lo < hi")
    if not (0.0 < annulus[0] < annulus[1]):
        raise ConfigError(f"{path}annulus", "need 0 < r_in < r_out")
    top = hi - (hi - lo) * 2.0 ** (1 - n_seq)  # the last rung; hi is never solved at
    check_axis_values(axis, {f"{path}lo": lo, f"{path}hi": top})


def checked_probe(mesh, annulus, path=""):
    """Triangles with centroid in the probe annulus; none is a ConfigError at path."""
    r_c = np.hypot(*mesh.centroids.T)
    probe = (r_c >= annulus[0]) & (r_c <= annulus[1])
    if not probe.any():
        raise ConfigError(f"{path}annulus", "probe annulus contains no triangles")
    return probe


@dataclass
class RemovalRung:
    """Outcome of one solve at a fixed truncation width."""

    eps: float
    s_max: float
    q_max: float
    energy: float
    newton_iterations: int
    certified: bool  # s_max < 1 - 2 eps: truncation provably inactive


@dataclass
class RemovalResult:
    """Schedule of solves ending at the first certified width, if any."""

    background: RadialBackground
    rungs: list
    solution: FlowSolution

    @property
    def removed(self):
        return self.rungs[-1].certified

    @property
    def eps_final(self):
        return self.rungs[-1].eps

    @property
    def s_max(self):
        return self.rungs[-1].s_max

    @property
    def q_max(self):
        return self.rungs[-1].q_max

    @property
    def energy(self):
        return self.rungs[-1].energy


def solve_with_truncation_removal(
    background,
    mesh,
    schedule=None,
    newton_tol=NEWTON_TOL,
    initial=None,
):
    """Shrink the truncation width until it stops binding.

    Walks the decreasing width schedule, re-solving at each width with
    the previous minimizer as the starting guess; only the flux law
    changes from one width to the next.  Stops at the first width whose
    solution keeps the mass flux below the exact region,
    s_max < 1 - 2 eps: past that point the truncated and untruncated
    energies coincide near the solution, so the minimizer solves the
    original problem and the result is flagged removed.  If no width in
    the schedule certifies, the last solve is returned with removed
    False.
    """
    sched = checked_schedule(schedule)
    gas = _gas(background.gamma, sched[0])
    problem = FlowProblem(gas, background, mesh, newton_tol=newton_tol)
    rungs = []
    guess = initial
    for eps in sched:
        if eps != problem.gas.eps:
            problem = problem.with_gas(_gas(background.gamma, eps))
        sol = solve(problem, initial=guess)
        guess = sol.u_reduced
        rungs.append(
            RemovalRung(
                eps=eps,
                s_max=sol.s_max,
                q_max=sol.q_max,
                energy=sol.energy,
                newton_iterations=sol.newton_iterations,
                certified=sol.s_max < problem.gas.s_blend_lo,
            )
        )
        if rungs[-1].certified:
            break
    return RemovalResult(background, rungs, sol)


def deepened_schedule(mesh, gamma, kappa1, pivot):
    """DEFAULT_SCHEDULE ending in a final width calibrated to a circle mesh.

    There the minimizer is the radial background, so s_max at swirl pivot
    is algebra on the centroids; half the headroom 1 - s_max as the final
    width flips removal right at the pivot.  Default widths at or below it
    (coarse meshes) are dropped.
    """
    bg = RadialBackground(_gas(gamma, 0.1), kappa1, pivot)
    s_max = np.max(np.sum(bg.stream_gradient(mesh.centroids) ** 2, axis=-1))
    eps_min = 0.5 * (1.0 - float(s_max))
    return tuple(e for e in DEFAULT_SCHEDULE if e > eps_min) + (eps_min,)


# ----------------------------------------------------------------------
# parameter sweeps


class SweepAxis(Enum):
    KAPPA1 = "kappa1"
    KAPPA2 = "kappa2"


@dataclass
class SweepRow:
    """One sweep sample; mirrors the CSV layout of the command line."""

    kappa1: float
    kappa2: float
    eps: float
    q_max: float
    s_max: float
    energy: float
    removed: bool
    converged: bool


@dataclass
class SweepResult:
    axis: SweepAxis
    rows: list = field(default_factory=list)

    def values(self):
        return np.array(
            [r.kappa1 if self.axis is SweepAxis.KAPPA1 else r.kappa2 for r in self.rows]
        )

    def modulus_of_continuity(self):
        """Largest |delta q_max| / |delta kappa| over adjacent converged rows."""
        vals = self.values()
        best = 0.0
        for a, b, va, vb in zip(self.rows, self.rows[1:], vals, vals[1:]):
            if a.converged and b.converged and vb != va:
                best = max(best, abs(b.q_max - a.q_max) / abs(vb - va))
        return best


def _kappa_pair(kappa1, kappa2, axis, value):
    if axis is SweepAxis.KAPPA1:
        return float(value), float(kappa2)
    return float(kappa1), float(value)


def _removal_step(gamma, kappa1, kappa2, axis, mesh, schedule, newton_tol):
    """The certified removal solve as a function of the axis value.

    The returned step(value, initial=None) sets the axis parameter to
    value, holds the other at its given value, and runs
    solve_with_truncation_removal from the optional warm start.
    """
    axis = SweepAxis(axis)
    sched = checked_schedule(schedule)

    def step(value, initial=None):
        background = RadialBackground(
            _gas(gamma, sched[0]), *_kappa_pair(kappa1, kappa2, axis, value)
        )
        return solve_with_truncation_removal(
            background,
            mesh,
            schedule=sched,
            newton_tol=newton_tol,
            initial=initial,
        )

    return step


def parameter_sweep(
    gamma,
    kappa1,
    kappa2,
    axis,
    values,
    mesh,
    schedule=None,
    newton_tol=NEWTON_TOL,
):
    """March one swirl parameter across a value list, warm-starting.

    The off-axis parameter is held at its given value.  A solve that
    fails to converge is recorded with NaN observables and the march
    continues from a cold start.
    """
    axis = SweepAxis(axis)
    check_axis_values(axis, {f"values[{i}]": v for i, v in enumerate(values)})
    step = _removal_step(gamma, kappa1, kappa2, axis, mesh, schedule, newton_tol)
    result = SweepResult(axis=axis)
    guess = None
    for v in values:
        k1, k2 = _kappa_pair(kappa1, kappa2, axis, v)
        try:
            rem = step(v, initial=guess)
        except NonConvergenceError:
            result.rows.append(
                SweepRow(k1, k2, np.nan, np.nan, np.nan, np.nan, False, False)
            )
            guess = None
            continue
        guess = rem.solution.u_reduced
        result.rows.append(
            SweepRow(
                kappa1=k1,
                kappa2=k2,
                eps=rem.eps_final,
                q_max=rem.q_max,
                s_max=rem.s_max,
                energy=rem.energy,
                removed=rem.removed,
                converged=True,
            )
        )
    return result


# ----------------------------------------------------------------------
# critical parameter search


@dataclass
class CriticalSearchResult:
    """Bracket [lo, hi] with removal certified at lo and failing at hi."""

    lo: float
    hi: float
    evaluations: list  # (value, removed) in evaluation order

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def midpoint(self):
        return 0.5 * (self.lo + self.hi)


def find_critical_parameter(
    gamma,
    kappa1,
    kappa2,
    axis,
    lo,
    hi,
    mesh,
    n_grid=9,
    tol=0.01,
    schedule=None,
    newton_tol=NEWTON_TOL,
):
    """Bisect for the parameter where truncation removal first fails.

    A coarse grid scan establishes that the removal predicate is a
    true-prefix / false-suffix pattern on [lo, hi]; any later flip back
    to removable aborts with the offending sample triple, since
    bisection would silently converge to a wrong edge there.  If the
    whole grid is removable the scan range is extended toward the
    admissible ceiling before giving up.  Bisection then narrows the
    leading true/false pair to the requested width.
    """
    step = _removal_step(gamma, kappa1, kappa2, axis, mesh, schedule, newton_tol)
    check_search(lo, hi, n_grid, axis)
    check_bracket_tol(tol)

    evaluations = []

    def removed(v):
        rem = step(v)
        evaluations.append((float(v), rem.removed))
        return rem.removed

    grid = list(np.linspace(lo, hi, n_grid))
    flags = [removed(v) for v in grid]

    extensions = 0
    while all(flags) and extensions < 4 and grid[-1] < 0.97:
        # everything removable so far: push the scan toward the
        # admissible ceiling in case the flip sits above the given range
        new_hi = min(0.98, grid[-1] + 0.5 * (1.0 - grid[-1]))
        extra = np.linspace(grid[-1], new_hi, 4)[1:]
        for v in extra:
            try:
                flags.append(removed(v))
            except RegimeError:
                break
            grid.append(float(v))
            if not flags[-1]:
                break
        extensions += 1

    if not flags[0]:
        raise RegimeError(
            "removal already fails at the lower search bound; no bracket exists"
        )
    if all(flags):
        raise NonConvergenceError(
            "removal never fails on the scanned range; no critical value found"
        )

    first_false = flags.index(False)
    for j in range(first_false + 1, len(flags)):
        if flags[j]:
            raise NonMonotoneError(
                (
                    (grid[first_false - 1], True),
                    (grid[first_false], False),
                    (grid[j], True),
                )
            )

    a, b = grid[first_false - 1], grid[first_false]
    while b - a > tol:
        m = 0.5 * (a + b)
        if removed(m):
            a = m
        else:
            b = m
    return CriticalSearchResult(lo=a, hi=b, evaluations=evaluations)


# ----------------------------------------------------------------------
# approach to the choking parameter


@dataclass
class LimitRung:
    """One ladder step toward the choking parameter."""

    kappa1: float
    kappa2: float
    eps: float
    removed: bool
    q_max: float
    s_max: float
    energy: float
    irrot_residual: float
    mass_residual: float
    velocity_shift: float | None  # max velocity change on the probe annulus


@dataclass
class LimitStudy:
    rungs: list
    annulus: tuple

    def q_max_sequence(self):
        return np.array([r.q_max for r in self.rungs])

    def velocity_shifts(self):
        return np.array([r.velocity_shift for r in self.rungs[1:]])


def sonic_limit_study(
    gamma,
    kappa1,
    kappa2,
    axis,
    lo,
    hi,
    n_seq,
    mesh,
    annulus=(1.5, 4.0),
    schedule=None,
    newton_tol=NEWTON_TOL,
):
    """Climb half the remaining gap toward hi at every ladder rung.

    Rung j solves with the axis parameter at hi - (hi - lo) / 2^j, so
    the values approach hi geometrically from below without reaching it;
    [lo, hi] is typically the bracket found by the critical search.
    Velocities are compared rung to rung on the fixed set of triangles
    whose centroids fall in the probe annulus, giving a Cauchy-type
    record of how the flow settles as the parameter closes in on
    choking.
    """
    step = _removal_step(gamma, kappa1, kappa2, axis, mesh, schedule, newton_tol)
    check_ladder(lo, hi, n_seq, annulus, axis)
    r_in, r_out = float(annulus[0]), float(annulus[1])
    probe = checked_probe(mesh, annulus)

    rungs = []
    prev_velocity = None
    guess = None
    for j in range(n_seq):
        rem = step(hi - (hi - lo) * 2.0 ** (-j), initial=guess)
        guess = rem.solution.u_reduced
        irrot, mass = weak_residuals(rem.solution)
        velocity = recover_fields(rem.solution).velocity[probe]
        shift = None
        if prev_velocity is not None:
            shift = float(np.max(np.linalg.norm(velocity - prev_velocity, axis=-1)))
        prev_velocity = velocity
        rungs.append(
            LimitRung(
                kappa1=rem.background.kappa1,
                kappa2=rem.background.kappa2,
                eps=rem.eps_final,
                removed=rem.removed,
                q_max=rem.q_max,
                s_max=rem.s_max,
                energy=rem.energy,
                irrot_residual=irrot,
                mass_residual=mass,
                velocity_shift=shift,
            )
        )
    return LimitStudy(rungs=rungs, annulus=(r_in, r_out))
