"""Calibrate the final truncation level for the critical-swirl search.

On a circular body the discrete minimizer is the radial background, so
the largest mass-flux-squared a solve can report at swirl kappa2 is
max over centroids of |grad psi0|^2 -- no solve needed.  The removal
predicate `s_max < 1 - 2*eps` therefore flips exactly where that
algebraic ceiling crosses 1 - 2*eps.  This script tabulates the ceiling
over a swirl range, derives the eps that puts the flip at a chosen
pivot, and (optionally) runs the actual search to confirm the bracket.

Typical use:

    python3 scripts/calibrate_critical_search.py --h 0.05 --search
"""

import argparse
import time

import numpy as np

from spiralflow import continuation as ct
from spiralflow.gas import GasModel
from spiralflow.meshing import Circle, build_annulus_mesh
from spiralflow.radial import RadialBackground


def flux_ceiling(mesh, gamma, kappa1, kappa2):
    bg = RadialBackground(GasModel(gamma, 0.1), kappa1, kappa2)
    return float(np.max(np.sum(bg.stream_gradient(mesh.centroids) ** 2, axis=-1)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gamma", type=float, default=2.0)
    ap.add_argument("--kappa1", type=float, default=0.6)
    ap.add_argument("--h", type=float, default=0.05)
    ap.add_argument("--r-out", type=float, default=20.0)
    ap.add_argument("--pivot", type=float, default=0.794,
                    help="swirl where the removal predicate should flip")
    ap.add_argument("--lo", type=float, default=0.4)
    ap.add_argument("--hi", type=float, default=0.9)
    ap.add_argument("--tol", type=float, default=0.02)
    ap.add_argument("--search", action="store_true",
                    help="run find_critical_parameter with the calibrated schedule")
    args = ap.parse_args()

    mesh = build_annulus_mesh(Circle(1.0), args.r_out, args.h)
    print(f"mesh: h={args.h} R_out={args.r_out} "
          f"({mesh.n_points} nodes, {mesh.n_triangles} triangles)")

    sonic = np.sqrt(1.0 - args.kappa1 ** 2)
    print(f"body state sonic at swirl {sonic:.6f} for kappa1={args.kappa1}")

    print("\n swirl   flux ceiling   1 - ceiling")
    for k2 in np.linspace(args.lo, min(args.hi, 0.98), 13):
        s = flux_ceiling(mesh, args.gamma, args.kappa1, k2)
        print(f" {k2:5.3f}   {s:.8f}   {1.0 - s:9.3e}")

    sched = ct.deepened_schedule(mesh, args.gamma, args.kappa1, args.pivot)
    eps_min = sched[-1]
    print(f"\npivot {args.pivot}: ceiling {1.0 - 2.0 * eps_min:.10f} "
          f"-> eps_min {eps_min:.6e}")
    print(f"schedule: {sched}")

    if args.search:
        t0 = time.perf_counter()
        res = ct.find_critical_parameter(
            args.gamma, args.kappa1, 0.0, "kappa2", args.lo, args.hi,
            mesh, n_grid=11, tol=args.tol, schedule=sched,
        )
        wall = time.perf_counter() - t0
        print(f"\nbracket [{res.lo:.6f}, {res.hi:.6f}] "
              f"width {res.width:.6f} after {len(res.evaluations)} removals "
              f"in {wall:.1f}s")


if __name__ == "__main__":
    main()
