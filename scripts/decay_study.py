"""Far-field decay of the correction versus body symmetry.

Solves the flow around rippled bodies r = a + b*cos(k*theta) for a few
wave numbers k and domain sizes, fits the slope of the max-ring
correction gradient on geometric rings, and compares with the lowest
angular mode the body data can excite: a k-fold ripple produces
boundary data with Fourier support on multiples of k, so the correction
behaves like r**-(k+1) far out.

    python3 scripts/decay_study.py --h 0.2
"""

import argparse

import numpy as np

from spiralflow import solver as sv
from spiralflow.gas import GasModel
from spiralflow.meshing import PerturbedCircle, build_annulus_mesh
from spiralflow.radial import RadialBackground


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gamma", type=float, default=2.0)
    ap.add_argument("--eps", type=float, default=0.05)
    ap.add_argument("--kappa1", type=float, default=0.3)
    ap.add_argument("--kappa2", type=float, default=0.2)
    ap.add_argument("--radius", type=float, default=1.2)
    ap.add_argument("--amplitude", type=float, default=0.1)
    ap.add_argument("--h", type=float, default=0.2)
    ap.add_argument("--wave-numbers", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--domains", type=float, nargs="+", default=[16.0, 32.0, 64.0])
    args = ap.parse_args()

    gas = GasModel(args.gamma, args.eps)
    bg = RadialBackground(gas, args.kappa1, args.kappa2)

    print("  k   R_out    slope    model -(k+1)   iterations")
    for k in args.wave_numbers:
        body = PerturbedCircle(args.radius, args.amplitude, k)
        for R in args.domains:
            mesh = build_annulus_mesh(body, R, args.h)
            sol = sv.solve(sv.FlowProblem(gas, bg, mesh))
            rep = sv.decay_report(sol)
            slope = "exact 0" if rep.exact_match else f"{rep.slope:8.4f}"
            print(f"  {k}   {R:5.0f}   {slope}   {-(k + 1):6.1f}       "
                  f"{sol.newton_iterations}")
        print()

    print("rings are geometric between twice the body scale and half the "
          "domain radius; slopes are least squares in log-log")


if __name__ == "__main__":
    main()
