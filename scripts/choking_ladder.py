"""Climb the swirl ladder toward choking and watch the flow settle.

Runs the geometric parameter ladder v_j = hi - (hi - lo) / 2**j on the
circular-body anchor, printing per-rung truncation level, body-flux
peak, top speed, the velocity shift on a probe annulus, and the weak
residuals.  Near the ceiling the default truncation schedule stops
certifying, so the final level is calibrated to the mesh the same way
the critical search does it.

    python3 scripts/choking_ladder.py --h 0.05 --n-seq 8
"""

import argparse

import numpy as np

from spiralflow import continuation as ct
from spiralflow.meshing import Circle, build_annulus_mesh


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gamma", type=float, default=2.0)
    ap.add_argument("--kappa1", type=float, default=0.6)
    ap.add_argument("--h", type=float, default=0.05)
    ap.add_argument("--r-out", type=float, default=20.0)
    ap.add_argument("--lo", type=float, default=0.4)
    ap.add_argument("--hi", type=float, default=None,
                    help="ladder ceiling; default is the sonic body swirl")
    ap.add_argument("--n-seq", type=int, default=8)
    args = ap.parse_args()

    hi = args.hi
    if hi is None:
        hi = float(np.sqrt(1.0 - args.kappa1 ** 2))
    mesh = build_annulus_mesh(Circle(1.0), args.r_out, args.h)
    print(f"mesh: h={args.h} R_out={args.r_out} ({mesh.n_triangles} triangles)")
    print(f"ladder: {args.n_seq} rungs on [{args.lo}, {hi:.6f}]")

    sched = ct.deepened_schedule(mesh, args.gamma, args.kappa1, 0.794)
    print(f"schedule: {tuple(round(e, 6) for e in sched)}\n")

    study = ct.sonic_limit_study(
        args.gamma, args.kappa1, 0.0, "kappa2", args.lo, hi, args.n_seq,
        mesh, schedule=sched,
    )

    print("  j    swirl        eps        s_max     q_max    vel shift   "
          "irrot res   mass res")
    for j, r in enumerate(study.rungs):
        shift = "    --    " if r.velocity_shift is None else f"{r.velocity_shift:.3e}"
        print(f"  {j}   {r.kappa2:.6f}   {r.eps:9.6f}   {r.s_max:.5f}   "
              f"{r.q_max:.5f}   {shift}   {r.irrot_residual:.2e}   "
              f"{r.mass_residual:.2e}")

    q = study.q_max_sequence()
    print(f"\ntop speed climbs {q[0]:.4f} -> {q[-1]:.4f}; "
          f"gap to sonic {1.0 - q[-1]:.4f}")


if __name__ == "__main__":
    main()
