"""Command-line front end.

One JSON config in, deterministic artifacts out.  Subcommands map onto
the library pipelines: radial (background classification), solve (one
stream-function solve), sweep (parameter march), critical (bisection for
the removability boundary), limit (ladder toward choking).  Exit codes:
0 success, 2 config validation, 3 numerical failure, 4 I/O failure.
"""

import argparse
import json
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import continuation as ct
from .config import parse_config
from .errors import (
    ConfigError,
    InternalConsistencyError,
    MeshQualityError,
    NonConvergenceError,
    NonMonotoneError,
    RegimeError,
)
from .gas import GasModel
from .meshing import build_annulus_mesh
from .radial import RadialBackground
from .solver import (
    boundary_flux,
    decay_report,
    recover_fields,
    weak_residuals,
)
from .vtkio import format_double, write_vtk

_NUMERICAL_ERRORS = (
    NonConvergenceError,
    NonMonotoneError,
    RegimeError,
    MeshQualityError,
    InternalConsistencyError,
)


def _write_text(path: Path, text: str):
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, bool):
                cells.append("true" if v else "false")
            else:
                cells.append(format_double(v))
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")


def _say(quiet, msg):
    if not quiet:
        print(msg)


def _background(cfg):
    return RadialBackground(GasModel(cfg.gamma, 0.1), cfg.kappa1, cfg.kappa2)


def _mesh(cfg):
    return build_annulus_mesh(cfg.body.build(), cfg.mesh.R_out, cfg.mesh.h)


def _base_report(cfg):
    return {
        "spec_version": 1,
        "config_sha1": cfg.sha1,
        "gamma": cfg.gamma,
        "kappa1": cfg.kappa1,
        "kappa2": cfg.kappa2,
        "far_field": "gauge",
    }


# ----------------------------------------------------------------------
# subcommands


def _run_radial(cfg, outdir, quiet):
    r_max = cfg.radial.r_max
    bg = _background(cfg)
    cls = bg.classify(r_max=r_max)
    m1sq, m2sq, _ = bg.mach_numbers_at_body()
    report = _base_report(cfg)
    report.update(
        {
            "regime": cls.regime.value,
            "r_max": r_max,
            "max_msq": cls.max_msq,
            "ode_vs_algebra_mismatch": cls.max_rel_mismatch,
            "body_state": {
                "rho0": bg.rho0,
                "M1sq": m1sq,
                "M2sq": m2sq,
                "source_strength": bg.source_strength,
            },
        }
    )
    _write_json(outdir / "report.json", report)
    _say(quiet, f"regime: {cls.regime.value}  (max M^2 = {cls.max_msq:.6g})")


def _run_solve(cfg, outdir, quiet):
    bg = _background(cfg)
    mesh = _mesh(cfg)
    rem = ct.solve_with_truncation_removal(
        bg,
        mesh,
        schedule=cfg.eps_schedule,
        newton_tol=cfg.tolerances.newton_tol,
    )
    sol = rem.solution
    fields = recover_fields(sol)
    irrot, mass = weak_residuals(sol)
    decay = decay_report(sol)

    write_vtk(
        outdir / "solution.vtk",
        mesh,
        point_data={"correction": sol.u_full},
        cell_data={
            "density": fields.density,
            "speed": fields.speed,
            "mach": fields.mach,
            "mass_flux_sq": sol.state.s,
            "velocity": fields.velocity,
        },
        title="spiral flow past a porous body",
    )
    _write_csv(
        outdir / "rings.csv",
        ("ring_radius", "max_correction_gradient"),
        zip(decay.ring_radii, decay.ring_maxima),
    )
    report = _base_report(cfg)
    report.update(
        {
            "mesh": {
                "h": cfg.mesh.h,
                "R_out": cfg.mesh.R_out,
                "points": mesh.n_points,
                "triangles": mesh.n_triangles,
                "min_angle_deg": mesh.min_angle_deg(),
            },
            "removed": rem.removed,
            "eps_final": rem.eps_final,
            "rungs": [asdict(r) for r in rem.rungs],
            "energy": rem.energy,
            "q_max": rem.q_max,
            "s_max": rem.s_max,
            "irrot_residual": irrot,
            "mass_residual": mass,
            "body_flux": boundary_flux(sol),
            "body_flux_expected": float(2.0 * np.pi * bg.source_strength),
            "decay": {
                "exact_match": decay.exact_match,
                "slope": decay.slope,
            },
        }
    )
    _write_json(outdir / "report.json", report)
    _say(
        quiet,
        f"solved: removed={rem.removed} eps={rem.eps_final:g} "
        f"q_max={rem.q_max:.6g} energy={rem.energy:.6g}",
    )


_SWEEP_COLUMNS = tuple(f.name for f in fields(ct.SweepRow))


def _run_sweep(cfg, outdir, quiet):
    res = ct.parameter_sweep(
        cfg.gamma,
        cfg.kappa1,
        cfg.kappa2,
        cfg.axis,
        cfg.section("grid"),
        _mesh(cfg),
        schedule=cfg.eps_schedule,
        newton_tol=cfg.tolerances.newton_tol,
    )
    _write_csv(outdir / "sweep.csv", _SWEEP_COLUMNS, map(astuple, res.rows))
    report = _base_report(cfg)
    report.update(
        {
            "axis": cfg.axis,
            "n_points": len(res.rows),
            "n_converged": sum(r.converged for r in res.rows),
            "n_removed": sum(r.removed for r in res.rows if r.converged),
            "modulus_of_continuity": res.modulus_of_continuity(),
        }
    )
    _write_json(outdir / "report.json", report)
    _say(quiet, f"swept {len(res.rows)} points along {cfg.axis}")


def _run_critical(cfg, outdir, quiet):
    search = cfg.section("search")
    res = ct.find_critical_parameter(
        cfg.gamma,
        cfg.kappa1,
        cfg.kappa2,
        cfg.axis,
        search.lo,
        search.hi,
        _mesh(cfg),
        n_grid=search.n_grid,
        tol=cfg.tolerances.critical_tol,
        schedule=cfg.eps_schedule,
        newton_tol=cfg.tolerances.newton_tol,
    )
    report = _base_report(cfg)
    report.update(
        {
            "axis": cfg.axis,
            "bracket_lo": res.lo,
            "bracket_hi": res.hi,
            "bracket_width": res.width,
            "midpoint": res.midpoint,
            "n_evaluations": len(res.evaluations),
            "evaluations": [
                {"value": v, "removed": bool(f)} for v, f in res.evaluations
            ],
        }
    )
    _write_json(outdir / "report.json", report)
    _say(quiet, f"critical bracket: [{res.lo:.6g}, {res.hi:.6g}]")


def _run_limit(cfg, outdir, quiet):
    ladder = cfg.section("ladder")
    mesh = _mesh(cfg)
    ct.checked_probe(mesh, ladder.annulus, path="ladder.")
    study = ct.sonic_limit_study(
        cfg.gamma,
        cfg.kappa1,
        cfg.kappa2,
        cfg.axis,
        ladder.lo,
        ladder.hi,
        ladder.n_seq,
        mesh,
        annulus=ladder.annulus,
        schedule=cfg.eps_schedule,
        newton_tol=cfg.tolerances.newton_tol,
    )
    rungs = [asdict(r) for r in study.rungs]
    # every rung converged; the CSV shares the sweep's columns
    rows = ({**r, "converged": True} for r in rungs)
    _write_csv(
        outdir / "ladder.csv",
        _SWEEP_COLUMNS,
        ([row[c] for c in _SWEEP_COLUMNS] for row in rows),
    )
    report = _base_report(cfg)
    report.update(
        {
            "axis": cfg.axis,
            "annulus": list(study.annulus),
            "n_seq": ladder.n_seq,
            "rungs": rungs,
        }
    )
    _write_json(outdir / "report.json", report)
    _say(
        quiet,
        f"ladder of {ladder.n_seq} rungs; final q_max = {study.rungs[-1].q_max:.6g}",
    )


_RUNNERS = {
    "radial": _run_radial,
    "solve": _run_solve,
    "sweep": _run_sweep,
    "critical": _run_critical,
    "limit": _run_limit,
}


# ----------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spiralflow",
        description="Subsonic spiral flow outside a porous body.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("radial", "classify the radial background flow"),
        ("solve", "one stream-function solve with truncation removal"),
        ("sweep", "march a swirl parameter across a grid"),
        ("critical", "bisect for the removability boundary"),
        ("limit", "ladder study approaching choking"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--output", default=None, help="artifact directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        try:
            raw = Path(args.config).read_bytes()
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 4
        cfg = parse_config(raw)
        outdir = Path(args.output or cfg.output_dir or ".")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            _RUNNERS[args.command](cfg, outdir, args.quiet)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
