"""spiralflow benchmark: one workload, one seed, one JSON result line.

Run from the root of a source checkout:

    python3 bench/run.py --workload wavy_refine --seed 0 --seconds 30 --trace 0

With --trace 0 the run sets up several times (median is `setup_s`),
then repeats the workload's round for about --seconds and reports
end-to-end metrics.  Its times are scaled to the nominal speed of a
fixed reference computation timed around every round and set-up
(`reference.py`; NOTES.md says why).  With --trace 1 it sets up once
under the tracer, repeats traced rounds for about --seconds and reports
per-layer metrics.
The last line of standard output is the result object; the line before
it holds provenance and the details behind the metrics.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import NOMINAL_REP_S, REPS, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
T_START = time.perf_counter()
SETUP_REPEATS = 5
FIRST_REPS = 100  # 2 s of reference reps before the first round
FRESH_IMPORT = "import spiralflow.cli, spiralflow.continuation"

# per-layer self times: metric -> span names whose self time it sums
LAYER_SELF_TIMES = {
    "meshing.build_s": ("meshing.build_annulus_mesh",),
    "meshing.quality_s": ("meshing.mesh_quality_report",),
    "radial.stream_gradient_s": ("radial.stream_gradient",),
    "radial.swirl_stream_s": ("radial.swirl_stream",),
    "gas.model_build_s": ("gas.model_build",),
    "gas.flux_eval_s": ("gas.flux_eval",),
    "gas.coefficient_matrix_s": ("gas.coefficient_matrix",),
    "gas.truncated_density_s": ("gas.truncated_density",),
    "solver.problem_setup_s": ("solver.problem_setup",),
    "solver.energy_s": ("solver.energy",),
    "solver.gradient_s": ("solver.gradient",),
    "solver.hessian_s": ("solver.hessian",),
    "solver.linear_solve_s": ("solver.splu", "solver.lu_solve"),
    "solver.newton_self_s": ("solver.solve",),
    "solver.boundary_flux_s": ("solver.boundary_flux",),
    "solver.recover_fields_s": ("solver.recover_fields",),
    "solver.weak_residuals_s": ("solver.weak_residuals",),
    "solver.decay_report_s": ("solver.decay_report",),
    "continuation.removal_self_s": ("continuation.solve_with_truncation_removal",),
    "continuation.search_self_s": ("continuation.find_critical_parameter",),
    "cli.main_s": ("cli.main",),
    "config.parse_s": ("config.parse_config",),
    "vtkio.write_s": ("vtkio.write_vtk",),
}
LAYER_CALLS = {
    "gas.model_builds": "gas.model_build",
    "solver.problem_builds": "solver.problem_setup",
    "solver.newton_iters": "solver.hessian",
    "solver.energy_evals": "solver.energy",
    "solver.linear_solves": "solver.splu",
    "continuation.removals": "continuation.solve_with_truncation_removal",
}
LAYER_AMOUNTS = {
    "radial.stream_gradient_points": "radial.stream_gradient",
    "gas.flux_eval_points": "gas.flux_eval",
    "vtkio.bytes": "vtkio.write_vtk",
}
SETUP_PHASE = -1
# a run must end within 180 s; a round still going at this many seconds
# into the run is stopped and what it was doing counts as failed
RUN_DEADLINE_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description="spiralflow benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # tiny meshes for the benchmark's own self-check
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def fresh_import_seconds():
    """Wall time of a new interpreter that imports the package and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", FRESH_IMPORT], env=env, check=True)
    return time.perf_counter() - t0


def provenance(args):
    import numpy
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
        )
        git_sha = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": {
            v: os.environ.get(v, "default")
            for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


class Tally:
    """Operations attempted and failed, and output checks, over a run's rounds."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.checks_made = 0
        self.check_failures = []

    def add(self, out):
        attempted, failures, checks = self.workload.check(out)
        self.attempted += attempted
        self.failures += failures
        self.checks_made += len(checks)
        self.check_failures += [name for name, ok in checks.items() if not ok]


def run_rounds(workload, seconds, tally, before=None, after=None):
    """Closed loop: rounds back to back, at least one, stopping where the
    run ends nearest to `seconds` or at the run's deadline.  The hooks
    get the walls so far."""
    from workloads import DeadlineExceeded

    def expire(signum, frame):
        signal.setitimer(signal.ITIMER_REAL, 0.2)  # stop each later operation too
        raise DeadlineExceeded(f"stopped at the run's {RUN_DEADLINE_S} s deadline")

    signal.signal(signal.SIGALRM, expire)
    deadline = T_START + RUN_DEADLINE_S
    walls = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if before:
            before(walls)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, max(deadline - t0, 1e-3))
        try:
            try:
                out = workload.run_round()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded as exc:
            out = exc
        now = time.perf_counter()
        walls.append(now - t0)
        if after:
            after(walls)
        if isinstance(out, DeadlineExceeded):
            tally.attempted += 1
            tally.failures.append(f"round: {out}")
        else:
            tally.add(out)
        if now >= deadline or now - start + 0.5 * statistics.median(walls) >= seconds:
            return walls


def metric(value, unit):
    return {"value": value, "unit": unit}


def scaled(walls, refs):
    """Each wall rescaled to the reference's nominal speed, by the mean
    of the reference times measured right before and right after it."""
    return [w * NOMINAL_REP_S / (0.5 * (a + b)) for w, a, b in zip(walls, refs, refs[1:])]


def untraced_run(workload, args, tally, details):
    setups, setup_refs = [], [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        t_import = fresh_import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(t_import + time.perf_counter() - t0)
        setup_refs.append(reference_seconds())

    def sample(walls):
        """Host speed before a round: for 2 s before the first, then for a
        tenth of the last round, but no longer than the first, so that a
        run whose round stalls stays inside its time limit."""
        reps = max(REPS, round(0.1 * walls[-1] / NOMINAL_REP_S)) if walls else FIRST_REPS
        refs.append(reference_seconds(min(reps, FIRST_REPS)))

    refs = []
    walls = run_rounds(workload, args.seconds, tally, before=sample)
    sample(walls)
    round_s, setup_s = scaled(walls, refs), scaled(setups, setup_refs)
    details.update(
        setup_walls=setups, setup_refs=setup_refs, round_walls=walls, round_refs=refs,
        round_scaled=round_s, raw_wall_median_s=statistics.median(walls),
    )
    # mean over the run, not median: with the host's speed taken out, the
    # rounds scatter evenly, and the mean of a run's rounds moved less from
    # run to run than their median (NOTES.md)
    return {
        "wall_s": metric(statistics.mean(round_s), "s"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": metric(1.0 - len(tally.failures) / tally.attempted, "frac"),
        "checks_passed_frac": metric(
            1.0 - len(tally.check_failures) / max(tally.checks_made, 1), "frac"
        ),
    }


def traced_run(workload, args, tally, details):
    from tracer import Tracer, backtracks, self_times, span_cost

    tracer = Tracer()
    tracer.phase = SETUP_PHASE
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()

    def before(walls):
        tracer.phase = len(walls)
        tracer.install()

    walls = run_rounds(workload, args.seconds, tally, before, lambda _: tracer.uninstall())
    spans = tracer.spans
    selfs = self_times(spans)
    n = len(walls)

    def per_run(values):
        """One set-up plus the mean traced round."""
        values = list(values)
        setup = sum(v for s, v in values if s.phase == SETUP_PHASE)
        rounds = sum(v for s, v in values if s.phase != SETUP_PHASE)
        return setup + rounds / n

    out = {}
    for name, span_names in LAYER_SELF_TIMES.items():
        out[name] = metric(per_run((s, t) for s, t in zip(spans, selfs) if s.name in span_names), "s")
    for name, span_name in LAYER_CALLS.items():
        out[name] = metric(per_run((s, 1) for s in spans if s.name == span_name), "count")
    for name, span_name in LAYER_AMOUNTS.items():
        unit = "B" if name.endswith("bytes") else "count"
        out[name] = metric(per_run((s, s.amount) for s in spans if s.name == span_name), unit)

    removal = "continuation.solve_with_truncation_removal"
    rungs = [s for s in spans if s.name == "solver.solve" and s.parent >= 0
             and spans[s.parent].name == removal]
    solved = sum(s.ok for s in rungs)
    certified = sum(s.amount for s in spans if s.name == removal)
    out["continuation.rungs"] = metric(per_run((s, 1) for s in rungs), "count")
    out["continuation.certified_frac"] = metric(certified / solved if solved else 0.0, "frac")
    out["solver.backtracks"] = metric(per_run(backtracks(spans)), "count")

    # a traced round's wall is its spans' self times plus the time outside
    # any span; that remainder must stay within the tracing overhead, the
    # round's span count times the measured cost of one wrapped call
    per_span = span_cost()
    overhead = per_span * sum(s.phase != SETUP_PHASE for s in spans) / n
    gaps = [wall - sum(t for s, t in zip(spans, selfs) if s.phase == i) for i, wall in enumerate(walls)]
    if not all(-1e-6 <= g <= overhead + 1e-3 for g in gaps):
        tally.check_failures.append("trace_self_times_cover_wall")
    tally.checks_made += 1
    out["trace.wall_s"] = metric(statistics.mean(walls), "s")
    out["trace.overhead_s"] = metric(overhead, "s")
    out["trace.unattributed_s"] = metric(statistics.mean(gaps), "s")
    details.update(round_walls=walls, spans=len(spans), span_cost_s=per_span, gaps=gaps)
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spiralflow" / "__init__.py").is_file():
        print(f"no spiralflow sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".bench_out"))
    try:
        workload = WORKLOADS[args.workload](args.size, args.seed, workdir)
        tally = Tally(workload)
        details = {}
        run = traced_run if args.trace else untraced_run
        metrics = run(workload, args, tally, details)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    failed = len(tally.failures)
    details.update(
        meshes=workload.mesh_sizes(),
        repeats=len(details["round_walls"]),
        attempted=tally.attempted,
        failed=failed,
        failed_frac=failed / tally.attempted,
        failures=tally.failures,
        check_failures=len(tally.check_failures),
        failed_checks=tally.check_failures,
    )
    print(json.dumps({"provenance": provenance(args), "details": details}))
    print(json.dumps({
        "correct": not tally.check_failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
