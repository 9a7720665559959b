"""In-memory span recorder for the benchmark's traced runs.

Wrappers are installed on the names the library's callers actually look
up (module globals imported by name, class attributes, and the `spla`
module handle inside `spiralflow.solver`) and removed again when the
traced part of a run ends.  Each call records one span: name, start,
end, parent span and an optional amount (points, bytes, certified
rungs).  Nothing is written out until the run has finished.
"""

import functools
import os
import time

_perf = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "amount", "ok", "phase")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.amount = 0
        self.ok = True
        self.phase = phase


class Tracer:
    """Records spans while installed; `phase` tags which part of a run made them."""

    def __init__(self):
        self.spans = []
        self.phase = None
        self._stack = []
        self._undo = []

    def _traced(self, name, fn, amount=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, _perf(), stack[-1] if stack else -1, self.phase)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = _perf()
                stack.pop()
            if amount is not None:
                span.amount = amount(args, result)
            return result

        return wrapper

    def install(self):
        from spiralflow import cli, config, continuation, gas, meshing, radial, solver, vtkio

        def n_points(args, _):
            return int(args[1].size // 2)

        def n_values(args, _):
            return int(getattr(args[1], "size", 1))

        def n_bytes(args, _):
            return os.path.getsize(args[0])

        def n_certified(_, result):
            return sum(r.certified for r in result.rungs)

        # the same function object is reached through every module that
        # imported it by name, so each alias gets the one wrapper
        aliased = (
            ("meshing.build_annulus_mesh", meshing, "build_annulus_mesh", (cli,), None),
            ("meshing.mesh_quality_report", meshing, "mesh_quality_report", (cli,), None),
            ("config.parse_config", config, "parse_config", (cli,), None),
            ("vtkio.write_vtk", vtkio, "write_vtk", (cli,), n_bytes),
            ("solver.solve", solver, "solve", (continuation,), None),
            ("solver.recover_fields", solver, "recover_fields", (continuation, cli), None),
            ("solver.weak_residuals", solver, "weak_residuals", (continuation, cli), None),
            ("solver.boundary_flux", solver, "boundary_flux", (cli,), None),
            ("solver.decay_report", solver, "decay_report", (cli,), None),
            (
                "continuation.solve_with_truncation_removal",
                continuation,
                "solve_with_truncation_removal",
                (),
                n_certified,
            ),
            ("continuation.find_critical_parameter", continuation, "find_critical_parameter", (), None),
            ("cli.main", cli, "main", (), None),
        )
        for name, home, attr, users, amount in aliased:
            fn = getattr(home, attr)
            wrapped = self._traced(name, fn, amount)
            for owner in (home, *users):
                # a caller that no longer imports the name, or imports
                # something else under it, is left alone
                if getattr(owner, attr, None) is fn:
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapped)

        methods = (
            (radial.RadialBackground, "stream_gradient", "radial.stream_gradient", n_points),
            (radial.RadialBackground, "swirl_stream", "radial.swirl_stream", None),
            (gas.GasModel, "__init__", "gas.model_build", None),
            (gas.GasModel, "flux_eval", "gas.flux_eval", n_values),
            (gas.GasModel, "coefficient_matrix", "gas.coefficient_matrix", None),
            (gas.GasModel, "truncated_density", "gas.truncated_density", None),
            (solver.FlowProblem, "__init__", "solver.problem_setup", None),
            (solver.FlowProblem, "energy", "solver.energy", None),
            (solver.FlowProblem, "gradient", "solver.gradient", None),
            (solver.FlowProblem, "hessian", "solver.hessian", None),
        )
        for cls, attr, name, amount in methods:
            if attr in cls.__dict__:
                fn = cls.__dict__[attr]
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self._traced(name, fn, amount))

        # solver reaches SuperLU as `spla.splu(h).solve(rhs)`; give it a
        # module handle whose splu returns a factor with a traced solve
        if hasattr(solver, "spla"):
            self._undo.append((solver, "spla", solver.spla))
            solver.spla = _SplaHandle(solver.spla, self)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class _SplaHandle:
    """Stands in for `scipy.sparse.linalg` inside the solver module."""

    def __init__(self, module, tracer):
        self._module = module
        solve = tracer._traced("solver.lu_solve", lambda lu, rhs: lu.solve(rhs))

        def factor(matrix):
            return _Factor(module.splu(matrix), solve)

        self.splu = tracer._traced("solver.splu", factor)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _Factor:
    def __init__(self, lu, solve):
        self._lu = lu
        self._solve = solve

    def solve(self, rhs):
        return self._solve(self._lu, rhs)


def span_cost(calls=20000, batches=5):
    """Median extra time one traced call costs over a plain call, in seconds."""
    def noop():
        return None

    traced = Tracer()._traced("noop", noop)
    costs = []
    for _ in range(batches):
        t0 = _perf()
        for _ in range(calls):
            noop()
        t1 = _perf()
        for _ in range(calls):
            traced()
        t2 = _perf()
        costs.append(max((t2 - t1) - (t1 - t0), 0.0) / calls)
    return sorted(costs)[batches // 2]


def self_times(spans):
    """Duration of each span minus the time covered by its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def backtracks(spans):
    """(solve span, line-search energy evaluations beyond the first per Newton step).

    Inside one `solve` span the children run gradient, energy, then for
    every step hessian, splu, lu_solve and the line-search energies
    until the next gradient.
    """
    children = {}
    for s in spans:
        if s.parent >= 0 and spans[s.parent].name == "solver.solve":
            children.setdefault(s.parent, []).append(s.name)
    out = []
    for parent, names in children.items():
        extra, evals, searching = 0, 0, False
        for name in names + ["solver.gradient"]:
            if name == "solver.hessian":
                searching, evals = True, 0
            elif name == "solver.energy" and searching:
                evals += 1
            elif name == "solver.gradient" and searching:
                extra += max(evals - 1, 0)
                searching = False
        out.append((spans[parent], extra))
    return out
