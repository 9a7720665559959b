"""Run configuration: one JSON document, validated before any compute.

Every validation failure raises ConfigError carrying the dotted path of
the offending field, so the command line can print actionable messages
and exit with the dedicated status code.  Parsed configs are plain
frozen dataclasses; nothing here ever writes back to the file.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field as dc_field, fields

from .continuation import (
    check_axis_values, check_bracket_tol, check_ladder, check_search, checked_schedule
)
from .errors import ConfigError, DomainError
from .meshing import Circle, PerturbedCircle
from .solver import NEWTON_TOL

SPEC_VERSION = 1


def config_blob_sha1(raw: bytes) -> str:
    """Content hash of the config bytes, in git blob form."""
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(raw))
    h.update(raw)
    return h.hexdigest()


def _expect(mapping, key, path):
    if key not in mapping:
        raise ConfigError(f"{path}{key}", "missing required field")
    return mapping[key]


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(mapping, key, path):
    v = _expect(mapping, key, path)
    if not _is_number(v):
        raise ConfigError(f"{path}{key}", f"expected a number, got {v!r}")
    return float(v)


def _integer(mapping, key, path):
    v = _expect(mapping, key, path)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}{key}", f"expected an integer, got {v!r}")
    return v


def _numbers(mapping, key, path):
    """A non-empty list of numbers, as a tuple of floats."""
    v = _expect(mapping, key, path)
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path}{key}", "expected a non-empty list")
    for i, x in enumerate(v):
        if not _is_number(x):
            raise ConfigError(f"{path}{key}[{i}]", f"expected a number, got {x!r}")
    return tuple(float(x) for x in v)


@dataclass(frozen=True)
class BodySpec:
    kind: str
    a: float
    b: float = 0.0
    k: int = 1

    def build(self):
        try:
            if self.kind == "circle":
                return Circle(self.a)
            return PerturbedCircle(self.a, self.b, self.k)
        except DomainError as exc:
            raise ConfigError("body", str(exc)) from exc


@dataclass(frozen=True)
class MeshSpec:
    h: float
    R_out: float


@dataclass(frozen=True)
class Tolerances:
    newton_tol: float = NEWTON_TOL
    critical_tol: float = 0.01


@dataclass(frozen=True)
class SearchSpec:
    lo: float = 0.05
    hi: float = 0.9
    n_grid: int = 9


@dataclass(frozen=True)
class LadderSpec:
    lo: float = 0.1
    hi: float = 0.8
    n_seq: int = 6
    annulus: tuple = (1.5, 4.0)  # (r_in, r_out) of the velocity probe


@dataclass(frozen=True)
class RadialSpec:
    r_max: float = 50.0  # outer radius of the Mach-number integration


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; sections beyond the core are optional."""

    gamma: float
    kappa1: float
    kappa2: float
    body: BodySpec
    mesh: MeshSpec
    eps_schedule: tuple | None = None
    tolerances: Tolerances = dc_field(default_factory=Tolerances)
    axis: str = "kappa2"
    grid: tuple | None = None  # the swept parameter values
    search: SearchSpec | None = None
    ladder: LadderSpec | None = None
    radial: RadialSpec = dc_field(default_factory=RadialSpec)
    output_dir: str | None = None
    sha1: str = ""

    def section(self, name):
        value = getattr(self, name)
        if value is None:
            raise ConfigError(name, "section required by this subcommand")
        return value


def _only(mapping, known, path):
    """Reject the first key no parser reads, at its dotted path."""
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{path}{key}", "unknown field")


def _object(doc, name):
    section = _expect(doc, name, "")
    if not isinstance(section, dict):
        raise ConfigError(name, "expected an object")
    return section


_BODY_FIELDS = {"circle": ("a",), "perturbed_circle": ("a", "b", "k")}


def _parse_body(doc):
    body = _object(doc, "body")
    kind = _expect(body, "kind", "body.")
    if kind not in _BODY_FIELDS:
        raise ConfigError("body.kind", f"unknown body kind {kind!r}")
    _only(body, ("kind",) + _BODY_FIELDS[kind], "body.")
    types = {f.name: f.type for f in fields(BodySpec)}
    spec = BodySpec(
        kind, **{n: _PARSERS[types[n]](body, n, "body.") for n in _BODY_FIELDS[kind]}
    )
    spec.build()  # geometric validation happens now, not at solve time
    return spec


def _parse_mesh(doc, body_spec):
    mesh = _object(doc, "mesh")
    _only(mesh, ("h", "R_out"), "mesh.")
    h = _number(mesh, "h", "mesh.")
    if h <= 0:
        raise ConfigError("mesh.h", "mesh spacing must be positive")
    r_out = _number(mesh, "R_out", "mesh.")
    scale = body_spec.build().max_radius()
    if r_out < 4.0 * scale:
        raise ConfigError(
            "mesh.R_out", f"truncation radius must be >= 4x body scale ({4 * scale:g})"
        )
    return MeshSpec(h=h, R_out=r_out)


_PARSERS = {float: _number, int: _integer, tuple: _numbers}


def _parse_section(doc, name, spec):
    """An optional section as its spec; absent fields keep the spec's defaults."""
    if name not in doc:
        return spec()
    section = _object(doc, name)
    _only(section, [f.name for f in fields(spec)], f"{name}.")
    present = [f for f in fields(spec) if f.name in section]
    return spec(
        **{f.name: _PARSERS[f.type](section, f.name, f"{name}.") for f in present}
    )


def _parse_grid(doc, axis):
    """Swept values in the axis range: a list, or num evenly spaced from start to stop."""
    grid = _object(doc, "grid")
    _only(grid, ("values",) if "values" in grid else ("start", "stop", "num"), "grid.")
    if "values" in grid:
        values = _numbers(grid, "values", "grid.")
        check_axis_values(axis, {f"grid.values[{i}]": v for i, v in enumerate(values)})
        return values
    start = _number(grid, "start", "grid.")
    stop = _number(grid, "stop", "grid.")
    num = _integer(grid, "num", "grid.")
    if num < 2:
        raise ConfigError("grid.num", "need at least 2 grid points")
    if not (stop > start):
        raise ConfigError("grid.stop", "need stop > start")
    step = (stop - start) / (num - 1)
    values = tuple(start + i * step for i in range(num))
    check_axis_values(axis, {"grid.start": values[0], "grid.stop": values[-1]})
    return values


def parse_config(raw: bytes) -> RunConfig:
    """Validate raw JSON bytes into a RunConfig.  Pure; never touches disk."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError("config", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a JSON object")

    version = _integer(doc, "spec_version", "")
    if version != SPEC_VERSION:
        raise ConfigError(
            "spec_version", f"unsupported version {version} (expected {SPEC_VERSION})"
        )
    top = {f.name for f in fields(RunConfig)} - {"sha1"} | {"spec_version", "far_field"}
    _only(doc, top, "")

    gamma = _number(doc, "gamma", "")
    if gamma <= 1.0:
        raise ConfigError("gamma", "adiabatic exponent must exceed 1")
    kappa1 = _number(doc, "kappa1", "")
    check_axis_values("kappa1", {"kappa1": kappa1})
    kappa2 = _number(doc, "kappa2", "")
    check_axis_values("kappa2", {"kappa2": kappa2})

    body_spec = _parse_body(doc)
    mesh_spec = _parse_mesh(doc, body_spec)

    eps_schedule = None
    if "eps_schedule" in doc:
        eps_schedule = checked_schedule(_numbers(doc, "eps_schedule", ""), "eps_schedule")

    far_field = doc.get("far_field", "gauge")
    if far_field != "gauge":
        raise ConfigError("far_field", f"the only far-field law is 'gauge', got {far_field!r}")

    axis = doc.get("axis", "kappa2")
    if axis not in ("kappa1", "kappa2"):
        raise ConfigError("axis", f"unknown sweep axis {axis!r}")

    tolerances = _parse_section(doc, "tolerances", Tolerances)
    if tolerances.newton_tol <= 0:
        raise ConfigError("tolerances.newton_tol", "must be positive")
    check_bracket_tol(tolerances.critical_tol, "tolerances.critical_tol")

    grid = _parse_grid(doc, axis) if "grid" in doc else None
    search = _parse_section(doc, "search", SearchSpec) if "search" in doc else None
    if search is not None:
        check_search(**asdict(search), axis=axis, path="search.")
    ladder = _parse_section(doc, "ladder", LadderSpec) if "ladder" in doc else None
    if ladder is not None:
        if len(ladder.annulus) != 2:
            raise ConfigError("ladder.annulus", "expected [r_in, r_out]")
        check_ladder(**asdict(ladder), axis=axis, path="ladder.")
    radial = _parse_section(doc, "radial", RadialSpec)
    if not radial.r_max > 1.0:
        raise ConfigError("radial.r_max", "must exceed 1, the body radius")

    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir", "expected a string path")

    return RunConfig(
        gamma=gamma,
        kappa1=kappa1,
        kappa2=kappa2,
        body=body_spec,
        mesh=mesh_spec,
        eps_schedule=eps_schedule,
        tolerances=tolerances,
        axis=axis,
        grid=grid,
        search=search,
        ladder=ladder,
        radial=radial,
        output_dir=output_dir,
        sha1=config_blob_sha1(raw),
    )
