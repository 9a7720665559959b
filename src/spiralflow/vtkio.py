"""Legacy ASCII VTK output for triangle meshes and attached fields.

Writes version-3.0 unstructured-grid files (triangle cell type 5) that
ParaView and meshio both read.  Formatting is fixed (%.17g, LF newlines)
so identical inputs produce byte-identical files.  Each block of values
is formatted by one %-operation and written straight to the file.
"""

import numpy as np

#: 17 significant digits: enough to round-trip any double exactly
DOUBLE = "%.17g"


def format_double(x):
    return DOUBLE % float(x)


def _rows(row, values):
    """row once per row of values, filled in by one formatting call."""
    values = np.asarray(values)
    return (row * values.shape[0]) % tuple(values.ravel().tolist())


def _attributes(fields, n_expected, kind):
    """(header, row template, values) per field, after checking them all."""
    out = []
    for name, arr in fields.items():
        arr = np.asarray(arr, dtype=float)
        if arr.shape[0] != n_expected:
            raise ValueError(
                f"{kind} field {name!r} has {arr.shape[0]} entries, "
                f"expected {n_expected}"
            )
        if " " in name:
            raise ValueError(f"VTK field names cannot contain spaces: {name!r}")
        if arr.ndim == 1:
            out.append((f"SCALARS {name} double 1\nLOOKUP_TABLE default\n", f"{DOUBLE}\n", arr))
        elif arr.ndim == 2 and arr.shape[1] == 2:
            out.append((f"VECTORS {name} double\n", f"{DOUBLE} {DOUBLE} 0\n", arr))
        else:
            raise ValueError(f"field {name!r} must be scalar or planar vector")
    return out


def write_vtk(path, mesh, point_data=None, cell_data=None, title="spiralflow output"):
    """Write mesh plus named point/cell fields as a legacy VTK file."""
    sections = []
    if point_data:
        sections.append(
            (f"POINT_DATA {mesh.n_points}\n", _attributes(point_data, mesh.n_points, "point"))
        )
    if cell_data:
        sections.append(
            (f"CELL_DATA {mesh.n_triangles}\n", _attributes(cell_data, mesh.n_triangles, "cell"))
        )
    with open(path, "w", newline="\n") as fh:
        fh.write(
            f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            f"POINTS {mesh.n_points} double\n"
        )
        fh.write(_rows(f"{DOUBLE} {DOUBLE} 0\n", mesh.points))
        fh.write(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}\n")
        fh.write(_rows("3 %d %d %d\n", mesh.triangles))
        fh.write(f"CELL_TYPES {mesh.n_triangles}\n")
        fh.write("5\n" * mesh.n_triangles)
        for header, attributes in sections:
            fh.write(header)
            for field_header, row, values in attributes:
                fh.write(field_header)
                fh.write(_rows(row, values))
