"""Legacy-VTK ASCII export of meshes, nodal fields and interface polylines,
and the optimizer's snapshot callback that writes them."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .levelset import interface_segments
from .mesh import Mesh

__all__ = ["write_vtk", "write_interface_vtk", "snapshot_writer"]


def _write_legacy(path, title: str, dataset: str, points, body) -> None:
    """Legacy-VTK ASCII file of the ``dataset`` type: the header, the 2-D
    ``points`` (at z = 0) and then the lines of ``body``."""
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             f"DATASET {dataset}", f"POINTS {len(points)} double"]
    lines.extend(f"{x:.17g} {y:.17g} 0" for x, y in points)
    Path(path).write_text("\n".join(lines + body) + "\n")


def write_vtk(path, mesh: Mesh, point_data: dict | None = None) -> None:
    """Triangle mesh with optional nodal scalar fields."""
    n = mesh.num_elements
    body = [f"CELLS {n} {4 * n}"]
    body.extend(f"3 {a} {b} {c}" for a, b, c in mesh.elements)
    body.append(f"CELL_TYPES {n}")
    body.extend(["5"] * n)
    if point_data:
        body.append(f"POINT_DATA {mesh.num_nodes}")
        for name, values in point_data.items():
            body += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            body.extend(f"{v:.17g}" for v in np.asarray(values, dtype=float))
    _write_legacy(path, "tsopt snapshot", "UNSTRUCTURED_GRID", mesh.nodes,
                  body)


def write_interface_vtk(path, segments) -> None:
    """Interface segments as VTK line cells (POLYDATA)."""
    points = [p for _, segment in segments for p in segment]
    n = len(points) // 2
    body = [f"LINES {n} {3 * n}"]
    body.extend(f"2 {2 * i} {2 * i + 1}" for i in range(n))
    _write_legacy(path, "tsopt interface", "POLYDATA", points, body)


def snapshot_writer(output_dir, uhat):
    """``on_snapshot`` callback of :func:`tsopt.optimize.run` that writes
    the fields ``phi u p dJ G nodeclass uhat`` of each snapshot to
    ``snapshot_<iteration or final>.vtk`` and the final interface to
    ``interface_final.vtk`` in ``output_dir``, which it creates."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write(mesh, phi, ev, iteration, final):
        name = "final" if final else f"{iteration:05d}"
        fields = {
            "phi": phi, "u": ev.u, "p": ev.p,
            "dJ": ev.field.dj, "G": ev.field.g,
            "nodeclass": ev.field.labels.astype(float), "uhat": uhat,
        }
        write_vtk(out / f"snapshot_{name}.vtk", mesh, fields)
        if final:
            write_interface_vtk(out / "interface_final.vtk",
                                interface_segments(mesh, phi))

    return write
