"""Legacy-VTK ASCII export of meshes, nodal fields and interface polylines,
and the optimizer's snapshot callback that writes them."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .levelset import interface_segments
from .mesh import Mesh

__all__ = ["write_vtk", "write_interface_vtk", "snapshot_writer"]


def write_vtk(path, mesh: Mesh, point_data: dict | None = None) -> None:
    """Triangle mesh with optional nodal scalar fields."""
    path = Path(path)
    lines = [
        "# vtk DataFile Version 3.0",
        "tsopt snapshot",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_nodes} double",
    ]
    for x, y in mesh.nodes:
        lines.append(f"{x:.17g} {y:.17g} 0")
    n = mesh.num_elements
    lines.append(f"CELLS {n} {4 * n}")
    for tri in mesh.elements:
        lines.append(f"3 {tri[0]} {tri[1]} {tri[2]}")
    lines.append(f"CELL_TYPES {n}")
    lines.extend(["5"] * n)
    if point_data:
        lines.append(f"POINT_DATA {mesh.num_nodes}")
        for name, values in point_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.17g}" for v in np.asarray(values, dtype=float))
    path.write_text("\n".join(lines) + "\n")


def write_interface_vtk(path, segments) -> None:
    """Interface segments as VTK line cells (POLYDATA)."""
    path = Path(path)
    points = []
    cells = []
    for _, (p0, p1) in segments:
        cells.append((len(points), len(points) + 1))
        points.append(p0)
        points.append(p1)
    lines = [
        "# vtk DataFile Version 3.0",
        "tsopt interface",
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {len(points)} double",
    ]
    for x, y in points:
        lines.append(f"{x:.17g} {y:.17g} 0")
    lines.append(f"LINES {len(cells)} {3 * len(cells)}")
    for a, b in cells:
        lines.append(f"2 {a} {b}")
    path.write_text("\n".join(lines) + "\n")


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
