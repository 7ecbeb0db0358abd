"""Shared independent oracles for the tests.

Everything here deliberately avoids the package's rational closed forms:
areas come from polygon clipping, integrals from exact degree-2 quadrature
over clipped polygons, derivatives from finite differences or hyper-dual
evaluation of those primitives.  The polygon clipper lives here and nowhere
else: the package computes every cut with its rational lone-vertex formulas,
and this second geometry is the tests' check on them.

The mesh builders give meshes the package does not build: one reference
triangle per sample, for running per-element checks through the package's
one vectorized kernel, and two triangulations of the unit square other than
the crossed mesh.  The band helpers at the bottom convert between a dense
symmetric matrix and the lower band storage the package assembles and
factors, by plain loops over the diagonals.
"""

import numpy as np

from tsopt.mesh import Mesh, generate_crossed_mesh, tag_boundary
from tsopt.problems import on_top_or_bottom


def _clip_negative(points, value_lists):
    """Sutherland-Hodgman clip of a convex polygon to the region where the
    first tracked linear function is <= 0; every tracked function is
    interpolated onto the new vertices."""
    fvals = value_lists[0]
    out_pts = []
    out_vals = [[] for _ in value_lists]
    n = len(points)
    for i in range(n):
        j = (i + 1) % n
        fi, fj = fvals[i], fvals[j]
        if fi <= 0.0:
            out_pts.append(points[i])
            for vals, tracked in zip(out_vals, value_lists):
                vals.append(tracked[i])
        if (fi <= 0.0 < fj) or (fj <= 0.0 < fi):
            t = fi / (fi - fj)
            out_pts.append(points[i] + t * (points[j] - points[i]))
            for vals, tracked in zip(out_vals, value_lists):
                vals.append(tracked[i] + t * (tracked[j] - tracked[i]))
    return out_pts, out_vals


def clip_negative_region(points, phi_vals, tracked=()):
    """Clip a triangle to its negative part, interpolating tracked linear
    functions onto the clipped polygon."""
    pts = [np.asarray(p, dtype=float) for p in points]
    value_lists = [list(map(float, phi_vals))] + [list(map(float, t)) for t in tracked]
    poly, vals = _clip_negative(pts, value_lists)
    return poly, vals[1:]


def polygon_area(points):
    if len(points) < 3:
        return 0.0
    pts = np.asarray(points)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def polygon_quadratic_integral(points, fvals, gvals=None):
    """Exact integral of f (or f*g) over a convex polygon, f and g linear
    with the given vertex values; fan triangulation + midpoint rule (exact
    for quadratics)."""
    if len(points) < 3:
        return 0.0
    pts = [np.asarray(p) for p in points]
    f = list(map(float, fvals))
    g = list(map(float, gvals)) if gvals is not None else [1.0] * len(f)
    total = 0.0
    for i in range(1, len(pts) - 1):
        tri = (pts[0], pts[i], pts[i + 1])
        fv = (f[0], f[i], f[i + 1])
        gv = (g[0], g[i], g[i + 1])
        area = polygon_area(tri)
        acc = 0.0
        for a, b in ((0, 1), (1, 2), (2, 0)):
            fm = 0.5 * (fv[a] + fv[b])
            gm = 0.5 * (gv[a] + gv[b])
            acc += fm * gm
        total += area * acc / 3.0
    return total


REF_TRIANGLE = (np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
BASIS_AT_VERTICES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def exact_negative_mass_entry(phi_vals, i, j, points=REF_TRIANGLE):
    """∫ psi_i psi_j over the negative part of the triangle, by clipping."""
    poly, tracked = clip_negative_region(points, phi_vals,
                                         tracked=BASIS_AT_VERTICES)
    return polygon_quadratic_integral(poly, tracked[i], tracked[j])


def exact_negative_load_entry(phi_vals, i, points=REF_TRIANGLE):
    poly, tracked = clip_negative_region(points, phi_vals,
                                         tracked=BASIS_AT_VERTICES)
    return polygon_quadratic_integral(poly, tracked[i])


def exact_negative_area(phi_vals, points=REF_TRIANGLE):
    poly, _ = clip_negative_region(points, phi_vals)
    return polygon_area(poly)


def reference_triangles(count):
    """``count`` disjoint copies of the reference triangle, side by side:
    element ``i`` has the nodes ``3 i``, ``3 i + 1`` and ``3 i + 2``, so a
    design of shape ``(count, 3)``, flattened, gives each element its own
    vertex values."""
    shift = np.repeat(2.0 * np.arange(count), 3)[:, None] * [1.0, 0.0]
    return Mesh(np.tile(REF_TRIANGLE, (count, 1)) + shift,
                np.arange(3 * count).reshape(count, 3))


def _with_experiment_boundary(mesh):
    # u = y on the top and bottom sides, as on the benchmark mesh
    return tag_boundary(mesh, on_top_or_bottom, lambda x, y: y)


def jittered_crossed_mesh(n, seed):
    """The crossed mesh with ``n`` squares per side, each node off the
    boundary moved by up to 0.12 h in each coordinate (seeded), tagged
    like the benchmark mesh."""
    mesh = generate_crossed_mesh(n)
    nodes = mesh.nodes.copy()
    inner = ((nodes > 1e-12) & (nodes < 1.0 - 1e-12)).all(axis=1)
    jitter = np.random.default_rng(seed).uniform(-0.12, 0.12, nodes.shape)
    nodes[inner] += jitter[inner] / n
    return _with_experiment_boundary(Mesh(nodes, mesh.elements))


def one_diagonal_mesh(n):
    """``n`` squares per side, each split by its diagonal from the lower
    left to the upper right corner (six-element rings inside), tagged
    like the benchmark mesh."""
    xi = np.arange(n + 1) / n
    gx, gy = np.meshgrid(xi, xi, indexing="xy")
    j, i = np.divmod(np.arange(n * n), n)
    c00 = j * (n + 1) + i
    c10, c01, c11 = c00 + 1, c00 + n + 1, c00 + n + 2
    elements = np.stack([np.column_stack([c00, c10, c11]),
                         np.column_stack([c00, c11, c01])],
                        axis=1).reshape(-1, 3)
    return _with_experiment_boundary(
        Mesh(np.column_stack([gx.ravel(), gy.ravel()]), elements))


def band_to_dense(ab, band):
    """The dense symmetric matrix, in the numbering before ``band.perm``,
    of the real or complex lower band storage ``ab`` of ``band``."""
    n = ab.shape[1]
    b = np.zeros((n, n), dtype=ab.dtype)
    for d in range(ab.shape[0]):
        j = np.arange(n - d)
        b[j + d, j] = b[j, j + d] = ab[d, :n - d]
    dense = np.empty_like(b)
    dense[np.ix_(band.perm, band.perm)] = b
    return dense


def dense_to_band(dense, band):
    """The lower band storage of ``band`` of the dense symmetric matrix
    ``dense``; every entry of ``dense`` must lie in the band."""
    b = dense[band.perm][:, band.perm]
    n, w = len(b), band.width
    offset = np.subtract.outer(np.arange(n), np.arange(n))
    assert not b[np.abs(offset) > w].any()
    ab = np.zeros((w + 1, n), dtype=b.dtype, order="F")
    for d in range(w + 1):
        ab[d, :n - d] = np.diagonal(b, -d)
    return ab
