"""Sparse factor and solve for complex-step and hyper-dual systems.

Complex systems are complex-symmetric and are factored by scipy's sparse LU
directly.  With ``e1^2 = e2^2 = 0`` a hyper-dual system
``(A0 + A1 e1 + A2 e2 + A12 e1e2) x = b`` splits exactly into four real
solves that share the LU of ``A0``:
``x0 = A0^-1 b0``, ``x1 = A0^-1 (b1 - A1 x0)``, ``x2 = A0^-1 (b2 - A2 x0)``,
``x12 = A0^-1 (b12 - A1 x2 - A2 x1 - A12 x0)``.

The module and its two entry points keep the names of the dense generic
LDL^T they replaced, because the benchmark's per-layer spans are named
``ldlt.ldlt_factor`` and ``ldlt.ldlt_solve``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .hdarray import HyperDualArray, HyperDualMatrix

__all__ = ["SolverBreakdown", "lu_factor", "ldlt_factor", "ldlt_solve"]


class SolverBreakdown(ArithmeticError):
    """A sparse factorization found the matrix (or its real part) singular."""


def lu_factor(matrix):
    """Sparse LU; a singular matrix raises :class:`SolverBreakdown`."""
    try:
        return spla.splu(matrix.tocsc())
    except RuntimeError as exc:
        raise SolverBreakdown(f"sparse factorization failed: {exc}") from exc


def ldlt_factor(matrix):
    """Factor a complex CSR matrix or a :class:`HyperDualMatrix`.

    Returns ``(lu, parts)``: the LU of the matrix or of its real part, and
    the hyper-dual parts ``(A1, A2, A12)`` (``None`` for complex data).
    """
    if isinstance(matrix, HyperDualMatrix):
        return lu_factor(matrix.re), matrix[1:]
    return lu_factor(matrix), None


def ldlt_solve(factor, b):
    """Solve with a prior :func:`ldlt_factor`, which stays reusable."""
    lu, parts = factor
    if parts is None:
        return lu.solve(np.asarray(b))
    a1, a2, a12 = parts
    x0 = lu.solve(b.re)
    x1 = lu.solve(b.e1 - a1 @ x0)
    x2 = lu.solve(b.e2 - a2 @ x0)
    x12 = lu.solve(b.e12 - a1 @ x2 - a2 @ x1 - a12 @ x0)
    return HyperDualArray(x0, x1, x2, x12)
