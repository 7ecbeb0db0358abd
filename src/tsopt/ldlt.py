"""Banded LU factor and solve for real, complex-step and hyper-dual systems.

The reduced matrices share one structurally symmetric pattern per mesh.  Its
reverse Cuthill-McKee ordering (a :class:`~tsopt.mesh.BandLayout`) puts
``P A P^T`` in a narrow band, which LAPACK's banded LU with partial pivoting
factors in ``O(n width^2)``: ``dgbtrf`` for real data, ``zgbtrf`` for
complex-symmetric data.  With ``e1^2 = e2^2 = 0`` a hyper-dual system
``(A0 + A1 e1 + A2 e2 + A12 e1e2) x = b`` splits exactly into four real
solves that share the LU of ``A0``:
``x0 = A0^-1 b0``, ``x1 = A0^-1 (b1 - A1 x0)``, ``x2 = A0^-1 (b2 - A2 x0)``,
``x12 = A0^-1 (b12 - A1 x2 - A2 x1 - A12 x0)``.

A non-finite matrix entry or an exactly zero pivot raises
:class:`SolverBreakdown`.  The module and its two entry points keep the
names of the dense generic LDL^T they replaced, because the benchmark's
per-layer spans are named ``ldlt.ldlt_factor`` and ``ldlt.ldlt_solve``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, zgbtrf, zgbtrs

from .hdarray import HyperDualArray, HyperDualMatrix

__all__ = ["SolverBreakdown", "band_storage", "ldlt_factor", "ldlt_solve"]


class SolverBreakdown(ArithmeticError):
    """A factorization met a non-finite entry or an exactly zero pivot."""


class _BandLU(NamedTuple):
    lu: np.ndarray
    ipiv: np.ndarray
    band: object
    gbtrs: object


def band_storage(matrix, band) -> np.ndarray:
    """``P A P^T`` of a CSR matrix on the ``band`` pattern, in the zeroed
    LAPACK band storage :attr:`~tsopt.mesh.BandLayout.shape` describes."""
    data = matrix.data
    if len(data) != len(band.slot):
        raise ValueError("matrix pattern does not match the band layout")
    ab = np.zeros(band.shape, dtype=np.result_type(data, float), order="F")
    ab.reshape(-1, order="F")[band.slot] = data
    return ab


def _band_lu(matrix, band) -> _BandLU:
    ab = band_storage(matrix, band)
    gbtrf, gbtrs = (zgbtrf, zgbtrs) if np.iscomplexobj(ab) else (dgbtrf, dgbtrs)
    lu, ipiv, info = gbtrf(ab, band.width, band.width, overwrite_ab=True)
    if info > 0:
        raise SolverBreakdown(f"banded LU: pivot {info} is exactly zero")
    return _BandLU(lu, ipiv, band, gbtrs)


def _lu_solve(factor: _BandLU, b) -> np.ndarray:
    perm = factor.band.perm
    y, _ = factor.gbtrs(factor.lu, factor.band.width, factor.band.width,
                        np.asarray(b)[perm], factor.ipiv)
    x = np.empty_like(y)
    x[perm] = y
    return x


def ldlt_factor(matrix, band):
    """Factor a real or complex CSR matrix, or a :class:`HyperDualMatrix`,
    whose pattern ``band`` (a :class:`~tsopt.mesh.BandLayout`) describes.

    Returns ``(lu, parts)``: the banded LU of the matrix or of its real
    part, and the hyper-dual parts ``(A1, A2, A12)`` (``None`` otherwise).
    """
    hyper = isinstance(matrix, HyperDualMatrix)
    for part in matrix if hyper else (matrix,):
        if not np.isfinite(part.data).all():
            raise SolverBreakdown("non-finite entry in the matrix")
    if hyper:
        return _band_lu(matrix.re, band), matrix[1:]
    return _band_lu(matrix, band), None


def ldlt_solve(factor, b):
    """Solve with a prior :func:`ldlt_factor`, which stays reusable."""
    lu, parts = factor
    if parts is None:
        return _lu_solve(lu, b)
    a1, a2, a12 = parts
    x0 = _lu_solve(lu, b.re)
    x1 = _lu_solve(lu, b.e1 - a1 @ x0)
    x2 = _lu_solve(lu, b.e2 - a2 @ x0)
    x12 = _lu_solve(lu, b.e12 - a1 @ x2 - a2 @ x1 - a12 @ x0)
    return HyperDualArray(x0, x1, x2, x12)
