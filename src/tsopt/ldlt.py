"""Banded factor and solve for real, complex-step and hyper-dual systems.

The reduced matrices share one structurally symmetric pattern per mesh.  Its
reverse Cuthill-McKee ordering (a :class:`~tsopt.mesh.BandLayout`) puts
``P A P^T`` in a narrow band.  After Dirichlet elimination every real
system is symmetric positive definite, so LAPACK's banded Cholesky in lower
storage (``dpbtrf``; Golub and Van Loan, *Matrix Computations*, 4th ed.,
section 4.3) factors it in ``O(n width^2)`` on ``width + 1`` rows of storage.
Complex-step systems are complex-symmetric but not Hermitian, so no
Cholesky applies to them; banded LU with partial pivoting (``zgbtrf``)
factors them on ``3 width + 1`` rows.  With ``E1^2 = E2^2 = 0`` a
hyper-dual system ``(A0 + A1 (E1 + E2) + A12 E1 E2) x = b`` with its E2
parts tied to its E1 parts (see :mod:`.hdarray`) splits exactly into three
real solves that share the Cholesky factor of ``A0`` (Fike and Alonso,
AIAA 2011-886):
``x0 = A0^-1 b0``, ``x1 = A0^-1 (b1 - A1 x0)``,
``x12 = A0^-1 (b12 - A1 x1 - A1 x1 - A12 x0)``.

A non-finite matrix entry, a non-positive Cholesky pivot, an exactly zero
LU pivot or a non-finite solution raises :class:`SolverBreakdown`.  The
module and its two entry points keep the names of the dense generic LDL^T
they replaced, because the benchmark's per-layer spans are named
``ldlt.ldlt_factor`` and ``ldlt.ldlt_solve``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, zgbtrf, zgbtrs

from .hdarray import HyperDualArray, HyperDualMatrix

__all__ = ["SolverBreakdown", "band_storage", "ldlt_factor", "ldlt_solve"]


class SolverBreakdown(ArithmeticError):
    """A factorization met a non-finite entry or a breakdown pivot, or a
    solve gave a non-finite solution."""


class _BandFactor(NamedTuple):
    ab: np.ndarray               # Cholesky factor (real) or LU (complex)
    ipiv: Optional[np.ndarray]   # LU row interchanges; None for Cholesky
    band: object


def band_storage(matrix, band) -> np.ndarray:
    """``P A P^T`` of a CSR matrix on the ``band`` pattern, in the zeroed
    LAPACK band storage its factorization takes: the ``(width + 1, n)``
    lower storage for real data, the ``(3 width + 1, n)`` LU storage for
    complex data (see :class:`~tsopt.mesh.BandLayout`)."""
    data = matrix.data
    if len(data) != len(band.slot):
        raise ValueError("matrix pattern does not match the band layout")
    dtype = np.result_type(data, float)
    n = len(band.perm)
    if dtype.kind == "c":
        ab = np.zeros((3 * band.width + 1, n), dtype=dtype, order="F")
        ab.reshape(-1, order="F")[band.slot] = data
    else:
        ab = np.zeros((band.width + 1, n), dtype=dtype, order="F")
        ab.reshape(-1, order="F")[band.lower_slot] = data[band.lower]
    return ab


def _band_factor(matrix, band) -> _BandFactor:
    ab = band_storage(matrix, band)
    if ab.dtype.kind == "c":
        lu, ipiv, info = zgbtrf(ab, band.width, band.width, overwrite_ab=True)
        if info > 0:
            raise SolverBreakdown(f"banded LU: pivot {info} is exactly zero")
        return _BandFactor(lu, ipiv, band)
    c, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise SolverBreakdown(f"banded Cholesky: the leading minor of order "
                              f"{info} is not positive definite")
    return _BandFactor(c, None, band)


def _band_solve(factor: _BandFactor, b) -> np.ndarray:
    band = factor.band
    rhs = np.asarray(b)[band.perm]
    if factor.ipiv is None:
        y, _ = dpbtrs(factor.ab, rhs, lower=1, overwrite_b=1)
    else:
        y, _ = zgbtrs(factor.ab, band.width, band.width, rhs, factor.ipiv)
    if not np.isfinite(y).all():
        raise SolverBreakdown("non-finite entry in the solution")
    x = np.empty_like(y)
    x[band.perm] = y
    return x


def ldlt_factor(matrix, band):
    """Factor a real or complex CSR matrix, or a :class:`HyperDualMatrix`,
    whose pattern ``band`` (a :class:`~tsopt.mesh.BandLayout`) describes.

    Returns ``(factor, parts)``: the banded Cholesky factor of a real
    matrix or of the real part of a hyper-dual one, or the banded LU of a
    complex matrix; and the hyper-dual parts ``(A1, A12)`` (``None``
    otherwise).
    """
    hyper = isinstance(matrix, HyperDualMatrix)
    for part in matrix if hyper else (matrix,):
        if not np.isfinite(part.data).all():
            raise SolverBreakdown("non-finite entry in the matrix")
    if hyper:
        return _band_factor(matrix.re, band), matrix[1:]
    return _band_factor(matrix, band), None


def ldlt_solve(factor, b):
    """Solve with a prior :func:`ldlt_factor`, which stays reusable."""
    band_factor, parts = factor
    if parts is None:
        return _band_solve(band_factor, b)
    a1, a12 = parts
    x0 = _band_solve(band_factor, b.re)
    x1 = _band_solve(band_factor, b.e1 - a1 @ x0)
    cross = a1 @ x1    # the A1 x2 and A2 x1 terms, equal when tied
    x12 = _band_solve(band_factor, b.e12 - cross - cross - a12 @ x0)
    return HyperDualArray(x0, x1, x12)
