"""Banded factor and solve for real, complex-step and hyper-dual systems.

The reduced matrices of a mesh share one structurally symmetric CSR
pattern.  :func:`band_layout` orders it by reverse Cuthill-McKee, which
puts ``B = P A P^T`` in a band of half-width ``w``, and maps its CSR data
slots into the Fortran-ordered ``(rows, n)`` arrays of LAPACK's banded
factorizations (Golub and Van Loan, *Matrix Computations*, 4th ed.,
section 4.3), which :func:`band_storage` fills:

* Cholesky in lower storage (``dpbtrf``): ``w + 1`` rows, ``B[i, j]``
  (``i >= j``) in row ``i - j`` of column ``j``.  After Dirichlet
  elimination every real system is symmetric positive definite, so this
  factors it, and the real part of every hyper-dual system, in
  ``O(n w^2)``.
* LU with partial pivoting (``zgbtrf``): ``3 w + 1`` rows, ``B[i, j]`` in
  row ``2 w + i - j`` of column ``j``; the top ``w`` rows are room for
  the fill-in of row pivoting.  Complex-step systems are complex-symmetric
  but not Hermitian, so no Cholesky applies to them.

With ``E1^2 = E2^2 = 0`` a hyper-dual system
``(A0 + A1 (E1 + E2) + A12 E1 E2) x = b`` with its E2 parts tied to its E1
parts (see :mod:`.hdarray`) splits exactly into three real solves that
share the Cholesky factor of ``A0`` (Fike and Alonso, AIAA 2011-886):
``x0 = A0^-1 b0``, ``x1 = A0^-1 (b1 - A1 x0)``,
``x12 = A0^-1 (b12 - A1 x1 - A1 x1 - A12 x0)``.

A non-finite matrix entry, a non-positive Cholesky pivot, an exactly zero
LU pivot or a non-finite solution raises :class:`SolverBreakdown`.  The
module and its two entry points keep the names of the dense generic LDL^T
they replaced, because the benchmark's per-layer spans are named
``ldlt.ldlt_factor`` and ``ldlt.ldlt_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, zgbtrf, zgbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .hdarray import HyperDualArray, HyperDualMatrix

__all__ = ["SolverBreakdown", "BandLayout", "band_layout", "band_storage",
           "ldlt_factor", "ldlt_solve"]


class SolverBreakdown(ArithmeticError):
    """A factorization met a non-finite entry or a breakdown pivot, or a
    solve gave a non-finite solution."""


@dataclass(frozen=True)
class BandLayout:
    """Band form of a structurally symmetric ``n x n`` CSR pattern (see the
    module docstring for the two storages).

    ``perm`` is the reverse Cuthill-McKee ordering and ``width`` the
    half-bandwidth of ``B = A[perm][:, perm]``.  ``slot[s]`` is the flat
    position of CSR data slot ``s`` in the LU storage; ``lower`` lists the
    data slots with ``i >= j`` and ``lower_slot`` their flat positions in
    the Cholesky storage.  All arrays are read-only."""

    perm: np.ndarray
    width: int
    slot: np.ndarray
    lower: np.ndarray
    lower_slot: np.ndarray


def band_layout(pattern) -> BandLayout:
    """Band layout of a structurally symmetric CSR ``pattern``, also of an
    empty one (no free nodes)."""
    n = pattern.shape[0]
    perm = (reverse_cuthill_mckee(pattern, symmetric_mode=True) if n
            else np.arange(0)).astype(int)
    inverse = np.empty(n, dtype=int)
    inverse[perm] = np.arange(n)
    rows = inverse[np.repeat(np.arange(n), np.diff(pattern.indptr))]
    cols = inverse[pattern.indices]
    width = int(np.abs(rows - cols).max(initial=0))
    slot = 2 * width + rows - cols + cols * (3 * width + 1)
    lower = np.flatnonzero(rows >= cols)
    lower_slot = rows[lower] - cols[lower] + cols[lower] * (width + 1)
    for array in (perm, slot, lower, lower_slot):
        array.flags.writeable = False
    return BandLayout(perm=perm, width=width, slot=slot, lower=lower,
                      lower_slot=lower_slot)


def band_storage(matrix, band: BandLayout) -> np.ndarray:
    """``P A P^T`` of a CSR matrix on the ``band`` pattern, in the zeroed
    storage its factorization takes: Cholesky storage for real data, LU
    storage for complex data."""
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


class _Factor(NamedTuple):
    ab: np.ndarray               # Cholesky factor (real) or LU (complex)
    ipiv: Optional[np.ndarray]   # LU row interchanges; None for Cholesky
    band: BandLayout
    parts: Optional[tuple]       # hyper-dual (A1, A12); None otherwise


def _band_solve(factor: _Factor, b) -> np.ndarray:
    band = factor.band
    rhs = np.asarray(b)[band.perm]
    if factor.ipiv is None:
        y, _ = dpbtrs(factor.ab, rhs, lower=1, overwrite_b=1)
    else:   # zgbtrs rejects a system without unknowns
        y = zgbtrs(factor.ab, band.width, band.width, rhs,
                   factor.ipiv)[0] if len(rhs) else rhs
    if not np.isfinite(y).all():
        raise SolverBreakdown("non-finite entry in the solution")
    x = np.empty_like(y)
    x[band.perm] = y
    return x


def ldlt_factor(matrix, band: BandLayout) -> _Factor:
    """Factor a real or complex CSR matrix, or a :class:`HyperDualMatrix`,
    whose pattern ``band`` describes: the banded Cholesky factor of a real
    matrix or of the real part of a hyper-dual one, whose parts
    ``(A1, A12)`` the record keeps, or the banded LU of a complex matrix.
    """
    hyper = isinstance(matrix, HyperDualMatrix)
    for part in matrix if hyper else (matrix,):
        if not np.isfinite(part.data).all():
            raise SolverBreakdown("non-finite entry in the matrix")
    parts = matrix[1:] if hyper else None
    ab = band_storage(matrix.re if hyper else matrix, band)
    if ab.dtype.kind == "c":
        lu, ipiv, info = zgbtrf(ab, band.width, band.width, overwrite_ab=True)
        if info > 0:
            raise SolverBreakdown(f"banded LU: pivot {info} is exactly zero")
        return _Factor(lu, ipiv, band, parts)
    c, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise SolverBreakdown(f"banded Cholesky: the leading minor of order "
                              f"{info} is not positive definite")
    return _Factor(c, None, band, parts)


def ldlt_solve(factor: _Factor, b):
    """Solve with a prior :func:`ldlt_factor`, which stays reusable."""
    if factor.parts is None:
        return _band_solve(factor, b)
    a1, a12 = factor.parts
    x0 = _band_solve(factor, b.re)
    x1 = _band_solve(factor, b.e1 - a1 @ x0)
    cross = a1 @ x1    # the A1 x2 and A2 x1 terms, equal when tied
    x12 = _band_solve(factor, b.e12 - cross - cross - a12 @ x0)
    return HyperDualArray(x0, x1, x12)
