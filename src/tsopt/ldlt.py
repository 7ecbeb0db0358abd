"""Banded factor and solve for real, complex-step and hyper-dual systems.

The reduced matrices of a mesh share one structurally symmetric pattern.
:func:`band_layout` orders it by reverse Cuthill-McKee, which puts
``B = P A P^T`` in a band of half-width ``w``, and maps every lower element
entry to its slot in LAPACK's lower band storage (Golub and Van Loan,
*Matrix Computations*, 4th ed., section 4.3): a Fortran-ordered
``(w + 1, n)`` array with ``B[i, j]`` (``i >= j``) in row ``i - j`` of
column ``j``.  A system is assembled straight into it: a real system is a
float band, a complex-step system a complex one and a hyper-dual system a
:class:`~tsopt.hdarray.HyperDualArray` of three float bands.

* Every real system is symmetric positive definite after Dirichlet
  elimination, so banded Cholesky (``dpbtrf``) factors it, and the real
  lane of every hyper-dual system, in ``O(n w^2)``.
* Complex-step systems are complex-symmetric, not Hermitian, so their band
  is mirrored into the ``(3 w + 1, n)`` storage of LU with partial
  pivoting (``zgbtrf``): ``B[i, j]`` in row ``2 w + i - j`` of column
  ``j``, the top ``w`` rows left for the fill-in of row pivoting.

With ``E1^2 = E2^2 = 0`` a hyper-dual system
``(A0 + A1 (E1 + E2) + A12 E1 E2) x = b`` with its E2 parts tied to its E1
parts (see :mod:`.hdarray`) splits exactly into three real solves that
share the Cholesky factor of ``A0`` (Fike and Alonso, AIAA 2011-886):
``x0 = A0^-1 b0``, ``x1 = A0^-1 (b1 - A1 x0)``,
``x12 = A0^-1 (b12 - A1 x1 - A1 x1 - A12 x0)``, the products taken on
the bands by ``dsbmv``.

A band of another shape than the layout's raises ``ValueError``; a
non-finite band entry, a non-positive Cholesky pivot, an exactly zero LU
pivot or a non-finite solution raises :class:`SolverBreakdown`.  The
module and its two entry points keep the names of the dense generic LDL^T
they replaced, because the benchmark's per-layer spans are named
``ldlt.ldlt_factor`` and ``ldlt.ldlt_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs, zgbtrf, zgbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .hdarray import HyperDualArray

__all__ = ["SolverBreakdown", "BandLayout", "band_layout", "ldlt_factor",
           "ldlt_solve"]


class SolverBreakdown(ArithmeticError):
    """A factorization met a non-finite entry or a breakdown pivot, or a
    solve gave a non-finite solution."""


@dataclass(frozen=True)
class BandLayout:
    """Lower band storage of a structurally symmetric ``n x n`` matrix (see
    the module docstring).

    ``perm`` is the reverse Cuthill-McKee ordering and ``width`` the
    half-bandwidth of ``B = A[perm][:, perm]``.  ``source`` lists the flat
    positions in the local array of the entries with ``i >= j``, in
    summation order, and ``target`` where each is added in the
    Fortran-ordered ``(width + 1, n)`` band.  All arrays are read-only."""

    perm: np.ndarray
    width: int
    source: np.ndarray
    target: np.ndarray


def band_layout(rows, cols, pos, n: int) -> BandLayout:
    """Band layout of the ``n x n`` matrix summed, in order, from the
    entries at flat positions ``pos`` of a local array into ``(rows, cols)``
    of a structurally symmetric pattern; ``n`` may be 0."""
    pattern = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    perm = (reverse_cuthill_mckee(pattern, symmetric_mode=True) if n
            else np.arange(0)).astype(int)
    inverse = np.empty(n, dtype=int)
    inverse[perm] = np.arange(n)
    rows, cols = inverse[rows], inverse[cols]
    width = int(np.abs(rows - cols).max(initial=0))
    lower = rows >= cols
    source = np.asarray(pos)[lower]
    target = rows[lower] - cols[lower] + cols[lower] * (width + 1)
    for array in (perm, source, target):
        array.flags.writeable = False
    return BandLayout(perm=perm, width=width, source=source, target=target)


class _Factor(NamedTuple):
    ab: np.ndarray               # Cholesky factor (real) or LU (complex)
    ipiv: Optional[np.ndarray]   # LU row interchanges; None for Cholesky
    band: BandLayout
    parts: Optional[tuple]       # hyper-dual bands (A1, A12); None otherwise


def _permuted_solve(factor: _Factor, rhs) -> np.ndarray:
    """Solve with the factor in the band's (permuted) numbering; ``rhs``
    may be overwritten."""
    if factor.ipiv is None:
        y, _ = dpbtrs(factor.ab, rhs, lower=1, overwrite_b=1)
    else:   # zgbtrs rejects a system without unknowns
        w = factor.band.width
        y = zgbtrs(factor.ab, w, w, rhs, factor.ipiv)[0] if len(rhs) else rhs
    if not np.isfinite(y).all():
        raise SolverBreakdown("non-finite entry in the solution")
    return y


def _unpermuted(band: BandLayout, y):
    x = np.empty_like(y)
    x[band.perm] = y
    return x


def ldlt_factor(ab, band: BandLayout) -> _Factor:
    """Factor a system stored as the lower band ``ab`` of ``band``: the
    banded Cholesky factor of a real band or of the real lane of a
    hyper-dual one, whose other lanes ``(A1, A12)`` the record keeps, or the
    banded LU of a complex band.  ``ab`` itself is left unchanged."""
    lanes = ab.lanes if isinstance(ab, HyperDualArray) else (ab,)
    if lanes[0].shape != (band.width + 1, len(band.perm)):
        raise ValueError(f"a band of shape {lanes[0].shape} does not match "
                         f"the band layout")
    if not all(np.isfinite(lane).all() for lane in lanes):
        raise SolverBreakdown("non-finite entry in the matrix")
    parts, w = lanes[1:] or None, band.width
    if lanes[0].dtype.kind == "c":
        n = ab.shape[1]
        lu = np.zeros((3 * w + 1, n), dtype=complex, order="F")
        lu[2 * w:] = ab
        for d in range(1, w + 1):   # B[j, j + d] = B[j + d, j]
            lu[2 * w - d, d:] = ab[d, :n - d]
        lu, ipiv, info = zgbtrf(lu, w, w, overwrite_ab=True)
        if info > 0:
            raise SolverBreakdown(f"banded LU: pivot {info} is exactly zero")
        return _Factor(lu, ipiv, band, parts)
    c, info = dpbtrf(lanes[0], lower=1)
    if info > 0:
        raise SolverBreakdown(f"banded Cholesky: the leading minor of order "
                              f"{info} is not positive definite")
    return _Factor(c, None, band, parts)


def ldlt_solve(factor: _Factor, b):
    """Solve with a prior :func:`ldlt_factor`, which stays reusable."""
    band = factor.band
    if factor.parts is None:
        return _unpermuted(band,
                           _permuted_solve(factor, np.asarray(b)[band.perm]))
    a1, a12 = factor.parts

    def product(a, x):    # dsbmv rejects a system without unknowns
        return dsbmv(band.width, 1.0, a, x, lower=1) if len(x) else x

    b0, b1, b12 = (lane[band.perm] for lane in b.lanes)
    x0 = _permuted_solve(factor, b0)
    x1 = _permuted_solve(factor, b1 - product(a1, x0))
    cross = product(a1, x1)    # the A1 x2 and A2 x1 terms, equal when tied
    x12 = _permuted_solve(factor, b12 - cross - cross - product(a12, x0))
    return HyperDualArray(*(_unpermuted(band, x) for x in (x0, x1, x12)))
