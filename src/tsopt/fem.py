"""P1 finite elements with exact integration of level-set-cut coefficients.

The reaction-diffusion state problem has piecewise-constant material data
taking one value on the design domain (negative level set) and another on
its complement.  Element integrals are evaluated exactly from the rational
cut-geometry formulas, so assembly, solve and objective are rational in the
nodal level-set values and run unchanged on real, complex and hyper-dual
input.  Dirichlet conditions are imposed by row/column elimination with a
right-hand-side correction, which preserves symmetry.

Every scalar type is scattered straight into sparse free x free and
free x fixed matrices through the mesh's cached CSR scatter map, and solved
by banded LU on the mesh's reverse Cuthill-McKee ordering (see
:mod:`.ldlt`), one factor per system shared by its state and adjoint
solves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .hdarray import HyperDualArray, HyperDualMatrix, generic_zeros, scatter_add
from .ldlt import ldlt_factor, ldlt_solve
from .levelset import (_FULL_LOAD_REF, _FULL_MASS_REF,
                       negative_region_integrals)
from .mesh import (BandLayout, BoundaryData, ElementGeometry, Mesh,
                   ScatterBlock, SingularElement)

__all__ = [
    "SingularElement",
    "ProblemParams",
    "ElementGeometry",
    "AssembledSystem",
    "element_geometry",
    "assemble",
    "solve_state",
    "solve_adjoint",
    "objective",
]


@dataclass(frozen=True)
class ProblemParams:
    """Material constants, cost weights, boundary data and target state.

    Subscript 1 applies on the design domain, subscript 2 on its
    complement.  ``uhat`` is the nodal target vector; it is mesh-bound and
    usually filled in by the experiment setup.
    """

    lambda1: float
    lambda2: float
    alpha1: float
    alpha2: float
    atilde1: float
    atilde2: float
    f1: float
    f2: float
    boundary: BoundaryData
    c1: float = 0.0
    c2: float = 1.0
    uhat: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.lambda1 <= 0.0 or self.lambda2 <= 0.0:
            raise ValueError("diffusion coefficients must be positive")
        for name in ("alpha1", "alpha2", "atilde1", "atilde2", "c1", "c2"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def d_lambda(self) -> float:
        return self.lambda1 - self.lambda2

    @property
    def d_alpha(self) -> float:
        return self.alpha1 - self.alpha2

    @property
    def d_atilde(self) -> float:
        return self.atilde1 - self.atilde2

    @property
    def d_f(self) -> float:
        return self.f1 - self.f2

    def with_uhat(self, uhat: np.ndarray) -> "ProblemParams":
        return replace(self, uhat=uhat)


def element_geometry(mesh: Mesh) -> ElementGeometry:
    """Jacobian determinants, basis gradients and their pair products (the
    mesh's cached, read-only :attr:`~tsopt.mesh.Mesh.geometry`)."""
    return mesh.geometry


@dataclass
class AssembledSystem:
    """Reduced symmetric system plus the local tracking-mass matrices.

    ``matrix`` is a CSR matrix for real and complex data and a
    :class:`~tsopt.hdarray.HyperDualMatrix` of four CSR components for
    hyper-dual data; ``band`` is the band layout of its pattern, and the
    factor is made on the first solve and kept.  ``mt_local`` holds the
    per-element tracking mass matrices (coefficient included), from which
    the tracking quadratic form and the adjoint right-hand side are
    evaluated without a global scatter.
    """

    matrix: object                 # free x free
    rhs: object                    # free
    mt_local: object               # (N, 3, 3)
    free: np.ndarray
    fixed: np.ndarray
    fixed_values: np.ndarray
    num_nodes: int
    elements: np.ndarray
    neg_frac: object               # (N,) reference-units negative area
    det_j: np.ndarray
    band: BandLayout
    _factor: object = None


def _scatter_matrix(values, block: ScatterBlock, shape):
    """Sum the local (N,3,3) entries that a block of a
    :class:`~tsopt.mesh.ReducedIndex` selects into CSR (one CSR matrix per
    hyper-dual component).

    ``np.bincount`` adds the entries of each slot one after another in the
    block's order, as scipy's COO-to-CSR conversion would; complex data is
    summed as its real and imaginary parts."""

    def summed(vals):
        return np.bincount(block.slot, vals, block.nnz)

    def csr(vals):
        vals = vals.reshape(-1)[block.pos]
        if np.iscomplexobj(vals):
            data = np.empty(block.nnz, dtype=vals.dtype)
            data.real = summed(vals.real)
            data.imag = summed(vals.imag)
        else:
            data = summed(vals)
        return sp.csr_matrix((data, block.indices, block.indptr), shape=shape)

    if isinstance(values, HyperDualArray):
        return HyperDualMatrix(csr(values.re), csr(values.e1),
                               csr(values.e2), csr(values.e12))
    return csr(np.asarray(values))


def _scatter_vector(values, tris, num_nodes, like):
    out = generic_zeros(num_nodes, like=like)
    scatter_add(out, tris.reshape(-1), values.reshape(-1))
    return out


def assemble(mesh: Mesh, phi, params: ProblemParams) -> AssembledSystem:
    """Assemble the reduced system ``A_ff u_f = rhs`` for the given design."""
    if phi.shape[0] != mesh.num_nodes:
        raise ValueError("level-set length does not match node count")
    geo = mesh.geometry
    dj = geo.det_j
    neg_frac, neg_mass, neg_load = negative_region_integrals(mesh, phi)

    lam_int = params.lambda2 * 0.5 + params.d_lambda * neg_frac
    k_loc = geo.k0 * (dj * lam_int)[:, None, None]
    m_loc = (params.alpha2 * _FULL_MASS_REF + params.d_alpha * neg_mass) \
        * dj[:, None, None]
    a_loc = k_loc + m_loc
    mt_loc = (params.atilde2 * _FULL_MASS_REF + params.d_atilde * neg_mass) \
        * dj[:, None, None]
    f_loc = (params.f2 * _FULL_LOAD_REF + params.d_f * neg_load) * dj[:, None]

    tris = mesh.elements
    num_nodes = mesh.num_nodes
    index = mesh.reduced_index
    free, fixed = index.free, index.fixed
    a_ff = _scatter_matrix(a_loc, index.ff, (len(free), len(free)))
    a_fd = _scatter_matrix(a_loc, index.fd, (len(free), len(fixed)))
    f_glob = _scatter_vector(f_loc, tris, num_nodes, like=a_loc)

    x, y = mesh.nodes[fixed, 0], mesh.nodes[fixed, 1]
    g = np.asarray(params.boundary.g_d(x, y), dtype=float)
    rhs = f_glob[free] - a_fd @ g

    return AssembledSystem(matrix=a_ff, rhs=rhs, mt_local=mt_loc,
                           free=free, fixed=fixed, fixed_values=g,
                           num_nodes=num_nodes, elements=tris,
                           neg_frac=neg_frac, det_j=dj, band=index.band)


def _apply_factor(system: AssembledSystem, rhs):
    if system._factor is None:
        system._factor = ldlt_factor(system.matrix, system.band)
    return ldlt_solve(system._factor, rhs)


def _embed(system: AssembledSystem, vec_free, fixed_values):
    full = generic_zeros(system.num_nodes, like=vec_free)
    full[system.free] = vec_free
    if len(system.fixed):
        full[system.fixed] = fixed_values
    return full


def solve_state(system: AssembledSystem):
    """Solve the state problem; returns the full-length nodal vector."""
    u_free = _apply_factor(system, system.rhs)
    return _embed(system, u_free, system.fixed_values)


def tracking_matvec(system: AssembledSystem, w):
    """Global product of the tracking mass matrix with a nodal vector."""
    w_loc = w[system.elements]
    local = (system.mt_local * w_loc[:, None, :]).sum(axis=-1)
    return _scatter_vector(local, system.elements, system.num_nodes, like=local)


def solve_adjoint(system: AssembledSystem, u, params: ProblemParams):
    """Adjoint solve with homogeneous Dirichlet data."""
    if params.uhat is None:
        raise ValueError("params.uhat is not set")
    w = u - params.uhat
    rhs = -(2.0 * params.c2) * tracking_matvec(system, w)
    p_free = _apply_factor(system, rhs[system.free])
    return _embed(system, p_free, np.zeros(len(system.fixed)))


def objective(mesh: Mesh, phi, u, params: ProblemParams,
              system: AssembledSystem | None = None):
    """Cost ``c1 |Omega| + c2 (u - uhat)^T Mt (u - uhat)``, generic."""
    if system is None:
        system = assemble(mesh, phi, params)
    if params.uhat is None:
        raise ValueError("params.uhat is not set")
    w = u - params.uhat
    w_loc = w[system.elements]
    tmp = (system.mt_local * w_loc[:, None, :]).sum(axis=-1)
    tracking = (tmp * w_loc).sum(axis=-1).sum()
    value = params.c2 * tracking
    if params.c1 != 0.0:
        value = value + params.c1 * (system.neg_frac * system.det_j).sum()
    return value
