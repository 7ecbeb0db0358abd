"""P1 finite elements with exact integration of level-set-cut coefficients.

The reaction-diffusion state problem has piecewise-constant material data
taking one value on the design domain (negative level set) and another on
its complement.  Element integrals are evaluated exactly from the rational
cut-geometry formulas, so assembly, solve and objective are rational in the
nodal level-set values and run unchanged on real, complex and hyper-dual
input.  Dirichlet conditions are imposed by row/column elimination with a
right-hand-side correction, which preserves symmetry.

Only the cut elements are integrated and evaluated on each call; every
other element lies wholly in one material and takes its local data from a
per-mesh cache built once per material.  Every local array has the element
axis last.  The mesh's one cached scatter map sums the matrix entries of
every scalar type straight into the free x free and free x fixed CSR data,
in the order scipy's COO-to-CSR conversion would sum them; the Dirichlet
coupling is the free x fixed block times the mesh's Dirichlet values.
Each system is solved on the mesh's reverse Cuthill-McKee ordering (see
:mod:`.ldlt`): a real system, symmetric positive definite after the
elimination, and the real part of a hyper-dual one by banded Cholesky, a
complex-step system by banded LU, one factor per system shared by its
state and adjoint solves.  A system keeps its mesh and reads every
per-mesh array from it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import NamedTuple, Optional

import numpy as np

from .hdarray import HyperDualArray, HyperDualMatrix, promote_like
from .ldlt import ldlt_factor, ldlt_solve
from .levelset import (_FULL_LOAD_REF, _FULL_MASS_REF,
                       negative_region_integrals)
from .mesh import ElementGeometry, Mesh, ScatterBlock

__all__ = [
    "ProblemParams",
    "ElementGeometry",
    "AssembledSystem",
    "element_geometry",
    "assemble",
    "solve_state",
    "solve_adjoint",
    "objective",
    "evaluate_cost",
]


_CONSTANTS = ("lambda1", "lambda2", "alpha1", "alpha2", "atilde1", "atilde2",
              "f1", "f2", "c1", "c2")


@dataclass(frozen=True)
class ProblemParams:
    """Material constants, cost weights and target state.

    Subscript 1 applies on the design domain, subscript 2 on its
    complement.  The ten constants are finite numbers (``bool`` is not
    one).  ``uhat`` is the nodal target vector; it is mesh-bound and
    usually filled in by the experiment setup.  The Dirichlet data belongs
    to the mesh (:func:`tsopt.mesh.tag_boundary`).  The benchmark values
    live in :func:`tsopt.problems.default_params`.
    """

    lambda1: float
    lambda2: float
    alpha1: float
    alpha2: float
    atilde1: float
    atilde2: float
    f1: float
    f2: float
    c1: float
    c2: float
    uhat: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in _CONSTANTS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{name} must be a number")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
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
    :class:`~tsopt.hdarray.HyperDualMatrix` of three CSR lanes for
    hyper-dual data, in the numbering of ``mesh.reduced_index``; the factor
    is made on the first solve and kept.  ``mt_local`` holds the
    per-element tracking mass matrices (coefficient included, element axis
    last), from which the tracking quadratic form and the adjoint
    right-hand side are evaluated without a global scatter.
    """

    matrix: object                 # free x free
    rhs: object                    # free
    mt_local: object               # (3, 3, N)
    mesh: Mesh
    neg_frac: object               # (N,) reference-units negative area
    _factor: object = None


def _summed(vals, slot, size):
    """Sum ``vals`` into ``size`` slots.  ``np.bincount`` adds the entries of
    each slot one after another in input order, as scipy's COO-to-CSR
    conversion, its CSR matrix-vector product and ``np.add.at`` would;
    complex data is summed as its real and imaginary parts, and hyper-dual
    data lane by lane."""
    if isinstance(vals, HyperDualArray):
        return HyperDualArray(*(_summed(lane, slot, size)
                                for lane in vals.lanes))
    vals = np.asarray(vals).reshape(-1)
    if np.iscomplexobj(vals):
        data = np.empty(size, dtype=vals.dtype)
        data.real = np.bincount(slot, vals.real, size)
        data.imag = np.bincount(slot, vals.imag, size)
        return data
    return np.bincount(slot, vals, size)


def _scatter_matrix(values, block: ScatterBlock):
    """Sum the entries of the element-last ``(3, 3, N)`` local matrices
    ``values`` that ``block`` of the mesh's scatter map
    (:attr:`~tsopt.mesh.Mesh.scatter` or a
    :class:`~tsopt.mesh.ReducedIndex` block) selects into CSR (one CSR
    matrix per hyper-dual lane).

    Each matrix is a shallow copy of the block's pattern with data of its
    own: the read-only index arrays are shared, as the CSR constructor
    would share them, without being checked again on every call."""

    def csr(vals):
        matrix = copy.copy(block.pattern)
        matrix.data = _summed(vals.reshape(-1)[block.pos], block.slot,
                              block.pattern.nnz)
        return matrix

    if isinstance(values, HyperDualArray):
        return HyperDualMatrix(*(csr(lane) for lane in values.lanes))
    return csr(values)


def _local_matrices(params: ProblemParams, k0, dj, neg_frac, neg_mass,
                    neg_load):
    """System matrices, tracking mass matrices and load vectors of elements
    from the reference integrals over their negative parts, with the
    element axis last: ``k0`` and ``neg_mass`` are (3, 3, n), ``neg_load``
    (3, n), ``dj`` and ``neg_frac`` (n,)."""
    lam_int = params.lambda2 * 0.5 + params.d_lambda * neg_frac
    k_loc = k0 * (dj * lam_int)
    full_mass = _FULL_MASS_REF[:, :, None]
    m_loc = (params.alpha2 * full_mass + params.d_alpha * neg_mass) * dj
    mt_loc = (params.atilde2 * full_mass + params.d_atilde * neg_mass) * dj
    f_loc = (params.f2 * _FULL_LOAD_REF[:, None] + params.d_f * neg_load) * dj
    return k_loc + m_loc, mt_loc, f_loc


_material = attrgetter(*_CONSTANTS[:8])   # those of the local matrices


class _UncutLocals(NamedTuple):
    """Local data of every element for one material, with the element axis
    last, each stacked as (fully positive, fully negative): the system
    matrices, the tracking mass matrices and the load vectors."""

    a: np.ndarray          # (2, 3, 3, N)
    mt: np.ndarray         # (2, 3, 3, N)
    f: np.ndarray          # (2, 3, N)


def _uncut_locals(mesh: Mesh, params: ProblemParams) -> _UncutLocals:
    """The mesh's :class:`_UncutLocals` for the material of ``params``,
    built on first use by :func:`_local_matrices` at the two uncut states."""
    key = _material(params)
    cached = mesh.uncut_locals.get(key)
    if cached is None:
        geo = mesh.geometry
        cached = _UncutLocals(*_local_matrices(
            params, geo.k0.transpose(1, 2, 0), geo.det_j,
            np.array([0.0, 0.5])[:, None, None, None],
            np.stack([np.zeros((3, 3)), _FULL_MASS_REF])[..., None],
            np.stack([np.zeros(3), _FULL_LOAD_REF])[..., None]))
        for array in cached:
            array.flags.writeable = False
        mesh.uncut_locals[key] = cached
    return cached


def assemble(mesh: Mesh, phi, params: ProblemParams) -> AssembledSystem:
    """Assemble the reduced system ``A_ff u_f = rhs`` for the given design.

    Only the cut elements are integrated and evaluated; every other element
    takes its cached local data (:func:`_uncut_locals`)."""
    if phi.shape[0] != mesh.num_nodes:
        raise ValueError("level-set length does not match node count")
    full, cut, frac, mass, load = negative_region_integrals(mesh, phi)
    uncut = _uncut_locals(mesh, params)
    geo = mesh.geometry
    a_cut, mt_cut, f_cut = _local_matrices(
        params, geo.k0[cut].transpose(1, 2, 0), geo.det_j[cut], frac, mass,
        load)

    def merged(stacked, values):
        # uncut data by material along the last axis, in the scalar type of
        # the cut elements' ``values``, which replace it at ``cut``
        base = promote_like(np.where(full, stacked[1], stacked[0]), values)
        base[..., cut] = values
        return base

    a_loc = merged(uncut.a, a_cut)
    f_loc = merged(uncut.f, f_cut)
    index = mesh.reduced_index
    f_glob = _summed(f_loc.transpose(), mesh.elements.ravel(), mesh.num_nodes)
    return AssembledSystem(
        matrix=_scatter_matrix(a_loc, index.ff),
        rhs=(f_glob[index.free]
             - _scatter_matrix(a_loc, index.fd) @ mesh.dirichlet_values),
        mt_local=merged(uncut.mt, mt_cut), mesh=mesh,
        neg_frac=merged((0.0, 0.5), frac))


def _apply_factor(system: AssembledSystem, rhs):
    if system._factor is None:
        system._factor = ldlt_factor(system.matrix,
                                     system.mesh.reduced_index.band)
    return ldlt_solve(system._factor, rhs)


def _embed(system: AssembledSystem, vec_free):
    """Nodal vector of ``vec_free`` on the free nodes, zero elsewhere."""
    full = promote_like(np.zeros(system.mesh.num_nodes), vec_free)
    full[system.mesh.reduced_index.free] = vec_free
    return full


def solve_state(system: AssembledSystem):
    """Solve the state problem; returns the full-length nodal vector."""
    u = _embed(system, _apply_factor(system, system.rhs))
    u[system.mesh.dirichlet_nodes] = system.mesh.dirichlet_values
    return u


def _element_matvec(mt, w_loc):
    """``mt @ w`` of every element's (3, 3) matrix and 3-vector, element
    axis last, each row summed left to right as ``(mt * w).sum(axis=-1)``
    sums it in the (N, 3, 3) layout."""
    return (mt[:, 0] * w_loc[0] + mt[:, 1] * w_loc[1]) + mt[:, 2] * w_loc[2]


def tracking_matvec(system: AssembledSystem, w):
    """Global product of the tracking mass matrix with a nodal vector."""
    tris = system.mesh.elements
    local = _element_matvec(system.mt_local, w[tris.T])
    return _summed(local.transpose(), tris.ravel(), system.mesh.num_nodes)


def solve_adjoint(system: AssembledSystem, u, params: ProblemParams):
    """Adjoint solve with homogeneous Dirichlet data."""
    if params.uhat is None:
        raise ValueError("params.uhat is not set")
    w = u - params.uhat
    rhs = -(2.0 * params.c2) * tracking_matvec(system, w)
    free = system.mesh.reduced_index.free
    return _embed(system, _apply_factor(system, rhs[free]))


def objective(mesh: Mesh, phi, u, params: ProblemParams,
              system: AssembledSystem):
    """Cost ``c1 |Omega| + c2 (u - uhat)^T Mt (u - uhat)`` of the design
    ``phi`` that ``system`` was assembled for, generic."""
    if params.uhat is None:
        raise ValueError("params.uhat is not set")
    w = u - params.uhat
    w_loc = w[mesh.elements.T]
    tmp = _element_matvec(system.mt_local, w_loc)
    tracking = ((tmp[0] * w_loc[0] + tmp[1] * w_loc[1])
                + tmp[2] * w_loc[2]).sum()
    value = params.c2 * tracking
    if params.c1 != 0.0:
        value = value + params.c1 * (system.neg_frac
                                     * mesh.geometry.det_j).sum()
    return value


def evaluate_cost(mesh: Mesh, phi, params: ProblemParams):
    """Cost of the design ``phi`` in its scalar type, with the system it
    assembled (factored by the state solve) and the state: ``(j, system,
    u)``."""
    system = assemble(mesh, phi, params)
    u = solve_state(system)
    return objective(mesh, phi, u, params, system=system), system, u
