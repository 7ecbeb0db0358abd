"""Vectorized hyper-dual arrays.

:class:`HyperDualArray` stores the four components of an array of
hyper-dual numbers as separate float64 ndarrays and implements the small
operation set the assembly/solve code needs (elementwise arithmetic,
indexing and ``sum``).  NumPy float and complex arrays already
satisfy the same interface, so generic code is written once and runs on
either representation.

Helper functions at the bottom dispatch on the representation:
``sign_array`` applies the lexicographic sign rule per entry,
``real_part``/``e1_part``/... extract components, ``generic_zeros``
allocates an array matching a prototype's scalar type.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .scalars import DivisionByZeroRealPart, HyperDual

__all__ = [
    "HyperDualArray",
    "HyperDualMatrix",
    "promote_like",
    "generic_zeros",
    "real_part",
    "sign_array",
]


class HyperDualArray:
    """Array of hyper-dual numbers, stored as four float64 component arrays.

    Binary operators accept another :class:`HyperDualArray`, a
    :class:`~tsopt.scalars.HyperDual` scalar, or any real ndarray/number;
    NumPy broadcasting rules apply componentwise.
    """

    __slots__ = ("re", "e1", "e2", "e12")

    # make ndarray binary ops defer to our reflected operators
    __array_ufunc__ = None

    def __init__(self, re, e1=None, e2=None, e12=None):
        re = np.asarray(re, dtype=float)
        self.re = re
        self.e1 = np.zeros_like(re) if e1 is None else np.asarray(e1, dtype=float)
        self.e2 = np.zeros_like(re) if e2 is None else np.asarray(e2, dtype=float)
        self.e12 = np.zeros_like(re) if e12 is None else np.asarray(e12, dtype=float)
        if not (self.e1.shape == self.e2.shape == self.e12.shape == re.shape):
            raise ValueError("component shapes differ")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_real(cls, arr) -> "HyperDualArray":
        return cls(np.array(arr, dtype=float))

    @classmethod
    def zeros(cls, shape) -> "HyperDualArray":
        return cls(np.zeros(shape))

    def copy(self) -> "HyperDualArray":
        return HyperDualArray(self.re.copy(), self.e1.copy(),
                              self.e2.copy(), self.e12.copy())

    # -- shape bookkeeping ---------------------------------------------------

    @property
    def shape(self):
        return self.re.shape

    @property
    def ndim(self):
        return self.re.ndim

    @property
    def size(self):
        return self.re.size

    def __len__(self):
        return len(self.re)

    def reshape(self, *shape) -> "HyperDualArray":
        return HyperDualArray(self.re.reshape(*shape), self.e1.reshape(*shape),
                              self.e2.reshape(*shape), self.e12.reshape(*shape))

    # -- indexing ------------------------------------------------------------

    def __getitem__(self, idx):
        re = self.re[idx]
        if np.ndim(re) == 0:
            return HyperDual(re, self.e1[idx], self.e2[idx], self.e12[idx])
        return HyperDualArray(re, self.e1[idx], self.e2[idx], self.e12[idx])

    def __setitem__(self, idx, value):
        a, b, c, d = _components(value)
        self.re[idx] = a
        self.e1[idx] = b
        self.e2[idx] = c
        self.e12[idx] = d

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        comps = _components(other)
        if comps is NotImplemented:
            return NotImplemented
        a, b, c, d = comps
        return HyperDualArray(self.re + a, self.e1 + b, self.e2 + c, self.e12 + d)

    __radd__ = __add__

    def __sub__(self, other):
        comps = _components(other)
        if comps is NotImplemented:
            return NotImplemented
        a, b, c, d = comps
        return HyperDualArray(self.re - a, self.e1 - b, self.e2 - c, self.e12 - d)

    def __rsub__(self, other):
        comps = _components(other)
        if comps is NotImplemented:
            return NotImplemented
        a, b, c, d = comps
        return HyperDualArray(a - self.re, b - self.e1, c - self.e2, d - self.e12)

    def __mul__(self, other):
        comps = _components(other)
        if comps is NotImplemented:
            return NotImplemented
        a, b, c, d = comps
        return HyperDualArray(
            self.re * a,
            self.re * b + self.e1 * a,
            self.re * c + self.e2 * a,
            self.re * d + self.e1 * c + self.e2 * b + self.e12 * a,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "HyperDualArray":
        if np.any(self.re == 0.0):
            raise DivisionByZeroRealPart(
                "hyper-dual array reciprocal with zero real part entries")
        inv = 1.0 / self.re
        inv2 = inv * inv
        return HyperDualArray(
            inv,
            -self.e1 * inv2,
            -self.e2 * inv2,
            (2.0 * self.e1 * self.e2 * inv - self.e12) * inv2,
        )

    def __truediv__(self, other):
        if isinstance(other, (HyperDualArray, HyperDual)):
            return self * _as_hda(other).reciprocal()
        comps = _components(other)
        if comps is NotImplemented:
            return NotImplemented
        inv = 1.0 / comps[0]
        return HyperDualArray(self.re * inv, self.e1 * inv,
                              self.e2 * inv, self.e12 * inv)

    def __rtruediv__(self, other):
        comps = _components(other)
        if comps is NotImplemented:
            return NotImplemented
        return self.reciprocal() * other

    def __neg__(self):
        return HyperDualArray(-self.re, -self.e1, -self.e2, -self.e12)

    def __pos__(self):
        return self

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None):
        re = self.re.sum(axis=axis)
        if np.ndim(re) == 0:
            return HyperDual(re, self.e1.sum(axis=axis), self.e2.sum(axis=axis),
                             self.e12.sum(axis=axis))
        return HyperDualArray(re, self.e1.sum(axis=axis), self.e2.sum(axis=axis),
                              self.e12.sum(axis=axis))

    def __repr__(self):
        return f"HyperDualArray(shape={self.shape})"


class HyperDualMatrix(NamedTuple):
    """Four real sparse matrices on one pattern: a sparse hyper-dual matrix."""

    re: object
    e1: object
    e2: object
    e12: object

    def __matmul__(self, x) -> HyperDualArray:
        """Product with a real vector."""
        return HyperDualArray(*(m @ x for m in self))


def _as_hda(x) -> HyperDualArray:
    if isinstance(x, HyperDualArray):
        return x
    if isinstance(x, HyperDual):
        return HyperDualArray(np.asarray(x.re), np.asarray(x.e1),
                              np.asarray(x.e2), np.asarray(x.e12))
    raise TypeError(type(x))


def _components(value):
    """Component quadruple of any operand, broadcasting scalars as needed."""
    if isinstance(value, HyperDualArray):
        return value.re, value.e1, value.e2, value.e12
    if isinstance(value, HyperDual):
        return value.re, value.e1, value.e2, value.e12
    if isinstance(value, (int, float, np.ndarray, np.floating, np.integer)):
        arr = np.asarray(value, dtype=float)
        return arr, 0.0, 0.0, 0.0
    return NotImplemented


def promote_like(phi: np.ndarray, eps) -> "np.ndarray | HyperDualArray":
    """Copy of a real nodal array in the scalar representation of ``eps``."""
    if isinstance(eps, HyperDual):
        return HyperDualArray.from_real(phi)
    if isinstance(eps, complex) and not isinstance(eps, float):
        return np.array(phi, dtype=complex)
    return np.array(phi, dtype=float)


def generic_zeros(shape, like) -> "np.ndarray | HyperDualArray":
    """Zero array of the given shape matching the scalar type of ``like``."""
    if isinstance(like, HyperDualArray):
        return HyperDualArray.zeros(shape)
    return np.zeros(shape, dtype=np.asarray(like).dtype)


def real_part(x):
    """Real component of a generic scalar or array."""
    if isinstance(x, (HyperDualArray, HyperDual)):
        return x.re
    if isinstance(x, complex):
        return x.real
    return np.real(x) if isinstance(x, np.ndarray) else x


def scatter_add(target, idx, values) -> None:
    """In-place ``target[idx] += values`` with repeated indices accumulated,
    for plain ndarrays and hyper-dual arrays alike."""
    if isinstance(target, HyperDualArray):
        comps = _components(values)
        for t, v in zip((target.re, target.e1, target.e2, target.e12), comps):
            if isinstance(v, np.ndarray) or v != 0.0:
                np.add.at(t, idx, v)
    else:
        np.add.at(target, idx, values)


def sign_array(x) -> np.ndarray:
    """Lexicographic sign (per :func:`tsopt.scalars.scalar_sign`) of every
    entry, returned as an int8 array."""
    if isinstance(x, HyperDualArray):
        parts = (x.re, x.e1, x.e2, x.e12)
    else:
        x = np.asarray(x)
        parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    sign = np.zeros(parts[0].shape, dtype=np.int8)
    for p in parts:
        undecided = sign == 0
        sign[undecided & (p > 0.0)] = 1
        sign[undecided & (p < 0.0)] = -1
    return sign
