"""Hyper-dual numbers with a tied lane, stored as arrays.

Every geometric and finite-element quantity in this package is a rational
function of the nodal level-set values, so the whole pipeline runs over any
commutative ring with division: plain floats, ``complex`` for the complex
step, and hyper-dual numbers ``a + b E1 + c E2 + d E1 E2`` with nilpotent
units (``E1**2 == E2**2 == 0``), which carry exact first and mixed second
derivatives through every ``+ - * /``.

Every hyper-dual seed puts the same step on both units, ``x + h E1 + h E2``,
and the arithmetic treats the two units alike, so the E2 part always equals
the E1 part.  :class:`HyperDualArray` therefore stores three float64 lanes
``(re, e1, e12)`` with E2 tied to E1: second-order Taylor arithmetic, where
``e1 = h f'`` and ``e12 = h^2 f''`` (Griewank and Walther, *Evaluating
Derivatives*, 2nd ed., 2008).  Each operation keeps the operation order of
the four-lane formula with e2 replaced by e1, so the lanes are bitwise those
of the untied numbers.  The 0-d array is the hyper-dual scalar.

NumPy float and complex arrays already satisfy the same small interface
(elementwise arithmetic, indexing and ``sum``), so generic code is written
once and runs on every scalar type.  Two helpers at the bottom dispatch on
the representation: ``promote_like`` is the one rule for the scalar type of
a new array (hyper-dual, else complex, else float), and ``sign_array``
applies the lexicographic sign rule per entry.  Transcendental functions
are used on real values only, in the optimizer.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "DivisionByZeroRealPart",
    "GenericScalar",
    "HyperDualArray",
    "promote_like",
    "sign_array",
]


class DivisionByZeroRealPart(ZeroDivisionError):
    """Division by a hyper-dual number whose real part vanishes.

    In the cut-geometry formulas this signals a degenerate cut where a
    level-set difference is exactly zero.
    """


class HyperDualArray:
    """Array of hyper-dual numbers ``re + e1 (E1 + E2) + e12 E1 E2``.

    Binary operators accept another :class:`HyperDualArray` or any real
    ndarray/number; NumPy broadcasting rules apply lane by lane.
    """

    __slots__ = ("re", "e1", "e12")

    # make ndarray binary ops defer to our reflected operators
    __array_ufunc__ = None

    def __init__(self, re, e1=None, e12=None):
        re = np.asarray(re, dtype=float)
        self.re = re
        self.e1 = np.zeros_like(re) if e1 is None else np.asarray(e1, dtype=float)
        self.e12 = np.zeros_like(re) if e12 is None else np.asarray(e12, dtype=float)
        if not (self.e1.shape == self.e12.shape == re.shape):
            raise ValueError("component shapes differ")

    @property
    def lanes(self):
        return self.re, self.e1, self.e12

    @property
    def shape(self):
        return self.re.shape

    def __getitem__(self, idx):
        return HyperDualArray(self.re[idx], self.e1[idx], self.e12[idx])

    def __setitem__(self, idx, value):
        for lane, part in zip(self.lanes, _lanes(value)):
            lane[idx] = part

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        lanes = _lanes(other)
        if lanes is NotImplemented:
            return NotImplemented
        a, b, d = lanes
        return HyperDualArray(self.re + a, self.e1 + b, self.e12 + d)

    __radd__ = __add__

    def __sub__(self, other):
        lanes = _lanes(other)
        if lanes is NotImplemented:
            return NotImplemented
        a, b, d = lanes
        return HyperDualArray(self.re - a, self.e1 - b, self.e12 - d)

    def __rsub__(self, other):
        lanes = _lanes(other)
        if lanes is NotImplemented:
            return NotImplemented
        a, b, d = lanes
        return HyperDualArray(a - self.re, b - self.e1, d - self.e12)

    def __mul__(self, other):
        lanes = _lanes(other)
        if lanes is NotImplemented:
            return NotImplemented
        a, b, d = lanes
        cross = self.e1 * b    # the E1 E2 and E2 E1 terms of the product
        return HyperDualArray(self.re * a, self.re * b + self.e1 * a,
                              self.re * d + cross + cross + self.e12 * a)

    __rmul__ = __mul__

    def reciprocal(self) -> "HyperDualArray":
        if np.any(self.re == 0.0):
            raise DivisionByZeroRealPart(
                "hyper-dual reciprocal with zero real part entries")
        inv = 1.0 / self.re
        inv2 = inv * inv
        e12 = (2.0 * self.e1 * self.e1 * inv - self.e12) * inv2
        return HyperDualArray(inv, -self.e1 * inv2, e12)

    def __truediv__(self, other):
        if isinstance(other, HyperDualArray):
            return self * other.reciprocal()
        lanes = _lanes(other)
        if lanes is NotImplemented:
            return NotImplemented
        inv = 1.0 / lanes[0]
        return HyperDualArray(self.re * inv, self.e1 * inv, self.e12 * inv)

    def __rtruediv__(self, other):
        if _lanes(other) is NotImplemented:
            return NotImplemented
        return self.reciprocal() * other

    def __neg__(self):
        return HyperDualArray(-self.re, -self.e1, -self.e12)

    def reshape(self, *shape) -> "HyperDualArray":
        return HyperDualArray(*(lane.reshape(*shape) for lane in self.lanes))

    def transpose(self, *axes) -> "HyperDualArray":
        return HyperDualArray(*(lane.transpose(*axes) for lane in self.lanes))

    def sum(self, axis=None):
        return HyperDualArray(*(lane.sum(axis=axis) for lane in self.lanes))

    def __repr__(self):
        return f"HyperDualArray(shape={self.shape})"


GenericScalar = Union[float, complex, HyperDualArray]


def _lanes(value):
    """The three lanes of any operand, broadcasting reals as needed."""
    if isinstance(value, HyperDualArray):
        return value.lanes
    if isinstance(value, (int, float, np.ndarray, np.floating, np.integer)):
        return np.asarray(value, dtype=float), 0.0, 0.0
    return NotImplemented


def promote_like(values, like) -> "np.ndarray | HyperDualArray":
    """Real ``values`` in the scalar type of ``like``, a scalar or array:
    hyper-dual, else complex, else float.  Float ``values`` are not copied."""
    if isinstance(like, HyperDualArray):
        return HyperDualArray(values)
    if np.iscomplexobj(like):
        return np.asarray(values, dtype=complex)
    return np.asarray(values, dtype=float)


def sign_array(x) -> np.ndarray:
    """Lexicographic sign of every entry, as an int8 array in {-1, 0, +1}.

    The sign is taken from the first nonzero part in lexicographic order:
    the real part first, then the infinitesimal parts (imaginary, or e1 then
    e12).  This agrees with the real limit when the infinitesimal step tends
    to zero from above, so branch decisions (Heaviside, cut classification)
    made on perturbed values match the unperturbed ones.
    """
    if isinstance(x, HyperDualArray):
        parts = x.lanes
    else:
        x = np.asarray(x)
        parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    sign = None
    for p in parts:
        part = (p > 0.0).view(np.int8) - (p < 0.0).view(np.int8)
        sign = part if sign is None else np.where(sign == 0, part, sign)
    return sign
