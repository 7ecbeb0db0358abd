"""Generic scalar arithmetic for derivative verification.

Every geometric and finite-element quantity in this package is a rational
function of the nodal level-set values, so the whole pipeline can be
evaluated over any commutative ring with division.  Three scalar types are
supported:

* plain floats for ordinary evaluation,
* ``complex`` for complex-step differentiation,
* :class:`HyperDual` numbers ``a + b*E1 + c*E2 + d*E1*E2`` with nilpotent
  units (``E1**2 == E2**2 == 0``), which carry exact first and mixed second
  derivatives through arbitrary rational computations.

Only ``+ - * /`` and a sign query are generic.  Transcendental functions
(``sqrt``, ``arccos``, ...) are used on real values only, in the optimizer.
"""

from __future__ import annotations

from typing import Union

__all__ = [
    "HyperDual",
    "DivisionByZeroRealPart",
    "GenericScalar",
    "scalar_sign",
]


class DivisionByZeroRealPart(ZeroDivisionError):
    """Division by a hyper-dual number whose real part vanishes.

    In the cut-geometry formulas this signals a degenerate cut where a
    level-set difference is exactly zero.
    """


_NUMBERS = (int, float)


class HyperDual:
    """Number ``re + e1*E1 + e2*E2 + e12*E1*E2`` with ``E1^2 = E2^2 = 0``.

    Immutable.  Mixed arithmetic with ints and floats is supported; mixing
    with ``complex`` is not (the two perturbation schemes are never
    combined).
    """

    __slots__ = ("re", "e1", "e2", "e12")

    def __init__(self, re: float, e1: float = 0.0, e2: float = 0.0, e12: float = 0.0):
        object.__setattr__(self, "re", float(re))
        object.__setattr__(self, "e1", float(e1))
        object.__setattr__(self, "e2", float(e2))
        object.__setattr__(self, "e12", float(e12))

    def __setattr__(self, name, value):
        raise AttributeError("HyperDual is immutable")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.re + other.re, self.e1 + other.e1,
                             self.e2 + other.e2, self.e12 + other.e12)
        if isinstance(other, _NUMBERS):
            return HyperDual(self.re + other, self.e1, self.e2, self.e12)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.re - other.re, self.e1 - other.e1,
                             self.e2 - other.e2, self.e12 - other.e12)
        if isinstance(other, _NUMBERS):
            return HyperDual(self.re - other, self.e1, self.e2, self.e12)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBERS):
            return HyperDual(other - self.re, -self.e1, -self.e2, -self.e12)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(
                self.re * other.re,
                self.re * other.e1 + self.e1 * other.re,
                self.re * other.e2 + self.e2 * other.re,
                self.re * other.e12 + self.e1 * other.e2
                + self.e2 * other.e1 + self.e12 * other.re,
            )
        if isinstance(other, _NUMBERS):
            return HyperDual(self.re * other, self.e1 * other,
                             self.e2 * other, self.e12 * other)
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self) -> "HyperDual":
        """Exact multiplicative inverse; requires a nonzero real part."""
        a = self.re
        if a == 0.0:
            raise DivisionByZeroRealPart(
                "hyper-dual reciprocal of a number with zero real part")
        inv = 1.0 / a
        inv2 = inv * inv
        return HyperDual(
            inv,
            -self.e1 * inv2,
            -self.e2 * inv2,
            (2.0 * self.e1 * self.e2 * inv - self.e12) * inv2,
        )

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            return self * other.reciprocal()
        if isinstance(other, _NUMBERS):
            if other == 0:
                raise DivisionByZeroRealPart("hyper-dual division by zero")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBERS):
            return self.reciprocal() * other
        return NotImplemented

    def __neg__(self):
        return HyperDual(-self.re, -self.e1, -self.e2, -self.e12)

    def __pos__(self):
        return self

    # -- comparison / misc ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, HyperDual):
            return (self.re == other.re and self.e1 == other.e1
                    and self.e2 == other.e2 and self.e12 == other.e12)
        if isinstance(other, _NUMBERS):
            return self.re == other and self.e1 == self.e2 == self.e12 == 0.0
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.e1, self.e2, self.e12))

    def __repr__(self):
        return (f"HyperDual({self.re!r}, {self.e1!r}, "
                f"{self.e2!r}, {self.e12!r})")


GenericScalar = Union[float, complex, HyperDual]


def scalar_sign(x: GenericScalar) -> int:
    """Sign of a generic scalar, in ``{-1, 0, +1}``.

    The sign is taken from the first nonzero component in lexicographic
    order: real part first, then the leading infinitesimal parts.  This
    agrees with the real limit when the infinitesimal step tends to zero
    from above, so branch decisions (Heaviside, cut classification) made on
    perturbed values match the unperturbed ones.
    """
    if isinstance(x, HyperDual):
        parts = (x.re, x.e1, x.e2, x.e12)
    elif isinstance(x, complex):
        parts = (x.real, x.imag)
    else:
        parts = (float(x),)
    for p in parts:
        if p > 0.0:
            return 1
        if p < 0.0:
            return -1
    return 0
