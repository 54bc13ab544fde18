"""Quaternions over Q as the N = 2 extension C[i] with carrier C = Q(j).

Here tau = i with i**2 = -1 (so tau_sign = -1).  The carrier is the field
Q(q) at order 4 with j = q, so both instances run on ``CycScalar``.  The
twisting endomorphism is complex conjugation, the Galois automorphism
j -> j**-1 (u i = i ubar), and the grading's q = -1 is j**2.

A quaternion a0 + a1 i + a2 j + a3 k splits as z0 + i z1 with z0 = a0 + a2 j
and z1 = a1 + a3 j (using k = i j).
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycScalar
from .galois import (
    CarrierAlgebra,
    Coordinate,
    ExtElement,
    NonInvertibleCoordinate,
    NotInvertible,
    right_derivative,
)


class ConjugationCarrier(CarrierAlgebra):
    """The complex-line carrier with phi = conjugation, N = 2, tau**2 = -1."""

    order = 2
    tau_sign = -1

    def zero(self):
        return CycScalar.zero(4)

    def one(self):
        return CycScalar.one(4)

    def phi(self, u):
        return u.galois(-1)

    def invert(self, u):
        if not u:
            raise NotInvertible("zero has no inverse")
        return u.inverse()

    def q_element(self, k: int):
        return CycScalar.q_power(4, 2 * k)

    def __eq__(self, other):
        return isinstance(other, ConjugationCarrier)

    def __hash__(self):
        return hash(ConjugationCarrier)


CARRIER = ConjugationCarrier()


def from_quaternion(a0, a1, a2, a3) -> ExtElement:
    """a0 + a1 i + a2 j + a3 k as (z0, z1) = (a0 + a2 j, a1 + a3 j)."""
    return ExtElement(
        CARRIER, (CycScalar.from_poly(4, (a0, a2)), CycScalar.from_poly(4, (a1, a3)))
    )


def to_quaternion(xi: ExtElement) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    if xi.carrier != CARRIER:
        raise ValueError("not a quaternion element")
    z0, z1 = xi.components
    return (z0.coeffs[0], z1.coeffs[0], z0.coeffs[1], z1.coeffs[1])


QUAT_ONE = from_quaternion(1, 0, 0, 0)
QUAT_I = from_quaternion(0, 1, 0, 0)
QUAT_J = from_quaternion(0, 0, 1, 0)
QUAT_K = from_quaternion(0, 0, 0, 1)


def second_right_derivative(u: CycScalar, x: CycScalar) -> CycScalar:
    """(d/dx)(du/dx) on the carrier; identically zero whenever x has a j part.

    The first derivative Delta(x)**-1 Delta(u) is the rational constant
    (j part of u) / (j part of x), so the second difference vanishes.
    """
    coord = Coordinate(CARRIER, x)
    return right_derivative(right_derivative(u, coord), coord)


def linear_decomposition(u: CycScalar, x: CycScalar) -> tuple[Fraction, Fraction]:
    """Rational (c, d) with u = c*1 + d*x; requires x to have a nonzero j part.

    Witnesses that every carrier element is an affine function of any valid
    coordinate, which is why second derivatives vanish identically.
    """
    (u0, u1), (x0, x1) = u.coeffs, x.coeffs
    if not x1:
        raise NonInvertibleCoordinate("coordinate needs a nonzero j part")
    d = u1 / x1
    c = u0 - d * x0
    return (c, d)
