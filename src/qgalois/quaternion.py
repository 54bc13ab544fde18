"""Quaternions over Q as the N = 2 extension C[i] with carrier C = Q + Qj.

Here tau = i with i**2 = -1 (so tau_sign = -1), the carrier is the complex
line spanned by 1 and j, the twisting endomorphism is complex conjugation
(u i = i ubar), and q = -1 lives in Q itself, so the carrier works over plain
rational scalars instead of a cyclotomic field.

A quaternion a0 + a1 i + a2 j + a3 k splits as z0 + i z1 with z0 = a0 + a2 j
and z1 = a1 + a3 j (using k = i j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .galois import (
    CarrierAlgebra,
    ExtElement,
    NonInvertibleCoordinate,
    NotInvertible,
    right_derivative,
)


@dataclass(frozen=True)
class ComplexRational:
    """a + b*j with rational a, b; ``im`` is the coefficient of j."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> ComplexRational:
        return ComplexRational(Fraction(re), Fraction(im))

    def __add__(self, other: ComplexRational) -> ComplexRational:
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: ComplexRational) -> ComplexRational:
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> ComplexRational:
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other: ComplexRational) -> ComplexRational:
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def scale(self, c) -> ComplexRational:
        """Multiply by a rational scalar."""
        c = Fraction(c)
        return ComplexRational(c * self.re, c * self.im)

    def conjugate(self) -> ComplexRational:
        return ComplexRational(self.re, -self.im)

    def inverse(self) -> ComplexRational:
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise NotInvertible("zero has no inverse")
        return ComplexRational(self.re / norm, -self.im / norm)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*j" if abs(self.im) != 1 else ("j" if self.im > 0 else "-j")
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        jpart = "j" if mag == 1 else f"{mag}*j"
        return f"{self.re} {sign} {jpart}"


_C_ZERO = ComplexRational.of(0)
_C_ONE = ComplexRational.of(1)


class ConjugationCarrier(CarrierAlgebra):
    """The complex-line carrier with phi = conjugation, N = 2, tau**2 = -1."""

    order = 2
    tau_sign = -1

    def zero(self):
        return _C_ZERO

    def one(self):
        return _C_ONE

    def phi(self, u):
        return u.conjugate()

    def invert(self, u):
        return u.inverse()

    def q_element(self, k: int):
        return _C_ONE if k % 2 == 0 else -_C_ONE

    def __eq__(self, other):
        return isinstance(other, ConjugationCarrier)

    def __hash__(self):
        return hash(ConjugationCarrier)


CARRIER = ConjugationCarrier()


def from_quaternion(a0, a1, a2, a3) -> ExtElement:
    """a0 + a1 i + a2 j + a3 k as (z0, z1) = (a0 + a2 j, a1 + a3 j)."""
    return ExtElement(
        CARRIER,
        (ComplexRational.of(a0, a2), ComplexRational.of(a1, a3)),
    )


def to_quaternion(xi: ExtElement) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    if xi.carrier != CARRIER:
        raise ValueError("not a quaternion element")
    z0, z1 = xi.components
    return (z0.re, z1.re, z0.im, z1.im)


QUAT_ONE = from_quaternion(1, 0, 0, 0)
QUAT_I = from_quaternion(0, 1, 0, 0)
QUAT_J = from_quaternion(0, 0, 1, 0)
QUAT_K = from_quaternion(0, 0, 0, 1)


def second_right_derivative(u: ComplexRational, x: ComplexRational) -> ComplexRational:
    """(d/dx)(du/dx) on the carrier; identically zero whenever x has a j part.

    The first derivative Delta(x)**-1 Delta(u) = u.im / x.im is a rational
    constant, so the second difference vanishes.
    """
    first = right_derivative(CARRIER, u, x)
    return right_derivative(CARRIER, first, x)


def linear_decomposition(u: ComplexRational, x: ComplexRational) -> tuple[Fraction, Fraction]:
    """Rational (c, d) with u = c*1 + d*x; requires x.im != 0.

    Witnesses that every carrier element is an affine function of any valid
    coordinate, which is why second derivatives vanish identically.
    """
    if not x.im:
        raise NonInvertibleCoordinate("coordinate needs a nonzero j part")
    d = u.im / x.im
    c = u.re - d * x.re
    return (c, d)
