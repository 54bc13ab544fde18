"""Quaternions over Q as the N = 2 extension C[i] with carrier C = Q(j).

Hamilton's quaternions are the symbol algebra (-1, -1) at N = 2: the plane's
construction with tau = i, x = j and tau**2 = x**2 = -1, so they run on
``XPolyCarrier(2, -1)``.  There q = -1, and the twist j -> q j is complex
conjugation (u i = i ubar).

A quaternion a0 + a1 i + a2 j + a3 k splits as z0 + i z1 with z0 = a0 + a2 j
and z1 = a1 + a3 j (using k = i j).
"""

from __future__ import annotations

from fractions import Fraction

from .galois import Coordinate, ExtElement, NonInvertibleCoordinate, right_derivative
from .qplane import XPoly, XPolyCarrier

CARRIER = XPolyCarrier(2, -1)


def from_quaternion(a0, a1, a2, a3) -> ExtElement:
    """a0 + a1 i + a2 j + a3 k as (z0, z1) = (a0 + a2 j, a1 + a3 j)."""
    return ExtElement(CARRIER, (XPoly(2, (a0, a2), -1), XPoly(2, (a1, a3), -1)))


def to_quaternion(xi: ExtElement) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    if xi.carrier != CARRIER:
        raise ValueError("not a quaternion element")
    (a0, a2), (a1, a3) = (z.coeffs for z in xi.components)
    return tuple(c.as_rational() for c in (a0, a1, a2, a3))


QUAT_ONE = from_quaternion(1, 0, 0, 0)
QUAT_I = from_quaternion(0, 1, 0, 0)
QUAT_J = from_quaternion(0, 0, 1, 0)
QUAT_K = from_quaternion(0, 0, 0, 1)


def second_right_derivative(u: XPoly, x: XPoly) -> XPoly:
    """(d/dx)(du/dx) on the carrier; identically zero whenever x has a j part.

    The first derivative Delta(x)**-1 Delta(u) is the rational constant
    (j part of u) / (j part of x), so the second difference vanishes.
    """
    coord = Coordinate(CARRIER, x)
    return right_derivative(right_derivative(u, coord), coord)


def linear_decomposition(u: XPoly, x: XPoly) -> tuple[Fraction, Fraction]:
    """Rational (c, d) with u = c*1 + d*x; requires x to have a nonzero j part.

    Witnesses that every carrier element is an affine function of any valid
    coordinate, which is why second derivatives vanish identically.
    """
    (u0, u1), (x0, x1) = ([c.as_rational() for c in v.coeffs] for v in (u, x))
    if not x1:
        raise NonInvertibleCoordinate("coordinate needs a nonzero j part")
    d = u1 / x1
    c = u0 - d * x0
    return (c, d)
