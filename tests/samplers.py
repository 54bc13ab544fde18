"""Seeded random elements shared by the test modules.

Each sampler draws integer coefficients in [-span, span] from the generator it
is given, so a test's seed fixes its samples.
"""

from fractions import Fraction

from qgalois import CycScalar, PlaneElement, XPoly, from_quaternion


def rand_xpoly(rng, order, span=5):
    return XPoly(
        order,
        [CycScalar.from_rational(order, Fraction(rng.randint(-span, span))) for _ in range(order)],
    )


def rand_plane(rng, order, span=5):
    w = PlaneElement.zero(order)
    for _ in range(rng.randint(1, 4)):
        k, l = rng.randrange(order), rng.randrange(order)
        w = w + PlaneElement.monomial(order, k, l, Fraction(rng.randint(-span, span)))
    return w


def rand_quat(rng, span=9):
    return from_quaternion(*(Fraction(rng.randint(-span, span)) for _ in range(4)))
