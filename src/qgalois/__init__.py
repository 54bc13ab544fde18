"""Exact graded q-differential calculus on semi-commutative Galois extensions.

The two worked instances are the reduced quantum plane at a primitive N-th
root of unity (carrier: the x-subalgebra, tau = y) and the quaternions as a
Z_2-graded extension of the complex line (tau = i, q = -1).
"""

from .cyclotomic import CycScalar, Rational, cyclotomic_polynomial, q_factorial, q_integer
from .galois import (
    CarrierAlgebra,
    ExtElement,
    KForm,
    NonInvertibleCoordinate,
    NotInvertible,
    change_of_variable,
    conjugation_dx,
    delta,
    differential,
    q_commutator,
    right_derivative,
    tau,
)
from .calculus import (
    CheckResult,
    PolyFamilies,
    build_families,
    covariant_operator,
    delta_coefficient,
    from_dx_basis,
    higher_delta,
    higher_delta_closed,
    higher_differential_of_x,
    identity_check,
    partial_derivative,
    q_plane_families,
    to_dx_basis,
)
from .qplane import (
    PlaneElement,
    RepMatrix,
    XPoly,
    XPolyCarrier,
    generator_matrices,
    represent,
)
from .quaternion import (
    ComplexRational,
    ConjugationCarrier,
    from_quaternion,
    linear_decomposition,
    second_right_derivative,
    to_quaternion,
)

__all__ = [
    "CarrierAlgebra",
    "CheckResult",
    "ComplexRational",
    "ConjugationCarrier",
    "CycScalar",
    "ExtElement",
    "KForm",
    "NonInvertibleCoordinate",
    "NotInvertible",
    "PlaneElement",
    "PolyFamilies",
    "Rational",
    "RepMatrix",
    "XPoly",
    "XPolyCarrier",
    "build_families",
    "change_of_variable",
    "conjugation_dx",
    "covariant_operator",
    "cyclotomic_polynomial",
    "delta",
    "delta_coefficient",
    "differential",
    "from_dx_basis",
    "from_quaternion",
    "generator_matrices",
    "higher_delta",
    "higher_delta_closed",
    "higher_differential_of_x",
    "identity_check",
    "linear_decomposition",
    "partial_derivative",
    "q_commutator",
    "q_factorial",
    "q_integer",
    "q_plane_families",
    "represent",
    "right_derivative",
    "second_right_derivative",
    "tau",
    "to_dx_basis",
    "to_quaternion",
]

__version__ = "0.1.0"
