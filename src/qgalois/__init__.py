"""Exact graded q-differential calculus on semi-commutative Galois extensions.

Both worked instances run on one carrier, the x-subalgebra with x**N =
tau**N = s: the reduced quantum plane at a primitive N-th root of unity
(s = 1, tau = y) and the quaternions as a Z_2-graded extension of the complex
line (s = -1, N = 2, tau = i, x = j, q = -1).
"""

from .cyclotomic import CycScalar, cyclotomic_polynomial, q_factorial, q_integer
from .galois import (
    Coordinate,
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
    from_quaternion,
    linear_decomposition,
    second_right_derivative,
    to_quaternion,
)

__all__ = [
    "CheckResult",
    "Coordinate",
    "CycScalar",
    "ExtElement",
    "KForm",
    "NonInvertibleCoordinate",
    "NotInvertible",
    "PlaneElement",
    "PolyFamilies",
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
