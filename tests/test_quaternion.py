"""The N = 2 instance: quaternions as a graded extension of the complex line."""

import itertools
import random
from fractions import Fraction

import pytest

from qgalois import (
    Coordinate,
    NonInvertibleCoordinate,
    ExtElement,
    KForm,
    build_families,
    differential,
    from_dx_basis,
    from_quaternion,
    linear_decomposition,
    right_derivative,
    second_right_derivative,
    to_quaternion,
    verify,
    XPoly,
)
from qgalois.quaternion import CARRIER, QUAT_I, QUAT_J, QUAT_K, QUAT_ONE

from samplers import rand_quat

# Hamilton's table, written down independently of the extension product:
# value of e_a * e_b for basis order (1, i, j, k), stored as (sign, index).
HAMILTON = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}

BASIS = (QUAT_ONE, QUAT_I, QUAT_J, QUAT_K)


def quat(a0, a1, a2, a3):
    return from_quaternion(a0, a1, a2, a3)


def cx(a, b=0):
    """a + b j in the carrier Q(j), j**2 = -1."""
    return XPoly(2, (a, b), -1)


def test_multiplication_table_matches_hamilton():
    for (a, b), (sign, idx) in HAMILTON.items():
        expected = [0, 0, 0, 0]
        expected[idx] = sign
        got = to_quaternion(BASIS[a] * BASIS[b])
        assert got == tuple(expected), f"e{a} * e{b}"


def test_component_split():
    # a0 + a1 i + a2 j + a3 k = (a0 + a2 j) + i (a1 + a3 j)
    xi = quat(2, 3, 7, 5)
    assert xi.component(0) == cx(2, 7)
    assert xi.component(1) == cx(3, 5)
    assert to_quaternion(xi) == (2, 3, 7, 5)


def test_round_trip_randomized():
    rng = random.Random(61)
    for _ in range(50):
        coeffs = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(4))
        assert to_quaternion(quat(*coeffs)) == coeffs


def test_differential_of_pure_i_multiples():
    # d(c i) = -2c for rational c
    assert to_quaternion(differential(quat(0, 3, 0, 0))) == (-6, 0, 0, 0)
    assert to_quaternion(differential(QUAT_ONE)) == (0, 0, 0, 0)


def test_differential_with_j_component_in_degree_zero():
    # the degree-0 component with a j part feeds a k term into the result
    xi = quat(2, 3, 7, 5)
    assert to_quaternion(differential(xi)) == (-6, 0, 0, 14)


def test_differential_squares_to_zero_on_sign_patterns():
    for signs in itertools.product((1, -1), repeat=4):
        xi = quat(*signs)
        assert not differential(differential(xi))


def test_differential_squares_to_zero_randomized():
    rng = random.Random(67)
    for _ in range(60):
        xi = rand_quat(rng)
        assert not differential(differential(xi))


def test_first_derivative_is_a_rational_constant():
    rng = random.Random(71)
    for _ in range(30):
        u = cx(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        x = cx(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9)))
        got = right_derivative(u, Coordinate(CARRIER, x))
        assert got == cx(u.coeffs[1] / x.coeffs[1])


def test_second_derivative_vanishes():
    rng = random.Random(73)
    j = cx(0, 1)
    for _ in range(30):
        u = cx(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        x = cx(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9)))
        assert not second_right_derivative(u, x)
    assert not second_right_derivative(j, j)


def test_real_coordinates_are_rejected():
    u = cx(1, 2)
    with pytest.raises(NonInvertibleCoordinate):
        second_right_derivative(u, cx(1, 0))
    with pytest.raises(NonInvertibleCoordinate):
        linear_decomposition(u, cx(5))


def test_linear_decomposition_is_exact():
    """Every carrier element is affine in any coordinate with a j part."""
    rng = random.Random(79)
    for _ in range(40):
        u = cx(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        x = cx(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9)))
        c, d = linear_decomposition(u, x)
        rebuilt = cx(c) + x * d
        assert rebuilt == u
        assert d == (u.coeffs[1] / x.coeffs[1]).as_rational()


def test_families_at_order_two():
    # P_1 = Delta(j) = 2j, P_2 = 0, Q_2 = phi(2j) 2j = 4; tau^2 = -1 folds later
    j = cx(0, 1)
    fam = build_families(CARRIER, j)
    assert fam.dkx[0] == cx(0, 2)
    assert not fam.dkx[1]
    assert fam.dx_pow[1] == cx(4)
    twisted_sum = fam.dkx[0] + CARRIER.phi(fam.dkx[0])
    assert not twisted_sum


def test_dx_basis_folds_tau_squared_to_minus_one():
    # x = j: dx = tau Delta(j) = i (2j) = 2k, and (2k)^2 = -4 by k^2 = -1
    fam = build_families(CARRIER, cx(0, 1))
    dx = ExtElement.from_forms(CARRIER, [KForm(CARRIER, 1, fam.coordinate.delta_x)])
    dx_squared = from_dx_basis(fam, 2, cx(1))
    assert ExtElement.from_forms(CARRIER, [dx_squared]) == dx * dx
    assert dx_squared.degree == 0
    assert to_quaternion(dx * dx) == (-4, 0, 0, 0)


def test_the_galois_identities_hold_on_the_quaternions():
    """The galois suite at N = 2, s = -1; test_qplane.py runs it at N = 3..8."""
    rows = verify.galois_suite(CARRIER, 302, 3)
    assert len(rows) == 10 and all(rows), [r.name for r in rows if not r]


def test_quaternion_powers():
    assert QUAT_I ** 2 == -QUAT_ONE
    assert QUAT_J ** 4 == QUAT_ONE
    assert QUAT_K ** 0 == QUAT_ONE


def test_a_rational_lifts_into_the_quaternions():
    assert QUAT_I + 1 == 1 + QUAT_I == quat(1, 1, 0, 0)
    assert QUAT_J - Fraction(1, 2) == quat(Fraction(-1, 2), 0, 1, 0)
    assert 2 * QUAT_K == QUAT_K * 2 == quat(0, 0, 0, 2)
