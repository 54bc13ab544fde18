"""Graded extension A[tau]: twisted products, the inner differential, derivatives.

The x-subalgebra of the reduced quantum plane serves as the main carrier here
because its arithmetic is exact and every identity below has a closed form on
it.  The sign case tau^N = -1 is exercised through the conjugation carrier in
test_quaternion.py.
"""

import random
from fractions import Fraction

import pytest

from qgalois import (
    CycScalar,
    ExtElement,
    NonInvertibleCoordinate,
    XPoly,
    XPolyCarrier,
    change_of_variable,
    conjugation_dx,
    delta,
    differential,
    q_commutator,
    right_derivative,
    tau,
)
from qgalois.quaternion import CARRIER, QUAT_I, QUAT_ONE


def rand_xpoly(rng, order, span=6):
    return XPoly(
        order,
        [CycScalar.from_rational(order, Fraction(rng.randint(-span, span))) for _ in range(order)],
    )


def rand_ext(rng, carrier, span=6):
    return ExtElement(
        carrier, [rand_xpoly(rng, carrier.order, span) for _ in range(carrier.order)]
    )


def test_tau_has_the_expected_components():
    c = XPolyCarrier(4)
    t = tau(c)
    assert t.degree() == 1
    assert t.component(1) == XPoly.one(4)
    assert t.is_homogeneous()


def test_tau_power_product_wraps_to_unit():
    for order in (2, 3, 5):
        c = XPolyCarrier(order)
        assert tau(c) * tau(c, order - 1) == ExtElement.one(c)
    # tau**N folds to tau_sign: i**2 = -1 and i**3 = -i over the quaternion carrier
    assert tau(CARRIER, 2) == -QUAT_ONE
    assert tau(CARRIER, 3) == -QUAT_I
    assert ExtElement.from_component(CARRIER, 3, CARRIER.one()) == -QUAT_I


def test_component_count_is_enforced():
    c = XPolyCarrier(3)
    with pytest.raises(ValueError):
        ExtElement(c, [XPoly.one(3)])


def test_carriers_must_match():
    a = ExtElement.one(XPolyCarrier(3))
    b = ExtElement.one(XPolyCarrier(4))
    with pytest.raises(ValueError):
        a + b


def test_semi_commutation_moves_phi_across_tau():
    # u tau = tau phi(u), with phi(x) = qx on the plane carrier
    for order in (3, 4):
        c = XPolyCarrier(order)
        x = ExtElement.embed(c, c.x())
        assert x * tau(c) == ExtElement.from_component(c, 1, c.x().twist(1))


def test_ext_mul_is_associative_and_unital():
    rng = random.Random(3)
    for order in (2, 3, 4):
        c = XPolyCarrier(order)
        one = ExtElement.one(c)
        for _ in range(15):
            a, b, d = (rand_ext(rng, c, 3) for _ in range(3))
            assert (a * b) * d == a * (b * d)
            assert a * one == a
            assert one * a == a


def test_grading_is_additive_mod_n():
    rng = random.Random(5)
    for order in (3, 5):
        c = XPolyCarrier(order)
        for _ in range(20):
            i, j = rng.randrange(order), rng.randrange(order)
            a = ExtElement.from_component(c, i, rand_xpoly(rng, order, 3))
            b = ExtElement.from_component(c, j, rand_xpoly(rng, order, 3))
            p = a * b
            if not p.is_zero():
                assert p.degree() == (i + j) % order


def test_q_commutator_basics():
    c = XPolyCarrier(3)
    assert q_commutator(tau(c), ExtElement.one(c)).is_zero()
    # [v, v] = (1 - q) v^2 for v of degree 1
    rng = random.Random(9)
    v = ExtElement.from_component(c, 1, rand_xpoly(rng, 3))
    q = CycScalar.q(3)
    assert q_commutator(v, v) == (v * v).scale(1 - q)


def test_differential_agrees_with_the_commutator():
    rng = random.Random(13)
    for order in (2, 3, 4):
        c = XPolyCarrier(order)
        for _ in range(20):
            xi = rand_ext(rng, c, 4)
            assert differential(xi) == q_commutator(tau(c), xi)


def test_differential_reference_values():
    c = XPolyCarrier(3)
    assert differential(ExtElement.one(c)).is_zero()
    # d(x) = tau (x - qx) = tau (1 - q) x
    dq = delta(c, c.x())
    assert differential(ExtElement.embed(c, c.x())) == ExtElement.from_component(c, 1, dq)
    assert dq == c.x().scale(1 - CycScalar.q(3))


def test_top_degree_lands_in_degree_zero():
    rng = random.Random(17)
    for order in (2, 4):
        c = XPolyCarrier(order)
        xi = ExtElement.from_component(c, order - 1, rand_xpoly(rng, order))
        d = differential(xi)
        assert d.is_zero() or d.degree() == 0


def test_differential_is_nilpotent_of_order_n():
    rng = random.Random(23)
    for order in (2, 3, 4, 5):
        c = XPolyCarrier(order)
        for _ in range(10):
            xi = rand_ext(rng, c, 4)
            for _ in range(order):
                xi = differential(xi)
            assert xi.is_zero()


def test_graded_q_leibniz_rule():
    """d(uv) = d(u) v + q^deg(u) u d(v) for homogeneous u."""
    rng = random.Random(29)
    for order in (2, 3, 4):
        c = XPolyCarrier(order)
        for _ in range(20):
            l = rng.randrange(order)
            u = ExtElement.from_component(c, l, rand_xpoly(rng, order, 3))
            v = rand_ext(rng, c, 3)
            lhs = differential(u * v)
            rhs = differential(u) * v + (u * differential(v)).scale_by_q(l)
            assert lhs == rhs


def test_phi_iterates_to_identity():
    rng = random.Random(31)
    for order in (2, 3, 6):
        c = XPolyCarrier(order)
        for _ in range(10):
            u = rand_xpoly(rng, order)
            w = u
            for _ in range(order):
                w = c.phi(w)
            assert w == u


def test_delta_reference_values_and_product_rule():
    c = XPolyCarrier(4)
    x = c.x()
    q = CycScalar.q(4)
    assert delta(c, c.one()).is_zero()
    assert delta(c, x) == x.scale(1 - q)
    assert delta(c, x * x) == (x * x).scale(1 - q ** 2)
    rng = random.Random(37)
    for _ in range(20):
        u, v = rand_xpoly(rng, 4), rand_xpoly(rng, 4)
        assert delta(c, u * v) == delta(c, u) * v + c.phi(u) * delta(c, v)


def test_right_derivative_reference_values():
    for order in (3, 5):
        c = XPolyCarrier(order)
        x = c.x()
        q = CycScalar.q(order)
        assert right_derivative(c, x, x) == XPoly.one(order)
        assert right_derivative(c, c.one(), x).is_zero()
        assert right_derivative(c, x * x, x) == x.scale(1 + q)


def test_derivative_reassembles_the_differential():
    # du = dx (du/dx): tau Delta(u) must equal (tau Delta(x)) (du/dx)
    rng = random.Random(41)
    for order in (2, 3, 4):
        c = XPolyCarrier(order)
        x = c.x()
        dx = ExtElement.from_component(c, 1, delta(c, x))
        for _ in range(15):
            u = rand_xpoly(rng, order)
            du = ExtElement.from_component(c, 1, delta(c, u))
            assert du == dx * ExtElement.embed(c, right_derivative(c, u, x))


def test_conjugation_transport():
    c = XPolyCarrier(3)
    x = c.x()
    assert conjugation_dx(c, c.one(), x) == XPoly.one(3)
    # the x-subalgebra is commutative, so transport collapses to phi
    assert conjugation_dx(c, x, x) == x.twist(1)
    rng = random.Random(43)
    for _ in range(15):
        u, v = rand_xpoly(rng, 3), rand_xpoly(rng, 3)
        assert conjugation_dx(c, u * v, x) == conjugation_dx(c, u, x) * conjugation_dx(c, v, x)


def test_twisted_leibniz_for_the_right_derivative():
    rng = random.Random(47)
    for order in (2, 3, 5):
        c = XPolyCarrier(order)
        x = c.x()
        for _ in range(20):
            u, v = rand_xpoly(rng, order), rand_xpoly(rng, order)
            lhs = right_derivative(c, u * v, x)
            rhs = right_derivative(c, u, x) * v + conjugation_dx(c, u, x) * right_derivative(
                c, v, x
            )
            assert lhs == rhs


def test_change_of_variable_identity_case():
    c = XPolyCarrier(4)
    x = c.x()
    yx, xy = change_of_variable(c, x, x)
    assert yx == XPoly.one(4)
    assert xy == XPoly.one(4)


def test_change_of_variable_to_x_squared():
    c = XPolyCarrier(3)
    x = c.x()
    q = CycScalar.q(3)
    y = x * x
    yx, xy = change_of_variable(c, y, x)
    assert yx == x.scale(1 + q)
    assert yx * xy == XPoly.one(3)
    assert xy == c.invert(x.scale(1 + q))


def test_chain_rule_through_an_intermediate_coordinate():
    # du/dx = (dy/dx)(du/dy) whenever both coordinate differences invert
    rng = random.Random(53)
    for order in (3, 4, 5):
        c = XPolyCarrier(order)
        x = c.x()
        y = x * x  # Delta(y) = (1 - q^2) x^2 is a unit for order > 2
        for _ in range(15):
            u = rand_xpoly(rng, order)
            yx, _ = change_of_variable(c, y, x)
            assert right_derivative(c, u, x) == yx * right_derivative(c, u, y)


def test_constant_coordinates_are_rejected():
    c = XPolyCarrier(3)
    with pytest.raises(NonInvertibleCoordinate):
        right_derivative(c, c.x(), c.one())
    with pytest.raises(NonInvertibleCoordinate):
        change_of_variable(c, c.one(), c.x())
