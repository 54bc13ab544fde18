"""Graded extension A[tau]: twisted products, the inner differential, derivatives.

The x-subalgebra of the reduced quantum plane serves as the main carrier here
because its arithmetic is exact and every identity below has a closed form on
it.  The sign case tau^N = x^N = -1 is exercised through the quaternions in
test_quaternion.py and the signed carrier in test_qplane.py.
"""

import functools
import random
from fractions import Fraction

import pytest

from qgalois import (
    Coordinate,
    CycScalar,
    ExtElement,
    KForm,
    NonInvertibleCoordinate,
    PlaneElement,
    XPoly,
    XPolyCarrier,
    build_families,
    change_of_variable,
    conjugation_dx,
    delta,
    differential,
    from_dx_basis,
    from_quaternion,
    q_commutator,
    q_plane_families,
    right_derivative,
    tau,
    verify,
)
from qgalois.quaternion import CARRIER, QUAT_I, QUAT_ONE

from samplers import rand_xpoly


def rand_ext(rng, carrier, span=6):
    return ExtElement(
        carrier, [rand_xpoly(rng, carrier.order, span) for _ in range(carrier.order)]
    )


def test_tau_has_the_expected_components():
    c = XPolyCarrier(4)
    t = tau(c)
    assert t.degree() == 1
    assert t.component(1) == XPoly.one(4)
    assert t.degree() is not None


def test_tau_power_product_wraps_to_unit():
    for order in (2, 3, 5):
        c = XPolyCarrier(order)
        assert tau(c) * tau(c, order - 1) == ExtElement.one(c)
    # tau**N folds to tau_sign: i**2 = -1 and i**3 = -i over the quaternion carrier
    assert tau(CARRIER, 2) == -QUAT_ONE
    assert tau(CARRIER, 3) == -QUAT_I
    assert ExtElement.from_component(CARRIER, 3, CARRIER.one()) == -QUAT_I


@pytest.mark.parametrize("order", range(2, 6))
def test_tau_powers_fold_tau_to_the_n_at_sign_minus_one(order):
    c = XPolyCarrier(order, -1)
    t = tau(c)
    for k in range(3 * order + 1):
        assert tau(c, k) == t ** k, k
        sign = -1 if k // order % 2 else 1
        assert tau(c, k) == ExtElement.from_forms(c, [KForm(c, k % order, c.one() * sign)]), k
    for k in range(-order, 0):
        assert tau(c, k) * t ** -k == ExtElement.one(c), k


def test_kform_equality_is_the_extensions():
    """Zero forms of any degrees are equal; forms over different carriers are not."""
    c, signed, other = XPolyCarrier(3), XPolyCarrier(3, -1), XPolyCarrier(4)
    assert KForm(c, 0, c.zero()) == KForm(c, 2, c.zero())
    assert KForm(c, 1, c.x()) == KForm(c, 4, c.x())
    assert KForm(signed, 1, signed.x()) == KForm(signed, 4, -signed.x())
    assert KForm(c, 1, c.x()) != KForm(c, 2, c.x())
    assert KForm(c, 1, c.x()) != KForm(c, 1, c.one())
    assert KForm(c, 1, c.x()) != KForm(other, 1, other.x())
    assert KForm(c, 0, c.zero()) != KForm(signed, 0, signed.zero())
    assert KForm(c, 0, c.one()) != 1


@pytest.mark.parametrize("sign", [1, -1])
def test_a_form_is_false_exactly_at_zero(sign):
    c = XPolyCarrier(3, sign)
    for degree in range(4):
        assert not KForm(c, degree, c.zero()) and not KForm(c, degree, 0)
        assert KForm(c, degree, c.x()) and KForm(c, degree, 1)
    assert not KForm(c, 1, c.x()).differential().differential().differential()


def test_components_and_coefficients_are_coerced_through_the_carrier():
    """A scalar lifts to a constant; an element of another order or sign is refused."""
    signed = XPolyCarrier(2, -1)
    half = ExtElement(signed, [Fraction(1, 2), 1])
    assert [type(u) for u in (half + half).components] == [XPoly, XPoly]
    assert half + half == ExtElement(signed, [XPoly(2, (1, 0), -1), XPoly(2, (2, 0), -1)])
    with pytest.raises(ValueError):
        ExtElement(XPolyCarrier(2), [XPoly(2, (1, 0), -1), XPoly(2, (0, 1), -1)])
    with pytest.raises(ValueError):
        ExtElement(XPolyCarrier(3), [XPoly(2, (1, 0))] * 3)
    with pytest.raises(ValueError):
        KForm(XPolyCarrier(3), 1, XPoly(3, (0, 1, 0), -1))
    fam = q_plane_families(3)
    c = fam.carrier
    assert not from_dx_basis(fam, 0, 3).differential()
    as_ext = functools.partial(ExtElement.from_forms, c)
    two_x = as_ext([KForm(c, 2, c.x().scale(2))])
    assert as_ext([KForm(c, 1, 2)]) * as_ext([KForm(c, 1, c.x())]) == two_x


def test_scale_uses_only_the_carrier_product():
    # scale multiplies through the carrier contract's *, on both instances
    assert QUAT_I.scale(2) == from_quaternion(0, 2, 0, 0)
    q = CycScalar.q(3)
    scaled = PlaneElement.x(3).scale(q)
    assert isinstance(scaled, PlaneElement)
    assert scaled == PlaneElement.monomial(3, 0, 1, q)


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


def phi_product(left, right):
    """The twisted product by its definition, (tau**a u)(tau**b v) = tau**(a+b) phi**b(u) v,
    one carrier product per pair of components: the oracle of the packed product."""
    c = left.carrier
    return ExtElement.from_forms(c, (
        KForm(c, a + b, c.phi(u, b) * v)
        for a, u in enumerate(left.components)
        for b, v in enumerate(right.components)
    ))


def _stored(xi):
    """Every coefficient of xi as its stored (num, den)."""
    return [(s.num, s.den) for u in xi.components for s in u.coeffs]


def _product_operands(rng, c):
    """Pairs of each kind the packed product takes: verify's sparse draws, dense operands,
    60-digit numerators, unlike denominators and all-negative digits, the last three with
    zero components, and a zero operand."""
    n, deg = c.order, len(CycScalar.zero(c.order).num)

    def element(top, den, sign=lambda: rng.choice((-1, 1)), fill=1.0):
        def scalar():
            digits = (Fraction(sign() * rng.randint(1, top), rng.randint(1, den)) for _ in range(deg))
            return CycScalar(n, list(digits))

        rows = [XPoly(n, [scalar() for _ in range(n)], c.tau_sign) for _ in range(n)]
        return c.element(u if rng.random() < fill else c.zero() for u in rows)

    yield verify._rand_ext(rng, c), verify._rand_ext(rng, c)
    yield element(9, 1), element(9, 1)
    yield element(10**60, 1, fill=0.5), element(10**60, 3, fill=0.5)
    yield element(9, 40, fill=0.5), element(10**6, 40, fill=0.5)
    yield element(9, 4), ExtElement.zero(c)
    negative = functools.partial(element, 10**20, 6, sign=lambda: -1, fill=0.5)
    yield negative(), negative()


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("order", range(2, 13))
def test_the_packed_product_is_the_phi_rule(order, sign):
    c = XPolyCarrier(order, sign)
    rng = random.Random(order * sign)
    for left, right in _product_operands(rng, c):
        assert _stored(left * right) == _stored(phi_product(left, right))


def test_the_packed_product_fills_its_digit_width():
    """Every coefficient -(2**199 - 1)(1 + q + q**2 + q**3) at order 5: one packed digit
    reaches 67 of the 100 products the width allows for, more than half its range."""
    n = 5
    c = XPolyCarrier(n)
    top = CycScalar(n, [-(2**199 - 1)] * 4)
    w = c.element([XPoly(n, [top] * n)] * n)
    assert _stored(w * w) == _stored(phi_product(w, w))


def test_grading_is_additive_mod_n():
    rng = random.Random(5)
    for order in (3, 5):
        c = XPolyCarrier(order)
        for _ in range(20):
            i, j = rng.randrange(order), rng.randrange(order)
            a = ExtElement.from_component(c, i, rand_xpoly(rng, order, 3))
            b = ExtElement.from_component(c, j, rand_xpoly(rng, order, 3))
            p = a * b
            if p:
                assert p.degree() == (i + j) % order


def test_q_commutator_basics():
    c = XPolyCarrier(3)
    assert not q_commutator(tau(c), ExtElement.one(c))
    # [v, v] = (1 - q) v^2 for v of degree 1
    rng = random.Random(9)
    v = ExtElement.from_component(c, 1, rand_xpoly(rng, 3, span=6))
    q = CycScalar.q(3)
    assert q_commutator(v, v) == (v * v).scale(1 - q)


def pairwise_q_commutator(v, u):
    """sum_{a,b} (v_a u_b - q**(ab) u_b v_a), one extension product per ordered pair."""
    c = v.carrier
    out = ExtElement.zero(c)
    for a, va in enumerate(v.components):
        for b, ub in enumerate(u.components):
            ea, eb = ExtElement.from_component(c, a, va), ExtElement.from_component(c, b, ub)
            out = out + ea * eb - (eb * ea).scale_by_q(a * b)
    return out


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("order", range(2, 13))
def test_q_commutator_matches_the_pairwise_product_formula(order, sign):
    c = XPolyCarrier(order, sign)
    rng = random.Random(70 + order)

    def sample():
        """About 6 in 10 components nonzero, each a dense x-polynomial of this sign."""
        comps = [XPoly(order, rand_xpoly(rng, order, 3).coeffs, sign) for _ in range(order)]
        return ExtElement(c, [u if rng.random() < 0.6 else c.zero() for u in comps])

    for _ in range(4):
        v, u = sample(), sample()
        assert q_commutator(v, u) == pairwise_q_commutator(v, u)
    t = tau(c)
    assert q_commutator(t, t) == pairwise_q_commutator(t, t)


def test_differential_agrees_with_the_commutator():
    rng = random.Random(13)
    for order in (2, 3, 4):
        c = XPolyCarrier(order)
        for _ in range(20):
            xi = rand_ext(rng, c, 4)
            assert differential(xi) == q_commutator(tau(c), xi)


def test_differential_reference_values():
    c = XPolyCarrier(3)
    assert not differential(ExtElement.one(c))
    # d(x) = tau (x - qx) = tau (1 - q) x
    dq = delta(c, c.x())
    assert differential(ExtElement.embed(c, c.x())) == ExtElement.from_component(c, 1, dq)
    assert dq == c.x().scale(1 - CycScalar.q(3))


def test_top_degree_lands_in_degree_zero():
    rng = random.Random(17)
    for order in (2, 4):
        c = XPolyCarrier(order)
        xi = ExtElement.from_component(c, order - 1, rand_xpoly(rng, order, span=6))
        d = differential(xi)
        assert not d or d.degree() == 0


def test_differential_is_nilpotent_of_order_n():
    rng = random.Random(23)
    for order in (2, 3, 4, 5):
        c = XPolyCarrier(order)
        for _ in range(10):
            xi = rand_ext(rng, c, 4)
            for _ in range(order):
                xi = differential(xi)
            assert not xi


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
    """phi(u, k) is k applications of phi, phi(., -k) undoes it, and phi**N = id."""
    rng = random.Random(31)
    for order in (2, 3, 6):
        for sign in (1, -1):
            c = XPolyCarrier(order, sign)
            for _ in range(10):
                u = XPoly(order, rand_xpoly(rng, order, span=6).coeffs, sign)
                w = u
                for k in range(2 * order + 1):
                    assert c.phi(u, k) == w
                    assert c.phi(c.phi(u, k), -k) == u
                    w = c.phi(w)
                assert c.phi(u, order) == u


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("order", range(2, 9))
def test_differential_is_a_weighted_shift(order, sign):
    """d(tau^k x^l) = (1 - q^(k+l)) tau^(k+1) x^l, and rank d^m = N(N - m).

    d sends distinct monomials to multiples of distinct monomials, so d^m has
    rank the number of monomials it keeps nonzero; N(N - m) of them gives
    dim ker d^m = N m = rank d^(N-m), so every H_(m) = ker d^m / im d^(N-m) is 0.
    """
    c = XPolyCarrier(order, sign)
    nonzero = [0] * (order + 1)  # nonzero[m]: monomials with d^m of them nonzero
    for k in range(order):
        for l in range(order):
            xi = ExtElement.from_component(c, k, XPoly.monomial(order, l, 1, sign))
            weight = 1 - CycScalar.q_power(order, k + l)
            assert differential(xi) == ExtElement.from_component(
                c, k + 1, XPoly.monomial(order, l, weight, sign)
            )
            for m in range(order + 1):
                nonzero[m] += bool(xi)
                xi = differential(xi)
    assert nonzero == [order * (order - m) for m in range(order + 1)]


def test_delta_reference_values_and_product_rule():
    c = XPolyCarrier(4)
    x = c.x()
    q = CycScalar.q(4)
    assert not delta(c, c.one())
    assert delta(c, x) == x.scale(1 - q)
    assert delta(c, x * x) == (x * x).scale(1 - q ** 2)
    rng = random.Random(37)
    for _ in range(20):
        u, v = rand_xpoly(rng, 4, span=6), rand_xpoly(rng, 4, span=6)
        assert delta(c, u * v) == delta(c, u) * v + c.phi(u) * delta(c, v)


def test_right_derivative_reference_values():
    for order in (3, 5):
        c = XPolyCarrier(order)
        x = c.x()
        cx = Coordinate(c, x)
        q = CycScalar.q(order)
        assert right_derivative(x, cx) == XPoly.one(order)
        assert not right_derivative(c.one(), cx)
        assert right_derivative(x * x, cx) == x.scale(1 + q)


def test_derivative_reassembles_the_differential():
    # du = dx (du/dx): tau Delta(u) must equal (tau Delta(x)) (du/dx)
    rng = random.Random(41)
    for order in (2, 3, 4):
        c = XPolyCarrier(order)
        x = c.x()
        cx = Coordinate(c, x)
        dx = ExtElement.from_component(c, 1, delta(c, x))
        for _ in range(15):
            u = rand_xpoly(rng, order, span=6)
            du = ExtElement.from_component(c, 1, delta(c, u))
            assert du == dx * ExtElement.embed(c, right_derivative(u, cx))


def test_conjugation_transport():
    c = XPolyCarrier(3)
    x = c.x()
    cx = Coordinate(c, x)
    assert conjugation_dx(c.one(), cx) == XPoly.one(3)
    # the x-subalgebra is commutative, so transport collapses to phi
    assert conjugation_dx(x, cx) == x.twist(1)
    rng = random.Random(43)
    for _ in range(15):
        u, v = rand_xpoly(rng, 3, span=6), rand_xpoly(rng, 3, span=6)
        assert conjugation_dx(u * v, cx) == conjugation_dx(u, cx) * conjugation_dx(v, cx)


def test_twisted_leibniz_for_the_right_derivative():
    rng = random.Random(47)
    for order in (2, 3, 5):
        c = XPolyCarrier(order)
        cx = Coordinate(c, c.x())
        for _ in range(20):
            u, v = rand_xpoly(rng, order, span=6), rand_xpoly(rng, order, span=6)
            lhs = right_derivative(u * v, cx)
            rhs = right_derivative(u, cx) * v + conjugation_dx(u, cx) * right_derivative(v, cx)
            assert lhs == rhs


def test_change_of_variable_identity_case():
    c = XPolyCarrier(4)
    cx = Coordinate(c, c.x())
    yx, xy = change_of_variable(cx, cx)
    assert yx == XPoly.one(4)
    assert xy == XPoly.one(4)


def test_change_of_variable_to_x_squared():
    c = XPolyCarrier(3)
    x = c.x()
    q = CycScalar.q(3)
    y = x * x
    yx, xy = change_of_variable(Coordinate(c, y), Coordinate(c, x))
    assert yx == x.scale(1 + q)
    assert yx * xy == XPoly.one(3)
    assert xy == c.invert(x.scale(1 + q))


def test_chain_rule_through_an_intermediate_coordinate():
    # du/dx = (dy/dx)(du/dy) whenever both coordinate differences invert
    rng = random.Random(53)
    for order in (3, 4, 5):
        c = XPolyCarrier(order)
        x = c.x()
        cx = Coordinate(c, x)
        cy = Coordinate(c, x * x)  # Delta(y) = (1 - q^2) x^2 is a unit for order > 2
        for _ in range(15):
            u = rand_xpoly(rng, order, span=6)
            yx, _ = change_of_variable(cy, cx)
            assert right_derivative(u, cx) == yx * right_derivative(u, cy)


def test_constant_coordinates_are_rejected():
    c = XPolyCarrier(3)
    with pytest.raises(NonInvertibleCoordinate):
        right_derivative(c.x(), Coordinate(c, c.one()))
    with pytest.raises(NonInvertibleCoordinate):
        change_of_variable(Coordinate(c, c.one()), Coordinate(c, c.x()))


@pytest.mark.parametrize("other", [1, Fraction(1, 2), CycScalar.q(4), "j"])
def test_extension_operators_reject_foreign_operands(other):
    """A rational lifts into the quaternions; a scalar of another order or a string does not."""
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        if isinstance(other, (int, Fraction)):
            lifted = from_quaternion(other, 0, 0, 0)
            assert op(QUAT_I, other) == op(QUAT_I, lifted)
            assert op(other, QUAT_I) == op(lifted, QUAT_I)
        else:
            error = ValueError if isinstance(other, CycScalar) else TypeError
            with pytest.raises(error):
                op(QUAT_I, other)
            with pytest.raises(error):
                op(other, QUAT_I)


def test_plane_still_lifts_scalars_and_xpolys():
    order = 3
    x, y = PlaneElement.x(order), PlaneElement.y(order)
    r = XPoly.x(order)
    assert y + 1 == 1 + y == y + PlaneElement.one(order)
    assert 2 * y == y * 2 == y.scale(2)
    assert y - r == -(r - y) == y - x
    assert y * r == y * x and r * y == x * y


# -- Coordinate: Delta(x) inverted once --------------------------------------------


def test_coordinate_holds_its_difference_and_inverse():
    for order in (2, 3, 5, 8):
        c = XPolyCarrier(order)
        cx = Coordinate(c, c.x())
        assert cx.carrier == c and cx.x == c.x()
        assert cx.delta_x == delta(c, c.x())
        assert cx.delta_inv * delta(c, c.x()) == c.one()
        assert cx == Coordinate(c, c.x()) and cx != Coordinate(c, c.x().scale(2))
        with pytest.raises(AttributeError):
            cx.x = c.one()


def test_non_invertible_coordinates_raise_at_construction():
    c = XPolyCarrier(3)
    x = c.x()
    with pytest.raises(NonInvertibleCoordinate):
        Coordinate(c, XPoly.one(3))
    # Delta(x + x^2) is nonzero but vanishes at a root of x^3 - 1
    with pytest.raises(NonInvertibleCoordinate):
        Coordinate(c, x + x * x)


@pytest.mark.parametrize("sign", [1, -1])
def test_a_coordinate_is_coerced_through_the_carrier(sign):
    c = XPolyCarrier(3, sign)
    # a scalar is a constant, whose Delta is 0
    for constant in (1, Fraction(5, 2), CycScalar.q(3)):
        with pytest.raises(NonInvertibleCoordinate):
            Coordinate(c, constant)
        with pytest.raises(NonInvertibleCoordinate):
            build_families(c, constant)
    for inexact in (1.5, "x", [0, 1, 0]):
        with pytest.raises(TypeError):
            Coordinate(c, inexact)
    with pytest.raises(ValueError):
        Coordinate(c, XPoly.x(3, -sign))


def test_derivatives_along_a_coordinate_invert_nothing(monkeypatch):
    c = XPolyCarrier(4)
    cx = Coordinate(c, c.x())
    monkeypatch.setattr(XPoly, "inverse", lambda r: pytest.fail("inverted again"))
    u, v = XPoly.x(4) * XPoly.x(4), XPoly.one(4) + XPoly.x(4)
    right_derivative(u, cx)
    conjugation_dx(v, cx)
    change_of_variable(cx, cx)


def _count_inversions(monkeypatch, suite, order, cases):
    """Run suite(order or its carrier, seed, cases) and return (XPoly.inverse
    arguments, sampler attempts, rows); an attempt is one call of the sampler's invert."""
    inverted, attempts = [], []
    inverse = XPoly.inverse

    def counted_inverse(r):
        inverted.append(r)
        return inverse(r)

    sampler = verify._rand_invertible

    def counted_sampler(rng, n, invert):
        def counted_invert(r):
            attempts.append(r)
            return invert(r)

        return sampler(rng, n, counted_invert)

    monkeypatch.setattr(XPoly, "inverse", counted_inverse)
    monkeypatch.setattr(verify, "_rand_invertible", counted_sampler)
    first = XPolyCarrier(order) if suite is verify.galois_suite else order
    rows = suite(first, 1000 + order, cases)
    monkeypatch.undo()
    return inverted, attempts, rows


@pytest.mark.parametrize("order", range(2, 9))
def test_galois_suite_inverts_each_coordinate_once(order, monkeypatch):
    c = XPolyCarrier(order)
    inverted, attempts, rows = _count_inversions(monkeypatch, verify.galois_suite, order, 4)
    assert all(rows)
    assert len(attempts) >= 4
    # one inversion for x, then one per sampling attempt for z
    assert inverted == [delta(c, c.x())] + [delta(c, z) for z in attempts]


@pytest.mark.parametrize("order", range(2, 9))
def test_x_inverse_round_trip_inverts_each_sample_once(order, monkeypatch):
    inverted, attempts, rows = _count_inversions(monkeypatch, verify.qplane_suite, order, 4)
    assert all(rows)
    assert len(attempts) >= 4
    assert inverted == attempts


# -- operand lifting through the carrier ----------------------------------------


LIFTED = [3, Fraction(-2, 3), CycScalar.from_poly(3, (1, 2)), XPoly(3, (1, 0, Fraction(1, 2)))]


@pytest.mark.parametrize("other", LIFTED, ids=["int", "Fraction", "CycScalar", "XPoly"])
def test_plain_extension_lifts_operands_like_its_plane_twin(other):
    carrier = XPolyCarrier(3)
    plane = PlaneElement.x(3) + PlaneElement.y(3).scale(2)
    plain = ExtElement(carrier, plane.components)
    assert type(plain) is ExtElement
    for op in (
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: b + a,
        lambda a, b: b - a,
        lambda a, b: b * a,
    ):
        assert op(plain, other) == op(plane, other)
    assert plain == plane and (plain == other) == (plane == other)
    lifted = ExtElement.embed(carrier, carrier.coerce(other))
    assert lifted == other and other == lifted and lifted.degree() == 0


def test_plain_extension_rejects_an_xpoly_of_another_order():
    plain = ExtElement(XPolyCarrier(3), PlaneElement.x(3).components)
    other = XPoly.x(4)
    assert plain != other and other != plain
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError):
            op(plain, other)
        with pytest.raises(ValueError):
            op(other, plain)


def test_the_carrier_lifts_rationals_at_both_signs():
    # operands lift through the carrier's coerce; at sign -1 the lift is a
    # plain extension element, not a PlaneElement
    lifted = QUAT_I._coerce(1)
    assert lifted == QUAT_ONE and type(lifted) is ExtElement
    assert isinstance(PlaneElement.x(3)._coerce(1), PlaneElement)
    assert PlaneElement.x(3)._coerce("x") is None
    assert not hasattr(XPolyCarrier(3), "lift")


# -- componentwise arithmetic, shared by scalars, x-polynomials and extensions ----


def _plain(order, *rows):
    """A plain ExtElement over the x-subalgebra, not its PlaneElement twin."""
    comps = [XPoly(order, row) for row in rows]
    comps += [XPoly.zero(order)] * (order - len(comps))
    return ExtElement(XPolyCarrier(order), comps)


# kind -> (zero, a, b, an element of another order or carrier, lifts rationals)
COMPONENTWISE = {
    "CycScalar": lambda: (
        CycScalar.zero(5),
        CycScalar.from_poly(5, [1, -2, 0, 3]),
        CycScalar.from_poly(5, [Fraction(1, 3), 0, 4]),
        CycScalar.q(7),
        True,
    ),
    "XPoly": lambda: (
        XPoly.zero(3),
        XPoly(3, [1, CycScalar.q(3), 0]),
        XPoly(3, [0, Fraction(2, 5), -1]),
        XPoly.x(4),
        True,
    ),
    "PlaneElement": lambda: (
        PlaneElement.zero(3),
        PlaneElement.x(3) + PlaneElement.y(3),
        PlaneElement.monomial(3, 2, 1, CycScalar.q(3)) - 4,
        PlaneElement.y(4),
        True,
    ),
    "ExtElement": lambda: (
        _plain(3, [0, 0, 0]),
        _plain(3, [1, 2, 0], [0, 0, -1]),
        _plain(3, [0, 0, 0], [5, 0, 0], [0, Fraction(1, 2), 0]),
        _plain(4, [1, 0, 0, 0]),
        True,
    ),
    "quaternion": lambda: (
        ExtElement.zero(CARRIER),
        from_quaternion(1, 2, 0, -3),
        from_quaternion(0, Fraction(1, 2), 4, 1),
        PlaneElement.y(2),
        True,
    ),
}


@pytest.mark.parametrize("kind", COMPONENTWISE)
def test_truth_value_is_false_exactly_at_zero(kind):
    zero, a, b, _, _ = COMPONENTWISE[kind]()
    assert not zero
    for u in (a, b, -a):
        assert u
    assert not (a - a)


@pytest.mark.parametrize("kind", COMPONENTWISE)
def test_difference_is_the_sum_with_the_negative(kind):
    zero, a, b, _, lifts = COMPONENTWISE[kind]()
    assert a - b == a + (-b)
    assert b - a == -(a - b)
    assert a + zero == a and zero - a == -a
    if lifts:
        half = Fraction(1, 2)
        assert half - a == -(a - half)
        assert 1 + a == a + 1 and (a + 1) - 1 == a
    else:
        with pytest.raises(TypeError):
            a + 1
        with pytest.raises(TypeError):
            1 - a


@pytest.mark.parametrize("kind", COMPONENTWISE)
def test_another_order_is_unequal_and_no_operand(kind):
    _, a, _, other, _ = COMPONENTWISE[kind]()
    assert (a == other) is False and (other == a) is False
    assert a != other
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: v + u, lambda u, v: v - u):
        with pytest.raises(ValueError):
            op(a, other)


@pytest.mark.parametrize("kind", COMPONENTWISE)
def test_a_foreign_operand_is_a_type_error(kind):
    _, a, _, _, _ = COMPONENTWISE[kind]()
    foreign = object()
    assert (a == foreign) is False
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: v + u, lambda u, v: v - u):
        with pytest.raises(TypeError):
            op(a, foreign)


@pytest.mark.parametrize("order", [2, 3, 5, 8])
def test_q_element_is_the_scalar_q_power(order):
    carrier = XPolyCarrier(order)
    rng = random.Random(order)
    xi = PlaneElement(order, [rand_xpoly(rng, order, span=6) for _ in range(order)])
    plain = ExtElement(carrier, xi.components)
    for k in range(-1, order + 1):
        qk = CycScalar.q_power(order, k)
        assert type(carrier.q_element(k)) is CycScalar and carrier.q_element(k) == qk
        expected = xi.scale(qk)
        assert xi.scale_by_q(k) == expected and plain.scale_by_q(k) == expected
        # the route through the constant x-polynomial q^k gives the same element
        assert expected == PlaneElement(order, [XPoly.from_scalar(order, qk) * u for u in xi.components])


def test_quaternion_scale_by_q_is_the_sign_of_the_grading():
    xi = from_quaternion(1, 2, 3, 4)
    assert xi.scale_by_q(0) == xi and xi.scale_by_q(1) == -xi
    assert xi.scale_by_q(1) == xi.scale(CARRIER.q_element(1))
