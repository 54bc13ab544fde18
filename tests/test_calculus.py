"""Coordinate families P, Q, Phi, k-forms, and the deformed derivatives.

Closed forms on the quantum-plane coordinate x (phi(x) = qx, x^N = 1):

    P_k  = prod_{j=1..k} (1 - q^j) x
    Q_k  = q^(k(k-1)/2) (1 - q)^k x^k
    Phi_k = (q^-k - q^k)/(1 - q) x^(N-1)

Each test below recomputes one of these by an independent route (scalar
products, iterated commutators, basis conversion) and compares exactly.
"""

import random
from fractions import Fraction

import pytest

from qgalois import (
    CycScalar,
    ExtElement,
    KForm,
    PlaneElement,
    XPoly,
    XPolyCarrier,
    build_families,
    conjugation_dx,
    covariant_operator,
    delta_coefficient,
    differential,
    from_dx_basis,
    higher_delta,
    higher_delta_closed,
    higher_differential_of_x,
    identity_check,
    partial_derivative,
    q_factorial,
    q_integer,
    q_plane_families,
    right_derivative,
    to_dx_basis,
)

ORDERS = (2, 3, 4, 5, 6)


def rand_xpoly(rng, order, span=5):
    return XPoly(
        order,
        [CycScalar.from_rational(order, Fraction(rng.randint(-span, span))) for _ in range(order)],
    )


def plane_commutator_differential(w: PlaneElement) -> PlaneElement:
    """d(w) as the graded commutator with y, built from plane products.

    Computes the sum over homogeneous components of y w_b - q^b w_b y.  The
    products are the extension's own, but the differential formula
    d(y^k u) = y^(k+1) (u - q^k phi(u)) is not used, so it cross-checks that.
    """
    n = w.order
    y = PlaneElement.y(n)
    out = PlaneElement.zero(n)
    for b in range(n):
        piece = y ** b * w.component(b)
        out = out + y * piece - (piece * y).scale(CycScalar.q_power(n, b))
    return out


def test_plane_differential_routes_agree():
    rng = random.Random(127)
    for order in ORDERS:
        for _ in range(10):
            w = PlaneElement.zero(order)
            for _ in range(3):
                w = w + PlaneElement.monomial(
                    order, rng.randrange(order), rng.randrange(order), rng.randint(-5, 5)
                )
            assert differential(w) == plane_commutator_differential(w)


def test_reference_families_order_3():
    fam = q_plane_families(3)
    q = CycScalar.q(3)
    x = XPoly.x(3)
    assert fam.dkx[0] == x.scale(1 - q)
    assert fam.dkx[1] == x.scale(3)
    assert fam.dkx[2].is_zero()
    assert fam.dx_pow[1] == (x * x).scale(3 + 3 * q)
    assert fam.connection[0] == (x * x).scale(-q)
    assert fam.connection[1] == (x * x).scale(q)


def test_families_at_order_two():
    fam = q_plane_families(2)
    assert fam.dkx[1].is_zero()
    # Q_2 = q(1-q)^2 x^2 = -4 since q = -1 and x^2 = 1; nonzero although P_2 = 0
    assert fam.dx_pow[1] == XPoly.from_scalar(2, -4)
    assert not from_dx_basis(fam, 2, XPoly.one(2)).is_zero()
    # the connection vanishes at order 2, so d is plain q u' on 1-forms
    assert fam.connection[0].is_zero()


@pytest.mark.parametrize("order", ORDERS)
def test_p_family_closed_form(order):
    fam = q_plane_families(order)
    q = CycScalar.q(order)
    coeff = CycScalar.one(order)
    for k in range(1, order + 1):
        coeff = coeff * (1 - q ** k)
        assert fam.dkx[k - 1] == XPoly.x(order).scale(coeff), f"P_{k}"


@pytest.mark.parametrize("order", ORDERS)
def test_q_family_closed_form(order):
    fam = q_plane_families(order)
    q = CycScalar.q(order)
    for k in range(1, order + 1):
        coeff = CycScalar.q_power(order, k * (k - 1) // 2) * (1 - q) ** k
        assert fam.dx_pow[k - 1] == XPoly.monomial(order, k % order, coeff), f"Q_{k}"


@pytest.mark.parametrize("order", ORDERS)
def test_connection_closed_form(order):
    fam = q_plane_families(order)
    for k in range(1, order):
        expected = XPoly.monomial(order, order - 1, delta_coefficient(order, k))
        assert fam.connection[k - 1] == expected, f"Phi_{k}"


@pytest.mark.parametrize("order", ORDERS)
def test_q_inverses_multiply_back(order):
    fam = q_plane_families(order)
    for k in range(order):
        assert fam.dx_pow[k] * fam.dx_pow_inv[k] == XPoly.one(order)


@pytest.mark.parametrize("order", ORDERS)
def test_vanishing_identities(order):
    results = identity_check(q_plane_families(order))
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_twisted_sum_written_out():
    # sum_j phi^j(P_{N-1}) = 0, assembled by hand at order 4
    fam = q_plane_families(4)
    c = fam.carrier
    acc = XPoly.zero(4)
    for j in range(4):
        acc = acc + c.phi_power(fam.dkx[2], j)
    assert acc.is_zero()


def test_printed_connection_recurrence_is_wrong():
    """The q^(k-1) twist in the recurrence breaks at order 3, k = 2.

    With Phi_(k+1) = Ad(Phi_k) + q^(k-1) Phi_1 one gets q^2 x^2 instead of
    q x^2, and the candidate fails d((dx)^2) = (dx)^3 Phi_2.  The q^k twist
    is the one consistent with both the closed form and the tau-basis route.
    """
    order = 3
    fam = q_plane_families(order)
    c = fam.carrier
    x = XPoly.x(order)
    phi1 = fam.connection[0]
    candidate = conjugation_dx(c, phi1, fam.x) + c.q_element(1 - 1) * phi1
    assert candidate == (x * x).scale(CycScalar.q_power(order, 2))
    assert candidate != fam.connection[1]
    dx2 = from_dx_basis(fam, 2, XPoly.one(order))
    assert dx2.differential() != from_dx_basis(fam, 3, candidate)
    assert dx2.differential() == from_dx_basis(fam, 3, fam.connection[1])


@pytest.mark.parametrize("order", ORDERS)
def test_differential_of_dx_powers(order):
    # d((dx)^k) = (dx)^(k+1) Phi_k, the tau-basis differential on one side
    fam = q_plane_families(order)
    for k in range(1, order):
        lhs = from_dx_basis(fam, k, XPoly.one(order)).differential()
        rhs = from_dx_basis(fam, k + 1, fam.connection[k - 1])
        assert lhs == rhs, f"k={k}"


def test_dx_basis_round_trip():
    rng = random.Random(131)
    for order in ORDERS:
        fam = q_plane_families(order)
        for _ in range(10):
            k = rng.randrange(order)
            u = rand_xpoly(rng, order)
            form = KForm(fam.carrier, k, u)
            r = to_dx_basis(form, fam)
            assert from_dx_basis(fam, k, r) == form


def test_form_products_respect_the_twist():
    # (tau^a u)(tau^b v) moves u across tau^b; compare against ExtElement
    rng = random.Random(137)
    for order in (2, 3, 4):
        c = XPolyCarrier(order)
        for _ in range(10):
            a, b = rng.randrange(order), rng.randrange(order)
            u, v = rand_xpoly(rng, order), rand_xpoly(rng, order)
            form = KForm(c, a, u) * KForm(c, b, v)
            ext = ExtElement.from_component(c, a, u) * ExtElement.from_component(c, b, v)
            assert ext.component((a + b) % order) == form.coeff


def test_covariant_operator_matches_the_graded_route():
    rng = random.Random(139)
    for order in (3, 4, 5):
        fam = q_plane_families(order)
        for k in range(1, order - 1):
            op = covariant_operator(fam, k)
            for _ in range(8):
                u = rand_xpoly(rng, order)
                dw = from_dx_basis(fam, k, u).differential()
                assert to_dx_basis(dw, fam) == op(u), f"order={order} k={k}"


def test_covariant_operator_reference_values():
    for order in (3, 4, 5):
        fam = q_plane_families(order)
        op = covariant_operator(fam, 1)
        assert op(XPoly.zero(order)).is_zero()
        assert op(XPoly.one(order)) == fam.connection[0]
        # D(x) = q + Phi_1 x = q + q^-1 + 1 = q^-1 [3]_q, which vanishes at order 3
        expected = CycScalar.q_power(order, -1) * q_integer(3, order)
        assert op(XPoly.x(order)) == XPoly.from_scalar(order, expected)
    assert covariant_operator(q_plane_families(3), 1)(XPoly.x(3)).is_zero()


def test_covariant_operator_range():
    fam = q_plane_families(3)
    with pytest.raises(ValueError):
        covariant_operator(fam, 0)
    with pytest.raises(ValueError):
        covariant_operator(fam, 3)
    with pytest.raises(ValueError):
        from_dx_basis(fam, 4, XPoly.one(3))
    with pytest.raises(ValueError):
        higher_differential_of_x(fam, 0)


@pytest.mark.parametrize("order", ORDERS)
def test_iterated_differential_of_x(order):
    """d applied k times to x lands on tau^k P_k, via plane products only."""
    fam = q_plane_families(order)
    w = PlaneElement.x(order)
    for k in range(1, order + 1):
        w = plane_commutator_differential(w)
        expected = PlaneElement.y(order) ** k * fam.dkx[k - 1]
        assert w == expected, f"k={k}"
    assert w.is_zero()  # the k = N step: P_N = 0


@pytest.mark.parametrize("order", ORDERS)
def test_nonvanishing_witness_below_the_top(order):
    # d^(N-1) x = N y^(N-1) x, nonzero; one more d kills it
    w = PlaneElement.x(order)
    for _ in range(order - 1):
        w = plane_commutator_differential(w)
    assert w == PlaneElement.monomial(order, order - 1, 1, order)
    assert not w.is_zero()


@pytest.mark.parametrize("order", ORDERS)
def test_higher_differential_two_path_at_k_2(order):
    # tau^2 P_2 = (dx)^2 ([2]_q / q) x^(1-2), both sides built separately;
    # at order 2 both collapse to zero because [2]_q = 0
    fam = q_plane_families(order)
    coeff = q_integer(2, order) * CycScalar.q_power(order, -1)
    r = XPoly.monomial(order, order - 1, coeff)
    assert higher_differential_of_x(fam, 2) == from_dx_basis(fam, 2, r)


@pytest.mark.parametrize("order", ORDERS)
def test_higher_differential_q_factorial_coefficient(order):
    """d^k x = ([k]_q! / q^(k(k-1)/2)) (dx)^k x^(1-k) for every k.

    The q-factorial is forced: P_k / Q_k = [k]_q! (1-q)^k / ((1-q)^k x^(k-1)).
    The variant with a plain q-integer coefficient only agrees for k <= 2 and
    k = N; test_acceptance asserts the q-factorial form (criterion 06) and
    pins the points where that variant is rejected.
    """
    fam = q_plane_families(order)
    for k in range(1, order + 1):
        coeff = q_factorial(k, order) * CycScalar.q_power(order, -(k * (k - 1) // 2))
        r = XPoly.monomial(order, (1 - k) % order, coeff)
        assert higher_differential_of_x(fam, k) == from_dx_basis(fam, k, r), f"k={k}"
    assert higher_differential_of_x(fam, order).is_zero()


@pytest.mark.parametrize("order", ORDERS)
def test_partial_power_rule(order):
    for k in range(order):
        got = partial_derivative(XPoly.monomial(order, k))
        expected = (
            XPoly.zero(order)
            if k == 0
            else XPoly.monomial(order, k - 1, q_integer(k, order))
        )
        assert got == expected, f"k={k}"


def test_partial_twisted_leibniz():
    rng = random.Random(149)
    for order in (2, 3, 5):
        for _ in range(15):
            w, v = rand_xpoly(rng, order), rand_xpoly(rng, order)
            lhs = partial_derivative(w * v)
            rhs = partial_derivative(w) * v + w.twist(1) * partial_derivative(v)
            assert lhs == rhs


def test_partial_matches_the_right_derivative():
    rng = random.Random(151)
    for order in ORDERS:
        c = XPolyCarrier(order)
        for _ in range(10):
            w = rand_xpoly(rng, order)
            assert partial_derivative(w) == right_derivative(c, w, c.x())


@pytest.mark.parametrize("order", ORDERS)
def test_higher_delta_two_routes(order):
    rng = random.Random(157)
    for k in range(order):
        for l in range(order):
            mono = XPoly.monomial(order, l)
            assert higher_delta(k, mono) == higher_delta_closed(k, mono)
        for _ in range(5):
            r = rand_xpoly(rng, order)
            assert higher_delta(k, r) == higher_delta_closed(k, r)


def test_higher_delta_reference_values():
    order = 4
    assert higher_delta(0, XPoly.x(order)) == XPoly.one(order)
    for k in range(order):
        expected = XPoly.monomial(order, order - 1, delta_coefficient(order, k))
        assert higher_delta(k, XPoly.one(order)) == expected
    rng = random.Random(163)
    r = rand_xpoly(rng, order)
    assert higher_delta(0, r) == partial_derivative(r)


def test_higher_delta_is_the_covariant_operator():
    # same operator in two modules: q^k partial + Phi_k multiplication
    rng = random.Random(167)
    for order in (3, 4, 5):
        fam = q_plane_families(order)
        for k in range(1, order):
            op = covariant_operator(fam, k)
            for _ in range(5):
                r = rand_xpoly(rng, order)
                assert higher_delta(k, r) == op(r)


def test_higher_delta_derivation_property():
    rng = random.Random(173)
    for order in ORDERS:
        for k in range(order):
            qk = CycScalar.q_power(order, k)
            for _ in range(8):
                r, s = rand_xpoly(rng, order), rand_xpoly(rng, order)
                lhs = higher_delta(k, r * s)
                rhs = higher_delta(k, r) * s + r.twist(1).scale(qk) * higher_delta(0, s)
                assert lhs == rhs


def test_forms_are_nilpotent():
    rng = random.Random(179)
    for order in ORDERS:
        c = XPolyCarrier(order)
        for start in range(order):
            form = KForm(c, start, rand_xpoly(rng, order))
            for _ in range(order):
                form = form.differential()
            assert form.is_zero()


def test_exact_one_forms_at_order_two_close():
    # d^2 of a function is zero even though (dx)^2 is not
    fam = q_plane_families(2)
    rng = random.Random(181)
    for _ in range(10):
        r = rand_xpoly(rng, 2)
        ddr = KForm(fam.carrier, 0, r).differential().differential()
        assert ddr.is_zero()
