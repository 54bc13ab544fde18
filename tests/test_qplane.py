"""Reduced quantum plane: normal forms, grading, inversion, matrix model."""

import random
from fractions import Fraction

import pytest

from qgalois import (
    CycScalar,
    ExtElement,
    NotInvertible,
    PlaneElement,
    RepMatrix,
    XPoly,
    XPolyCarrier,
    generator_matrices,
    represent,
)
from qgalois.qplane import basis_matrices, scalar_rank


def rand_plane(rng, order, span=5):
    w = PlaneElement.zero(order)
    for _ in range(rng.randint(1, 4)):
        k, l = rng.randrange(order), rng.randrange(order)
        w = w + PlaneElement.monomial(order, k, l, Fraction(rng.randint(-span, span)))
    return w


def rand_xpoly(rng, order, span=5):
    return XPoly(
        order,
        [CycScalar.from_rational(order, Fraction(rng.randint(-span, span))) for _ in range(order)],
    )


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_generator_relations(order):
    x = PlaneElement.x(order)
    y = PlaneElement.y(order)
    q = CycScalar.q(order)
    assert x * y == (y * x).scale(q)
    assert x ** order == PlaneElement.one(order)
    assert y ** order == PlaneElement.one(order)
    assert x ** (order - 1) * x == PlaneElement.one(order)


@pytest.mark.parametrize("order", range(2, 9))
def test_monomial_product_rule(order):
    # (y^a x^b)(y^c x^d) = q^(bc) y^(a+c) x^(b+d); the expected side is one
    # monomial built directly, with no product
    for a in range(order):
        for b in range(order):
            left = PlaneElement.monomial(order, a, b)
            for c in range(order):
                for d in range(order):
                    lhs = left * PlaneElement.monomial(order, c, d)
                    coeff = CycScalar.q_power(order, b * c)
                    assert lhs == PlaneElement.monomial(order, a + c, b + d, coeff)


def test_yx_squared():
    order = 4
    x, y = PlaneElement.x(order), PlaneElement.y(order)
    q = CycScalar.q(order)
    assert (y * x) * (y * x) == (y ** 2 * x ** 2).scale(q)


def test_grading():
    order = 3
    x, y = PlaneElement.x(order), PlaneElement.y(order)
    w = y ** 2 * x
    assert w.is_homogeneous()
    assert w.degree() == 2
    assert (w + x).degree() is None
    assert PlaneElement.zero(order).degree() == 0
    rng = random.Random(83)
    for _ in range(20):
        a = y ** rng.randrange(order) * rand_xpoly(rng, order)
        b = y ** rng.randrange(order) * rand_xpoly(rng, order)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).degree() == (a.degree() + b.degree()) % order


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        PlaneElement.x(3) + PlaneElement.x(4)


def test_twist_endomorphism():
    order = 3
    x = XPoly.x(order)
    q = CycScalar.q(order)
    assert x.twist(1) == x.scale(q)
    assert (x * x).twist(1) == (x * x).scale(q ** 2)
    rng = random.Random(89)
    for _ in range(15):
        r = rand_xpoly(rng, order)
        assert r.twist(0) == r
        # A_k = A_1 iterated k times
        w = r
        for _ in range(2):
            w = w.twist(1)
        assert r.twist(2) == w
        s = rand_xpoly(rng, order)
        assert (r * s).twist(1) == r.twist(1) * s.twist(1)


def test_twist_transport_across_y_powers():
    # r y^k = y^k A_k(r) inside the plane
    order = 4
    y = PlaneElement.y(order)
    rng = random.Random(97)
    for k in range(order):
        r = rand_xpoly(rng, order)
        lhs = PlaneElement(order, [r] + [XPoly.zero(order)] * (order - 1)) * y ** k
        rhs = y ** k * PlaneElement(order, [r.twist(k)] + [XPoly.zero(order)] * (order - 1))
        assert lhs == rhs


def test_x_inverse_reference_values():
    for order in (2, 3, 5):
        x = XPoly.x(order)
        q = CycScalar.q(order)
        assert x.inverse() == XPoly.monomial(order, order - 1)
        scaled = x.scale(1 - q)
        assert scaled.inverse() == XPoly.monomial(order, order - 1, (1 - q).inverse())


def test_x_inverse_round_trip_randomized():
    rng = random.Random(101)
    for order in (2, 3, 4, 5, 6):
        hits = 0
        while hits < 25:
            r = rand_xpoly(rng, order)
            try:
                inv = r.inverse()
            except NotInvertible:
                continue
            hits += 1
            assert r * inv == XPoly.one(order)


def test_zero_divisors_are_detected():
    for order in (2, 3, 4):
        r = XPoly.one(order) - XPoly.x(order)  # vanishes at x = 1
        with pytest.raises(NotInvertible):
            r.inverse()
        with pytest.raises(NotInvertible):
            XPoly.zero(order).inverse()


def test_evaluation_at_roots():
    order = 3
    rng = random.Random(103)
    r = rand_xpoly(rng, order)
    for j in range(order):
        point = CycScalar.q_power(order, j)
        expected = sum(
            (c * point ** l for l, c in enumerate(r.coeffs)), CycScalar.zero(order)
        )
        assert r.evaluate_at_q_power(j) == expected


def hand_matrices(order):
    """I, X = diag(q**0, q**-1, ..., q**-(N-1)) and the cyclic shift Y, entry by entry."""
    zero, one = CycScalar.zero(order), CycScalar.one(order)

    def matrix(entry):
        return RepMatrix(order, [[entry(i, j) for j in range(order)] for i in range(order)])

    return (
        matrix(lambda i, j: one if i == j else zero),
        matrix(lambda i, j: CycScalar.q_power(order, -i) if i == j else zero),
        matrix(lambda i, j: one if j == (i + 1) % order else zero),
    )


def test_generator_matrices_small_orders():
    X2, Y2 = generator_matrices(2)
    assert X2 == RepMatrix(2, [[1, 0], [0, -1]])
    assert Y2 == RepMatrix(2, [[0, 1], [1, 0]])
    q3 = CycScalar.q(3)
    X3, _ = generator_matrices(3)
    assert X3 == RepMatrix(
        3,
        [[1, 0, 0], [0, q3 ** 2, 0], [0, 0, q3]],
    )
    for order in range(2, 9):
        assert generator_matrices(order) == hand_matrices(order)[1:]


@pytest.mark.parametrize("order", range(2, 9))
def test_represent_sends_monomials_to_generator_words(order):
    """represent(y**k x**l) == Y**k X**l, the word multiplied out from hand-built matrices."""
    identity, X, Y = hand_matrices(order)
    yk = identity
    for k in range(order):
        word = yk
        for l in range(order):
            assert represent(PlaneElement.monomial(order, k, l)) == word
            word = word * X
        yk = yk * Y


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_generator_matrices_satisfy_the_relations(order):
    X, Y = generator_matrices(order)
    q = CycScalar.q(order)
    assert X * Y == (Y * X).scale(q)
    assert X ** order == RepMatrix.identity(order)
    assert Y ** order == RepMatrix.identity(order)


def test_represent_reference_values():
    order = 3
    assert represent(PlaneElement.one(order)) == RepMatrix.identity(order)
    x, y = PlaneElement.x(order), PlaneElement.y(order)
    q = CycScalar.q(order)
    assert represent(x * y) == represent((y * x).scale(q))


def test_represent_is_multiplicative():
    rng = random.Random(107)
    for order in (2, 3, 4):
        for _ in range(15):
            a, b = rand_plane(rng, order), rand_plane(rng, order)
            assert represent(a * b) == represent(a) * represent(b)
            assert represent(a + b) == represent(a) + represent(b)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_representation_is_faithful(order):
    """The order^2 basis monomials must stay independent as matrices."""
    mats = basis_matrices(order)
    vectors = [
        [entry for row in mats[(k, l)].entries for entry in row]
        for k in range(order)
        for l in range(order)
    ]
    assert scalar_rank(vectors) == order * order


def test_extension_is_an_isomorphism_of_products():
    rng = random.Random(113)
    for order in (2, 3, 4):
        c = XPolyCarrier(order)
        for _ in range(15):
            a, b = rand_plane(rng, order), rand_plane(rng, order)
            ea, eb = ExtElement(c, a.components), ExtElement(c, b.components)
            assert a * b == ea * eb
            assert a + b == ea + eb
            for mixed in (ea * b, a * eb, ea + b, a - eb, ea - b, ea * eb):
                assert isinstance(mixed, PlaneElement)
            assert ea * b == a * eb == a * b
            assert ea - b == a - eb == a - b


def test_carrier_packaging():
    order = 4
    c = XPolyCarrier(order)
    assert c.order == order
    assert c.tau_sign == 1
    assert c.phi(c.x()) == c.x().scale(CycScalar.q(order))
    assert c.q_element(3) == XPoly.from_scalar(order, CycScalar.q_power(order, 3))


def test_xpoly_embeds_as_row_zero():
    order = 3
    r = XPoly.x(order)
    w = PlaneElement.y(order) + r
    assert w.component(0) == r
    assert w.component(1) == XPoly.one(order)


def test_plane_scalar_coercion():
    order = 3
    x = PlaneElement.x(order)
    q = CycScalar.q(order)
    assert x * q == x.scale(q)
    assert 1 - PlaneElement.one(order) == PlaneElement.zero(order)
    # == lifts scalars and x-polynomials as + - * do
    assert PlaneElement.one(order) == 1 and x == XPoly.x(order)
    assert x != XPoly.x(order + 1) and x != PlaneElement.x(order + 1)


def test_string_rendering():
    order = 3
    x, y = PlaneElement.x(order), PlaneElement.y(order)
    q = CycScalar.q(order)
    assert str(PlaneElement.zero(order)) == "0"
    assert str(y * x) == "y*x"
    assert str((y * x).scale(q)) == "q*y*x"
    assert str((y * x).scale(1 + q)) == "(1 + q)*y*x"
    assert str(x - (y ** 2).scale(2)) == "x - 2*y^2"


def test_matrix_rendering():
    assert str(generator_matrices(2)[1]) == "[0, 1]\n[1, 0]"
