"""Reduced quantum plane: normal forms, grading, inversion, matrix model."""

import copy
import cProfile
import math
import pickle
import pstats
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from qgalois import (
    CycScalar,
    ExtElement,
    KForm,
    NotInvertible,
    PlaneElement,
    RepMatrix,
    XPoly,
    XPolyCarrier,
    build_families,
    generator_matrices,
    identity_check,
    q_commutator,
    represent,
    tau,
    verify,
)
from qgalois.cyclotomic import _reduce, dot
from qgalois.quaternion import QUAT_I
from qgalois.qplane import _modulus, _root_values, basis_matrices, scalar_rank

from samplers import rand_plane, rand_xpoly


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
    assert w.degree() is not None
    assert w.degree() == 2
    assert (w + x).degree() is None
    assert PlaneElement.zero(order).degree() == 0
    rng = random.Random(83)
    for _ in range(20):
        a = y ** rng.randrange(order) * rand_xpoly(rng, order)
        b = y ** rng.randrange(order) * rand_xpoly(rng, order)
        if not a or not b:
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
    rng = random.Random(103)
    for order in range(2, 9):
        for r in [rand_xpoly(rng, order) for _ in range(3)] + [XPoly.zero(order), XPoly.x(order)]:
            for j in range(-order, 2 * order):
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


def _calls(task, fn) -> int:
    """How often ``task()`` calls the function fn, by cProfile, which counts alike on any machine."""
    profile = cProfile.Profile()
    profile.runcall(task)
    code = fn.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return pstats.Stats(profile).stats.get(key, (0, 0))[1]


def _dense_scalar(rng, order):
    return CycScalar(order, [rng.randint(1, 9) for _ in range(len(CycScalar.zero(order).num))])


def test_a_dense_product_reduces_once_per_output_scalar():
    """Each coefficient of an order-7 XPoly product, and each entry of a matrix
    product, is one sum of products, folded mod Phi_N once and summed by no scalar +."""
    rng = random.Random(32)
    a, b = (XPoly(7, [_dense_scalar(rng, 7) for _ in range(7)]) for _ in range(2))
    assert _calls(lambda: a * b, _reduce) <= 7
    assert _calls(lambda: a * b, CycScalar.__add__) == 0
    rows = ([[_dense_scalar(rng, 7) for _ in range(7)] for _ in range(7)] for _ in range(2))
    m, w = (represent(PlaneElement(7, r)) for r in rows)
    assert all(m.entries[i][j] for i in range(7) for j in range(7))
    assert _calls(lambda: m * w, _reduce) <= 49


def test_a_dense_plane_product_folds_once_per_output_coefficient():
    """The 49 coefficients of a dense order-7 plane product are one packed pass:
    49 folds and no ``dot``, where a product form by form made 931 and 637."""
    rng = random.Random(35)
    rows = ([[_dense_scalar(rng, 7) for _ in range(7)] for _ in range(7)] for _ in range(2))
    a, b = (PlaneElement(7, r) for r in rows)
    assert all(c for u in (a * b).components for c in u.coeffs)
    assert _calls(lambda: a * b, _reduce) == 49
    assert _calls(lambda: a * b, dot) == 0


def _value_by_dot(u, e, divisor=1):
    """u(q**e) / divisor as one sum of products over the pairs (c_l, q**(e l))."""
    n = u.order
    value = dot(n, [(c, CycScalar.q_power(n, e * l)) for l, c in enumerate(u.coeffs) if c])
    return value * CycScalar.from_rational(n, Fraction(1, divisor))


def _wide_scalar(rng, order):
    """A scalar of full degree with 60-digit numerators over a denominator up to 6."""
    coeffs = [Fraction(rng.randint(-10**60, 10**60), rng.randint(1, 6)) for _ in range(order)]
    return CycScalar.from_poly(order, coeffs)


@pytest.mark.parametrize("order", range(2, 13))
def test_root_values_are_the_per_root_sums_of_products(order):
    """Each value by rotation is the one ``dot`` gives, in the same canonical form,
    on dense, wide and sparse rows, at q**j and q**-j, with and without a divisor."""
    rng = random.Random(370 + order)
    rows = [
        XPoly(order, [_dense_scalar(rng, order) for _ in range(order)]),
        XPoly(order, [_wide_scalar(rng, order) for _ in range(order)]),
        XPoly.monomial(order, rng.randrange(order), _wide_scalar(rng, order))
        + XPoly.monomial(order, rng.randrange(order), Fraction(-3, 2)),
        XPoly.x(order),
        XPoly.zero(order),
    ]
    for sign in (1, -1):
        for divisor in (1, order, 6):
            for u, values in zip(rows, _root_values(rows, sign, divisor)):
                for j, v in enumerate(values):
                    expected = _value_by_dot(u, sign * j, divisor)
                    assert (v.num, v.den) == (expected.num, expected.den), (sign, divisor, j)
    with pytest.raises(ValueError):
        _root_values([XPoly.one(order), XPoly.one(order, -1)])


@pytest.mark.parametrize("order", range(2, 13))
def test_a_dense_inverse_round_trips(order):
    rng = random.Random(371 + order)
    for _ in range(2):
        u = XPoly(order, [_wide_scalar(rng, order) for _ in range(order)])
        assert u * u.inverse() == XPoly.one(order)


def test_a_dense_represent_folds_once_per_entry():
    """The 49 entries of a dense order-7 image are one ``_root_values`` call:
    49 folds and no ``dot``; a constant's inverse inverts one scalar."""
    rng = random.Random(37)
    w = PlaneElement(7, [[_dense_scalar(rng, 7) for _ in range(7)] for _ in range(7)])
    assert all(e for row in represent(w).entries for e in row)
    assert _calls(lambda: represent(w), _reduce) == 49
    assert _calls(lambda: represent(w), dot) == 0
    constant = XPoly.from_scalar(7, _dense_scalar(rng, 7))
    assert _calls(constant.inverse, CycScalar.inverse) == 1
    assert constant * constant.inverse() == XPoly.one(7)


def test_a_zero_part_of_the_right_operand_leaves_the_left_part_as_it_is():
    """A dense order-8 extension element plus or minus one two-term form makes two
    scalar sums and keeps every other component of the left operand as it is."""
    rng = random.Random(38)
    a = PlaneElement(8, [[_dense_scalar(rng, 8) for _ in range(8)] for _ in range(8)])
    b = PlaneElement.monomial(8, 3, 1, 5) + PlaneElement.monomial(8, 3, 6, Fraction(-1, 2))
    assert _calls(lambda: a + b, CycScalar.__add__) == _calls(lambda: a - b, CycScalar.__sub__) == 2
    for s in (a + b, a - b):
        assert all(s.components[k] is a.components[k] for k in range(8) if k != 3)
    assert (a - b) + b == a and a - b == a + (-b) and b - a == -(a - b)


def test_a_tau_commutator_makes_two_packed_products():
    """[tau, xi]_q is tau xi minus theta_1(xi) tau, xi with its component b scaled by q**b:
    two ``XPolyCarrier.product`` calls at order 8, for xi of one form or of two."""
    c = XPolyCarrier(8)
    rng = random.Random(36)
    one = ExtElement.from_component(c, 3, rand_xpoly(rng, 8))
    two = one + ExtElement.from_component(c, 6, rand_xpoly(rng, 8))
    t = tau(c)
    for xi, forms in ((one, 1), (two, 2)):
        assert len(xi.forms()) == forms
        assert _calls(lambda: q_commutator(t, xi), XPolyCarrier.product) == 2


def test_a_signed_dense_product_negates_each_left_coefficient_once():
    """At x**N = -1 a pair wraps past x**N at most once, so each left
    coefficient is negated at most once, and a negation folds nothing."""
    rng = random.Random(33)
    a, b = (XPoly(7, [_dense_scalar(rng, 7) for _ in range(7)], -1) for _ in range(2))
    assert _calls(lambda: a * b, _reduce) <= 7
    assert _calls(lambda: a * b, CycScalar.__neg__) <= 7
    x = XPoly.x(7, -1)
    assert a * b * x == a * (b * x) and x ** 7 == -XPoly.one(7, -1)


def test_a_sparse_sum_reduces_only_where_both_summands_are_nonzero():
    """A zero summand gives the other scalar back unfolded: x**2 and x**5 are
    the only powers that both order-8 operands hold."""
    rng = random.Random(34)
    a, b = (
        XPoly(8, [_dense_scalar(rng, 8) if l in support else 0 for l in range(8)])
        for support in ({0, 2, 5}, {2, 3, 5, 7})
    )
    assert _calls(lambda: a + b, _reduce) == _calls(lambda: a - b, _reduce) == 2
    assert (a + b) - b == a and a - b == a + (-b) and b - a == -(a - b)


@pytest.mark.parametrize("order", range(2, 13))
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


SCALAR_KINDS = (
    lambda n: -3,
    lambda n: Fraction(5, 7),
    lambda n: CycScalar.from_poly(n, (Fraction(1, 2), -2)),
)


@pytest.mark.parametrize("order", [2, 3, 5, 8])
def test_xpoly_times_scalar_is_scale(order):
    rng = random.Random(order)
    r = XPoly.monomial(order, 1, 3) + XPoly.monomial(order, order - 1, CycScalar.q(order))
    for make in SCALAR_KINDS:
        c = make(order)
        assert r * c == c * r == r.scale(c)
        # the lifted-scalar product, by the double loop
        assert r.scale(c) == r * XPoly.from_scalar(order, c)
        dense = rand_xpoly(rng, order)
        assert dense * c == dense * XPoly.from_scalar(order, c)


def test_scale_leaves_zero_coefficients_unmultiplied(monkeypatch):
    calls = []
    mul = CycScalar.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    r, q = XPoly.monomial(5, 2, 4), CycScalar.q(5)
    monkeypatch.setattr(CycScalar, "__mul__", counted)
    products = [r.scale(q), r * q]
    monkeypatch.undo()
    assert len(calls) == 2
    assert all(p == XPoly.monomial(5, 2, CycScalar.from_poly(5, (0, 4))) for p in products)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_plane_scale_matches_the_plane_product(order):
    rng = random.Random(31 + order)
    for _ in range(5):
        w = rand_plane(rng, order)
        for make in SCALAR_KINDS:
            c = make(order)
            scaled = w.scale(c)
            assert isinstance(scaled, PlaneElement)
            assert scaled == w * PlaneElement.from_scalar(order, c)
            assert scaled.components == tuple(u * XPoly.from_scalar(order, c) for u in w.components)


# -- scalar_rank on rank-deficient and random input -------------------------------


def dense_rank(vectors):
    """Oracle: Gauss-Jordan elimination that updates every column of every row."""
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [inv * e for e in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [e - f * p for e, p in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def rand_scalar(rng, order, density=1.0):
    """A scalar of Q(q) with each coefficient nonzero with probability density."""
    deg = len(CycScalar.zero(order).coeffs)
    return CycScalar.from_poly(
        order,
        [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
            if rng.random() < density
            else 0
            for _ in range(deg)
        ],
    )


def rand_matrix(rng, order, nrows, ncols, density):
    zero = CycScalar.zero(order)
    return [
        [rand_scalar(rng, order) if rng.random() < density else zero for _ in range(ncols)]
        for _ in range(nrows)
    ]


def planted_rank_matrix(rng, order, rank, ncols):
    """rank independent rows, then duplicate, zero and Q(q)-combination rows, shuffled.

    The independent rows are in echelon form with nonzero pivots before their
    columns are permuted, so the rank is known without elimination.
    """
    zero = CycScalar.zero(order)
    pivots = sorted(rng.sample(range(ncols), rank))
    base = []
    for p in pivots:
        row = [zero] * ncols
        row[p] = rand_scalar(rng, order, 0.8) or CycScalar.one(order)
        for j in range(p + 1, ncols):
            if rng.random() < 0.3:
                row[j] = rand_scalar(rng, order, 0.6)
        base.append(row)
    rows = [list(r) for r in base]
    rows += [list(rng.choice(base)) for _ in range(2)]  # duplicates
    rows += [[zero] * ncols for _ in range(2)]  # zero rows
    for _ in range(3):  # combinations of up to three base rows
        combo = [zero] * ncols
        for row in rng.sample(base, min(3, rank)):
            f = rand_scalar(rng, order, 0.7)
            combo = [c + f * e for c, e in zip(combo, row)]
        rows.append(combo)
    rng.shuffle(rows)
    perm = list(range(ncols))
    rng.shuffle(perm)
    return [[row[j] for j in perm] for row in rows]


@pytest.mark.parametrize("order", range(2, 9))
def test_scalar_rank_of_planted_rank_deficient_rows(order):
    rng = random.Random(4201 + order)
    ncols = order * order
    for rank in sorted({1, 2, order - 1, order}):
        vectors = planted_rank_matrix(rng, order, rank, ncols)
        snapshot = [list(v) for v in vectors]
        assert len(vectors) == rank + 7
        assert scalar_rank(vectors) == rank
        assert dense_rank(vectors) == rank
        assert vectors == snapshot  # the input is not eliminated in place


@pytest.mark.parametrize("order", range(2, 9))
def test_scalar_rank_matches_dense_elimination_on_random_matrices(order):
    rng = random.Random(4301 + order)
    for nrows, ncols, density in (
        (order + 2, order * order, 0.1),  # sparse, as the basis images are
        (2 * order, order * order, 1.0 / order),
        (order + 1, 2 * order, 1.0),  # dense, more rows than independent columns
        (3, order, 0.5),
    ):
        vectors = rand_matrix(rng, order, nrows, ncols, density)
        assert scalar_rank(vectors) == dense_rank(vectors)


@pytest.mark.parametrize("order", range(2, 13))
def test_the_certificate_proves_the_basis_images_independent(order):
    """Full rank mod p is the rank over Q(q): no scalar is inverted."""
    vectors = [m._parts for _, m in sorted(basis_matrices(order).items())]
    assert _calls(lambda: scalar_rank(vectors), CycScalar.inverse) == 0
    assert scalar_rank(vectors) == order * order


def test_the_certificate_ranks_a_dense_order_11_matrix():
    """121 x 121 at order 11 with 1/11 of the entries nonzero: elimination
    over Q(q) ran for minutes here, the certificate inverts no scalar."""
    vectors = rand_matrix(random.Random(0), 11, 121, 121, 1 / 11)
    assert _calls(lambda: scalar_rank(vectors), CycScalar.inverse) == 0
    assert scalar_rank(vectors) == 121


@pytest.mark.parametrize("order", [3, 5, 8])
def test_the_modulus_is_the_least_prime_past_10_4_with_a_root_of_order_n(order):
    p, w = _modulus(order)
    assert p > 10**4 and p % order == 1 and all(p % d for d in range(2, math.isqrt(p) + 1))
    assert not any(c % order == 1 and all(c % d for d in range(2, c)) for c in range(10**4 + 1, p))
    assert [k for k in range(1, order + 1) if pow(w, k, p) == 1] == [order]  # w has exact order N


@pytest.mark.parametrize("order", [2, 5, 7])
def test_the_rank_over_q_of_q_decides_where_the_certificate_cannot(order):
    """An entry equal to p drops the rank mod p; an entry over the denominator
    p has no image mod p.  Either way elimination over Q(q) gives the rank."""
    p = _modulus(order)[0]
    zero, one, q = CycScalar.zero(order), CycScalar.one(order), CycScalar.q(order)
    over_p = CycScalar.from_rational(order, Fraction(1, p))
    for vectors, rank in (
        ([[one * p, zero], [zero, q]], 2),
        ([[one * (p + 1), one], [one, one]], 2),
        ([[over_p, q], [zero, one]], 2),
        ([[over_p, q], [over_p * 2, q * 2]], 1),
    ):
        assert _calls(lambda: scalar_rank(vectors), CycScalar.inverse) > 0
        assert scalar_rank(vectors) == dense_rank(vectors) == rank


def test_scalar_rank_of_degenerate_input():
    zero = CycScalar.zero(3)
    assert scalar_rank([]) == 0
    assert scalar_rank([[zero] * 4] * 3) == 0
    row = [zero, CycScalar.q(3), zero, CycScalar.one(3)]
    assert scalar_rank([row, row, [zero] * 4, [CycScalar.q(3) * e for e in row]]) == 1


def test_plane_element_from_plain_rational_rows():
    w = PlaneElement(3, [[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 0]])
    assert w == PlaneElement.monomial(3, 0, 0) + PlaneElement.monomial(3, 1, 1, Fraction(1, 2))
    assert str(w) == "1 + 1/2*y*x"
    assert all(isinstance(c, CycScalar) for u in w.components for c in u.coeffs)


def test_xpoly_lifts_rational_coefficients():
    r = XPoly(3, [1, 0, Fraction(-2, 3)])
    assert r == XPoly.one(3) + XPoly.monomial(3, 2, Fraction(-2, 3))
    assert all(isinstance(c, CycScalar) and c.order == 3 for c in r.coeffs)
    assert str(r) == str(XPoly.one(3) + XPoly.monomial(3, 2, Fraction(-2, 3)))


def test_xpoly_rejects_coefficients_of_another_order():
    with pytest.raises(ValueError):
        XPoly(3, [CycScalar.one(5)] * 3)
    with pytest.raises(ValueError):
        XPoly(3, [CycScalar.one(3), CycScalar.one(3), CycScalar.one(5)])


def test_represent_accepts_a_generic_extension_element():
    rng = random.Random(19)
    for order in (2, 3, 5):
        w = rand_plane(rng, order)
        ext = ExtElement(XPolyCarrier(order), w.components)
        assert represent(ext) == represent(w)


Q3 = CycScalar.q(3)
X3, Y3 = PlaneElement.x(3), PlaneElement.y(3)


# One printed form per branch of the term renderer.
@pytest.mark.parametrize(
    "value,text",
    [
        (CycScalar.zero(5), "0"),
        (-CycScalar.q(5), "-q"),
        (1 - CycScalar.q(5) + 2 * CycScalar.q(5) ** 2, "1 - q + 2*q^2"),
        (PlaneElement.from_scalar(3, 1 + Q3), "(1 + q)"),
        (XPoly(3, [1 + Q3, 0, -1]), "(1 + q) - x^2"),
        (-XPoly.x(3), "-x"),
        (-X3, "-x"),
        (X3.scale(Fraction(-1, 2)), "-1/2*x"),
        ((Y3 * X3).scale(1 - Q3), "(1 - q)*y*x"),
        (X3 - (Y3 ** 2).scale(2), "x - 2*y^2"),
        (represent(X3.scale(1 - Q3) + Y3), "[1 - q, 1, 0]\n[0, -2 - q, 1]\n[1, 0, 1 + 2*q]"),
    ],
    ids=[
        "zero",
        "negative-monomial",
        "scalar-sum",
        "multi-term-constant",
        "xpoly-multi-term-constant",
        "xpoly-minus-one",
        "plane-minus-one",
        "fraction-coefficient",
        "multi-term-coefficient",
        "negative-coefficient-joins",
        "matrix",
    ],
)
def test_term_renderer_branches(value, text):
    assert str(value) == text


# -- the signed carrier: x**N = tau**N = -1 --------------------------------------


def rand_signed_xpoly(rng, order, terms=2):
    acc = XPoly.zero(order, -1)
    for _ in range(terms):
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        acc = acc + XPoly.monomial(order, rng.randrange(order), coeff, -1)
    return acc


@pytest.mark.parametrize("order", range(3, 9))
def test_signed_carrier_identities(order):
    """The construction at sign -1 past N = 2, where the norm takes several conjugates."""
    c = XPolyCarrier(order, -1)
    rng = random.Random(300 + order)
    one, t, x = ExtElement.one(c), tau(c), ExtElement.embed(c, c.x())
    assert c.x() ** order == -c.one() and x ** order == -one and t ** order == -one
    assert x * t == (t * x).scale_by_q(1)
    rows = verify.galois_suite(c, 300 + order, 3)
    assert len(rows) == 10 and all(rows), [r.name for r in rows if not r]
    assert all(identity_check(build_families(c, c.x())))

    units = 0
    for _ in range(6):
        r = rand_signed_xpoly(rng, order, 3)
        try:
            inv = r.inverse()
        except NotInvertible:
            continue
        units += 1
        assert r * inv == c.one() and inv.sign == -1
    assert units
    if order % 2:
        with pytest.raises(NotInvertible):  # x = -1 is a root of x**N + 1
            (c.x() + 1).inverse()


def test_signed_carrier_boundaries():
    with pytest.raises(ValueError):
        represent(QUAT_I)  # its formula assumes tau**N = x**N = 1
    with pytest.raises(ValueError):
        XPolyCarrier(3, 2)
    assert XPolyCarrier(2, -1) != XPolyCarrier(2) and XPolyCarrier(2, -1) == XPolyCarrier(2, -1)
    signed, plain = XPoly(2, (1, 1), -1), XPoly(2, (1, 1))
    assert signed != plain and plain != signed
    assert "x^2 = -1" in repr(signed) and "-1" not in repr(plain)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        with pytest.raises(ValueError):
            op(signed, plain)
        with pytest.raises(ValueError):
            op(plain, signed)


def test_xpoly_refuses_a_sign_other_than_one_or_minus_one():
    for sign in (2, 0, -2):
        with pytest.raises(ValueError):
            XPoly(2, (0, 1), sign)


def test_a_sign_is_an_integer():
    """A sign goes through operator.index, as the order does: a float is refused
    and a bool reads as the int it stands for."""
    for inexact in (-1.0, 1.0, "1", Fraction(-1)):
        with pytest.raises(TypeError):
            XPolyCarrier(2, inexact)
        with pytest.raises(TypeError):
            XPoly(2, (1, 2), inexact)
    carrier = XPolyCarrier(2, True)
    assert repr(carrier) == "XPolyCarrier(order=2, tau_sign=1)" and carrier == XPolyCarrier(2)
    assert type(carrier.tau_sign) is int and type(XPoly(2, (1, 2), True).sign) is int
    assert XPoly(2, (1, 2), True) == XPoly(2, (1, 2))


def test_evaluation_at_q_powers_refuses_sign_minus_one():
    # q**j is no root of x**N + 1: x*x is -1, yet x at q squares to q**2 = 1
    x = XPoly.x(2, -1)
    for j in range(2):
        with pytest.raises(ValueError):
            x.evaluate_at_q_power(j)
        with pytest.raises(ValueError):
            (x * x).evaluate_at_q_power(j)


def test_carrier_order_is_an_integer_of_at_least_two():
    with pytest.raises(ValueError):
        XPolyCarrier(1)
    for inexact in (2.5, 3.0, "3", Fraction(3)):
        with pytest.raises(TypeError):
            XPolyCarrier(inexact)


def test_plane_element_refuses_a_row_of_another_sign():
    with pytest.raises(ValueError):
        PlaneElement(2, [XPoly.x(2, -1), XPoly.zero(2)])


def test_plane_element_refuses_a_row_of_another_order():
    with pytest.raises(ValueError):
        PlaneElement(2, [XPoly.x(3), XPoly.zero(2)])


def test_plane_element_takes_a_scalar_row_as_a_constant():
    assert PlaneElement(2, [3, 0]) == PlaneElement.from_scalar(2, 3)
    q = CycScalar.q(3)
    w = PlaneElement(3, [Fraction(1, 2), (0, 1, 0), q])
    expected = PlaneElement.from_scalar(3, Fraction(1, 2)) + PlaneElement.monomial(3, 1, 1)
    assert w == expected + PlaneElement.monomial(3, 2, 0, q)
    with pytest.raises(TypeError):
        PlaneElement(2, [1.5, 0])
    with pytest.raises(ValueError):
        PlaneElement(2, [CycScalar.q(3), 0])


@pytest.mark.parametrize("order", [2, 3, 5])
def test_rep_matrix_differences_and_truth_value(order):
    rng = random.Random(420 + order)
    zero = RepMatrix(order, [[CycScalar.zero(order)] * order] * order)
    samples = [represent(rand_plane(rng, order)) for _ in range(8)]
    for m in [zero, RepMatrix.identity(order)] + samples:
        assert m - m == zero and not m - m
        assert bool(m) == any(e for row in m.entries for e in row)
        assert -m + m == zero and m + zero == m
    assert not zero and RepMatrix.identity(order)


def test_rep_matrix_operands():
    """Another order compares unequal and is refused in arithmetic; a scalar is no operand."""
    m = RepMatrix.identity(2)
    assert m != RepMatrix.identity(3)
    assert RepMatrix(2, [[0, 0], [0, 0]]) != RepMatrix(3, [[0] * 3] * 3)
    with pytest.raises(ValueError):
        m + RepMatrix.identity(3)
    for op in (lambda: m + 1, lambda: 1 + m, lambda: m - 1, lambda: m * 2):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("order", range(2, 6))
def test_monomial_folds_x_to_the_n_at_sign_minus_one(order):
    """x**k folds x**N = -1 once per wrap, for k past N and below 0."""
    c = CycScalar.from_poly(order, (Fraction(1, 2), -3))
    x = XPoly.x(order, -1)
    for k in range(3 * order + 1):
        assert XPoly.monomial(order, k, c, -1) == c * x ** k, k
        expected = [0] * order
        expected[k % order] = -c if k // order % 2 else c
        assert XPoly.monomial(order, k, c, -1) == XPoly(order, expected, -1), k
    x_inv = x.inverse()
    for k in range(-order, 0):
        assert XPoly.monomial(order, k, c, -1) == c * x_inv ** -k, k


@pytest.mark.parametrize("order", [2, 3])
def test_represent_refuses_every_element_at_sign_minus_one(order):
    """The evaluation at q**j raises, also for zero components."""
    c = XPolyCarrier(order, -1)
    for w in (ExtElement.zero(c), ExtElement.one(c), tau(c)):
        with pytest.raises(ValueError):
            represent(w)


# -- the scalar rule: ints, Fractions and CycScalars; nothing inexact -------------------

ENTRY_POINTS = {
    "XPoly": lambda v: XPoly(3, (1, v, 0)),
    "XPoly.monomial": lambda v: XPoly.monomial(3, 4, v, -1),
    "XPoly.from_scalar": lambda v: XPoly.from_scalar(3, v),
    "XPoly.scale": lambda v: XPoly.x(3).scale(v),
    "PlaneElement": lambda v: PlaneElement(3, [(0, v, 0), (0, 0, 0), (1, 0, 0)]),
    "PlaneElement.monomial": lambda v: PlaneElement.monomial(3, 1, 2, v),
    "PlaneElement.from_scalar": lambda v: PlaneElement.from_scalar(3, v),
    "RepMatrix.scale": lambda v: RepMatrix.identity(3).scale(v),
    "RepMatrix": lambda v: RepMatrix(3, [(1, 0, 0), (0, v, 0), (0, 0, 1)]),
    "ExtElement": lambda v: ExtElement(XPolyCarrier(3, -1), [0, v, 1]),
    "KForm": lambda v: KForm(XPolyCarrier(3), 2, v),
}


@pytest.mark.parametrize("value", [0.1, "1/10", Decimal("0.1")], ids=["float", "str", "Decimal"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_refuse_inexact_scalars(entry, value):
    with pytest.raises(TypeError):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_take_ints_fractions_and_scalars(entry):
    build = ENTRY_POINTS[entry]
    for value in (-2, Fraction(3, 4)):
        assert build(value) == build(CycScalar.from_rational(3, value))
    assert build(CycScalar.q(3)) != build(1)


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_elements_copy_and_pickle(copier):
    rng = random.Random(17)
    q = CycScalar.q(5)
    u = rand_xpoly(rng, 5) * (1 + q)
    w = rand_plane(rng, 5) * (q - 2) + PlaneElement.x(5)
    quaternion = ExtElement(XPolyCarrier(2, -1), [XPoly.x(2, -1), 3])
    for value in (u, w, represent(w), quaternion):
        twin = copier(value)
        assert twin == value and type(twin) is type(value)
