"""Cyclotomic scalars: canonical reduction, field structure, q-combinatorics."""

import copy
import cProfile
import math
import pickle
import pstats
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgalois import CycScalar, cyclotomic_polynomial, q_factorial, q_integer, verify
from qgalois.cyclotomic import _reduce, dot

# Ascending coefficients, from the classical table of cyclotomic polynomials.
KNOWN_CYCLOTOMIC = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomial_known_table():
    for order, coeffs in KNOWN_CYCLOTOMIC.items():
        assert cyclotomic_polynomial(order) == coeffs


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for order in range(1, 25):
        ours = list(cyclotomic_polynomial(order))
        theirs = [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(order, t), t).all_coeffs())]
        assert ours == theirs, f"order {order}"


def test_cyclotomic_divisor_product_recovers_t_n_minus_1():
    # prod over d | n of Phi_d must equal t^n - 1; multiply back out by hand.
    for order in (2, 3, 4, 6, 10, 12):
        acc = [1]
        for d in range(1, order + 1):
            if order % d:
                continue
            phi = cyclotomic_polynomial(d)
            out = [0] * (len(acc) + len(phi) - 1)
            for i, a in enumerate(acc):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            acc = out
        assert acc == [-1] + [0] * (order - 1) + [1]


def test_cyclotomic_polynomial_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


@pytest.mark.parametrize("order", range(2, 13))
def test_q_is_a_primitive_root(order):
    q = CycScalar.q(order)
    assert q ** order == 1
    power_sum = sum((q ** j for j in range(order)), CycScalar.zero(order))
    assert power_sum == 0
    for k in range(1, order):
        assert q ** k != 1, f"q^{k} collapsed at order {order}"


def test_reduction_examples_order_3():
    q = CycScalar.q(3)
    assert q * q ** 2 == 1
    assert (1 + q) + (1 + q ** 2) == 1


def test_from_poly_folds_high_powers():
    # exponents at or above the order wrap around because q^order = 1
    assert CycScalar.from_poly(3, [0, 0, 0, 1]) == 1
    assert CycScalar.from_poly(3, [0, 0, 0, 0, 1]) == CycScalar.q(3)
    assert CycScalar.from_poly(4, [0, 0, 0, 0, 0, 0, 1]) == CycScalar.q_power(4, 2)


def test_inverse_of_one_and_q():
    assert CycScalar.one(3).inverse() == 1
    assert CycScalar.q(3).inverse() == CycScalar.q_power(3, 2)


def test_inverse_of_one_minus_q_order_3():
    # (1 - q)(2 + q) = 2 - q - q^2 = 3, so the inverse is (2 + q)/3
    q = CycScalar.q(3)
    inv = (1 - q).inverse()
    assert inv == CycScalar.from_poly(3, [Fraction(2, 3), Fraction(1, 3)])
    assert (1 - q) * inv == 1


def test_inverse_round_trip_randomized():
    rng = random.Random(7)
    for order in (2, 3, 4, 5, 6, 8, 12):
        deg = len(cyclotomic_polynomial(order)) - 1
        for _ in range(25):
            a = CycScalar.from_poly(
                order, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)]
            )
            if not a:
                continue
            assert a * a.inverse() == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero(5).inverse()


def test_division_and_negative_powers():
    q = CycScalar.q(5)
    assert (1 / q) == q ** 4
    assert q ** -2 == q ** 3
    assert (q ** 2 / q ** 2) == 1


def test_a_non_int_exponent_is_a_type_error():
    q = CycScalar.q(5)
    for k in (0.5, 2.0, Fraction(1, 2), "2"):
        with pytest.raises(TypeError):
            q ** k


INEXACT = [0.5, "1/2", Decimal("0.5")]


@pytest.mark.parametrize("value", INEXACT, ids=["float", "str", "Decimal"])
def test_scalar_constructors_refuse_inexact_coefficients(value):
    with pytest.raises(TypeError):
        CycScalar.from_rational(3, value)
    with pytest.raises(TypeError):
        CycScalar.from_poly(3, [1, value])
    with pytest.raises(TypeError):
        CycScalar.from_poly(3, [0, 0, 0, value])  # a coefficient that folds is checked too


@pytest.mark.parametrize("value", INEXACT, ids=["float", "str", "Decimal"])
def test_the_canonical_form_constructor_refuses_inexact_coefficients(value):
    with pytest.raises(TypeError):
        CycScalar(3, (value, 0))
    with pytest.raises(TypeError):
        CycScalar(3, (1, value))


def test_the_canonical_form_constructor_takes_ints_and_fractions():
    half = Fraction(1, 2)
    a = CycScalar(3, (half, 2))
    assert a == CycScalar.from_poly(3, [half, 2]) and a.coeffs == (half, 2)
    assert CycScalar(3, (0, Fraction(0, 5))) == 0


def test_scalar_constructors_take_ints_and_fractions():
    half = Fraction(1, 2)
    assert CycScalar.from_rational(3, half).coeffs == (half, 0)
    assert CycScalar.from_rational(3, True) == CycScalar.one(3)
    assert CycScalar.from_poly(3, [2, half]) == 2 + half * CycScalar.q(3)


def test_order_mismatch_is_an_error():
    a = CycScalar.q(3)
    b = CycScalar.q(4)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    assert (a == b) is False


def test_scalar_is_immutable():
    a = CycScalar.q(3)
    with pytest.raises(AttributeError):
        a.order = 4


def test_rational_views():
    one = CycScalar.one(6)
    assert one.is_rational()
    assert one.as_rational() == 1
    q = CycScalar.q(6)
    assert not q.is_rational()
    with pytest.raises(ValueError):
        q.as_rational()
    assert hash(CycScalar.from_rational(6, Fraction(3, 2))) == hash(Fraction(3, 2))
    assert not CycScalar.zero(6)
    assert q


def test_str_forms():
    q = CycScalar.q(5)
    assert str(CycScalar.zero(5)) == "0"
    assert str(1 - q + 2 * q ** 2) == "1 - q + 2*q^2"
    assert str(-q) == "-q"


def rand_scalar(rng, order):
    deg = len(cyclotomic_polynomial(order)) - 1
    return CycScalar.from_poly(
        order, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg)]
    )


@pytest.mark.parametrize("order", range(2, 13))
def test_q_integer_vanishes_at_order(order):
    assert q_integer(order, order) == 0


def test_q_integer_small_values():
    assert q_integer(0, 3) == 0
    assert q_integer(1, 3) == 1
    assert q_integer(2, 3) == 1 + CycScalar.q(3)
    with pytest.raises(ValueError):
        q_integer(-1, 3)


def test_q_factorial_values():
    assert q_factorial(0, 4) == 1
    # [3]_q! = (1 + q)(1 + q + q^2); at order 4 this is (1 + q) q = -1 + q
    assert q_factorial(3, 4) == CycScalar.from_poly(4, [-1, 1])


def test_q_factorial_rejects_a_negative_k():
    with pytest.raises(ValueError, match="k must be nonnegative"):
        q_factorial(-3, 5)


@pytest.mark.parametrize("order", range(2, 9))
def test_q_factorial_times_power_of_one_minus_q(order):
    """[N-1]_q! (1-q)^(N-1) = prod(1 - q^j) = N, the value of 1+t+...+t^(N-1) at t=1."""
    q = CycScalar.q(order)
    assert q_factorial(order - 1, order) * (1 - q) ** (order - 1) == order


def test_embedding_reference_points():
    assert abs(CycScalar.q(4).embed() - 1j) < 1e-12
    q = CycScalar.q(3)
    assert abs((1 + q + q ** 2).embed()) < 1e-12
    assert abs(CycScalar.one(7).embed() - 1.0) < 1e-12


def test_embedding_is_multiplicative():
    rng = random.Random(11)
    for order in (3, 5, 8):
        deg = len(cyclotomic_polynomial(order)) - 1
        for _ in range(20):
            a = CycScalar.from_poly(order, [Fraction(rng.randint(-5, 5)) for _ in range(deg)])
            b = CycScalar.from_poly(order, [Fraction(rng.randint(-5, 5)) for _ in range(deg)])
            assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-10
            assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-10


# Hypothesis drives the field axioms at a fixed order; coefficients are exact
# rationals so every law is checked with structural equality.

coeff = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalar5 = st.builds(lambda cs: CycScalar.from_poly(5, cs), st.lists(coeff, min_size=4, max_size=4))


@given(scalar5, scalar5, scalar5)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == 0


@given(scalar5)
def test_nonzero_scalars_invert(a):
    if a:
        assert a * a.inverse() == 1


def sympy_poly(sympy, t, coeffs):
    return sum(sympy.Rational(c.numerator, c.denominator) * t**m for m, c in enumerate(coeffs))


def sympy_reduced(sympy, t, order, expr):
    """expr reduced mod Phi_N by sympy's rem, as a scalar."""
    rem = sympy.rem(sympy.expand(expr), sympy.cyclotomic_poly(order, t), t)
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(rem, t).all_coeffs())]
    deg = len(cyclotomic_polynomial(order)) - 1
    return CycScalar(order, tuple(out + [Fraction(0)] * (deg - len(out))))


@pytest.mark.parametrize("order", range(2, 13))
def test_products_match_sympy_reduction(order):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(1000 + order)
    for _ in range(4):
        a, b = rand_scalar(rng, order), rand_scalar(rng, order)
        expected = sympy_reduced(
            sympy, t, order, sympy_poly(sympy, t, a.coeffs) * sympy_poly(sympy, t, b.coeffs)
        )
        assert a * b == expected, order


@pytest.mark.parametrize("order", range(2, 13))
def test_from_poly_matches_sympy_reduction(order):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(2000 + order)
    for length in range(1, 3 * order + 1):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(length)]
        expected = sympy_reduced(sympy, t, order, sympy_poly(sympy, t, coeffs))
        assert CycScalar.from_poly(order, coeffs) == expected, (order, length)


@pytest.mark.parametrize("order", range(2, 13))
def test_q_powers_match_sympy_reduction(order):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for k in range(order):
        assert CycScalar.q_power(order, k) == sympy_reduced(sympy, t, order, t**k), (order, k)


@pytest.mark.parametrize("order", range(2, 13))
def test_inverses_match_sympy(order):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(3000 + order)
    for _ in range(4):
        a = rand_scalar(rng, order)
        if not a:
            continue
        inv = sympy.invert(sympy_poly(sympy, t, a.coeffs), sympy.cyclotomic_poly(order, t), t)
        assert a.inverse() == sympy_reduced(sympy, t, order, inv), order


@pytest.mark.parametrize("order", range(2, 13))
def test_sums_and_differences_over_unlike_denominators_match_sympy(order):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(4000 + order)
    unlike = 0
    for _ in range(4):
        a = rand_scalar(rng, order) * Fraction(1, 7)
        b = rand_scalar(rng, order) * Fraction(1, 3)
        unlike += a.den != b.den
        pa, pb = sympy_poly(sympy, t, a.coeffs), sympy_poly(sympy, t, b.coeffs)
        assert a + b == sympy_reduced(sympy, t, order, pa + pb), order
        assert a - b == sympy_reduced(sympy, t, order, pa - pb), order
    assert unlike >= 3


def assert_same_form(a, b):
    assert a == b and hash(a) == hash(b) and a.coeffs == b.coeffs
    assert (a.num, a.den) == (b.num, b.den)


def dot_operand(rng, order, den, big=False):
    """A full-degree scalar over exactly den, with 60-digit numerators if big."""
    span = 10**60 if big else 9
    nums = [rng.randint(-span, span) for _ in range(len(cyclotomic_polynomial(order)) - 1)]
    nums[0] = nums[0] // den * den + 1  # prime to den, so nothing cancels
    return CycScalar(order, [Fraction(c, den) for c in nums])


def dot_pairs(rng, order, length):
    """Pair i: a over 1, 1, 3 or 35 as i mod 4 is 0..3, b zero at i = 2 mod 4 and else integral,
    60-digit numerators in a at i = 0 mod 3 and in b at i = 1 mod 3.  From four pairs on, the
    nonzero products run over the denominators 1, 1, 35, 1, 1, 35, ...: equal and unlike."""
    return [
        (
            dot_operand(rng, order, (1, 1, 3, 35)[i % 4], i % 3 == 0),
            CycScalar.zero(order) if i % 4 == 2 else dot_operand(rng, order, 1, i % 3 == 1),
        )
        for i in range(length)
    ]


@pytest.mark.parametrize("order", range(2, 13))
def test_dot_matches_sympy_reduction_of_the_expanded_sum(order):
    """The kernel against an independent reference: the sum of products expanded
    in Q[t] and reduced by sympy's rem, as a scalar built fresh, for 0, 1, N and 2N pairs."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(6000 + order)
    for length in (0, 1, order, 2 * order):
        pairs = dot_pairs(rng, order, length)
        expanded = sum(sympy_poly(sympy, t, a.coeffs) * sympy_poly(sympy, t, b.coeffs) for a, b in pairs)
        assert_same_form(dot(order, pairs), sympy_reduced(sympy, t, order, expanded))


@pytest.mark.parametrize("order", [2, 5, 7, 8, 12])
def test_dot_of_no_pairs_is_the_shared_zero(order):
    """An empty sum allocates nothing; a sum that cancels is zero in its one form."""
    assert dot(order, []) is CycScalar.zero(order)
    assert dot(order, iter(())) is CycScalar.zero(order)
    pairs = dot_pairs(random.Random(order), order, 4)
    assert_same_form(dot(order, pairs + [(a, -b) for a, b in pairs]), CycScalar.zero(order))


@pytest.mark.parametrize("order", range(2, 13))
def test_every_route_to_a_value_gives_one_form(order):
    rng = random.Random(5000 + order)
    for k in (2, 6, 35):
        a, b = rand_scalar(rng, order), rand_scalar(rng, order)
        assert_same_form(CycScalar.from_poly(order, [c * Fraction(k, k) for c in a.coeffs]), a)
        assert_same_form(_reduce(order, [k * c for c in a.num], k * a.den), a)
        assert_same_form(CycScalar.from_poly(order, [k * c for c in a.coeffs]) / k, a)
        if b:
            assert_same_form(a * b * b.inverse(), a)
        assert_same_form((a + b) - b, a)
        assert a.den > 0


@pytest.mark.parametrize("order", [2, 5, 7, 8, 12])
def test_a_zero_operand_and_negation_fold_nothing(order):
    """A sum or difference with a zero operand is the other operand (negated
    for 0 - b), and -b keeps b's denominator: each is already canonical."""
    rng = random.Random(7000 + order)
    zero = CycScalar.zero(order)
    for b in [rand_scalar(rng, order) for _ in range(4)] + [zero]:
        folded = _reduce(order, [-c for c in b.num], b.den)
        profile = cProfile.Profile()
        profile.enable()
        sums = [b + zero, zero + b, b - zero, zero - b, -b, -(-b)]
        profile.disable()
        assert sums[0] is sums[1] is sums[2] is b
        for negated in (sums[3], sums[4]):
            assert_same_form(negated, folded)
        assert_same_form(sums[5], b)
        code = _reduce.__code__
        assert (code.co_filename, code.co_firstlineno, "_reduce") not in pstats.Stats(profile).stats


@pytest.mark.parametrize("order", [2, 5, 7, 8, 12])
def test_a_rational_is_built_canonical_without_a_fold(order):
    """An int, or a Fraction p/q in lowest terms, is (p, 0, ..., 0)/q already;
    ``a + 0`` coerces its 0 through ``from_rational`` without a fold too."""
    values = [0, 1, -4, 2**70, Fraction(3, 2), Fraction(-5, 12), True]
    a = CycScalar.q(order)
    profile = cProfile.Profile()
    profile.enable()
    built = [CycScalar.from_rational(order, v) for v in values] + [a + 0, 0 - a]
    profile.disable()
    for v, b in zip(values, built):
        assert_same_form(b, _reduce(order, [Fraction(v).numerator], Fraction(v).denominator))
    assert built[-2] is a and built[-1] == -a
    code = _reduce.__code__
    assert (code.co_filename, code.co_firstlineno, "_reduce") not in pstats.Stats(profile).stats


def test_a_warm_verify_run_at_order_8_reduces_at_most_6000_times():
    """Most of verify's scalar sums have a zero operand: 15,399 folds when each
    ran ``_reduce``, 5,520 when they do not, and 5,070 with the extension's
    product in one packed pass.  cProfile counts alike on any machine."""
    verify.run_all(8, 0, 3)  # warm: the per-order caches are filled
    profile = cProfile.Profile()
    profile.runcall(verify.run_all, 8, 0, 3)
    code = _reduce.__code__
    assert pstats.Stats(profile).stats[code.co_filename, code.co_firstlineno, "_reduce"][1] <= 6000


@pytest.mark.parametrize("value", [0, 1, -4, 2**70, Fraction(3, 2), Fraction(-5, 12)])
def test_a_rational_scalar_hashes_like_its_value(value):
    for order in (2, 3, 7, 12):
        a = CycScalar.from_rational(order, value)
        assert a == value and hash(a) == hash(value)


def test_scalar_arithmetic_makes_no_fraction():
    """Products, sums, differences, negation, ==, the zero test, inverses and quotients use ints alone."""
    rng = random.Random(7)
    pairs = [(rand_scalar(rng, 7), rand_scalar(rng, 7)) for _ in range(6)]
    profile = cProfile.Profile()
    profile.enable()
    for a, b in pairs:
        a * b, a + b, a - b, -a, a == b, bool(a), a.inverse(), a / b
    profile.disable()
    files = {path for path, _, _ in pstats.Stats(profile).stats}
    assert any(path.endswith("cyclotomic.py") for path in files)
    assert not [path for path in files if path.endswith("fractions.py")]


def test_cyclotomic_module_doctests_pass():
    import doctest

    import qgalois.cyclotomic

    result = doctest.testmod(qgalois.cyclotomic)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize("order", range(2, 13))
def test_q_integer_is_the_sum_of_q_powers(order):
    for k in range(2 * order + 1):
        expected = sum((CycScalar.q_power(order, j) for j in range(k)), CycScalar.zero(order))
        assert q_integer(k, order).coeffs == expected.coeffs


def units(order):
    return [k for k in range(1, order) if math.gcd(k, order) == 1]


@pytest.mark.parametrize("order", range(2, 13))
def test_galois_is_a_field_automorphism(order):
    rng = random.Random(6000 + order)
    for _ in range(3):
        a, b = rand_scalar(rng, order), rand_scalar(rng, order)
        assert_same_form(a.galois(1), a)
        for k in units(order):
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)
            assert a.galois(k + order) == a.galois(k - order) == a.galois(k)
            for j in units(order):
                assert a.galois(j).galois(k) == a.galois(j * k % order)


@pytest.mark.parametrize("order", range(2, 13))
def test_galois_fixes_rationals_and_sends_q_to_its_power(order):
    for k in units(order):
        assert CycScalar.q(order).galois(k) == CycScalar.q_power(order, k)
        for value in (0, 1, -4, Fraction(-7, 3)):
            r = CycScalar.from_rational(order, value)
            assert_same_form(r.galois(k), r)


@pytest.mark.parametrize("order", range(2, 13))
def test_the_product_of_all_conjugates_is_rational(order):
    rng = random.Random(6500 + order)
    for _ in range(3):
        a = rand_scalar(rng, order)
        norm = CycScalar.one(order)
        for k in units(order):
            norm = norm * a.galois(k)
        assert norm.is_rational()
        assert bool(norm) == bool(a)


@pytest.mark.parametrize("order", range(2, 13))
def test_galois_matches_sympy_substitution(order):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(7000 + order)
    for _ in range(3):
        a = rand_scalar(rng, order)
        for k in units(order):
            expected = sympy_reduced(sympy, t, order, sympy_poly(sympy, t, a.coeffs).subs(t, t**k))
            assert a.galois(k) == expected, (order, k)


@pytest.mark.parametrize("order", range(2, 13))
def test_galois_refuses_a_k_not_prime_to_the_order(order):
    a = rand_scalar(random.Random(7500 + order), order)
    for k in range(-order, 2 * order):
        if math.gcd(k, order) != 1:
            with pytest.raises(ValueError, match="not prime to the order"):
                a.galois(k)


@pytest.mark.parametrize("order", [7, 11, 12])
def test_inverse_round_trip_with_60_digit_coefficients(order):
    rng = random.Random(8000 + order)
    deg = len(cyclotomic_polynomial(order)) - 1
    for _ in range(3):
        den = rng.randrange(10**59, 10**60)
        a = CycScalar.from_poly(
            order, [Fraction(rng.randrange(-(10**60), 10**60), den) for _ in range(deg)]
        )
        assert a * a.inverse() == 1
        assert a.inverse().inverse() == a


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_scalars_copy_and_pickle(copier):
    rng = random.Random(9)
    for order in (2, 7, 12):
        rational = CycScalar.from_rational(order, Fraction(-3, 4))
        for a in (CycScalar.q(order), rand_scalar(rng, order), rational):
            assert_same_form(copier(a), a)
