"""Randomized exact identity suites behind the ``verify`` subcommand.

Every check is exact (zero residual required); randomness only chooses the
sample points, never the tolerance.  Each suite returns CheckResult rows with
stable dotted names so that report output is deterministic for a given order.
Each sampled row draws from its own generator, seeded by (seed, row name), so
what one row samples depends on no other row.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from .calculus import (
    CheckResult,
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
from .cyclotomic import CycScalar, q_factorial, q_integer
from .galois import (
    Coordinate,
    ExtElement,
    KForm,
    NotInvertible,
    change_of_variable,
    conjugation_dx,
    delta,
    differential,
    q_commutator,
    right_derivative,
    tau,
)
from .qplane import (
    PlaneElement,
    RepMatrix,
    XPoly,
    XPolyCarrier,
    basis_matrices,
    generator_matrices,
    represent,
    scalar_rank,
)
from . import quaternion as quat


# -- seeded sample generators ---------------------------------------------------


def _rand_scalar(rng: random.Random, order: int) -> CycScalar:
    deg = len(CycScalar.zero(order).coeffs)
    return CycScalar.from_poly(
        order,
        [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.8 else 0
            for _ in range(deg)
        ],
    )


def _rand_xpoly(rng: random.Random, carrier: XPolyCarrier) -> XPoly:
    """The sum of two random basis elements of the carrier, each times a random scalar."""
    b = carrier.basis()
    u, v = (b[rng.randrange(len(b))] * _rand_scalar(rng, carrier.order) for _ in range(2))
    return u + v


def _rand_invertible(rng: random.Random, carrier: XPolyCarrier, invert):
    """A random element r for which invert(r) does not raise NotInvertible,
    returned with what invert made of it: the pair (r, invert(r))."""
    while True:
        r = _rand_xpoly(rng, carrier)
        try:
            return r, invert(r)
        except NotInvertible:
            continue


def _rand_ext(rng: random.Random, carrier: XPolyCarrier) -> ExtElement:
    n = carrier.order
    comps = [carrier.zero()] * n
    for _ in range(2):
        comps[rng.randrange(n)] = _rand_xpoly(rng, carrier)
    return carrier.element(comps)


def _rand_form(rng: random.Random, carrier: XPolyCarrier) -> KForm:
    """A random homogeneous element tau**k u."""
    return KForm(carrier, rng.randrange(carrier.order), _rand_xpoly(rng, carrier))


# -- the case loop and the laws several rows share --------------------------------


def _draws(seed: int, cases: int, name: str, case):
    """Everything case(rng) returns in ``cases`` calls on the row's own generator.

    Seeded by (seed, name), it draws the same whatever the other rows draw.
    """
    rng = random.Random(f"{seed}:{name}")
    for _ in range(cases):
        yield from case(rng)


def _all_zero(name: str, residuals) -> CheckResult:
    for r in residuals:
        if not r.is_zero():
            return CheckResult(name, False, r)
    return CheckResult(name, True)


def _sampled(seed: int, cases: int, name: str, case) -> CheckResult:
    """The row ``name``: every residual case(rng) returns in ``cases`` draws is zero."""
    return _all_zero(name, _draws(seed, cases, name, case))


def _prefixed(prefix: str, rows) -> list[CheckResult]:
    """The rows renamed into a suite's namespace, prefix.name."""
    return [CheckResult(f"{prefix}.{r.name}", r.passed, r.residual) for r in rows]


def _twisted_derivation(d, sigma, u, v):
    """d(uv) - (d(u) v + sigma(u) d(v)); zero when d is a sigma-twisted derivation."""
    return d(u * v) - (d(u) * v + sigma(u) * d(v))


def _derivation_case(carrier: XPolyCarrier, d, sigma):
    """The case that checks the law for d and sigma on two random carrier elements."""

    def case(rng):
        u, v = _rand_xpoly(rng, carrier), _rand_xpoly(rng, carrier)
        return [_twisted_derivation(d, sigma, u, v)]

    return case


def _nilpotent(d, xi):
    """d applied N times to xi, N the grading order; zero since d**N = 0."""
    for _ in range(xi.carrier.order):
        xi = d(xi)
    return xi


def _nilpotent_case(carrier: XPolyCarrier, rng: random.Random) -> list[ExtElement]:
    """d**N of a random extension element."""
    return [_nilpotent(differential, _rand_ext(rng, carrier))]


def _grading_case(carrier: XPolyCarrier, rng: random.Random) -> list[ExtElement]:
    """The part of ab outside degree |a| + |b|, for random homogeneous a and b."""
    a, b = _rand_form(rng, carrier), _rand_form(rng, carrier)
    prod = ExtElement.from_forms(carrier, [a]) * ExtElement.from_forms(carrier, [b])
    k = (a.degree + b.degree) % carrier.order
    return [ExtElement.from_forms(carrier, [f for f in prod.forms() if f.degree != k])]


def _form_residual(lhs: KForm, rhs: KForm) -> ExtElement:
    """lhs - rhs as an extension element; zero only when the forms agree."""
    c = lhs.carrier
    return ExtElement.from_forms(c, [lhs, KForm(c, rhs.degree, -rhs.coeff)])


# -- the suites ------------------------------------------------------------------


def scalar_suite(order: int, seed: int, cases: int) -> list[CheckResult]:
    out = []
    one = CycScalar.one(order)
    q = CycScalar.q(order)

    ok = q ** order == one and all(q ** k != one for k in range(1, order))
    out.append(CheckResult("scalar.q_has_order_n", ok, None if ok else q))

    total = sum((CycScalar.q_power(order, j) for j in range(order)), CycScalar.zero(order))
    out.append(CheckResult("scalar.root_powers_sum_to_zero", not total, total or None))

    ok = q_integer(order, order) == CycScalar.zero(order)
    out.append(CheckResult("scalar.q_integer_n_vanishes", ok))

    def field_axioms(rng):
        a, b, c = (_rand_scalar(rng, order) for _ in range(3))
        yield (a + b) + c - (a + (b + c))
        yield (a * b) * c - (a * (b * c))
        yield a * (b + c) - (a * b + a * c)
        yield a * b - b * a
        if a:
            yield a * a.inverse() - one

    out.append(_sampled(seed, cases, "scalar.field_axioms", field_axioms))

    def embedding_errors(rng):
        a, b = _rand_scalar(rng, order), _rand_scalar(rng, order)
        yield abs((a * b).embed() - a.embed() * b.embed())
        yield abs((a + b).embed() - (a.embed() + b.embed()))

    worst = max(_draws(seed, cases, "scalar.complex_embedding", embedding_errors), default=0.0)
    ok = worst <= 1e-10 and abs(q.embed() ** order - 1) <= 1e-12
    out.append(CheckResult("scalar.complex_embedding", ok, None if ok else worst))
    return out


def galois_suite(carrier: XPolyCarrier, seed: int, cases: int) -> list[CheckResult]:
    n = carrier.order
    t = tau(carrier)
    x = Coordinate(carrier, carrier.basis()[1])
    d_dx, conj = functools.partial(right_derivative, x=x), functools.partial(conjugation_dx, x=x)
    delta_c = functools.partial(delta, carrier)

    def phi_order(rng):
        u = _rand_xpoly(rng, carrier)
        return [carrier.phi(carrier.phi(u), n - 1) - u]

    def associative(rng):
        a, b, c = (_rand_ext(rng, carrier) for _ in range(3))
        return [(a * b) * c - a * (b * c)]

    def commutator(rng):
        xi = _rand_ext(rng, carrier)
        return [differential(xi) - q_commutator(t, xi)]

    def q_leibniz(rng):
        f = _rand_form(rng, carrier)
        u, v = ExtElement.from_forms(carrier, [f]), _rand_ext(rng, carrier)
        return [_twisted_derivation(differential, lambda w: w.scale_by_q(f.degree), u, v)]

    def conj_hom(rng):
        u, v = _rand_xpoly(rng, carrier), _rand_xpoly(rng, carrier)
        return [conj(u * v) - conj(u) * conj(v)]

    def chain(rng):
        _, z = _rand_invertible(rng, carrier, functools.partial(Coordinate, carrier))
        u = _rand_xpoly(rng, carrier)
        dz_dx, dx_dz = change_of_variable(z, x)
        return [d_dx(u) - dz_dx * right_derivative(u, z), dz_dx * dx_dz - carrier.one()]

    rows = [
        ("galois.phi_has_order_n", phi_order),
        ("galois.extension_associative", associative),
        ("galois.grading_additive", functools.partial(_grading_case, carrier)),
        ("galois.differential_is_commutator", commutator),
        ("galois.differential_nilpotent", functools.partial(_nilpotent_case, carrier)),
        ("galois.q_leibniz", q_leibniz),
        ("galois.delta_product_rule", _derivation_case(carrier, delta_c, carrier.phi)),
        ("galois.twisted_leibniz", _derivation_case(carrier, d_dx, conj)),
        ("galois.conjugation_multiplicative", conj_hom),
        ("galois.change_of_variable_chain", chain),
    ]
    return [_sampled(seed, cases, name, case) for name, case in rows]


def qplane_suite(order: int, seed: int, cases: int) -> list[CheckResult]:
    out = []
    n = order
    carrier = XPolyCarrier(n)
    x, y, one = PlaneElement.x(n), PlaneElement.y(n), PlaneElement.one(n)
    q = CycScalar.q(n)

    ok = (x * y == (y * x).scale(q)) and (x ** n == one) and (y ** n == one)
    out.append(CheckResult("qplane.generator_relations", ok))

    def assoc_unital(rng):
        a, b, c = (_rand_ext(rng, carrier) for _ in range(3))
        return [(a * b) * c - a * (b * c), a * one - a, one * a - a]

    out.append(_sampled(seed, cases, "qplane.mul_associative_unital", assoc_unital))
    grading = functools.partial(_grading_case, carrier)
    out.append(_sampled(seed, cases, "qplane.grading_additive", grading))

    def twist_law(rng):
        r = _rand_xpoly(rng, carrier)
        k = rng.randrange(n)
        return [r * y ** k - ExtElement.from_component(carrier, k, r.twist(k))]

    out.append(_sampled(seed, cases, "qplane.twist_transport", twist_law))

    def inv_round(rng):
        r, r_inv = _rand_invertible(rng, carrier, XPoly.inverse)
        return [r * r_inv - XPoly.one(n)]

    out.append(_sampled(seed, cases, "qplane.x_inverse_round_trip", inv_round))

    xm, ym = generator_matrices(n)
    ok = (
        xm * ym == (ym * xm).scale(q)
        and xm ** n == RepMatrix.identity(n)
        and ym ** n == RepMatrix.identity(n)
    )
    out.append(CheckResult("qplane.representation_relations", ok))

    def rep_hom(rng):
        a, b = _rand_ext(rng, carrier), _rand_ext(rng, carrier)
        return [
            represent(a * b) - represent(a) * represent(b),
            represent(a + b) - (represent(a) + represent(b)),
        ]

    out.append(_sampled(seed, cases, "qplane.representation_multiplicative", rep_hom))

    ok = scalar_rank([m._parts for _, m in sorted(basis_matrices(n).items())]) == n * n
    out.append(CheckResult("qplane.representation_faithful", ok))

    delta_c = functools.partial(delta, carrier)

    def delta_monomials():
        for k in range(n):
            mono = XPoly.monomial(n, k)
            yield delta_c(mono) - mono.scale((CycScalar.one(n) - q) * q_integer(k, n))

    name = "qplane.delta_q_rules"
    sampled = _draws(seed, cases, name, _derivation_case(carrier, delta_c, carrier.phi))
    out.append(_all_zero(name, itertools.chain(sampled, delta_monomials())))

    def carrier_diff(rng):
        w = _rand_xpoly(rng, carrier)
        lhs = differential(ExtElement.embed(carrier, w))
        return [lhs - ExtElement.from_component(carrier, 1, delta_c(w))]

    out.append(_sampled(seed, cases, "qplane.differential_of_function", carrier_diff))
    return out


def calculus_suite(order: int, seed: int, cases: int) -> list[CheckResult]:
    out = []
    n = order
    fam = q_plane_families(n)
    carrier = fam.carrier
    x = fam.coordinate

    out.extend(_prefixed("calculus", identity_check(fam)))

    def phi_closed():
        for k in range(1, n):
            yield fam.connection[k - 1] - XPoly.monomial(n, n - 1, delta_coefficient(n, k))

    out.append(_all_zero("calculus.connection_closed_form", phi_closed()))

    def phi_diff():
        for k in range(1, n):
            lhs = KForm(carrier, k, fam.dx_pow[k - 1]).differential()
            rhs = from_dx_basis(fam, k + 1, fam.connection[k - 1])
            yield _form_residual(lhs, rhs)

    out.append(_all_zero("calculus.dx_power_differential", phi_diff()))

    def round_trip(rng):
        form = _rand_form(rng, carrier)
        return [_form_residual(form, from_dx_basis(fam, form.degree, to_dx_basis(form, fam)))]

    out.append(_sampled(seed, cases, "calculus.dx_basis_round_trip", round_trip))

    def covariant(rng):
        k = rng.randrange(1, n)
        r = _rand_xpoly(rng, carrier)
        lhs = from_dx_basis(fam, k, r).differential()
        return [_form_residual(lhs, from_dx_basis(fam, k + 1, covariant_operator(fam, k)(r)))]

    out.append(_sampled(seed, cases, "calculus.covariant_matches_graded", covariant))

    def power_rule():
        for k in range(n):
            expected = XPoly.monomial(n, k - 1, q_integer(k, n)) if k else XPoly.zero(n)
            yield partial_derivative(XPoly.monomial(n, k)) - expected

    out.append(_all_zero("calculus.partial_power_rule", power_rule()))

    def partial_vs_rd(rng):
        r = _rand_xpoly(rng, carrier)
        return [partial_derivative(r) - right_derivative(r, x)]

    out.append(_sampled(seed, cases, "calculus.partial_matches_right_derivative", partial_vs_rd))

    leibniz = _derivation_case(carrier, partial_derivative, carrier.phi)
    out.append(_sampled(seed, cases, "calculus.partial_twisted_leibniz", leibniz))

    # The two rows over every k draw max(1, cases // N) operands per k.
    per_k = max(1, cases // n)

    def hd_two_routes(rng):
        for k in range(n):
            r = _rand_xpoly(rng, carrier)
            yield higher_delta(k, r) - higher_delta_closed(k, r)

    out.append(_sampled(seed, per_k, "calculus.higher_delta_two_routes", hd_two_routes))

    def hd_derivation(rng):
        k = rng.randrange(n)
        r, s = _rand_xpoly(rng, carrier), _rand_xpoly(rng, carrier)
        qk = CycScalar.q_power(n, k)
        rhs = higher_delta(k, r) * s + (r.twist(1) * higher_delta(0, s)).scale(qk)
        return [higher_delta(k, r * s) - rhs]

    out.append(_sampled(seed, cases, "calculus.higher_delta_derivation", hd_derivation))

    def hd_covariant(rng):
        for k in range(1, n):
            r = _rand_xpoly(rng, carrier)
            yield higher_delta(k, r) - covariant_operator(fam, k)(r)

    out.append(_sampled(seed, per_k, "calculus.higher_delta_matches_covariant", hd_covariant))

    def iterated():
        form = KForm(carrier, 0, x.x)
        for k in range(1, n + 1):
            form = form.differential()
            yield _form_residual(form, higher_differential_of_x(fam, k))

    out.append(_all_zero("calculus.dkx_matches_iterated_differential", iterated()))

    def generator_relation():
        for k in range(1, n + 1):
            lhs = higher_differential_of_x(fam, k)
            gamma = q_factorial(k, n) / CycScalar.q_power(n, k * (k - 1) // 2)
            rhs = from_dx_basis(fam, k, XPoly.monomial(n, (1 - k) % n, gamma))
            yield _form_residual(lhs, rhs)

    out.append(_all_zero("calculus.generator_relation_q_factorial", generator_relation()))

    def forms_nilpotent(rng):
        return [_nilpotent(KForm.differential, _rand_form(rng, carrier))]

    out.append(_sampled(seed, cases, "calculus.forms_nilpotent", forms_nilpotent))
    return out


_QUAT_TABLE = {
    # classical Hamilton table, frozen as the oracle
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quaternion_suite(seed: int, cases: int) -> list[CheckResult]:
    out = []
    carrier = quat.CARRIER
    basis = [quat.QUAT_ONE, quat.QUAT_I, quat.QUAT_J, quat.QUAT_K]

    bad = None
    for (i, j), (sign, k) in _QUAT_TABLE.items():
        expect = basis[k] if sign > 0 else -basis[k]
        if basis[i] * basis[j] != expect:
            bad = (i, j)
            break
    out.append(CheckResult("quaternion.multiplication_table", bad is None, bad))

    def sign_patterns():
        for signs in range(16):
            xi = quat.from_quaternion(*(1 if signs & (1 << b) else -1 for b in range(4)))
            yield _nilpotent(differential, xi)

    name = "quaternion.differential_nilpotent"
    sampled = _draws(seed, cases, name, functools.partial(_nilpotent_case, carrier))
    out.append(_all_zero(name, itertools.chain(sign_patterns(), sampled)))

    def operands(rng):
        """u and a coordinate x, which needs a nonzero j part."""
        u, x = _rand_xpoly(rng, carrier), _rand_xpoly(rng, carrier)
        return u, x if x.coeffs[1] else x + carrier.x()

    def second(rng):
        return [quat.second_right_derivative(*operands(rng))]

    out.append(_sampled(seed, cases, "quaternion.second_derivative_vanishes", second))

    def witness(rng):
        u, x = operands(rng)
        c, d = quat.linear_decomposition(u, x)
        return [u - (x * d + c)]

    out.append(_sampled(seed, cases, "quaternion.affine_decomposition", witness))

    fam = build_families(carrier, carrier.x())
    out.extend(_prefixed("quaternion", identity_check(fam)))
    return out


def run_all(order: int, seed: int = 0, cases: int = 100) -> list[CheckResult]:
    """All suites for one grading order; quaternions are the fixed N = 2 instance."""
    rows = []
    rows.extend(scalar_suite(order, seed, cases))
    rows.extend(galois_suite(XPolyCarrier(order), seed, cases))
    rows.extend(qplane_suite(order, seed, cases))
    rows.extend(calculus_suite(order, seed, cases))
    if order == 2:
        rows.extend(quaternion_suite(seed, cases))
    return rows
