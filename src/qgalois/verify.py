"""Randomized exact identity suites behind the ``verify`` subcommand.

Every check is exact (zero residual required); randomness only chooses the
sample points, never the tolerance.  Each suite returns CheckResult rows with
stable dotted names so that report output is deterministic for a given order.
"""

from __future__ import annotations

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
    ExtElement,
    KForm,
    NotInvertible,
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


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _rand_scalar(rng: random.Random, order: int) -> CycScalar:
    deg = len(CycScalar.zero(order).coeffs)
    return CycScalar.from_poly(
        order, [_rand_fraction(rng) if rng.random() < 0.8 else 0 for _ in range(deg)]
    )


def _rand_xpoly(rng: random.Random, order: int, terms: int = 2) -> XPoly:
    acc = XPoly.zero(order)
    for _ in range(terms):
        acc = acc + XPoly.monomial(order, rng.randrange(order), _rand_scalar(rng, order))
    return acc


def _rand_invertible_xpoly(rng: random.Random, order: int) -> XPoly:
    while True:
        r = _rand_xpoly(rng, order)
        try:
            r.inverse()
        except NotInvertible:
            continue
        return r


def _rand_plane(rng: random.Random, order: int, terms: int = 3) -> PlaneElement:
    acc = PlaneElement.zero(order)
    for _ in range(terms):
        acc = acc + PlaneElement.monomial(
            order, rng.randrange(order), rng.randrange(order), _rand_scalar(rng, order)
        )
    return acc


def _rand_ext(rng: random.Random, carrier: XPolyCarrier, live: int = 2) -> ExtElement:
    n = carrier.order
    comps = [XPoly.zero(n)] * n
    for _ in range(live):
        comps[rng.randrange(n)] = _rand_xpoly(rng, n)
    return ExtElement(carrier, comps)


def _rand_complex(rng: random.Random) -> quat.ComplexRational:
    return quat.ComplexRational(_rand_fraction(rng), _rand_fraction(rng))


def _rand_quaternion(rng: random.Random) -> ExtElement:
    return quat.from_quaternion(*(_rand_fraction(rng) for _ in range(4)))


# -- small check helpers --------------------------------------------------------


def _all_zero(name: str, residuals) -> CheckResult:
    for r in residuals:
        bad = not r.is_zero() if hasattr(r, "is_zero") else bool(r)
        if bad:
            return CheckResult(name, False, r)
    return CheckResult(name, True)


def _form_residual(lhs: KForm, rhs: KForm) -> ExtElement:
    """lhs - rhs as an extension element; zero only when the forms agree."""
    c = lhs.carrier
    return ExtElement.from_forms(c, [lhs, KForm(c, rhs.degree, -rhs.coeff)])


# -- the suites ------------------------------------------------------------------


def scalar_suite(order: int, rng: random.Random, cases: int) -> list[CheckResult]:
    out = []
    one = CycScalar.one(order)
    q = CycScalar.q(order)

    ok = q ** order == one and all(q ** k != one for k in range(1, order))
    out.append(CheckResult("scalar.q_has_order_n", ok, None if ok else q))

    total = sum((CycScalar.q_power(order, j) for j in range(order)), CycScalar.zero(order))
    out.append(CheckResult("scalar.root_powers_sum_to_zero", not total, total or None))

    ok = q_integer(order, order) == CycScalar.zero(order)
    out.append(CheckResult("scalar.q_integer_n_vanishes", ok))

    def field_residuals():
        for _ in range(cases):
            a, b, c = (_rand_scalar(rng, order) for _ in range(3))
            yield (a + b) + c - (a + (b + c))
            yield (a * b) * c - (a * (b * c))
            yield a * (b + c) - (a * b + a * c)
            yield a * b - b * a
            if a:
                yield a * a.inverse() - one

    out.append(_all_zero("scalar.field_axioms", field_residuals()))

    worst = 0.0
    for _ in range(cases):
        a, b = _rand_scalar(rng, order), _rand_scalar(rng, order)
        worst = max(worst, abs((a * b).embed() - a.embed() * b.embed()))
        worst = max(worst, abs((a + b).embed() - (a.embed() + b.embed())))
    ok = worst <= 1e-10 and abs(q.embed() ** order - 1) <= 1e-12
    out.append(CheckResult("scalar.complex_embedding", ok, None if ok else worst))
    return out


def galois_suite(order: int, rng: random.Random, cases: int) -> list[CheckResult]:
    out = []
    carrier = XPolyCarrier(order)
    n = order
    t = tau(carrier)

    def phi_res():
        for _ in range(cases):
            u = _rand_xpoly(rng, n)
            yield carrier.phi_power(carrier.phi(u), n - 1) - u

    out.append(_all_zero("galois.phi_has_order_n", phi_res()))

    def assoc_res():
        for _ in range(cases):
            a, b, c = (_rand_ext(rng, carrier) for _ in range(3))
            yield (a * b) * c - a * (b * c)

    out.append(_all_zero("galois.extension_associative", assoc_res()))

    ok_res = None
    for _ in range(cases):
        a = ExtElement.from_component(carrier, rng.randrange(n), _rand_xpoly(rng, n))
        b = ExtElement.from_component(carrier, rng.randrange(n), _rand_xpoly(rng, n))
        prod = a * b
        if not prod.is_zero() and prod.degree() != (a.degree() + b.degree()) % n:
            ok_res = prod
            break
    out.append(CheckResult("galois.grading_additive", ok_res is None, ok_res))

    def diff_vs_comm():
        for _ in range(cases):
            xi = _rand_ext(rng, carrier)
            yield differential(xi) - q_commutator(t, xi)

    out.append(_all_zero("galois.differential_is_commutator", diff_vs_comm()))

    def nilpotent():
        for _ in range(cases):
            xi = _rand_ext(rng, carrier)
            for _ in range(n):
                xi = differential(xi)
            yield xi

    out.append(_all_zero("galois.differential_nilpotent", nilpotent()))

    def leibniz():
        for _ in range(cases):
            l = rng.randrange(n)
            u = ExtElement.from_component(carrier, l, _rand_xpoly(rng, n))
            v = _rand_ext(rng, carrier)
            yield differential(u * v) - (differential(u) * v + (u * differential(v)).scale_by_q(l))

    out.append(_all_zero("galois.q_leibniz", leibniz()))

    def delta_rule():
        for _ in range(cases):
            u, v = _rand_xpoly(rng, n), _rand_xpoly(rng, n)
            yield delta(carrier, u * v) - (delta(carrier, u) * v + carrier.phi(u) * delta(carrier, v))

    out.append(_all_zero("galois.delta_product_rule", delta_rule()))

    x = carrier.x()

    def twisted_leibniz():
        for _ in range(cases):
            u, v = _rand_xpoly(rng, n), _rand_xpoly(rng, n)
            lhs = right_derivative(carrier, u * v, x)
            rhs = right_derivative(carrier, u, x) * v + conjugation_dx(carrier, u, x) * right_derivative(carrier, v, x)
            yield lhs - rhs

    out.append(_all_zero("galois.twisted_leibniz", twisted_leibniz()))

    def conj_hom():
        for _ in range(cases):
            u, v = _rand_xpoly(rng, n), _rand_xpoly(rng, n)
            yield conjugation_dx(carrier, u * v, x) - conjugation_dx(carrier, u, x) * conjugation_dx(carrier, v, x)

    out.append(_all_zero("galois.conjugation_multiplicative", conj_hom()))

    def chain():
        for _ in range(cases):
            z = _rand_coordinate(rng, carrier)
            u = _rand_xpoly(rng, n)
            yield right_derivative(carrier, u, x) - right_derivative(carrier, z, x) * right_derivative(carrier, u, z)
            dz_dx, dx_dz = right_derivative(carrier, z, x), right_derivative(carrier, x, z)
            yield dz_dx * dx_dz - carrier.one()

    out.append(_all_zero("galois.change_of_variable_chain", chain()))
    return out


def _rand_coordinate(rng: random.Random, carrier: XPolyCarrier) -> XPoly:
    """A random element whose difference Delta(z) is invertible."""
    n = carrier.order
    while True:
        z = _rand_xpoly(rng, n)
        try:
            carrier.invert(delta(carrier, z))
        except NotInvertible:
            continue
        return z


def qplane_suite(order: int, rng: random.Random, cases: int) -> list[CheckResult]:
    out = []
    n = order
    carrier = XPolyCarrier(n)
    x, y, one = PlaneElement.x(n), PlaneElement.y(n), PlaneElement.one(n)
    q = CycScalar.q(n)

    ok = (x * y == (y * x).scale(q)) and (x ** n == one) and (y ** n == one)
    out.append(CheckResult("qplane.generator_relations", ok))

    def assoc():
        for _ in range(cases):
            a, b, c = (_rand_plane(rng, n) for _ in range(3))
            yield (a * b) * c - a * (b * c)
            yield a * one - a
            yield one * a - a

    out.append(_all_zero("qplane.mul_associative_unital", assoc()))

    ok_res = None
    for _ in range(cases):
        a = PlaneElement.monomial(n, rng.randrange(n), rng.randrange(n), _rand_scalar(rng, n))
        b = PlaneElement.monomial(n, rng.randrange(n), rng.randrange(n), _rand_scalar(rng, n))
        p = a * b
        if not p.is_zero() and p.degree() != (a.degree() + b.degree()) % n:
            ok_res = p
            break
    out.append(CheckResult("qplane.grading_additive", ok_res is None, ok_res))

    def twist_law():
        for _ in range(cases):
            r = _rand_xpoly(rng, n)
            k = rng.randrange(n)
            yk = PlaneElement.y(n) ** k
            yield r * yk - ExtElement.from_component(carrier, k, r.twist(k))

    out.append(_all_zero("qplane.twist_transport", twist_law()))

    def inv_round():
        for _ in range(cases):
            r = _rand_invertible_xpoly(rng, n)
            yield r * r.inverse() - XPoly.one(n)

    out.append(_all_zero("qplane.x_inverse_round_trip", inv_round()))

    xm, ym = generator_matrices(n)
    ok = (
        xm * ym == (ym * xm).scale(q)
        and xm ** n == RepMatrix.identity(n)
        and ym ** n == RepMatrix.identity(n)
    )
    out.append(CheckResult("qplane.representation_relations", ok))

    def rep_hom():
        for _ in range(cases):
            a, b = _rand_plane(rng, n), _rand_plane(rng, n)
            yield represent(a * b) - represent(a) * represent(b)
            yield represent(a + b) - (represent(a) + represent(b))

    out.append(_all_zero("qplane.representation_multiplicative", rep_hom()))

    basis = basis_matrices(n)
    vectors = [
        [m.entries[i][j] for i in range(n) for j in range(n)]
        for (_, m) in sorted(basis.items())
    ]
    ok = scalar_rank(vectors) == n * n
    out.append(CheckResult("qplane.representation_faithful", ok))

    def delta_q_props():
        for _ in range(cases):
            w, w2 = _rand_xpoly(rng, n), _rand_xpoly(rng, n)
            dq = lambda r: r - r.twist(1)
            yield dq(w * w2) - (dq(w) * w2 + w.twist(1) * dq(w2))
        for k in range(n):
            mono = XPoly.monomial(n, k)
            yield (mono - mono.twist(1)) - mono.scale(
                (CycScalar.one(n) - q) * q_integer(k, n)
            )

    out.append(_all_zero("qplane.delta_q_rules", delta_q_props()))

    def carrier_diff():
        for _ in range(cases):
            w = _rand_xpoly(rng, n)
            lhs = differential(ExtElement.embed(carrier, w))
            rhs = ExtElement.from_component(carrier, 1, w - w.twist(1))
            yield lhs - rhs

    out.append(_all_zero("qplane.differential_of_function", carrier_diff()))
    return out


def calculus_suite(order: int, rng: random.Random, cases: int) -> list[CheckResult]:
    out = []
    n = order
    fam = q_plane_families(n)
    carrier = fam.carrier
    x = fam.x
    one = CycScalar.one(n)
    q = CycScalar.q(n)

    for res in identity_check(fam):
        out.append(CheckResult(f"calculus.{res.name}", res.passed, res.residual))

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

    def round_trip():
        for _ in range(cases):
            k = rng.randrange(n)
            form = KForm(carrier, k, _rand_xpoly(rng, n))
            back = from_dx_basis(fam, k, to_dx_basis(form, fam))
            yield _form_residual(form, back)

    out.append(_all_zero("calculus.dx_basis_round_trip", round_trip()))

    def covariant():
        for _ in range(cases):
            k = rng.randrange(1, n)
            r = _rand_xpoly(rng, n)
            lhs = from_dx_basis(fam, k, r).differential()
            rhs = from_dx_basis(fam, k + 1, covariant_operator(fam, k)(r))
            yield _form_residual(lhs, rhs)

    out.append(_all_zero("calculus.covariant_matches_graded", covariant()))

    def power_rule():
        for k in range(n):
            expected = XPoly.monomial(n, k - 1, q_integer(k, n)) if k else XPoly.zero(n)
            yield partial_derivative(XPoly.monomial(n, k)) - expected

    out.append(_all_zero("calculus.partial_power_rule", power_rule()))

    def partial_vs_rd():
        for _ in range(cases):
            r = _rand_xpoly(rng, n)
            yield partial_derivative(r) - right_derivative(carrier, r, x)

    out.append(_all_zero("calculus.partial_matches_right_derivative", partial_vs_rd()))

    def partial_leibniz():
        for _ in range(cases):
            r, s = _rand_xpoly(rng, n), _rand_xpoly(rng, n)
            yield partial_derivative(r * s) - (partial_derivative(r) * s + r.twist(1) * partial_derivative(s))

    out.append(_all_zero("calculus.partial_twisted_leibniz", partial_leibniz()))

    def hd_two_routes():
        for k in range(n):
            for _ in range(max(1, cases // n)):
                r = _rand_xpoly(rng, n)
                yield higher_delta(k, r) - higher_delta_closed(k, r)

    out.append(_all_zero("calculus.higher_delta_two_routes", hd_two_routes()))

    def hd_derivation():
        for _ in range(cases):
            k = rng.randrange(n)
            r, s = _rand_xpoly(rng, n), _rand_xpoly(rng, n)
            rhs = higher_delta(k, r) * s + (r.twist(1) * higher_delta(0, s)).scale(
                CycScalar.q_power(n, k)
            )
            yield higher_delta(k, r * s) - rhs

    out.append(_all_zero("calculus.higher_delta_derivation", hd_derivation()))

    def hd_matches_covariant():
        for k in range(1, n):
            for _ in range(max(1, cases // n)):
                r = _rand_xpoly(rng, n)
                yield higher_delta(k, r) - covariant_operator(fam, k)(r)

    out.append(_all_zero("calculus.higher_delta_matches_covariant", hd_matches_covariant()))

    def iterated():
        for k in range(1, n + 1):
            form = KForm(carrier, 0, x)
            for _ in range(k):
                form = form.differential()
            ref = higher_differential_of_x(fam, k)
            yield _form_residual(form, ref)

    out.append(_all_zero("calculus.dkx_matches_iterated_differential", iterated()))

    def generator_relation():
        for k in range(1, n + 1):
            lhs = higher_differential_of_x(fam, k)
            gamma = q_factorial(k, n) / CycScalar.q_power(n, k * (k - 1) // 2)
            rhs = from_dx_basis(fam, k, XPoly.monomial(n, (1 - k) % n, gamma))
            yield _form_residual(lhs, rhs)

    out.append(_all_zero("calculus.generator_relation_q_factorial", generator_relation()))

    def forms_nilpotent():
        for _ in range(cases):
            form = KForm(carrier, rng.randrange(n), _rand_xpoly(rng, n))
            for _ in range(n):
                form = form.differential()
            yield form

    out.append(_all_zero("calculus.forms_nilpotent", forms_nilpotent()))
    return out


_QUAT_TABLE = {
    # classical Hamilton table, frozen as the oracle
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quaternion_suite(rng: random.Random, cases: int) -> list[CheckResult]:
    out = []
    basis = [quat.QUAT_ONE, quat.QUAT_I, quat.QUAT_J, quat.QUAT_K]

    bad = None
    for (i, j), (sign, k) in _QUAT_TABLE.items():
        expect = basis[k] if sign > 0 else -basis[k]
        if basis[i] * basis[j] != expect:
            bad = (i, j)
            break
    out.append(CheckResult("quaternion.multiplication_table", bad is None, bad))

    def nilpotent():
        for signs in range(16):
            xi = quat.from_quaternion(*(1 if signs & (1 << b) else -1 for b in range(4)))
            yield differential(differential(xi))
        for _ in range(cases):
            xi = _rand_quaternion(rng)
            yield differential(differential(xi))

    out.append(_all_zero("quaternion.differential_nilpotent", nilpotent()))

    def second_deriv():
        for _ in range(cases):
            u = _rand_complex(rng)
            x = _rand_complex(rng)
            if not x.im:
                x = quat.ComplexRational(x.re, Fraction(1))
            yield quat.second_right_derivative(u, x)

    out.append(_all_zero("quaternion.second_derivative_vanishes", second_deriv()))

    def witness():
        for _ in range(cases):
            u, x = _rand_complex(rng), _rand_complex(rng)
            if not x.im:
                x = quat.ComplexRational(x.re, Fraction(2))
            c, d = quat.linear_decomposition(u, x)
            rebuilt = quat.ComplexRational(c + d * x.re, d * x.im)
            yield u - rebuilt

    out.append(_all_zero("quaternion.affine_decomposition", witness()))

    xj = quat.ComplexRational.of(0, 1)
    fam = build_families(quat.CARRIER, xj)
    for res in identity_check(fam):
        out.append(CheckResult(f"quaternion.{res.name}", res.passed, res.residual))
    return out


def run_all(order: int, seed: int = 0, cases: int = 100) -> list[CheckResult]:
    """All suites for one grading order; quaternions are the fixed N = 2 instance."""
    rng = random.Random(seed)
    rows = []
    rows.extend(scalar_suite(order, rng, cases))
    rows.extend(galois_suite(order, rng, cases))
    rows.extend(qplane_suite(order, rng, cases))
    rows.extend(calculus_suite(order, rng, cases))
    if order == 2:
        rows.extend(quaternion_suite(rng, cases))
    return rows
