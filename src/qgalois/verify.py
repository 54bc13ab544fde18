"""Randomized exact identity suites behind the ``verify`` subcommand.

Every check is exact (zero residual required); randomness only chooses the
sample points, never the tolerance.  Each suite returns CheckResult rows with
stable dotted names so that report output is deterministic for a given order.

Every identity is a row (name, draw, law) of a suite's table, run by ``_run``.
draw is the tuple of samplers that take one case's operands from the row's own
generator, seeded by (seed, row name), so what one row samples depends on no
other row; a row with draw () runs its law once, on no operands.
law(*operands) returns the residuals, and the row fails at the first true one:
a failing row, fixed or sampled, keeps it and the operands of that call.
"""

from __future__ import annotations

import functools
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
    partial_derivative,
    q_plane_families,
    to_dx_basis,
    vanishing_laws,
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
    deg = len(CycScalar.zero(order).num)
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


def _samplers(carrier: XPolyCarrier):
    """Draws of a carrier element, an extension element and a homogeneous form."""
    return (
        lambda rng: _rand_xpoly(rng, carrier),
        lambda rng: _rand_ext(rng, carrier),
        lambda rng: _rand_form(rng, carrier),
    )


def _cases(seed: int, cases: int, name: str, draw):
    """The operand tuples of the row ``name``: ``cases`` draws, each sampler of
    draw in turn on the row's generator, seeded by (seed, name); () once when
    draw is empty."""
    if not draw:
        yield ()
        return
    rng = random.Random(f"{seed}:{name}")
    for _ in range(cases):
        yield tuple(sample(rng) for sample in draw)


def _check(seed: int, cases: int, name: str, draw, law, count=None) -> CheckResult:
    """The row ``name``: law returns only false residuals on the operands of every case.

    count, when given, is the row's own case count in place of ``cases``.
    """
    for operands in _cases(seed, count or cases, name, draw):
        for r in law(*operands):
            if r:
                return CheckResult(name, False, r, operands)
    return CheckResult(name, True)


def _run(seed: int, cases: int, table) -> list[CheckResult]:
    """A suite's rows from its table of entries (name, draw, law[, count]), in order.

    An entry that repeats the name before it goes on with that row, if it has
    not failed: the row's sampled and fixed parts run in the table's order.
    """
    rows = []
    for entry in table:
        if rows and rows[-1].name == entry[0]:
            rows[-1] = rows[-1] and _check(seed, cases, *entry)
        else:
            rows.append(_check(seed, cases, *entry))
    return rows


def _prefixed(prefix: str, laws) -> list[tuple]:
    """Fixed rows from (name, law) pairs, renamed into a suite's namespace, prefix.name."""
    return [(f"{prefix}.{name}", (), law) for name, law in laws]


def _over(tolerance: float, *errors: float) -> list[float]:
    """The float errors above tolerance: the residuals of an inexact law."""
    return [e for e in errors if e > tolerance]


def _twisted_derivation(d, sigma):
    """The law d(uv) = d(u) v + sigma(u) d(v) of a sigma-twisted derivation d."""
    return lambda u, v: [d(u * v) - (d(u) * v + sigma(u) * d(v))]


def _q_leibniz(f: KForm, v: ExtElement) -> list[ExtElement]:
    """The graded q-Leibniz rule for the form f and v: d(fv) = d(f) v + q**|f| f d(v)."""
    law = _twisted_derivation(differential, lambda w: w.scale_by_q(f.degree))
    return law(ExtElement.from_forms(f.carrier, [f]), v)


def _nilpotent(d, xi):
    """d applied N times to xi, N the grading order; zero since d**N = 0."""
    for _ in range(xi.carrier.order):
        xi = d(xi)
    return xi


def _grading(a: KForm, b: KForm) -> list[ExtElement]:
    """The part of ab outside degree |a| + |b|, for homogeneous a and b."""
    c = a.carrier
    prod = ExtElement.from_forms(c, [a]) * ExtElement.from_forms(c, [b])
    k = (a.degree + b.degree) % c.order
    return [ExtElement.from_forms(c, [f for f in prod.forms() if f.degree != k])]


def _form_residual(lhs: KForm, rhs: KForm) -> ExtElement:
    """lhs - rhs as an extension element; zero only when the forms agree."""
    c = lhs.carrier
    return ExtElement.from_forms(c, [lhs, KForm(c, rhs.degree, -rhs.coeff)])


# -- the suites ------------------------------------------------------------------


def scalar_suite(order: int, seed: int, cases: int) -> list[CheckResult]:
    one = CycScalar.one(order)
    q = CycScalar.q(order)
    scalar = lambda rng: _rand_scalar(rng, order)

    return _run(seed, cases, [
        # q**k by repeated products, independent of the table that q_power reads.
        ("scalar.q_has_order_n", (), lambda: [
            q ** order - one, *(q for k in range(1, order) if not q ** k - one)
        ]),
        ("scalar.root_powers_sum_to_zero", (), lambda: [
            sum((CycScalar.q_power(order, j) for j in range(order)), CycScalar.zero(order))
        ]),
        ("scalar.q_integer_n_vanishes", (), lambda: [q_integer(order, order)]),
        ("scalar.field_axioms", (scalar,) * 3, lambda a, b, c: [
            (a + b) + c - (a + (b + c)),
            (a * b) * c - (a * (b * c)),
            a * (b + c) - (a * b + a * c),
            a * b - b * a,
            *([a * a.inverse() - one] if a else []),
        ]),
        ("scalar.complex_embedding", (scalar, scalar), lambda a, b: _over(
            1e-10,
            abs((a * b).embed() - a.embed() * b.embed()),
            abs((a + b).embed() - (a.embed() + b.embed())),
        )),
        ("scalar.complex_embedding", (), lambda: _over(1e-12, abs(q.embed() ** order - 1))),
    ])


def galois_suite(carrier: XPolyCarrier, seed: int, cases: int) -> list[CheckResult]:
    n = carrier.order
    t = tau(carrier)
    x = Coordinate(carrier, carrier.basis()[1])
    d_dx, conj = functools.partial(right_derivative, x=x), functools.partial(conjugation_dx, x=x)
    delta_c = functools.partial(delta, carrier)
    xp, ext, form = _samplers(carrier)

    def coordinate(rng):
        """A coordinate z of the carrier, drawn until Delta(z) is invertible."""
        return _rand_invertible(rng, carrier, functools.partial(Coordinate, carrier))[1]

    def chain(z, u):
        dz_dx, dx_dz = change_of_variable(z, x)
        return [d_dx(u) - dz_dx * right_derivative(u, z), dz_dx * dx_dz - carrier.one()]

    return _run(seed, cases, [
        ("galois.phi_has_order_n", (xp,), lambda u: [carrier.phi(carrier.phi(u), n - 1) - u]),
        ("galois.extension_associative", (ext,) * 3, lambda a, b, c: [(a * b) * c - a * (b * c)]),
        ("galois.grading_additive", (form, form), _grading),
        ("galois.differential_is_commutator", (ext,),
         lambda xi: [differential(xi) - q_commutator(t, xi)]),
        ("galois.differential_nilpotent", (ext,), lambda xi: [_nilpotent(differential, xi)]),
        ("galois.q_leibniz", (form, ext), _q_leibniz),
        ("galois.delta_product_rule", (xp, xp), _twisted_derivation(delta_c, carrier.phi)),
        ("galois.twisted_leibniz", (xp, xp), _twisted_derivation(d_dx, conj)),
        ("galois.conjugation_multiplicative", (xp, xp),
         lambda u, v: [conj(u * v) - conj(u) * conj(v)]),
        ("galois.change_of_variable_chain", (coordinate, xp), chain),
    ])


def qplane_suite(order: int, seed: int, cases: int) -> list[CheckResult]:
    n = order
    carrier = XPolyCarrier(n)
    x, y, one = PlaneElement.x(n), PlaneElement.y(n), PlaneElement.one(n)
    q = CycScalar.q(n)
    xm, ym = generator_matrices(n)
    delta_c = functools.partial(delta, carrier)
    xp, ext, form = _samplers(carrier)
    invertible = lambda rng: _rand_invertible(rng, carrier, XPoly.inverse)

    return _run(seed, cases, [
        ("qplane.generator_relations", (),
         lambda: [x * y - (y * x).scale(q), x ** n - one, y ** n - one]),
        ("qplane.mul_associative_unital", (ext,) * 3,
         lambda a, b, c: [(a * b) * c - a * (b * c), a * one - a, one * a - a]),
        ("qplane.grading_additive", (form, form), _grading),
        ("qplane.twist_transport", (xp, lambda rng: rng.randrange(n)),
         lambda r, k: [r * y ** k - ExtElement.from_component(carrier, k, r.twist(k))]),
        ("qplane.x_inverse_round_trip", (invertible,),
         lambda pair: [pair[0] * pair[1] - XPoly.one(n)]),
        ("qplane.representation_relations", (), lambda: [
            xm * ym - (ym * xm).scale(q),
            xm ** n - RepMatrix.identity(n),
            ym ** n - RepMatrix.identity(n),
        ]),
        ("qplane.representation_multiplicative", (ext, ext), lambda a, b: [
            represent(a * b) - represent(a) * represent(b),
            represent(a + b) - (represent(a) + represent(b)),
        ]),
        ("qplane.representation_faithful", (), lambda: [
            n * n - scalar_rank([m._parts for _, m in sorted(basis_matrices(n).items())])
        ]),
        ("qplane.delta_q_rules", (xp, xp), _twisted_derivation(delta_c, carrier.phi)),
        ("qplane.delta_q_rules", (), lambda: [
            delta_c(m) - m.scale((CycScalar.one(n) - q) * q_integer(k, n))
            for k, m in enumerate(carrier.basis())
        ]),
        ("qplane.differential_of_function", (xp,), lambda w: [
            differential(ExtElement.embed(carrier, w))
            - ExtElement.from_component(carrier, 1, delta_c(w))
        ]),
    ])


def calculus_suite(order: int, seed: int, cases: int) -> list[CheckResult]:
    n = order
    fam = q_plane_families(n)
    carrier = fam.carrier
    x = fam.coordinate
    xp, _, form = _samplers(carrier)
    # The two rows over every k draw one operand per k in a case, max(1, cases // N) cases.
    per_k = max(1, cases // n)

    def dx_power_differential():
        return [
            _form_residual(
                KForm(carrier, k, fam.dx_pow[k - 1]).differential(),
                from_dx_basis(fam, k + 1, fam.connection[k - 1]),
            )
            for k in range(1, n)
        ]

    def covariant(k, r):
        lhs = from_dx_basis(fam, k, r).differential()
        return [_form_residual(lhs, from_dx_basis(fam, k + 1, covariant_operator(fam, k)(r)))]

    def power_rule():
        return [
            partial_derivative(XPoly.monomial(n, k))
            - (XPoly.monomial(n, k - 1, q_integer(k, n)) if k else XPoly.zero(n))
            for k in range(n)
        ]

    def hd_derivation(k, r, s):
        qk = CycScalar.q_power(n, k)
        rhs = higher_delta(k, r) * s + (r.twist(1) * higher_delta(0, s)).scale(qk)
        return [higher_delta(k, r * s) - rhs]

    def iterated():
        form, out = KForm(carrier, 0, x.x), []
        for k in range(1, n + 1):
            form = form.differential()
            out.append(_form_residual(form, higher_differential_of_x(fam, k)))
        return out

    def generator_relation():
        out = []
        for k in range(1, n + 1):
            gamma = q_factorial(k, n) / CycScalar.q_power(n, k * (k - 1) // 2)
            rhs = from_dx_basis(fam, k, XPoly.monomial(n, (1 - k) % n, gamma))
            out.append(_form_residual(higher_differential_of_x(fam, k), rhs))
        return out

    return _run(seed, cases, [
        *_prefixed("calculus", vanishing_laws(fam)),
        ("calculus.connection_closed_form", (), lambda: [
            fam.connection[k - 1] - XPoly.monomial(n, n - 1, delta_coefficient(n, k))
            for k in range(1, n)
        ]),
        ("calculus.dx_power_differential", (), dx_power_differential),
        ("calculus.dx_basis_round_trip", (form,),
         lambda f: [_form_residual(f, from_dx_basis(fam, f.degree, to_dx_basis(f, fam)))]),
        ("calculus.covariant_matches_graded", (lambda rng: rng.randrange(1, n), xp), covariant),
        ("calculus.partial_power_rule", (), power_rule),
        ("calculus.partial_matches_right_derivative", (xp,),
         lambda r: [partial_derivative(r) - right_derivative(r, x)]),
        ("calculus.partial_twisted_leibniz", (xp, xp),
         _twisted_derivation(partial_derivative, carrier.phi)),
        ("calculus.higher_delta_two_routes", (xp,) * n, lambda *rs: [
            higher_delta(k, r) - higher_delta_closed(k, r) for k, r in enumerate(rs)
        ], per_k),
        ("calculus.higher_delta_derivation", (lambda rng: rng.randrange(n), xp, xp), hd_derivation),
        ("calculus.higher_delta_matches_covariant", (xp,) * (n - 1), lambda *rs: [
            higher_delta(k, r) - covariant_operator(fam, k)(r) for k, r in enumerate(rs, 1)
        ], per_k),
        ("calculus.dkx_matches_iterated_differential", (), iterated),
        ("calculus.generator_relation_q_factorial", (), generator_relation),
        ("calculus.forms_nilpotent", (form,), lambda f: [_nilpotent(KForm.differential, f)]),
    ])


_QUAT_TABLE = {
    # classical Hamilton table, frozen as the oracle
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quaternion_suite(seed: int, cases: int) -> list[CheckResult]:
    carrier = quat.CARRIER
    basis = [quat.QUAT_ONE, quat.QUAT_I, quat.QUAT_J, quat.QUAT_K]
    xp, ext, _ = _samplers(carrier)

    def sign_patterns():
        """d**N of the 16 quaternions with every coordinate +-1."""
        signs = ([1 if s & (1 << b) else -1 for b in range(4)] for s in range(16))
        return [_nilpotent(differential, quat.from_quaternion(*c)) for c in signs]

    def coordinate(rng):
        """A coordinate x, which needs a nonzero j part."""
        x = _rand_xpoly(rng, carrier)
        return x if x.coeffs[1] else x + carrier.x()

    def affine(u, x):
        c, d = quat.linear_decomposition(u, x)
        return [u - (x * d + c)]

    fam = build_families(carrier, carrier.x())
    return _run(seed, cases, [
        ("quaternion.multiplication_table", (), lambda: [next((
            (i, j) for (i, j), (sign, k) in _QUAT_TABLE.items()
            if basis[i] * basis[j] - (basis[k] if sign > 0 else -basis[k])
        ), None)]),
        ("quaternion.differential_nilpotent", (), sign_patterns),
        ("quaternion.differential_nilpotent", (ext,), lambda xi: [_nilpotent(differential, xi)]),
        ("quaternion.second_derivative_vanishes", (xp, coordinate),
         lambda u, x: [quat.second_right_derivative(u, x)]),
        ("quaternion.affine_decomposition", (xp, coordinate), affine),
        *_prefixed("quaternion", vanishing_laws(fam)),
    ])


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
