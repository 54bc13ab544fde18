"""Verify's power, measured: a table of planted faults and the rows that catch them.

Each fault is (target, replacement): ``replacement(original)`` is a wrong
version of the library function or method ``target`` ("module:name" or
"module:Class.name"), planted with ``monkeypatch`` wherever qgalois binds it.
Under it ``run_all(N, seed=0, cases=3)`` must fail exactly the listed rows at
each order N = 2..5, each row listed with the orders where it fails.  A gap is
not hidden: a fault that verify's rows miss names the test in this suite that
does catch it, and that test must fail under the fault.  This is mutation
testing (DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978) with the mutants written out by hand.
"""

import collections
import functools
import importlib
import json
import math
from pathlib import Path

import pytest

from qgalois import calculus, cli, cyclotomic, galois, qplane, quaternion, verify
from qgalois.cyclotomic import CycScalar, fold_power
from qgalois.galois import ExtElement, KForm
from qgalois.qplane import RepMatrix, XPoly

MODULES = (cyclotomic, galois, qplane, calculus, quaternion, verify)
ORDERS = range(2, 6)


# -- the faults -------------------------------------------------------------------


def _d_one_power_too_high(original):
    def differential(self):
        c, k = self.carrier, self.degree
        return KForm(c, k + 1, self.coeff - c.phi(self.coeff) * c.q_element(k + 1))

    return differential


def _form_product_twists_by_left_degree(original):
    """(tau**a u)(tau**b v) = tau**(a+b) phi**a(u) v: the twist by the left degree."""

    def product(self, left, right):
        out = [self.zero()] * self.order
        for a, u in enumerate(left):
            for b, v in enumerate(right):
                k, w = fold_power(self.order, self.tau_sign, a + b, self.phi(u, a) * v)
                out[k] = out[k] + w
        return tuple(out)

    return product


def _inverse_times_n(original):
    return lambda self: original(self).scale(self.order)


def _partial_without_one_minus_q_inverse(original):
    return lambda r: original(r).scale(CycScalar.one(r.order) - CycScalar.q(r.order))


def _commutator_by_sum_of_degrees(original):
    """v u minus theta_a(u) a per form a of v, with theta_a scaling component b by q**(a + b)."""

    def q_commutator(v, u):
        c = v.carrier
        out = v * u
        for a in v.forms():
            theta = c.element(w * c.q_element(a.degree + b) for b, w in enumerate(u.components))
            out -= theta * ExtElement.from_forms(c, [a])
        return out

    return q_commutator


def _closed_delta_off_at_top_degree(original):
    return lambda k, r: original(k, r).scale(2) if k == r.order - 1 else original(k, r)


def _product_reads_first_right_form(original):
    """The product reads the right operand's first nonzero component alone."""

    def product(self, left, right):
        first = next((b for b, v in enumerate(right) if v), 0)
        return original(self, left, [v if b == first else self.zero() for b, v in enumerate(right)])

    return product


def _represent_at_positive_powers(original):
    def represent(w):
        n = w.carrier.order
        rows = (map(w.component, range(-i, n - i)) for i in range(n))
        return RepMatrix(n, (map(XPoly.evaluate_at_q_power, row, range(n)) for row in rows))

    return represent


def _rotation_turned_back(original):
    """Each value at q**(sign*j) read at q**(-sign*j): the same map at N = 2."""
    return lambda polys, sign=1, divisor=1: original(polys, -sign, divisor)


def _back_transform_keeps_n(original):
    """The values are not divided by the divisor: the inverse's back transform without its 1/N."""
    return lambda polys, sign=1, divisor=1: original(polys, sign)


def _norm_route_one_twist_too_many(original):
    """Q_k**-1 as Q_N**-1 phi**(k+1)(Q_{N-k}), one twist past the ordered norm's factor."""

    def build_families(carrier, x):
        fam = original(carrier, x)
        n, (dx_inv, *_, norm_inv) = carrier.order, fam.dx_pow_inv
        inv = (norm_inv * carrier.phi(fam.dx_pow[n - 1 - k], k + 1) for k in range(2, n))
        dx_pow_inv = (dx_inv, *inv, norm_inv)
        phi1 = dx_pow_inv[1] * fam.dkx[1]
        connection = [phi1]
        for k in range(1, n - 1):
            step = galois.conjugation_dx(connection[-1], fam.coordinate)
            connection.append(step + phi1 * carrier.q_element(k))
        return calculus.PolyFamilies(
            fam.coordinate, fam.dkx, fam.dx_pow, dx_pow_inv, tuple(connection)
        )

    return build_families


def _twist_off_on_both_ends(original):
    """From order 4 on, off by x on operands that hold both x**0 and x**(N-1)."""

    def twist(self, k=1):
        n = self.order
        if n >= 4 and self.coeffs[0] and self.coeffs[-1]:
            return original(self, k) + XPoly.monomial(n, 1, 1, self.sign)
        return original(self, k)

    return twist


def _scalar_product_off_at_order_5(original):
    """At order 5, a product of two scalars that both hold q**3 is off by one."""

    def dot(order, pairs):
        pairs = list(pairs)
        out = original(order, pairs)
        if order == 5:
            return out + sum(1 for a, b in pairs if a.num[3] and b.num[3])
        return out

    return dot


def _dot_keeps_first_denominator(original):
    """The product kernel with one step left out: on unlike denominators the
    running sum is not rescaled, so the terms before are read over the new one."""

    def dot(order, pairs):
        acc = None
        for a, b in pairs:
            d = a.den * b.den
            if acc is None:
                acc, den = [0] * (2 * len(a.num) - 1), d
            elif den % d:
                den *= d // math.gcd(den, d)
            for i, x in enumerate(a.num):
                for j, y in enumerate(b.num):
                    acc[i + j] += x * y * (den // d)
        return CycScalar.zero(order) if acc is None else cyclotomic._reduce(order, acc, den)

    return dot


def _digit_width_one_bit_short(original):
    return lambda *args: original(*args) - 1


def _digits_drop_the_borrow(original):
    """The unpacking reads a digit as negative but does not borrow 1 from the next one."""

    def digits(acc, k):
        out = original(acc, k)
        return [d - (below < 0) for below, d in zip([0, *out], out)]

    return digits


def _fold_ignores_sign(original):
    return lambda order, sign, k, coeff: original(order, 1, k, coeff)


def _eq_reads_first_part(original):
    def eq(self, other):
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return self._parts[:1] == o._parts[:1]

    return eq


def _rank_one_short(original):
    return lambda rows: original(rows) - 1


def _zero_minus_keeps_sign(original):
    """0 - b returns b: the zero-operand shortcut without the negation."""

    def sub(self, other):
        if not self and isinstance(other, CycScalar):
            return other
        return original(self, other)

    return sub


def _certificate_trusts_row_count(original):
    return lambda vectors: len(vectors)


ALL = "2345"  # the orders 2..5, one digit each

# A fault: what it replaces, the rows verify fails under it (row -> the orders
# where it fails), and the test that catches it where no row does.
Fault = collections.namedtuple("Fault", "target replacement rows caught_by", defaults=[None])

FAULTS = {
    "d_one_power_too_high": Fault(
        "galois:KForm.differential",
        _d_one_power_too_high,
        {
            "calculus.covariant_matches_graded": ALL,
            "calculus.dkx_matches_iterated_differential": ALL,
            "calculus.dx_power_differential": ALL,
            "galois.differential_is_commutator": ALL,
            "galois.q_leibniz": ALL,
            "qplane.differential_of_function": ALL,
        },
    ),
    "form_product_twists_by_left_degree": Fault(
        "qplane:XPolyCarrier.product",
        _form_product_twists_by_left_degree,
        {
            "galois.differential_is_commutator": ALL,
            "galois.extension_associative": ALL,
            "galois.q_leibniz": ALL,
            "qplane.generator_relations": ALL,
            "qplane.mul_associative_unital": "345",
            "qplane.representation_multiplicative": ALL,
            "qplane.twist_transport": "345",
            "quaternion.multiplication_table": "2",
        },
    ),
    "inverse_times_n": Fault(
        "qplane:XPoly.inverse",
        _inverse_times_n,
        {
            "calculus.connection_closed_form": "345",
            "calculus.covariant_matches_graded": ALL,
            "calculus.dx_basis_round_trip": ALL,
            "calculus.dx_power_differential": "345",
            "calculus.higher_delta_matches_covariant": "345",
            "calculus.higher_delta_two_routes": ALL,
            "calculus.partial_matches_right_derivative": ALL,
            "galois.change_of_variable_chain": ALL,
            "galois.conjugation_multiplicative": ALL,
            "galois.twisted_leibniz": "345",
            "qplane.x_inverse_round_trip": ALL,
        },
    ),
    "partial_without_one_minus_q_inverse": Fault(
        "calculus:partial_derivative",
        _partial_without_one_minus_q_inverse,
        {
            "calculus.higher_delta_two_routes": ALL,
            "calculus.partial_matches_right_derivative": ALL,
            "calculus.partial_power_rule": ALL,
        },
    ),
    "commutator_by_sum_of_degrees": Fault(
        "galois:q_commutator",
        _commutator_by_sum_of_degrees,
        {
            "galois.differential_is_commutator": ALL,
        },
    ),
    "closed_delta_off_at_top_degree": Fault(
        "calculus:higher_delta_closed",
        _closed_delta_off_at_top_degree,
        {
            "calculus.higher_delta_two_routes": ALL,
        },
    ),
    "product_reads_first_right_form": Fault(
        "qplane:XPolyCarrier.product",
        _product_reads_first_right_form,
        {
            "galois.differential_is_commutator": ALL,
            "galois.extension_associative": "345",
            "galois.q_leibniz": "345",
            "qplane.mul_associative_unital": "345",
            "qplane.representation_multiplicative": ALL,
        },
    ),
    "represent_at_positive_powers": Fault(
        "qplane:represent",
        _represent_at_positive_powers,
        {
            "qplane.representation_multiplicative": "345",
            "qplane.representation_relations": "345",
        },
    ),
    "rotation_turned_back": Fault(
        "qplane:_root_values",
        _rotation_turned_back,
        {
            "qplane.representation_multiplicative": "345",
            "qplane.representation_relations": "345",
        },
    ),
    "back_transform_keeps_n": Fault(
        "qplane:_root_values",
        _back_transform_keeps_n,
        {
            "calculus.connection_closed_form": "345",
            "calculus.covariant_matches_graded": ALL,
            "calculus.dx_basis_round_trip": ALL,
            "calculus.dx_power_differential": "345",
            "calculus.higher_delta_matches_covariant": "345",
            "calculus.higher_delta_two_routes": ALL,
            "calculus.partial_matches_right_derivative": ALL,
            "galois.change_of_variable_chain": ALL,
            "galois.conjugation_multiplicative": ALL,
            "galois.twisted_leibniz": "345",
            "qplane.x_inverse_round_trip": ALL,
        },
    ),
    "norm_route_one_twist_too_many": Fault(
        "calculus:build_families",
        _norm_route_one_twist_too_many,
        {
            "calculus.connection_closed_form": "345",
            "calculus.covariant_matches_graded": "345",
            "calculus.dx_basis_round_trip": "45",
            "calculus.dx_power_differential": "345",
            "calculus.higher_delta_matches_covariant": "345",
        },
    ),
    "twist_off_on_both_ends": Fault(
        "qplane:XPoly.twist",
        _twist_off_on_both_ends,
        {
            "calculus.covariant_matches_graded": "45",
            "calculus.higher_delta_derivation": "4",
            "calculus.partial_twisted_leibniz": "45",
            "galois.conjugation_multiplicative": "4",
            "galois.delta_product_rule": "45",
            "galois.differential_is_commutator": "45",
            "galois.phi_has_order_n": "4",
            "galois.q_leibniz": "45",
            "galois.twisted_leibniz": "45",
            "qplane.delta_q_rules": "45",
        },
    ),
    "scalar_product_off_at_order_5": Fault(
        "cyclotomic:dot",
        _scalar_product_off_at_order_5,
        {
            "calculus.connection_closed_form": "5",
            "calculus.covariant_matches_graded": "5",
            "calculus.dx_basis_round_trip": "5",
            "calculus.dx_power_differential": "5",
            "calculus.forms_nilpotent": "5",
            "calculus.generator_relation_q_factorial": "5",
            "calculus.higher_delta_derivation": "5",
            "calculus.higher_delta_matches_covariant": "5",
            "calculus.higher_delta_two_routes": "5",
            "calculus.partial_matches_right_derivative": "5",
            "calculus.partial_power_rule": "5",
            "calculus.partial_twisted_leibniz": "5",
            "galois.change_of_variable_chain": "5",
            "galois.conjugation_multiplicative": "5",
            "galois.delta_product_rule": "5",
            "galois.differential_is_commutator": "5",
            "galois.differential_nilpotent": "5",
            "galois.phi_has_order_n": "5",
            "galois.q_leibniz": "5",
            "galois.twisted_leibniz": "5",
            "qplane.delta_q_rules": "5",
            "qplane.representation_multiplicative": "5",
            "qplane.representation_relations": "5",
            "qplane.twist_transport": "5",
            "qplane.x_inverse_round_trip": "5",
            "scalar.complex_embedding": "5",
            "scalar.field_axioms": "5",
        },
    ),
    "dot_keeps_first_denominator": Fault(
        "cyclotomic:dot",
        _dot_keeps_first_denominator,
        {
            "calculus.higher_delta_derivation": "345",
            "galois.change_of_variable_chain": "3",
            "qplane.delta_q_rules": "45",
            "qplane.representation_multiplicative": "35",
            "qplane.x_inverse_round_trip": "3",
        },
    ),
    "digit_width_one_bit_short": Fault(
        # The width's bound is loose for verify's small operands: only a sum
        # that fills more than half of it wraps a digit one bit short.
        "cyclotomic:_digit_width",
        _digit_width_one_bit_short,
        {},
        "test_galois.py::test_the_packed_product_fills_its_digit_width",
    ),
    "digits_drop_the_borrow": Fault(
        "cyclotomic:_digits",
        _digits_drop_the_borrow,
        {
            "galois.differential_is_commutator": "345",
            "galois.extension_associative": ALL,
            "galois.q_leibniz": "345",
            "qplane.mul_associative_unital": "345",
            "qplane.representation_multiplicative": "345",
            "qplane.twist_transport": "35",
        },
    ),
    "fold_ignores_sign": Fault(
        # Verify meets tau**N = -1 only in the quaternion suite at N = 2; the galois
    # suite at s = -1, N = 3..8, is what guards the sign.
        "cyclotomic:fold_power",
        _fold_ignores_sign,
        {
            "quaternion.multiplication_table": "2",
        },
        "test_qplane.py::test_signed_carrier_identities[3]",
    ),
    "eq_reads_first_part": Fault(
        # Every row tests the truth value of a residual, which reads no ==.
        "cyclotomic:Componentwise.__eq__",
        _eq_reads_first_part,
        {},
        "test_acceptance.py::test_criterion_05_connection_coherence",
    ),
    "rank_one_short": Fault(
        "qplane:scalar_rank",
        _rank_one_short,
        {
            "qplane.representation_faithful": ALL,
        },
    ),
    "zero_minus_keeps_sign": Fault(
        # Verify's sums meet 0 + b but never 0 - b with b nonzero.
        "cyclotomic:CycScalar.__sub__",
        _zero_minus_keeps_sign,
        {},
        "test_galois.py::test_difference_is_the_sum_with_the_negative[XPoly]",
    ),
    "certificate_trusts_row_count": Fault(
        # The basis images have full rank, so a certificate that skips the
        # elimination still reports their rank.
        "qplane:_rank_mod_p",
        _certificate_trusts_row_count,
        {},
        "test_qplane.py::test_scalar_rank_of_planted_rank_deficient_rows[5]",
    ),
}


# -- planting ---------------------------------------------------------------------


def _clear_caches():
    """Empty every lru_cache in the library, so nothing computed under one fault outlives it."""
    for module in MODULES:
        for obj in vars(module).values():
            members = [getattr(obj, name) for name in vars(obj)] if isinstance(obj, type) else []
            for f in [obj, *members]:
                if hasattr(f, "cache_clear"):
                    f.cache_clear()


def _plant(monkeypatch, target, replacement):
    """Replace target by replacement(original) on its class, or in every module that binds it."""
    module, _, path = target.partition(":")
    owner = importlib.import_module(f"qgalois.{module}")
    *classes, name = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = getattr(owner, name)
    fault = replacement(original)
    if classes:
        monkeypatch.setattr(owner, name, fault)
        return
    for m in MODULES:
        if getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, fault)


def _failing_rows(order):
    return {r.name for r in verify.run_all(order, 0, 3) if not r}


def _call_test(test_id):
    """Run one test of this suite, "file.py::name" or "file.py::name[param]", by calling it;
    a param of digits is passed as an int, any other as its text."""
    path, _, rest = test_id.partition("::")
    name, _, param = rest.partition("[")
    param = param.rstrip("]")
    test = getattr(importlib.import_module(Path(path).stem), name)
    test(*([int(param) if param.isdigit() else param] if param else []))


@pytest.fixture
def planted(monkeypatch):
    _clear_caches()
    yield functools.partial(_plant, monkeypatch)
    monkeypatch.undo()
    _clear_caches()


@pytest.mark.parametrize("fault", FAULTS)
def test_verify_fails_the_rows_each_fault_breaks(fault, planted):
    target, replacement, rows, caught_by = FAULTS[fault]
    planted(target, replacement)
    for order in ORDERS:
        expected = {row for row, orders in rows.items() if str(order) in orders}
        assert _failing_rows(order) == expected, order
    if caught_by is not None:
        with pytest.raises(AssertionError):
            _call_test(caught_by)


def test_a_failing_row_keeps_the_operands_that_recompute_its_residual(planted):
    fault = FAULTS["inverse_times_n"]
    planted(fault.target, fault.replacement)
    rows = {r.name: r for r in verify.run_all(5, 0, 3)}
    row = rows["qplane.x_inverse_round_trip"]
    ((r, r_inv),) = row.operands
    assert str(row.residual) == "4" and r * r_inv - XPoly.one(5) == row.residual
    fixed = rows["calculus.connection_closed_form"]
    assert not fixed and fixed.operands == ()
    assert all(r.operands == () for r in rows.values() if r)


def test_the_operands_of_a_sampled_extension_row_recompute_its_residual(planted):
    fault = FAULTS["commutator_by_sum_of_degrees"]
    planted(fault.target, fault.replacement)
    row = next(r for r in verify.run_all(4, 0, 3) if r.name == "galois.differential_is_commutator")
    (xi,) = row.operands
    assert row.residual == galois.differential(xi) - galois.q_commutator(galois.tau(xi.carrier), xi)
    assert row.residual


def test_a_failing_fixed_row_reports_its_residual(planted, capsys):
    fault = FAULTS["rank_one_short"]
    planted(fault.target, fault.replacement)
    row = next(r for r in verify.run_all(4, 0, 3) if r.name == "qplane.representation_faithful")
    assert row.residual == 1 and row.operands == ()
    assert cli.main(["verify", "--order", "4", "--cases", "3", "--json"]) == 1
    out = capsys.readouterr().out
    assert '"identity": "qplane.representation_faithful", "pass": false, "residual": "1"' in out
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("order", ORDERS)
def test_every_row_runs_through_check(order, monkeypatch):
    """No row is finished before the table reaches it: _check runs every row
    of run_all, a row written in parts once for each part."""
    checked, check = [], verify._check

    def recorded(seed, cases, name, *row):
        checked.append(name)
        return check(seed, cases, name, *row)

    monkeypatch.setattr(verify, "_check", recorded)
    names = [r.name for r in verify.run_all(order, 0, 2)]
    assert list(dict.fromkeys(checked)) == names
