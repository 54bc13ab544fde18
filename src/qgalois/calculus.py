"""Higher-order calculus of the extension: coordinate families and k-forms.

For a coordinate x with invertible difference Delta(x), three families of
carrier elements organize the whole calculus (all indices start at 1):

* dx_pow[k-1]  = Q_k with (dx)**k = tau**k Q_k,
  Q_1 = Delta(x), Q_{k+1} = phi(Q_k) Delta(x);
* dkx[k-1]     = P_k with d**k x = tau**k P_k,
  P_1 = Delta(x), P_{k+1} = P_k - q**k phi(P_k);
* connection[k-1] = Phi_k with d((dx)**k) = (dx)**(k+1) Phi_k,
  Phi_1 = Q_2**-1 P_2, Phi_{k+1} = conjugation_dx(Phi_k) + q**k Phi_1.

Nilpotency d**N = 0 forces P_N = 0 and sum_j phi**j(P_{N-1}) = 0; these are
reported by identity_check rather than assumed.

A k-form is tau**k u; in the (dx)**k right-module basis its differential is
the covariant-derivative-like operator u -> q**k du/dx + Phi_k u.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from .cyclotomic import CycScalar
from .galois import Coordinate, KForm, conjugation_dx, delta
from .qplane import XPoly, XPolyCarrier


class CheckResult:
    """Outcome of one verified identity; when it fails, the first nonzero
    residual is kept, with the operands the identity was checked on."""

    def __init__(self, name: str, passed: bool, residual: Any = None, operands: tuple = ()):
        self.name = name
        self.passed = passed
        self.residual = residual
        self.operands = operands

    def __bool__(self) -> bool:
        return self.passed


class PolyFamilies:
    """The families of one coordinate; dx_pow_inv[0] is its
    Delta(x)**-1 = coordinate.delta_inv, and the other inverse powers come from Q_N**-1."""

    def __init__(self, coordinate: Coordinate, dkx, dx_pow, dx_pow_inv, connection):
        self.coordinate = coordinate
        self.dkx = dkx                # P_1 .. P_N
        self.dx_pow = dx_pow          # Q_1 .. Q_N
        self.dx_pow_inv = dx_pow_inv  # Q_1**-1 .. Q_N**-1
        self.connection = connection  # Phi_1 .. Phi_{N-1}

    @property
    def carrier(self) -> XPolyCarrier:
        return self.coordinate.carrier

    @property
    def order(self) -> int:
        return self.carrier.order


def build_families(carrier: XPolyCarrier, x) -> PolyFamilies:
    """All families from the inversions of Delta(x) and of Q_N; raises
    NonInvertibleCoordinate when Delta(x) has no inverse.

    phi**N = id makes phi an automorphism, so Q_N = phi**k(Q_{N-k}) Q_k for each
    k, and Q_k**-1 = Q_N**-1 phi**k(Q_{N-k}) with Q_0 = 1.  Q_N, the norm of
    Delta(x), is phi-invariant, so a constant, and its inverse is cheap.
    """
    n = carrier.order
    coord = Coordinate(carrier, x)
    dx, dx_inv = coord.delta_x, coord.delta_inv

    dx_pow, dkx = [dx], [dx]
    for k in range(1, n):
        dx_pow.append(carrier.phi(dx_pow[-1]) * dx)
        dkx.append(dkx[-1] - carrier.phi(dkx[-1]) * carrier.q_element(k))
    qn_inv = carrier.invert(dx_pow[-1])
    dx_pow_inv = [dx_inv, *(qn_inv * carrier.phi(dx_pow[-1 - k], k) for k in range(2, n)), qn_inv]

    phi1 = dx_pow_inv[1] * dkx[1]
    connection = [phi1]
    for k in range(1, n - 1):
        connection.append(conjugation_dx(connection[-1], coord) + phi1 * carrier.q_element(k))

    return PolyFamilies(
        coordinate=coord,
        dkx=tuple(dkx),
        dx_pow=tuple(dx_pow),
        dx_pow_inv=tuple(dx_pow_inv),
        connection=tuple(connection),
    )


def vanishing_laws(fam: PolyFamilies) -> list[tuple[str, Callable[[], list]]]:
    """The two vanishing identities equivalent to d**N = 0, as (name, law) pairs."""
    c, n = fam.carrier, fam.order
    return [
        ("dkx_top_vanishes", lambda: [fam.dkx[n - 1]]),
        ("dkx_twisted_sum_vanishes",
         lambda: [sum((c.phi(fam.dkx[n - 2], j) for j in range(n)), c.zero())]),
    ]


def identity_check(fam: PolyFamilies) -> list[CheckResult]:
    """The rows of vanishing_laws, each with its residual when it fails; never raises."""
    return [CheckResult(name, not r, r or None) for name, law in vanishing_laws(fam) for r in law()]


def to_dx_basis(form: KForm, fam: PolyFamilies):
    """The coefficient r with form = (dx)**k * r (right-module basis)."""
    if form.degree == 0:
        return form.coeff
    return fam.dx_pow_inv[form.degree - 1] * form.coeff


def from_dx_basis(fam: PolyFamilies, k: int, r) -> KForm:
    """(dx)**k * r as a form in the tau basis, for 0 <= k <= N.

    k = N is allowed: (dx)**N = tau**N Q_N folds to the degree-0 carrier
    element tau_sign * Q_N.
    """
    if not 0 <= k <= fam.order:
        raise ValueError("k must lie in 0..N")
    return KForm(fam.carrier, k, fam.dx_pow[k - 1] * r if k else r)


def covariant_operator(fam: PolyFamilies, k: int) -> Callable[[Any], Any]:
    """The dx-basis differential on k-forms: u -> q**k du/dx + Phi_k u.

    Sends the coefficient of (dx)**k to the coefficient of (dx)**(k+1) in the
    differential; defined for 1 <= k <= N-1.
    """
    if not 1 <= k <= fam.order - 1:
        raise ValueError("k must lie in 1..N-1")
    c = fam.carrier
    qk = c.q_element(k)
    dx_inv = fam.dx_pow_inv[0]
    phik = fam.connection[k - 1]

    def apply(u):
        return dx_inv * delta(c, u) * qk + phik * u

    return apply


def higher_differential_of_x(fam: PolyFamilies, k: int) -> KForm:
    """d**k x = tau**k P_k as a form, for 1 <= k <= N."""
    if not 1 <= k <= fam.order:
        raise ValueError("k must lie in 1..N")
    return KForm(fam.carrier, k, fam.dkx[k - 1])


# -- quantum-plane specific operators -----------------------------------------


def partial_derivative(r: XPoly) -> XPoly:
    """The deformed derivative on the x-subalgebra.

    partial(r) = (1-q)**-1 x**(N-1) (r - r(qx)); on monomials this is the
    q-power rule partial(x**k) = [k]_q x**(k-1).
    """
    n = r.order
    return XPoly.monomial(n, n - 1, _one_minus_q_inverse(n)) * delta(XPolyCarrier(n), r)


def higher_delta(k: int, r: XPoly) -> XPoly:
    """Degree-k twisted difference quotient, definition route.

    (Delta_q x)**-1 (q**-k r - q**k r(qx)), where Delta_q x = (1-q) x.  The
    inverse is the families' Delta(x)**-1, computed by XPoly.inverse, not
    partial_derivative's closed form, so the two routes stay independent.
    """
    n = r.order
    lhs = r.scale(CycScalar.q_power(n, -k)) - r.twist(1).scale(CycScalar.q_power(n, k))
    return q_plane_families(n).dx_pow_inv[0] * lhs


def higher_delta_closed(k: int, r: XPoly) -> XPoly:
    """Same operator in closed form: q**k partial(r) + c_k x**(N-1) r with
    c_k = (q**-k - q**k) / (1 - q), the delta_coefficient."""
    n = r.order
    return partial_derivative(r).scale(CycScalar.q_power(n, k)) + XPoly.monomial(
        n, n - 1, delta_coefficient(n, k)
    ) * r


def delta_coefficient(order: int, k: int) -> CycScalar:
    """The zero-order coefficient (q**-k - q**k)/(1 - q) of higher_delta."""
    return (CycScalar.q_power(order, -k) - CycScalar.q_power(order, k)) * _one_minus_q_inverse(order)


@functools.lru_cache(maxsize=None)
def _one_minus_q_inverse(order: int) -> CycScalar:
    """(1 - q)**-1, inverted once per order by CycScalar.inverse."""
    return (CycScalar.one(order) - CycScalar.q(order)).inverse()


@functools.lru_cache(maxsize=None)
def q_plane_families(order: int) -> PolyFamilies:
    """Families for the canonical coordinate x on the reduced quantum plane."""
    carrier = XPolyCarrier(order)
    return build_families(carrier, carrier.x())
