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
from dataclasses import dataclass
from typing import Any, Callable

from .cyclotomic import CycScalar
from .galois import (
    CarrierAlgebra,
    KForm,
    NonInvertibleCoordinate,
    NotInvertible,
    conjugation_dx,
    delta,
    right_derivative,
)
from .qplane import XPoly, XPolyCarrier


@dataclass
class CheckResult:
    """Outcome of one verified identity; residual is kept when it fails."""

    name: str
    passed: bool
    residual: Any = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass
class PolyFamilies:
    """The coordinate families over one carrier and coordinate."""

    carrier: CarrierAlgebra
    x: Any
    delta_x: Any
    dkx: tuple          # P_1 .. P_N
    dx_pow: tuple       # Q_1 .. Q_N
    dx_pow_inv: tuple   # Q_1**-1 .. Q_N**-1
    connection: tuple   # Phi_1 .. Phi_{N-1}

    @property
    def order(self) -> int:
        return self.carrier.order


def build_families(carrier: CarrierAlgebra, x) -> PolyFamilies:
    """Compute all families; raises NonInvertibleCoordinate if Delta(x) or any
    of its phi-images cannot be inverted."""
    n = carrier.order
    dx = delta(carrier, x)
    twisted = [dx]
    for _ in range(n - 1):
        twisted.append(carrier.phi(twisted[-1]))
    try:
        twisted_inv = [carrier.invert(t) for t in twisted]
    except NotInvertible as exc:
        raise NonInvertibleCoordinate(
            "coordinate difference chain is not invertible"
        ) from exc

    dx_pow = [dx]
    for k in range(1, n):
        dx_pow.append(carrier.phi(dx_pow[-1]) * dx)

    # (Q_k)**-1 = Delta(x)**-1 phi(Delta(x))**-1 ... phi**(k-1)(Delta(x))**-1
    dx_pow_inv = []
    acc = twisted_inv[0]
    dx_pow_inv.append(acc)
    for k in range(1, n):
        acc = acc * twisted_inv[k]
        dx_pow_inv.append(acc)

    dkx = [dx]
    for k in range(1, n):
        prev = dkx[-1]
        dkx.append(prev - carrier.q_element(k) * carrier.phi(prev))

    phi1 = dx_pow_inv[1] * dkx[1]
    connection = [phi1]
    for k in range(1, n - 1):
        connection.append(
            conjugation_dx(carrier, connection[-1], x) + carrier.q_element(k) * phi1
        )

    return PolyFamilies(
        carrier=carrier,
        x=x,
        delta_x=dx,
        dkx=tuple(dkx),
        dx_pow=tuple(dx_pow),
        dx_pow_inv=tuple(dx_pow_inv),
        connection=tuple(connection),
    )


def identity_check(fam: PolyFamilies) -> list[CheckResult]:
    """The two vanishing identities equivalent to d**N = 0; never raises."""
    c = fam.carrier
    n = c.order
    top = fam.dkx[n - 1]
    out = [CheckResult("dkx_top_vanishes", top.is_zero(), None if top.is_zero() else top)]
    acc = c.zero()
    second = fam.dkx[n - 2] if n >= 2 else fam.dkx[0]
    for j in range(n):
        acc = acc + c.phi_power(second, j)
    out.append(
        CheckResult("dkx_twisted_sum_vanishes", acc.is_zero(), None if acc.is_zero() else acc)
    )
    return out


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
    phik = fam.connection[k - 1]

    def apply(u):
        return qk * right_derivative(c, u, fam.x) + phik * u

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
    dq = r - r.twist(1)
    lead = (CycScalar.one(n) - CycScalar.q(n)).inverse()
    return XPoly.monomial(n, n - 1, lead) * dq


def higher_delta(k: int, r: XPoly) -> XPoly:
    """Degree-k twisted difference quotient, definition route.

    (Delta_q x)**-1 (q**-k r - q**k r(qx)), where Delta_q x = (1-q) x.
    """
    n = r.order
    dqx = XPoly.x(n).scale(CycScalar.one(n) - CycScalar.q(n))
    lhs = r.scale(CycScalar.q_power(n, -k)) - r.twist(1).scale(CycScalar.q_power(n, k))
    return dqx.inverse() * lhs


def higher_delta_closed(k: int, r: XPoly) -> XPoly:
    """Same operator in closed form: q**k partial(r) + c_k x**(N-1) r with
    c_k = (q**-k - q**k) / (1 - q), the delta_coefficient."""
    n = r.order
    return partial_derivative(r).scale(CycScalar.q_power(n, k)) + XPoly.monomial(
        n, n - 1, delta_coefficient(n, k)
    ) * r


def delta_coefficient(order: int, k: int) -> CycScalar:
    """The zero-order coefficient (q**-k - q**k)/(1 - q) of higher_delta."""
    return (CycScalar.q_power(order, -k) - CycScalar.q_power(order, k)) / (
        CycScalar.one(order) - CycScalar.q(order)
    )


@functools.lru_cache(maxsize=None)
def q_plane_families(order: int) -> PolyFamilies:
    """Families for the canonical coordinate x on the reduced quantum plane."""
    carrier = XPolyCarrier(order)
    return build_families(carrier, carrier.x())
