"""Graded structure of a semi-commutative Galois extension A[tau].

The extension is generated over a carrier algebra A by one element tau with
tau**N = s*1 (s = +1 or -1) and the commutation rule u*tau = tau*phi(u) for an
algebra endomorphism phi of A with phi**N = id.  Every element splits uniquely
as  xi = sum_k tau**k u_k,  which is the Z_N-grading used throughout.

The differential is the inner graded q-commutator with tau, where q is a fixed
primitive N-th root of unity in the carrier's scalar field.  On a homogeneous
element tau**k u it acts as tau**(k+1) (u - q**k phi(u)); it is nilpotent of
order exactly N and satisfies the graded q-Leibniz rule
d(uv) = d(u) v + q**|u| u d(v).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any


class NotInvertible(ArithmeticError):
    """The element has no multiplicative inverse in its algebra."""


class NonInvertibleCoordinate(NotInvertible):
    """The finite difference of the chosen coordinate cannot be inverted."""


class CarrierAlgebra(ABC):
    """The structure a carrier algebra adds to its elements' own arithmetic.

    Carrier elements provide ``+``, ``-``, ``*``, ``==``, unary minus and
    ``is_zero()``; the carrier supplies what is not a plain operator.
    ``order`` is N; ``tau_sign`` the sign s in tau**N = s*1.  ``q_element(k)``
    embeds the scalar q**k into the carrier, which keeps the grading code
    generic over the scalar field (cyclotomic for the quantum plane, plain
    rational for the quaternion instance where q = -1).
    """

    order: int
    tau_sign: int

    @abstractmethod
    def zero(self) -> Any: ...

    @abstractmethod
    def one(self) -> Any: ...

    @abstractmethod
    def phi(self, u) -> Any:
        """The twisting endomorphism; phi**order must be the identity."""

    @abstractmethod
    def invert(self, u) -> Any:
        """Multiplicative inverse; raises NotInvertible when there is none."""

    @abstractmethod
    def q_element(self, k: int) -> Any:
        """The scalar q**k as a carrier element."""

    def phi_power(self, u, k: int):
        for _ in range(k % self.order):
            u = self.phi(u)
        return u


class KForm:
    """A homogeneous element tau**degree * coeff of the extension.

    The constructor folds tau**N = tau_sign: a degree outside 0..N-1 is
    reduced mod N, and the coefficient changes sign once per wrap when
    tau_sign is -1.
    """

    __slots__ = ("carrier", "degree", "coeff")

    def __init__(self, carrier: CarrierAlgebra, degree: int, coeff):
        wraps, degree = divmod(degree, carrier.order)
        if wraps % 2 and carrier.tau_sign < 0:
            coeff = -coeff
        self.carrier = carrier
        self.degree = degree
        self.coeff = coeff

    def __mul__(self, other: KForm) -> KForm:
        """(tau**a u)(tau**b v) = tau**(a+b) phi**b(u) v."""
        if not isinstance(other, KForm):
            return NotImplemented
        if self.carrier != other.carrier:
            raise ValueError("forms live over different carriers")
        c = self.carrier
        return KForm(
            c, self.degree + other.degree, c.phi_power(self.coeff, other.degree) * other.coeff
        )

    def differential(self) -> KForm:
        """d(tau**k u) = tau**(k+1) (u - q**k phi(u))."""
        c = self.carrier
        k = self.degree
        return KForm(c, k + 1, self.coeff - c.q_element(k) * c.phi(self.coeff))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KForm):
            return NotImplemented
        if self.carrier != other.carrier:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.coeff == other.coeff

    __hash__ = None

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def __repr__(self):
        return f"KForm(degree={self.degree}, coeff={self.coeff!r})"


class ExtElement:
    """An element sum_k tau**k u_k of the extension, stored by components."""

    __slots__ = ("carrier", "components")

    def __init__(self, carrier: CarrierAlgebra, components):
        components = tuple(components)
        if len(components) != carrier.order:
            raise ValueError("component count must equal the grading order")
        self.carrier = carrier
        self.components = components

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_component(carrier: CarrierAlgebra, k: int, u) -> ExtElement:
        comps = [carrier.zero()] * carrier.order
        comps[k % carrier.order] = u
        return ExtElement(carrier, comps)

    @staticmethod
    def from_forms(carrier: CarrierAlgebra, forms) -> ExtElement:
        """The sum of homogeneous forms over one carrier."""
        comps = [carrier.zero()] * carrier.order
        for f in forms:
            comps[f.degree] = comps[f.degree] + f.coeff
        return ExtElement(carrier, comps)

    @staticmethod
    def embed(carrier: CarrierAlgebra, u) -> ExtElement:
        return ExtElement.from_component(carrier, 0, u)

    @staticmethod
    def zero(carrier: CarrierAlgebra) -> ExtElement:
        return ExtElement(carrier, [carrier.zero()] * carrier.order)

    @staticmethod
    def one(carrier: CarrierAlgebra) -> ExtElement:
        return ExtElement.from_component(carrier, 0, carrier.one())

    # -- structure -----------------------------------------------------------

    def _check(self, other: ExtElement):
        if self.carrier != other.carrier:
            raise ValueError("elements live over different carriers")

    def forms(self) -> list[KForm]:
        """The nonzero homogeneous components, in increasing degree."""
        c = self.carrier
        return [KForm(c, k, u) for k, u in enumerate(self.components) if not u.is_zero()]

    def __add__(self, other: ExtElement) -> ExtElement:
        self._check(other)
        return ExtElement(self.carrier, (a + b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> ExtElement:
        return ExtElement(self.carrier, (-a for a in self.components))

    def __sub__(self, other: ExtElement) -> ExtElement:
        return self + (-other)

    def __mul__(self, other: ExtElement) -> ExtElement:
        self._check(other)
        right = other.forms()
        return ExtElement.from_forms(self.carrier, (a * b for a in self.forms() for b in right))

    def scale(self, coeff) -> ExtElement:
        return ExtElement(self.carrier, (u.scale(coeff) for u in self.components))

    def scale_by_q(self, k: int) -> ExtElement:
        """Multiply by the central scalar q**k."""
        qk = self.carrier.q_element(k)
        return ExtElement(self.carrier, (qk * u for u in self.components))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtElement):
            return NotImplemented
        if self.carrier != other.carrier:
            return False
        return self.components == other.components

    __hash__ = None

    def is_zero(self) -> bool:
        return all(u.is_zero() for u in self.components)

    def is_homogeneous(self) -> bool:
        return len(self.forms()) <= 1

    def degree(self) -> int | None:
        """Degree of a homogeneous element; 0 for zero; None if mixed."""
        live = self.forms()
        if not live:
            return 0
        if len(live) > 1:
            return None
        return live[0].degree

    def component(self, k: int):
        return self.components[k % self.carrier.order]

    def __repr__(self):
        body = ", ".join(repr(u) for u in self.components)
        return f"ExtElement[{body}]"


def tau(carrier: CarrierAlgebra, power: int = 1) -> ExtElement:
    """tau**power as an extension element (power taken mod N, no sign fold)."""
    return ExtElement.from_component(carrier, power, carrier.one())


def q_commutator(v: ExtElement, u: ExtElement) -> ExtElement:
    """Graded q-commutator [v, u]_q = sum_{a,b} (v_a u_b - q**(ab) u_b v_a)."""
    v._check(u)
    c = v.carrier
    out = ExtElement.zero(c)
    for a, va in enumerate(v.components):
        if va.is_zero():
            continue
        ea = ExtElement.from_component(c, a, va)
        for b, ub in enumerate(u.components):
            if ub.is_zero():
                continue
            eb = ExtElement.from_component(c, b, ub)
            out = out + ea * eb - (eb * ea).scale_by_q(a * b)
    return out


def differential(xi: ExtElement) -> ExtElement:
    """d(xi) = [tau, xi]_q, the sum of the differentials of its forms."""
    return ExtElement.from_forms(xi.carrier, (f.differential() for f in xi.forms()))


def delta(carrier: CarrierAlgebra, u):
    """First-order difference Delta(u) = u - phi(u) on the carrier."""
    return u - carrier.phi(u)


def _delta_inverse(carrier: CarrierAlgebra, x):
    try:
        return carrier.invert(delta(carrier, x))
    except NotInvertible as exc:
        raise NonInvertibleCoordinate(
            "coordinate has a non-invertible finite difference"
        ) from exc


def right_derivative(carrier: CarrierAlgebra, u, x):
    """du/dx = Delta(x)**-1 Delta(u); needs Delta(x) invertible."""
    return _delta_inverse(carrier, x) * delta(carrier, u)


def conjugation_dx(carrier: CarrierAlgebra, u, x):
    """The coefficient-transport u -> Delta(x)**-1 phi(u) Delta(x).

    This is the map that moves a carrier coefficient across dx:
    u * dx = dx * conjugation_dx(u).  It is an algebra endomorphism.
    """
    dx = delta(carrier, x)
    return _delta_inverse(carrier, x) * carrier.phi(u) * dx


def change_of_variable(carrier: CarrierAlgebra, y, x):
    """Return (dy/dx, dx/dy); both coordinates need invertible differences."""
    return (
        right_derivative(carrier, y, x),
        right_derivative(carrier, x, y),
    )
