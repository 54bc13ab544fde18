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

The carrier is ``qplane.XPolyCarrier``, named here only in annotations.  This
module reads from it ``order`` (N), ``tau_sign`` (s), ``zero()``, ``one()``,
``phi(u, k=1)`` (phi**k, any integer k), ``invert(u)`` (raises NotInvertible
when there is no inverse), ``q_element(k)`` (the scalar q**k, acting through
``u * q_element(k)``), ``element(components)``, which builds every extension
element, ``product(left, right)``, the components of the product of two elements
from theirs (the one twisted product, for ``ExtElement``), and
``coerce(value)``, a component, coefficient, coordinate or
operand as a carrier element (a TypeError or ValueError when it is none; an
operand is embedded as the tau**0 component).  ``verify``'s galois suite also
reads ``basis()``, a basis over the scalars Q(q), and nothing else.  Carrier
elements bring ``+ - * ==`` (also times a scalar), unary minus and a truth
value that is false only at zero.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

from .cyclotomic import Componentwise, fold_power, power

if TYPE_CHECKING:
    from .qplane import XPolyCarrier


class NotInvertible(ArithmeticError):
    """The element has no multiplicative inverse in its algebra."""


class NonInvertibleCoordinate(NotInvertible):
    """The finite difference of the chosen coordinate cannot be inverted."""


class KForm:
    """A homogeneous element tau**degree * coeff of the extension.

    The constructor coerces coeff through the carrier and folds tau**N =
    tau_sign with ``fold_power``: a degree outside 0..N-1 is reduced mod N.
    """

    __slots__ = ("carrier", "degree", "coeff")

    def __init__(self, carrier: XPolyCarrier, degree: int, coeff):
        self.carrier = carrier
        coeff = carrier.coerce(coeff)
        self.degree, self.coeff = fold_power(carrier.order, carrier.tau_sign, degree, coeff)

    def differential(self) -> KForm:
        """d(tau**k u) = tau**(k+1) (u - q**k phi(u))."""
        c = self.carrier
        k = self.degree
        return KForm(c, k + 1, self.coeff - c.phi(self.coeff) * c.q_element(k))

    def __eq__(self, other) -> bool:
        """Equal as extension elements: zero forms of any degrees are equal."""
        if not isinstance(other, KForm):
            return NotImplemented
        as_ext = ExtElement.from_forms
        return as_ext(self.carrier, [self]) == as_ext(other.carrier, [other])

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.coeff)

    def __repr__(self):
        return f"KForm(degree={self.degree}, coeff={self.coeff!r})"


class ExtElement(Componentwise):
    """An element sum_k tau**k u_k, stored by its components coerced through the carrier."""

    __slots__ = ("carrier", "components")

    def __init__(self, carrier: XPolyCarrier, components):
        components = tuple(map(carrier.coerce, components))
        if len(components) != carrier.order:
            raise ValueError("component count must equal the grading order")
        self.carrier = carrier
        self.components = components

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_component(carrier: XPolyCarrier, k: int, u) -> ExtElement:
        """tau**k u, with tau**N folded as in KForm."""
        f = KForm(carrier, k, u)
        comps = [carrier.zero()] * carrier.order
        comps[f.degree] = f.coeff
        return carrier.element(comps)

    @staticmethod
    def from_forms(carrier: XPolyCarrier, forms) -> ExtElement:
        """The sum of homogeneous forms over one carrier."""
        comps = [None] * carrier.order
        for f in forms:
            u = comps[f.degree]
            comps[f.degree] = f.coeff if u is None else u + f.coeff
        return carrier.element(carrier.zero() if u is None else u for u in comps)

    @staticmethod
    def embed(carrier: XPolyCarrier, u) -> ExtElement:
        return ExtElement.from_component(carrier, 0, u)

    @staticmethod
    def zero(carrier: XPolyCarrier) -> ExtElement:
        return carrier.element([carrier.zero()] * carrier.order)

    @staticmethod
    def one(carrier: XPolyCarrier) -> ExtElement:
        return ExtElement.from_component(carrier, 0, carrier.one())

    # -- structure -----------------------------------------------------------

    def _check(self, other: ExtElement):
        if self.carrier != other.carrier:
            raise ValueError("elements live over different carriers")

    _parts = property(operator.attrgetter("components"))

    def _new(self, parts) -> ExtElement:
        return self.carrier.element(parts)

    def _coerce(self, other) -> ExtElement | None:
        """other over this carrier: an extension element, or embedded by ``coerce``; else None."""
        if isinstance(other, ExtElement):
            self._check(other)
            return other
        try:
            return ExtElement.embed(self.carrier, other)
        except TypeError:
            return None

    def forms(self) -> list[KForm]:
        """The nonzero homogeneous components, in increasing degree."""
        c = self.carrier
        return [KForm(c, k, u) for k, u in enumerate(self.components) if u]

    def __mul__(self, other) -> ExtElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.carrier.element(self.carrier.product(self.components, o.components))

    def __rmul__(self, other) -> ExtElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElement.__mul__(o, self)

    def __pow__(self, k: int) -> ExtElement:
        return power(self, k, ExtElement.one(self.carrier))

    def scale(self, coeff) -> ExtElement:
        """Multiply every component by a scalar, through the carrier's ``*``."""
        return self.carrier.element(u * coeff for u in self.components)

    def scale_by_q(self, k: int) -> ExtElement:
        """Multiply by the central scalar q**k."""
        return self.scale(self.carrier.q_element(k))

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


def tau(carrier: XPolyCarrier, power: int = 1) -> ExtElement:
    """tau**power as an extension element; tau**N folds to tau_sign."""
    return ExtElement.from_component(carrier, power, carrier.one())


def q_commutator(v: ExtElement, u: ExtElement) -> ExtElement:
    """Graded q-commutator [v, u]_q: a b - q**(|a||b|) b a summed over the forms a of v, b of u.

    Summed over b first, it is v u minus theta_a(u) a for each form a of v, where theta_a(u)
    is u with its component b scaled by q**(|a| b): 1 + len(v.forms()) extension products.
    """
    v._check(u)
    c = v.carrier
    out = v * u
    for a in v.forms():
        theta = c.element(w * c.q_element(a.degree * b) for b, w in enumerate(u.components))
        out -= theta * ExtElement.from_forms(c, [a])
    return out


def differential(xi: ExtElement) -> ExtElement:
    """d(xi) = [tau, xi]_q, the sum of the differentials of its forms."""
    return ExtElement.from_forms(xi.carrier, (f.differential() for f in xi.forms()))


def delta(carrier: XPolyCarrier, u):
    """First-order difference Delta(u) = u - phi(u) on the carrier."""
    return u - carrier.phi(u)


class Coordinate:
    """A coordinate x of the carrier with Delta(x) and Delta(x)**-1.

    The constructor inverts Delta(x), once: raises NonInvertibleCoordinate
    when there is no inverse.  Every derivative along x reads the stored one.
    """

    __slots__ = ("carrier", "x", "delta_x", "delta_inv")

    def __init__(self, carrier: XPolyCarrier, x):
        x = carrier.coerce(x)
        dx = delta(carrier, x)
        try:
            inv = carrier.invert(dx)
        except NotInvertible as exc:
            raise NonInvertibleCoordinate(
                "coordinate has a non-invertible finite difference"
            ) from exc
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "delta_x", dx)
        object.__setattr__(self, "delta_inv", inv)

    def __setattr__(self, *_):
        raise AttributeError("Coordinate is immutable")

    def __eq__(self, other) -> bool:
        """Equal on carrier and x, which determine Delta(x) and its inverse."""
        if not isinstance(other, Coordinate):
            return NotImplemented
        return self.carrier == other.carrier and self.x == other.x

    __hash__ = None

    def __repr__(self):
        return f"Coordinate({self.carrier!r}, {self.x!r})"


def right_derivative(u, x: Coordinate):
    """du/dx = Delta(x)**-1 Delta(u)."""
    return x.delta_inv * delta(x.carrier, u)


def conjugation_dx(u, x: Coordinate):
    """The coefficient-transport u -> Delta(x)**-1 phi(u) Delta(x).

    This is the map that moves a carrier coefficient across dx:
    u * dx = dx * conjugation_dx(u).  It is an algebra endomorphism.
    """
    return x.delta_inv * x.carrier.phi(u) * x.delta_x


def change_of_variable(y: Coordinate, x: Coordinate):
    """Return (dy/dx, dx/dy) for two coordinates of one carrier."""
    return right_derivative(y.x, x), right_derivative(x.x, y)
