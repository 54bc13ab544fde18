"""Exact arithmetic in the cyclotomic field Q(q), q a primitive N-th root of unity.

Working modulo t**N - 1 would introduce zero divisors, so scalars live in
Q[t] / (Phi_N(t)) with Phi_N the N-th cyclotomic polynomial.  That quotient is
a field: every nonzero scalar is invertible, and q = [t] has multiplicative
order exactly N.  Elements are kept in canonical reduced form, a coefficient
vector over Q of length deg(Phi_N) = euler_phi(N), stored as int numerators
over one positive denominator in lowest terms (FLINT's ``nf_elem`` layout).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from fractions import Fraction

# The exact rationals, the only coefficients a scalar takes: a float, str or Decimal is a TypeError.
_EXACT = (int, Fraction)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Ascending coefficients of the order-th cyclotomic polynomial.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if order < 1:
        raise ValueError("order must be positive")
    out = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            out, rem = _poly_divmod(out, cyclotomic_polynomial(d))
            if any(rem):
                raise ValueError("division is not exact")
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _residues(order: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(deg Phi_N, the residues of t^0 .. t^(N-1)); row k is also q^k's canonical form."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    cur = [1] + [0] * (deg - 1)
    rows = [tuple(cur)]
    for _ in range(order - 1):
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for j in range(deg):
                cur[j] -= lead * phi[j]
        rows.append(tuple(cur))
    return deg, tuple(rows)


def _reduce(order: int, vec, den: int = 1) -> CycScalar:
    """The scalar (sum_m vec[m] t^m) / den, for int coefficients of any length and den > 0.

    Coefficients below deg Phi_N are kept as they are.  Phi_N divides t^N - 1,
    so every higher t^m folds through the residue of t^(m mod N).  The ints
    and den are then divided by their gcd, so each value has one form.
    """
    deg, rows = _residues(order)
    acc = list(vec[:deg]) + [0] * (deg - len(vec))
    for m in range(deg, len(vec)):
        c = vec[m]
        if c:
            for j, rj in enumerate(rows[m % order]):
                if rj:
                    acc[j] += c * rj
    g = math.gcd(den, *acc)
    return _form(order, tuple(c // g for c in acc) if g != 1 else tuple(acc), den // g)


def _form(order: int, num: tuple[int, ...], den: int) -> CycScalar:
    """The scalar with these fields, which must already be canonical."""
    out = object.__new__(CycScalar)
    object.__setattr__(out, "order", order)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    return out


class Componentwise:
    """Sum, difference, equality and the zero test of a vector in a fixed basis.

    The x-subalgebra, the extension and the N x N matrices are each a Q(q)-vector
    space in a fixed basis, where these rules act coefficient by coefficient.  A
    subclass supplies ``_parts``, its coefficient tuple; ``_new(parts)``, the
    element of the same space with those coefficients; and ``_coerce(other)``,
    which returns ``other`` as such an element, None for a foreign operand
    (the operator then returns NotImplemented), and raises ValueError for an
    element of another order or carrier (which ``==`` reads as unequal).  A zero
    part of the right operand of a sum or difference leaves the left part as it is.
    """

    __slots__ = ()

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new(tuple(a + b if b else a for a, b in zip(self._parts, o._parts)))

    __radd__ = __add__

    def __neg__(self):
        return self._new(tuple(map(operator.neg, self._parts)))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new(tuple(a - b if b else a for a, b in zip(self._parts, o._parts)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new(tuple(map(operator.sub, o._parts, self._parts)))

    def __eq__(self, other) -> bool:
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return self._parts == o._parts

    __hash__ = None

    def __bool__(self) -> bool:
        return any(self._parts)


class CycScalar:
    """A scalar in Q(q) with q of multiplicative order ``order``.

    ``coeffs`` is the canonical residue mod the cyclotomic polynomial,
    ascending powers of q, always of length euler_phi(order), as Fractions in
    lowest terms.  It is a view of the stored form: the ints ``num`` over the
    positive int ``den``, with no common factor.
    """

    __slots__ = ("order", "num", "den")

    def __new__(cls, order: int, coeffs):
        if len(coeffs) != _residues(order)[0]:
            raise ValueError("coefficient vector has wrong length")
        return _reduce(order, *_integral(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("CycScalar is immutable")

    def __reduce__(self):
        return _reduce, (self.order, self.num, self.den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(order: int, coeffs) -> CycScalar:
        """Build from an arbitrary-length list of exact coefficients, reducing mod Phi."""
        return _reduce(order, *_integral(coeffs))

    @staticmethod
    def from_rational(order: int, value) -> CycScalar:
        """An int, or a Fraction p/q in lowest terms, is already canonical as (p, 0, ..., 0)/q."""
        (p,), den = _integral((value,))
        return _form(order, (p,) + (0,) * (_residues(order)[0] - 1), den)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def zero(order: int) -> CycScalar:
        """One shared zero per order; safe because scalars are immutable."""
        return CycScalar.from_rational(order, 0)

    @staticmethod
    def one(order: int) -> CycScalar:
        return CycScalar.q_power(order, 0)

    @staticmethod
    def q(order: int) -> CycScalar:
        return CycScalar.q_power(order, 1)

    @staticmethod
    def q_power(order: int, k: int) -> CycScalar:
        """The canonical form of q**k for any integer k, shared like zero."""
        return _q_powers(order)[k % order]

    # -- ring structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other) -> "CycScalar | None":
        """The rule for what a scalar is: a CycScalar of this order, an int or a Fraction."""
        if isinstance(other, CycScalar):
            if other.order != self.order:
                raise ValueError("order mismatch")
            return other
        if isinstance(other, _EXACT):
            return CycScalar.from_rational(self.order, other)
        return None

    def _combine(self, other, op):
        """op(self, other) coefficientwise over a common denominator; NotImplemented for a non-scalar."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not any(o.num):  # a zero operand leaves the other unfolded, negated for 0 - b
            return self
        if not any(self.num):
            return o if op is operator.add else -o
        a, b, d, e = self.num, o.num, self.den, o.den
        if d != e:
            a = [c * e for c in a]
            b = [c * d for c in b]
            d *= e
        return _reduce(self.order, list(map(op, a, b)), d)

    # Code objects of their own, so a profile tells scalar sums from the other kinds.
    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return (-self)._combine(other, operator.add)

    def __neg__(self):
        """The negated ints over the same den: still canonical, so no fold and no gcd."""
        return _form(self.order, tuple(-c for c in self.num), self.den)

    def __eq__(self, other) -> bool:
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __bool__(self) -> bool:
        return any(self.num)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return dot(self.order, ((self, o),))

    __rmul__ = __mul__

    def galois(self, k: int) -> CycScalar:
        """The image under the automorphism q -> q**k of Q(q), for k prime to the order."""
        if math.gcd(k, self.order) != 1:
            raise ValueError(f"q -> q^{k} is no automorphism: {k} is not prime to the order {self.order}")
        vec = [0] * self.order
        for m, c in enumerate(self.num):
            vec[k * m % self.order] = c
        return _reduce(self.order, vec, self.den)

    def inverse(self) -> CycScalar:
        """a**-1 = den c / N(num) for a = num / den, c the product of num's conjugates q -> q**k, 1 < k < N.

        Each ``galois(k)`` maps Z[q] onto itself, so c is integral, and so is N(num) = num c.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        n, a = self.order, _reduce(self.order, self.num)  # num, an integral scalar
        c = CycScalar.one(n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                c = dot(n, ((c, a.galois(k)),))
        norm = dot(n, ((a, c),)).num[0]
        sign = 1 if norm > 0 else -1
        return _reduce(n, [sign * self.den * x for x in c.num], sign * norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if isinstance(k, int) and k < 0:
            return self.inverse() ** -k
        return power(self, k, CycScalar.one(self.order))

    # -- comparisons and views ----------------------------------------------

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.order, self.num, self.den))

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar has a nontrivial q part")
        return Fraction(self.num[0], self.den)

    def embed(self) -> complex:
        """Numeric image under q -> exp(2*pi*i/order)."""
        zeta = cmath.exp(2j * cmath.pi / self.order)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * zeta + complex(c)
        return acc

    def __repr__(self):
        return f"CycScalar({self.order}, {self!s})"

    def __str__(self):
        return render_terms((c, (("q", j),)) for j, c in enumerate(self.coeffs))


@functools.lru_cache(maxsize=None)
def _q_powers(order: int) -> tuple[CycScalar, ...]:
    """q**0 .. q**(order-1) as scalars, built once per order."""
    return tuple(_reduce(order, row) for row in _residues(order)[1])


def power(base, k: int, one):
    """base**k by square-and-multiply; NotImplemented unless k is an int >= 0."""
    if not isinstance(k, int) or k < 0:
        return NotImplemented
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def fold_power(order: int, sign: int, k: int, coeff):
    """g**k coeff as (k mod N, sign**(k div N) coeff), for a generator g with g**N = sign = +-1."""
    wraps, k = divmod(k, order)
    return k, -coeff if wraps % 2 and sign < 0 else coeff


def render_terms(terms) -> str:
    """The sum of (coefficient, monomial) terms as text; "0" when every coefficient is zero.

    A monomial is a sequence of (symbol, exponent) factors.  Before a
    monomial a coefficient of 1 or -1 is dropped to its sign, and a scalar of
    several terms is parenthesised; a term's leading minus becomes the operator
    joining it to the terms before.
    """
    out = ""
    for c, mono in terms:
        if not c:
            continue
        body = str(c)
        if " " in body:  # a rendered scalar holds a space exactly when it has several terms
            body = f"({body})"
        factors = "*".join([s if e == 1 else f"{s}^{e}" for s, e in mono if e])
        if factors:
            body = body[:-1] + factors if body in ("1", "-1") else f"{body}*{factors}"
        if not out:
            out = body
        elif body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out or "0"


def _integral(values) -> tuple[list[int], int]:
    """(ints, den) with values[m] = ints[m] / den, den the least common denominator."""
    values = list(values)
    for v in values:
        if not isinstance(v, _EXACT):
            raise TypeError(f"a coefficient must be an int or a Fraction, not {type(v).__name__}")
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _poly_divmod(a: list[int], b) -> tuple[list[int], list[int]]:
    """Quotient and remainder in Z[t] of a by the monic b, with len(a) >= len(b)."""
    a = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            quot[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    return quot, a[:db]


def dot(order: int, pairs) -> CycScalar:
    """The sum of a * b over the pairs (a, b) of scalars of this order, reduced once.

    Each product is a convolution of int numerators, neither folded mod Phi_N
    nor divided by a gcd; the running sum is kept over the lcm of the
    denominators so far.  ``_reduce`` then acts once, on the total (deferred
    reduction, as in Dumas, Giorgi and Pernet's FFLAS, ACM TOMS 35(3), 2008).
    An empty sum is the shared zero.
    """
    acc = None
    for a, b in pairs:
        d = a.den * b.den
        if acc is None:
            acc, den = [0] * (2 * len(a.num) - 1), d
        elif den % d:
            s = d // math.gcd(den, d)
            acc = [c * s for c in acc]
            den *= s
        m = den // d
        for i, x in enumerate(a.num):
            if x:
                x *= m
                for j, y in enumerate(b.num):
                    if y:
                        acc[i + j] += x * y
    return CycScalar.zero(order) if acc is None else _reduce(order, acc, den)


def packed_sums(order: int, left, right, sums: dict) -> dict:
    """Each sum of sign * left[i] * right[j] * q**e over its terms (i, j, e, sign), by sums' keys.

    Kronecker substitution (Kronecker 1882; Harvey, J. Symbolic Comput. 44(10), 2009): each
    numerator, over its side's common denominator, is packed once as its value at t = 2**k,
    k the ``_digit_width``, so q**e is a shift by e*k bits and a product one C big-int multiply.
    A nonzero sum is unpacked by ``_digits`` and folded once by ``_reduce``."""
    dl = math.lcm(*(a.den for a in left))
    dr = math.lcm(*(b.den for b in right))
    ls = [list(map((dl // a.den).__mul__, a.num)) for a in left]
    rs = [list(map((dr // b.den).__mul__, b.num)) for b in right]
    k = _digit_width(ls, rs, max(map(len, sums.values()), default=0) * _residues(order)[0])
    pl = [sum(c << m * k for m, c in enumerate(v)) for v in ls]
    pr = [sum(c << m * k for m, c in enumerate(v)) for v in rs]
    out = {}
    for key, terms in sums.items():
        acc = sum(sign * (pl[i] * pr[j] << e * k) for i, j, e, sign in terms)
        out[key] = _reduce(order, _digits(acc, k), dl * dr) if acc else CycScalar.zero(order)
    return out


def _digit_width(left, right, count: int) -> int:
    """Bits that hold, with its sign, each digit of a sum of count products of a left and a right digit."""
    bits = [max((abs(c) for v in side for c in v), default=0).bit_length() for side in (left, right)]
    return sum(bits) + count.bit_length() + 1


def _digits(acc: int, k: int) -> list[int]:
    """The signed base-2**k digits of acc, lowest first; a negative digit borrows 1 from the next."""
    out, mask, half = [], (1 << k) - 1, 1 << (k - 1)
    while acc:
        out.append(((acc + half) & mask) - half)
        acc = (acc - out[-1]) >> k
    return out


def q_integer(k: int, order: int) -> CycScalar:
    """[k]_q = 1 + q + ... + q**(k-1); [0]_q = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return CycScalar.from_poly(order, [1] * k)


def q_factorial(k: int, order: int) -> CycScalar:
    """[k]_q! = [1]_q [2]_q ... [k]_q; [0]_q! = 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = CycScalar.one(order)
    for j in range(1, k + 1):
        acc = acc * q_integer(j, order)
    return acc
