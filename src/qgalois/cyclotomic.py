"""Exact arithmetic in the cyclotomic field Q(q), q a primitive N-th root of unity.

Working modulo t**N - 1 would introduce zero divisors, so scalars live in
Q[t] / (Phi_N(t)) with Phi_N the N-th cyclotomic polynomial.  That quotient is
a field: every nonzero scalar is invertible, and q = [t] has multiplicative
order exactly N.  Elements are kept in canonical reduced form, a coefficient
vector over Q of length deg(Phi_N) = euler_phi(N).
"""

from __future__ import annotations

import cmath
import functools
from fractions import Fraction

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_divexact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact long division of integer polynomials; divisor must be monic."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num[:dd]):
        raise ValueError("division is not exact")
    return out


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
    num = [-1] + [0] * (order - 1) + [1]
    out = num
    for d in range(1, order):
        if order % d == 0:
            out = _poly_divexact(out, cyclotomic_polynomial(d))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _context(order: int) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Per-order reduction data: (degree, residues of t^m, residues of q^k).

    The first table covers monomials t^m for 0 <= m <= 2*degree - 2 (enough to
    reduce any product of two canonical forms); the second gives the canonical
    form of q^k for 0 <= k < order.
    """
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    top = max(2 * deg - 2, order - 1)
    rows: list[tuple[int, ...]] = []
    cur = [0] * deg
    cur[0] = 1
    rows.append(tuple(cur))
    for _ in range(top):
        lead = cur[-1]
        nxt = [0] + cur[:-1]
        if lead:
            for j in range(deg):
                nxt[j] -= lead * phi[j]
        cur = nxt
        rows.append(tuple(cur))
    powers = tuple(rows[k] for k in range(order))
    return deg, tuple(rows), powers


class CycScalar:
    """A scalar in Q(q) with q of multiplicative order ``order``.

    ``coeffs`` is the canonical residue mod the cyclotomic polynomial,
    ascending powers of q, always of length euler_phi(order).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        deg, _, _ = _context(order)
        if len(coeffs) != deg:
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("CycScalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(order: int, coeffs) -> CycScalar:
        """Build from an arbitrary-length coefficient list, reducing mod Phi."""
        deg, rows, _ = _context(order)
        acc = [_ZERO] * deg
        for m, c in enumerate(coeffs):
            c = Fraction(c)
            if not c:
                continue
            # q**order == 1, so large exponents fold mod order first
            row = rows[m] if m < len(rows) else rows[m % order]
            for j, rj in enumerate(row):
                if rj:
                    acc[j] += c * rj
        return CycScalar(order, tuple(acc))

    @staticmethod
    def from_rational(order: int, value) -> CycScalar:
        deg, _, _ = _context(order)
        coeffs = [_ZERO] * deg
        coeffs[0] = Fraction(value)
        return CycScalar(order, tuple(coeffs))

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def zero(order: int) -> CycScalar:
        """One shared zero per order; safe because scalars are immutable."""
        return CycScalar.from_rational(order, 0)

    @staticmethod
    def one(order: int) -> CycScalar:
        return CycScalar.from_rational(order, 1)

    @staticmethod
    def q(order: int) -> CycScalar:
        return CycScalar.q_power(order, 1)

    @staticmethod
    def q_power(order: int, k: int) -> CycScalar:
        """The canonical form of q**k for any integer k, shared like zero."""
        return _q_powers(order)[k % order]

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "CycScalar | None":
        if isinstance(other, CycScalar):
            if other.order != self.order:
                raise ValueError("order mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return CycScalar.from_rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycScalar(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycScalar(self.order, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        deg, rows, _ = _context(self.order)
        a, b = self.coeffs, o.coeffs
        conv = [_ZERO] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
        acc = list(conv[:deg])
        for m in range(deg, 2 * deg - 1):
            c = conv[m]
            if c:
                row = rows[m]
                for j, rj in enumerate(row):
                    if rj:
                        acc[j] += c * rj
        return CycScalar(self.order, tuple(acc))

    __rmul__ = __mul__

    def inverse(self) -> CycScalar:
        """Multiplicative inverse via the extended Euclidean algorithm in Q[t]."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while any(r1):
            quot, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(quot, s1))
        # r0 is a nonzero constant: Phi is irreducible over Q
        lead = next(c for c in reversed(r0) if c)
        inv = [c / lead for c in s0]
        return CycScalar.from_poly(self.order, inv)

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
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, CycScalar.one(self.order))

    # -- comparisons and views ----------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        if all(c == 0 for c in self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar has a nontrivial q part")
        return self.coeffs[0]

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
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                body = str(c)
            else:
                mono = "q" if j == 1 else f"q^{j}"
                if c == 1:
                    body = mono
                elif c == -1:
                    body = "-" + mono
                else:
                    body = f"{c}*{mono}"
            parts.append(body)
        return join_terms(parts)


@functools.lru_cache(maxsize=None)
def _q_powers(order: int) -> tuple[CycScalar, ...]:
    """q**0 .. q**(order-1) as scalars, built once per order."""
    _, _, powers = _context(order)
    return tuple(CycScalar(order, tuple(Fraction(c) for c in row)) for row in powers)


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


def join_terms(parts: list[str]) -> str:
    """Join rendered terms with + and -, a term's leading minus becoming the operator."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder in Q[t]; b need not be monic."""
    a = list(a)
    db = max(i for i, c in enumerate(b) if c)
    lead = b[db]
    if len(a) <= db:
        return [_ZERO], a
    quot = [_ZERO] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            f = c / lead
            quot[i - db] = f
            for j in range(db + 1):
                a[i - db + j] -= f * b[j]
    return quot, a[:db]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [_ZERO] * (n - len(a))
    b = b + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def q_integer(k: int, order: int) -> CycScalar:
    """[k]_q = 1 + q + ... + q**(k-1); [0]_q = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = CycScalar.zero(order)
    for j in range(k):
        acc = acc + CycScalar.q_power(order, j)
    return acc


def q_factorial(k: int, order: int) -> CycScalar:
    """[k]_q! = [1]_q [2]_q ... [k]_q; [0]_q! = 1."""
    acc = CycScalar.one(order)
    for j in range(1, k + 1):
        acc = acc * q_integer(j, order)
    return acc
