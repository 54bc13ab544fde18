"""The reduced quantum plane at a primitive N-th root of unity, and its signed twin.

Generators x, y satisfy x y = q y x and x**N = y**N = 1, so the monomials
y**k x**l (0 <= k, l < N) form a basis.  The subalgebra generated by x is the
carrier of a semi-commutative Galois extension with tau = y and twisting
endomorphism x -> q x; ``PlaneElement`` is that extension, with the y-degree
as the grading and the extension's twisted product as its product.  The same
construction with x**N = tau**N = -1 is the carrier's other sign: at N = 2 it
is Hamilton's quaternions (tau = i, x = j).

Also provides the faithful N x N matrix representation
x -> diag(1, q**-1, ..., q**-(N-1)) and y -> the cyclic shift matrix, which
evaluates the y-components at the roots of x**N - 1.
"""

from __future__ import annotations

import functools
import math
import operator

from .cyclotomic import Componentwise, CycScalar, _reduce, dot, fold_power, packed_sums, power, render_terms
from .galois import ExtElement, NotInvertible


def _scalar(order: int, value) -> CycScalar | None:
    """value as a scalar of this order by ``CycScalar``'s rule; None when it is no scalar."""
    return CycScalar.zero(order)._coerce(value)


def _as_scalar(order: int, value) -> CycScalar:
    c = _scalar(order, value)
    if c is None:
        raise TypeError(f"a scalar is an int, Fraction or CycScalar, not {type(value).__name__}")
    return c


class XPoly(Componentwise):
    """An element of the x-subalgebra: sum_l c_l x**l with x**N = sign, 1 or -1."""

    __slots__ = ("order", "coeffs", "sign")

    def __init__(self, order: int, coeffs, sign: int = 1):
        coeffs = tuple(coeffs)
        if len(coeffs) != order:
            raise ValueError("coefficient vector must have length N")
        for c in coeffs:
            if type(c) is not CycScalar or c.order != order:
                coeffs = tuple(_as_scalar(order, c) for c in coeffs)
                break
        sign = operator.index(sign)
        if sign != 1 and sign != -1:
            raise ValueError("sign must be 1 or -1")
        self.order = order
        self.coeffs = coeffs
        self.sign = sign

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(order: int, sign: int = 1) -> XPoly:
        z = CycScalar.zero(order)
        return XPoly(order, (z,) * order, sign)

    @staticmethod
    def monomial(order: int, power: int, coeff=1, sign: int = 1) -> XPoly:
        """coeff * x**power, with x**N folded to sign."""
        c = [CycScalar.zero(order)] * order
        k, c_k = fold_power(order, sign, power, _as_scalar(order, coeff))
        c[k] = c_k
        return XPoly(order, c, sign)

    @staticmethod
    def one(order: int, sign: int = 1) -> XPoly:
        return XPoly.monomial(order, 0, 1, sign)

    @staticmethod
    def x(order: int, sign: int = 1) -> XPoly:
        return XPoly.monomial(order, 1, 1, sign)

    @staticmethod
    def from_scalar(order: int, value, sign: int = 1) -> XPoly:
        return XPoly.monomial(order, 0, value, sign)

    # -- ring operations -----------------------------------------------------

    _parts = property(operator.attrgetter("coeffs"))

    def _new(self, parts) -> XPoly:
        return XPoly(self.order, parts, self.sign)

    def _coerce(self, other) -> "XPoly | None":
        """A scalar or an XPoly of this order and sign as an XPoly; None for any other operand."""
        if isinstance(other, XPoly):
            if other.order != self.order or other.sign != self.sign:
                raise ValueError("order or sign mismatch")
            return other
        c = _scalar(self.order, other)
        return None if c is None else XPoly.from_scalar(self.order, c, self.sign)

    def __mul__(self, other):
        if not isinstance(other, XPoly):
            c = _scalar(self.order, other)
            return NotImplemented if c is None else self._scaled(c)
        n = self.order
        right = [(j, b) for j, b in enumerate(self._coerce(other).coeffs) if b]
        pairs = [[] for _ in range(n)]  # pairs[k]: the products landing on x**k
        for i, a in enumerate(self.coeffs):
            if a:
                wrapped = fold_power(n, self.sign, n, a)[1]  # x**N a; i + j < 2N wraps at most once
                for j, b in right:
                    pairs[(i + j) % n].append((a if i + j < n else wrapped, b))
        return XPoly(n, [dot(n, p) for p in pairs], self.sign)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, XPoly.one(self.order, self.sign))

    def scale(self, coeff) -> XPoly:
        """Multiply every coefficient by a scalar; zero coefficients are kept as they are."""
        return self._scaled(_as_scalar(self.order, coeff))

    def _scaled(self, c: CycScalar) -> XPoly:
        return XPoly(self.order, (c * a if a else a for a in self.coeffs), self.sign)

    # -- the structure maps --------------------------------------------------

    def twist(self, k: int = 1) -> XPoly:
        """Substitute x -> q**k x (the endomorphism transporting r across y**k)."""
        n = self.order
        if k % n == 0:
            return self
        return XPoly(
            n,
            (CycScalar.q_power(n, k * l) * c if c else c for l, c in enumerate(self.coeffs)),
            self.sign,
        )

    def evaluate_at_q_power(self, j: int) -> CycScalar:
        """Value at x = q**j, one of ``_root_values``; x**N = 1 splits over Q(q) with these roots.

        Raises ValueError at sign -1: q**j is no root of x**N + 1.
        """
        return _root_values([self])[0][j % self.order]

    def inverse(self) -> XPoly:
        """Invert by evaluation at the N roots of x**N - 1, then evaluation again.

        Coefficient l of the inverse is W(q**-l) / N, W having the inverted values (each
        distinct one inverted once) as coefficients.  A zero value means a zero divisor:
        NotInvertible is raised.
        At sign -1 (x**N + 1 need not split over Q(q)) the inverse is c / (u c)
        with c = twist(1) ... twist(N-1): the norm u c is twist-invariant, so a
        scalar, and it is zero exactly when u is a zero divisor.
        """
        n = self.order
        if self.sign < 0:
            c = functools.reduce(operator.mul, map(self.twist, range(2, n)), self.twist(1))
            norm = (self * c).coeffs[0]
            if not norm:
                raise NotInvertible("element is a zero divisor")
            return c.scale(norm.inverse())
        (values,) = _root_values([self])
        if not all(values):
            raise NotInvertible("element vanishes at a root of x**N - 1")
        inverse = {v: v.inverse() for v in set(values)}
        return XPoly(n, _root_values([XPoly(n, map(inverse.get, values))], -1, n)[0])

    def __str__(self):
        return render_terms((c, (("x", l),)) for l, c in enumerate(self.coeffs))

    def __repr__(self):
        sign = "" if self.sign > 0 else f", x^{self.order} = -1"
        return f"XPoly({self.order}, {self!s}{sign})"


class XPolyCarrier:
    """The x-subalgebra as the carrier of the extension generated by tau = y.

    ``tau_sign`` is the sign s of both tau**N = s and x**N = s: 1 gives the
    reduced quantum plane, -1 at N = 2 the quaternions.
    """

    def __init__(self, order: int, tau_sign: int = 1):
        order = operator.index(order)
        if order < 2:
            raise ValueError("order must be at least 2")
        tau_sign = operator.index(tau_sign)
        if tau_sign not in (1, -1):
            raise ValueError("tau_sign must be 1 or -1")
        self.order = order
        self.tau_sign = tau_sign

    def zero(self):
        return XPoly.zero(self.order, self.tau_sign)

    def one(self):
        return XPoly.one(self.order, self.tau_sign)

    def phi(self, u, k: int = 1):
        """phi**k, the substitution x -> q**k x; phi**N is the identity."""
        return u.twist(k)

    def invert(self, u):
        return u.inverse()

    def q_element(self, k: int):
        return CycScalar.q_power(self.order, k)

    def product(self, left, right) -> tuple[XPoly, ...]:
        """The component tuple of (sum_a tau**a u_a)(sum_b tau**b v_b), one ``packed_sums``:
        c x**i in u_a times d x**j in v_b is q**(b i) c d tau**(a+b) x**(i+j), as x**i tau**b =
        tau**b phi**b(x**i), and each of the two powers folds by ``fold_power``."""
        n, s = self.order, self.tau_sign
        lt = [(a, i, c) for a, u in enumerate(left) for i, c in enumerate(u.coeffs) if any(c.num)]
        rt = [(b, j, c) for b, v in enumerate(right) for j, c in enumerate(v.coeffs) if any(c.num)]
        fold = [fold_power(n, s, m, 1) for m in range(2 * n - 1)]
        sums = {}  # sums[k, l]: the terms landing on tau**k x**l
        for p, (a, i, _) in enumerate(lt):
            for r, (b, j, _) in enumerate(rt):
                (k, sk), (l, sl) = fold[a + b], fold[i + j]
                sums.setdefault((k, l), []).append((p, r, b * i % n, sk * sl))
        lc, rows, zero = [t[2] for t in lt], {}, self.zero()
        for (k, l), c in packed_sums(n, lc, [t[2] for t in rt], sums).items():
            rows.setdefault(k, [CycScalar.zero(n)] * n)[l] = c
        return tuple(XPoly(n, rows[k], s) if k in rows else zero for k in range(n))

    def element(self, components) -> ExtElement:
        """A ``PlaneElement`` at sign 1, a plain ``ExtElement`` at sign -1."""
        if self.tau_sign < 0:
            return ExtElement(self, components)
        return PlaneElement(self.order, components)

    def coerce(self, value) -> XPoly:
        """value as an element of this carrier, a scalar as a constant.

        Raises TypeError for no scalar or ``XPoly``, ValueError for another order or sign.
        """
        if type(value) is XPoly and value.order == self.order and value.sign == self.tau_sign:
            return value
        u = self.zero()._coerce(value)
        if u is None:
            raise TypeError(f"a carrier element is an XPoly or scalar, not {type(value).__name__}")
        return u

    @functools.lru_cache(maxsize=None)
    def basis(self) -> tuple[XPoly, ...]:
        """x**0 .. x**(N-1), a basis over the scalars Q(q); built once per order and sign."""
        return tuple(XPoly.monomial(self.order, l, 1, self.tau_sign) for l in range(self.order))

    def x(self) -> XPoly:
        return self.basis()[1]

    def __eq__(self, other):
        return (
            isinstance(other, XPolyCarrier)
            and other.order == self.order
            and other.tau_sign == self.tau_sign
        )

    def __hash__(self):
        return hash((XPolyCarrier, self.order, self.tau_sign))

    def __repr__(self):
        return f"XPolyCarrier(order={self.order}, tau_sign={self.tau_sign})"


class PlaneElement(ExtElement):
    """sum_k y**k u_k(x): the extension over the x-subalgebra with tau = y.

    Component k is the coefficient of y**k; it may be given as an ``XPoly`` of
    this order with x**N = 1, as a scalar (which the carrier's ``coerce`` makes
    a constant) or as the N scalar coefficients of x**0 .. x**(N-1).  The
    arithmetic is the extension's, which lifts scalar and ``XPoly`` operands
    through the carrier.
    """

    __slots__ = ()

    def __init__(self, order: int, rows):
        rows = (
            r if isinstance(r, XPoly) or _scalar(order, r) is not None else XPoly(order, r)
            for r in rows
        )
        super().__init__(XPolyCarrier(order), rows)

    @property
    def order(self) -> int:
        return self.carrier.order

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(order: int) -> PlaneElement:
        return ExtElement.zero(XPolyCarrier(order))

    @staticmethod
    def monomial(order: int, ydeg: int, xdeg: int, coeff=1) -> PlaneElement:
        return ExtElement.from_component(
            XPolyCarrier(order), ydeg, XPoly.monomial(order, xdeg, coeff)
        )

    @staticmethod
    def one(order: int) -> PlaneElement:
        return PlaneElement.monomial(order, 0, 0)

    @staticmethod
    def x(order: int) -> PlaneElement:
        return PlaneElement.monomial(order, 0, 1)

    @staticmethod
    def y(order: int) -> PlaneElement:
        return PlaneElement.monomial(order, 1, 0)

    @staticmethod
    def from_scalar(order: int, value) -> PlaneElement:
        return PlaneElement.monomial(order, 0, 0, value)

    def __mul__(self, other):
        """(y**a x**b)(y**c x**d) = q**(b c) y**(a+c) x**(b+d): the extension's product."""
        return ExtElement.__mul__(self, other)

    def __str__(self):
        return render_terms(
            (c, (("y", k), ("x", l)))
            for k, row in enumerate(self.components)
            for l, c in enumerate(row.coeffs)
        )

    def __repr__(self):
        return f"PlaneElement({self.order}, {self!s})"


# -- matrix representation ----------------------------------------------------


class RepMatrix(Componentwise):
    """An N x N matrix over Q(q), entries by the scalar rule; its parts are the entries by row."""

    __slots__ = ("order", "entries")

    def __init__(self, order: int, entries):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != order or any(len(row) != order for row in entries):
            raise ValueError("matrix must be N x N")
        if any(type(e) is not CycScalar or e.order != order for row in entries for e in row):
            scalar = functools.partial(_as_scalar, order)
            entries = tuple(tuple(map(scalar, row)) for row in entries)
        self.order = order
        self.entries = entries

    @staticmethod
    def identity(order: int) -> RepMatrix:
        return represent(PlaneElement.one(order))

    @property
    def _parts(self) -> tuple[CycScalar, ...]:
        return tuple(e for row in self.entries for e in row)

    def _new(self, parts) -> RepMatrix:
        n = self.order
        return RepMatrix(n, (parts[i : i + n] for i in range(0, n * n, n)))

    def _coerce(self, other) -> "RepMatrix | None":
        if isinstance(other, RepMatrix):
            if other.order != self.order:
                raise ValueError("order mismatch")
            return other
        return None

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n, cols = self.order, list(zip(*o.entries))
        pairs = ([(a, b) for a, b in zip(r, c) if a and b] for r in self.entries for c in cols)
        return self._new([dot(n, p) for p in pairs])

    def __pow__(self, k: int):
        return power(self, k, RepMatrix.identity(self.order))

    def scale(self, coeff) -> RepMatrix:
        c = _as_scalar(self.order, coeff)
        return RepMatrix(self.order, (map(c.__mul__, row) for row in self.entries))

    def __str__(self):
        return "\n".join("[" + ", ".join(map(str, row)) + "]" for row in self.entries)

    def __repr__(self):
        return f"RepMatrix({self.order})\n{self!s}"


def represent(w: PlaneElement) -> RepMatrix:
    """The matrix image of a plane element; multiplicative and faithful.

    Y**k X**l has the single entry q**(-j l) in column j, row j - k, so the
    image of w = sum_k y**k u_k(x) has entry (i, j) = u_(j-i)(q**-j): the
    components evaluated at the roots of x**N - 1 by ``_root_values``.  At tau**N =
    x**N = -1, where this formula does not hold, the evaluation raises ValueError.
    """
    n = w.carrier.order
    values = _root_values(w.components, -1)  # values[k][j] = u_k(q**-j)
    return RepMatrix(n, ([values[(j - i) % n][j] for j in range(n)] for i in range(n)))


def _root_values(polys, sign: int = 1, divisor: int = 1) -> list[list[CycScalar]]:
    """Each x-polynomial's values at q**(sign*j), j = 0..N-1, divided by divisor; a
    ValueError at sign -1.  Its nonzero coefficients are padded to N ints over their common
    denominator; in Z[t]/(t**N - 1), which Phi_N divides, q**e acts as the rotation by e, a
    slice of the vector written twice.  Each value is a sum of rotations, folded once by ``_reduce``.
    """
    out = []
    for u in polys:
        if u.sign < 0:
            raise ValueError("evaluation at q**j needs x**N = 1")
        n, terms = u.order, [(l, c) for l, c in enumerate(u.coeffs) if c]
        den = math.lcm(*(c.den for _, c in terms))
        pad = [0] * (n - len(u.coeffs[0].num))
        twice = [(-sign * l, 2 * [*map((den // c.den).__mul__, c.num), *pad]) for l, c in terms]
        row = [CycScalar.zero(n)] * n  # a zero polynomial's values
        for j in range(n if terms else 0):
            rotated = [v[k * j % n : k * j % n + n] for k, v in twice]
            row[j] = _reduce(n, list(map(sum, zip(*rotated))), den * divisor)
        out.append(row)
    return out


@functools.lru_cache(maxsize=None)
def generator_matrices(order: int) -> tuple[RepMatrix, RepMatrix]:
    """(X, Y): X = diag(q**0, q**-1, ..., q**-(N-1)), Y the cyclic shift."""
    return represent(PlaneElement.x(order)), represent(PlaneElement.y(order))


@functools.lru_cache(maxsize=None)
def basis_matrices(order: int) -> dict[tuple[int, int], RepMatrix]:
    """Images of all basis monomials y**k x**l."""
    return {
        (k, l): represent(PlaneElement.monomial(order, k, l))
        for k in range(order)
        for l in range(order)
    }


@functools.lru_cache(maxsize=None)
def _modulus(order: int) -> tuple[int, int]:
    """(p, w): the least prime p > 10**4 with p = 1 mod N, and w of exact order N mod p,
    a root of Phi_N mod p, so that q -> w is a ring map from Z[q] onto the integers mod p."""
    p = 10**4 + 1
    while p % order != 1 or not all(p % d for d in range(2, math.isqrt(p) + 1)):
        p += 1
    roots = (pow(g, (p - 1) // order, p) for g in range(2, p))  # each of order dividing N
    return p, next(w for w in roots if len({pow(w, k, p) for k in range(order)}) == order)


def _rank_mod_p(vectors) -> int | None:
    """The rank of the rows' image mod p under q -> w; None when p divides a denominator."""
    p, w = _modulus(vectors[0][0].order)
    ws = [pow(w, m, p) for m in range(len(vectors[0][0].num))]
    rows = []
    try:
        for v in vectors:
            rows.append(
                [sum(map(operator.mul, e.num, ws)) * pow(e.den, -1, p) % p if e else 0 for e in v]
            )
    except ValueError:  # den has no inverse mod p
        return None
    return _eliminate(rows, functools.partial(pow, exp=-1, mod=p), p.__rmod__)


def scalar_rank(vectors: list[list[CycScalar]]) -> int:
    """Rank of a matrix over Q(q).  A full rank mod p is the rank, since a nonzero minor
    mod p is one over Q(q); any other case, p dividing a denominator too, is eliminated over Q(q)."""
    if not vectors or not vectors[0]:
        return 0
    full = min(len(vectors), len(vectors[0]))
    if _rank_mod_p(vectors) == full:
        return full
    return _eliminate([list(v) for v in vectors], CycScalar.inverse, lambda e: e)


def _eliminate(rows: list[list], inverse, reduce) -> int:
    """The rank of the rows over a field, by forward Gaussian elimination in place.

    ``inverse`` inverts a nonzero entry and ``reduce`` brings each new entry
    to its form.  Only the rows below a pivot are eliminated: the rows above
    are never searched again.  Row operations touch only the pivot row's
    nonzero columns: in the others the update e - f*0 would leave e as it is.
    """
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        support = [j for j, e in enumerate(prow) if e]
        inv = inverse(prow[col])
        for j in support:
            prow[j] = reduce(inv * prow[j])
        for row in rows[rank + 1 :]:
            f = row[col]
            if f:
                for j in support:
                    row[j] = reduce(row[j] - f * prow[j])
        rank += 1
        if rank == len(rows):
            break
    return rank
