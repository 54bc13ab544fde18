"""Command line front end.

Expression grammar (whitespace is free):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' uint]
    atom   := rational | 'q' | 'x' | 'y'
            | 'd' '(' expr ')' | 'partial' '(' expr ')'
            | 'D' uint '(' expr ')' | '(' expr ')' | '-' atom

Rationals are written as ``7`` or ``7/3``; parentheses, unary minus and calls
nest at most 100 deep.  Exit codes: 0 success, 1 a verify run found a failing
identity, 2 usage, parse, or evaluation errors, and output that cannot be
written (a full disk, a closed pipe).
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .calculus import (
    covariant_operator,
    delta_coefficient,
    partial_derivative,
    q_plane_families,
    to_dx_basis,
)
from .cyclotomic import CycScalar, power
from .galois import ExtElement, NotInvertible, differential
from .qplane import PlaneElement, RepMatrix, XPoly, represent
from .verify import run_all

# Every command's largest --order: the largest the tests and benchmark use; cost grows fast past it.
MAX_ORDER = 8
# Parentheses, unary minus and calls nest at most this deep, far inside the recursion limit.
MAX_NESTING = 100


class ParseError(Exception):
    def __init__(self, offset: int, expected, found: str):
        self.offset = offset
        self.expected = sorted(expected)
        self.found = found
        super().__init__(
            f"syntax error at offset {offset}: expected "
            + " or ".join(self.expected)
            + f", found {found}"
        )


class EvalError(Exception):
    pass


# -- AST ------------------------------------------------------------------------


@dataclass(frozen=True)
class Number:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str  # 'd' or 'partial'
    arg: object


@dataclass(frozen=True)
class CovD:
    k: int
    arg: object


# -- tokenizer and parser ---------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    offset: int


_OPS = set("+-*^()")
# ASCII only: str.isdigit also accepts characters such as '²' that int() rejects.
_DIGITS = set("0123456789")


def tokenize(src: str) -> list[Token]:
    out = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            out.append(Token(ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(src) and src[j] in _DIGITS:
                j += 1
            if j < len(src) and src[j] == "/" and j + 1 < len(src) and src[j + 1] in _DIGITS:
                j += 1
                while j < len(src) and src[j] in _DIGITS:
                    j += 1
            out.append(Token("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and src[j].isalpha():
                j += 1
            out.append(Token("name", src[i:j], i))
            i = j
            continue
        raise ParseError(i, {"a token"}, repr(ch))
    out.append(Token("end", "", len(src)))
    return out


_ATOM_EXPECTED = {"a number", "'q'", "'x'", "'y'", "'d'", "'partial'", "'D'", "'('", "'-'"}


class _Parser:
    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.offset, {what}, tok.text or "end of input")
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(tok.offset, {"'+'", "'-'", "'*'", "end of input"}, tok.text)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.term()
            node = Add(node, right) if op.kind == "+" else Sub(node, right)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "*":
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            node = Pow(node, self.integer("an integer exponent"))
        return node

    def number(self, tok: Token) -> Fraction:
        """The value of a num token; a part past the int-string digit limit is a ParseError."""
        try:
            parts = [int(p) for p in tok.text.split("/")]
        except ValueError:
            limit = sys.get_int_max_str_digits()
            found = f"{max(len(p) for p in tok.text.split('/'))} digits"
            raise ParseError(tok.offset, {f"a number of at most {limit} digits"}, found) from None
        if parts[1:] == [0]:
            raise ParseError(tok.offset, {"a nonzero denominator"}, tok.text)
        return Fraction(*parts)

    def integer(self, what: str) -> int:
        tok = self.expect("num", what)
        if "/" in tok.text:
            raise ParseError(tok.offset, {what}, tok.text)
        return int(self.number(tok))

    def nested(self, tok: Token, parse):
        """Run parse() one nesting level below tok, at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise ParseError(tok.offset, {f"at most {MAX_NESTING} levels of nesting"}, tok.text)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def argument(self, tok: Token):
        """A parenthesized expression one level below tok, a call's name or the '(' itself."""
        self.expect("(", "'('")
        node = self.nested(tok, self.expr)
        self.expect(")", "')'")
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Number(self.number(tok))
        if tok.kind == "-":
            self.advance()
            return Neg(self.nested(tok, self.atom))
        if tok.kind == "(":
            return self.argument(tok)
        if tok.kind == "name":
            self.advance()
            if tok.text in ("q", "x", "y"):
                return Sym(tok.text)
            if tok.text in ("d", "partial"):
                return Call(tok.text, self.argument(tok))
            if tok.text == "D":
                k = self.integer("an integer index")
                return CovD(k, self.argument(tok))
            raise ParseError(tok.offset, _ATOM_EXPECTED, tok.text)
        raise ParseError(tok.offset, _ATOM_EXPECTED, tok.text or "end of input")


def parse(src: str):
    """Parse a source string into an AST; raises ParseError with byte offset."""
    return _Parser(src).parse()


# -- rendering --------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 4, 5
_INFIX = {Add: (" + ", _PREC_ADD), Sub: (" - ", _PREC_ADD), Mul: ("*", _PREC_MUL)}


def render(node, prec: int = 0) -> str:
    """Minimal-parenthesis source form; parse(render(t)) == t."""
    if type(node) in _INFIX:
        # A left-nested chain of one precedence renders in a loop, as evaluate folds it.
        mine = _INFIX[type(node)][1]
        rights = []
        while type(node) in _INFIX and _INFIX[type(node)][1] == mine:
            op = _INFIX[type(node)][0]
            rights.append(op + render(node.right, mine + 1))
            node = node.left
        body = render(node, mine) + "".join(reversed(rights))
    elif isinstance(node, Number):
        body, mine = str(node.value), _PREC_ATOM
    elif isinstance(node, Sym):
        body, mine = node.name, _PREC_ATOM
    elif isinstance(node, Neg):
        body, mine = "-" + render(node.arg, _PREC_ATOM), _PREC_ATOM
    elif isinstance(node, Pow):
        body, mine = render(node.base, _PREC_ATOM) + f"^{node.exponent}", _PREC_POW
    elif isinstance(node, Call):
        body, mine = f"{node.fn}({render(node.arg)})", _PREC_ATOM
    elif isinstance(node, CovD):
        body, mine = f"D{node.k}({render(node.arg)})", _PREC_ATOM
    else:
        raise TypeError(f"not an AST node: {node!r}")
    if mine < prec:
        return f"({body})"
    return body


# -- evaluation --------------------------------------------------------------------


def _as_function(w: PlaneElement) -> XPoly:
    if w.degree() != 0:
        raise EvalError("operator expects an element of the x-subalgebra")
    return w.component(0)


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _too_many_digits() -> EvalError:
    limit = sys.get_int_max_str_digits()
    return EvalError(f"result has an integer over {limit} digits, too many to print")


class _SizeBound:
    """A plane element whose integers stay within the int-string digit limit.

    ``power`` squares through ``*`` here, so a power stops with an EvalError
    at the first product past the limit instead of growing without bound.
    """

    __slots__ = ("element",)

    def __init__(self, element: PlaneElement):
        limit = sys.get_int_max_str_digits()
        if limit:
            bound = 10**limit
            for row in element.components:
                for c in row.coeffs:
                    for f in c.coeffs:
                        if abs(f.numerator) >= bound or f.denominator >= bound:
                            raise _too_many_digits()
        self.element = element

    def __mul__(self, other: _SizeBound) -> _SizeBound:
        return _SizeBound(self.element * other.element)


def evaluate(node, order: int) -> PlaneElement:
    """Evaluate an AST in the reduced quantum plane of the given order."""
    # Left-nested + - * chains fold in a loop: long flat input needs no deep recursion.
    if type(node) in _BINARY:
        steps = []
        while type(node) in _BINARY:
            steps.append((_BINARY[type(node)], node.right))
            node = node.left
        acc = evaluate(node, order)
        for op, right in reversed(steps):
            acc = op(acc, evaluate(right, order))
        return acc
    if isinstance(node, Number):
        return PlaneElement.from_scalar(order, Fraction(node.value))
    if isinstance(node, Sym):
        if node.name == "q":
            return PlaneElement.from_scalar(order, CycScalar.q(order))
        if node.name == "x":
            return PlaneElement.x(order)
        return PlaneElement.y(order)
    if isinstance(node, Neg):
        return -evaluate(node.arg, order)
    if isinstance(node, Pow):
        base = _SizeBound(evaluate(node.base, order))
        return power(base, node.exponent, _SizeBound(PlaneElement.one(order))).element
    if isinstance(node, Call):
        inner = evaluate(node.arg, order)
        if node.fn == "d":
            return differential(inner)
        return ExtElement.embed(inner.carrier, partial_derivative(_as_function(inner)))
    if isinstance(node, CovD):
        if not 1 <= node.k <= order - 1:
            raise EvalError(f"D index must lie in 1..{order - 1}")
        inner = evaluate(node.arg, order)
        op = covariant_operator(q_plane_families(order), node.k)
        return ExtElement.embed(inner.carrier, op(_as_function(inner)))
    raise TypeError(f"not an AST node: {node!r}")


# -- JSON encoding -------------------------------------------------------------------


def _frac_json(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


def scalar_json(c: CycScalar) -> list[dict]:
    return [_frac_json(a) for a in c.coeffs]


def xpoly_json(r: XPoly) -> list[list[dict]]:
    return [scalar_json(c) for c in r.coeffs]


def element_json(w: PlaneElement) -> dict:
    return {
        "order": w.order,
        "coeffs": [xpoly_json(row) for row in w.components],
    }


def matrix_json(m: RepMatrix) -> dict:
    return {
        "order": m.order,
        "entries": [list(map(scalar_json, row)) for row in m.entries],
    }


# -- subcommands ----------------------------------------------------------------------


def _emit(output) -> None:
    """Print output(); a value past the int-string digit limit or float range is an EvalError."""
    try:
        text = output()
    except ValueError:
        raise _too_many_digits() from None
    except OverflowError:
        raise EvalError("result has a value too large for a float approximation") from None
    print(text)


def cmd_normalize(args) -> int:
    w = evaluate(parse(args.expr), args.order)
    _emit(lambda: json.dumps(element_json(w)) if args.json else str(w))
    return 0


def cmd_verify(args) -> int:
    rows = run_all(args.order, seed=args.seed, cases=args.cases)
    all_pass = all(r.passed for r in rows)
    if args.json:
        payload = {
            "order": args.order,
            "seed": args.seed,
            "cases": args.cases,
            "results": [
                {
                    "identity": r.name,
                    "pass": r.passed,
                    "residual": _residual_json(r.residual),
                }
                for r in rows
            ],
            "pass": all_pass,
        }
        print(json.dumps(payload))
    else:
        for r in rows:
            mark = "ok  " if r.passed else "FAIL"
            tail = "" if r.passed else f"  residual: {r.residual}"
            print(f"[{mark}] {r.name}{tail}")
        print(f"{sum(r.passed for r in rows)}/{len(rows)} identities hold")
    return 0 if all_pass else 1


def _residual_json(residual):
    if residual is None:
        return None
    if isinstance(residual, PlaneElement):
        return element_json(residual)
    if isinstance(residual, XPoly):
        return {"order": residual.order, "coeffs": [xpoly_json(residual)]}
    return str(residual)


def cmd_tables(args) -> int:
    fam = q_plane_families(args.order)
    n = args.order
    coeffs = [delta_coefficient(n, k) for k in range(n)]
    if args.json:
        payload = {
            "order": n,
            "P": [xpoly_json(p) for p in fam.dkx],
            "Q": [xpoly_json(qq) for qq in fam.dx_pow],
            "Phi": [xpoly_json(c) for c in fam.connection],
            "delta_coeff": [scalar_json(c) for c in coeffs],
        }
        print(json.dumps(payload))
    else:
        for k, p in enumerate(fam.dkx, start=1):
            print(f"P[{k}] = {p}")
        for k, qq in enumerate(fam.dx_pow, start=1):
            print(f"Q[{k}] = {qq}")
        for k, c in enumerate(fam.connection, start=1):
            print(f"Phi[{k}] = {c}")
        for k, c in enumerate(coeffs):
            print(f"DeltaCoeff[{k}] = {c}")
    return 0


def cmd_matrix(args) -> int:
    w = evaluate(parse(args.expr), args.order)
    m = represent(w)

    def output() -> str:
        if args.json:
            payload = matrix_json(m)
            if args.approx:
                payload["approx"] = [
                    [[e.embed().real, e.embed().imag] for e in row] for row in m.entries
                ]
            return json.dumps(payload)
        lines = [str(m)]
        if args.approx:
            lines.append("approx:")
            for row in m.entries:
                cells = ", ".join(f"{e.embed().real:+.6f}{e.embed().imag:+.6f}j" for e in row)
                lines.append(f"[{cells}]")
        return "\n".join(lines)

    _emit(output)
    return 0


def cmd_diff(args) -> int:
    w = evaluate(parse(args.expr), args.order)
    n = args.order
    fam = q_plane_families(n)
    dxi = differential(w)
    terms = [(f.degree, to_dx_basis(f, fam)) for f in dxi.forms()]

    def output() -> str:
        if args.json:
            payload = {
                "order": n,
                "element": element_json(dxi),
                "dx_form": [{"degree": m, "coeff": xpoly_json(r)} for m, r in terms],
            }
            return json.dumps(payload)
        parts = []
        for m, r in terms:
            if m == 0:
                parts.append(f"({r})")
            elif m == 1:
                parts.append(f"dx*({r})")
            else:
                parts.append(f"(dx)^{m}*({r})")
        return " + ".join(parts) or "0"

    _emit(output)
    return 0


# -- entry point -------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qgalois",
        description="exact q-deformed differential calculus on the reduced quantum plane",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument(
            "--order", type=int, required=True, metavar="N", help=f"grading order N, 2..{MAX_ORDER}"
        )
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("normalize", help="evaluate an expression to normal form")
    common(sp)
    sp.add_argument("expr")
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("verify", help="run the exact identity suites")
    common(sp)
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sp.add_argument("--cases", type=int, default=100, help="samples per identity (default 100)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("tables", help="print the coordinate families")
    common(sp)
    sp.set_defaults(fn=cmd_tables)

    sp = sub.add_parser("matrix", help="matrix image of an expression")
    common(sp)
    sp.add_argument("expr")
    sp.add_argument("--approx", action="store_true", help="also print complex approximations")
    sp.set_defaults(fn=cmd_matrix)

    sp = sub.add_parser("diff", help="differential of an expression, in the dx basis")
    common(sp)
    sp.add_argument("expr")
    sp.set_defaults(fn=cmd_diff)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not 2 <= args.order <= MAX_ORDER:
        parser.error(f"--order must lie in 2..{MAX_ORDER}")
    if args.fn is cmd_verify and args.cases < 1:
        parser.error("--cases must be at least 1")
    try:
        if sys.stdout is None:  # the process started with stdout closed
            raise OSError("standard output is closed")
        code = args.fn(args)
        sys.stdout.flush()  # a write error surfaces here, not in the exit flush
        return code
    except (ParseError, EvalError, NotInvertible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        sys.stdout = open(os.devnull, "w")  # what stays buffered is dropped at exit
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
