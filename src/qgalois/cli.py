"""Command line front end.

Expression grammar (whitespace is free):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' uint]
    atom   := rational | 'q' | 'x' | 'y'
            | 'd' '(' expr ')' | 'partial' '(' expr ')'
            | 'D' uint '(' expr ')' | '(' expr ')' | '-' atom

``parse`` reads the whole source and returns, for each node, a function of
the order that evaluates it; ``evaluate(expr, order)`` calls it.  Nothing is
evaluated before the source has parsed, so a syntax error wins over an
evaluation error.  Rationals are written as ``7`` or ``7/3``; parentheses,
unary minus and calls nest at most 100 deep.  ``--order`` lies in 2..12 and
``verify --cases`` in 1..1000; a value outside either is a usage error.
Exit codes: 0 success, 1 a verify run found a failing identity, 2 usage,
parse, or evaluation errors, and output that cannot be written (a full disk,
a closed pipe).
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
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

# Every command's largest --order: the tests verify every row up to it; cost grows fast past it.
MAX_ORDER = 12
# verify's largest --cases: a case costs 0.04-0.06 s CPU at order 12, so a run ends in a minute.
MAX_CASES = 1000
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


# -- tokenizer and parser ---------------------------------------------------------

_OPS = set("+-*^()")
# ASCII only: str.isdigit also accepts characters such as '²' that int() rejects.
_DIGITS = set("0123456789")
_INFIX = {"+": operator.add, "-": operator.sub, "*": operator.mul}
Token = tuple[str, str, int]  # (kind, text, offset)


def tokenize(src: str) -> list[Token]:
    """The tokens of src, ending in an 'end' token at len(src)."""
    out = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            out.append((ch, ch, i))
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
            out.append(("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and src[j].isalpha():
                j += 1
            out.append(("name", src[i:j], i))
            i = j
            continue
        raise ParseError(i, {"a token"}, repr(ch))
    out.append(("end", "", len(src)))
    return out


_ATOM_EXPECTED = {"a number", "'q'", "'x'", "'y'", "'d'", "'partial'", "'D'", "'('", "'-'"}
_SYMBOLS = {
    "q": lambda order: PlaneElement.from_scalar(order, CycScalar.q(order)),
    "x": PlaneElement.x,
    "y": PlaneElement.y,
}
_FUNCTIONS = {
    "d": differential,
    "partial": lambda w: _on_function(partial_derivative, w),
}


class _Parser:
    """Recursive descent; each grammar rule returns a function of the order that evaluates it."""

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
        if tok[0] != kind:
            raise ParseError(tok[2], {what}, tok[1] or "end of input")
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(offset, {"'+'", "'-'", "'*'", "end of input"}, text)
        return node

    def chain(self, operand, kinds: tuple[str, ...]):
        """operand (op operand)* for op in kinds, folded left in one loop."""
        first = operand()
        steps = []
        while self.peek()[0] in kinds:
            steps.append((_INFIX[self.advance()[0]], operand()))
        if not steps:
            return first

        def run(order: int) -> PlaneElement:
            acc = first(order)
            for op, right in steps:
                acc = op(acc, right(order))
            return acc

        return run

    def expr(self):
        return self.chain(self.term, ("+", "-"))

    def term(self):
        return self.chain(self.factor, ("*",))

    def factor(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.advance()
        k = self.integer("an integer exponent")

        def run_power(order: int) -> PlaneElement:
            return power(_SizeBound(base(order)), k, _SizeBound(PlaneElement.one(order))).element

        return run_power

    def number(self, tok: Token) -> Fraction:
        """The value of a num token; a part past the int-string digit limit is a ParseError."""
        _, text, offset = tok
        try:
            parts = [int(p) for p in text.split("/")]
        except ValueError:
            limit = sys.get_int_max_str_digits()
            found = f"{max(len(p) for p in text.split('/'))} digits"
            raise ParseError(offset, {f"a number of at most {limit} digits"}, found) from None
        if parts[1:] == [0]:
            raise ParseError(offset, {"a nonzero denominator"}, text)
        return Fraction(*parts)

    def integer(self, what: str) -> int:
        tok = self.expect("num", what)
        if "/" in tok[1]:
            raise ParseError(tok[2], {what}, tok[1])
        return int(self.number(tok))

    def nested(self, tok: Token, parse):
        """Run parse() one nesting level below tok, at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise ParseError(tok[2], {f"at most {MAX_NESTING} levels of nesting"}, tok[1])
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
        kind, text, offset = tok
        if kind == "num":
            self.advance()
            value = self.number(tok)
            return lambda order: PlaneElement.from_scalar(order, value)
        if kind == "-":
            self.advance()
            arg = self.nested(tok, self.atom)
            return lambda order: -arg(order)
        if kind == "(":
            return self.argument(tok)
        if kind == "name" and text in _SYMBOLS:
            self.advance()
            return _SYMBOLS[text]
        if kind == "name" and text in _FUNCTIONS:
            self.advance()
            fn, arg = _FUNCTIONS[text], self.argument(tok)
            return lambda order: fn(arg(order))
        if kind == "name" and text == "D":
            self.advance()
            k = self.integer("an integer index")
            arg = self.argument(tok)

            def run_covariant(order: int) -> PlaneElement:
                # The index is checked at evaluation: its range depends on the order.
                if not 1 <= k <= order - 1:
                    raise EvalError(f"D index must lie in 1..{order - 1}")
                w = arg(order)
                return _on_function(covariant_operator(q_plane_families(order), k), w)

            return run_covariant
        raise ParseError(offset, _ATOM_EXPECTED, text or "end of input")


def parse(src: str):
    """Parse a whole source string into a function of the order that evaluates it.

    Raises ParseError at the first syntax error, its offset a str index: it
    counts characters, not the bytes of an encoding.
    """
    return _Parser(src).parse()


# -- evaluation --------------------------------------------------------------------


def _on_function(op, w: PlaneElement) -> PlaneElement:
    """op applied to w as an element of the x-subalgebra, embedded back in the plane."""
    if w.degree() != 0:
        raise EvalError("operator expects an element of the x-subalgebra")
    return ExtElement.embed(w.carrier, op(w.component(0)))


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
                    for v in c.num:
                        big = max(abs(v), c.den)  # the term v / den in lowest terms is no larger
                        if big >= bound and big // math.gcd(v, c.den) >= bound:
                            raise _too_many_digits()
        self.element = element

    def __mul__(self, other: _SizeBound) -> _SizeBound:
        return _SizeBound(self.element * other.element)


def evaluate(expr, order: int) -> PlaneElement:
    """Evaluate a parsed expression in the reduced quantum plane of the given order."""
    return expr(order)


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
    from .verify import run_all  # here, so that no other command compiles verify

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

    def approx() -> list[list[complex]]:
        return [list(map(CycScalar.embed, row)) for row in m.entries]

    def output() -> str:
        if args.json:
            payload = matrix_json(m)
            if args.approx:
                payload["approx"] = [
                    [[z.real, z.imag] for z in row] for row in approx()
                ]
            return json.dumps(payload)
        lines = [str(m)]
        if args.approx:
            lines.append("approx:")
            for row in approx():
                cells = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row)
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
    if args.fn is cmd_verify and not 1 <= args.cases <= MAX_CASES:
        parser.error(f"--cases must lie in 1..{MAX_CASES}")
    try:
        if sys.stdout is None:  # the process started with stdout closed
            raise OSError("standard output is closed")
        code = args.fn(args)
        sys.stdout.flush()  # a write error surfaces here, not in the exit flush
        return code
    except (ParseError, EvalError, NotInvertible) as exc:
        message = str(exc)
    except OSError as exc:
        sys.stdout = open(os.devnull, "w")  # what stays buffered is dropped at exit
        message = f"cannot write the output: {exc}"
    try:  # the exit code is 2 whether or not stderr takes the error line
        print(f"error: {message}", file=sys.stderr, flush=True)
    except (AttributeError, OSError):  # stderr is closed or full
        sys.stderr = open(os.devnull, "w")  # so the flush at exit cannot fail either
    return 2


if __name__ == "__main__":
    sys.exit(main())
