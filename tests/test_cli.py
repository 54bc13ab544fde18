"""Expression front end: tokenizer, parser, evaluator, commands, goldens."""

import contextlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgalois import CycScalar, ExtElement, PlaneElement, differential
from qgalois import verify
from qgalois.calculus import covariant_operator, partial_derivative, q_plane_families
from qgalois.cli import (
    MAX_ORDER,
    EvalError,
    ParseError,
    element_json,
    evaluate,
    main,
    parse,
    xpoly_json,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"


def test_parse_shapes():
    n = 3
    x, y = PlaneElement.x(n), PlaneElement.y(n)
    q = PlaneElement.from_scalar(n, CycScalar.q(n))

    def value(src):
        return evaluate(parse(src), n)

    # '*' binds tighter than '+', and parentheses override it
    assert value("x + y*q") == x + y * q
    assert value("(x + y)*q") == (x + y) * q
    assert value("x + y*q") != value("(x + y)*q")
    # '-' binds at the atom, so the exponent applies to the negated atom
    assert value("-x^2") == (-x) ** 2
    assert value("-x^2") != -(x**2)
    # chains fold to the left
    assert value("x - y - q") == (x - y) - q
    assert value("x - y - q") != x - (y - q)
    assert value("x*y - q*y*x") == x * y - q * y * x
    assert value("3/4*x") == x.scale(CycScalar.from_rational(n, Fraction(3, 4)))
    assert value("d(x^2)") == differential(x**2)
    assert value("partial( x )") == PlaneElement.one(n)
    assert value("D2(x)") == ExtElement.embed(
        x.carrier, covariant_operator(q_plane_families(n), 2)(x.component(0))
    )


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("x*(")
    assert err.value.offset == 3
    assert "offset 3" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("z + 1")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse("x^-2")
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse("x y")
    assert err.value.offset == 2
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("x^1/2")


def test_parsing_does_not_evaluate():
    expr = parse("D9(x)")  # the index is checked against the order at evaluation
    with pytest.raises(EvalError, match="D index"):
        evaluate(expr, 3)
    with pytest.raises(ParseError) as err:
        parse("D9(x) + z")
    assert err.value.offset == 8


# Precedence levels of the source forms built below.
_SUM, _PRODUCT, _POWER, _ATOM = 1, 2, 3, 4
_FORMS = ["leaf", "+", "-", "*", "*", "neg", "^", "d", "partial", "D"]  # products twice: x*y != y*x


def _operand(part, level):
    """The source of a (source, level, value) part, parenthesized below the given level."""
    src, mine, _ = part
    return src if mine >= level else f"({src})"


@st.composite
def _sources(draw, order, depth=3, x_only=False):
    """A (source, precedence level, value) triple; the value is built by the library's operators.

    With x_only the value stays in the x-subalgebra, as partial and Dk require.
    """
    forms = [f for f in _FORMS if not (x_only and f == "d")]
    form = draw(st.sampled_from(forms)) if depth else "leaf"
    if form == "leaf":
        name = draw(st.sampled_from(["q", "x", "number"] + ["y"] * (not x_only)))
        if name == "number":
            f = draw(st.fractions(min_value=0, max_value=30, max_denominator=9))
            return str(f), _ATOM, PlaneElement.from_scalar(order, f)
        q = PlaneElement.from_scalar(order, CycScalar.q(order))
        return name, _ATOM, {"q": q, "x": PlaneElement.x(order), "y": PlaneElement.y(order)}[name]
    x_only = x_only or form in ("partial", "D")
    a = draw(_sources(order, depth - 1, x_only))
    if form in ("+", "-"):
        b = draw(_sources(order, depth - 1, x_only))
        value = a[2] + b[2] if form == "+" else a[2] - b[2]
        return f"{_operand(a, _SUM)} {form} {_operand(b, _PRODUCT)}", _SUM, value
    if form == "*":
        b = draw(_sources(order, depth - 1, x_only))
        return f"{_operand(a, _PRODUCT)}*{_operand(b, _POWER)}", _PRODUCT, a[2] * b[2]
    if form == "neg":
        return "-" + _operand(a, _ATOM), _ATOM, -a[2]
    if form == "^":
        k = draw(st.integers(min_value=0, max_value=3))
        return f"{_operand(a, _ATOM)}^{k}", _POWER, a[2] ** k
    if form == "d":
        return f"d({a[0]})", _ATOM, differential(a[2])
    if form == "partial":
        src, op = f"partial({a[0]})", partial_derivative
    else:
        k = draw(st.integers(min_value=1, max_value=order - 1))
        src, op = f"D{k}({a[0]})", covariant_operator(q_plane_families(order), k)
    w = a[2]
    return src, _ATOM, ExtElement.embed(w.carrier, op(w.component(0)))


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(st.one_of([st.tuples(st.just(n), _sources(n)) for n in range(2, 6)]))
def test_parse_evaluates_as_the_library_operators(case):
    order, (src, _, expected) = case
    assert evaluate(parse(src), order) == expected


def test_evaluate_relation_ideal():
    for order in (2, 3, 4, 5):
        assert not evaluate(parse("x*y - q*y*x"), order)
        assert not evaluate(parse(f"x^{order} - 1"), order)
        assert not evaluate(parse(f"y^{order} - 1"), order)


def test_evaluate_differential():
    assert not evaluate(parse("d(d(x))"), 2)
    got = evaluate(parse("d(x)"), 3)
    q = CycScalar.q(3)
    assert got == PlaneElement.monomial(3, 1, 1, 1 - q)


def test_evaluate_operators():
    q = CycScalar.q(3)
    assert evaluate(parse("partial(x^2)"), 3) == PlaneElement.x(3).scale(1 + q)
    assert not evaluate(parse("D1(x)"), 3)
    assert evaluate(parse("D1(x^2)"), 3) == PlaneElement.x(3).scale(q ** 2)


def test_evaluate_rejects_bad_operator_use():
    with pytest.raises(EvalError):
        evaluate(parse("D3(x)"), 3)
    with pytest.raises(EvalError):
        evaluate(parse("D0(x)"), 3)
    with pytest.raises(EvalError):
        evaluate(parse("partial(y)"), 3)
    with pytest.raises(EvalError):
        evaluate(parse("partial(d(x))"), 3)


def test_main_normalize(capsys):
    assert main(["normalize", "--order", "3", "x*y - q*y*x"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["normalize", "--order", "3", "x^2*y"]) == 0
    assert capsys.readouterr().out == "(-1 - q)*y*x^2\n"


def test_main_reports_parse_errors(capsys):
    assert main(["normalize", "--order", "3", "x*("]) == 2
    err = capsys.readouterr().err
    assert "syntax error at offset 3" in err


def test_main_reports_eval_errors(capsys):
    assert main(["diff", "--order", "3", "D3(x)"]) == 2
    assert "D index" in capsys.readouterr().err


def test_main_rejects_bad_orders():
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--order", "1", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--order", str(MAX_ORDER + 1)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--order", str(MAX_ORDER + 1)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--order", "3000", "x"])
    assert exc.value.code == 2


def test_main_rejects_case_counts_below_one():
    for cases in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--order", "2", "--cases", cases])
        assert exc.value.code == 2


def test_main_rejects_case_counts_above_the_bound(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--order", "2", "--cases", "1001"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("error: --cases must lie in 1..1000")
    runs = []
    monkeypatch.setattr(verify, "run_all", lambda order, seed, cases: runs.append(cases) or [])
    assert main(["verify", "--order", "2", "--cases", "1000"]) == 0
    assert runs == [1000]


def test_only_the_verify_command_imports_verify():
    """Every other command starts without compiling the identity suites."""
    code = (
        "import sys; from qgalois import cli; cli.main(['tables', '--order', '2']); "
        "print('qgalois.verify' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_main_matrix_text(capsys):
    assert main(["matrix", "--order", "2", "y"]) == 0
    assert capsys.readouterr().out == "[0, 1]\n[1, 0]\n"
    assert main(["matrix", "--order", "3", "x*y - q*y*x"]) == 0
    assert capsys.readouterr().out == "[0, 0, 0]\n[0, 0, 0]\n[0, 0, 0]\n"


def test_main_diff_text(capsys):
    assert main(["diff", "--order", "3", "x^2"]) == 0
    assert capsys.readouterr().out == "dx*((1 + q)*x)\n"
    assert main(["diff", "--order", "2", "d(x)"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_main_tables_text(capsys):
    assert main(["tables", "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "P[2] = 3*x" in out
    assert "P[3] = 0" in out
    assert "Phi[1] = -q*x^2" in out
    assert "DeltaCoeff[1] = -q" in out


def test_main_verify_passes(capsys):
    assert main(["verify", "--order", "2", "--cases", "5"]) == 0
    out = capsys.readouterr().out
    assert "identities hold" in out
    assert "[FAIL]" not in out


def test_main_verify_json(capsys):
    assert main(["verify", "--order", "3", "--cases", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == 3
    assert report["pass"] is True
    assert all(row["pass"] for row in report["results"])
    names = [row["identity"] for row in report["results"]]
    assert "galois.q_leibniz" in names
    assert "calculus.generator_relation_q_factorial" in names


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qgalois", *args], capture_output=True, text=True
    )


def test_entry_point_exit_codes():
    assert run_cli("normalize", "--order", "2", "x").returncode == 0
    assert run_cli("normalize", "--order", "2", "x*(").returncode == 2
    assert run_cli("normalize").returncode == 2  # missing required arguments


def test_zero_denominator_is_a_parse_error():
    proc = run_cli("normalize", "--order", "3", "x + 1/0")
    assert proc.returncode == 2
    assert "syntax error at offset 4: expected a nonzero denominator, found 1/0" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "expr,message",
    [
        ("x^" + "1" * 5000, "syntax error at offset 2: expected a number of at most 4300 digits"),
        ("x + " + "7" * 5000 + "/3", "syntax error at offset 4: expected a number of at most"),
        ("D" + "1" * 5000 + "(x)", "syntax error at offset 1: expected a number of at most"),
        ("2^100000", "result has an integer over 4300 digits"),
        ("(1+x)^100000", "result has an integer over 4300 digits"),
    ],
    ids=["long-exponent", "long-literal", "long-index", "big-power", "big-product"],
)
def test_int_string_digit_limit_is_a_user_error(expr, message):
    proc = run_cli("normalize", "--order", "3", expr)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags,tail", [([], ""), (["--json"], "*x")], ids=["text", "json"])
def test_a_result_too_long_to_print_is_a_user_error(flags, tail):
    """The operands are within the digit limit; only printing their product is not."""
    nines = "9" * 3000
    proc = run_cli("normalize", "--order", "2", *flags, f"{nines}*{nines}{tail}")
    limit = sys.get_int_max_str_digits()
    assert proc.returncode == 2
    assert proc.stderr == f"error: result has an integer over {limit} digits, too many to print\n"


def test_float_overflow_in_approx_is_a_user_error(capsys):
    for extra in ([], ["--json"]):
        assert main(["matrix", "--order", "3", "--approx", *extra, "2^2000"]) == 2
        assert "too large for a float approximation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "opener,closer,offset",
    [("(", ")", 102), ("-", "", 102), ("d(", ")", 202), ("partial(", ")", 802), ("D1(", ")", 302)],
)
def test_nesting_is_limited(capsys, opener, closer, offset):
    def nest(depth):
        return "x*" + opener * depth + "x" + closer * depth

    assert main(["normalize", "--order", "3", nest(100)]) == 0
    capsys.readouterr()
    assert main(["normalize", "--order", "3", nest(101)]) == 2
    err = capsys.readouterr().err
    assert f"syntax error at offset {offset}: expected at most 100 levels of nesting" in err


def test_deep_input_ends_as_a_parse_error():
    for expr in ("(" * 3000 + "x" + ")" * 3000, "x*" + "-" * 3000 + "x"):
        proc = run_cli("normalize", "--order", "3", expr)
        assert proc.returncode == 2
        assert "expected at most 100 levels of nesting" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_long_flat_chains_evaluate(capsys):
    assert main(["normalize", "--order", "3", "x" + "+x" * 3000]) == 0
    assert capsys.readouterr().out == "3001*x\n"
    assert main(["normalize", "--order", "3", "x" + "*x" * 3000]) == 0
    assert capsys.readouterr().out == "x\n"
    assert main(["normalize", "--order", "3", "x" + "-x" * 3000]) == 0
    assert capsys.readouterr().out == "-2999*x\n"


@pytest.mark.parametrize("sep", [" + ", "*"])
def test_long_flat_chains_parse_and_evaluate(sep):
    x = PlaneElement.x(3)
    expected = x.scale(3001) if sep == " + " else x  # x^3001 = x at order 3
    assert evaluate(parse(sep.join(["x"] * 3001)), 3) == expected


def test_huge_exponent_ends_quickly():
    # x^N = 1 and 10^8 = 1 mod 3, so the power is x itself
    proc = subprocess.run(
        [sys.executable, "-m", "qgalois", "normalize", "--order", "3", "x^100000000"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0
    assert proc.stdout == "x\n"


def test_growing_power_stops_at_the_digit_limit():
    # every squaring doubles the coefficients' length; the power stops once one passes the limit
    proc = subprocess.run(
        [sys.executable, "-m", "qgalois", "normalize", "--order", "3", "(1+x)^10000000"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert "result has an integer over 4300 digits" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_the_digit_limit_reads_each_term_in_lowest_terms():
    # the scalar's common denominator 6^5600 has 4,358 digits; each term's, 2^5600 or 3^5600, has fewer
    proc = run_cli("normalize", "--order", "3", "((1/2)^5600+(1/3)^5600*q)^1")
    assert proc.returncode == 0
    assert proc.stdout == f"(1/{2**5600} + 1/{3**5600}*q)\n"


@pytest.mark.parametrize(
    "golden,args",
    [
        ("normalize_order2_xy.json", ["normalize", "--order", "2", "--json", "x*y"]),
        ("matrix_order2_y.json", ["matrix", "--order", "2", "--json", "y"]),
        ("tables_order2.json", ["tables", "--order", "2", "--json"]),
        ("diff_order3_xsq.json", ["diff", "--order", "3", "--json", "x^2"]),
        ("verify_order2_cases2.json", ["verify", "--order", "2", "--cases", "2", "--json"]),
    ],
)
def test_json_goldens_are_byte_exact(golden, args):
    proc = run_cli(*args)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN_DIR / golden).read_text()
    json.loads(proc.stdout)  # stays well-formed


BROKEN_ROWS = (
    "galois.differential_is_commutator",
    "galois.delta_product_rule",
    "quaternion.multiplication_table",
)


def _break_commutator(monkeypatch):
    monkeypatch.setattr(verify, "q_commutator", lambda v, u: ExtElement.zero(u.carrier))


def _break_delta(monkeypatch):
    monkeypatch.setattr(verify, "delta", lambda carrier, u: u)


def test_verify_reports_each_failing_identity(capsys, monkeypatch):
    _break_commutator(monkeypatch)
    _break_delta(monkeypatch)
    monkeypatch.setitem(verify._QUAT_TABLE, (1, 1), (1, 0))  # i*i = +1
    args = ["verify", "--order", "2", "--cases", "2"]
    assert main(args) == 1
    lines = capsys.readouterr().out.splitlines()
    for name in BROKEN_ROWS:
        assert any(line.startswith(f"[FAIL] {name}  residual: ") for line in lines), name
    held = sum(line.startswith("[ok  ] ") for line in lines)
    assert len(lines) == 47 and lines[-1] == f"{held}/46 identities hold"

    assert main([*args, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    rows = {row["identity"]: row for row in report["results"]}
    assert report["pass"] is False
    assert not any(rows[name]["pass"] for name in BROKEN_ROWS)
    assert sum(row["pass"] for row in rows.values()) == held
    residual = {r.name: r.residual for r in verify.run_all(2, 0, 2)}
    commutator = residual["galois.differential_is_commutator"]
    assert isinstance(commutator, PlaneElement)
    assert rows["galois.differential_is_commutator"]["residual"] == element_json(commutator)
    product_rule = residual["galois.delta_product_rule"]
    assert rows["galois.delta_product_rule"]["residual"] == {
        "order": 2,
        "coeffs": [xpoly_json(product_rule)],
    }
    assert rows["quaternion.multiplication_table"]["residual"] == "(1, 1)"


def test_one_failing_identity_leaves_the_other_rows_alone(capsys, monkeypatch):
    """Each row draws its own operands, so breaking one changes no other row."""

    def report():
        assert main(["verify", "--order", "2", "--cases", "2", "--json"]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        return {row.pop("identity"): row for row in results}

    _break_delta(monkeypatch)
    before = report()
    _break_commutator(monkeypatch)
    after = report()
    name = "galois.differential_is_commutator"
    assert before.pop(name)["pass"] and not after.pop(name)["pass"]
    assert after == before


def test_verify_output_is_deterministic():
    a = run_cli("verify", "--order", "2", "--cases", "4", "--json")
    b = run_cli("verify", "--order", "2", "--cases", "4", "--json")
    assert a.stdout == b.stdout


def test_element_json_of_a_plane_element_built_from_rationals():
    w = PlaneElement(2, [[Fraction(1, 2), 0], [0, 3]])
    assert element_json(w) == element_json(
        PlaneElement.monomial(2, 0, 0, Fraction(1, 2)) + PlaneElement.monomial(2, 1, 1, 3)
    )


@pytest.mark.parametrize(
    "expr,offset,char", [("3\u00b2", 1, "\u00b2"), ("x^\u00b2", 2, "\u00b2"), ("x+\u0661", 2, "\u0661")]
)
def test_only_ascii_digits_are_numbers(capsys, expr, offset, char):
    assert main(["normalize", "--order", "3", expr]) == 2
    err = capsys.readouterr().err
    assert f"syntax error at offset {offset}: expected a token, found {char!r}" in err


def test_error_offsets_count_characters_not_bytes(capsys):
    # each no-break space is one character and two UTF-8 bytes: the '+' is at offset 2, byte 4
    expr = "\u00a0\u00a0+"
    assert len(expr[:2].encode()) == 4
    assert main(["normalize", "--order", "2", expr]) == 2
    assert "syntax error at offset 2: expected " in capsys.readouterr().err


@contextlib.contextmanager
def _closed_pipe():
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    try:
        yield write
    finally:
        os.close(write)


@contextlib.contextmanager
def _dev_full():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "wb") as sink:
        yield sink


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("sink", [_dev_full, _closed_pipe], ids=["dev-full", "closed-pipe"])
def test_an_output_that_cannot_be_written_is_a_user_error(sink, unbuffered):
    env = dict(os.environ)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        env.pop("PYTHONUNBUFFERED", None)
    with sink() as out:
        proc = subprocess.run(
            [sys.executable, "-m", "qgalois", "tables", "--order", "2"],
            stdout=out,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write the output: ")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize(
    "args, full",
    [
        (["normalize", "--order", "2", "x+"], ("stderr",)),
        (["tables", "--order", "2"], ("stdout", "stderr")),
        (["verify", "--order", "2", "--cases", "2"], ("stdout", "stderr")),
    ],
    ids=["error-line", "tables", "verify"],
)
def test_an_error_line_that_cannot_be_written_still_exits_2(args, full):
    with _dev_full() as sink:
        streams = {name: sink if name in full else subprocess.PIPE for name in ("stdout", "stderr")}
        proc = subprocess.run([sys.executable, "-m", "qgalois", *args], timeout=60, **streams)
    assert proc.returncode == 2


# The grammar's alphabet; strings of these tokens reach every branch of the parser.
_FUZZ_TOKENS = [*"0123456789/qxy", "d(", "partial(", "D1(", "D9(", *"+-*^()", " "]


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(
    tokens=st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=20),
    command=st.sampled_from(["normalize", "diff", "matrix"]),
    order=st.integers(min_value=2, max_value=8),
    json_flag=st.booleans(),
    approx=st.booleans(),
)
def test_fuzzed_expressions_exit_0_or_2(tokens, command, order, json_flag, approx):
    argv = [command, "--order", str(order)]
    argv += ["--json"] * json_flag + ["--approx"] * (approx and command == "matrix")
    argv += ["--", "".join(tokens)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2)


@pytest.mark.skipif(os.name != "posix", reason="closes file descriptor 1 in the child")
@pytest.mark.parametrize(
    "args", [["tables", "--order", "2"], ["verify", "--order", "2", "--cases", "2"]]
)
def test_a_closed_stdout_is_a_user_error(args):
    # started with fd 1 closed, the child has no sys.stdout: nothing may run
    proc = subprocess.run(
        [sys.executable, "-m", "qgalois", *args],
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cannot write the output: standard output is closed"]
