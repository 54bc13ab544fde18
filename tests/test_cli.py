"""Expression front end: tokenizer, parser, evaluator, commands, goldens."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgalois import CycScalar, PlaneElement
from qgalois.cli import (
    Add,
    Call,
    CovD,
    EvalError,
    Mul,
    Neg,
    Number,
    ParseError,
    Pow,
    Sub,
    Sym,
    evaluate,
    main,
    parse,
    render,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"


def test_parse_shapes():
    assert parse("x*y - q*y*x") == Sub(
        Mul(Sym("x"), Sym("y")), Mul(Mul(Sym("q"), Sym("y")), Sym("x"))
    )
    assert parse("d(x^2)") == Call("d", Pow(Sym("x"), 2))
    assert parse("partial( x )") == Call("partial", Sym("x"))
    assert parse("D2(x)") == CovD(2, Sym("x"))
    assert parse("3/4*x") == Mul(Number(Fraction(3, 4)), Sym("x"))
    # '-' binds at the atom, so the exponent applies to the negated atom
    assert parse("-x^2") == Pow(Neg(Sym("x")), 2)
    assert parse("x + y + q") == Add(Add(Sym("x"), Sym("y")), Sym("q"))


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


def test_render_fixed_points():
    for src in ("x*y - q*y*x", "d(x^2)", "-x^2", "3/4*x", "D2(x)", "x*(y + 1)"):
        assert render(parse(src)) == src


def test_render_inserts_minimal_parens():
    assert render(Mul(Add(Sym("x"), Sym("y")), Sym("q"))) == "(x + y)*q"
    assert render(Pow(Add(Sym("x"), Sym("y")), 2)) == "(x + y)^2"
    assert render(Sub(Sym("x"), Sub(Sym("y"), Sym("q")))) == "x - (y - q)"
    assert render(Neg(Pow(Sym("x"), 2))) == "-(x^2)"


_exprs = st.recursive(
    st.one_of(
        st.fractions(min_value=0, max_value=30, max_denominator=9).map(Number),
        st.sampled_from(["q", "x", "y"]).map(Sym),
    ),
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Mul, inner, inner),
        st.builds(Pow, inner, st.integers(min_value=0, max_value=6)),
        st.builds(Call, st.sampled_from(["d", "partial"]), inner),
        st.builds(CovD, st.integers(min_value=1, max_value=9), inner),
    ),
    max_leaves=12,
)


@settings(max_examples=200)
@given(_exprs)
def test_parse_render_round_trip(tree):
    assert parse(render(tree)) == tree


def test_evaluate_relation_ideal():
    for order in (2, 3, 4, 5):
        assert evaluate(parse("x*y - q*y*x"), order).is_zero()
        assert evaluate(parse(f"x^{order} - 1"), order).is_zero()
        assert evaluate(parse(f"y^{order} - 1"), order).is_zero()


def test_evaluate_differential():
    assert evaluate(parse("d(d(x))"), 2).is_zero()
    got = evaluate(parse("d(x)"), 3)
    q = CycScalar.q(3)
    assert got == PlaneElement.monomial(3, 1, 1, 1 - q)


def test_evaluate_operators():
    q = CycScalar.q(3)
    assert evaluate(parse("partial(x^2)"), 3) == PlaneElement.x(3).scale(1 + q)
    assert evaluate(parse("D1(x)"), 3).is_zero()
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
        main(["verify", "--order", "9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--order", "9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--order", "3000", "x"])
    assert exc.value.code == 2


def test_main_rejects_case_counts_below_one():
    for cases in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--order", "2", "--cases", cases])
        assert exc.value.code == 2


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


def _left_spine(node):
    """A left-nested chain as (operator, right operand) pairs plus its first operand.

    Dataclass == on the chain itself recurses once per level, past the recursion limit.
    """
    spine = []
    while isinstance(node, (Add, Sub, Mul)):
        spine.append((type(node), node.right))
        node = node.left
    return spine, node


@pytest.mark.parametrize("sep", [" + ", "*"])
def test_long_flat_chains_render(sep):
    src = sep.join(["x"] * 3001)
    tree = parse(src)
    text = render(tree)
    assert text == src
    assert _left_spine(parse(text)) == _left_spine(tree)


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


def test_verify_output_is_deterministic():
    a = run_cli("verify", "--order", "2", "--cases", "4", "--json")
    b = run_cli("verify", "--order", "2", "--cases", "4", "--json")
    assert a.stdout == b.stdout
