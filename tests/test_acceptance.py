"""Acceptance gate: ten end-to-end criteria, one test and one printed line each.

Every check is exact (structural equality over Q(q) or Q); no tolerances are
loosened anywhere.  Each test prints

    criterion NN [PASS|FAIL] <label>

before asserting, so a full run shows the per-criterion outcome regardless of
where pytest stops.

Criterion 6 checks the generator relation of the higher order calculus,

    d^k x = ([k]_q! / q^(k(k-1)/2)) (dx)^k x^(1-k),   1 <= k <= N,

with the q-factorial [k]_q! = [1]_q [2]_q ... [k]_q.  It follows from the
coordinate recurrences P_1 = Delta(x) = (1-q)x, P_(k+1) = P_k - q^k phi(P_k)
and Q_1 = Delta(x), Q_(k+1) = phi(Q_k) Delta(x), with phi(x) = qx: they give
P_k = prod_{j=1..k} (1-q^j) x = (1-q)^k [k]_q! x and
Q_k = q^(k(k-1)/2) (1-q)^k x^k, and d^k x = tau^k P_k, (dx)^k = tau^k Q_k.
The printed form with the plain q-integer [k]_q agrees with it only for
k <= 2, where [k]_q! = [k]_q, and for k = N, where both are 0; it is kept
as a rejected variant,
pinned to fail at exactly (order, k) in (4,3), (5,3), (5,4), (6,3), (6,4),
(6,5), as criterion 5 does for the q^(k-1) twist of the Phi recurrence.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from qgalois import (
    Coordinate,
    CycScalar,
    ExtElement,
    PlaneElement,
    XPoly,
    XPolyCarrier,
    build_families,
    conjugation_dx,
    differential,
    from_dx_basis,
    higher_delta,
    higher_delta_closed,
    higher_differential_of_x,
    identity_check,
    partial_derivative,
    q_integer,
    q_plane_families,
    represent,
    right_derivative,
)
from qgalois.qplane import basis_matrices, scalar_rank
from qgalois.quaternion import (
    CARRIER,
    QUAT_I,
    QUAT_J,
    QUAT_K,
    QUAT_ONE,
    from_quaternion,
    second_right_derivative,
    to_quaternion,
)

from samplers import rand_plane, rand_quat, rand_xpoly

ORDERS = (2, 3, 4, 5, 6)
GOLDEN_DIR = Path(__file__).parent / "goldens"


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{status}] {label}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)


def test_criterion_01_nilpotency():
    rng = random.Random(1001)
    started = time.monotonic()
    ok = True
    detail = ""
    for order in ORDERS:
        for _ in range(100):
            xi = rand_plane(rng, order)
            for _ in range(order):
                xi = differential(xi)
            if xi:
                ok = False
                detail = f"d^{order} != 0 at order {order}"
                break
        # witness below the top power: d^(N-1) x = N y^(N-1) x != 0
        w = PlaneElement.x(order)
        for _ in range(order - 1):
            w = differential(w)
        if w != PlaneElement.monomial(order, order - 1, 1, order):
            ok = False
            detail = f"missing d^(N-1) witness at order {order}"
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        ok = False
        detail = f"runtime {elapsed:.1f}s"
    _report(1, "d^N = 0 on 100 random elements per order, witness d^(N-1) x != 0", ok, detail)
    assert ok, detail
    assert elapsed < 10.0


def test_criterion_02_graded_q_leibniz():
    rng = random.Random(1002)
    ok = True
    detail = ""
    for order in ORDERS:
        c = XPolyCarrier(order)
        for _ in range(100):
            l = rng.randrange(order)
            u = ExtElement.from_component(c, l, rand_xpoly(rng, order, 4))
            v = rand_plane(rng, order, 4)
            lhs = differential(u * v)
            rhs = differential(u) * v + (u * differential(v)).scale_by_q(l)
            if lhs != rhs:
                ok = False
                detail = f"order {order}, degree {l}"
                break
    _report(2, "d(uv) = d(u) v + q^deg(u) u d(v), 100 pairs per order", ok, detail)
    assert ok, detail


def test_criterion_03_vanishing_identities():
    results = []
    for order in ORDERS:
        results.extend((f"plane order {order}", r) for r in identity_check(q_plane_families(order)))
    quat_fam = build_families(CARRIER, CARRIER.x())
    results.extend(("quaternion order 2", r) for r in identity_check(quat_fam))
    bad = [f"{where}: {r.name}" for where, r in results if not r.passed]
    ok = not bad
    _report(3, "P_N = 0 and the twisted sum of P_(N-1) vanish on both instances", ok, "; ".join(bad))
    assert ok, bad


def test_criterion_04_derivative_laws():
    rng = random.Random(1004)
    ok = True
    detail = ""
    for order in ORDERS:
        for k in range(order):
            got = partial_derivative(XPoly.monomial(order, k))
            want = (
                XPoly.zero(order) if k == 0 else XPoly.monomial(order, k - 1, q_integer(k, order))
            )
            if got != want:
                ok, detail = False, f"power rule k={k} order {order}"
        c = XPolyCarrier(order)
        x = Coordinate(c, c.x())
        for _ in range(100):
            w, v = rand_xpoly(rng, order, 4), rand_xpoly(rng, order, 4)
            if partial_derivative(w * v) != partial_derivative(w) * v + w.twist(
                1
            ) * partial_derivative(v):
                ok, detail = False, f"partial twisted Leibniz at order {order}"
                break
            rd = right_derivative(w * v, x)
            if rd != right_derivative(w, x) * v + conjugation_dx(w, x) * right_derivative(v, x):
                ok, detail = False, f"right-derivative twisted Leibniz at order {order}"
                break
    _report(4, "partial power rule and both twisted Leibniz laws, 100 pairs each", ok, detail)
    assert ok, detail


def test_criterion_05_connection_coherence():
    ok = True
    detail = ""
    for order in ORDERS:
        fam = q_plane_families(order)
        c = fam.carrier
        for k in range(1, order):
            coeff = (CycScalar.q_power(order, -k) - CycScalar.q_power(order, k)) / (
                CycScalar.one(order) - CycScalar.q(order)
            )
            closed = XPoly.monomial(order, order - 1, coeff)
            if fam.connection[k - 1] != closed:
                ok, detail = False, f"closed form k={k} order {order}"
            lhs = from_dx_basis(fam, k, XPoly.one(order)).differential()
            if lhs != from_dx_basis(fam, k + 1, fam.connection[k - 1]):
                ok, detail = False, f"tau-route k={k} order {order}"
    # regression: the q^(k-1)-twisted recurrence must disagree at order 3, k=2
    fam3 = q_plane_families(3)
    c3 = fam3.carrier
    candidate = conjugation_dx(fam3.connection[0], fam3.coordinate) + c3.q_element(0) * fam3.connection[0]
    dx2 = from_dx_basis(fam3, 2, XPoly.one(3))
    if candidate == fam3.connection[1] or dx2.differential() == from_dx_basis(fam3, 3, candidate):
        ok, detail = False, "variant recurrence unexpectedly satisfied the identity"
    _report(5, "Phi_k recurrence = closed form = tau-basis route; variant rejected", ok, detail)
    assert ok, detail


def test_criterion_06_generator_relation_as_stated():
    failures = []
    variant_rejected = []
    for order in ORDERS:
        fam = q_plane_families(order)
        factorial = CycScalar.one(order)
        for k in range(1, order + 1):
            # [k]_q! built here from q-integers, not read back from the library
            factorial = factorial * q_integer(k, order)
            twist = CycScalar.q_power(order, -(k * (k - 1) // 2))
            lhs = higher_differential_of_x(fam, k)
            r = XPoly.monomial(order, (1 - k) % order, factorial * twist)
            if lhs != from_dx_basis(fam, k, r):
                failures.append((order, k))
            r = XPoly.monomial(order, (1 - k) % order, q_integer(k, order) * twist)
            if lhs != from_dx_basis(fam, k, r):
                variant_rejected.append((order, k))
        if higher_differential_of_x(fam, order):
            failures.append((order, "top power"))
    expected_rejected = [(4, 3), (5, 3), (5, 4), (6, 3), (6, 4), (6, 5)]
    ok_relation = not failures
    ok_variant = variant_rejected == expected_rejected
    ok = ok_relation and ok_variant
    details = []
    if not ok_relation:
        details.append(f"q-factorial relation fails at (order, k) in {failures}")
    if not ok_variant:
        details.append(
            f"[k]_q variant rejected at {variant_rejected}, expected {expected_rejected}"
        )
    detail = "; ".join(details)
    _report(
        6,
        "d^k x = ([k]_q! / q^(k(k-1)/2)) (dx)^k x^(1-k), all k; [k]_q variant rejected",
        ok,
        detail,
    )
    assert ok, detail


def test_criterion_07_matrix_representation():
    rng = random.Random(1007)
    ok = True
    detail = ""
    for order in ORDERS:
        from qgalois import RepMatrix, generator_matrices

        X, Y = generator_matrices(order)
        q = CycScalar.q(order)
        if X * Y != (Y * X).scale(q):
            ok, detail = False, f"XY != qYX at order {order}"
        if X ** order != RepMatrix.identity(order) or Y ** order != RepMatrix.identity(order):
            ok, detail = False, f"generator order at {order}"
        for _ in range(100):
            a, b = rand_plane(rng, order, 4), rand_plane(rng, order, 4)
            if represent(a * b) != represent(a) * represent(b):
                ok, detail = False, f"multiplicativity at order {order}"
                break
        mats = basis_matrices(order)
        vectors = [
            [entry for row in mats[(k, l)].entries for entry in row]
            for k in range(order)
            for l in range(order)
        ]
        if scalar_rank(vectors) != order * order:
            ok, detail = False, f"rank defect at order {order}"
    _report(7, "X, Y relations, multiplicative represent, independent basis images", ok, detail)
    assert ok, detail


def test_criterion_08_quaternion_instance():
    rng = random.Random(1008)
    ok = True
    detail = ""
    hamilton = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    basis = (QUAT_ONE, QUAT_I, QUAT_J, QUAT_K)
    for (a, b), (sign, idx) in hamilton.items():
        expected = [0, 0, 0, 0]
        expected[idx] = sign
        if to_quaternion(basis[a] * basis[b]) != tuple(expected):
            ok, detail = False, f"table entry e{a} e{b}"
    for signs in itertools.product((1, -1), repeat=4):
        if differential(differential(from_quaternion(*signs))):
            ok, detail = False, f"d^2 != 0 on signs {signs}"
    for _ in range(100):
        if differential(differential(rand_quat(rng))):
            ok, detail = False, "d^2 != 0 on a random quaternion"
            break
    for _ in range(100):
        u = XPoly(2, (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))), -1)
        x = XPoly(2, (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9))), -1)
        if second_right_derivative(u, x):
            ok, detail = False, "nonzero second derivative"
            break
    _report(8, "Hamilton table, d^2 = 0, second derivatives vanish", ok, detail)
    assert ok, detail


def test_criterion_09_higher_delta():
    rng = random.Random(1009)
    ok = True
    detail = ""
    for order in ORDERS:
        for k in range(order):
            for l in range(order):
                mono = XPoly.monomial(order, l)
                if higher_delta(k, mono) != higher_delta_closed(k, mono):
                    ok, detail = False, f"monomial x^{l}, k={k}, order {order}"
            qk = CycScalar.q_power(order, k)
            for _ in range(100):
                r, s = rand_xpoly(rng, order, 4), rand_xpoly(rng, order, 4)
                if higher_delta(k, r) != higher_delta_closed(k, r):
                    ok, detail = False, f"random element, k={k}, order {order}"
                    break
                lhs = higher_delta(k, r * s)
                rhs = higher_delta(k, r) * s + r.twist(1).scale(qk) * higher_delta(0, s)
                if lhs != rhs:
                    ok, detail = False, f"derivation property, k={k}, order {order}"
                    break
    _report(9, "both higher-delta formulas agree and satisfy the derivation law", ok, detail)
    assert ok, detail


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qgalois", *args], capture_output=True, text=True
    )


def test_criterion_10_cli_end_to_end():
    ok = True
    detail = ""
    for order in ORDERS:
        proc = _run_cli("verify", "--order", str(order))
        if proc.returncode != 0:
            ok, detail = False, f"verify exited {proc.returncode} at order {order}"
    matrix = _run_cli("matrix", "--order", "2", "y")
    if matrix.stdout != "[0, 1]\n[1, 0]\n":
        ok, detail = False, "matrix output mismatch"
    diff = _run_cli("diff", "--order", "3", "x^2")
    if diff.stdout != "dx*((1 + q)*x)\n":
        ok, detail = False, "diff output mismatch"
    goldens = {
        "normalize_order2_xy.json": ["normalize", "--order", "2", "--json", "x*y"],
        "matrix_order2_y.json": ["matrix", "--order", "2", "--json", "y"],
        "tables_order2.json": ["tables", "--order", "2", "--json"],
        "diff_order3_xsq.json": ["diff", "--order", "3", "--json", "x^2"],
        "verify_order2_cases2.json": ["verify", "--order", "2", "--cases", "2", "--json"],
    }
    for name, args in goldens.items():
        proc = _run_cli(*args)
        if proc.returncode != 0 or proc.stdout != (GOLDEN_DIR / name).read_text():
            ok, detail = False, f"golden mismatch for {name}"
        else:
            json.loads(proc.stdout)
    _report(10, "verify exits 0 at orders 2..6; text and JSON goldens byte-exact", ok, detail)
    assert ok, detail
