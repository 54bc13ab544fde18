"""The benchmark's three workloads: seeded inputs, tasks and exact checks.

Every workload is a closed loop with one caller: a round is a fixed list of
tasks run one after another, and the next task starts when the last ended.
Inputs come only from the benchmark seed and the round number; the library
receives the generated inputs.  Every check is exact equality: no float
tolerance anywhere.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from qgalois import CycScalar, PlaneElement, XPoly, XPolyCarrier
from qgalois import calculus, cli, qplane, verify

# Library functions are called through their modules, where the tracer
# rebinds them (qplane.represent, calculus.build_families, ...).

HERE = Path(__file__).resolve().parent

# Samples per identity in one verify task.  The fixed checks (the rank of the
# basis images, the closed forms) and the sampled ones then share the time.
VERIFY_CASES = 3

# The five commands of tests/goldens, as the golden test runs them.
GOLDENS = [
    ("normalize_order2_xy.json", ["normalize", "--order", "2", "--json", "x*y"]),
    ("matrix_order2_y.json", ["matrix", "--order", "2", "--json", "y"]),
    ("tables_order2.json", ["tables", "--order", "2", "--json"]),
    ("diff_order3_xsq.json", ["diff", "--order", "3", "--json", "x^2"]),
    ("verify_order2_cases2.json", ["verify", "--order", "2", "--cases", "2", "--json"]),
]


@dataclass
class Task:
    order: int
    run: Callable[[], bool] | None = None  # in-process tasks
    args: list[str] | None = None  # CLI tasks
    expected: bytes = b""


@dataclass
class Outcome:
    ok: bool
    child_cpu_s: float = 0.0
    child_rss_kb: int = 0


def _warm(orders, families: bool):
    """Build the lazily cached per-order structures before timing."""
    for n in orders:
        CycScalar.one(n)
        qplane.basis_matrices(n)
        if families:
            calculus.q_plane_families(n)


class _InProcess:
    """A workload whose tasks call the library in the benchmark's process."""

    cli = False

    def __init__(self, root: Path, seed: int, corrupt: bool):
        self.seed = seed
        self.corrupt = corrupt

    def warm(self):
        _warm(self.orders, self.families)

    def run(self, task: Task, mode: str, sink) -> Outcome:
        return Outcome(task.run())


class VerifySweep(_InProcess):
    """verify.run_all at orders 2..8, one call per task."""

    name = "verify_sweep"
    orders = tuple(range(2, 9))
    families = True
    nominal_round_s = 6.2
    min_rounds = 2

    def tasks(self, r: int) -> list[Task]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        out = []
        for n in self.orders:
            s = rng.randrange(2**32)
            out.append(Task(n, run=lambda n=n, s=s: _verify_task(n, s)))
        return out


def _verify_task(order: int, seed: int) -> bool:
    rows = verify.run_all(order, seed, VERIFY_CASES)
    return bool(rows) and all(r.passed for r in rows)


# -- dense operands -------------------------------------------------------------


def _dense_scalar(rng: random.Random, n: int) -> CycScalar:
    """Every coefficient of the canonical form is nonzero (full degree)."""
    deg = len(CycScalar.zero(n).coeffs)
    return CycScalar(
        n,
        tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for _ in range(deg)),
    )


def _dense_xpoly(rng: random.Random, n: int) -> XPoly:
    return XPoly(n, [_dense_scalar(rng, n) for _ in range(n)])


def _invertible(r: XPoly) -> bool:
    """r is invertible exactly when it vanishes at no root of x**N - 1."""
    return all(r.evaluate_at_q_power(j) for j in range(r.order))


def _dense_unit(rng: random.Random, n: int, image=lambda r: r) -> XPoly:
    while True:
        r = _dense_xpoly(rng, n)
        if _invertible(image(r)):
            return r


class DenseAlgebra(_InProcess):
    """Dense plane products, matrix images, inversion and families at 5, 7, 8."""

    name = "dense_algebra"
    orders = (5, 7, 8)
    families = False
    nominal_round_s = 3.3
    min_rounds = 4

    def tasks(self, r: int) -> list[Task]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        out = []
        for i, n in enumerate(self.orders):
            a = PlaneElement(n, [[_dense_scalar(rng, n) for _ in range(n)] for _ in range(n)])
            b = PlaneElement(n, [[_dense_scalar(rng, n) for _ in range(n)] for _ in range(n)])
            unit = _dense_unit(rng, n)
            # a coordinate is usable when Delta(x) = x - phi(x) is invertible
            coord = _dense_unit(rng, n, image=lambda x: x - x.twist(1))
            wrong = self.corrupt and i == 0
            out.append(Task(n, run=lambda a=a, b=b, u=unit, x=coord, w=wrong: _dense_task(a, b, u, x, w)))
        return out


def _dense_task(a: PlaneElement, b: PlaneElement, unit: XPoly, coord: XPoly, corrupt: bool) -> bool:
    """All four steps run even after a failed check, so every task does the same work."""
    n = a.order
    product = qplane.represent(a * b)
    expected = qplane.represent(a) * qplane.represent(b)
    if corrupt:
        expected = expected.scale(2)
    ok = product == expected
    ok = unit * unit.inverse() == XPoly.one(n) and ok
    fam = calculus.build_families(XPolyCarrier(n), coord)
    return all(calculus.identity_check(fam)) and ok


# -- one process per CLI command ------------------------------------------------------

_OPS = ("d", "partial", "D")


def _rational(rng: random.Random) -> str:
    p, d = rng.randint(1, 9), rng.choice((1, 1, 2, 3))
    return f"{p}/{d}" if d > 1 else str(p)


def _coeff(rng: random.Random) -> str:
    return rng.choice((_rational(rng), "q", f"{_rational(rng)}*q"))


def _x_term(rng: random.Random) -> str:
    return f"{_coeff(rng)}*x^{rng.randint(1, 3)}"


def _x_only(rng: random.Random) -> str:
    """An element of the x-subalgebra, the argument partial and Dk accept."""
    terms = [_x_term(rng) for _ in range(rng.randint(1, 2))]
    return rng.choice((" + ", " - ")).join(terms)


def _plane_term(rng: random.Random) -> str:
    return f"{_coeff(rng)}*y^{rng.randint(1, 2)}*x^{rng.randint(0, 2)}"


def _expression(rng: random.Random, n: int, op: str) -> str:
    if op == "d":
        core = f"d({_plane_term(rng)} + {_x_term(rng)})"
    elif op == "partial":
        core = f"partial({_x_only(rng)})"
    else:
        core = f"D{rng.randint(1, n - 1)}({_x_only(rng)})"
    shape = rng.randrange(3)
    if shape == 0:
        return f"{core} + {_plane_term(rng)}"
    if shape == 1:
        return f"{core} - {_x_term(rng)}"
    return f"({core})*y"


def _commands(seed: int) -> list[tuple[int, list[str]]]:
    """normalize, diff, matrix and tables at each order 2..8.

    Which commands print JSON (half of them) and which operator each
    expression applies are fixed per slot, so seeds differ in the operands,
    not in the kind of work.
    """
    rng = random.Random(f"cli_oneshot:{seed}")
    out = []
    for n in range(2, 9):
        for j, cmd in enumerate(("normalize", "diff", "matrix", "tables")):
            args = [cmd, "--order", str(n)] + (["--json"] if (n + j) % 2 else [])
            if cmd != "tables":
                args.append(_expression(rng, n, _OPS[(n + j) % len(_OPS)]))
            out.append((n, args))
    return out


def _reference(args: list[str]) -> bytes:
    """The output of the same command run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(args)
    if rc != 0:
        raise RuntimeError(f"generated command failed in process: {args}")
    return buf.getvalue().encode()


class CliOneshot:
    """One fresh ``python -m qgalois`` process per task."""

    name = "cli_oneshot"
    orders = tuple(range(2, 9))
    families = True
    cli = True
    nominal_round_s = 6.2
    min_rounds = 1

    def __init__(self, root: Path, seed: int, corrupt: bool):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.scratch = root / ".bench_build" / "perfbench"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.plan = []
        for n, args in _commands(seed):
            self.plan.append(Task(n, args=args))
        goldens = root / "tests" / "goldens"
        for fname, args in GOLDENS:
            self.plan.append(Task(int(args[2]), args=args, expected=(goldens / fname).read_bytes()))
        self.corrupt = corrupt

    def warm(self):
        _warm(self.orders, self.families)
        for task in self.plan:
            if not task.expected:
                task.expected = _reference(task.args)
        if self.corrupt:
            self.plan[0].expected += b"corrupted"

    def tasks(self, r: int) -> list[Task]:
        return self.plan

    def run(self, task: Task, mode: str, sink) -> Outcome:
        side = self.scratch / "child.json"
        if mode == "plain":
            argv = [sys.executable, "-m", "qgalois", *task.args]
        else:
            side.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "cli_child.py"), mode, str(side), *task.args]
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.root, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0 and out_path.read_bytes() == task.expected
        if not ok:
            sys.stderr.write(f"cli task failed: {task.args} exit {proc.returncode}\n")
            sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        if mode == "trace" and side.exists():
            data = json.loads(side.read_text())
            sink.absorb(data["layers"], data["spans"], data["raised"])
        elif mode == "count":
            if side.exists():
                for key, value in json.loads(side.read_text()).items():
                    sink[key] = sink.get(key, 0) + value
            sink["cli.commands"] = sink.get("cli.commands", 0) + 1
            sink["cli.exit_nonzero"] = sink.get("cli.exit_nonzero", 0) + (proc.returncode != 0)
        return Outcome(ok, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


WORKLOADS = {w.name: w for w in (VerifySweep, DenseAlgebra, CliOneshot)}
