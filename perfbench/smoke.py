"""Smoke test of the benchmark: every workload at its smallest size.

    python3 perfbench/smoke.py

For each workload and both trace modes it checks that the run exits 0, that
the result line names exactly the metrics BENCHMARK.json lists, with their
units, and that no task failed.  With ``--corrupt`` the first task of each
round expects a wrong output (a golden with bytes appended, a doubled matrix
product); the run must count it in error_ratio and exit nonzero.  verify_sweep
has no stored output to corrupt: its expectation is that every row passes.
Last, a directory holding only BENCHMARK.json and perfbench/ must make the
benchmark exit nonzero without a result line.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
                continue
            res = _result(proc)
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(expected[trace]))}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: {res['failed']} of {res['attempted']} tasks failed")
            print(f"ok   {where}: {len(units)} metrics, {res['attempted']} tasks", flush=True)

    for workload in ("dense_algebra", "cli_oneshot"):
        proc = _run(workload, 0, "--corrupt")
        res = _result(proc)
        ratio = [line for line in proc.stdout.splitlines() if "error_ratio" in line]
        if proc.returncode == 0 or res["correct"] or res["failed"] < 1 or not ratio:
            problems.append(f"{workload} --corrupt: exit {proc.returncode}, {res['failed']} failed")
        else:
            print(f"ok   {workload} --corrupt: {res['failed']} of {res['attempted']} failed, exit "
                  f"{proc.returncode}: {ratio[0].split(None, 1)[1]}", flush=True)

    bare = ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("cli_oneshot", 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"ok   bare directory: exit {proc.returncode} without a result", flush=True)
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
