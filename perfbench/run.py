"""The qgalois benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is verify_sweep, dense_algebra, cli_oneshot, or all (the default: every
workload, one after another, each in a process of its own).  Run it from
anywhere; it uses the library under ``src/`` of the checkout that holds it.

A round is a fixed list of tasks made from the seed and the round number.
``--seconds`` sets how many rounds run: as many as this commit completes in
about that time on a 2-core Xeon (the ``nominal_round_s`` of each workload),
so every run of one workload times the same number of tasks.

``--trace 0`` times the rounds untraced and prints the end-to-end metrics.
Task, round and set-up times are CPU seconds, CLI children included; the
set-up probes run a few at a time between rounds.  The median round wall
time, the round CPU time and, where a workload runs enough tasks, the tail
latency are printed beside them.
``--trace 1`` runs about a quarter of the rounds (at least three) twice,
untraced and under the span tracer, alternating which goes first, then round
0 twice under the call counter, and prints the per-layer metrics.  The two
counted runs must give equal counts.

Output: one line per metric with its unit and direction, a ``record`` JSON
line (environment, every metric, workload identity), and last a JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
any exactness check failed or the counts differ, and 2 when the checkout has
no qgalois source.  Files go to ``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import COUNTED, IMPORT_SPAN, LAYERS, SUITES, CallCounter, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 21
# The tail is reported from this many tasks on, where it is p90 or higher.
TAIL_MIN_TASKS = 100

# name -> (unit, better); the metrics a user of the library sees.  Task and
# set-up times are CPU seconds: on the shared machine the wall time of the same
# work varied from 1.03x to 1.33x its CPU time between runs minutes apart.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "tasks_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "o7_s": ("s", "lower"),
    "o8_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed and recorded but kept out of the result line: cpu_s because it is
# the tasks of one round over tasks_per_s, wall time for the reason above,
# latency_tail_ms because only cli_oneshot runs enough tasks to have a tail,
# and error_ratio because it is 0 on every run of a correct commit
# (failed / attempted carry it there).
PRINTED_ONLY = {
    "cpu_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "error_ratio": ("ratio", "lower"),
}

# Layers every workload reaches, so their times are measured on each one.
TIMED_EVERYWHERE = [
    "cyclotomic.mul",
    "cyclotomic.add",
    "cyclotomic.inverse",
    "qplane.plane_mul",
    "qplane.represent",
    "qplane.matrix_mul",
    "qplane.xpoly_mul",
    "qplane.xpoly_twist",
    "qplane.xpoly_inverse",
    "calculus.build_families",
]


def _layer_meta():
    meta = {}
    for layer in COUNTED:
        meta[f"{layer}.calls"] = ("count", "lower")
    for suite in SUITES:
        meta[f"{suite}.calls"] = ("count", "lower")
    meta["verify.rows"] = ("count", "higher")
    meta["verify.rows_failed"] = ("count", "lower")
    meta["cli.commands"] = ("count", "higher")
    meta["cli.exit_nonzero"] = ("count", "lower")
    meta["qplane.xpoly_inverse.rejected"] = ("ratio", "lower")
    for layer in LAYERS:
        if layer in SUITES:
            meta[f"{layer}.s"] = ("s", "lower")
        else:
            meta[f"{layer}.self_s"] = ("s", "lower")
    meta["cli.import_s"] = ("s", "lower")
    meta["trace.overhead_s"] = ("s", "lower")
    return meta


def per_layer_names(meta) -> list[str]:
    """The per-layer metrics of the result line: all counts, and the times of
    layers every workload reaches.  A layer a workload never calls would read
    0 s on every run; those times are printed and kept in the result file."""
    timed = {f"{layer}.self_s" for layer in TIMED_EVERYWHERE} | {"trace.overhead_s"}
    return [name for name, (unit, _) in meta.items() if unit != "s" or name in timed]


# -- environment record ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(os.getloadavg()),
        "commit": _git_commit(),
        "seed": seed,
    }


# -- set-up ----------------------------------------------------------------------


class SetupProbe:
    """CPU seconds a fresh process takes to import qgalois and build what the
    workload first touches.  One unmeasured probe first writes the bytecode;
    the measured ones are taken a few at a time between rounds, so that a
    passing burst of load on the machine reaches only some of them."""

    def __init__(self, cls, env):
        self.argv = [
            sys.executable,
            str(HERE / "setup_probe.py"),
            str(int(cls.cli)),
            str(int(cls.families)),
            *map(str, cls.orders),
        ]
        self.env = env
        self.times: list[float] = []
        self._probe()

    def _probe(self) -> float:
        proc = subprocess.run(self.argv, env=self.env, cwd=ROOT, capture_output=True, text=True, check=True)
        return float(proc.stdout)

    def take(self, k: int):
        self.times.extend(self._probe() for _ in range(k))


# -- rounds ------------------------------------------------------------------------


class Rounds:
    """Per-round wall and CPU time and per-task CPU time of one measured series."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.tasks: list[tuple[int, int, float]] = []  # (round, order, CPU seconds)
        self.attempted = 0
        self.failed = 0
        self.child_rss_kb = 0

    def order_time(self, order: int) -> float:
        per_round = [
            sum(s for r, o, s in self.tasks if r == i and o == order) for i in range(len(self.walls))
        ]
        return statistics.median(per_round)


def run_rounds(wl, rounds, mode: str = "plain", instrument=None, out=None, after_round=None) -> Rounds:
    """Run the rounds one task at a time; a failed task is counted, never retried.

    mode is plain, trace (instrument: a Tracer) or count (instrument: a
    CallCounter in process, a dict the CLI children's counts add into).  A
    round's tasks are made before the instrument is installed, so input
    generation is neither traced nor counted.  The rounds are appended to
    ``out`` when given; ``after_round(i)`` runs after round i, untimed.
    """
    out = Rounds() if out is None else out
    in_process = not wl.cli and instrument is not None
    for r in rounds:
        tasks = wl.tasks(r)
        i = len(out.walls)
        if in_process:
            instrument.install()
        try:
            cpu0, child_cpu = time.process_time(), 0.0
            wall0 = time.perf_counter()
            for task in tasks:
                if mode == "trace":
                    instrument.task = out.attempted
                start = time.process_time()
                try:
                    if in_process and mode == "count":
                        instrument.start()
                    try:
                        outcome = wl.run(task, mode, instrument)
                    finally:
                        if in_process and mode == "count":
                            instrument.stop()
                except Exception:
                    traceback.print_exc()
                    outcome = None
                seconds = time.process_time() - start
                out.attempted += 1
                if outcome is None or not outcome.ok:
                    out.failed += 1
                if outcome is not None:
                    seconds += outcome.child_cpu_s
                    child_cpu += outcome.child_cpu_s
                    out.child_rss_kb = max(out.child_rss_kb, outcome.child_rss_kb)
                out.tasks.append((i, task.order, seconds))
            out.walls.append(time.perf_counter() - wall0)
            out.cpus.append(time.process_time() - cpu0 + child_cpu)
        finally:
            if in_process:
                instrument.uninstall()
        if after_round is not None:
            after_round(i)
    return out


def count_round(wl) -> tuple[dict, Rounds]:
    if wl.cli:
        sink: dict = {}
        rounds = run_rounds(wl, [0], "count", sink)
        return sink, rounds
    counter = CallCounter()
    rounds = run_rounds(wl, [0], "count", counter)
    counts = counter.counts()
    counts["cli.commands"] = 0
    counts["cli.exit_nonzero"] = 0
    return counts, rounds


# -- metrics -------------------------------------------------------------------------


def end_to_end(rounds: Rounds, setup: list[float], wl) -> tuple[dict, dict, dict]:
    lat = sorted(s for _, _, s in rounds.tasks)
    n = len(lat)
    rss_kb = rounds.child_rss_kb if wl.cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cpu_s = statistics.median(rounds.cpus)
    metrics = {
        "setup_s": statistics.median(setup),
        "tasks_per_s": n / len(rounds.cpus) / cpu_s,
        "latency_p50_ms": statistics.median(lat) * 1000,
        "o7_s": rounds.order_time(7),
        "o8_s": rounds.order_time(8),
        "peak_rss_mb": rss_kb / 1024,
    }
    per_task = "task CPU time" + (" of the CLI child" if wl.cli else "")
    notes = {
        "setup_s": f"CPU time, median of {len(setup)} fresh processes",
        "tasks_per_s": "tasks per round over the median round CPU time",
        "latency_p50_ms": per_task,
        "o7_s": "CPU time per round on order-7 tasks, median",
        "o8_s": "CPU time per round on order-8 tasks, median",
        "peak_rss_mb": "largest CLI child" if wl.cli else "this process",
        "cpu_s": f"median of {len(rounds.cpus)} rounds" + (", CLI children included" if wl.cli else "")
        + "; tasks per round over tasks_per_s",
        "wall_s": f"median round wall time, {len(rounds.walls)} rounds",
    }
    printed = {"cpu_s": cpu_s, "wall_s": statistics.median(rounds.walls)}
    if n >= TAIL_MIN_TASKS:
        # the highest percentile with ten samples beyond it
        printed["latency_tail_ms"] = lat[n - 11] * 1000
        notes["latency_tail_ms"] = f"{per_task}, p{100 * (n - 10) / n:.1f} of {n} samples"
    else:
        notes["latency_tail_ms"] = f"not reported: {n} tasks, a tail needs {TAIL_MIN_TASKS}"
    return metrics, printed, notes


def per_layer(tracer, traced: Rounds, plain: Rounds, counts: dict) -> dict:
    summary = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    n = len(traced.walls)
    metrics = dict(counts)
    for layer in LAYERS:
        s = summary.get(layer, zero)
        if layer in SUITES:
            metrics[f"{layer}.s"] = s["total_s"] / n
        else:
            metrics[f"{layer}.self_s"] = s["self_s"] / n
    metrics["cli.import_s"] = summary.get(IMPORT_SPAN, zero)["total_s"] / n
    inv = summary.get("qplane.xpoly_inverse", zero)["calls"]
    metrics["qplane.xpoly_inverse.rejected"] = tracer.raised.get("qplane.xpoly_inverse", 0) / inv if inv else 0.0
    # round i of both series ran the same tasks, one right after the other
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced.walls, plain.walls))
    return metrics


# -- one workload -------------------------------------------------------------------


def plan_rounds(cls, seconds: int) -> int:
    return max(cls.min_rounds, round(seconds / cls.nominal_round_s))


def run_workload(cls, seed: int, seconds: int, trace: int, corrupt: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    record = {"workload": cls.name, "trace": trace, "environment": environment(seed)}
    wl = cls(ROOT, seed, corrupt)
    wl.warm()
    planned = plan_rounds(cls, seconds)
    correct = True
    if trace == 0:
        setup = SetupProbe(cls, env)

        def probe_between(i):
            setup.take(SETUP_PROBES * (i + 1) // planned - SETUP_PROBES * i // planned)

        rounds = run_rounds(wl, range(planned), after_round=probe_between)
        metrics, printed, notes = end_to_end(rounds, setup.times, wl)
        meta = END_TO_END
        series = [rounds]
        record["rounds"] = {"walls": rounds.walls, "cpus": rounds.cpus, "setup": setup.times}
        record["printed"] = printed
    else:
        pairs = max(3, math.ceil(planned / 4))
        plain, traced, tracer = Rounds(), Rounds(), Tracer()
        for r in range(pairs):
            sides = [(plain, "plain", None), (traced, "trace", tracer)]
            for out, mode, instrument in sides[:: 1 if r % 2 == 0 else -1]:
                run_rounds(wl, [r], mode, instrument, out=out)
        first, counted = count_round(wl)
        second, recounted = count_round(wl)
        if first != second:
            correct = False
            diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
            sys.stderr.write(f"call counts differ between two counted runs: {diff}\n")
        all_meta = _layer_meta()
        every = per_layer(tracer, traced, plain, first)
        metrics = {name: every[name] for name in per_layer_names(all_meta)}
        meta = all_meta
        series = [plain, traced, counted, recounted]
        record["all_layer_metrics"] = every
        record["rounds"] = {"plain_walls": plain.walls, "traced_walls": traced.walls}
        spans = _scratch() / f"spans-{cls.name}-seed{seed}.tsv.gz"
        tracer.write(spans, f"workload={cls.name} seed={seed} rounds={pairs} clock=perf_counter_ns")
        record["spans_file"] = str(spans.relative_to(ROOT))
        record["trace_spans_per_round"] = len(tracer.cols["span"]) / pairs
        _print_layers(every, all_meta, pairs, traced, plain, record["trace_spans_per_round"])
    attempted = sum(s.attempted for s in series)
    failed = sum(s.failed for s in series)
    correct = correct and failed == 0
    record["environment"]["loadavg_after"] = list(os.getloadavg())
    record["rounds_planned"] = planned
    record["metrics"] = {k: {"value": v, "unit": meta[k][0], "better": meta[k][1]} for k, v in metrics.items()}
    record["error_ratio"] = failed / attempted
    if trace == 0:
        printed["error_ratio"] = failed / attempted
        notes["error_ratio"] = f"{failed} failed of {attempted} attempted"
        _print_end_to_end(cls.name, metrics, printed, notes)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
            "meta": meta, "record": record}


def _scratch() -> Path:
    path = ROOT / ".bench_build" / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _print_end_to_end(name, metrics, printed, notes):
    print(f"== {name}: end to end")
    units = {**END_TO_END, **PRINTED_ONLY}
    for key in units:
        unit, better = units[key]
        value = metrics.get(key, printed.get(key))
        shown = "-" if value is None else f"{value:.6f}"
        print(f"{name}  {key:<16} {shown:>14} {unit:<5} ({better} is better) {notes.get(key, '')}")
    print(f"{name}  no wait metric: one task at a time in one thread, so no layer waits on another")


def _print_layers(every, meta, pairs, traced, plain, spans):
    print(f"== per layer (times per traced round, {pairs} rounds; counts for round 0)")
    for key in sorted(every):
        unit, better = meta[key]
        print(f"  {key:<34} {every[key]:16.6f} {unit:<5} ({better} is better)")
    diffs = " ".join(f"{t - p:+.3f}" for t, p in zip(traced.walls, plain.walls))
    print(f"  trace.overhead_s is the median over {pairs} rounds of traced minus untraced wall time "
          f"({diffs} s; untraced rounds {min(plain.walls):.3f}-{max(plain.walls):.3f} s; {spans:.0f} spans per round)")


def run_each(args) -> int:
    """Every workload in a child process of its own, so that each one's peak
    RSS and caches are its own; the children's metrics are prefixed with
    their workload's name in the result line."""
    from workloads import WORKLOADS

    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.corrupt:
            argv.append("--corrupt")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(f"{name}: no result line, exit {proc.returncode}\n")
            return 1
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"] and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # test hook for smoke.py: the first task of each round expects a wrong output
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qgalois" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qgalois source at {src}\n")
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_each(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    res = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, args.corrupt)
    record = res["record"]
    path = _scratch() / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": res["meta"][k][0]} for k, v in res["metrics"].items()},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
