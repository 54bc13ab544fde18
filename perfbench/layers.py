"""Layer table, span tracer and call counter of the qgalois benchmark.

A layer is a named set of public library functions.  Both instruments attach
from outside the library: they rebind every reference to a layer function
(class attributes such as ``CycScalar.__rmul__ = __mul__`` and the names other
qgalois modules imported with ``from .x import f``) and restore them after.

* ``Tracer`` records one span per layer call, (id, parent id, task id, layer,
  start ns, end ns), keeps the spans in memory and writes them out at the end.
  A layer's self time is derived from the spans as its duration minus the
  durations of its direct child spans.
* ``CallCounter`` counts calls with cProfile ``ncalls``, which repeat exactly
  for the same inputs on any machine.  The verify suites are profiled in
  segments of their own, so each suite's total call count identifies the
  work it drew.
"""

from __future__ import annotations

import cProfile
import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

# Layer name -> functions, as "module:qualified.name".  cli.render covers the
# JSON encoders, json.dumps and print, and the __str__ methods that print and
# f-strings call for text output.
LAYERS = {
    "cyclotomic.mul": ["qgalois.cyclotomic:CycScalar.__mul__"],
    "cyclotomic.add": ["qgalois.cyclotomic:CycScalar.__add__", "qgalois.cyclotomic:CycScalar.__sub__"],
    "cyclotomic.inverse": ["qgalois.cyclotomic:CycScalar.inverse"],
    "qplane.plane_mul": ["qgalois.qplane:PlaneElement.__mul__"],
    "qplane.represent": ["qgalois.qplane:represent"],
    "qplane.matrix_mul": ["qgalois.qplane:RepMatrix.__mul__"],
    "qplane.xpoly_mul": ["qgalois.qplane:XPoly.__mul__"],
    "qplane.xpoly_twist": ["qgalois.qplane:XPoly.twist"],
    "qplane.xpoly_inverse": ["qgalois.qplane:XPoly.inverse"],
    "galois.ext_mul": ["qgalois.galois:ExtElement.__mul__"],
    "galois.differential": ["qgalois.galois:differential"],
    "galois.q_commutator": ["qgalois.galois:q_commutator"],
    "galois.right_derivative": ["qgalois.galois:right_derivative"],
    "calculus.build_families": ["qgalois.calculus:build_families"],
    "calculus.kform_differential": ["qgalois.calculus:KForm.differential"],
    "calculus.partial_derivative": ["qgalois.calculus:partial_derivative"],
    "calculus.higher_delta": ["qgalois.calculus:higher_delta"],
    "verify.scalar_suite": ["qgalois.verify:scalar_suite"],
    "verify.galois_suite": ["qgalois.verify:galois_suite"],
    "verify.qplane_suite": ["qgalois.verify:qplane_suite"],
    "verify.calculus_suite": ["qgalois.verify:calculus_suite"],
    "verify.quaternion_suite": ["qgalois.verify:quaternion_suite"],
    "cli.parse": ["qgalois.cli:parse"],
    "cli.evaluate": ["qgalois.cli:evaluate"],
    "cli.render": [
        "qgalois.cli:element_json",
        "qgalois.cli:matrix_json",
        "qgalois.cli:xpoly_json",
        "qgalois.cli:scalar_json",
        "qgalois.qplane:PlaneElement.__str__",
        "qgalois.qplane:XPoly.__str__",
        "qgalois.qplane:RepMatrix.__str__",
        "qgalois.cyclotomic:CycScalar.__str__",
        "json:dumps",
        "builtins:print",
    ],
}

SUITES = [name for name in LAYERS if name.startswith("verify.")]

# Layers whose calls are counted; cli layers are counted as commands instead.
COUNTED = {
    name: targets
    for name, targets in LAYERS.items()
    if not name.startswith(("verify.", "cli."))
}
# Fraction construction is the machine-independent proxy for scalar cost.
COUNTED["cyclotomic.fraction_new"] = ["fractions:Fraction.__new__"]

# The span cli_child.py records around one CLI process's qgalois import.
IMPORT_SPAN = "cli.import"


def _resolve(target: str):
    module, qualname = target.split(":")
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _holders(owner):
    yield owner
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "qgalois" or name.startswith("qgalois.")):
            if module is not owner:
                yield module


class _Patches:
    """Rebinds functions to wrappers and restores the originals."""

    def __init__(self):
        self._saved = []

    def rebind(self, target: str, make_wrapper):
        owner, _, fn = _resolve(target)
        wrapper = make_wrapper(fn)
        for holder in _holders(owner):
            for attr, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, attr, wrapper)
                    self._saved.append((holder, attr, fn))

    def restore(self):
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved.clear()


class Tracer:
    """In-memory spans at every layer boundary, one task id per task."""

    COLUMNS = ("span", "parent", "task", "layer", "start_ns", "end_ns")

    def __init__(self):
        self.task = -1
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self._next = 0
        self._stack: list[int] = []
        self.cols = {c: array("q") for c in self.COLUMNS}
        self.raised: dict[str, int] = defaultdict(int)
        self._patches = _Patches()

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def add_span(self, parent: int, layer: str, start: int, end: int):
        self._append(self._next, parent, self.layer_id(layer), start, end)
        self._next += 1

    def _append(self, sid, parent, lid, start, end):
        c = self.cols
        c["span"].append(sid)
        c["parent"].append(parent)
        c["task"].append(self.task)
        c["layer"].append(lid)
        c["start_ns"].append(start)
        c["end_ns"].append(end)

    def _wrap(self, layer: str, fn):
        lid = self.layer_id(layer)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.raised[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                tracer._append(sid, parent, lid, start, end)

        return traced

    def install(self):
        for layer, targets in LAYERS.items():
            for target in targets:
                self._patches.rebind(target, functools.partial(self._wrap, layer))

    def uninstall(self):
        self._patches.restore()

    def absorb(self, layers: list[str], spans: list[list[int]], raised: dict[str, int]):
        """Append spans recorded by another process as rows (id, parent, layer, start, end)."""
        offset = self._next
        top = -1
        for sid, parent, lid, start, end in spans:
            self._append(
                sid + offset,
                parent + offset if parent >= 0 else -1,
                self.layer_id(layers[lid]),
                start,
                end,
            )
            top = max(top, sid)
        self._next = offset + top + 1
        for layer, n in raised.items():
            self.raised[layer] += n

    def export(self) -> dict:
        rows = zip(*(self.cols[c] for c in ("span", "parent", "layer", "start_ns", "end_ns")))
        return {"layers": self.layers, "spans": [list(r) for r in rows], "raised": dict(self.raised)}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds, self seconds (duration minus direct children)."""
        c = self.cols
        child = array("q", bytes(8 * self._next))
        for parent, start, end in zip(c["parent"], c["start_ns"], c["end_ns"]):
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(int)
        selfs = defaultdict(int)
        calls = defaultdict(int)
        for sid, lid, start, end in zip(c["span"], c["layer"], c["start_ns"], c["end_ns"]):
            d = end - start
            calls[lid] += 1
            totals[lid] += d
            selfs[lid] += d - child[sid]
        return {
            name: {"calls": calls[lid], "total_s": totals[lid] / 1e9, "self_s": selfs[lid] / 1e9}
            for lid, name in enumerate(self.layers)
        }

    def write(self, path, header: str):
        """Spans as gzip TSV, one row per span, columns as in COLUMNS."""
        c = self.cols
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(f"# {header}\n")
            f.write("\t".join(self.COLUMNS) + "\n")
            rows = zip(c["span"], c["parent"], c["task"], c["layer"], c["start_ns"], c["end_ns"])
            for sid, parent, task, lid, start, end in rows:
                f.write(f"{sid}\t{parent}\t{task}\t{self.layers[lid]}\t{start}\t{end}\n")


def _code_key(fn):
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


class CallCounter:
    """cProfile call counts per layer, with each verify suite in its own segment."""

    def __init__(self):
        self._outer = cProfile.Profile()
        self._suites = {name: cProfile.Profile() for name in SUITES}
        self.rows = 0
        self.rows_failed = 0
        self._patches = _Patches()

    def _segment(self, suite: str, fn):
        counter = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counter._outer.disable()
            prof = counter._suites[suite]
            prof.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                prof.disable()
                counter._outer.enable()

        return counted

    def _rows(self, fn):
        counter = self

        @functools.wraps(fn)
        def run_all(*args, **kwargs):
            rows = fn(*args, **kwargs)
            counter.rows += len(rows)
            counter.rows_failed += sum(not r.passed for r in rows)
            return rows

        return run_all

    def install(self):
        for suite in SUITES:
            for target in LAYERS[suite]:
                self._patches.rebind(target, functools.partial(self._segment, suite))
        self._patches.rebind("qgalois.verify:run_all", self._rows)

    def uninstall(self):
        self._patches.restore()

    def start(self):
        self._outer.enable()

    def stop(self):
        self._outer.disable()

    def counts(self) -> dict[str, int]:
        keys = {}
        for layer, targets in COUNTED.items():
            for target in targets:
                keys[_code_key(_resolve(target)[2])] = layer
        out = {f"{layer}.calls": 0 for layer in COUNTED}
        for prof in [self._outer, *self._suites.values()]:
            prof.create_stats()
            for key, (_, ncalls, *_rest) in prof.stats.items():
                layer = keys.get(key)
                if layer:
                    out[f"{layer}.calls"] += ncalls
        for suite, prof in self._suites.items():
            out[f"{suite}.calls"] = sum(v[1] for v in prof.stats.values())
        out["verify.rows"] = self.rows
        out["verify.rows_failed"] = self.rows_failed
        return out
