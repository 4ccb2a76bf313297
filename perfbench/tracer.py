"""Span tracer for the corneafit layer boundaries.

The tracer wraps, from outside the package, every function that one
corneafit module calls in another, plus the in-module stages the
per-layer metrics name (such as `solver.picard_step`). Dataclass
constructors are not wrapped; they cost microseconds. Wrapping rebinds
the name in every loaded corneafit module that holds the function,
because `from .x import f` copies the binding: patching only the
defining module would miss the caller's copy. `uninstall` restores
every binding.

A span records its name, start, end, parent span, op id, whether the call
raised, and one amount (Bessel elements, file bytes, Picard iterations or
fit points) taken from the call. Spans stay in memory until `dump`.
"""

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np


def _bessel_elements(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["z"]))


def _read_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _iterations(args, kwargs, result):
    return result.iterations


def _points_used(args, kwargs, result):
    return result.n_points_used


# (defining module, function name, amount taken from the call or None)
TARGETS = (
    ("special", "bessel_i", _bessel_elements),
    ("special", "bessel_k", _bessel_elements),
    ("kernel", "v0", None),
    ("kernel", "v1", None),
    ("kernel", "dv0", None),
    ("kernel", "dv1", None),
    ("kernel", "admissibility", None),
    ("solver", "solve", _iterations),
    ("solver", "picard_step", None),
    ("solver", "h0_profile", None),
    ("solver", "residual_sup", None),
    ("solver", "envelope_check", None),
    ("solver", "fd_oracle", None),
    ("solver", "_h0_values", None),
    ("solver", "_dh0_values", None),
    ("data", "read_mesh", _read_bytes),
    ("data", "write_mesh", _written_bytes),
    ("fit", "fit_mesh", _points_used),
    ("fit", "_measure_apex", None),
    ("fit", "estimate_ellipse", None),
    ("fit", "calibrate_a", None),
    ("fit", "elliptical_radius", None),
    ("fit", "axial_distance_map", None),
    ("cli", "main", None),
)

KERNEL_TABLES = ("kernel.v0", "kernel.v1", "kernel.dv0", "kernel.dv1")
# fields of a per-op entry in Tracer.per_op
CALLS, SELF_S, AMOUNT = range(3)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    failed: bool
    amount: int


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, amount):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                counted = amount(args, kwargs, result) if amount and not failed else 0
                spans[index] = Span(name, start, end, parent, self.op, failed, counted)
            return result

        return traced

    def install(self):
        modules = [
            module for key, module in sys.modules.items()
            if key == "corneafit" or key.startswith("corneafit.")
        ]
        for layer, attr, amount in TARGETS:
            fn = getattr(sys.modules["corneafit." + layer], attr)
            wrapper = self._wrap(f"{layer}.{attr}", fn, amount)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, fn))

    def uninstall(self):
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def per_op(self):
        """{op: {span name: [calls, self seconds, amount]}}.

        A span's self time is its duration minus its child spans'.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        table = {}
        for span, children in zip(self.spans, child_time):
            entry = table.setdefault(span.op, {}).setdefault(span.name, [0, 0.0, 0])
            entry[CALLS] += 1
            entry[SELF_S] += span.end - span.start - children
            entry[AMOUNT] += span.amount
        return table

    def dump(self, path, header):
        """Write the header line and one JSON line per span."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write(json.dumps(header) + "\n")
            for index, span in enumerate(self.spans):
                record = {"id": index, **vars(span)}
                handle.write(json.dumps(record) + "\n")


def layer_metrics(tracer, ops):
    """Per-op layer metrics for the listed ops.

    Counts and amounts are means over the ops (exact for a fixed op
    sequence); self times are the median over ops of the per-op sum.
    """
    table = tracer.per_op()
    rows = [table.get(op, {}) for op in ops]

    def mean_of(names, field):
        return sum(sum(row[n][field] for n in names if n in row) for row in rows) / len(rows)

    def median_ms(names):
        return 1e3 * statistics.median(
            sum(row[n][SELF_S] for n in names if n in row) for row in rows
        )

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for fn in ("special.bessel_i", "special.bessel_k"):
        put(f"{fn}.calls", mean_of([fn], CALLS), "count")
        put(f"{fn}.elements", mean_of([fn], AMOUNT), "count")
        put(f"{fn}.self_ms", median_ms([fn]), "ms")
    for fn in KERNEL_TABLES:
        put(f"{fn}.calls", mean_of([fn], CALLS), "count")
    put("kernel.tables.self_ms", median_ms(KERNEL_TABLES), "ms")
    put("kernel.admissibility.calls", mean_of(["kernel.admissibility"], CALLS), "count")
    put("kernel.admissibility.self_ms", median_ms(["kernel.admissibility"]), "ms")
    put("solver.iterations", mean_of(["solver.solve"], AMOUNT), "count")
    put("solver.solve.self_ms", median_ms(["solver.solve"]), "ms")
    for fn in ("solver.picard_step", "solver.h0_profile"):
        put(f"{fn}.calls", mean_of([fn], CALLS), "count")
        put(f"{fn}.self_ms", median_ms([fn]), "ms")
    put("solver.residual_sup.self_ms", median_ms(["solver.residual_sup"]), "ms")
    put("solver.envelope_check.self_ms", median_ms(["solver.envelope_check"]), "ms")
    for fn in ("data.read_mesh", "data.write_mesh"):
        put(f"{fn}.calls", mean_of([fn], CALLS), "count")
        put(f"{fn}.self_ms", median_ms([fn]), "ms")
        put(f"{fn}.bytes", mean_of([fn], AMOUNT), "bytes")
    put("fit.fit_mesh.self_ms", median_ms(["fit.fit_mesh"]), "ms")
    put("fit._measure_apex.calls", mean_of(["fit._measure_apex"], CALLS), "count")
    put("fit._measure_apex.self_ms", median_ms(["fit._measure_apex"]), "ms")
    put("fit.estimate_ellipse.self_ms", median_ms(["fit.estimate_ellipse"]), "ms")
    put("fit.calibrate_a.self_ms", median_ms(["fit.calibrate_a"]), "ms")
    put("fit.axial_distance_map.calls", mean_of(["fit.axial_distance_map"], CALLS), "count")
    put("fit.axial_distance_map.self_ms", median_ms(["fit.axial_distance_map"]), "ms")
    put("fit.points_used", mean_of(["fit.fit_mesh"], AMOUNT), "count")
    put("cli.main.self_ms", median_ms(["cli.main"]), "ms")
    return metrics
