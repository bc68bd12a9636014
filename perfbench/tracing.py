"""Span recorder for the traced benchmark run.

Wraps the public functions of the radialgauge layers at the names their
callers look up, records one span per call (layer name, parent span,
start and end in ns, and a value such as accepted steps) in flat arrays,
and restores every patched attribute on exit.  Untraced runs never import
this module.  Per-layer numbers are computed from the spans afterwards:
a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import statistics
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

from radialgauge import cli, connection, expr, radial, verify

CHECK_PREFIX = "verify.check."


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self._stack = [-1]

    def wrap(self, name, func, value=None):
        """``func`` recording a span named ``name`` per call; ``value`` maps
        the call's result to an integer stored with the span."""
        kind_id = self._ids.setdefault(name, len(self._ids))
        if kind_id == len(self.names):
            self.names.append(name)
        kind, parent, start, end, values = (self.kind, self.parent, self.start,
                                            self.end, self.value)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(kind)
            kind.append(kind_id)
            parent.append(stack[-1])
            end.append(0)
            values.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if value is not None:
                values[index] = value(result)
            return result

        return traced

    def save(self, path):
        """Write the spans as a NumPy archive."""
        np.savez_compressed(path, names=np.array(self.names), kind=self.kind,
                            parent=self.parent, start=self.start,
                            end=self.end, value=self.value)


def _patch_points(tracer):
    """(owner, attribute, replacement) for every traced call site."""
    transport = tracer.wrap("radial.transport", radial.radial_transport)
    partial = tracer.wrap("radial.transport", radial.radial_transport_partial)
    frame = tracer.wrap("radial.frame", radial.radial_frame)
    grid = tracer.wrap("radial.grid", radial.radial_section_grid)
    expr_proxy = types.ModuleType(expr.__name__)
    expr_proxy.__dict__.update(vars(expr))
    expr_proxy.evaluate = tracer.wrap("expr.evaluate", expr.evaluate)
    checks = tuple((name, tracer.wrap(CHECK_PREFIX + name, runner))
                   for name, runner in verify._SUITE_CHECKS)
    return [
        (cli, "main", tracer.wrap("cli.main", cli.main)),
        (cli, "load_config", tracer.wrap("cli.load_config", cli.load_config)),
        (cli, "radial_section_grid", grid),
        (cli, "radial_frame", frame),
        (cli, "radial_transport", transport),
        (cli, "run_suite", tracer.wrap("verify.run_suite", cli.run_suite)),
        (verify, "_SUITE_CHECKS", checks),
        (verify, "radial_transport", transport),
        (verify, "radial_transport_partial", partial),
        (verify, "radial_frame", frame),
        (radial, "radial_transport", transport),
        (radial, "radial_frame", frame),
        (radial, "integrate_linear",
         tracer.wrap("integrator", radial.integrate_linear,
                     value=lambda result: result.steps)),
        (connection.ConnectionField, "coefficients_at",
         tracer.wrap("connection.coefficients_at",
                     connection.ConnectionField.coefficients_at)),
        (connection, "expr_mod", expr_proxy),
    ]


@contextmanager
def traced(tracer):
    """Install the span recorders; on exit put every original back and
    fail if any attribute is not the original object again."""
    patches = _patch_points(tracer)
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
    leftover = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in originals
                if getattr(owner, attr) is not original]
    if leftover:
        raise RuntimeError(f"tracer left patched attributes: {leftover}")


def _percentile(values, q):
    if len(values) < 2:
        return float(values[0]) if len(values) else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, ops, wall_s):
    """Per-layer numbers from the recorded spans, as {name: (value, unit)}.
    ``ops`` is the number of rays, suites or frames the traced requests
    completed and ``wall_s`` their summed wall time; the ``verify`` numbers
    are per suite, and zero outside the suite workload."""
    label = np.array(tracer.names, dtype=object)[
        np.frombuffer(tracer.kind, dtype=np.int32)]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = (np.frombuffer(tracer.end, dtype=np.int64)
           - np.frombuffer(tracer.start, dtype=np.int64)) / 1e9
    value = np.frombuffer(tracer.value, dtype=np.int64)
    child = np.zeros(len(dur))
    np.add.at(child, parent[parent >= 0], dur[parent >= 0])
    self_time = dur - child

    def nearest(name):
        """Each span's nearest enclosing span named ``name``, itself
        included, or -1; one pass per nesting level."""
        is_name = label == name
        out = np.where(is_name, np.arange(len(label)), -1)
        up = parent.copy()
        todo = (out < 0) & (up >= 0)
        while todo.any():
            hit = todo & is_name[np.maximum(up, 0)]
            out[hit] = up[hit]
            up[todo] = parent[up[todo]]
            todo = (out < 0) & (up >= 0)
        return out

    def per(count, base):
        return float(count) / base if base else 0.0

    wall = max(wall_s, 1e-12)
    coeff = label == "connection.coefficients_at"
    evaluate = label == "expr.evaluate"
    integ = label == "integrator"
    transport = label == "radial.transport"
    steps = int(value[integ].sum())
    transport_ms = list(1e3 * dur[transport])

    metrics = {
        "expr.evaluate_calls_per_op": (per(evaluate.sum(), ops), "count"),
        "expr.evaluate_us": (1e6 * per(dur[evaluate].sum(), evaluate.sum()),
                             "us"),
        "expr.self_share": (self_time[evaluate].sum() / wall, "ratio"),
        "connection.coeff_calls_per_op": (per(coeff.sum(), ops), "count"),
        "connection.coeff_self_us": (
            1e6 * per(self_time[coeff].sum(), coeff.sum()), "us"),
        "connection.self_share": (self_time[coeff].sum() / wall, "ratio"),
        "integrator.calls_per_op": (per(integ.sum(), ops), "count"),
        "integrator.accepted_steps_per_call": (per(steps, integ.sum()),
                                               "count"),
        "integrator.coeff_evals_per_step": (
            per((coeff & (nearest("integrator") >= 0)).sum(), steps), "count"),
        "integrator.self_us_per_step": (
            1e6 * per(self_time[integ].sum(), steps), "us"),
        "integrator.self_share": (self_time[integ].sum() / wall, "ratio"),
        "radial.transports_per_op": (per(transport.sum(), ops), "count"),
        "radial.transport_ms_p50": (_percentile(transport_ms, 50), "ms"),
        "radial.transport_ms_p90": (_percentile(transport_ms, 90), "ms"),
        "radial.transports_per_frame": (
            per((transport & (nearest("radial.frame") >= 0)).sum(),
                (label == "radial.frame").sum()), "count"),
    }
    for check, _ in verify._SUITE_CHECKS:
        span = CHECK_PREFIX + check
        metrics[f"verify.{check}_s"] = (
            per(dur[label == span].sum(), ops), "s")
        metrics[f"verify.{check}_transports"] = (
            per((transport & (nearest(span) >= 0)).sum(), ops), "count")
    metrics["verify.transports_per_suite"] = (
        per((transport & (nearest("verify.run_suite") >= 0)).sum(), ops),
        "count")

    loads = label == "cli.load_config"
    metrics["cli.load_config_ms"] = (
        1e3 * per(dur[loads].sum(), loads.sum()), "ms")
    main_of = nearest("cli.main")
    for command, span in (("grid", "radial.grid"),
                          ("check", "verify.run_suite")):
        under = (label == span) & (main_of >= 0)
        mains = np.unique(main_of[under])
        overhead = dur[mains].sum() - dur[under].sum()
        metrics[f"cli.{command}_overhead_ms"] = (
            1e3 * per(overhead, len(mains)), "ms")
    return metrics
