"""Smoke test of the benchmark workloads in perfbench/: each builds, one
request of each passes its oracle, and the self-tests still show that the
oracles can fail; one frame request also runs under the benchmark's span
recorders.  Nothing under perfbench/ is changed."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from radialgauge import connection, expr, integrator, radial, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("name", ["grid_sphere", "suite_sphere",
                                  "frame_expr_s3"])
def test_workload_request_passes_oracle(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path, 0)
    attempted, failed = workload.check(0, workload.run(0))
    assert attempted > 0
    assert failed == 0, workload.failures


@pytest.mark.parametrize("name", ["grid_sphere", "suite_sphere",
                                  "frame_expr_s3"])
def test_workload_self_test_ok(workloads, name, tmp_path):
    # the grid self-test runs the batched sweep at atol = rtol = 1e-2, where
    # the metric oracle must reject rows
    report = workloads.WORKLOADS[name](tmp_path, 0).self_test()
    assert report["ok"], report


def test_traced_frame_request_takes_compiled_path(workloads, tmp_path):
    # the tracer patches connection.expr_mod, radial.integrate_linear and
    # verify.radial_transport_partial by name; a missing name fails here
    tracing = _load("tracing")
    workload = workloads.WORKLOADS["frame_expr_s3"](tmp_path, 0)
    with tracing.traced(tracing.Tracer()) as tracer:
        attempted, failed = workload.check(0, workload.run(0))
    assert (attempted, failed) == (1, 0), workload.failures
    assert connection.expr_mod is expr
    assert radial.integrate_linear is integrator.integrate_linear
    assert verify.radial_transport_partial is radial.radial_transport_partial
    spans = np.array(tracer.names)[np.frombuffer(tracer.kind, dtype=np.int32)]
    assert list(spans).count("radial.frame") == 1
    assert list(spans).count("expr.evaluate") == 0


def test_frame_request_makes_one_coefficient_call_per_rk4_pass(workloads,
                                                              tmp_path):
    # rk4 with 64 steps evaluates the 3 x 64 nodes of the fine pass and the
    # 3 x 32 of the half-resolution pass, for all 3 columns, in one call
    # each (one call per node and pass made 288)
    workload = workloads.WORKLOADS["frame_expr_s3"](tmp_path, 0)
    field = workload.config.field
    rows = []
    batch = field.coefficients_batch
    field.coefficients_batch = lambda points: (rows.append(len(points)),
                                               batch(points))[1]
    frame = workload.run(0)
    del field.coefficients_batch
    assert rows == [64 * 3 * 3, 32 * 3 * 3]
    assert workload.check(0, frame) == (1, 0), workload.failures
