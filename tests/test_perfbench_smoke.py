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
