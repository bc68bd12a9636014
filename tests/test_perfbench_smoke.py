"""Smoke test of the benchmark workloads in perfbench/: each builds, one
request of each passes its oracle, and the self-tests still show that the
oracles can fail.  Nothing under perfbench/ is changed."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
