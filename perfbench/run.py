"""Benchmark of the radialgauge package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) as a closed loop with a
single client for S seconds of summed request time, checks every output
against its oracle, and prints one JSON line of run information followed
by the result line
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
same requests run once untraced and once under span recorders, and the
metrics are the per-layer ones.  The package is imported from ./src; a
directory without it is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from hostspeed import HostTimer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
# typical wall time of a fresh `python3 -c "import numpy"`, 2-core Xeon
SETUP_REFERENCE_S = 0.15
PROCESS_PROBES = 3
CHILD_TIMEOUT_S = 60


def machine_info():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _child_seconds(argv):
    """Wall seconds of one child process, started from the checkout root."""
    start = time.perf_counter()
    subprocess.run(argv, capture_output=True, check=True,
                   timeout=CHILD_TIMEOUT_S, env=_child_env(), cwd=ROOT)
    return time.perf_counter() - start


def setup_seconds(config_path):
    """Set-up seconds of fresh processes, one per probe, each scaled by
    SETUP_REFERENCE_S over the mean wall time of the reference children
    (``python3 -c "import numpy"``) run right before and after it.  Returns
    the scaled values, the probes' wall times and the references'."""
    probe = [sys.executable,
             str(Path(__file__).resolve().parent / "setup_probe.py"),
             config_path]
    reference = [sys.executable, "-c", "import numpy"]
    references = [_child_seconds(reference)]
    walls = []
    for _ in range(SETUP_PROBES):
        walls.append(_child_seconds(probe))
        references.append(_child_seconds(reference))
    scaled = [wall * SETUP_REFERENCE_S / (0.5 * (before + after))
              for wall, before, after in zip(walls, references,
                                             references[1:])]
    return scaled, walls, references


def process_transport_seconds(config_path):
    """Wall time of cold ``radial-gauge transport`` child processes."""
    argv = [sys.executable, "-m", "radialgauge.cli", "transport",
            "--config", config_path, "--z", "0.5,-0.25"]
    return [_child_seconds(argv) for _ in range(PROCESS_PROBES)]


class Tally:
    """Items attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, workload, index, output):
        if output is None:
            attempted, failed = (workload.items_per_request,) * 2
        else:
            attempted, failed = workload.check(index, output)
        self.attempted += attempted
        self.failed += failed


def run_request(workload, index):
    """Output of one request, or None if it raised."""
    try:
        return workload.run(index)
    except Exception as exc:  # a failed operation, counted by the caller
        print(f"request {index} raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return None


def closed_loop(workload, seconds, timer, tally):
    """Cycle through the workload's requests until their summed wall time
    reaches ``seconds``, then on to the end of the workload's pass, and
    check each output outside the timed region.  Returns the request
    indices, wall times and host-scaled times."""
    indices, wall, scaled = [], [], []
    while sum(wall) < seconds or len(indices) % workload.pass_length:
        index = len(indices) % len(workload.requests)
        elapsed, elapsed_scaled, output = timer.time(run_request, workload,
                                                     index)
        tally.add(workload, index, output)
        indices.append(index)
        wall.append(elapsed)
        scaled.append(elapsed_scaled)
    return indices, wall, scaled


def request_metrics(workload, times):
    ops = len(times) * workload.ops_per_request
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    return {
        "throughput_per_s": (ops / sum(times), "1/s"),
        "request_ms_p50": (1e3 * statistics.median(times), "ms"),
        "request_ms_p90": (1e3 * p90, "ms"),
    }


def end_to_end(workload, seconds, tally, timer):
    _, wall, scaled = closed_loop(workload, seconds, timer, tally)
    setup, setup_wall, setup_reference = setup_seconds(workload.setup_config)
    factor = statistics.median(s / w for s, w in zip(scaled, wall))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (rss_mb, "MB")}
    metrics.update(request_metrics(workload, scaled))
    info = {"requests": len(wall), "host_factor": factor,
            "setup_s_wall": setup_wall,
            "setup_reference_s": setup_reference,
            "wall_clock": {name: value for name, (value, _)
                           in request_metrics(workload, wall).items()},
            "tracer_imported": "tracing" in sys.modules}
    return metrics, info, not info["tracer_imported"]


def per_layer(workload, seconds, tally, timer, work_dir):
    import tracing
    import workloads

    # a quarter of the run untraced, then the same requests traced
    indices, _, untraced = closed_loop(workload, seconds / 4.0, timer, tally)
    tracer = tracing.Tracer()
    clean = True
    traced, traced_scaled, outputs = [], [], []
    try:
        with tracing.traced(tracer):
            for index in indices:
                wall, scaled, output = timer.time(run_request, workload, index)
                traced.append(wall)
                traced_scaled.append(scaled)
                outputs.append(output)
    except RuntimeError as exc:  # an attribute was left patched
        print(f"error: {exc}", file=sys.stderr)
        clean = False
    for index, output in zip(indices, outputs):
        tally.add(workload, index, output)
    ops = len(indices) * workload.ops_per_request
    metrics = tracing.layer_metrics(tracer, ops, sum(traced))
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{workload.name}-seed{workload.seed}.npz")

    grid = workloads.GridSphere(work_dir, workload.seed)
    rate1, ok1 = grid.pool_rays_per_s(1)
    rate2, ok2 = grid.pool_rays_per_s(2)
    cold = process_transport_seconds(grid.setup_config)
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in sorted((SRC / "radialgauge").rglob("*.py")))
    metrics.update({
        "radial.grid_rays_per_s_workers2": (rate2, "1/s"),
        "radial.pool_speedup": (rate2 / rate1, "ratio"),
        "cli.process_transport_s": (statistics.median(cold), "s"),
        "trace.overhead_ratio": (sum(traced_scaled) / sum(untraced), "ratio"),
        "src.lines": (src_lines, "count"),
    })
    info = {"requests": len(indices), "spans": len(tracer.kind),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "grid_rays_per_s_workers1": rate1, "cold_transport_s": cold,
            "tracer_restored": clean}
    return metrics, info, clean and ok1 and ok2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "radialgauge" / "__init__.py").is_file():
        print(f"error: no radialgauge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import radialgauge

    if Path(radialgauge.__file__).resolve().parent != SRC / "radialgauge":
        print(f"error: radialgauge imported from {radialgauge.__file__}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        self_test = workload.self_test()
        known_fault = (workload.known_fault()
                       if hasattr(workload, "known_fault") else None)
        tally.add(workload, 0, run_request(workload, 0))  # warm-up, untimed
        timer = HostTimer()
        if args.trace:
            metrics, info, ok = per_layer(workload, args.seconds, tally,
                                          timer, work)
        else:
            metrics, info, ok = end_to_end(workload, args.seconds, tally,
                                           timer)

    info.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "machine": machine_info(), "sizes": workload.sizes,
                 "self_test": self_test, "failures": workload.failures[:20]})
    if known_fault is not None:
        info["known_fault"] = known_fault
    print(json.dumps(info, default=float))
    result = {
        "correct": bool(ok and self_test["ok"] and tally.failed == 0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
