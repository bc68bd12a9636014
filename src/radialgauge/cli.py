"""Batch command-line front end.

Subcommands (all driven by a single JSON config; see the README for the
schema):

* ``transport``  transport the configured fiber vector to --z; JSON result
* ``frame``      transported-basis matrix at --z; JSON
* ``grid``       evaluate the section over the config grid; CSV
* ``check``      run the verification suite; JSON report, exit 1 on failure
* ``parse``      parse one expression and dump its tree (debugging aid)

Exit codes: 0 success / all checks pass, 1 check failure, 2 configuration
error, 3 numeric failure.  Identical config and seed give byte-identical
output files.

``grid`` runs in one process: all rays advance in one batched integration,
which costs less than splitting them over a process pool did.  Its
``--workers`` option and the RADIAL_GAUGE_WORKERS variable are still
parsed and validated, so existing scripts keep working, but they have no
effect on the work or the output.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import connection, expr
from .connection import (BundleSpec, MissingMetricError, OutsideDomainError,
                         fiber_vector)
from .expr import EvalDomainError, ParseError
from .integrator import IntegrationError, IntegratorConfig
from .radial import GridPointError, radial_frame, radial_section_grid, radial_transport
from .verify import IllConditionedFrameError, SuiteConfig, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_CONFIG_ERRORS = (OutsideDomainError, ParseError, MissingMetricError)
_NUMERIC_ERRORS = (IntegrationError, EvalDomainError, GridPointError,
                   IllConditionedFrameError)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    spec: BundleSpec
    field: connection.ConnectionField
    initial: np.ndarray
    integrator: IntegratorConfig
    grid_axes: list | None
    suite: SuiteConfig
    outputs: dict


def _block(raw, name, required=False):
    value = raw.get(name)
    if value is None:
        if required:
            raise ConfigError(f"config is missing the {name!r} block")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name!r} block must be an object")
    return value


def _take(block, allowed, where):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where!r} block: {', '.join(sorted(unknown))}"
        )


def _load_bundle(raw):
    block = _block(raw, "bundle", required=True)
    _take(block, {"n", "k", "domain"}, "bundle")
    try:
        n, k = int(block["n"]), int(block["k"])
    except KeyError as exc:
        raise ConfigError(f"bundle block is missing {exc}")
    domain = block.get("domain")
    try:
        if domain is None:
            return BundleSpec.cube(n, k)
        if isinstance(domain, dict) and "halfwidth" in domain:
            _take(domain, {"halfwidth"}, "bundle.domain")
            return BundleSpec.cube(n, k, float(domain["halfwidth"]))
        _take(domain, {"lo", "hi"}, "bundle.domain")
        return BundleSpec(n, k, domain["lo"], domain["hi"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid bundle block: {exc}")


_BUILTIN_PARAMS = {
    "flat": set(),
    "constant": {"matrices"},
    "abelian_poly": {"exprs"},
    "rotation": {"omega"},
    "sphere_levicivita": set(),
}


def _load_connection(raw, spec):
    block = _block(raw, "connection", required=True)
    _take(block, {"builtin", "params", "expressions", "metric"}, "connection")
    if ("builtin" in block) == ("expressions" in block):
        raise ConfigError(
            "connection block needs exactly one of 'builtin' or 'expressions'"
        )
    try:
        if "builtin" in block:
            name = block["builtin"]
            params = dict(block.get("params", {}))
            if name not in _BUILTIN_PARAMS:
                known = ", ".join(sorted(_BUILTIN_PARAMS))
                raise ConfigError(
                    f"unknown builtin connection {name!r} (known: {known})"
                )
            _take(params, _BUILTIN_PARAMS[name], f"connection.params({name})")
            if "matrices" in params:
                params["mats"] = params.pop("matrices")
            if name == "flat":
                params.update(n=spec.n, k=spec.k)
            field = connection.make_builtin(name, domain=spec, **params)
        else:
            field = connection.from_expressions(block["expressions"], domain=spec)
        if "metric" in block:
            metric = connection.metric_from_expressions(block["metric"], spec.n)
            field = connection.with_metric(field, metric)
        return field
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid connection block: {exc}")


def _load_integrator(raw):
    block = _block(raw, "integrator")
    _take(block, {"method", "rk4_steps", "atol", "rtol", "max_steps"},
          "integrator")
    try:
        return IntegratorConfig(**block)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid integrator block: {exc}")


def _load_grid(raw, spec):
    block = raw.get("grid")
    if block is None:
        return None
    _take(block, {"axes"}, "grid")
    axes = block.get("axes")
    if not isinstance(axes, list) or len(axes) != spec.n:
        raise ConfigError(f"grid.axes must list {spec.n} axis blocks")
    out = []
    for i, axis in enumerate(axes):
        _take(axis, {"min", "max", "count"}, f"grid.axes[{i}]")
        try:
            lo, hi = float(axis["min"]), float(axis["max"])
            count = int(axis["count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid grid axis {i}: {exc}")
        if count < 1:
            raise ConfigError(f"grid axis {i}: count must be >= 1")
        if lo > hi:
            raise ConfigError(f"grid axis {i}: min exceeds max")
        if lo < spec.lo[i] or hi > spec.hi[i]:
            raise ConfigError(
                f"grid axis {i} range [{lo}, {hi}] exceeds domain "
                f"[{spec.lo[i]}, {spec.hi[i]}]"
            )
        out.append((lo, hi, count))
    return out


_SUITE_KEYS = {f.name for f in dataclasses.fields(SuiteConfig)} - {"integrator"}


def _load_suite(raw, integrator):
    block = _block(raw, "checks")
    _take(block, _SUITE_KEYS, "checks")
    if "checks" in block:
        block = dict(block)
        block["checks"] = tuple(block["checks"])
    if "residual_steps" in block:
        block = dict(block)
        block["residual_steps"] = tuple(float(h) for h in block["residual_steps"])
    try:
        return SuiteConfig(integrator=integrator, **block)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid checks block: {exc}")


def load_config(path):
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"bundle", "connection", "initial", "integrator", "grid",
             "checks", "output"}
    _take(raw, known, "config")
    spec = _load_bundle(raw)
    field = _load_connection(raw, spec)
    if "initial" not in raw:
        raise ConfigError("config is missing the 'initial' fiber vector")
    try:
        initial = fiber_vector(raw["initial"], spec.k)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid initial vector: {exc}")
    integrator = _load_integrator(raw)
    grid_axes = _load_grid(raw, spec)
    suite = _load_suite(raw, integrator)
    outputs = _block(raw, "output")
    _take(outputs, {"transport", "frame", "grid", "check"}, "output")
    return RunConfig(spec, field, initial, integrator, grid_axes, suite, outputs)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _emit(text, out_path):
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _parse_z(text, spec):
    if text is None:
        raise ConfigError("--z is required for this command")
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"invalid --z {text!r}: {exc}")
    if len(values) != spec.n:
        raise ConfigError(f"--z needs {spec.n} components, got {len(values)}")
    return spec.require_inside(np.array(values), what="z")


def _fmt(value):
    return format(float(value), ".17g")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_transport(config, z_text, out_path):
    z = _parse_z(z_text, config.spec)
    result = radial_transport(config.field, z, config.initial, config.integrator)
    doc = {
        "z": [float(v) for v in result.z],
        "y": [float(v) for v in result.y_final],
        "error_estimate": float(result.error_estimate),
        "steps": int(result.steps),
    }
    _emit(_json_text(doc), out_path)
    return EXIT_OK


def cmd_frame(config, z_text, out_path):
    z = _parse_z(z_text, config.spec)
    matrix = radial_frame(config.field, z, config.integrator)
    doc = {
        "z": [float(v) for v in z],
        "matrix": [[float(v) for v in row] for row in matrix],
    }
    _emit(_json_text(doc), out_path)
    return EXIT_OK


def grid_points(grid_axes):
    """Grid nodes in output order: lexicographic in the axis indices with
    the last axis varying fastest."""
    axes = [np.linspace(lo, hi, count) for lo, hi, count in grid_axes]
    return [np.array(combo) for combo in itertools.product(*axes)]


def cmd_grid(config, out_path):
    if config.grid_axes is None:
        raise ConfigError("config has no 'grid' block")
    points = grid_points(config.grid_axes)
    rows = radial_section_grid(config.field, config.initial, points,
                               config.integrator)
    n, k = config.spec.n, config.spec.k
    header = [f"x{i + 1}" for i in range(n)] + [f"y{j + 1}" for j in range(k)]
    lines = [",".join(header)]
    for z, y in rows:
        lines.append(",".join([_fmt(v) for v in z] + [_fmt(v) for v in y]))
    _emit("\n".join(lines) + "\n", out_path)
    return EXIT_OK


def cmd_check(config, out_path, seed):
    suite = config.suite
    if seed is not None:
        suite = dataclasses.replace(suite, seed=int(seed))
    report = run_suite(config.field, suite)
    _emit(_json_text(report.to_json_dict()), out_path)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_parse(expression, n):
    tree = expr.parse(expression, n)
    sys.stdout.write(expr.format_ast(tree) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _default_workers():
    value = os.environ.get("RADIAL_GAUGE_WORKERS", "1")
    try:
        workers = int(value)
    except ValueError:
        raise ConfigError(f"RADIAL_GAUGE_WORKERS={value!r} is not an integer")
    if workers < 1:
        raise ConfigError("worker count must be >= 1")
    return workers


def build_parser():
    parser = argparse.ArgumentParser(
        prog="radial-gauge",
        description="Transport fiber vectors along rays and verify the "
                    "construction numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="write output here instead "
                                                   "of stdout")

    p = sub.add_parser("transport", help="transport the initial vector to --z")
    add_config(p)
    p.add_argument("--z", required=True, help="comma-separated coordinates")

    p = sub.add_parser("frame", help="transported-basis matrix at --z")
    add_config(p)
    p.add_argument("--z", required=True, help="comma-separated coordinates")

    p = sub.add_parser("grid", help="section values over the config grid (CSV)")
    add_config(p)
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for compatibility and validated (>= 1; "
                        "default: RADIAL_GAUGE_WORKERS or 1), but has no "
                        "effect: the grid runs as one batch in one process")

    p = sub.add_parser("check", help="run the verification suite")
    add_config(p)
    p.add_argument("--seed", type=int, default=None,
                   help="override the check seed from the config")

    p = sub.add_parser("parse", help="parse an expression and dump its tree")
    p.add_argument("expression", help="expression source text")
    p.add_argument("--n", type=int, default=3,
                   help="declared base dimension (default 3)")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "parse":
            return cmd_parse(args.expression, args.n)
        config = load_config(args.config)
        if args.command == "transport":
            out = args.out or config.outputs.get("transport")
            return cmd_transport(config, args.z, out)
        if args.command == "frame":
            out = args.out or config.outputs.get("frame")
            return cmd_frame(config, args.z, out)
        if args.command == "grid":
            workers = args.workers if args.workers else _default_workers()
            if workers < 1:
                raise ConfigError("worker count must be >= 1")
            out = args.out or config.outputs.get("grid")
            return cmd_grid(config, out)
        out = args.out or config.outputs.get("check")
        return cmd_check(config, out, args.seed)
    except (ConfigError, *_CONFIG_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
