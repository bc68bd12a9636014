"""Numerical checks of the transported section's defining properties.

Every check is a pure function of (field, seed, parameters) returning a
CheckReport; ``run_suite`` runs all applicable checks and aggregates the
verdicts, capturing per-check failures instead of raising.  Differentiation
is second-order central differencing throughout, so each check's bound has
the shape C * (step^2 + integrator_error / step); smoothness itself is
asserted through its finite observable surrogates (convergence order of
difference quotients, linearity of directional derivatives, symmetry of
mixed seconds), never as an infinite statement.

Each check first lists every segment it needs (all samples, stencil
points, difference steps and basis vectors), transports them as the rows
of one ``transport_segments`` call per leg, and then reduces the rows to
its report.  Rows of a batch do not depend on each other, so every value
equals the one-point call (``radial_residual``, ``_gauge_matrices``,
``radial_transport``) bit for bit.  If the batch fails, the check fails
with the error of the row that failed first.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .connection import MissingMetricError, fiber_vector
from .integrator import DEFAULT_CONFIG, IntegratorConfig, require_count
from .radial import transport_segments
# not called here: the benchmark's span recorder patches these names
from .radial import (radial_frame, radial_transport,  # noqa: F401
                     radial_transport_partial)


class IllConditionedFrameError(RuntimeError):
    """The transported-frame matrix is too ill-conditioned to invert."""


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CheckReport:
    """Outcome of one check (or of the whole suite).

    ``measured`` is a list of {name, value, bound, kind, pass} entries,
    where kind "max" means value <= bound and "min" means value >= bound;
    the verdict is "pass" exactly when every entry passes.  ``samples``
    holds per-sample detail for reproducibility; input parameters
    (including the seed) live in ``params``.
    """

    name: str
    params: dict
    samples: list
    measured: list
    verdict: str

    @property
    def passed(self):
        return self.verdict == "pass"

    @property
    def bound(self):
        return {m["name"]: m["bound"] for m in self.measured}

    @classmethod
    def from_measurements(cls, name, params, samples, measured):
        verdict = "pass" if all(m["pass"] for m in measured) else "fail"
        return cls(name, params, samples, measured, verdict)

    def to_json_dict(self):
        return {
            "name": self.name,
            "params": _plain(self.params),
            "samples": _plain(self.samples),
            "measured": _plain(self.measured),
            "bound": _plain(self.bound),
            "verdict": self.verdict,
        }


def _measure(name, value, bound, kind="max"):
    value = float(value)
    bound = float(bound)
    ok = value <= bound if kind == "max" else value >= bound
    return {"name": name, "value": value, "bound": bound, "kind": kind,
            "pass": bool(ok)}


def _plain(obj):
    """Recursively convert to JSON-safe builtins (non-finite floats to str)."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    return obj


def _random_point(rng, spec, margin=0.0):
    lo = spec.lo + margin
    hi = spec.hi - margin
    return lo + rng.uniform(size=spec.n) * (hi - lo)


def _random_fiber(rng, k):
    return rng.uniform(-1.0, 1.0, size=k)


def _random_unit(rng, n):
    while True:
        v = rng.standard_normal(n)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm


def _config_params(config):
    return dataclasses.asdict(config)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def radial_residual(field, z, y0, step=None, config=None):
    """Finite-difference covariant derivative of the transported section
    along the outward radial direction at z, as a k-vector.

    The section xi(w) := y(1, w) is recomputed at the 2n stencil points
    w = z +- step * e_i; the covariant slot D_i xi + M_i xi is assembled
    with central differences and contracted with z.  For the exact section
    the radial covariant derivative vanishes, so the returned residual is
    pure differencing error: O(step^2) truncation plus integrator noise
    divided by step.  At z = 0 it is exactly zero (every term carries a
    factor z_i = 0).
    """
    spec = field.spec
    z = spec.require_inside(z, what="z")
    h = spec.default_step() if step is None else float(step)
    y0 = fiber_vector(y0, spec.k)
    ys = _stencil_transports(field, z, h, y0[None], config)[0, :, 0]
    return _residual_from_stencil(field, z, h, ys)


def _residual_from_stencil(field, z, h, ys):
    """``radial_residual`` at z from the (2n + 1, k) transports ``ys`` of
    one vector to z's stencil, in ``_stencil_transports`` point order."""
    n = field.spec.n
    xi0 = ys[0]
    mats = field.coefficients_at(z)
    total = np.zeros(field.spec.k)
    for i in range(n):
        plus, minus = ys[1 + i], ys[1 + n + i]
        covariant_i = (plus - minus) / (2.0 * h) + mats[i] @ xi0
        total = total + z[i] * covariant_i
    return total


def _stencil_transports(field, zs, hs, y0s, config):
    """Ray transports to each of the m centres ``zs`` and to its 2n stencil
    points z + h e_i, then z - h e_i, in one batch, with h the centre's
    entry of ``hs`` (or one step for all).  ``y0s`` holds p fiber vectors,
    as a (p, k) array shared by all centres or an (m, p, k) array.  Returns
    an (m, 2n + 1, p, k) array in that point order."""
    n = field.spec.n
    zs = np.asarray(zs, dtype=float).reshape(-1, n)
    offsets = np.reshape(hs, (-1, 1, 1)) * np.eye(n)
    centres = zs[:, None]
    points = np.concatenate((centres, centres + offsets, centres - offsets),
                            axis=1)
    y0s = np.asarray(y0s, dtype=float)
    y0s = np.broadcast_to(y0s, (len(zs),) + y0s.shape[-2:])
    m, q = points.shape[:2]
    p, k = y0s.shape[1:]
    ends = np.repeat(points, p, axis=1).reshape(-1, n)
    starts = np.broadcast_to(y0s[:, None], (m, q, p, k)).reshape(-1, k)
    res = transport_segments(field, 0.0, ends, starts, config)
    return res.y.reshape(m, q, p, k)


def scaling_identity_check(field, samples=100, config=None, seed=0, bound=1e-9):
    """Transporting all the way along a shortened ray must agree with
    transporting partway along the full ray: y(1, t z) = y(t, z).

    Each side computed as one integration from the origin would be the
    same computation: the generator of the ray to t z at parameter s is t
    times that of the ray to z at parameter t s, and the step controllers
    are invariant under that rescaling, so both runs take the same steps
    and agree to rounding at any tolerance.  The right side is therefore
    built in two legs: the ray to (t/2) z, which by the same rescaling is
    y(t/2, z), then the segment from (t/2) z to t z restarted from that
    value.  The second leg's step sequence differs from the left side's,
    so the deviation follows the integration error and the check fails
    when the tolerance is too loose for ``bound``.  The rays from the
    origin (left side and first leg) are one batch over all samples, and
    the second leg is another.
    """
    config = DEFAULT_CONFIG if config is None else config
    spec = field.spec
    samples = require_count(samples, "samples")
    rng = np.random.default_rng(seed)
    draws = [(_random_point(rng, spec), float(rng.uniform()),
              _random_fiber(rng, spec.k)) for _ in range(samples)]
    zs = np.array([z for z, _, _ in draws])
    ts = np.array([t for _, t, _ in draws]).reshape(-1, 1)
    y0s = np.array([y0 for _, _, y0 in draws])
    ends, middles = ts * zs, (0.5 * ts) * zs
    rays = transport_segments(field, 0.0, np.concatenate((ends, middles)),
                              np.concatenate((y0s, y0s)), config).y
    shortened, halfway = rays[:samples], rays[samples:]
    partway = transport_segments(field, middles, ends, halfway, config).y
    details = []
    worst = 0.0
    for (z, t, _), left, right in zip(draws, shortened, partway):
        deviation = float(np.linalg.norm(left - right))
        worst = max(worst, deviation)
        details.append({"z": z, "t": t, "deviation": deviation})
    measured = [_measure("max_deviation", worst, bound)]
    params = {"samples": samples, "seed": seed, "field": field.family,
              "integrator": _config_params(config)}
    return CheckReport.from_measurements("scaling_identity", params, details,
                                         measured)


def residual_convergence_check(field, samples=20, steps=(1e-3, 1e-4),
                               config=None, seed=0, bound=1e-6,
                               min_order=1.8, floor=1e-10):
    """Radial residual over random points at a decreasing list of difference
    steps: the residual at the smallest step stays below ``bound`` and
    shrinks with measured order >= ``min_order`` (second-order stencils).

    Per sample, the order is log(r_first / r_last) / log(h_first / h_last);
    samples already at the integrator noise floor are counted as converged
    and excluded from the order statistic, whose median is asserted.  The
    stencils of every sample at every step are one batch.
    """
    config = DEFAULT_CONFIG if config is None else config
    spec = field.spec
    steps = sorted((float(h) for h in steps), reverse=True)
    if len(steps) < 2:
        raise ValueError("need at least two difference steps")
    samples = require_count(samples, "samples")
    rng = np.random.default_rng(seed)
    draws = [(_random_point(rng, spec, margin=steps[0]),
              _random_fiber(rng, spec.k)) for _ in range(samples)]
    per_step = len(steps)
    stencils = _stencil_transports(
        field, np.repeat([z for z, _ in draws], per_step, axis=0),
        np.tile(steps, samples),
        np.repeat([[y0] for _, y0 in draws], per_step, axis=0), config,
    ).reshape(samples, per_step, 2 * spec.n + 1, spec.k)
    details = []
    orders = []
    worst = 0.0
    for (z, _), rows in zip(draws, stencils):
        norms = [float(np.linalg.norm(_residual_from_stencil(field, z, h, ys)))
                 for h, ys in zip(steps, rows)]
        worst = max(worst, norms[-1])
        if norms[-1] <= floor:
            order = float("inf")  # already converged below the noise floor
        else:
            order = float(np.log(norms[0] / norms[-1])
                          / np.log(steps[0] / steps[-1]))
            orders.append(order)
        details.append({"z": z, "residuals": norms, "order": order})
    median_order = float(np.median(orders)) if orders else float("inf")
    measured = [
        _measure("max_residual_smallest_step", worst, bound),
        _measure("median_order", median_order, min_order, kind="min"),
    ]
    params = {"samples": samples, "steps": steps, "seed": seed,
              "floor": floor, "field": field.family,
              "integrator": _config_params(config)}
    return CheckReport.from_measurements("radial_residual", params, details,
                                         measured)


def smoothness_probe(field, y0, steps=None, directions=None, config=None,
                     seed=0, dir_step=None, mixed_steps=None, n_directions=20,
                     min_order=1.8, dir_bound=1e-6, mixed_bound=1e-5,
                     floor=1e-11):
    """Empirical smoothness of z -> y(1, z) at the origin.

    Three finite observables stand in for differentiability:

    (a) central-difference first derivatives along each axis converge with
        measured order >= ``min_order`` as the step shrinks (differences
        below ``floor`` count as converged);
    (b) directional derivatives along ``directions`` (random unit vectors
        if not given) match the Jacobian assembled from the axis
        derivatives within ``dir_bound`` -- the linearity of the
        derivative at 0;
    (c) mixed second differences taken with the step pair on axis (i, j)
        and swapped onto (j, i) -- two genuinely different stencils --
        agree within ``mixed_bound``.

    Every point the three observables evaluate the section at is known in
    advance, so all of them are transported in one batch.
    """
    config = DEFAULT_CONFIG if config is None else config
    spec = field.spec
    n = spec.n
    scale = spec.halfwidth
    if steps is None:
        steps = tuple(scale * f for f in (0.1, 0.05, 0.025, 0.0125))
    steps = sorted((float(h) for h in steps), reverse=True)
    if len(steps) < 3:
        raise ValueError("need at least three steps to measure an order")
    dir_step = 1e-3 * scale if dir_step is None else float(dir_step)
    if mixed_steps is None:
        mixed_steps = (5e-3 * scale, 2.5e-3 * scale)
    a, b = float(mixed_steps[0]), float(mixed_steps[1])
    y0 = fiber_vector(y0, spec.k)
    if directions is None:
        rng = np.random.default_rng(seed)
        directions = [_random_unit(rng, n)
                      for _ in range(require_count(n_directions, "n_directions"))]
    directions = [np.asarray(v, dtype=float) for v in directions]
    if not directions:
        raise ValueError("need at least one direction")
    axes = np.eye(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    # the evaluation points, in the order the observables read them back
    points = []
    for e in axes:  # (a)
        for h in steps:
            points += [h * e, -h * e]
    for v in [*axes, *directions]:  # (b)
        points += [dir_step * v, -dir_step * v]
    for i, j in pairs:  # (c)
        for u, v in ((axes[i], axes[j]), (axes[j], axes[i])):
            points += [a * u + b * v, a * u - b * v,
                       -a * u + b * v, -a * u - b * v]
    values = iter(transport_segments(field, 0.0, points, y0, config).y)

    def central(h):  # d_v estimate from the next +h v and -h v values
        plus, minus = next(values), next(values)
        return (plus - minus) / (2.0 * h)

    def mixed():  # d_u d_v estimate from the next four stencil values
        pp, pm, mp, mm = (next(values) for _ in range(4))
        return (pp - pm - mp + mm) / (4.0 * a * b)

    details = []

    # (a) per-axis convergence of first derivatives
    axis_orders = []
    for i in range(n):
        estimates = [central(h) for h in steps]
        gaps = [float(np.linalg.norm(p - q))
                for p, q in zip(estimates, estimates[1:])]
        orders = []
        for m in range(len(gaps) - 1):
            if gaps[m + 1] <= floor:
                continue  # converged to the noise floor
            orders.append(float(np.log(gaps[m] / gaps[m + 1])
                                / np.log(steps[m] / steps[m + 1])))
        axis_order = min(orders) if orders else float("inf")
        axis_orders.append(axis_order)
        details.append({"axis": i, "gaps": gaps, "order": axis_order})
    min_axis_order = min(axis_orders)

    # (b) directional derivatives against the assembled Jacobian
    jacobian = np.column_stack([central(dir_step) for _ in range(n)])
    worst_dir = 0.0
    for v in directions:
        err = float(np.linalg.norm(central(dir_step) - jacobian @ v))
        worst_dir = max(worst_dir, err)
        details.append({"direction": v, "jacobian_error": err})

    # (c) symmetry of mixed second differences
    worst_mixed = 0.0
    for i, j in pairs:
        first = mixed()
        asym = float(np.linalg.norm(first - mixed()))
        worst_mixed = max(worst_mixed, asym)
        details.append({"pair": [i, j], "asymmetry": asym})

    measured = [
        _measure("min_axis_order", min_axis_order, min_order, kind="min"),
        _measure("max_directional_error", worst_dir, dir_bound),
        _measure("max_mixed_asymmetry", worst_mixed, mixed_bound),
    ]
    params = {"steps": steps, "dir_step": dir_step,
              "mixed_steps": [a, b], "seed": seed, "floor": floor,
              "field": field.family, "integrator": _config_params(config)}
    return CheckReport.from_measurements("smoothness", params, details, measured)


def _gauge_matrices(field, z, step, config, cond_limit):
    """Connection matrices rewritten in the transported frame:
    G_i = P^{-1} (D_i P + M_i P), with D_i P by central differences.
    Returns (G, condition number of P(z))."""
    return _gauge_batch(field, [z], step, config, cond_limit)[0]


def _gauge_batch(field, zs, step, config, cond_limit):
    """``_gauge_matrices`` at every point of ``zs``, from one batch of the
    basis transports to all stencils.  The frames' condition numbers are
    tested in point order after the batch."""
    spec = field.spec
    zs = [spec.require_inside(z, what="z") for z in zs]
    h = spec.default_step() if step is None else float(step)
    stencils = _stencil_transports(field, zs, h, np.eye(spec.k), config)
    out = []
    for z, ys in zip(zs, stencils):
        # frames[q][:, j] is the transport of e_j: the frame at stencil point q
        frames = np.ascontiguousarray(ys.transpose(0, 2, 1))
        frame = frames[0]
        cond = float(np.linalg.cond(frame))
        if cond > cond_limit:
            raise IllConditionedFrameError(
                f"transported frame at z={z.tolist()} has condition number "
                f"{cond:.3e} (limit {cond_limit:.1e})"
            )
        mats = field.coefficients_at(z)
        gauge = np.empty_like(mats)
        for i in range(spec.n):
            d_frame = (frames[1 + i] - frames[1 + spec.n + i]) / (2.0 * h)
            gauge[i] = np.linalg.solve(frame, d_frame + mats[i] @ frame)
        out.append((gauge, cond))
    return out


def _gauge_norms(field, zs, step, config, cond_limit):
    """``radial_gauge_check`` at every point of ``zs``, from one batch."""
    gauges = _gauge_batch(field, zs, step, config, cond_limit)
    return [float(np.linalg.norm(np.tensordot(np.asarray(z, dtype=float),
                                              gauge, axes=(0, 0))))
            for z, (gauge, _) in zip(zs, gauges)]


def radial_gauge_check(field, z, step=None, config=None, cond_limit=1e8):
    """Norm of the radial combination sum_i z_i G_i(z) of the connection
    matrices in the transported frame (see ``_gauge_matrices``).

    The transported frame kills the radial slot of the connection, so the
    value sits at the differencing floor C * (step^2 + tol / step); it is
    the frame-level counterpart of ``radial_residual``.  Exactly zero at
    z = 0.  Raises IllConditionedFrameError instead of guessing when the
    frame's condition number exceeds ``cond_limit``.
    """
    return _gauge_norms(field, [z], step, config, cond_limit)[0]


def radial_gauge_fit(field, radius=5e-4, samples=20, step=None, config=None,
                     seed=0, bound=1e-6, cond_limit=1e8):
    """Affine least-squares model of the transported-frame matrices near 0.

    P(0) = I forces the matrices to vanish at the origin, so the fitted
    constant term must sit at the differencing noise floor; that is the
    asserted measurement.  The fitted linear response is reported next to
    the finite-difference curvature at 0 for side-by-side inspection --
    no proportionality between them is asserted.

    Sample points come in +-z pairs on spheres of radius <= ``radius`` so
    even and odd contributions cannot leak into each other.  The basis
    transports to every sample's stencil are one batch.
    """
    config = DEFAULT_CONFIG if config is None else config
    spec = field.spec
    pairs = max(1, require_count(samples, "samples") // 2)
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(pairs):
        z = radius * float(rng.uniform(0.5, 1.0)) * _random_unit(rng, spec.n)
        points.append(z)
        points.append(-z)
    values = np.stack([gauge for gauge, _ in _gauge_batch(
        field, points, step, config, cond_limit)])  # (m, n, k, k)
    design = np.column_stack([np.ones(len(points)), np.stack(points)])
    flat_values = values.reshape(len(points), -1)
    coefs, *_ = np.linalg.lstsq(design, flat_values, rcond=None)
    const = coefs[0].reshape(spec.n, spec.k, spec.k)
    # linear[i][l][s][j] = d(G_i[s, j]) / d(z_l)
    linear = coefs[1:].reshape(spec.n, spec.n, spec.k, spec.k).transpose(1, 0, 2, 3)
    max_const = float(np.max(np.abs(const)))

    curvature = {
        f"F_{i}{j}": field.curvature_at(np.zeros(spec.n), i, j, step)
        for i in range(spec.n) for j in range(i + 1, spec.n)
    }
    details = [
        {"constant_term": const, "linear_term": linear},
        {"curvature_at_origin": curvature},
    ]
    measured = [_measure("max_constant_term", max_const, bound)]
    params = {"radius": radius, "samples": 2 * pairs, "step": step,
              "seed": seed, "field": field.family,
              "integrator": _config_params(config)}
    return CheckReport.from_measurements("gauge_taylor", params, details,
                                         measured)


def metric_compat_check(field, samples=50, config=None, seed=0, bound=1e-8,
                        radius=None):
    """Transport must preserve the fiber metric: g(xi, xi) at the endpoint
    equals its value at the origin.  Samples (z, y0) from the box, or from
    the ball of the given ``radius`` when one is passed."""
    config = DEFAULT_CONFIG if config is None else config
    spec = field.spec
    if field.metric is None:
        raise MissingMetricError(
            f"metric compatibility check needs a metric; family "
            f"{field.family!r} has none"
        )
    samples = require_count(samples, "samples")
    rng = np.random.default_rng(seed)
    origin = np.zeros(spec.n)
    g0 = field.metric_at(origin)
    draws = []
    for _ in range(samples):
        if radius is None:
            z = _random_point(rng, spec)
        else:
            z = radius * float(rng.uniform()) ** (1.0 / spec.n) \
                * _random_unit(rng, spec.n)
            if not spec.contains(z):
                z = spec.require_inside(np.clip(z, spec.lo, spec.hi))
        draws.append((z, _random_fiber(rng, spec.k)))
    zs = np.array([z for z, _ in draws]).reshape(-1, spec.n)
    y0s = np.array([y0 for _, y0 in draws]).reshape(-1, spec.k)
    xis = transport_segments(field, 0.0, zs, y0s, config).y
    details = []
    worst = 0.0
    for (z, y0), xi in zip(draws, xis):
        value = float(xi @ field.metric_at(z) @ xi)
        reference = float(y0 @ g0 @ y0)
        deviation = abs(value - reference)
        worst = max(worst, deviation)
        details.append({"z": z, "deviation": deviation})
    measured = [_measure("max_metric_deviation", worst, bound)]
    params = {"samples": samples, "seed": seed, "radius": radius,
              "field": field.family, "integrator": _config_params(config)}
    return CheckReport.from_measurements("metric_compat", params, details,
                                         measured)


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


@dataclass
class SuiteConfig:
    """Knobs for ``run_suite``; defaults match the acceptance bounds."""

    seed: int = 0
    integrator: IntegratorConfig = dataclass_field(default_factory=IntegratorConfig)
    checks: tuple | None = None  # None = every applicable check
    scaling_samples: int = 50
    scaling_bound: float = 1e-9
    residual_samples: int = 10
    residual_steps: tuple = (1e-3, 1e-4)
    residual_bound: float = 1e-6
    residual_min_order: float = 1.8
    gauge_samples: int = 10
    gauge_step: float = 1e-4
    gauge_bound: float = 1e-6
    fit_radius: float = 5e-4
    fit_samples: int = 20
    fit_bound: float = 1e-6
    smooth_directions: int = 10
    smooth_min_order: float = 1.8
    smooth_dir_bound: float = 1e-6
    smooth_mixed_bound: float = 1e-5
    metric_samples: int = 50
    metric_bound: float = 1e-8

    def __post_init__(self):
        # a check over no samples would pass without measuring anything
        for f in dataclasses.fields(self):
            if f.name.endswith("_samples") or f.name == "smooth_directions":
                require_count(getattr(self, f.name), f.name)


def _suite_scaling(field, suite, seed):
    return scaling_identity_check(field, suite.scaling_samples,
                                  suite.integrator, seed, suite.scaling_bound)


def _suite_residual(field, suite, seed):
    return residual_convergence_check(
        field, suite.residual_samples, suite.residual_steps, suite.integrator,
        seed, suite.residual_bound, suite.residual_min_order,
    )


def _suite_gauge(field, suite, seed):
    rng = np.random.default_rng(seed)
    points = [_random_point(rng, field.spec, margin=suite.gauge_step)
              for _ in range(suite.gauge_samples)]
    values = _gauge_norms(field, points, suite.gauge_step, suite.integrator,
                          cond_limit=1e8)
    details = []
    worst = 0.0
    for z, value in zip(points, values):
        worst = max(worst, value)
        details.append({"z": z, "gauge_norm": value})
    measured = [_measure("max_gauge_norm", worst, suite.gauge_bound)]
    params = {"samples": suite.gauge_samples, "step": suite.gauge_step,
              "seed": seed, "field": field.family,
              "integrator": _config_params(suite.integrator)}
    return CheckReport.from_measurements("radial_gauge", params, details,
                                         measured)


def _suite_fit(field, suite, seed):
    return radial_gauge_fit(field, suite.fit_radius, suite.fit_samples,
                            suite.gauge_step, suite.integrator, seed,
                            suite.fit_bound)


def _suite_smoothness(field, suite, seed):
    rng = np.random.default_rng(seed)
    y0 = _random_fiber(rng, field.spec.k)
    return smoothness_probe(
        field, y0, config=suite.integrator, seed=seed,
        n_directions=suite.smooth_directions, min_order=suite.smooth_min_order,
        dir_bound=suite.smooth_dir_bound, mixed_bound=suite.smooth_mixed_bound,
    )


def _suite_metric(field, suite, seed):
    return metric_compat_check(field, suite.metric_samples, suite.integrator,
                               seed, suite.metric_bound)


_SUITE_CHECKS = (
    ("scaling_identity", _suite_scaling),
    ("radial_residual", _suite_residual),
    ("radial_gauge", _suite_gauge),
    ("gauge_taylor", _suite_fit),
    ("smoothness", _suite_smoothness),
    ("metric_compat", _suite_metric),
)


def run_suite(field, suite=None):
    """Run every applicable check and aggregate the verdicts.

    Per-check exceptions become failing reports, never a suite crash.
    Deterministic for a given seed: each check draws from its own child
    seed, so the outcome does not depend on check order or concurrency.
    """
    suite = SuiteConfig() if suite is None else suite
    selected = suite.checks
    reports = []
    for index, (name, runner) in enumerate(_SUITE_CHECKS):
        if selected is not None and name not in selected:
            continue
        if name == "metric_compat" and field.metric is None:
            continue  # not applicable without a metric
        child_seed = (suite.seed, index)
        try:
            reports.append(runner(field, suite, child_seed))
        except Exception as exc:
            reports.append(CheckReport(
                name=name,
                params={"seed": child_seed,
                        "error": f"{type(exc).__name__}: {exc}"},
                samples=[],
                measured=[{"name": "completed", "value": 0.0, "bound": 1.0,
                           "kind": "min", "pass": False}],
                verdict="fail",
            ))
    measured = [{"name": r.name, "value": 0.0 if r.passed else 1.0,
                 "bound": 0.0, "kind": "max", "pass": r.passed}
                for r in reports]
    verdict = "pass" if all(r.passed for r in reports) else "fail"
    aggregate = CheckReport(
        name="suite",
        params={"seed": suite.seed, "field": field.family,
                "checks": [r.name for r in reports]},
        samples=[r.to_json_dict() for r in reports],
        measured=measured,
        verdict=verdict,
    )
    return aggregate
