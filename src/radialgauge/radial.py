"""Transport along rays from the origin.

A fiber vector over the origin extends to a neighborhood by solving, for
each target point z, the linear ODE

    dy/dt = -(z_1 M_1(t z) + ... + z_n M_n(t z)) y,      t in [0, 1],

whose solution y(t, z) is the coordinate vector of the parallel section
along the straight segment from 0 to z.  ``radial_transport`` returns
y(1, z); sweeping z over a grid assembles the section itself, and
transporting the standard basis gives the parallel frame.

Two reformulations of the same transport are provided:
``polar_transport`` integrates by arc length along a unit direction, and
``pullback_transport`` runs the ODE of the connection pulled back through
(t, x) -> t*x over the (1+n)-dimensional product base.  Both are scale
twins of ``radial_transport``: the step controllers of both integrators
are invariant under t -> s*t, A -> A/s, so they take the same steps and
agree with it to rounding by construction, whatever the tolerance.  They
therefore check the reparameterization code, not the integration error.

When the adaptive integrator stalls on a segment of an expression field,
the stall is traced to the division by zero that causes it (see
``_integrate``), so a pole on the path is reported as an EvalDomainError
naming the point.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import expr
from .connection import BundleSpec, ConnectionField, ExprCoefficients, fiber_vector
from .expr import EvalDomainError
from .integrator import (DEFAULT_CONFIG, StepSizeUnderflow, integrate_linear,
                         integrate_linear_batch)


class GridPointError(RuntimeError):
    """A grid sweep failed at a specific point (named in the message)."""


@dataclass(eq=False)
class RadialTransportResult:
    z: np.ndarray
    y_final: np.ndarray
    error_estimate: float
    steps: int
    samples: list | None = None  # optional [(t, y(t))] along the segment


def _contract(v, mats):
    """sum_i v_i M_i for an (n, k, k) stack: the single dot that
    ``np.tensordot(v, mats, axes=(0, 0))`` performs, without its overhead."""
    n, k, _ = mats.shape
    return np.dot(v.reshape(1, n), mats.reshape(n, k * k)).reshape(k, k)


@dataclass(eq=False)
class _RayMatrix:
    """t -> -(sum_i z_i M_i(t z)): generator of transport along the ray to z.

    Also used with a unit vector in place of z, in which case the parameter
    is arc length along the ray instead of the [0, 1] segment parameter.
    """

    field: ConnectionField
    z: np.ndarray

    def point(self, t):
        return t * self.z

    def __call__(self, t):
        mats = self.field.coefficients_at(self.point(t))
        return -_contract(self.z, mats)


# In the cases measured (simple poles at tolerances 1e-2 to 1e-10) the pole
# lay at most 7e4 machine epsilons of the segment's scale past the stall
# point; the search bracket stops far beyond that, but short of unrelated
# zeros further on.
_POLE_BRACKET = 1e-6


def _integrate(matrix, y0, t0, t1, config):
    """``integrate_linear`` along a segment generator (``_RayMatrix`` or
    ``_SegmentMatrix``).  If the adaptive integrator stalls on a field of
    expressions, the stall is traced to the denominator that changes sign
    just past the stall point and reported as an EvalDomainError naming the
    point.  Opaque coefficient sources, and stalls with no such denominator,
    keep the StepSizeUnderflow.  Only the failure path differs from a bare
    ``integrate_linear`` call."""
    try:
        return integrate_linear(matrix, y0, t0, t1, config)
    except StepSizeUnderflow as exc:
        pole = _pole_error(matrix, exc.t, t0, t1)
        if pole is None:
            raise
        raise pole from exc


def _pole_error(matrix, t_stall, t0, t1):
    """The EvalDomainError for the nearest zero of a denominator in
    (t_stall, t1] within ``_POLE_BRACKET`` of the segment's scale, located
    by bracket doubling and then bisection down to adjacent floats; None if
    the field is not made of expressions or no denominator changes sign."""
    coeffs = matrix.field.coeffs
    if not isinstance(coeffs, ExprCoefficients):
        return None
    denominators = [((i, s, j), den)
                    for i, mat in enumerate(coeffs.entries)
                    for s, row in enumerate(mat)
                    for j, tree in enumerate(row)
                    for den in expr.divisors(tree)]

    def value(den, t):
        try:
            return expr.evaluate(den, matrix.point(t))
        except EvalDomainError:
            return float("nan")  # no sign; an inner division is a candidate

    scale = max(abs(t0), abs(t1))
    width = float(np.finfo(float).eps) * scale
    while width <= _POLE_BRACKET * scale:
        end = min(t_stall + width, t1)
        for index, den in denominators:
            lo, hi = t_stall, end
            f_lo, f_hi = value(den, lo), value(den, hi)
            if not f_lo * f_hi <= 0.0:
                continue
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                f_mid = value(den, mid)
                if f_mid * f_lo > 0.0:
                    lo, f_lo = mid, f_mid
                else:
                    hi, f_hi = mid, f_mid
            t = lo if abs(f_lo) <= abs(f_hi) else hi
            i, s, j = index
            return EvalDomainError(
                f"division by zero at z={matrix.point(t).tolist()}: "
                f"denominator {expr.to_source(den)} of coefficient "
                f"[{i}][{s}][{j}] changes sign at segment parameter t={t!r}, "
                f"where the adaptive integrator stalled (t={t_stall!r})"
            )
        width *= 2.0
    return None


def rhs(field, t, y, z):
    """Right-hand side of the ray transport ODE: -(sum_i z_i M_i(t z)) y."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    return _RayMatrix(field, z)(t) @ y


def radial_transport(field, z, y0, config=None, sample_times=None):
    """Transport ``y0`` from the origin to ``z`` along the straight segment.

    The endpoint map y0 -> y(1, z) is linear.  If ``sample_times`` is given
    (increasing values in [0, 1]), the trajectory is additionally recorded
    at those times; sampling restarts the integrator at each requested
    time, so sampled and unsampled runs may differ within tolerance.

    A pole of an expression field on the segment raises EvalDomainError
    naming the point, but only when the integrator runs into it: when
    rk45 stalls just before it, or when a fixed rk4 node lands on it.  A
    pole that a step crosses without stalling goes unnoticed, and a pole
    that exhausts the step budget raises MaxStepsExceeded.  Other
    coefficient sources report a stall as StepSizeUnderflow.
    """
    config = DEFAULT_CONFIG if config is None else config
    z = field.spec.require_inside(z, what="z")
    y0 = fiber_vector(y0, field.spec.k)
    matrix = _RayMatrix(field, z)
    if not sample_times:
        res = _integrate(matrix, y0, 0.0, 1.0, config)
        return RadialTransportResult(z, res.y, res.error_estimate, res.steps)
    times = [float(t) for t in sample_times]
    if any(not 0.0 <= t <= 1.0 for t in times):
        raise ValueError("sample times must lie in [0, 1]")
    if sorted(times) != times:
        raise ValueError("sample times must be increasing")
    samples = []
    y = y0
    t_prev = 0.0
    error = 0.0
    steps = 0
    for t in times:
        res = _integrate(matrix, y, t_prev, t, config)
        y, t_prev = res.y, t
        error += res.error_estimate
        steps += res.steps
        samples.append((t, y))
    if t_prev < 1.0:
        res = _integrate(matrix, y, t_prev, 1.0, config)
        y = res.y
        error += res.error_estimate
        steps += res.steps
    return RadialTransportResult(z, y, error, steps, samples)


def radial_transport_partial(field, z, y0, t, config=None):
    """y(t, z): transport along the initial fraction [0, t] of the ray to z."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    config = DEFAULT_CONFIG if config is None else config
    z = field.spec.require_inside(z, what="z")
    y0 = fiber_vector(y0, field.spec.k)
    res = _integrate(_RayMatrix(field, z), y0, 0.0, t, config)
    return res.y


def radial_frame(field, z, config=None):
    """The transported-basis matrix P(z): column j is the radial transport
    of the j-th standard basis vector.  P(0) is the identity and P(z) is
    invertible (transport is a linear isomorphism)."""
    k = field.spec.k
    cols = []
    for j in range(k):
        e = np.zeros(k)
        e[j] = 1.0
        cols.append(radial_transport(field, z, e, config).y_final)
    return np.column_stack(cols)


def _grid_value(job):
    field, y0, z, config = job
    try:
        return radial_transport(field, z, y0, config).y_final
    except Exception as exc:
        raise GridPointError(f"grid point z={z.tolist()} failed: {exc}") from exc


@dataclass(eq=False)
class _RayBatch:
    """``_RayMatrix`` for the rays to every row of ``z`` at once, in the
    form ``integrate_linear_batch`` calls: (t column, rows) -> the rows'
    generators -(sum_i z_i M_i(t z)), summed term by term."""

    field: ConnectionField
    z: np.ndarray  # (m, n)

    def __call__(self, t, rows):
        z = self.z[rows]
        mats = self.field.coefficients_batch(t * z)
        out = z[:, 0, None, None] * mats[:, 0]
        for i in range(1, z.shape[1]):
            out = out + z[:, i, None, None] * mats[:, i]
        return -out


def _grid_slice(job):
    """Section values at the points of one contiguous slice, in one batch.
    If the batch raises anything, the points are run one by one in order,
    so that the first failing point raises GridPointError naming it."""
    field, y0, points, config = job
    try:
        res = integrate_linear_batch(_RayBatch(field, np.array(points)),
                                     np.tile(y0, (len(points), 1)), 0.0, 1.0,
                                     config)
        return list(res.y)
    except Exception:
        return [_grid_value((field, y0, z, config)) for z in points]


def radial_section_grid(field, y0, grid, config=None, workers=1):
    """Evaluate the section z -> y(1, z) over a list of points.

    All rays advance together in one batched integration
    (``integrate_linear_batch``): each row follows the rules of the
    single-ray integrator with its own steps, but sums its small products
    in a fixed order instead of through BLAS, so a row agrees with
    ``radial_transport`` at its point to rounding (within 1e-12 on the
    built-in families), not bit for bit.  A row's bits do not depend on
    the other points, so with ``workers > 1`` each process takes one
    contiguous slice of the points and the rows come back in input order,
    bit-identical for any worker count or split.  If a batch fails, its
    points are rerun one by one through ``radial_transport``, and the first
    failing point raises GridPointError naming it.
    """
    config = DEFAULT_CONFIG if config is None else config
    points = [field.spec.require_inside(z, what="grid point") for z in grid]
    y0 = fiber_vector(y0, field.spec.k)
    if workers <= 1:
        values = _grid_slice((field, y0, points, config))
    else:
        bounds = np.linspace(0, len(points), workers + 1).astype(int)
        jobs = [(field, y0, points[a:b], config)
                for a, b in zip(bounds, bounds[1:]) if b > a]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = [y for part in pool.map(_grid_slice, jobs) for y in part]
    return list(zip(points, values))


@dataclass(eq=False)
class _SegmentMatrix:
    """Transport generator along the affine segment from a to b: the path
    has constant velocity (b - a), so the coefficient of the transport ODE
    in the segment parameter s in [0, 1] is -(sum_i (b-a)_i M_i(a+s(b-a)))."""

    field: ConnectionField
    a: np.ndarray
    b: np.ndarray

    def point(self, s):
        return self.a + s * (self.b - self.a)

    def __call__(self, s):
        mats = self.field.coefficients_at(self.point(s))
        return -_contract(self.b - self.a, mats)


def curve_transport(field, curve, y0, config=None):
    """Parallel transport along a piecewise-linear path (list of vertices).

    Each segment keeps its natural constant-speed parameterization; only
    the endpoint map matters, since transport does not depend on how the
    path is parameterized.  Returns the transported fiber vector.
    """
    config = DEFAULT_CONFIG if config is None else config
    points = [field.spec.require_inside(p, what="curve vertex") for p in curve]
    if not points:
        raise ValueError("curve needs at least one vertex")
    y = fiber_vector(y0, field.spec.k).copy()
    for a, b in zip(points, points[1:]):
        res = _integrate(_SegmentMatrix(field, a, b), y, 0.0, 1.0, config)
        y = res.y
    return y


def polar_transport(field, direction, radius, y0, config=None):
    """Transport from the origin a distance ``radius`` along the unit vector
    ``direction``, integrating by arc length: y'(s) = -(sum_i u_i M_i(s u)) y
    on [0, radius].  This rescales the ray ODE's parameter by ``radius``,
    which leaves the integrators' step sequence unchanged, so it agrees with
    ``radial_transport`` at z = radius * direction to rounding by
    construction, at any tolerance.

    Non-unit directions are rejected rather than normalized, to keep the
    reparameterization identity exact in the checks.
    """
    config = DEFAULT_CONFIG if config is None else config
    u = np.asarray(direction, dtype=float)
    if u.shape != (field.spec.n,):
        raise ValueError(f"direction must have shape ({field.spec.n},)")
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector (|u| = 1 within 1e-12)")
    radius = float(radius)
    if radius < 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius!r}")
    field.spec.require_inside(radius * u, what="radius*direction")
    y0 = fiber_vector(y0, field.spec.k)
    res = _integrate(_RayMatrix(field, u), y0, 0.0, radius, config)
    return res.y


@dataclass(eq=False)
class PullbackCoefficients:
    """Coefficients of a connection pulled back through mu(t, x) = t*x.

    Over the (1+n)-dimensional base with coordinates (t, x_1, ..., x_n) the
    chain rule weights the original matrices by the Jacobian of mu: the
    t-slot picks up sum_i x_i M_i(t x) and the x_i-slot picks up t M_i(t x).
    """

    base: ConnectionField

    def __call__(self, w):
        t, x = w[0], w[1:]
        mats = self.base.coefficients_at(t * x)
        out = np.empty((len(w), mats.shape[1], mats.shape[2]))
        out[0] = np.tensordot(x, mats, axes=(0, 0))
        out[1:] = t * mats
        return out


def pullback_connection(field):
    """The connection pulled back through (t, x) -> t*x, as a field over the
    product box [0, 1] x domain."""
    spec = field.spec
    lo = np.concatenate(([0.0], spec.lo))
    hi = np.concatenate(([1.0], spec.hi))
    pb_spec = BundleSpec(spec.n + 1, spec.k, lo, hi)
    return ConnectionField(
        pb_spec, PullbackCoefficients(field), family=f"pullback({field.family})"
    )


def pullback_transport(field, x, y0, config=None):
    """Transport in the pulled-back bundle along the segment from (0, x) to
    (1, x).  The x = const slice of the pullback base carries the ray ODE
    with the same generator, so the result matches ``radial_transport`` at
    z = x to rounding by construction, at any tolerance; starting on the
    t = 0 slice encodes the initial condition at the origin.  The pulled-back
    coefficients are an opaque source, so a stall at a pole stays a
    StepSizeUnderflow here."""
    x = field.spec.require_inside(x, what="x")
    pulled = pullback_connection(field)
    start = np.concatenate(([0.0], x))
    end = np.concatenate(([1.0], x))
    return curve_transport(pulled, [start, end], y0, config)
