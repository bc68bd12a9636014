"""Transport along rays from the origin.

A fiber vector over the origin extends to a neighborhood by solving, for
each target point z, the linear ODE

    dy/dt = -(z_1 M_1(t z) + ... + z_n M_n(t z)) y,      t in [0, 1],

whose solution y(t, z) is the coordinate vector of the parallel section
along the straight segment from 0 to z.  ``radial_transport`` returns
y(1, z); sweeping z over a grid assembles the section itself, and
transporting the standard basis gives the parallel frame.

Every transport here is one call of ``transport_segments``: a batch of
straight segments from a[r] to b[r], integrated together over the segment
parameter in [0, 1] (a ray from the origin has a = 0, b = z).  The rows of
a batch do not depend on each other, so a grid row, a frame column or a
trajectory sample equals the single transport of its point and vector bit
for bit.

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
``transport_segments``), so a pole on the path is reported as an
EvalDomainError naming the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .connection import BundleSpec, ConnectionField, ExprCoefficients, fiber_vector
from .expr import EvalDomainError
from .integrator import StepSizeUnderflow, integrate_linear_batch
# not called here: the benchmark's span recorder patches this name
from .integrator import integrate_linear  # noqa: F401


class GridPointError(RuntimeError):
    """A grid sweep failed at a specific point (named in the message)."""


@dataclass(eq=False)
class RadialTransportResult:
    z: np.ndarray
    y_final: np.ndarray
    error_estimate: float
    steps: int
    samples: list | None = None  # optional [(t, y(t))] along the segment


@dataclass(eq=False)
class _Segments:
    """Transport generators along the affine segments from a[r] to b[r], in
    the form ``integrate_linear_batch`` calls: (t column, rows) -> the rows'
    -(sum_i d_i M_i(a + t d)) with d = b - a, summed term by term.  Each
    path has constant velocity d, so t runs over [0, 1]; a ray from the
    origin has a = 0 and b = z."""

    field: ConnectionField
    a: np.ndarray  # (m, n)
    b: np.ndarray  # (m, n)

    def __post_init__(self):
        self.d = self.b - self.a

    def point(self, t, row):
        return self.a[row] + t * self.d[row]

    def __call__(self, t, rows):
        d = self.d[rows]
        mats = self.field.coefficients_batch(self.a[rows] + t * d)
        terms = d[:, :, None, None] * mats
        out = terms[:, 0]
        for i in range(1, d.shape[1]):
            out = out + terms[:, i]
        return -out


# In the cases measured (simple poles at tolerances 1e-2 to 1e-10) the pole
# lay at most 7e4 machine epsilons of the segment's scale past the stall
# point; the search bracket stops far beyond that, but short of unrelated
# zeros further on.
_POLE_BRACKET = 1e-6


def _pole_error(segments, row, t_stall):
    """The EvalDomainError for the nearest zero of a denominator (of a
    ``/``, or ``cos(u)`` of a ``tan(u)``) in (t_stall, 1] within
    ``_POLE_BRACKET`` along segment ``row``, located by bracket doubling
    and then bisection down to adjacent floats; None if the field is not
    made of expressions or no denominator changes sign."""
    coeffs = segments.field.coeffs
    if not isinstance(coeffs, ExprCoefficients):
        return None
    denominators = [((i, s, j), den, op)
                    for i, mat in enumerate(coeffs.entries)
                    for s, row_trees in enumerate(mat)
                    for j, tree in enumerate(row_trees)
                    for den, op in expr.poles(tree)]

    def value(den, t):
        try:
            return expr.evaluate(den, segments.point(t, row))
        except EvalDomainError:
            return float("nan")  # no sign; an inner division is a candidate

    width = float(np.finfo(float).eps)
    while width <= _POLE_BRACKET:
        end = min(t_stall + width, 1.0)
        for index, den, op in denominators:
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
            where = f"coefficient [{i}][{s}][{j}]"
            if isinstance(op, expr.Call):  # cos(u), the denominator of tan(u)
                where = f"{expr.to_source(op)} in {where}"
            return EvalDomainError(
                f"division by zero at z={segments.point(t, row).tolist()}: "
                f"denominator {expr.to_source(den)} of {where} "
                f"changes sign at segment parameter t={t!r}, "
                f"where the adaptive integrator stalled (t={t_stall!r})"
            )
        width *= 2.0
    return None


def transport_segments(field, a, b, y0, config=None):
    """Parallel transport along the straight segments from a[r] to b[r],
    all rows in one batched integration over the segment parameter
    t in [0, 1].  ``a`` and ``b`` broadcast to an (m, n) array of points
    inside the box; ``y0`` is one fiber vector (k,) for every row or an
    (m, k) array.  Returns the batch IntegrationResult: y (m, k), error
    estimates (m,) and steps (m,).  The rows do not depend on each other,
    so each row is bit-identical to the same segment transported alone.

    A pole of an expression field on a segment raises EvalDomainError
    naming the point, but only when the integrator runs into it: when
    rk45 stalls just before it, or when a fixed rk4 node lands on it.  The
    stall is traced to the denominator that changes sign just past the
    stall point of the failing row; a row takes the same steps alone or in
    a batch, so nothing is rerun.  A pole that a step crosses without
    stalling goes unnoticed, and a pole that exhausts the step budget
    raises MaxStepsExceeded.  Opaque coefficient sources, and stalls with
    no such denominator, keep the StepSizeUnderflow.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    field.spec.require_inside_rows(a)
    field.spec.require_inside_rows(b)
    m, k = len(b), field.spec.k
    y0 = np.asarray(y0, dtype=float)
    if y0.shape not in ((k,), (m, k)):
        raise ValueError(f"initial vectors must have shape ({k},) or "
                         f"({m}, {k}), got {y0.shape}")
    segments = _Segments(field, a, b)
    try:
        return integrate_linear_batch(segments, np.broadcast_to(y0, (m, k)),
                                      0.0, 1.0, config)
    except StepSizeUnderflow as exc:
        pole = _pole_error(segments, exc.row, exc.t)
        if pole is None:
            raise
        raise pole from exc


def rhs(field, t, y, z):
    """Right-hand side of the ray transport ODE: -(sum_i z_i M_i(t z)) y."""
    z = np.asarray(z, dtype=float)
    ray = _Segments(field, np.zeros((1, len(z))), z[None])
    return ray(np.array([[float(t)]]), [0])[0] @ np.asarray(y, dtype=float)


def radial_transport(field, z, y0, config=None, sample_times=None):
    """Transport ``y0`` from the origin to ``z`` along the straight segment.

    The endpoint map y0 -> y(1, z) is linear.  If ``sample_times`` is given
    (increasing values in [0, 1]), the trajectory is additionally recorded
    at those times: the sample y(t, z) is the transport along the ray to
    t z, a row of the same batch as the endpoint, so sampling does not
    change y(1, z), its error estimate or its step count.

    This is one row of ``transport_segments``, so the rows of a grid or a
    frame at z equal it bit for bit; poles are reported as there.
    """
    z = field.spec.require_inside(z, what="z")
    y0 = fiber_vector(y0, field.spec.k)
    times = [float(t) for t in sample_times or ()]
    if any(not 0.0 <= t <= 1.0 for t in times):
        raise ValueError("sample times must lie in [0, 1]")
    if sorted(times) != times:
        raise ValueError("sample times must be increasing")
    ends = np.array([t * z for t in times] + [z])
    res = transport_segments(field, 0.0, ends, y0, config)
    samples = list(zip(times, res.y[:-1])) if times else None
    return RadialTransportResult(z, res.y[-1], float(res.error_estimate[-1]),
                                 int(res.steps[-1]), samples)


def radial_transport_partial(field, z, y0, t, config=None):
    """y(t, z): transport along the initial fraction [0, t] of the ray to
    z, which is the transport along the ray to t z."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    z = field.spec.require_inside(z, what="z")
    y0 = fiber_vector(y0, field.spec.k)
    return transport_segments(field, 0.0, [t * z], y0, config).y[0]


def radial_frame(field, z, config=None):
    """The transported-basis matrix P(z): column j is the radial transport
    of the j-th standard basis vector.  P(0) is the identity and P(z) is
    invertible (transport is a linear isomorphism).  The k columns are the
    rows of one ``transport_segments`` call, so column j equals
    ``radial_transport`` of the j-th basis vector bit for bit."""
    z = field.spec.require_inside(z, what="z")
    k = field.spec.k
    res = transport_segments(field, 0.0, np.tile(z, (k, 1)), np.eye(k),
                             config)
    return np.ascontiguousarray(res.y.T)


def radial_section_grid(field, y0, grid, config=None):
    """Evaluate the section z -> y(1, z) over a list of points.

    All rays advance together in one ``transport_segments`` call.  A row
    does not depend on the other points, so each row equals
    ``radial_transport`` at its point bit for bit, for any order or split
    of the points.  If the batch fails, the points are rerun one by one in
    input order, and the first failing point raises GridPointError naming
    it.
    """
    points = [field.spec.require_inside(z, what="grid point") for z in grid]
    y0 = fiber_vector(y0, field.spec.k)
    ends = np.array(points).reshape(len(points), field.spec.n)
    try:
        values = transport_segments(field, 0.0, ends, y0, config).y
    except Exception:
        for z in points:
            try:
                radial_transport(field, z, y0, config)
            except Exception as exc:
                raise GridPointError(
                    f"grid point z={z.tolist()} failed: {exc}") from exc
        raise
    return list(zip(points, values))


def curve_transport(field, curve, y0, config=None):
    """Parallel transport along a piecewise-linear path (list of vertices).

    Each segment keeps its natural constant-speed parameterization; only
    the endpoint map matters, since transport does not depend on how the
    path is parameterized.  Returns the transported fiber vector.
    """
    points = [field.spec.require_inside(p, what="curve vertex") for p in curve]
    if not points:
        raise ValueError("curve needs at least one vertex")
    y = fiber_vector(y0, field.spec.k).copy()
    for a, b in zip(points, points[1:]):
        y = transport_segments(field, [a], [b], y, config).y[0]
    return y


def polar_transport(field, direction, radius, y0, config=None):
    """Transport from the origin a distance ``radius`` along the unit vector
    ``direction``.  Parameterizing the ray by arc length instead of by
    [0, 1] only rescales the ODE's parameter, which leaves the integrators'
    step sequence unchanged, so this is the transport along the segment to
    ``radius * direction``: it agrees with ``radial_transport`` at that
    point by construction, at any tolerance.

    Non-unit directions are rejected rather than normalized, to keep the
    reparameterization identity exact in the checks.
    """
    u = np.asarray(direction, dtype=float)
    if u.shape != (field.spec.n,):
        raise ValueError(f"direction must have shape ({field.spec.n},)")
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector (|u| = 1 within 1e-12)")
    radius = float(radius)
    if radius < 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius!r}")
    end = field.spec.require_inside(radius * u, what="radius*direction")
    y0 = fiber_vector(y0, field.spec.k)
    return transport_segments(field, 0.0, [end], y0, config).y[0]


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
