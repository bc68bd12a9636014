"""Linear ODE integration: y' = A(t) y on [t0, t1].

Two deliberately independent schemes, so every transport can be
cross-checked by the other:

* fixed-step classical Runge-Kutta 4, with an error estimate from a
  half-resolution comparison pass (Richardson);
* adaptive Dormand-Prince 5(4) embedded pair (coefficients from Dormand &
  Prince 1980), accepting a step when the embedded error estimate is at
  most atol + rtol * |y|, with safety factor 0.9 and step-growth clamped
  to [0.2, 5.0].

Both are pure functions of their inputs: identical calls produce
bit-identical results, which the grid and CLI determinism contracts
rely on.

A(t) does not depend on y, so the Dormand-Prince loop evaluates it at most
five times per step attempt (Hairer, Norsett & Wanner, Solving ODEs I,
II.5): stages 6 and 7 share the node t + h, an accepted step hands A(t + h)
and A(t + h) y_new to the next step's stage 1 (first same as last), and a
rejected step keeps its stage-1 product.  That gives the same bits as
evaluating every stage afresh, with 5.8 evaluations per accepted step
instead of 8.1 on sphere rays.

``integrate_linear_batch`` advances m independent systems together, one
row each, for the grid sweep: every row keeps its own t, h, step count,
error sum and accept/reject decision under the same rules, and the
per-row arithmetic runs elementwise, so no row's bits depend on the rest
of the batch.  Its small matrix-vector products and norms are summed
column by column instead of through BLAS, so a row agrees with
``integrate_linear`` to rounding, not bit for bit.  Single transports,
frames and the verification suite therefore stay on the single-system
loop: a frame column must equal the transport of its basis vector bit for
bit, and the suite's residual check works at its noise floor, where a
change at rounding level can move a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class IntegrationError(RuntimeError):
    """Base class for integration failures.

    The integrator sees only the matrix callable, so it cannot name what
    in the coefficients caused a failure; see ``StepSizeUnderflow``.
    """


class StepSizeUnderflow(IntegrationError):
    """The adaptive step shrank below rounding level without meeting the
    tolerance: a singularity of the coefficients (such as a pole) or
    extreme stiffness just past ``t``, the parameter where the run stalled.

    The transports in ``radial`` turn this into an EvalDomainError naming
    the point when the field is made of expressions and a denominator
    changes sign just past ``t``.  A pole is thus named only when the
    integrator stalls at it: one that a step crosses goes unreported, and
    one that exhausts the step budget raises MaxStepsExceeded.
    """

    def __init__(self, message, t):
        super().__init__(message)
        self.t = t


class MaxStepsExceeded(IntegrationError):
    """The step budget ran out (stiff or near-singular coefficients)."""


class NonFiniteState(IntegrationError):
    """The solution left the range of finite floats."""


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk45"  # "rk45" (adaptive) or "rk4" (fixed step)
    rk4_steps: int = 256
    atol: float = 1e-12
    rtol: float = 1e-10
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r} (use 'rk4' or 'rk45')")
        if self.rk4_steps < 1:
            raise ValueError("rk4_steps must be at least 1")
        if not (self.atol > 0.0 and self.rtol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


DEFAULT_CONFIG = IntegratorConfig()


class IntegrationResult(NamedTuple):
    y: np.ndarray
    error_estimate: float
    steps: int


def integrate_linear(matrix, y0, t0, t1, config=None):
    """Integrate y' = A(t) y from t0 to t1; ``matrix`` maps t to the (k, k)
    coefficient array.  Returns (y(t1), error estimate, steps taken)."""
    config = DEFAULT_CONFIG if config is None else config
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial vector must be finite")
    t0, t1 = _interval(t0, t1)
    if t1 == t0:
        return IntegrationResult(y0.copy(), 0.0, 0)
    if config.method == "rk4":
        return _rk4(matrix, y0, t0, t1, config)
    return _rk45(matrix, y0, t0, t1, config)


def _interval(t0, t1):
    t0, t1 = float(t0), float(t1)
    if t1 < t0:
        raise ValueError(f"need t0 <= t1, got [{t0}, {t1}]")
    return t0, t1


def integrate_linear_batch(matrix, y0, t0, t1, config=None):
    """Integrate y_r' = A_r(t) y_r from t0 to t1 for every row y_r of the
    (m, k) array ``y0`` at once.  ``matrix(t, rows)`` maps the (r, 1) column
    ``t`` of parameters of the batch rows ``rows`` (an index array) to their
    (r, k, k) coefficient arrays.  Each row keeps its own step size, step
    count, error sum and accept/reject decision under the rules of
    ``integrate_linear``, and the arithmetic is row by row, so a row's
    result does not depend on the other rows in the batch.  Returns an
    IntegrationResult whose fields hold one entry per row: y (m, k), error
    estimates (m,) and steps (m,).  A failure in any row raises, naming
    the row."""
    config = DEFAULT_CONFIG if config is None else config
    y0 = np.array(y0, dtype=float)
    if y0.ndim != 2:
        raise ValueError(f"initial vectors must form an (m, k) array, "
                         f"got shape {y0.shape}")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial vectors must be finite")
    t0, t1 = _interval(t0, t1)
    m = len(y0)
    if t1 == t0 or m == 0:
        return IntegrationResult(y0, np.zeros(m), np.zeros(m, dtype=int))
    if config.method == "rk4":
        return _rk4_batch(matrix, y0, t0, t1, config)
    return _rk45_batch(matrix, y0, t0, t1, config)


def _matvec(a, y):
    """Row-wise a[r] @ y[r] for (m, k, k) and (m, k) arrays, summed column
    by column so that no row's bits depend on the batch around it."""
    out = a[:, :, 0] * y[:, 0, None]
    for j in range(1, y.shape[1]):
        out = out + a[:, :, j] * y[:, j, None]
    return out


def _norms(v):
    """Euclidean norm of each row of v, summed as in ``_matvec``."""
    squares = v[:, 0] * v[:, 0]
    for j in range(1, v.shape[1]):
        squares = squares + v[:, j] * v[:, j]
    return np.sqrt(squares)


def _rk4_pass(matrix, y0, t0, t1, steps, matvec=np.matmul):
    h = (t1 - t0) / steps
    y = y0.copy()
    # overflow to inf is tolerated here and reported as NonFiniteState
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(steps):
            t = t0 + m * h
            a_start = matrix(t)
            a_mid = matrix(t + 0.5 * h)
            a_end = matrix(t + h)
            k1 = matvec(a_start, y)
            k2 = matvec(a_mid, y + 0.5 * h * k1)
            k3 = matvec(a_mid, y + 0.5 * h * k2)
            k4 = matvec(a_end, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return y


def _rk4(matrix, y0, t0, t1, config):
    n = config.rk4_steps
    y = _rk4_pass(matrix, y0, t0, t1, n)
    if not np.all(np.isfinite(y)):
        raise NonFiniteState(f"non-finite state after {n} fixed steps")
    # order-4 Richardson estimate against a half-resolution pass
    y_coarse = _rk4_pass(matrix, y0, t0, t1, max(1, n // 2))
    estimate = float(np.linalg.norm(y - y_coarse)) / 15.0
    return IntegrationResult(y, estimate, n)


def _rk4_batch(matrix, y0, t0, t1, config):
    n = config.rk4_steps
    rows = np.arange(len(y0))

    def shared(t):  # every row sits at the same fixed node
        return matrix(np.full((len(rows), 1), t), rows)

    y = _rk4_pass(shared, y0, t0, t1, n, _matvec)
    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        raise NonFiniteState(f"non-finite state after {n} fixed steps "
                             f"in batch row {int(np.argmin(finite))}")
    y_coarse = _rk4_pass(shared, y0, t0, t1, max(1, n // 2), _matvec)
    estimate = _norms(y - y_coarse) / 15.0
    return IntegrationResult(y, estimate, np.full(len(y0), n))


# Dormand-Prince 5(4) tableau.  _DP_E are the weights of the embedded error
# estimate (difference of the 5th- and 4th-order solutions).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B, _DP_B4))

_SAFETY = 0.9
_SHRINK_LIMIT = 0.2
_GROW_LIMIT = 5.0


def _dp_attempt(matrix, matvec, t, h, y, k_first):
    """One Dormand-Prince attempt from (t, y) with step h, given the stage-1
    slope ``k_first`` = A(t) y.  Evaluates A at the five nodes t + c_i h,
    i = 2..6; stage 7 shares stage 6's node t + h, so it reuses that matrix.
    Returns (y_new, h * error vector, A(t + h)).  Works on one vector, with
    float t and h, and on a batch of rows, with (r, 1) columns t and h."""
    k = [k_first]
    for i in range(1, 7):
        yi = y
        for a, kj in zip(_DP_A[i], k):
            if a != 0.0:
                yi = yi + (h * a) * kj
        if i < 6:
            a_node = matrix(t + _DP_C[i] * h)
        k.append(matvec(a_node, yi))
    increment = np.zeros_like(y)
    err_vec = np.zeros_like(y)
    for b, e, ki in zip(_DP_B, _DP_E, k):
        if b != 0.0:
            increment = increment + b * ki
        if e != 0.0:
            err_vec = err_vec + e * ki
    return y + h * increment, h * err_vec, a_node


def _step_factor(err, tol):
    """Step-size factor after an attempt with a finite error ``err``."""
    if err == 0.0:
        return _GROW_LIMIT
    return min(_GROW_LIMIT, max(_SHRINK_LIMIT, _SAFETY * (tol / err) ** 0.2))


def _rk45(matrix, y0, t0, t1, config):
    span = t1 - t0
    t = t0
    y = y0.copy()
    h = span / 64.0
    steps = 0
    attempts = 0
    total_error = 0.0
    tiny = 16.0 * np.finfo(float).eps * max(abs(t0), abs(t1), span)
    # transient overflow is handled by rejecting the step
    with np.errstate(over="ignore", invalid="ignore"):
        k_first = matrix(t + _DP_C[0] * h) @ y  # kept while steps are rejected
    while t1 - t > 0.0:
        attempts += 1
        if attempts > config.max_steps:
            raise MaxStepsExceeded(
                f"no convergence within {config.max_steps} step attempts"
            )
        if h < tiny:
            raise StepSizeUnderflow(
                f"step size underflow at t={t!r} (singular or stiff coefficients)",
                t,
            )
        last = h >= t1 - t
        if last:
            h = t1 - t
        with np.errstate(over="ignore", invalid="ignore"):
            y_new, err_vec, a_end = _dp_attempt(matrix, np.matmul, t, h, y,
                                                k_first)
            err = float(np.linalg.norm(err_vec))
        if not (np.isfinite(err) and np.all(np.isfinite(y_new))):
            # retry with a much smaller step; underflow guard above ends this
            h *= _SHRINK_LIMIT
            continue
        tol = config.atol + config.rtol * max(
            float(np.linalg.norm(y)), float(np.linalg.norm(y_new))
        )
        if err <= tol:
            t = t1 if last else t + h
            y = y_new
            steps += 1
            total_error += err
            with np.errstate(over="ignore", invalid="ignore"):
                k_first = a_end @ y  # first same as last: A(t + h) y_new
        h *= _step_factor(err, tol)
    return IntegrationResult(y, total_error, steps)


def _rk45_batch(matrix, y0, t0, t1, config):
    m = len(y0)
    span = t1 - t0
    t = np.full(m, t0)
    y = y0.copy()
    h = np.full(m, span / 64.0)
    steps = np.zeros(m, dtype=int)
    attempts = np.zeros(m, dtype=int)
    total_error = np.zeros(m)
    tiny = 16.0 * np.finfo(float).eps * max(abs(t0), abs(t1), span)
    rows = np.arange(m)
    with np.errstate(over="ignore", invalid="ignore"):
        k_first = _matvec(matrix((t + _DP_C[0] * h)[:, None], rows), y)
    while True:
        rows = np.flatnonzero(t1 - t > 0.0)  # rows still integrating
        if rows.size == 0:
            break
        attempts[rows] += 1
        over = attempts[rows] > config.max_steps
        if over.any():
            raise MaxStepsExceeded(
                f"no convergence within {config.max_steps} step attempts "
                f"in batch row {int(rows[np.argmax(over)])}"
            )
        t_r, h_r = t[rows], h[rows]
        under = h_r < tiny
        if under.any():
            r = int(np.argmax(under))
            raise StepSizeUnderflow(
                f"step size underflow at t={float(t_r[r])!r} in batch row "
                f"{int(rows[r])} (singular or stiff coefficients)",
                float(t_r[r]),
            )
        last = h_r >= t1 - t_r
        h_r = np.where(last, t1 - t_r, h_r)
        y_r = y[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            y_new, err_vec, a_end = _dp_attempt(
                lambda tc: matrix(tc, rows), _matvec, t_r[:, None],
                h_r[:, None], y_r, k_first[rows])
            err = _norms(err_vec)
            tol = config.atol + config.rtol * np.maximum(_norms(y_r),
                                                         _norms(y_new))
        finite = np.isfinite(err) & np.isfinite(y_new).all(axis=1)
        accept = finite & (err <= tol)
        accepted = rows[accept]
        t[accepted] = np.where(last, t1, t_r + h_r)[accept]
        y[accepted] = y_new[accept]
        steps[accepted] += 1
        total_error[accepted] += err[accept]
        with np.errstate(over="ignore", invalid="ignore"):
            k_first[accepted] = _matvec(a_end[accept], y_new[accept])
        # Python floats, as in _rk45: a vectorized power may round
        # differently depending on a row's position in the array
        h[rows] = h_r * np.array(
            [_step_factor(e, tl) if ok else _SHRINK_LIMIT
             for e, tl, ok in zip(err.tolist(), tol.tolist(),
                                  finite.tolist())])
    return IntegrationResult(y, total_error, steps)
