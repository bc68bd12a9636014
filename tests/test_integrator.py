import math

import numpy as np
import pytest

from radialgauge.connection import sphere_levicivita
from radialgauge.integrator import (
    IntegrationError,
    IntegratorConfig,
    MaxStepsExceeded,
    NonFiniteState,
    StepSizeUnderflow,
    integrate_linear,
    integrate_linear_batch,
)

RK4 = IntegratorConfig(method="rk4")
RK45 = IntegratorConfig()


def _const(a):
    mat = np.atleast_2d(np.asarray(a, dtype=float))
    return lambda t: mat


@pytest.mark.parametrize("config", [RK4, RK45], ids=["rk4", "rk45"])
def test_zero_field_returns_y0_exactly(config):
    y0 = np.array([1.25, -3.5, 0.75])
    result = integrate_linear(_const(np.zeros((3, 3))), y0, 0.0, 1.0, config)
    np.testing.assert_array_equal(result.y, y0)
    assert result.error_estimate == 0.0


@pytest.mark.parametrize("config", [RK4, RK45], ids=["rk4", "rk45"])
def test_scalar_exponential(config):
    # y' = a y  ->  y(1) = e^a y0
    for a in (-1.3, 0.4, 1.0):
        result = integrate_linear(_const(a), np.array([2.0]), 0.0, 1.0, config)
        expected = math.exp(a) * 2.0
        assert abs(result.y[0] - expected) / abs(expected) < 1e-10


@pytest.mark.parametrize("config", [RK4, RK45], ids=["rk4", "rk45"])
def test_time_dependent_quadrature(config):
    # y' = 2t y on [0, 1]: integral of 2t is 1, so y(1) = e * y0
    result = integrate_linear(lambda t: np.array([[2.0 * t]]),
                              np.array([1.0]), 0.0, 1.0, config)
    assert abs(result.y[0] - math.e) / math.e < 1e-10


def test_empty_interval():
    result = integrate_linear(_const(5.0), np.array([3.0]), 0.5, 0.5)
    assert result.y[0] == 3.0
    assert result.steps == 0


def test_reversed_interval_rejected():
    with pytest.raises(ValueError, match="t0 <= t1"):
        integrate_linear(_const(1.0), np.array([1.0]), 1.0, 0.0)


def test_nonfinite_initial_rejected():
    with pytest.raises(ValueError, match="finite"):
        integrate_linear(_const(1.0), np.array([np.inf]), 0.0, 1.0)


@pytest.mark.parametrize("config", [RK4, RK45], ids=["rk4", "rk45"])
def test_linearity(config):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    matrix = lambda t: A * math.cos(t)
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    alpha, beta = 1.7, -0.6
    combined = integrate_linear(matrix, alpha * u + beta * v, 0.0, 1.0, config).y
    separate = (alpha * integrate_linear(matrix, u, 0.0, 1.0, config).y
                + beta * integrate_linear(matrix, v, 0.0, 1.0, config).y)
    tol = 10 * (config.atol + config.rtol * np.linalg.norm(combined))
    assert np.linalg.norm(combined - separate) < max(tol, 1e-9)


@pytest.mark.parametrize("config", [RK4, RK45], ids=["rk4", "rk45"])
def test_flow_composition(config):
    rng = np.random.default_rng(1)
    A = rng.standard_normal((2, 2))
    matrix = lambda t: A * (1.0 + t)
    y0 = np.array([1.0, -1.0])
    direct = integrate_linear(matrix, y0, 0.0, 1.0, config).y
    half = integrate_linear(matrix, y0, 0.0, 0.5, config).y
    stitched = integrate_linear(matrix, half, 0.5, 1.0, config).y
    tol = 10 * (config.atol + config.rtol * np.linalg.norm(direct))
    assert np.linalg.norm(direct - stitched) < max(tol, 1e-9)


def test_rk4_global_order():
    # halving h cuts the scalar-exponential error ~16x: exponent in [3.7, 4.3]
    errors = []
    for steps in (16, 32, 64, 128):
        config = IntegratorConfig(method="rk4", rk4_steps=steps)
        result = integrate_linear(_const(1.0), np.array([1.0]), 0.0, 1.0, config)
        errors.append(abs(result.y[0] - math.e))
    exponents = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(3.7 <= p <= 4.3 for p in exponents)


def test_rk4_error_estimate_tracks_true_error():
    config = IntegratorConfig(method="rk4", rk4_steps=64)
    result = integrate_linear(_const(1.0), np.array([1.0]), 0.0, 1.0, config)
    true_error = abs(result.y[0] - math.e)
    assert result.error_estimate > 0.0
    # Richardson estimate is within an order of magnitude of the truth
    assert 0.1 * true_error < result.error_estimate < 10 * true_error


def test_adaptive_meets_declared_tolerance():
    config = IntegratorConfig(atol=1e-12, rtol=1e-10)
    result = integrate_linear(_const(1.0), np.array([1.0]), 0.0, 1.0, config)
    assert abs(result.y[0] - math.e) <= config.atol + config.rtol * math.e
    assert result.steps > 0
    assert result.error_estimate >= 0.0


def test_adaptive_stronger_tolerance_is_tighter():
    loose = integrate_linear(_const(1.0), np.array([1.0]), 0.0, 1.0,
                             IntegratorConfig(atol=1e-6, rtol=1e-4))
    tight = integrate_linear(_const(1.0), np.array([1.0]), 0.0, 1.0,
                             IntegratorConfig(atol=1e-13, rtol=1e-12))
    assert abs(tight.y[0] - math.e) < abs(loose.y[0] - math.e)
    assert tight.steps > loose.steps


def test_max_steps_exceeded():
    config = IntegratorConfig(max_steps=10)
    with pytest.raises(MaxStepsExceeded):
        integrate_linear(_const(-1e8), np.array([1.0]), 0.0, 1.0, config)


def test_rk4_overflow_detected():
    config = IntegratorConfig(method="rk4", rk4_steps=256)
    with pytest.raises(NonFiniteState):
        integrate_linear(_const(800.0), np.array([1.0]), 0.0, 1.0, config)


def test_adaptive_overflowing_solution_fails():
    # the true solution exceeds the float ceiling almost immediately, so no
    # step size can help; the integrator must give up, not return inf
    config = IntegratorConfig(max_steps=50_000)
    with pytest.raises(IntegrationError):
        integrate_linear(_const(800.0), np.array([1e300]), 0.0, 1.0, config)


def test_determinism_bitwise():
    matrix = lambda t: np.array([[math.sin(t), 0.2], [-0.3, math.cos(t)]])
    y0 = np.array([0.3, 0.7])
    runs = [integrate_linear(matrix, y0, 0.0, 1.0, RK45) for _ in range(3)]
    for other in runs[1:]:
        np.testing.assert_array_equal(runs[0].y, other.y)
        assert runs[0].error_estimate == other.error_estimate
        assert runs[0].steps == other.steps


def test_rk45_reuses_stage_matrices():
    # Stages 6 and 7 share the node t + h, and an accepted step hands
    # A(t + h) to the next step's stage 1, so each attempt evaluates A five
    # times, plus once at the start; without the reuse it is seven per
    # attempt, 8.06 per accepted step on sphere rays.
    field = sphere_levicivita()
    rng = np.random.default_rng(3)
    evaluations = steps = 0
    for _ in range(20):
        z = rng.uniform(-0.95, 0.95, 2)
        calls = [0]

        def matrix(t, z=z, calls=calls):
            calls[0] += 1
            return -np.tensordot(z, field.coefficients_at(t * z), axes=(0, 0))

        result = integrate_linear(matrix, rng.standard_normal(2), 0.0, 1.0)
        assert (calls[0] - 1) % 5 == 0  # 5 per attempt + 1
        evaluations += calls[0]
        steps += result.steps
    assert evaluations < 6.5 * steps


def _batch_of(matrices):
    """Batch form of per-row matrix callables."""
    def matrix(t, rows):
        return np.array([matrices[r](tr) for tr, r in zip(t[:, 0], rows)])
    return matrix


@pytest.mark.parametrize("config", [RK4, RK45,
                                    IntegratorConfig(atol=1e-5, rtol=1e-5)],
                         ids=["rk4", "rk45", "rk45-loose"])
def test_batch_rows_follow_single_integrator(config):
    # a single system is the one-row batch, and a row's bits do not depend
    # on the rest of the batch: each row equals the single-system run, and
    # splitting the batch does not change a row's bits
    rng = np.random.default_rng(4)
    mats = [rng.standard_normal((3, 3)) * scale for scale in (0.1, 1.0, 3.0, 0.0)]
    matrices = [lambda t, a=a: a * math.cos(2.0 * t) + 0.5 * a.T * t
                for a in mats]
    y0 = rng.standard_normal((4, 3))
    batch = integrate_linear_batch(_batch_of(matrices), y0, 0.0, 1.0, config)
    for r, matrix in enumerate(matrices):
        single = integrate_linear(matrix, y0[r], 0.0, 1.0, config)
        assert batch.steps[r] == single.steps
        np.testing.assert_array_equal(batch.y[r], single.y)
        assert batch.error_estimate[r] == single.error_estimate
    head = integrate_linear_batch(_batch_of(matrices[:1]), y0[:1], 0.0, 1.0,
                                  config)
    tail = integrate_linear_batch(_batch_of(matrices[1:]), y0[1:], 0.0, 1.0,
                                  config)
    np.testing.assert_array_equal(np.vstack([head.y, tail.y]), batch.y)


def test_batch_failures_name_the_row():
    calm = _const(1.0)
    pole = lambda t: np.array([[-1.0 / (t - 0.5)]])
    with pytest.raises(StepSizeUnderflow, match="batch row 1") as info:
        integrate_linear_batch(_batch_of([calm, pole]), np.ones((2, 1)),
                               0.0, 1.0)
    assert info.value.t == pytest.approx(0.5, abs=1e-6)
    assert info.value.row == 1
    with pytest.raises(MaxStepsExceeded, match="batch row 0"):
        integrate_linear_batch(_batch_of([_const(-1e8), calm]),
                               np.ones((2, 1)), 0.0, 1.0,
                               IntegratorConfig(max_steps=10))
    with pytest.raises(NonFiniteState, match="batch row 1"):
        integrate_linear_batch(_batch_of([calm, _const(800.0)]),
                               np.ones((2, 1)), 0.0, 1.0, RK4)


def test_single_system_failures_name_no_row():
    # a single system is a one-row batch; its messages say nothing of rows
    pole = lambda t: np.array([[-1.0 / (t - 0.5)]])
    with pytest.raises(StepSizeUnderflow) as info:
        integrate_linear(pole, np.ones(1), 0.0, 1.0)
    assert str(info.value) == (f"step size underflow at t={info.value.t!r} "
                               f"(singular or stiff coefficients)")
    assert info.value.row == 0
    with pytest.raises(MaxStepsExceeded) as info:
        integrate_linear(_const(-1e8), np.ones(1), 0.0, 1.0,
                         IntegratorConfig(max_steps=10))
    assert str(info.value) == "no convergence within 10 step attempts"
    with pytest.raises(NonFiniteState) as info:
        integrate_linear(_const(800.0), np.ones(1), 0.0, 1.0, RK4)
    assert str(info.value) == "non-finite state after 256 fixed steps"


def test_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError, match="positive"):
        IntegratorConfig(atol=0.0)
    with pytest.raises(ValueError, match="rk4_steps"):
        IntegratorConfig(rk4_steps=0)
    with pytest.raises(ValueError, match="max_steps"):
        IntegratorConfig(max_steps=0)
