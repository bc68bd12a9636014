import json
import math
import re

import numpy as np
import pytest

from radialgauge import expr, integrator, radial
from radialgauge.connection import BundleSpec, ConnectionField, OutsideDomainError, \
    abelian_poly, constant, flat, from_expressions, metric_from_expressions, rotation, \
    sphere_levicivita, with_metric
from radialgauge.expr import EvalDomainError
from radialgauge.integrator import IntegrationError, IntegratorConfig, StepSizeUnderflow
from radialgauge.radial import (
    GridPointError,
    curve_transport,
    polar_transport,
    pullback_connection,
    pullback_transport,
    radial_frame,
    radial_section_grid,
    radial_transport,
    radial_transport_partial,
    rhs,
)

from radialgauge.verify import SuiteConfig, run_suite

from oracles import expm_taylor, random_constant_family

TIGHT = IntegratorConfig(atol=1e-13, rtol=1e-12)

WIDE_1D = BundleSpec.cube(1, 1, 2.0)


def _builtin_zoo():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    return [
        flat(2, 2),
        constant(np.array([0.3 * np.eye(2) + 0.2 * J, 0.5 * J - 0.4 * np.eye(2)])),
        abelian_poly(["x2^2", "x1"]),
        rotation(1.0),
        sphere_levicivita(),
    ]


# ---------------------------------------------------------------------------
# rhs
# ---------------------------------------------------------------------------


def test_rhs_zero_at_origin():
    field = sphere_levicivita()
    value = rhs(field, 0.5, np.array([1.0, 2.0]), np.zeros(2))
    np.testing.assert_array_equal(value, np.zeros(2))


def test_rhs_flat():
    field = flat(3, 2)
    value = rhs(field, 0.3, np.array([1.0, -1.0]), np.array([0.1, 0.2, 0.3]))
    np.testing.assert_array_equal(value, np.zeros(2))


def test_rhs_scalar_formula():
    # n = k = 1, gamma = c: f(t, y, z) = -c z y
    c = 0.75
    field = abelian_poly([repr(c)], domain=WIDE_1D)
    for t, y, z in [(0.0, 1.0, 0.5), (0.7, -2.0, 1.5), (1.0, 3.0, -0.25)]:
        value = rhs(field, t, np.array([y]), np.array([z]))
        assert value[0] == pytest.approx(-c * z * y, abs=1e-15)


# ---------------------------------------------------------------------------
# radial_transport
# ---------------------------------------------------------------------------


def test_flat_transport_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        field = flat(n, k)
        z = rng.uniform(-1, 1, n)
        y0 = rng.uniform(-1, 1, k)
        result = radial_transport(field, z, y0)
        np.testing.assert_array_equal(result.y_final, y0)


def test_scalar_constant_coefficient():
    # gamma = c constant: y(1, z) = e^{-c z} y0; frozen value e^{-1}
    field = abelian_poly(["1"], domain=WIDE_1D)
    result = radial_transport(field, [1.0], [1.0], TIGHT)
    assert result.y_final[0] == pytest.approx(0.36787944117144233, abs=1e-10)


def test_scalar_linear_coefficient():
    # gamma(x) = x: y(1, z) = e^{-z^2/2} y0; frozen value e^{-2} at z = 2
    field = abelian_poly(["x1"], domain=WIDE_1D)
    result = radial_transport(field, [2.0], [1.0], TIGHT)
    assert result.y_final[0] == pytest.approx(0.1353352832366127, abs=1e-10)


def test_constant_family_matches_expm_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, k = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        mats = random_constant_family(rng, n, k)
        field = constant(mats)
        z = rng.uniform(-1, 1, n)
        y0 = rng.uniform(-1, 1, k)
        got = radial_transport(field, z, y0, TIGHT).y_final
        expected = expm_taylor(-np.tensordot(z, mats, axes=(0, 0))) @ y0
        assert np.max(np.abs(got - expected)) < 1e-8


def test_transport_linearity():
    rng = np.random.default_rng(8)
    for field in _builtin_zoo():
        z = rng.uniform(-0.9, 0.9, field.spec.n)
        u = rng.uniform(-1, 1, field.spec.k)
        v = rng.uniform(-1, 1, field.spec.k)
        alpha, beta = 1.3, -0.4
        combined = radial_transport(field, z, alpha * u + beta * v).y_final
        separate = (alpha * radial_transport(field, z, u).y_final
                    + beta * radial_transport(field, z, v).y_final)
        assert np.linalg.norm(combined - separate) < 1e-9


def test_transport_outside_domain():
    field = flat(2, 1)
    with pytest.raises(OutsideDomainError, match=r"z\[0\]"):
        radial_transport(field, [1.5, 0.0], [1.0])


def test_transport_error_estimate_nonnegative():
    result = radial_transport(rotation(1.0), [0.5, 0.5], [1.0, 0.0])
    assert result.error_estimate >= 0.0
    assert result.steps > 0
    assert np.all(np.isfinite(result.y_final))


def _named_point(message):
    return [float(v) for v in re.search(r"z=\[([^\]]*)\]", message).group(1).split(",")]


def test_pole_off_grid_named_as_division_by_zero():
    # at z = 0.9 the pole x1 = 0.5 sits at t = 5/9, where no step lands
    field = abelian_poly(["1/(x1 - 0.5)"], domain=WIDE_1D)
    with pytest.raises(EvalDomainError, match="division by zero") as info:
        radial_transport(field, [0.9], [1.0])
    assert isinstance(info.value.__cause__, StepSizeUnderflow)
    (x,) = _named_point(str(info.value))
    assert abs(x - 0.5) <= 1e-12


def test_pole_named_on_every_segment_integration():
    field = abelian_poly(["1/(x1 - 0.5)"], domain=WIDE_1D)
    runs = [
        lambda: radial_transport(field, [0.9], [1.0], sample_times=[0.3, 0.7]),
        lambda: radial_transport_partial(field, [0.9], [1.0], 0.8),
        lambda: polar_transport(field, [1.0], 0.9, [1.0]),
        lambda: curve_transport(field, [[0.0], [0.2], [1.3]], [1.0]),
    ]
    for run in runs:
        with pytest.raises(EvalDomainError, match="division by zero") as info:
            run()
        (x,) = _named_point(str(info.value))
        assert abs(x - 0.5) <= 1e-12


def test_pole_named_in_its_batch_row():
    # only row 2 of the three segments crosses the pole x1 = 0.5; the
    # error names the point on that row's segment, with nothing rerun
    field = abelian_poly(["1/(x1 - 0.5)"], domain=WIDE_1D)
    with pytest.raises(EvalDomainError, match="division by zero") as info:
        radial.transport_segments(field, [[0.0], [-0.5], [0.1]],
                                  [[0.4], [0.2], [1.3]], [1.0])
    assert info.value.__cause__.row == 2
    (x,) = _named_point(str(info.value))
    assert abs(x - 0.5) <= 1e-12


def test_tan_pole_named():
    # tan(3.14159*x1) has its pole at x1 = 0.5*pi/3.14159, where cos changes
    # sign 1e-12 past the point at which rk45 stalls
    field = abelian_poly(["tan(3.14159*x1)"], domain=WIDE_1D)
    with pytest.raises(EvalDomainError, match="division by zero") as info:
        radial_transport(field, [0.9], [1.0])
    assert isinstance(info.value.__cause__, StepSizeUnderflow)
    assert "of tan(3.14159 * x1) in coefficient [0][0][0]" in str(info.value)
    (x,) = _named_point(str(info.value))
    assert abs(x - 0.5 * math.pi / 3.14159) <= 1e-12


def test_pole_behind_opaque_source_keeps_integration_error():
    field = ConnectionField(WIDE_1D, lambda z: np.array([[[1.0 / (z[0] - 0.5)]]]))
    with pytest.raises(IntegrationError, match="step size underflow") as info:
        radial_transport(field, [0.9], [1.0])
    assert not isinstance(info.value, EvalDomainError)
    assert 0.9 * info.value.t == pytest.approx(0.5, abs=1e-9)


def _count_rows(field):
    """Record the row count of every coefficients_batch call of ``field``."""
    log = []
    batch = field.coefficients_batch

    def counted(points):
        log.append(len(points))
        return batch(points)

    field.coefficients_batch = counted
    return log


def test_sphere_ray_makes_one_generator_call_per_attempt(monkeypatch):
    # one call for the stage-1 matrix, then one per attempt over its five
    # nodes (node by node, an attempt made five calls of one row)
    attempts = []
    dp_attempt = integrator._dp_attempt

    def counted(*args):
        attempts.append(1)
        return dp_attempt(*args)

    monkeypatch.setattr(integrator, "_dp_attempt", counted)
    field = sphere_levicivita()
    log = _count_rows(field)
    result = radial_transport(field, [0.8, -0.6], [0.6, 0.8])
    assert len(log) == len(attempts) + 1
    assert log == [1] + [5] * len(attempts)
    assert len(attempts) >= result.steps > 10


_POLE_FIELD = [[["1/(x1 - 0.5)"]], [["x2"]]]


def test_failures_named_under_stacked_evaluation():
    # every node of an rk4 pass and of a DP5 attempt is evaluated in one
    # stacked call; failures still name the point the step order reaches
    field = from_expressions(_POLE_FIELD, domain=BundleSpec.cube(2, 1, 2.0))
    rk4 = IntegratorConfig(method="rk4")
    with pytest.raises(EvalDomainError, match="division by zero"):
        radial_transport(field, [1.0, 0.3], [1.0], rk4)
    with pytest.raises(EvalDomainError, match="division by zero") as info:
        radial_transport(field, [1.0, 0.3], [1.0])
    assert _named_point(str(info.value)) == [0.5, 0.15]
    grid = [[0.2, 0.1], [1.0, 0.3], [0.9, 0.1]]  # the last crosses too
    for config in (rk4, IntegratorConfig()):
        with pytest.raises(GridPointError,
                           match=re.escape("grid point z=[1.0, 0.3] failed")):
            radial_section_grid(field, [1.0], grid, config)


def test_opaque_failure_raised_at_first_node_in_step_order():
    # the second row reaches x1 >= 0.5 at t = 0.5, the first row only at
    # t = 5/6; the step-by-step order meets the second row's node first
    def source(z):
        if z[0] >= 0.5:
            raise ArithmeticError(f"refused z={z.tolist()}")
        return np.array([[[1.0 / (z[0] - 2.0)]], [[z[1]]]])

    field = ConnectionField(BundleSpec.cube(2, 1, 2.0), source)
    with pytest.raises(ArithmeticError) as info:
        radial.transport_segments(field, 0.0, [[0.6, 0.3], [1.0, 0.3]], [1.0],
                                  IntegratorConfig(method="rk4"))
    assert str(info.value) == "refused z=[0.5, 0.15]"


@pytest.mark.parametrize("config", [IntegratorConfig(),
                                    IntegratorConfig(method="rk4",
                                                     rk4_steps=32)],
                         ids=["rk45", "rk4"])
def test_row_budget_keeps_grid_and_frame_bits(monkeypatch, config):
    # a budget of 7 rows divides none of the stacked columns
    field = from_expressions(_MIXED_ENTRIES)
    grid = np.random.default_rng(6).uniform(-0.9, 0.9, (5, 2))
    z = np.array([0.6, -0.7])

    def outputs():
        values = radial_section_grid(field, [0.6, 0.8], grid, config)
        return (b"".join(v.tobytes() for _, v in values)
                + radial_frame(field, z, config).tobytes())

    whole = outputs()
    monkeypatch.setattr(integrator, "_ROW_BUDGET", 7)
    log = _count_rows(field)
    assert outputs() == whole
    assert max(log) <= 7 and max(log) > 1


def test_trajectory_samples():
    field = abelian_poly(["1"], domain=WIDE_1D)
    result = radial_transport(field, [1.0], [1.0], TIGHT,
                              sample_times=[0.25, 0.5, 1.0])
    assert [t for t, _ in result.samples] == [0.25, 0.5, 1.0]
    for t, y in result.samples:
        assert y[0] == pytest.approx(math.exp(-t), abs=1e-10)
    assert result.y_final[0] == result.samples[-1][1][0]
    with pytest.raises(ValueError, match="increasing"):
        radial_transport(field, [1.0], [1.0], TIGHT, sample_times=[0.5, 0.25])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        radial_transport(field, [1.0], [1.0], TIGHT, sample_times=[1.5])


# ---------------------------------------------------------------------------
# radial_transport_partial and the scaling identity
# ---------------------------------------------------------------------------


def test_partial_at_zero_is_initial():
    field = rotation(2.0)
    y0 = np.array([0.3, -0.8])
    np.testing.assert_array_equal(
        radial_transport_partial(field, [0.5, 0.5], y0, 0.0), y0
    )


def test_partial_at_one_bitwise_equals_full():
    for field in _builtin_zoo():
        z = 0.7 * np.ones(field.spec.n) / math.sqrt(field.spec.n)
        y0 = np.linspace(0.5, 1.0, field.spec.k)
        full = radial_transport(field, z, y0).y_final
        partial = radial_transport_partial(field, z, y0, 1.0)
        np.testing.assert_array_equal(full, partial)


def test_partial_scalar_closed_form():
    c = 1.25
    field = abelian_poly([repr(c)], domain=WIDE_1D)
    for t in (0.2, 0.5, 0.9):
        value = radial_transport_partial(field, [1.5], [2.0], t, TIGHT)
        assert value[0] == pytest.approx(2.0 * math.exp(-c * 1.5 * t), rel=1e-10)


def test_scaling_identity_random():
    rng = np.random.default_rng(9)
    for field in _builtin_zoo():
        for _ in range(10):
            z = rng.uniform(field.spec.lo, field.spec.hi)
            t = float(rng.uniform())
            y0 = rng.uniform(-1, 1, field.spec.k)
            shortened = radial_transport(field, t * z, y0).y_final
            partway = radial_transport_partial(field, z, y0, t)
            assert np.linalg.norm(shortened - partway) <= 1e-9


def test_partial_validates_t():
    field = flat(1, 1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        radial_transport_partial(field, [0.5], [1.0], 1.2)


# ---------------------------------------------------------------------------
# radial_frame
# ---------------------------------------------------------------------------


def test_frame_flat_identity():
    field = flat(3, 3)
    rng = np.random.default_rng(10)
    for _ in range(3):
        P = radial_frame(field, rng.uniform(-1, 1, 3))
        np.testing.assert_array_equal(P, np.eye(3))


def test_frame_identity_at_origin():
    for field in _builtin_zoo():
        P = radial_frame(field, np.zeros(field.spec.n))
        np.testing.assert_array_equal(P, np.eye(field.spec.k))


def test_frame_constant_family_expm():
    rng = np.random.default_rng(11)
    mats = random_constant_family(rng, 2, 3)
    field = constant(mats)
    z = np.array([0.4, -0.7])
    P = radial_frame(field, z, TIGHT)
    expected = expm_taylor(-np.tensordot(z, mats, axes=(0, 0)))
    assert np.max(np.abs(P - expected)) < 1e-8
    # transport is a linear isomorphism, so the frame must be invertible
    assert abs(np.linalg.det(P)) > 1e-6


def test_frame_reproduces_transport():
    rng = np.random.default_rng(12)
    for field in _builtin_zoo():
        z = rng.uniform(-0.9, 0.9, field.spec.n)
        y0 = rng.uniform(-1, 1, field.spec.k)
        direct = radial_transport(field, z, y0).y_final
        via_frame = radial_frame(field, z) @ y0
        assert np.linalg.norm(direct - via_frame) < 1e-9


@pytest.mark.parametrize("config", [IntegratorConfig(),
                                    IntegratorConfig(method="rk4")],
                         ids=["rk45", "rk4"])
def test_frame_columns_equal_basis_transports(config):
    # the k columns are rows of one batch, which do not depend on each other
    rng = np.random.default_rng(13)
    for field in _builtin_zoo():
        z = rng.uniform(-0.9, 0.9, field.spec.n)
        P = radial_frame(field, z, config)
        for j, e in enumerate(np.eye(field.spec.k)):
            column = radial_transport(field, z, e, config).y_final
            np.testing.assert_array_equal(P[:, j], column, err_msg=field.family)


# ---------------------------------------------------------------------------
# radial_section_grid
# ---------------------------------------------------------------------------


def test_grid_flat_constant_section():
    field = flat(2, 2)
    y0 = np.array([0.6, -0.2])
    grid = [np.array([x, y]) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    rows = radial_section_grid(field, y0, grid)
    assert len(rows) == 9
    for z, y in rows:
        np.testing.assert_array_equal(y, y0)


def test_grid_origin_value_exact():
    field = sphere_levicivita()
    y0 = np.array([0.9, 0.1])
    rows = radial_section_grid(field, y0, [np.zeros(2), np.array([0.3, 0.3])])
    np.testing.assert_array_equal(rows[0][1], y0)


def test_grid_scalar_closed_form():
    # gamma(x) = x over {-1, 0, 1}: (e^{-1/2}, 1, e^{-1/2}) * y0
    field = abelian_poly(["x1"], domain=WIDE_1D)
    rows = radial_section_grid(field, [1.0], [[-1.0], [0.0], [1.0]], TIGHT)
    values = [y[0] for _, y in rows]
    assert values[0] == pytest.approx(0.6065306597126334, abs=1e-10)
    assert values[1] == 1.0
    assert values[2] == pytest.approx(0.6065306597126334, abs=1e-10)
    # even symmetry of this example
    assert values[0] == pytest.approx(values[2], abs=1e-12)


def test_grid_order_independent_bitwise():
    field = sphere_levicivita()
    y0 = np.array([1.0, 0.5])
    pts = [np.array([x, y]) for x in (-0.8, 0.0, 0.8) for y in (-0.5, 0.5)]
    forward = radial_section_grid(field, y0, pts)
    backward = radial_section_grid(field, y0, pts[::-1])
    split = (radial_section_grid(field, y0, pts[:2])
             + radial_section_grid(field, y0, pts[2:]))
    for (z1, y1), (z2, y2) in zip(forward, backward[::-1]):
        np.testing.assert_array_equal(z1, z2)
        np.testing.assert_array_equal(y1, y2)
    for (z1, y1), (z2, y2) in zip(forward, split):
        np.testing.assert_array_equal(z1, z2)
        np.testing.assert_array_equal(y1, y2)


@pytest.mark.parametrize("config", [IntegratorConfig(),
                                    IntegratorConfig(method="rk4")],
                         ids=["rk45", "rk4"])
def test_grid_matches_transport(config):
    # the rows of a batch do not depend on each other, so each grid row is
    # the single-ray transport at its point, bit for bit
    expressions = from_expressions(
        [[["x1", "x2*x3", "0.5"], ["x3^2", "-x1", "1"], ["0", "x2", "x1*x3"]],
         [["1", "x2", "x1*x2"], ["0", "x3", "x1"], ["x2", "-1", "sin(x1)"]],
         [["x3", "0", "-x2"], ["x1", "cos(x2)", "0"], ["x2", "x1", "-x3"]]])
    rng = np.random.default_rng(7)
    for field in _builtin_zoo() + [expressions]:
        n, k = field.spec.n, field.spec.k
        pts = [rng.uniform(-0.9, 0.9, n) for _ in range(6)] + [np.zeros(n)]
        y0 = rng.uniform(-1, 1, k)
        rows = radial_section_grid(field, y0, pts, config)
        for z, y in rows:
            expected = radial_transport(field, z, y0, config).y_final
            np.testing.assert_array_equal(y, expected, err_msg=field.family)


def test_grid_failure_names_point():
    field = abelian_poly(["1/(x1 - 0.5)"], domain=WIDE_1D)
    with pytest.raises(GridPointError, match=r"z=\[1\.0\]"):
        radial_section_grid(field, [1.0], [[0.1], [1.0]])


def test_grid_point_outside_domain_rejected_upfront():
    field = flat(1, 1)
    with pytest.raises(OutsideDomainError):
        radial_section_grid(field, [1.0], [[0.5], [7.0]])


# ---------------------------------------------------------------------------
# curve_transport
# ---------------------------------------------------------------------------


def test_curve_single_segment_matches_radial():
    for field in _builtin_zoo():
        n, k = field.spec.n, field.spec.k
        z = 0.6 * np.ones(n) / math.sqrt(n)
        y0 = np.linspace(-0.5, 1.0, k)
        via_curve = curve_transport(field, [np.zeros(n), z], y0)
        via_radial = radial_transport(field, z, y0).y_final
        assert np.linalg.norm(via_curve - via_radial) < 1e-9


def test_curve_closed_loop_flat():
    field = flat(2, 2)
    y0 = np.array([0.2, 0.9])
    loop = [np.zeros(2), np.array([0.5, 0.0]), np.array([0.5, 0.5]),
            np.array([0.0, 0.5]), np.zeros(2)]
    np.testing.assert_array_equal(curve_transport(field, loop, y0), y0)


def test_curve_single_vertex_is_identity():
    field = rotation(1.0)
    y0 = np.array([1.0, 2.0])
    np.testing.assert_array_equal(curve_transport(field, [np.zeros(2)], y0), y0)
    with pytest.raises(ValueError, match="vertex"):
        curve_transport(field, [], y0)


def test_square_loop_holonomy_equals_flux():
    # abelian gamma_1 = -x2, gamma_2 = x1 has curvature F_12 = 2; transport
    # around the square [0, eps]^2 multiplies by exp(-F_12 * eps^2)
    field = abelian_poly(["-x2", "x1"])
    for eps in (0.3, 0.05):
        loop = [np.zeros(2), np.array([eps, 0.0]), np.array([eps, eps]),
                np.array([0.0, eps]), np.zeros(2)]
        got = curve_transport(field, loop, [1.0], TIGHT)[0]
        assert got == pytest.approx(math.exp(-2.0 * eps ** 2), abs=1e-9)


def test_curve_parameterization_invariance():
    # inserting a midpoint vertex must not change the endpoint map
    field = sphere_levicivita()
    y0 = np.array([0.7, -0.4])
    a, b = np.zeros(2), np.array([0.8, 0.6])
    direct = curve_transport(field, [a, b], y0)
    split = curve_transport(field, [a, 0.5 * b, b], y0)
    assert np.linalg.norm(direct - split) < 1e-9


# ---------------------------------------------------------------------------
# polar_transport
# ---------------------------------------------------------------------------


def test_polar_zero_radius():
    field = rotation(1.0)
    y0 = np.array([1.0, -1.0])
    np.testing.assert_array_equal(
        polar_transport(field, [1.0, 0.0], 0.0, y0), y0
    )


def test_polar_flat():
    field = flat(2, 2)
    y0 = np.array([0.5, 0.25])
    u = np.array([3.0, 4.0]) / 5.0
    np.testing.assert_array_equal(polar_transport(field, u, 0.9, y0), y0)


def test_polar_scalar_closed_form():
    field = abelian_poly(["x1"], domain=WIDE_1D)
    got = polar_transport(field, [1.0], 2.0, [1.0], TIGHT)
    assert got[0] == pytest.approx(0.1353352832366127, abs=1e-10)
    # matches radial transport at z = r*u
    direct = radial_transport(field, [2.0], [1.0], TIGHT).y_final
    assert abs(got[0] - direct[0]) < 1e-10


def test_polar_rejects_non_unit_direction():
    field = rotation(1.0)
    with pytest.raises(ValueError, match="unit vector"):
        polar_transport(field, [1.0, 0.5], 0.5, [1.0, 0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        polar_transport(field, [1.0, 0.0], -0.1, [1.0, 0.0])


def test_polar_endpoint_outside_domain():
    field = rotation(1.0)
    with pytest.raises(OutsideDomainError):
        polar_transport(field, [1.0, 0.0], 1.5, [1.0, 0.0])


# ---------------------------------------------------------------------------
# pullback_transport
# ---------------------------------------------------------------------------


def test_pullback_at_origin():
    field = sphere_levicivita()
    y0 = np.array([0.4, 0.8])
    np.testing.assert_array_equal(pullback_transport(field, np.zeros(2), y0), y0)


def test_pullback_flat():
    field = flat(3, 2)
    y0 = np.array([1.0, 2.0])
    np.testing.assert_array_equal(
        pullback_transport(field, np.array([0.3, -0.4, 0.5]), y0), y0
    )


def test_pullback_constant_family_expm():
    rng = np.random.default_rng(13)
    mats = random_constant_family(rng, 2, 2)
    field = constant(mats)
    x = np.array([0.6, -0.3])
    y0 = np.array([1.0, -0.5])
    got = pullback_transport(field, x, y0, TIGHT)
    expected = expm_taylor(-np.tensordot(x, mats, axes=(0, 0))) @ y0
    assert np.max(np.abs(got - expected)) < 1e-8


def test_pullback_coefficient_structure():
    # dt slot: sum_i x_i M_i(t x); dx_i slot: t M_i(t x)
    field = sphere_levicivita()
    pulled = pullback_connection(field)
    assert pulled.spec.n == 3 and pulled.spec.k == 2
    t, x = 0.6, np.array([0.5, -0.2])
    w = np.concatenate(([t], x))
    pulled_mats = pulled.coefficients_at(w)
    base_mats = field.coefficients_at(t * x)
    np.testing.assert_allclose(
        pulled_mats[0], np.tensordot(x, base_mats, axes=(0, 0)), atol=1e-15
    )
    np.testing.assert_allclose(pulled_mats[1:], t * base_mats, atol=1e-15)


def test_three_way_agreement():
    rng = np.random.default_rng(14)
    fields = _builtin_zoo()
    for i in range(40):
        field = fields[i % len(fields)]
        n = field.spec.n
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        r = float(rng.uniform(0.0, 1.0))
        y0 = rng.uniform(-1, 1, field.spec.k)
        via_radial = radial_transport(field, r * u, y0).y_final
        via_polar = polar_transport(field, u, r, y0)
        via_pullback = pullback_transport(field, r * u, y0)
        assert np.linalg.norm(via_radial - via_polar) < 1e-9
        assert np.linalg.norm(via_radial - via_pullback) < 1e-9
        assert np.linalg.norm(via_polar - via_pullback) < 1e-9


# ---------------------------------------------------------------------------
# compiled expression fields against the point-by-point tree walk
# ---------------------------------------------------------------------------


class _TreeWalk:
    """An opaque source evaluating a nest of trees entry by entry with
    ``expr.evaluate``, which forces the per-point path."""

    def __init__(self, entries):
        self.entries = entries

    def __call__(self, z):
        return np.array([[[expr.evaluate(tree, z) for tree in row]
                          for row in mat] for mat in self.entries])


# the Levi-Civita connection of the round S^2 in stereographic coordinates,
# with one entry replaced by a formula using sin, exp, fractional ^ and /
_S2 = "(-2*x{}/(1+(x1^2+x2^2)))"
_MIXED_ENTRIES = [
    [[f"{_S2.format(1)}+{_S2.format(1)}-{_S2.format(1)}", _S2.format(2)],
     ["sin(x1)*exp(x2)^1.5 + abs(x1)^0.7 - 1/(2+x2)", _S2.format(1)]],
    [[_S2.format(2), f"-{_S2.format(1)}"],
     [_S2.format(1), f"{_S2.format(2)}+{_S2.format(2)}-{_S2.format(2)}"]],
]
_MIXED_METRIC = [["4/(1+(x1^2+x2^2))^2", "0"], ["0", "4/(1+(x1^2+x2^2))^2"]]


@pytest.mark.parametrize("config", [IntegratorConfig(),
                                    IntegratorConfig(method="rk4",
                                                     rk4_steps=32)],
                         ids=["rk45", "rk4"])
def test_compiled_field_matches_tree_walk_bitwise(config):
    compiled = with_metric(from_expressions(_MIXED_ENTRIES),
                           metric_from_expressions(_MIXED_METRIC, 2))
    metric_walk = _TreeWalk([compiled.metric.entries])
    walked = ConnectionField(compiled.spec, _TreeWalk(compiled.coeffs.entries),
                             metric=lambda z: metric_walk(z)[0],
                             family=compiled.family)
    z = np.array([0.6, -0.7])
    assert (radial_frame(compiled, z, config).tobytes()
            == radial_frame(walked, z, config).tobytes())
    grid = np.random.default_rng(5).uniform(-0.9, 0.9, (12, 2))
    y0 = [0.6, 0.8]
    for (_, a), (_, b) in zip(radial_section_grid(compiled, y0, grid, config),
                              radial_section_grid(walked, y0, grid, config)):
        assert a.tobytes() == b.tobytes()
    suite = SuiteConfig(integrator=config, scaling_samples=4,
                        residual_samples=2, gauge_samples=2, fit_samples=4,
                        smooth_directions=3, metric_samples=4)
    assert (json.dumps(run_suite(compiled, suite).to_json_dict())
            == json.dumps(run_suite(walked, suite).to_json_dict()))
