import json
import math

import numpy as np
import pytest

from radialgauge.connection import (
    BundleSpec,
    ConstantMetric,
    MissingMetricError,
    abelian_poly,
    constant,
    flat,
    rotation,
    sphere_levicivita,
    with_metric,
)
from radialgauge import verify
from radialgauge.integrator import IntegrationResult, IntegratorConfig
from radialgauge.radial import radial_frame, radial_transport
from radialgauge.verify import (
    CheckReport,
    IllConditionedFrameError,
    SuiteConfig,
    _measure,
    metric_compat_check,
    radial_gauge_check,
    radial_gauge_fit,
    radial_residual,
    residual_convergence_check,
    run_suite,
    scaling_identity_check,
    smoothness_probe,
)

from oracles import random_constant_family, sphere_radial_section

WIDE_1D = BundleSpec.cube(1, 1, 2.0)
TIGHT = IntegratorConfig(atol=1e-13, rtol=1e-12)


# ---------------------------------------------------------------------------
# CheckReport plumbing
# ---------------------------------------------------------------------------


def test_verdict_iff_all_measurements_pass():
    good = _measure("a", 0.5, 1.0)
    bad = _measure("b", 2.0, 1.0)
    low = _measure("c", 1.9, 1.8, kind="min")
    assert CheckReport.from_measurements("x", {}, [], [good, low]).passed
    assert not CheckReport.from_measurements("x", {}, [], [good, bad]).passed
    assert not CheckReport.from_measurements(
        "x", {}, [], [_measure("c", 1.7, 1.8, kind="min")]
    ).passed


def test_report_serializes_to_json():
    report = scaling_identity_check(rotation(1.0), samples=3, seed=0)
    doc = report.to_json_dict()
    text = json.dumps(doc, sort_keys=True)
    parsed = json.loads(text)
    assert set(parsed) == {"name", "params", "samples", "measured", "bound",
                           "verdict"}
    assert parsed["verdict"] == "pass"
    assert parsed["bound"]["max_deviation"] == 1e-9


# ---------------------------------------------------------------------------
# radial_residual
# ---------------------------------------------------------------------------


def test_residual_exactly_zero_at_origin():
    for field in (rotation(1.0), sphere_levicivita(), abelian_poly(["x1", "x2"])):
        res = radial_residual(field, np.zeros(field.spec.n),
                              np.ones(field.spec.k))
        assert np.linalg.norm(res) == 0.0


def test_residual_flat_zero():
    field = flat(2, 2)
    res = radial_residual(field, [0.5, -0.5], [1.0, 2.0], step=1e-4)
    assert np.linalg.norm(res) <= 1e-12


def test_residual_scalar_example():
    # gamma(x) = x at z = 1, h = 1e-4
    field = abelian_poly(["x1"], domain=WIDE_1D)
    res = radial_residual(field, [1.0], [1.0], step=1e-4, config=TIGHT)
    assert abs(res[0]) <= 1e-7


def test_residual_matches_analytic_section_differencing():
    # The exact section e^{-x^2/2} has zero covariant radial derivative, so
    # running the same stencil on its closed form isolates the O(h^2)
    # differencing error; the transported section must reproduce it.
    field = abelian_poly(["x1"], domain=WIDE_1D)
    z, h, y0 = 1.0, 1e-3, 1.0

    def section(x):
        return math.exp(-x * x / 2.0) * y0

    analytic = z * ((section(z + h) - section(z - h)) / (2 * h)
                    + z * section(z))
    transported = radial_residual(field, [z], [y0], step=h, config=TIGHT)[0]
    assert abs(analytic) < 1e-6
    assert abs(transported - analytic) < 1e-9


def test_residual_convergence_order():
    report = residual_convergence_check(
        rotation(1.0), samples=10, steps=(1e-3, 1e-4),
        config=IntegratorConfig(atol=1e-12, rtol=1e-12), seed=5,
    )
    assert report.passed
    measured = {m["name"]: m["value"] for m in report.measured}
    assert measured["median_order"] >= 1.8
    assert measured["max_residual_smallest_step"] <= 1e-6


def test_residual_convergence_handles_fully_converged_field():
    # z_1*gamma_1 + z_2*gamma_2 vanishes identically here, so every sample
    # sits below the noise floor and counts as converged
    report = residual_convergence_check(abelian_poly(["-x2", "x1"]),
                                        samples=5, seed=6)
    assert report.passed
    assert all(s["order"] == float("inf") for s in report.samples)


# ---------------------------------------------------------------------------
# scaling identity
# ---------------------------------------------------------------------------


def test_scaling_check_flat_exact():
    report = scaling_identity_check(flat(2, 2), samples=20, seed=1)
    assert report.passed
    assert report.measured[0]["value"] == 0.0


def test_scaling_closed_form_value():
    # gamma = 1, z = 0.8, t = 0.5: both sides are e^{-0.4}
    field = abelian_poly(["1"], domain=WIDE_1D)
    from radialgauge.radial import radial_transport_partial
    lhs = radial_transport(field, [0.4], [1.0], TIGHT).y_final[0]
    rhs = radial_transport_partial(field, [0.8], [1.0], 0.5, TIGHT)[0]
    assert lhs == pytest.approx(0.6703200460356393, abs=1e-10)
    assert rhs == pytest.approx(0.6703200460356393, abs=1e-10)


def test_scaling_check_passes_on_builtins():
    for field in (rotation(1.0), sphere_levicivita(),
                  abelian_poly(["x2^2", "x1"])):
        report = scaling_identity_check(field, samples=30, seed=2)
        assert report.passed, report.measured
        assert report.measured[0]["value"] <= 1e-9


def test_scaling_check_deviation_follows_tolerance():
    # the two sides take different step sequences, so a loose integrator
    # shows in the deviation instead of cancelling out
    values = [scaling_identity_check(rotation(1.0), samples=10, seed=3,
                                     config=IntegratorConfig(atol=tol, rtol=tol))
              .measured[0]["value"] for tol in (1e-2, 1e-6, 1e-10)]
    assert values[0] > 1e-9
    assert values[0] > values[1] > values[2]


def test_scaling_check_records_seed_and_samples():
    report = scaling_identity_check(rotation(1.0), samples=4, seed=77)
    assert report.params["seed"] == 77
    assert len(report.samples) == 4


# ---------------------------------------------------------------------------
# smoothness probe
# ---------------------------------------------------------------------------


def test_smoothness_flat_all_zero():
    report = smoothness_probe(flat(2, 2), [1.0, -1.0], seed=3)
    assert report.passed
    measured = {m["name"]: m["value"] for m in report.measured}
    assert measured["min_axis_order"] == float("inf")  # converged everywhere
    assert measured["max_directional_error"] == 0.0
    assert measured["max_mixed_asymmetry"] == 0.0


def test_smoothness_derivative_scalar_constant():
    # gamma = c: y(1, z) = e^{-c z}, derivative at 0 is -c.  The central
    # difference of e^{-z} carries truncation exactly h^2/6 (1.67e-7 at
    # h = 1e-3); Richardson over h and h/2 removes it.
    c = 1.0
    field = abelian_poly([repr(c)], domain=WIDE_1D)

    def central(h):
        return (radial_transport(field, [h], [1.0], TIGHT).y_final[0]
                - radial_transport(field, [-h], [1.0], TIGHT).y_final[0]) / (2 * h)

    h = 1e-3
    coarse, fine = central(h), central(h / 2)
    assert abs(coarse - (-c)) <= 2.0 * h ** 2 / 6.0
    assert abs((4.0 * fine - coarse) / 3.0 - (-c)) <= 1e-9


def test_smoothness_derivatives_scalar_linear():
    # gamma(x) = x: y(1, z) = e^{-z^2/2}; first derivative 0, second -1
    field = abelian_poly(["x1"], domain=WIDE_1D)

    def section(z):
        return radial_transport(field, [z], [1.0], TIGHT).y_final[0]

    h = 1e-3
    first = (section(h) - section(-h)) / (2 * h)
    assert abs(first) <= 1e-7
    h = 1e-2
    second = (section(h) - 2.0 * section(0.0) + section(-h)) / h ** 2
    assert abs(second - (-1.0)) <= 1e-4


def test_smoothness_probe_rotation():
    report = smoothness_probe(rotation(1.0), [1.0, 0.25], seed=4,
                              n_directions=20)
    assert report.passed
    measured = {m["name"]: m["value"] for m in report.measured}
    assert measured["min_axis_order"] >= 1.8
    assert measured["max_directional_error"] <= 1e-6
    assert measured["max_mixed_asymmetry"] <= 1e-5


def test_smoothness_probe_sphere():
    report = smoothness_probe(sphere_levicivita(), [0.8, -0.3], seed=5)
    assert report.passed, report.measured


# ---------------------------------------------------------------------------
# radial gauge
# ---------------------------------------------------------------------------


def test_gauge_flat_zero():
    assert radial_gauge_check(flat(2, 2), [0.4, -0.6], 1e-4) == 0.0


def test_gauge_zero_at_origin():
    assert radial_gauge_check(rotation(1.0), [0.0, 0.0], 1e-4) == 0.0


def test_gauge_rotation_bound_and_fixed_step_oracle():
    # adaptive result within bound, and confirmed by the independent
    # fixed-step integrator at 4x the default resolution
    adaptive = radial_gauge_check(rotation(1.0), [0.5, 0.5], 1e-4)
    fixed = radial_gauge_check(rotation(1.0), [0.5, 0.5], 1e-4,
                               IntegratorConfig(method="rk4", rk4_steps=1024))
    assert adaptive <= 1e-6
    assert fixed <= 1e-6
    assert abs(adaptive - fixed) <= 1e-7


def test_gauge_matches_residual_per_frame_column():
    # the gauge value is the frame-level residual: P (sum_i z_i G_i) e_j
    # must reproduce the residual of the j-th frame-column section
    from radialgauge.verify import _gauge_matrices
    field = sphere_levicivita()
    z = np.array([0.3, 0.4])
    h = 1e-4
    gauge, _ = _gauge_matrices(field, z, h, None, 1e8)
    frame = radial_frame(field, z)
    radial_combo = np.tensordot(z, gauge, axes=(0, 0))
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1.0
        column_residual = radial_residual(field, z, e, step=h)
        assert np.linalg.norm(frame @ radial_combo @ e - column_residual) < 1e-12


def test_stencils_equal_per_point_transports_bitwise():
    # the stencil points run as rows of one batch, and rows do not depend
    # on each other: the checks equal their formulas built from per-point
    # radial_transport and radial_frame calls, bit for bit
    field = sphere_levicivita()
    z, h, y0 = np.array([0.3, -0.45]), 1e-4, np.array([0.8, -0.6])
    mats = field.coefficients_at(z)
    xi0 = radial_transport(field, z, y0).y_final
    frame = radial_frame(field, z)
    residual = np.zeros(2)
    gauge = np.empty_like(mats)
    for i, e in enumerate(np.eye(2)):
        plus = radial_transport(field, z + h * e, y0).y_final
        minus = radial_transport(field, z - h * e, y0).y_final
        residual = residual + z[i] * ((plus - minus) / (2.0 * h)
                                      + mats[i] @ xi0)
        d_frame = (radial_frame(field, z + h * e)
                   - radial_frame(field, z - h * e)) / (2.0 * h)
        gauge[i] = np.linalg.solve(frame, d_frame + mats[i] @ frame)
    np.testing.assert_array_equal(radial_residual(field, z, y0, h), residual)
    expected = float(np.linalg.norm(np.tensordot(z, gauge, axes=(0, 0))))
    assert radial_gauge_check(field, z, h) == expected


def test_stencil_rows_match_sphere_closed_form():
    # every row of a many-centre stencil batch against the exact section
    # (1 + |z|^2) y0 at its own point: within 1e-10 at the default
    # tolerance, and visibly off at atol = rtol = 1e-4, so the oracle can
    # tell a loose integrator apart
    field = sphere_levicivita()
    rng = np.random.default_rng(30)
    centres = rng.uniform(-0.9, 0.9, (6, 2))
    hs = rng.uniform(1e-4, 1e-2, 6)
    y0s = rng.uniform(-1.0, 1.0, (6, 3, 2))
    errors = {}
    for tol in (None, 1e-4):
        config = None if tol is None else IntegratorConfig(atol=tol, rtol=tol)
        rows = verify._stencil_transports(field, centres, hs, y0s, config)
        assert rows.shape == (6, 5, 3, 2)
        worst = 0.0
        for z, h, stencil, vectors in zip(centres, hs, rows, y0s):
            offsets = h * np.eye(2)
            points = np.concatenate(([z], z + offsets, z - offsets))
            for w, values in zip(points, stencil):
                for y0, y in zip(vectors, values):
                    worst = max(worst, float(np.linalg.norm(
                        y - sphere_radial_section(w, y0))))
        errors[tol] = worst
    assert errors[None] <= 1e-10
    assert errors[1e-4] > 1e-6


def test_gauge_condition_limit():
    with pytest.raises(IllConditionedFrameError, match="condition number"):
        radial_gauge_check(sphere_levicivita(), [0.5, 0.5], 1e-4,
                           cond_limit=0.5)


def test_gauge_fit_rotation_and_abelian():
    for field in (rotation(1.0), abelian_poly(["-x2", "x1"])):
        report = radial_gauge_fit(field, seed=8)
        assert report.passed, report.measured
        assert report.measured[0]["value"] <= 1e-6


def test_gauge_fit_recovers_linear_term():
    # for gamma = (-x2, x1) the transported frame is the identity, so the
    # frame-side matrices equal the coefficients themselves: linear in z
    # with slopes -1 and +1, and curvature F_01 = 2 is reported alongside
    report = radial_gauge_fit(abelian_poly(["-x2", "x1"]), seed=9)
    linear = np.array(report.samples[0]["linear_term"])  # (n, n, k, k)
    assert linear[0, 1, 0, 0] == pytest.approx(-1.0, abs=1e-6)
    assert linear[1, 0, 0, 0] == pytest.approx(1.0, abs=1e-6)
    assert abs(linear[0, 0, 0, 0]) <= 1e-6
    curvature = report.samples[1]["curvature_at_origin"]
    assert curvature["F_01"][0][0] == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# metric compatibility
# ---------------------------------------------------------------------------


def test_metric_zero_vector():
    report = metric_compat_check(sphere_levicivita(), samples=1, seed=10)
    # deviation for whatever sample is drawn is tiny; zero vector is exact:
    field = sphere_levicivita()
    xi = radial_transport(field, [0.4, 0.2], np.zeros(2)).y_final
    assert float(xi @ field.metric_at([0.4, 0.2]) @ xi) == 0.0
    assert report.passed


def test_metric_sphere_preserved():
    report = metric_compat_check(sphere_levicivita(), samples=50, seed=11,
                                 radius=1.0)
    assert report.passed
    assert report.measured[0]["value"] <= 1e-8


def test_metric_sphere_specific_point():
    field = sphere_levicivita()
    y0 = np.array([1.0, 0.0])
    z = np.array([0.4, 0.2])
    xi = radial_transport(field, z, y0, TIGHT).y_final
    endpoint = float(xi @ field.metric_at(z) @ xi)
    start = float(y0 @ field.metric_at([0.0, 0.0]) @ y0)
    assert abs(endpoint - start) <= 1e-8


def test_metric_flat_euclidean():
    field = with_metric(flat(2, 2), ConstantMetric(np.eye(2)))
    report = metric_compat_check(field, samples=10, seed=12)
    assert report.passed
    assert report.measured[0]["value"] <= 1e-12


def test_metric_check_requires_metric():
    with pytest.raises(MissingMetricError):
        metric_compat_check(flat(2, 2))


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_suite_flat_all_pass():
    report = run_suite(flat(2, 2))
    assert report.passed
    names = [m["name"] for m in report.measured]
    assert names == ["scaling_identity", "radial_residual", "radial_gauge",
                     "gauge_taylor", "smoothness"]
    sub = {s["name"]: s for s in report.samples}
    residual = {m["name"]: m["value"]
                for m in sub["radial_residual"]["measured"]}
    assert residual["max_residual_smallest_step"] <= 1e-12


def test_suite_constant_family_passes():
    rng = np.random.default_rng(20)
    field = constant(random_constant_family(rng, 2, 2, max_norm=1.0))
    report = run_suite(field, SuiteConfig(seed=3))
    assert report.passed, [s for s in report.samples if s["verdict"] != "pass"]


def test_suite_rotation_and_sphere_pass():
    assert run_suite(rotation(1.0)).passed
    sphere_report = run_suite(sphere_levicivita())
    assert sphere_report.passed
    # metric check is applicable here and must be included
    assert "metric_compat" in [m["name"] for m in sphere_report.measured]


def test_suite_captures_evaluation_failures():
    # pole inside the box: checks fail with recorded errors, nothing raises
    field = abelian_poly(["1/(x1 - 0.5)", "x2"])
    report = run_suite(field, SuiteConfig(seed=1))
    assert not report.passed
    failed = [s for s in report.samples if s["verdict"] == "fail"]
    assert failed
    assert any("error" in s["params"] for s in failed)


def test_suite_subset_selection():
    report = run_suite(rotation(1.0),
                       SuiteConfig(checks=("scaling_identity",)))
    assert [m["name"] for m in report.measured] == ["scaling_identity"]


def test_suite_deterministic():
    a = run_suite(rotation(1.0), SuiteConfig(seed=5))
    b = run_suite(rotation(1.0), SuiteConfig(seed=5))
    assert a.to_json_dict() == b.to_json_dict()


def test_suite_seed_changes_samples():
    a = run_suite(rotation(1.0), SuiteConfig(seed=5,
                                             checks=("scaling_identity",)))
    b = run_suite(rotation(1.0), SuiteConfig(seed=6,
                                             checks=("scaling_identity",)))
    assert a.samples != b.samples


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_default_sphere_suite_makes_one_transport_call_per_leg(monkeypatch):
    # every check lists its segment rows first and transports them in one
    # call; scaling_identity has two legs, the second starting where the
    # first ends.  No integration runs outside those calls.
    from radialgauge import radial
    calls = _count_calls(monkeypatch, verify, "transport_segments")
    integrations = _count_calls(monkeypatch, radial, "integrate_linear_batch")
    field = sphere_levicivita()
    assert run_suite(field).passed
    assert len(calls) == 7
    assert len(integrations) == 7
    per_check = {}
    for name, _ in verify._SUITE_CHECKS:
        calls.clear()
        run_suite(field, SuiteConfig(checks=(name,)))
        per_check[name] = len(calls)
    assert per_check == {"scaling_identity": 2, "radial_residual": 1,
                         "radial_gauge": 1, "gauge_taylor": 1,
                         "smoothness": 1, "metric_compat": 1}


def _row_by_row(original):
    """``transport_segments`` that transports each row alone and stacks
    the results."""
    def transport(field, a, b, y0, config=None):
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                                   np.asarray(b, dtype=float))
        y0 = np.broadcast_to(np.asarray(y0, dtype=float),
                             (len(b), field.spec.k))
        rows = [original(field, a[r:r + 1], b[r:r + 1], y0[r:r + 1], config)
                for r in range(len(b))]
        return IntegrationResult(*(np.concatenate(parts)
                                   for parts in zip(*rows)))

    return transport


@pytest.mark.parametrize("field, suite", [
    (sphere_levicivita(), SuiteConfig()),
    (rotation(1.0), SuiteConfig()),
    (abelian_poly(["x2^2", "x1"]), SuiteConfig()),
    # fewer rows: rk4 rows alone cost two full fixed-step passes each
    (sphere_levicivita(), SuiteConfig(
        integrator=IntegratorConfig(method="rk4", rk4_steps=64),
        scaling_samples=10, residual_samples=3, gauge_samples=3,
        fit_samples=6, smooth_directions=4, metric_samples=10)),
], ids=["sphere", "rotation", "abelian_poly", "sphere_rk4"])
def test_suite_report_independent_of_batching(monkeypatch, field, suite):
    # the checks batch all their rows; a row's bits must not depend on the
    # batch around it, so transporting every row alone gives the same bytes
    batched = json.dumps(run_suite(field, suite).to_json_dict())
    monkeypatch.setattr(verify, "transport_segments",
                        _row_by_row(verify.transport_segments))
    assert json.dumps(run_suite(field, suite).to_json_dict()) == batched


@pytest.mark.parametrize("key", ["scaling_samples", "residual_samples",
                                 "gauge_samples", "fit_samples",
                                 "smooth_directions", "metric_samples"])
@pytest.mark.parametrize("value", [0, -3, 2.0, True])
def test_suite_config_rejects_sample_counts_below_one(key, value):
    # a check over no samples would pass without measuring anything
    with pytest.raises(ValueError, match=key):
        SuiteConfig(**{key: value})


def test_checks_reject_sample_counts_below_one():
    field = sphere_levicivita()
    calls = [
        lambda: scaling_identity_check(field, samples=0),
        lambda: residual_convergence_check(field, samples=0),
        lambda: radial_gauge_fit(field, samples=-1),
        lambda: metric_compat_check(field, samples=0),
        lambda: smoothness_probe(field, [1.0, 0.0], n_directions=0),
        lambda: smoothness_probe(field, [1.0, 0.0], directions=[]),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
