import numpy as np
import pytest

from radialgauge.connection import (
    BundleSpec,
    ConnectionField,
    ConstantMetric,
    MissingMetricError,
    OutsideDomainError,
    abelian_poly,
    constant,
    fiber_vector,
    flat,
    from_expressions,
    make_builtin,
    rotation,
    sphere_levicivita,
    with_metric,
)
from radialgauge.expr import EvalDomainError, evaluate

from oracles import christoffel_from_metric, sphere_metric


def test_bundle_spec_validation():
    spec = BundleSpec.cube(3, 2, 1.5)
    assert spec.halfwidth == 1.5
    assert spec.default_step() == pytest.approx(1.5e-4)
    with pytest.raises(ValueError, match="contain the origin"):
        BundleSpec(2, 1, [0.5, -1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="empty"):
        BundleSpec(1, 1, [0.0], [0.0])
    with pytest.raises(ValueError, match="shape"):
        BundleSpec(2, 1, [-1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=">= 1"):
        BundleSpec.cube(0, 1)


def test_require_inside_names_bound():
    spec = BundleSpec.cube(2, 1)
    with pytest.raises(OutsideDomainError, match=r"z\[1\] = 1.5 outside"):
        spec.require_inside([0.0, 1.5], what="z")
    # boundary points are fine
    spec.require_inside([1.0, -1.0])


def test_fiber_vector_validation():
    v = fiber_vector([1, 2], 2)
    assert v.dtype == float
    with pytest.raises(ValueError, match="shape"):
        fiber_vector([1.0], 2)
    with pytest.raises(ValueError, match="finite"):
        fiber_vector([np.nan, 0.0], 2)


def test_flat_coefficients_zero():
    field = make_builtin("flat", n=3, k=2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        mats = field.coefficients_at(rng.uniform(-1, 1, 3))
        assert mats.shape == (3, 2, 2)
        assert np.all(mats == 0.0)


def test_constant_coefficients_everywhere():
    C = np.array([[[0.0, 1.0], [2.0, 3.0]], [[4.0, 5.0], [6.0, 7.0]]])
    field = make_builtin("constant", mats=C)
    rng = np.random.default_rng(1)
    for _ in range(5):
        np.testing.assert_array_equal(field.coefficients_at(rng.uniform(-1, 1, 2)), C)


def test_constant_returns_fresh_array():
    C = np.zeros((1, 2, 2))
    field = constant(C)
    mats = field.coefficients_at([0.0])
    mats[0, 0, 0] = 99.0
    assert np.all(field.coefficients_at([0.0]) == 0.0)


def test_abelian_poly_example():
    field = abelian_poly(["-x2", "x1"], domain=BundleSpec.cube(2, 1, 3.0))
    mats = field.coefficients_at([1.0, 2.0])
    np.testing.assert_array_equal(mats, [[[-2.0]], [[1.0]]])


def test_coefficients_pure():
    field = sphere_levicivita()
    z = np.array([0.37, -0.21])
    first = field.coefficients_at(z)
    for _ in range(3):
        np.testing.assert_array_equal(field.coefficients_at(z), first)


# Frozen from the Christoffel-from-metric oracle at z = (0.3, -0.1):
# phi_i = -2 z_i / (1 + |z|^2) with |z|^2 = 0.1 gives (-6/11, 2/11).
_SPHERE_M1 = np.array([
    [-0.5454545454545454, 0.18181818181818182],
    [-0.18181818181818182, -0.5454545454545454],
])
_SPHERE_M2 = np.array([
    [0.18181818181818182, 0.5454545454545454],
    [-0.5454545454545454, 0.18181818181818182],
])


def test_sphere_christoffels_frozen_point():
    field = sphere_levicivita()
    mats = field.coefficients_at([0.3, -0.1])
    np.testing.assert_allclose(mats[0], _SPHERE_M1, atol=1e-15)
    np.testing.assert_allclose(mats[1], _SPHERE_M2, atol=1e-15)


def test_sphere_christoffels_against_metric_oracle():
    field = sphere_levicivita()
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.uniform(-0.9, 0.9, 2)
        expected = christoffel_from_metric(sphere_metric, z)
        np.testing.assert_allclose(field.coefficients_at(z), expected, atol=1e-9)


def test_sphere_metric_compatibility_identity():
    # d_i g = M_i^T g + g M_i, central differences, O(h^2)
    field = sphere_levicivita()
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(10):
        z = rng.uniform(-0.9, 0.9, 2)
        mats = field.coefficients_at(z)
        g = field.metric_at(z)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            d_g = (field.metric_at(z + e) - field.metric_at(z - e)) / (2 * h)
            residual = d_g - (mats[i].T @ g + g @ mats[i])
            assert np.max(np.abs(residual)) < 1e-9


def test_curvature_flat_zero():
    field = flat(3, 2)
    F = field.curvature_at([0.2, -0.1, 0.4], 0, 2)
    assert np.all(F == 0.0)


def test_curvature_constant_is_commutator():
    rng = np.random.default_rng(5)
    C = rng.standard_normal((2, 3, 3))
    field = constant(C)
    F = field.curvature_at([0.3, 0.3], 0, 1)
    np.testing.assert_array_equal(F, C[0] @ C[1] - C[1] @ C[0])


def test_curvature_abelian_oracle():
    # d_1 gamma_2 - d_2 gamma_1 = 1 - (-1) = 2, exactly linear coefficients
    field = abelian_poly(["-x2", "x1"])
    for h in (1e-3, 1e-4):
        F = field.curvature_at([0.1, 0.2], 0, 1, step=h)
        assert abs(F[0, 0] - 2.0) < 10 * h ** 2 + 1e-10


def test_curvature_antisymmetry_bitwise():
    field = sphere_levicivita()
    rng = np.random.default_rng(6)
    for _ in range(5):
        z = rng.uniform(-0.8, 0.8, 2)
        F = field.curvature_at(z, 0, 1)
        G = field.curvature_at(z, 1, 0)
        np.testing.assert_array_equal(F, -G)


def test_curvature_axis_validation():
    field = flat(2, 1)
    with pytest.raises(ValueError, match="differ"):
        field.curvature_at([0.0, 0.0], 1, 1)
    with pytest.raises(ValueError, match="axes"):
        field.curvature_at([0.0, 0.0], 0, 2)


def test_make_builtin_errors():
    with pytest.raises(ValueError, match="unknown connection family"):
        make_builtin("hyperbolic")
    with pytest.raises(ValueError, match=r"\(n, k, k\)"):
        make_builtin("constant", mats=np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="needs n=2"):
        rotation(domain=BundleSpec.cube(3, 2))


def test_rotation_structure():
    field = rotation(omega=2.0)
    mats = field.coefficients_at([0.5, -0.5])
    np.testing.assert_array_equal(mats[0], np.zeros((2, 2)))
    np.testing.assert_array_equal(mats[1], [[0.0, -2.0], [2.0, 0.0]])


def test_from_expressions_shape_checks():
    field = from_expressions([[["x1", "0"], ["0", "x2"]],
                              [["0", "1"], ["-1", "0"]]])
    mats = field.coefficients_at([0.25, -0.5])
    np.testing.assert_array_equal(mats[0], [[0.25, 0.0], [0.0, -0.5]])
    with pytest.raises(ValueError, match="entries, expected"):
        from_expressions([[["x1", "0"]]])


def test_coefficient_eval_error_propagates():
    field = abelian_poly(["1/(x1 - 0.5)"])
    with pytest.raises(EvalDomainError, match="division by zero"):
        field.coefficients_at([0.5])
    # fine away from the pole
    assert field.coefficients_at([0.0])[0, 0, 0] == -2.0


def test_outside_domain_coefficients():
    field = flat(2, 1)
    with pytest.raises(OutsideDomainError):
        field.coefficients_at([2.0, 0.0])


def test_metric_access():
    field = sphere_levicivita()
    np.testing.assert_allclose(field.metric_at([0.0, 0.0]), 4.0 * np.eye(2))
    with pytest.raises(MissingMetricError):
        flat(2, 2).metric_at([0.0, 0.0])
    euclid = with_metric(flat(2, 2), ConstantMetric(np.eye(2)))
    np.testing.assert_array_equal(euclid.metric_at([0.1, 0.1]), np.eye(2))


def test_nonsquare_expression_nest_rejected():
    # one of the k x k blocks is ragged
    with pytest.raises(ValueError):
        from_expressions([[["x1"], ["x1", "0"]]])


# ---------------------------------------------------------------------------
# coefficients_batch
# ---------------------------------------------------------------------------


class _PoleSource:
    """Vectorized rank-1 source 1/(x1 - 0.5), non-finite at x1 = 0.5."""

    def __call__(self, z):
        return np.array([[[1.0 / (z[0] - 0.5)]]])

    def batch(self, points):
        with np.errstate(divide="ignore"):
            return (1.0 / (points[:, 0] - 0.5)).reshape(-1, 1, 1, 1)


def test_coefficients_batch_matches_pointwise():
    rng = np.random.default_rng(8)
    points = rng.uniform(-1, 1, (50, 2))
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    for field in (flat(2, 3), constant([J, 0.5 * np.eye(2)]), rotation(0.7),
                  sphere_levicivita(), abelian_poly(["x2^2", "x1"])):
        batch = field.coefficients_batch(points)
        pointwise = np.array([field.coefficients_at(z) for z in points])
        assert batch.shape == pointwise.shape
        if field.family == "abelian_poly":
            # the compiled rows equal the scalar tree walk bit for bit
            walked = [[[[evaluate(tree, z) for tree in row] for row in mat]
                       for mat in field.coeffs.entries] for z in points]
            assert batch.tobytes() == pointwise.tobytes()
            assert batch.tobytes() == np.array(walked).tobytes()
        else:
            np.testing.assert_allclose(batch, pointwise, rtol=0, atol=1e-15)
        kept = batch.copy()
        batch[...] = 99.0  # a fresh array: the source is untouched
        np.testing.assert_array_equal(field.coefficients_batch(points), kept)


def test_coefficients_batch_outside_point_named_as_pointwise():
    field = sphere_levicivita()
    points = np.array([[0.1, 0.2], [0.3, 1.5], [2.0, 0.0]])
    with pytest.raises(OutsideDomainError) as pointwise:
        field.coefficients_at(points[1])
    with pytest.raises(OutsideDomainError) as batch:
        field.coefficients_batch(points)
    assert str(batch.value) == str(pointwise.value)
    with pytest.raises(OutsideDomainError, match=r"shape \(2,\)"):
        field.coefficients_batch(np.array([0.1, 0.2]))


def test_coefficients_batch_nonfinite_names_point():
    field = ConnectionField(BundleSpec.cube(1, 1), _PoleSource())
    with pytest.raises(EvalDomainError, match=r"non-finite .* z=\[0\.5\]"):
        field.coefficients_batch([[0.1], [0.5], [0.7]])


def test_coefficients_batch_opaque_source_bitwise():
    # a plain callable has no batch method: it is served point by point
    def source(z):
        return np.array([[[np.sin(z[0]) / 3.0, z[1]], [np.exp(z[0]), 0.1]],
                         [[z[0] * z[1], 1.0], [np.cos(z[1]), -z[0]]]])

    field = ConnectionField(BundleSpec.cube(2, 2), source)
    points = np.random.default_rng(9).uniform(-1, 1, (20, 2))
    pointwise = np.array([field.coefficients_at(z) for z in points])
    assert field.coefficients_batch(points).tobytes() == pointwise.tobytes()
    with pytest.raises(ValueError, match="shape"):
        ConnectionField(BundleSpec.cube(2, 2),
                        lambda z: np.zeros((2, 2))).coefficients_batch(points)
