"""Connection data in a fixed local trivialization.

Everything happens in one coordinate chart on R^n, with the chart origin as
the base point, and in one fixed frame of the rank-k bundle.  A connection
is therefore just its n coefficient matrices M_1(z), ..., M_n(z); the layout
is ``M_i[s, j]``: the coefficient of the s-th frame section in the covariant
derivative of the j-th frame section along coordinate direction i.  Fiber
vectors are plain length-k float arrays and transform as
``(M_i y)[s] = sum_j M_i[s, j] y[j]``.

Built-in families (all with simple closed forms, used as oracles by the
verification suite):

==================  =====================================================
flat                all coefficients zero
constant            M_i(z) = C_i for user-supplied constant matrices
abelian_poly        rank 1, M_i = (gamma_i(z)) given by expression strings
rotation            n = k = 2; M_1 = 0, M_2 = omega * J (90-degree generator)
sphere_levicivita   tangent bundle of the round unit sphere in the
                    stereographic chart, with its metric attached
==================  =====================================================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import expr as expr_mod
from .expr import EvalDomainError

_BOUNDS_TOL = 1e-12


class OutsideDomainError(ValueError):
    """A point left the declared coordinate box."""


class MissingMetricError(ValueError):
    """A metric-dependent operation was asked of a field without a metric."""


@dataclass(eq=False)
class BundleSpec:
    """Base dimension, fiber rank, and the coordinate box.

    The box is axis-aligned and must contain the origin, which makes it
    star-shaped about 0: for any z in the box the whole segment t*z,
    t in [0, 1], stays inside.  Treat instances as immutable.
    """

    n: int
    k: int
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"base dimension must be >= 1, got {self.n}")
        if self.k < 1:
            raise ValueError(f"fiber rank must be >= 1, got {self.k}")
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != (self.n,) or self.hi.shape != (self.n,):
            raise ValueError(f"domain bounds must have shape ({self.n},)")
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("domain bounds must be finite")
        if not np.all(self.lo < self.hi):
            raise ValueError("domain box is empty (need lo < hi)")
        if not (np.all(self.lo <= 0.0) and np.all(self.hi >= 0.0)):
            raise ValueError("domain box must contain the origin")
        # the box widened by the rounding allowance of the membership tests
        pad = _BOUNDS_TOL * np.maximum(1.0, self.hi - self.lo)
        self._lo_pad = self.lo - pad
        self._hi_pad = self.hi + pad

    @classmethod
    def cube(cls, n, k, halfwidth=1.0):
        w = float(halfwidth) * np.ones(n)
        return cls(n, k, -w, w)

    @property
    def halfwidth(self):
        """Smallest half-extent of the box; sets default difference steps."""
        return float(np.min((self.hi - self.lo) / 2.0))

    def default_step(self):
        return 1e-4 * self.halfwidth

    def contains(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n,):
            return False
        return bool(np.all(z >= self._lo_pad) and np.all(z <= self._hi_pad))

    def require_inside(self, z, what="point"):
        """Return ``z`` as a float array, or raise naming the violated bound."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n,):
            raise OutsideDomainError(
                f"{what} has shape {z.shape}, expected ({self.n},)"
            )
        for i in range(self.n):
            if not (self._lo_pad[i] <= z[i] <= self._hi_pad[i]):
                raise OutsideDomainError(
                    f"{what}[{i}] = {float(z[i])!r} outside "
                    f"[{float(self.lo[i])!r}, {float(self.hi[i])!r}]"
                )
        return z

    def require_inside_rows(self, points):
        """Return ``points`` as an (m, n) float array, or raise as
        ``require_inside`` does for the first row outside the box."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.n:
            raise OutsideDomainError(
                f"points have shape {points.shape}, expected (m, {self.n})"
            )
        inside = (points >= self._lo_pad) & (points <= self._hi_pad)
        if not inside.all():
            self.require_inside(points[np.argmin(inside.all(axis=1))])
        return points


def fiber_vector(values, k):
    """Validate and return a fiber vector as a length-k float array."""
    v = np.asarray(values, dtype=float)
    if v.shape != (k,):
        raise ValueError(f"fiber vector must have shape ({k},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("fiber vector components must be finite")
    return v


# ---------------------------------------------------------------------------
# Coefficient and metric sources: plain callables from a point to an array.
# A coefficient source may add a vectorized ``batch`` method (see
# ConnectionField.coefficients_batch).
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ConstantCoefficients:
    mats: np.ndarray  # (n, k, k)

    def __call__(self, z):
        return self.mats

    def batch(self, points):
        return np.broadcast_to(self.mats, (len(points),) + self.mats.shape)


@dataclass(eq=False)
class ExprCoefficients:
    entries: tuple  # n x k x k nested tuples of syntax trees

    def __call__(self, z):
        n = len(self.entries)
        k = len(self.entries[0])
        out = np.empty((n, k, k))
        for i, mat in enumerate(self.entries):
            for s, row in enumerate(mat):
                for j, tree in enumerate(row):
                    out[i, s, j] = expr_mod.evaluate(tree, z)
        return out


_DELTA2 = np.eye(2)


class SphereCoefficients:
    """Levi-Civita coefficients of g = 4*(1+|z|^2)^-2 * I on R^2.

    For a conformal metric exp(2f)*I the symbols are
    Gamma^s_ij = d_i f * delta_sj + d_j f * delta_si - d_s f * delta_ij;
    here d_i f = -2 z_i / (1 + |z|^2).
    """

    def __call__(self, z):
        phi = -2.0 * z / (1.0 + z @ z)
        out = np.empty((2, 2, 2))
        for i in range(2):
            for s in range(2):
                for j in range(2):
                    out[i, s, j] = (
                        (s == i) * phi[j] + (s == j) * phi[i] - (i == j) * phi[s]
                    )
        return out

    def batch(self, points):
        """The (m, 2, 2, 2) stack for the rows of ``points``; the same terms
        as ``__call__``, with the Kronecker deltas as 0/1 factors."""
        z1, z2 = points[:, 0], points[:, 1]
        phi = -2.0 * points / (1.0 + (z1 * z1 + z2 * z2))[:, None]
        return (_DELTA2[:, :, None] * phi[:, None, None, :]  # [s == i] phi_j
                + _DELTA2 * phi[:, :, None, None]  # [s == j] phi_i
                - _DELTA2[:, None, :] * phi[:, None, :, None])  # [i == j] phi_s


@dataclass(eq=False)
class ConstantMetric:
    mat: np.ndarray  # (k, k)

    def __call__(self, z):
        return self.mat


@dataclass(eq=False)
class ExprMetric:
    entries: tuple  # k x k nested tuples of syntax trees

    def __call__(self, z):
        k = len(self.entries)
        out = np.empty((k, k))
        for s, row in enumerate(self.entries):
            for j, tree in enumerate(row):
                out[s, j] = expr_mod.evaluate(tree, z)
        return out


class SphereMetric:
    def __call__(self, z):
        return 4.0 / (1.0 + z @ z) ** 2 * np.eye(2)


@dataclass(eq=False)
class ConnectionField:
    """A connection over ``spec``'s box: a coefficient source mapping a point
    to the (n, k, k) stack of matrices, plus an optional fiber metric used
    only by the metric-compatibility check.  Immutable by convention; all
    operations are pure."""

    spec: BundleSpec
    coeffs: object  # callable z -> (n, k, k)
    metric: object | None = None
    family: str = "custom"

    def coefficients_at(self, z):
        """The matrices M_1(z), ..., M_n(z) as a fresh (n, k, k) array."""
        z = self.spec.require_inside(z)
        out = _source_array(self.coeffs(z), (self.spec.n, self.spec.k,
                                             self.spec.k))
        if not np.all(np.isfinite(out)):
            raise EvalDomainError(
                f"non-finite connection coefficient at z={z.tolist()}"
            )
        return out

    def coefficients_batch(self, points):
        """``coefficients_at`` for every row of the (m, n) array ``points``,
        as a fresh (m, n, k, k) array, with the same checks; a failure names
        the first failing point.  Sources with a vectorized ``batch`` method
        serve all rows in one call; any other source is called per point."""
        points = self.spec.require_inside_rows(points)
        shape = (self.spec.n, self.spec.k, self.spec.k)
        batch = getattr(self.coeffs, "batch", None)
        if batch is None:
            out = np.array([_source_array(self.coeffs(z), shape)
                            for z in points]).reshape((len(points),) + shape)
        else:
            out = _source_array(batch(points), (len(points),) + shape)
        finite = np.isfinite(out)
        if not finite.all():
            z = points[np.argmin(finite.reshape(len(points), -1).all(axis=1))]
            raise EvalDomainError(
                f"non-finite connection coefficient at z={z.tolist()}"
            )
        return out

    def metric_at(self, z):
        if self.metric is None:
            raise MissingMetricError(
                f"connection family {self.family!r} carries no metric"
            )
        z = self.spec.require_inside(z)
        out = np.array(self.metric(z), dtype=float)
        if not np.all(np.isfinite(out)):
            raise EvalDomainError(f"non-finite metric entry at z={z.tolist()}")
        return out

    def curvature_at(self, z, i, j, step=None):
        """Finite-difference curvature F_ij = d_i M_j - d_j M_i + [M_i, M_j].

        Central differences with the given step (default 1e-4 of the domain
        half-width); axes are 0-based.  Swapping (i, j) negates the result
        bit-for-bit, since each term is computed from the same evaluations.
        """
        n = self.spec.n
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"axes must be in [0, {n}), got ({i}, {j})")
        if i == j:
            raise ValueError("curvature axes must differ")
        h = self.spec.default_step() if step is None else float(step)
        z = self.spec.require_inside(z)
        ei = np.zeros(n)
        ei[i] = h
        ej = np.zeros(n)
        ej[j] = h
        d_i_Mj = (self.coefficients_at(z + ei)[j]
                  - self.coefficients_at(z - ei)[j]) / (2.0 * h)
        d_j_Mi = (self.coefficients_at(z + ej)[i]
                  - self.coefficients_at(z - ej)[i]) / (2.0 * h)
        mats = self.coefficients_at(z)
        comm = mats[i] @ mats[j] - mats[j] @ mats[i]
        return d_i_Mj - d_j_Mi + comm


def _source_array(value, shape):
    """A coefficient source's value as a fresh float array of ``shape``."""
    out = np.array(value, dtype=float)
    if out.shape != shape:
        raise ValueError(f"coefficient source returned shape {out.shape}, "
                         f"expected {shape}")
    return out


def with_metric(field, metric_source):
    """Copy of ``field`` with a metric source attached."""
    return dataclasses.replace(field, metric=metric_source)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def _resolve_domain(domain, n, k, family):
    if domain is None:
        return BundleSpec.cube(n, k)
    if domain.n != n or domain.k != k:
        raise ValueError(
            f"{family} needs n={n}, k={k}; domain declares "
            f"n={domain.n}, k={domain.k}"
        )
    return domain


def flat(n, k, domain=None):
    """The zero connection: transport is the identity."""
    spec = _resolve_domain(domain, n, k, "flat")
    return ConnectionField(
        spec, ConstantCoefficients(np.zeros((n, k, k))), family="flat"
    )


def constant(mats, domain=None):
    """Position-independent coefficients M_i(z) = C_i."""
    mats = np.array(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(
            f"constant family needs an (n, k, k) array, got shape {mats.shape}"
        )
    n, k = mats.shape[0], mats.shape[1]
    spec = _resolve_domain(domain, n, k, "constant")
    return ConnectionField(spec, ConstantCoefficients(mats), family="constant")


def abelian_poly(exprs, domain=None):
    """Rank-1 connection with scalar coefficients given by expressions."""
    exprs = list(exprs)
    n = len(exprs)
    if n < 1:
        raise ValueError("abelian_poly needs at least one coefficient expression")
    trees = tuple(
        ((expr_mod.parse(src, n),),) for src in exprs
    )
    spec = _resolve_domain(domain, n, 1, "abelian_poly")
    return ConnectionField(spec, ExprCoefficients(trees), family="abelian_poly")


def rotation(omega=1.0, domain=None):
    """n = k = 2 field with M_1 = 0 and M_2 = omega * J, J the rotation
    generator [[0, -1], [1, 0]]."""
    omega = float(omega)
    mats = np.zeros((2, 2, 2))
    mats[1] = omega * np.array([[0.0, -1.0], [1.0, 0.0]])
    spec = _resolve_domain(domain, 2, 2, "rotation")
    return ConnectionField(spec, ConstantCoefficients(mats), family="rotation")


def sphere_levicivita(domain=None):
    """Tangent bundle of the round unit sphere in the stereographic chart,
    metric g = 4*(1+|z|^2)^-2 * I attached."""
    spec = _resolve_domain(domain, 2, 2, "sphere_levicivita")
    return ConnectionField(
        spec, SphereCoefficients(), metric=SphereMetric(),
        family="sphere_levicivita",
    )


_BUILTINS = {
    "flat": flat,
    "constant": constant,
    "abelian_poly": abelian_poly,
    "rotation": rotation,
    "sphere_levicivita": sphere_levicivita,
}


def make_builtin(name, **params):
    """Construct a built-in family by name; see the module docstring."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown connection family {name!r} (known: {known})")
    return factory(**params)


def from_expressions(entries, domain=None):
    """General field from an n x k x k nest of expression strings, indexed
    ``entries[i][s][j]``."""
    n = len(entries)
    if n < 1:
        raise ValueError("need at least one coefficient matrix")
    k = len(entries[0])
    trees = []
    for i, mat in enumerate(entries):
        if len(mat) != k:
            raise ValueError(f"coefficient matrix {i} has {len(mat)} rows, expected {k}")
        rows = []
        for s, row in enumerate(mat):
            if len(row) != k:
                raise ValueError(
                    f"coefficient matrix {i} row {s} has {len(row)} entries, expected {k}"
                )
            rows.append(tuple(expr_mod.parse(src, n) for src in row))
        trees.append(tuple(rows))
    spec = _resolve_domain(domain, n, k, "expression field")
    return ConnectionField(spec, ExprCoefficients(tuple(trees)), family="expressions")


def metric_from_expressions(entries, n):
    """k x k metric source from expression strings in x1..xn."""
    k = len(entries)
    trees = []
    for s, row in enumerate(entries):
        if len(row) != k:
            raise ValueError(f"metric row {s} has {len(row)} entries, expected {k}")
        trees.append(tuple(expr_mod.parse(src, n) for src in row))
    return ExprMetric(tuple(trees))
