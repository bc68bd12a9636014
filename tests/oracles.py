"""Independent oracles for the test suite.

Nothing here touches the integrator or the production coefficient code:
the matrix exponential is a plain scaling-and-squaring Taylor series, and
Christoffel symbols are recovered from a metric by central differences.
Tests compare production results against these.
"""

import numpy as np


def expm_taylor(matrix, terms=64):
    """Matrix exponential by scaling-and-squaring on a truncated Taylor
    series: scale A by 2^-s until its norm is below 1, sum ``terms``
    Taylor terms, then square s times."""
    A = np.asarray(matrix, dtype=float)
    norm = float(np.linalg.norm(A))
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    S = A / 2.0 ** squarings
    k = A.shape[0]
    out = np.eye(k)
    term = np.eye(k)
    for m in range(1, terms + 1):
        term = term @ S / m
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def sphere_metric(z):
    """Round unit sphere in the stereographic chart: g = 4 (1+|z|^2)^-2 I."""
    z = np.asarray(z, dtype=float)
    return 4.0 / (1.0 + z @ z) ** 2 * np.eye(2)


def christoffel_from_metric(metric, z, h=1e-6):
    """Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), with the
    metric derivatives taken by central differences.  Returns the stack of
    matrices M_i[s, j] = Gamma^s_ij."""
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    g = metric(z)
    g_inv = np.linalg.inv(g)
    dg = np.empty((n,) + g.shape)
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        dg[l] = (metric(z + e) - metric(z - e)) / (2.0 * h)
    gamma = np.zeros((n,) + g.shape)
    for i in range(n):
        for s in range(g.shape[0]):
            for j in range(g.shape[1]):
                total = 0.0
                for l in range(g.shape[0]):
                    total += g_inv[s, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                gamma[i, s, j] = 0.5 * total
    return gamma


def random_constant_family(rng, n, k, max_norm=2.0):
    """Random constant coefficient matrices with spectral norm <= max_norm."""
    mats = rng.standard_normal((n, k, k))
    for i in range(n):
        top = np.linalg.svd(mats[i], compute_uv=False)[0]
        mats[i] *= rng.uniform(0.2, 1.0) * max_norm / top
    return mats


def sphere_radial_section(z, y0):
    """Closed-form radial transport of ``y0`` to z for the Levi-Civita
    connection of the round sphere in the stereographic chart.  Along the
    ray, sum_i z_i M_i(t z) = -2 t |z|^2 / (1 + t^2 |z|^2) I (the other
    Christoffel terms cancel), so y(t) = (1 + t^2 |z|^2) y0 and
    xi(z) = (1 + |z|^2) y0."""
    z = np.asarray(z, dtype=float)
    return (1.0 + z @ z) * np.asarray(y0, dtype=float)
