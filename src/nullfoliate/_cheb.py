"""Chebyshev-Gauss-Lobatto machinery for the generator (s) direction.

Geodesic data is tabulated on CGL nodes; barycentric interpolation and the
spectral differentiation matrix give machine-accurate evaluation and
s-derivatives for analytic generators.
"""

import numpy as np


def cgl_nodes(n, a, b):
    """n Chebyshev-Gauss-Lobatto nodes on [a, b], ascending, endpoints included."""
    if n < 2:
        raise ValueError("need at least 2 CGL nodes")
    k = np.arange(n)
    x = np.cos(np.pi * (n - 1 - k) / (n - 1))  # ascending on [-1, 1]
    return a + (b - a) * (x + 1.0) / 2.0


def barycentric_weights(n):
    """Barycentric weights for CGL nodes in the ascending order of cgl_nodes."""
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def barycentric_interp(nodes, values, x):
    """Barycentric interpolation of tabulated values along axis 0.

    values has shape (n_nodes,) + T, sampled per trailing index, and x has
    shape S + T: every index of the leading stack axes S reads the same
    table.  values may also be one column (n_nodes,) read at any x.  Exact
    node hits are returned without division.  The weights are real and a
    complex table is read as its real and imaginary parts; beyond the
    weights themselves no temporary of the stacked size is formed.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    w = barycentric_weights(n)
    x = np.asarray(x, dtype=float)
    values = np.asarray(values)
    # align the table's trailing axes with those of x
    values = values.reshape((n,) + (1,) * (x.ndim + 1 - values.ndim)
                            + values.shape[1:])
    diff = x[None, ...] - nodes.reshape((n,) + (1,) * x.ndim)
    exact = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.divide(w.reshape((n,) + (1,) * x.ndim), diff, out=diff)
        # sum over the nodes without a product temporary of the stacked size
        if np.iscomplexobj(values):
            num = np.einsum("k...,k...->...", c, values.real) \
                + 1j * np.einsum("k...,k...->...", c, values.imag)
        else:
            num = np.einsum("k...,k...->...", c, values)
        den = np.sum(c, axis=0)
        out = num / den
    if exact.any():
        idx = np.argmax(exact, axis=0)
        hit = exact.any(axis=0)
        picked = np.take_along_axis(
            np.broadcast_to(values, (n,) + x.shape), idx[None, ...], axis=0)[0]
        out = np.where(hit, picked, out)
    return out


def diff_matrix(nodes):
    """Spectral differentiation matrix for the given CGL nodes (any interval)."""
    x = np.asarray(nodes, dtype=float)
    n = x.size
    c = np.ones(n)
    c[0] = 2.0
    c[-1] = 2.0
    c = c * (-1.0) ** np.arange(n)
    X = x[:, None] - x[None, :]
    D = (c[:, None] / c[None, :]) / (X + np.eye(n))
    D -= np.diag(D.sum(axis=1))
    return D


def cc_weights(nodes):
    """Clenshaw-Curtis weights for CGL nodes (ascending) on their interval.

    Exact for the Chebyshev interpolant: w = M^T e with M the value-to-
    coefficient map and e_n = int_{-1}^{1} T_n.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    a, b = nodes[0], nodes[-1]
    m = n - 1
    j = np.arange(n)
    k = np.arange(n)
    cosmat = np.cos(np.pi * np.outer(k, j) / m)
    wj = np.ones(n)
    wj[0] = 0.5
    wj[-1] = 0.5
    M = (2.0 / m) * (cosmat * wj[None, :])
    M[0] *= 0.5
    M[-1] *= 0.5
    e = np.zeros(n)
    ks = np.arange(0, n, 2)
    e[ks] = 2.0 / (1.0 - ks.astype(float) ** 2)
    w_desc = M.T @ e
    return (b - a) / 2.0 * w_desc[::-1]


def values_to_cheb(values, a, b):
    """Chebyshev series (numpy Chebyshev object) interpolating values at CGL nodes.

    values are given at cgl_nodes(n, a, b) in ascending order.  Uses the DCT-I
    relation for the Lobatto points; exact for the interpolant.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    m = n - 1
    vd = v[::-1]  # reorder to x_j = cos(pi j / m), j = 0..m
    j = np.arange(n)
    k = np.arange(n)
    cosmat = np.cos(np.pi * np.outer(k, j) / m)
    wj = np.ones(n)
    wj[0] = 0.5
    wj[-1] = 0.5
    coeffs = (2.0 / m) * (cosmat * wj[None, :]) @ vd
    coeffs[0] *= 0.5
    coeffs[-1] *= 0.5
    return np.polynomial.chebyshev.Chebyshev(coeffs, domain=[a, b])
