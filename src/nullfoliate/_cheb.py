"""Chebyshev-Gauss-Lobatto machinery for the generator (s) direction.

Geodesic data is tabulated on CGL nodes; barycentric interpolation and the
spectral differentiation matrix give machine-accurate evaluation and
s-derivatives for analytic generators.  barycentric_interp is the one
interpolation kernel: it reads many tables, packed point-major, at shared
heights (Berrut & Trefethen, SIAM Review 46, 2004).
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


def barycentric_interp(nodes, packed, x):
    """Barycentric interpolation of packed tables at heights x.

    packed is (points, n_nodes, columns): at each point the node values of
    every column, the last column all ones; x is (points, stack).  The
    weights of the heights are formed once, stored node-major as (n_nodes,
    points, stack) for long inner loops, and one batched matmul (points x
    stack x n_nodes against points x n_nodes x columns) reads every column;
    the column of ones gives the weight sums.  An exact node hit has an
    infinite weight sum and reads that node's row.  Returns the values,
    (points, stack, columns).
    """
    diff = x - nodes[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.divide(barycentric_weights(nodes.size)[:, None, None], diff,
                      out=diff)
        vals = np.matmul(c.transpose(1, 2, 0), packed)
    hit = np.isinf(vals[..., -1])
    if hit.any():
        node = np.argmax(x[hit][:, None] == nodes, axis=-1)
        vals[hit] = packed[np.nonzero(hit)[0], node]
    vals /= vals[..., -1:]
    return vals


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


def _cheb_matrix(n):
    """The DCT-I map from values at the n Lobatto points x_j = cos(pi j / m),
    m = n - 1 (descending), to the coefficients of their Chebyshev
    interpolant."""
    m = n - 1
    j = np.arange(n)
    cosmat = np.cos(np.pi * np.outer(j, j) / m)
    wj = np.ones(n)
    wj[0] = 0.5
    wj[-1] = 0.5
    M = (2.0 / m) * (cosmat * wj[None, :])
    M[0] *= 0.5
    M[-1] *= 0.5
    return M


def cc_weights(nodes):
    """Clenshaw-Curtis weights for CGL nodes (ascending) on their interval.

    Exact for the Chebyshev interpolant: w = M^T e with M the value-to-
    coefficient map and e_n = int_{-1}^{1} T_n.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    a, b = nodes[0], nodes[-1]
    e = np.zeros(n)
    ks = np.arange(0, n, 2)
    e[ks] = 2.0 / (1.0 - ks.astype(float) ** 2)
    w_desc = _cheb_matrix(n).T @ e
    return (b - a) / 2.0 * w_desc[::-1]


def values_to_cheb(values, a, b):
    """Chebyshev series (numpy Chebyshev object) interpolating values at CGL nodes.

    values are given at cgl_nodes(n, a, b) in ascending order; reversed, they
    sit at the descending points of the DCT-I relation, exact for the
    interpolant.
    """
    v = np.asarray(values, dtype=float)
    return np.polynomial.chebyshev.Chebyshev(_cheb_matrix(v.size) @ v[::-1],
                                             domain=[a, b])
