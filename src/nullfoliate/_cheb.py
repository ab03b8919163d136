"""Chebyshev-Gauss-Lobatto machinery for the generator (s) direction.

Geodesic data is tabulated on CGL nodes; barycentric interpolation and the
spectral differentiation matrix give machine-accurate evaluation and
s-derivatives for analytic generators.  barycentric_interp is the one
interpolation kernel: it reads many tables, packed point-major, at shared
heights (Berrut & Trefethen, SIAM Review 46, 2004), one block of points at
a time, so its weights take at most _BLOCK_BYTES (one point's, if those
take more).
"""

import numpy as np

# bytes of barycentric weights that barycentric_interp holds at once, 1 MB
_BLOCK_BYTES = 1 << 20


def cgl_nodes(n, a, b):
    """n Chebyshev-Gauss-Lobatto nodes on [a, b], ascending, endpoints included."""
    if n < 2:
        raise ValueError("need at least 2 CGL nodes")
    k = np.arange(n)
    x = np.cos(np.pi * (n - 1 - k) / (n - 1))  # ascending on [-1, 1]
    return a + (b - a) * (x + 1.0) / 2.0


def barycentric_interp(nodes, packed, x):
    """Barycentric interpolation of packed tables at heights x.

    packed is (points, n_nodes, columns): at each point the node values of
    every column, the last column all ones; x is (points, stack).  The
    points are read in blocks of _BLOCK_BYTES // (8 n_nodes stack): the
    weights w_k / (x - node_k) of a block, with the CGL weights w_k = 1/2,
    -1, 1, ..., +-1/2, are formed in one reused buffer, stored node-major
    as (n_nodes, block, stack) for long inner loops, and one batched matmul
    (block x stack x n_nodes against block x n_nodes x columns) reads every
    column; the column of ones gives the weight sums.  Each point has its
    own gemm, so the blocking does not change a bit.  An exact node hit has
    an infinite weight sum and reads that node's row.  Returns the values,
    (points, stack, columns).
    """
    points, stack = x.shape
    n = nodes.size
    block = max(1, _BLOCK_BYTES // (8 * n * stack))
    buf = np.empty(n * min(block, points) * stack)
    vals = np.empty((points, stack, packed.shape[-1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for p in range(0, points, block):
            q = min(p + block, points)
            c = buf[:n * (q - p) * stack].reshape(n, q - p, stack)
            # each weight as a reciprocal with the bits of w_k / (x - node_k):
            # odd k take node_k - x for the sign, and halving the end rows is
            # exact, as no reciprocal of a height difference is near underflow
            # (a node hit's row, replaced below, may get the other infinity).
            # One scalar divide over the block runs at full speed where numpy
            # slows a divide that broadcasts w_k over rows of 4096 values or
            # fewer.
            np.subtract(x[p:q], nodes[0::2, None, None], out=c[0::2])
            np.subtract(nodes[1::2, None, None], x[p:q], out=c[1::2])
            np.divide(1.0, c, out=c)
            c[0] *= 0.5
            c[-1] *= 0.5
            np.matmul(c.transpose(1, 2, 0), packed[p:q], out=vals[p:q])
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
