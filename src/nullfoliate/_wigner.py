"""Wigner small-d columns for spin-weighted spherical harmonic tables.

d^l_{m1,m2}(theta) is evaluated through the Jacobi-polynomial representation,
with the (m1, m2) plane mapped into the region m' >= |m| by the standard
symmetries and the normalisation assembled in log space so large band limits
do not overflow.
"""

import math

import numpy as np


def _jacobi_column(kmax, a, b, x):
    """P_k^{(a,b)}(x) for k = 0..kmax, via the three-term recurrence.

    Returns array of shape (kmax+1, len(x)).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1, x.size))
    out[0] = 1.0
    if kmax == 0:
        return out
    out[1] = 0.5 * (a - b + (a + b + 2.0) * x)
    for k in range(1, kmax):
        n = k
        c1 = 2.0 * (n + 1.0) * (n + a + b + 1.0) * (2.0 * n + a + b)
        c2 = (2.0 * n + a + b + 1.0) * (a * a - b * b)
        c3 = (2.0 * n + a + b) * (2.0 * n + a + b + 1.0) * (2.0 * n + a + b + 2.0)
        c4 = 2.0 * (n + a) * (n + b) * (2.0 * n + a + b + 2.0)
        out[k + 1] = ((c2 + c3 * x) * out[k] - c4 * out[k - 1]) / c1
    return out


def wigner_d_column(lmax, m1, m2, theta):
    """d^l_{m1,m2}(theta) for l = 0..lmax.

    Returns array of shape (lmax+1, len(theta)); entries with l < max(|m1|,|m2|)
    are zero.
    """
    theta = np.asarray(theta, dtype=float)
    lmin = max(abs(m1), abs(m2))
    out = np.zeros((lmax + 1, theta.size))
    if lmin > lmax:
        return out

    # map into the canonical region mp >= |mm| of the Jacobi formula
    if m1 >= abs(m2):
        mp, mm, sign = m1, m2, 1.0
    elif m2 >= abs(m1):
        mp, mm, sign = m2, m1, (-1.0) ** abs(m2 - m1)
    elif -m2 >= abs(m1):
        mp, mm, sign = -m2, -m1, 1.0
    else:
        mp, mm, sign = -m1, -m2, (-1.0) ** abs(m2 - m1)

    a = mp - mm
    b = mp + mm
    half = theta / 2.0
    log_s = np.log(np.sin(half))
    log_c = np.log(np.cos(half))
    jac = _jacobi_column(lmax - lmin, a, b, np.cos(theta))
    ls = np.arange(lmin, lmax + 1)
    # N_l = sqrt((l+mp)!(l-mp)! / ((l+mm)!(l-mm)!)) from logf[k] = log k!
    logf = np.array([math.lgamma(k + 1.0) for k in range(2 * lmax + 1)])
    logN = 0.5 * (logf[ls + mp] + logf[ls - mp]
                  - logf[ls + mm] - logf[ls - mm])
    phase = sign * (-1.0) ** a  # (-sin)^a factor
    mag = np.exp(logN[:, None] + a * log_s[None, :] + b * log_c[None, :])
    out[lmin:] = phase * mag * jac
    return out


def spin_lambda_tables(lmax, spin, theta):
    """theta-part of the spin-weighted harmonics, sY_lm = lam[l,m](theta) e^{i m phi}.

    Convention: lam_{lm} = (-1)^m sqrt((2l+1)/4pi) d^l_{-m,spin}(theta), which
    makes eth act as the +sqrt((l-s)(l+s+1)) ladder and reduces to orthonormal
    scalar harmonics with Condon-Shortley phase at spin 0.

    Returns array of shape (2*lmax+1, len(theta), lmax+1) laid out as
    lam[m+lmax, theta, l], so that each m is one contiguous (theta, l) matrix.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.zeros((2 * lmax + 1, theta.size, lmax + 1))
    ls = np.arange(lmax + 1)
    norm = np.sqrt((2.0 * ls + 1.0) / (4.0 * np.pi))
    for m in range(-lmax, lmax + 1):
        col = wigner_d_column(lmax, -m, spin, theta)
        out[m + lmax] = (((-1.0) ** m) * norm[:, None] * col).T
    return out
