"""Wigner small-d tables for spin-weighted spherical harmonics.

d^l_{m1,m2}(theta) is evaluated through the Jacobi-polynomial representation,
with the (m1, m2) plane mapped into the region m' >= |m| by the standard
symmetries and the normalisation assembled in log space so large band limits
do not overflow.  One three-term Jacobi recurrence over the degree offset
k = l - max(|m1|, |m2|) runs for every m and theta at once.
"""

import math

import numpy as np


def spin_lambda_tables(lmax, spin, theta):
    """theta-part of the spin-weighted harmonics, sY_lm = lam[l,m](theta) e^{i m phi}.

    Convention: lam_{lm} = (-1)^m sqrt((2l+1)/4pi) d^l_{-m,spin}(theta), which
    makes eth act as the +sqrt((l-s)(l+s+1)) ladder and reduces to orthonormal
    scalar harmonics with Condon-Shortley phase at spin 0.

    Returns array of shape (2*lmax+1, len(theta), lmax+1) laid out as
    lam[m+lmax, theta, l], so that each m is one contiguous (theta, l) matrix;
    entries with l < max(|m|, |spin|) are zero.
    """
    theta = np.asarray(theta, dtype=float)
    ms = np.arange(-lmax, lmax + 1)
    m1, m2 = -ms, spin
    lmin = np.maximum(abs(m1), abs(m2))
    kmax = lmax - abs(spin)  # the smallest lmin is |spin|, at m = 0
    if kmax < 0:
        return np.zeros((ms.size, theta.size, lmax + 1))

    # map each (m1, m2) into the canonical region mp >= |mm| of the Jacobi
    # formula
    cases = [m1 >= abs(m2), m2 >= abs(m1), -m2 >= abs(m1)]
    flip = (-1.0) ** abs(m2 - m1)
    mp = np.select(cases, [m1, m2, -m2], -m1)
    mm = np.select(cases, [m2, m1, -m1], -m2)
    sign = np.select(cases, [1.0, flip, 1.0], flip)
    a = (mp - mm)[:, None]
    b = (mp + mm)[:, None]

    # P_k^{(a,b)}(cos theta) for k = 0..kmax: jac[k, m+lmax, theta]
    x = np.cos(theta)
    jac = np.empty((kmax + 1, ms.size, theta.size))
    jac[0] = 1.0
    if kmax > 0:
        jac[1] = 0.5 * (a - b + (a + b + 2.0) * x)
    for n in range(1, kmax):
        c1 = 2.0 * (n + 1.0) * (n + a + b + 1.0) * (2.0 * n + a + b)
        c2 = (2.0 * n + a + b + 1.0) * (a * a - b * b)
        c3 = ((2.0 * n + a + b) * (2.0 * n + a + b + 1.0)
              * (2.0 * n + a + b + 2.0))
        c4 = 2.0 * (n + a) * (n + b) * (2.0 * n + a + b + 2.0)
        jac[n + 1] = ((c2 + c3 * x) * jac[n] - c4 * jac[n - 1]) / c1

    # gather to lam[m, theta, l]; entries l < lmin read the k = 0 row and
    # are zeroed below.  The products keep the per-m loop's rounding:
    # ((-1)^m norm_l) * ((phase * mag) * jac).
    ls = np.maximum(np.arange(lmax + 1), lmin[:, None])
    lam = np.take_along_axis(jac.transpose(1, 2, 0),
                             (ls - lmin[:, None])[:, None, :], axis=2)
    del jac
    # N_l = sqrt((l+mp)!(l-mp)! / ((l+mm)!(l-mm)!)) from logf[k] = log k!
    logf = np.array([math.lgamma(k + 1.0) for k in range(2 * lmax + 1)])
    mp, mm = mp[:, None], mm[:, None]
    logN = 0.5 * (logf[ls + mp] + logf[ls - mp]
                  - logf[ls + mm] - logf[ls - mm])
    half = theta / 2.0
    mag = logN[:, None, :] + (a * np.log(np.sin(half)))[..., None]
    mag += (b * np.log(np.cos(half)))[..., None]
    np.exp(mag, out=mag)
    mag *= (sign * (-1.0) ** a[:, 0])[:, None, None]  # (-sin)^a factor
    lam *= mag
    del mag
    norm = np.sqrt((2.0 * ls + 1.0) / (4.0 * np.pi))
    lam *= (((-1.0) ** ms)[:, None] * norm)[:, None, :]
    lam.transpose(0, 2, 1)[np.arange(lmax + 1) < lmin[:, None]] = 0.0
    return lam
