"""Foliation-comparison calculus: reconstruction of the canonical geometry.

Given the solved graph (s, log Omega) over geodesic data, every canonical
connection coefficient and curvature component follows algebraically from the
projected geodesic quantities, the tilt Upsilon = grad s, and its transport.
The projections are component-identities in the shared Fermi-free dyad, so
"evaluating a table at height s" realises the dagger map directly.  The slab
is shear-free (see geodesic), so the canonical chi = chi' is its trace, the
canonical chihat and alpha vanish, and the renormalised rho and sigma are
rho and sigma themselves.

Both foliations have one type of geometry, geodesic.Geometry: the geodesic
one at the heights s goes in, and the canonical one, CanonicalCoefficients,
comes out with the graph state, the tilt, etab and mu added.  A leaf may be
one leaf or a stack of them: reconstruct takes a whole foliation, or any
set of its levels, as one stack and returns stacked coefficients; indexing
them takes one level or a slice.
"""

from dataclasses import dataclass

import numpy as np

from .geodesic import GeodesicNullData, Geometry
from .sphere import SpinField, multiply
from .tensors import (MetricRep, OneForm, SymTwoTensor, div, dot, dual, grad,
                      hessian, sym_otimes)


@dataclass
class CanonicalCoefficients(Geometry):
    """Canonical-foliation geometry of one leaf or of a stack of leaves,
    with the graph state it was reconstructed from."""

    v: np.ndarray  # the level (0-d), or the levels of a stack
    s: SpinField
    logOmega: SpinField
    Upsilon: OneForm
    etab: OneForm
    mu: SpinField


def upsilon(s: SpinField, metric: MetricRep) -> OneForm:
    """Tilt 1-form between the foliations: the graph-metric gradient of s."""
    return grad(s, metric)


def canonical_connection(geo: Geometry, s: SpinField, logOmega: SpinField,
                         Ups: OneForm, ups2: SpinField):
    """Connection coefficients of the canonical foliation at one leaf.

        chi  = chi' = (trchi'/2) g
        zeta = zeta' + chi' . Upsilon
        etab = etab' + nabla_L Upsilon            (etab' = -zeta')
        chib = chib' - 2 (Upsilon zeta' + zeta' Upsilon) + 2 Hess s
               - |Upsilon|^2 chi'

    geo is the geodesic Geometry at the heights s, as
    GeodesicNullData.geometry_at reads it; its metric is that of the leaf.
    Ups = upsilon(s, geo.metric) and ups2 = |Upsilon|^2.  nabla_L Upsilon
    = -grad log Omega - chi . Upsilon is the exact algebraic transport
    identity.  Returns (trchi, chib, zeta, etab).
    """
    metric, trchi, zeta_g = geo.metric, geo.trchi, geo.zeta
    chi_ups = OneForm(0.5 * multiply(trchi, Ups.plus))
    zeta = zeta_g + chi_ups
    dLUps = -1.0 * grad(logOmega, metric) - chi_ups
    etab = -1.0 * zeta_g + dLUps
    chib = geo.chib - 2.0 * sym_otimes(Ups, zeta_g) \
        + 2.0 * hessian(s, metric)
    chib = SymTwoTensor(chib.trace - multiply(ups2, trchi), chib.hat_plus)
    return trchi, chib, zeta, etab


def canonical_curvature(geo: Geometry, Ups: OneForm, ups2: SpinField):
    """Null curvature components of the canonical frame, exact through cubic
    order (alpha' = 0):

        beta  = beta'
        rho   = rho' + beta' . Upsilon
        sigma = sigma' - (*beta') . Upsilon
        betab = betab' - 3 rho' Upsilon + 3 sigma' (*Upsilon)
                - 2 ((*beta') . Upsilon) (*Upsilon) + |Upsilon|^2 beta'

    geo is the geodesic Geometry at the heights of the leaf, as
    GeodesicNullData.geometry_at reads it; Ups is the tilt of the leaf and
    ups2 = |Upsilon|^2.  Returns (beta, rho, sigma, betab).
    """
    beta_g = geo.beta
    rho = geo.rho + dot(beta_g, Ups)
    dbeta_ups = dot(dual(beta_g), Ups)
    sigma = geo.sigma - dbeta_ups
    betab = geo.betab - 3.0 * (geo.rho * Ups) \
        + 3.0 * (geo.sigma * dual(Ups)) - 2.0 * (dbeta_ups * dual(Ups)) \
        + ups2 * beta_g
    return beta_g, rho, sigma, betab


def mass_aspect(rho: SpinField, zeta: OneForm,
                metric: MetricRep) -> SpinField:
    """Mass aspect mu = -rho - div zeta (rho_check = rho on the slab)."""
    return -1.0 * rho - div(zeta, metric)


def reconstruct(data: GeodesicNullData, s: SpinField, logOmega: SpinField,
                v) -> CanonicalCoefficients:
    """Full canonical geometry of one leaf from the solved graph state.

    s and logOmega may be stacks of leaves, with v the array of their levels.
    The geodesic tables are read once, at the heights s.
    """
    geo = data.geometry_at(np.real(s.samples))
    Ups = upsilon(s, geo.metric)
    ups2 = Ups.norm2()
    trchi, chib, zeta, etab = canonical_connection(geo, s, logOmega, Ups,
                                                   ups2)
    beta, rho, sigma, betab = canonical_curvature(geo, Ups, ups2)
    return CanonicalCoefficients(
        metric=geo.metric, trchi=trchi, chib=chib, zeta=zeta, beta=beta,
        rho=rho, sigma=sigma, betab=betab, v=np.asarray(v, dtype=float),
        s=s, logOmega=logOmega, Upsilon=Ups, etab=etab,
        mu=mass_aspect(rho, zeta, geo.metric))
