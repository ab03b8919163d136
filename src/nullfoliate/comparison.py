"""Foliation-comparison calculus: reconstruction of the canonical geometry.

Given the solved graph (s, log Omega) over geodesic data, every canonical
connection coefficient and curvature component follows algebraically from the
projected geodesic quantities, the tilt Upsilon = grad s, and its transport.
The projections are component-identities in the shared Fermi-free dyad, so
"evaluating a table at height s" realises the dagger map directly.

A leaf may be one leaf or a stack of them: reconstruct takes a whole
foliation, or any set of its levels, as one stack and returns stacked
coefficients; indexing them takes one level or a slice.
"""

from dataclasses import dataclass, fields

import numpy as np

from .geodesic import GeodesicNullData
from .sphere import SpinField
from .tensors import (MetricRep, OneForm, SymTwoTensor, contract, contract2,
                      div, dot, dual, grad, hessian, sym_otimes, wedge)


@dataclass
class CanonicalCoefficients:
    """Canonical-foliation geometry of one leaf or of a stack of leaves."""

    v: np.ndarray  # the level (0-d), or the levels of a stack
    s: SpinField
    logOmega: SpinField
    metric: MetricRep
    Upsilon: OneForm
    dLUpsilon: OneForm
    chi: SymTwoTensor
    chib: SymTwoTensor
    zeta: OneForm
    etab: OneForm
    alpha: SymTwoTensor
    beta: OneForm
    rho: SpinField
    sigma: SpinField
    betab: OneForm
    rho_check: SpinField
    sigma_check: SpinField
    betab_check: OneForm
    mu: SpinField

    @property
    def trchi(self):
        return self.chi.trace

    @property
    def trchib(self):
        return self.chib.trace

    def __getitem__(self, idx):
        """Level(s) idx of a stack."""
        return CanonicalCoefficients(**{f.name: getattr(self, f.name)[idx]
                                        for f in fields(self)})


def upsilon(s: SpinField, metric: MetricRep) -> OneForm:
    """Tilt 1-form between the foliations: the graph-metric gradient of s."""
    return grad(s, metric)


def upsilon_transport(Ups: OneForm, chi: SymTwoTensor, logOmega: SpinField,
                      metric: MetricRep) -> OneForm:
    """Algebraic transport value: nabla_L Upsilon = -grad log Omega - chi . Upsilon."""
    return -1.0 * grad(logOmega, metric) - contract(chi, Ups)


def canonical_connection(geodesic_connection, s: SpinField,
                         logOmega: SpinField, metric: MetricRep,
                         Ups: OneForm, ups2: SpinField):
    """Connection coefficients of the canonical foliation at one leaf.

        chi  = chi'
        zeta = zeta' + chi' . Upsilon
        etab = etab' + nabla_L Upsilon            (etab' = -zeta')
        chib = chib' - 2 (Upsilon zeta' + zeta' Upsilon) + 2 Hess s
               - |Upsilon|^2 chi'

    geodesic_connection is (chi', chib', zeta') at the heights s, as
    GeodesicNullData.geometry_at reads them.  Ups = upsilon(s, metric) and
    ups2 = |Upsilon|^2.  nabla_L Upsilon is the exact algebraic transport
    identity.
    """
    chi, chib_g, zeta_g = geodesic_connection
    zeta = zeta_g + contract(chi, Ups)
    dLUps = upsilon_transport(Ups, chi, logOmega, metric)
    etab = -1.0 * zeta_g + dLUps
    hess = hessian(s, metric)
    chib = chib_g - 2.0 * sym_otimes(Ups, zeta_g) + 2.0 * hess \
        - ups2 * chi
    return chi, chib, zeta, etab, dLUps


def canonical_curvature(geodesic_curvature, Ups: OneForm, ups2: SpinField):
    """Null curvature components of the canonical frame, exact through cubic order.

        alpha = alpha'
        beta  = beta' + alpha' . Upsilon
        rho   = rho' + beta' . Upsilon + alpha' . Upsilon . Upsilon
        sigma = sigma' - (*beta') . Upsilon - (*alpha') . Upsilon . Upsilon
        betab = betab' - 3 rho' Upsilon + 3 sigma' (*Upsilon)
                - 2 ((*beta') . Upsilon) (*Upsilon) + |Upsilon|^2 beta'
                - 2 (alpha' . Upsilon . Upsilon) Upsilon
                + |Upsilon|^2 (alpha' . Upsilon)

    geodesic_curvature is (alpha', beta', rho', sigma', betab') at the
    heights of the leaf, as GeodesicNullData.geometry_at reads them; Ups is
    the tilt of the leaf and ups2 = |Upsilon|^2.
    """
    alpha_g, beta_g, rho_g, sigma_g, betab_g = geodesic_curvature

    alpha = alpha_g
    a_ups = contract(alpha_g, Ups)
    beta = beta_g + a_ups
    a_upsups = contract2(alpha_g, Ups, Ups)
    rho = rho_g + dot(beta_g, Ups) + a_upsups
    dbeta_ups = dot(dual(beta_g), Ups)
    sigma = sigma_g - dbeta_ups - contract2(dual(alpha_g), Ups, Ups)
    betab = betab_g - 3.0 * (rho_g * Ups) + 3.0 * (sigma_g * dual(Ups)) \
        - 2.0 * (dbeta_ups * dual(Ups)) + ups2 * beta_g \
        - 2.0 * (a_upsups * Ups) + ups2 * a_ups
    return alpha, beta, rho, sigma, betab


def renormalized(rho: SpinField, sigma: SpinField, betab: OneForm,
                 chi_hat: SymTwoTensor, chib_hat: SymTwoTensor,
                 zeta: OneForm):
    """Renormalised curvature components.

        rho_check   = rho   - (1/2) chihat . chibhat
        sigma_check = sigma - (1/2) chihat ^ chibhat
        betab_check = betab + 2 chibhat . zeta
    """
    rho_check = rho - 0.5 * dot(chi_hat, chib_hat)
    sigma_check = sigma - 0.5 * wedge(chi_hat, chib_hat)
    betab_check = betab + 2.0 * contract(chib_hat, zeta)
    return rho_check, sigma_check, betab_check


def mass_aspect(rho_check: SpinField, zeta: OneForm,
                metric: MetricRep) -> SpinField:
    """Mass aspect mu = -rho_check - div zeta."""
    return -1.0 * rho_check - div(zeta, metric)


def reconstruct(data: GeodesicNullData, s: SpinField, logOmega: SpinField,
                v) -> CanonicalCoefficients:
    """Full canonical geometry of one leaf from the solved graph state.

    s and logOmega may be stacks of leaves, with v the array of their levels.
    The geodesic tables are read once, at the heights s.
    """
    metric, connection_g, curvature_g = data.geometry_at(np.real(s.samples))
    Ups = upsilon(s, metric)
    ups2 = Ups.norm2()
    chi, chib, zeta, etab, dLUps = canonical_connection(
        connection_g, s, logOmega, metric, Ups, ups2)
    alpha, beta, rho, sigma, betab = canonical_curvature(curvature_g, Ups,
                                                         ups2)
    rho_check, sigma_check, betab_check = renormalized(
        rho, sigma, betab, chi.hat(), chib.hat(), zeta)
    mu = mass_aspect(rho_check, zeta, metric)
    return CanonicalCoefficients(
        v=np.asarray(v, dtype=float), s=s, logOmega=logOmega, metric=metric,
        Upsilon=Ups, dLUpsilon=dLUps, chi=chi, chib=chib, zeta=zeta, etab=etab,
        alpha=alpha, beta=beta, rho=rho, sigma=sigma, betab=betab,
        rho_check=rho_check, sigma_check=sigma_check,
        betab_check=betab_check, mu=mu)

