"""The Bochner-Kodaira term pass as it stood before the transform-once pass,
and the two Stokes cross-term integrals read off ``dbarlab.bochner``'s pass.

``bk_terms`` computes the curvature field in full with ``curvature(h)``,
applies it with ``curvature_wedge``, and takes D'gamma from ``dprime``, which
builds the connection again; dbar gamma and D'gamma transform gamma
separately.  The library's pass must give the same densities bitwise.

Integration by parts on the periodic box turns each cross term into
-||dbar*_h alpha||^2, so both must match the adjoint term that
``bk_integrated`` balances against.
"""

from __future__ import annotations

import numpy as np

from dbarlab.bochner import _bk_terms
from dbarlab.exterior import (
    EForm,
    c_const,
    dv_density,
    hodge_star,
    norm_sq,
    omega_power,
    pairing,
    wedge,
)
from dbarlab.grid import integrate
from dbarlab.hermitian import (
    adjoint_from_dprime,
    curvature,
    curvature_wedge,
    dbar,
    dpartial,
    dprime,
)
from dbarlab.metric import MetricField


def bk_terms(alpha: EForm, h: MetricField) -> dict:
    """Every density of the identity against dV, with the full curvature field and dprime."""
    n = alpha.grid.n
    p = alpha.q
    gamma = hodge_star(alpha)
    om_p1 = omega_power(alpha.grid, p - 1)
    ic = 1j * c_const(n - p)

    theta_gamma = curvature_wedge(curvature(h), gamma)
    terms = {"curvature": ic * dv_density(wedge(pairing(theta_gamma, gamma, h), om_p1))}
    del theta_gamma
    terms["lhs"] = ic * dv_density(wedge(dpartial(dbar(pairing(gamma, gamma, h))), om_p1))
    terms["dbar_gamma_sq"] = norm_sq(dbar(gamma), h)
    terms["dbar_alpha_sq"] = np.zeros(alpha.grid.shape) if p == n else norm_sq(dbar(alpha), h)

    dpg = dprime(gamma, h)
    terms["adjoint_sq"] = norm_sq(adjoint_from_dprime(dpg, om_p1), h)
    dbar_dpg = dbar(dpg)
    del dpg
    terms["cross_minus"] = -ic * dv_density(wedge(pairing(dbar_dpg, gamma, h), om_p1))
    terms["cross_plus"] = ic * dv_density(wedge(pairing(gamma, dbar_dpg, h), om_p1))
    return terms


def cross_term_integrals(alpha: EForm, h: MetricField) -> tuple:
    """The two Stokes cross-term integrals; each should equal -||dbar*_h alpha||^2.

    Returns (cross_minus, cross_plus, minus_adjoint_sq), read off the term pass.
    """
    t = dict(_bk_terms(alpha, h))
    return (
        float(integrate(alpha.grid, t["cross_minus"].real)),
        float(integrate(alpha.grid, t["cross_plus"].real)),
        -float(integrate(alpha.grid, t["adjoint_sq"])),
    )
