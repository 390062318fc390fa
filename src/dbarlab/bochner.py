"""Numerical verification of the del-dbar Bochner-Kodaira identity.

For an (n,p)-form alpha = gamma ^ omega_p the pointwise identity reads

    i c_{n-p} del dbar <gamma,gamma> ^ omega_{p-1}
        = i c_{n-p} ( <Theta^gamma,gamma> - <dbar D'gamma,gamma>
                      + <gamma,dbar D'gamma> ) ^ omega_{p-1}
          + ( |dbar*_h alpha|^2 + |dbar gamma|^2 - |dbar alpha|^2 ) dV,

and integrating over the periodic box kills the exact-derivative terms,
leaving the four-integral balance used by the a-priori estimate.  Every term
is evaluated with the spectral calculus and reported as a density against
dV; the residual is the max pointwise mismatch over the requested region.

Both forms of the identity are read off one term pass that builds every
density once.  Each derivative transforms only its own complex plane, block
by block (grid._plane_derivatives), forward and back.  One forward
transform per coefficient of gamma and direction gives dbar gamma and del
gamma in that direction.  The kernel transforms only the slices of the
other plane where its input is not identically zero, and the source is a
bump of compact support, so on the identities-n2 benchmark config the pass
runs 24.6 one-axis FFT passes over the field, where transforming every
slice took 42 and transforming every grid axis 72.  One set of connection
blocks theta_j, built only for the directions j that grow a nonzero
coefficient of gamma, gives the connection term of D'gamma and the
curvature blocks Theta_jk = -dbar_k theta_j.  The adjoint reuses D'gamma,
since dbar*_h alpha = i D'gamma ^ omega_{p-1}; bk_reports returns the
pointwise and integrated reports of a single pass.
The curvature is always that of h.  The compact-support proxy check_support
holds the seam-margin mass to SUPPORT_TOL.

Memory: the pass keeps a full-grid field only until its last use, and
orders its stages so that few live at once.  The del-dbar term of the left
side comes first, while only gamma exists.  dbar gamma is reduced to its
density before any theta_j is built.  Derivatives are added into their
target slots block by block, so no full-grid derivative or spectrum
exists, and pairing and hodge_star leave the slots an identically zero slot
would fill unwritten.  Each theta_j goes once its last curvature block is
formed, and each block is applied as soon as it is formed, so no curvature
field exists; D'gamma goes once dbar D'gamma exists, and gamma once the
cross terms are done.  omega_{p-1} is a read-only broadcast of one constant
block (omega_power), so it costs no full-grid array.  The pass yields each
density in turn, and the reports reduce it before the next is made: a copy
of its interior box for the pointwise report, its whole-grid integral for
the integrated one.  At n = 2 and rank 1 the traced peak is 8.8 full-grid
complex fields (141 MiB at N = 32), against 10 when every density and
derivative was a full-grid array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormError, SupportError
from .exterior import (
    EForm,
    c_const,
    dv_density,
    hodge_star,
    norm_sq,
    omega,
    omega_power,
    pairing,
    wedge,
)
from .grid import SEAM_MARGIN, _interior_box, integrate, seam_leakage
from .hermitian import (
    adjoint_from_dprime,
    connection_terms,
    dbar,
    dbar_and_del,
    dbar_star_formal,
    dpartial,
)
from .metric import MetricField

SUPPORT_TOL = 1e-10


@dataclass
class IdentityReport:
    """Term values and residual for one identity evaluation."""

    name: str
    n: int
    p: int
    N: int
    terms: dict = field(default_factory=dict)
    residual: float = 0.0
    relative_residual: float = 0.0


def check_support(alpha: EForm, h: MetricField, margin: float):
    """Compact-support proxy: h-mass fraction of alpha in the seam margin, at most SUPPORT_TOL."""
    leak = seam_leakage(norm_sq(alpha, h), alpha.grid, margin)
    if leak > SUPPORT_TOL:
        raise SupportError(
            f"form carries {leak:.3e} of its mass in the seam margin (budget {SUPPORT_TOL:.1e})",
            measured=leak,
        )
    return leak


def _require_np_form(alpha: EForm):
    if alpha.p != alpha.grid.n or alpha.q < 1:
        raise FormError(
            f"identity requires an (n,p)-form with p >= 1, got ({alpha.p},{alpha.q})"
        )


def _bk_terms(alpha: EForm, h: MetricField):
    """Yield (name, density) for every density of the identity against dV, each computed once.

    One plane transform per coefficient of gamma and direction gives dbar
    gamma and del gamma, and one connection theta gives D'gamma and the
    curvature blocks (connection_terms).  The adjoint term reuses
    D'gamma: dbar*_h alpha = i D'gamma ^ omega_{p-1}.  Each full-grid
    intermediate is dropped after its last use, in an order that keeps few
    of them alive at once (see the module docstring); a consumer drops each
    density before it asks for the next.
    """
    n = alpha.grid.n
    p = alpha.q
    gamma = hodge_star(alpha)
    om_p1 = omega_power(alpha.grid, p - 1)
    ic = 1j * c_const(n - p)

    yield "lhs", ic * dv_density(wedge(dpartial(dbar(pairing(gamma, gamma, h))), om_p1))
    dbar_gamma, dpg = dbar_and_del(gamma)
    yield "dbar_gamma_sq", norm_sq(dbar_gamma, h)
    del dbar_gamma
    theta_gamma = connection_terms(gamma, h, dpg)  # dpg is now D'gamma
    yield "curvature", ic * dv_density(wedge(pairing(theta_gamma, gamma, h), om_p1))
    del theta_gamma
    yield "adjoint_sq", norm_sq(adjoint_from_dprime(dpg, om_p1), h)
    dbar_dpg = dbar(dpg)
    del dpg
    yield "cross_minus", -ic * dv_density(wedge(pairing(dbar_dpg, gamma, h), om_p1))
    yield "cross_plus", ic * dv_density(wedge(pairing(gamma, dbar_dpg, h), om_p1))
    del dbar_dpg, gamma
    yield "dbar_alpha_sq", np.zeros(alpha.grid.shape) if p == n else norm_sq(dbar(alpha), h)


# the densities whose whole-grid integrals the integrated report balances
_INTEGRATED = ("curvature", "dbar_gamma_sq", "adjoint_sq", "dbar_alpha_sq")


def _pointwise_report(alpha: EForm, t: dict) -> IdentityReport:
    """The pointwise report from the densities t on the interior box."""
    lhs = t["lhs"]
    rhs = (
        t["curvature"] + t["cross_minus"] + t["cross_plus"]
        + t["adjoint_sq"] + t["dbar_gamma_sq"] - t["dbar_alpha_sq"]
    )
    resid = np.abs(lhs - rhs).max()
    scale = max(
        float(np.abs(lhs).max()),
        float(np.abs(t["curvature"]).max()),
        float(t["adjoint_sq"].max()),
        float(t["dbar_gamma_sq"].max()),
        1e-300,
    )
    report = IdentityReport("bk-pointwise", alpha.grid.n, alpha.q, alpha.grid.N)
    report.terms = {
        name: float(np.abs(t[name]).max())
        for name in (
            "curvature", "cross_minus", "cross_plus",
            "adjoint_sq", "dbar_gamma_sq", "dbar_alpha_sq",
        )
    }
    report.residual = float(resid)
    report.relative_residual = float(resid / scale)
    return report


def _integrated_report(alpha: EForm, integrals: dict) -> IdentityReport:
    """The integrated report from the whole-grid integrals of the _INTEGRATED densities."""
    grid = alpha.grid
    I_curv = integrals["curvature"]
    I_dbar_gamma = integrals["dbar_gamma_sq"]
    I_tstar = integrals["adjoint_sq"]
    I_dbar_alpha = integrals["dbar_alpha_sq"]  # zeros when p == n
    residual = I_curv + I_dbar_gamma - I_tstar - I_dbar_alpha
    scale = max(abs(I_curv), I_dbar_gamma, I_tstar, abs(I_dbar_alpha), 1e-300)

    report = IdentityReport("bk-integrated", grid.n, alpha.q, grid.N)
    report.terms = {
        "curvature_integral": I_curv,
        "dbar_gamma_integral": I_dbar_gamma,
        "adjoint_integral": I_tstar,
        "dbar_alpha_integral": I_dbar_alpha,
    }
    report.residual = float(abs(residual))
    report.relative_residual = float(abs(residual) / scale)
    return report


def bk_reports(alpha: EForm, h: MetricField, margin: float = SEAM_MARGIN) -> tuple:
    """(pointwise, periodic integrated) reports from one pass over the terms.

    Equal to bk_pointwise(alpha, h, margin) and bk_integrated(alpha, h) at a
    single evaluation of each term.  Each density of _bk_terms is reduced as
    it arrives: the interior region is a box (grid._interior_box), so it
    keeps a copy of its box for the pointwise report and its whole-grid
    integral for the integrated one, and the full field goes before the
    next is made.  Every reduction is a max or the whole-grid sum the full
    fields took, so both reports are those of the full densities, bit for
    bit.
    """
    _require_np_form(alpha)
    grid = alpha.grid
    box = _interior_box(grid, margin)
    inner, integrals = {}, {}
    for name, density in _bk_terms(alpha, h):
        inner[name] = density[box].copy()
        if name in _INTEGRATED:
            integrals[name] = float(integrate(grid, density.real))
        del density  # before the next density is made
    return _pointwise_report(alpha, inner), _integrated_report(alpha, integrals)


def bk_pointwise(alpha: EForm, h: MetricField, margin: float = SEAM_MARGIN) -> IdentityReport:
    """Max pointwise residual of the del-dbar identity over the interior region."""
    return bk_reports(alpha, h, margin)[0]


def bk_integrated(alpha: EForm, h: MetricField) -> IdentityReport:
    """The four-integral balance; exact derivatives integrate to zero spectrally."""
    return bk_reports(alpha, h)[1]


def xi_omega_identity(xi: EForm, h: MetricField | None = None) -> float:
    """Max relative residual of the purely algebraic (n-1,1) wedge identity.

    i c_{n-1} (-1)^n <xi,xi> = (|xi|^2 - |xi ^ omega|^2) dV; for n = 1 the
    wedge with omega vanishes identically.
    """
    n = xi.grid.n
    if (xi.p, xi.q) != (n - 1, 1):
        raise FormError(f"identity requires an (n-1,1)-form, got ({xi.p},{xi.q})")
    if h is None:
        h = MetricField.identity(xi.grid, xi.rank)
    lhs = 1j * c_const(n - 1) * (-1) ** n * dv_density(pairing(xi, xi, h))
    rhs = norm_sq(xi, h)
    if n >= 2:
        rhs -= norm_sq(wedge(xi, omega(xi.grid)), h)
    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-300)
    return float(np.abs(lhs - rhs).max() / scale)


def basic_estimate(
    alpha: EForm,
    h: MetricField,
    delta: float,
    margin: float = SEAM_MARGIN,
    enforce_support: bool = True,
) -> dict:
    """Slack of p*delta*||alpha||^2 <= ||dbar*_h alpha||^2 + ||dbar alpha||^2.

    Returns the signed slack (rhs - p delta lhs) together with both sides;
    nonnegative whenever delta is a certified curvature floor over the
    support of alpha.
    """
    n = alpha.grid.n
    p = alpha.q
    if alpha.p != n or p < 1:
        raise FormError(f"estimate requires an (n,p)-form with p >= 1, got ({alpha.p},{alpha.q})")
    if enforce_support:
        check_support(alpha, h, margin)
    lhs = float(integrate(alpha.grid, norm_sq(alpha, h)))
    rhs = float(integrate(alpha.grid, norm_sq(dbar_star_formal(alpha, h), h)))
    if p < n:
        rhs += float(integrate(alpha.grid, norm_sq(dbar(alpha), h)))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "slack": rhs - p * delta * lhs,
        "relative_slack": (rhs - p * delta * lhs) / max(rhs, 1e-300),
    }
