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
gamma in that direction.  The source is a bump of compact support, and the
kernel transforms only the slices of the other plane where its input is
not identically zero.  One set of connection blocks theta_j, built only
for the directions j that grow a live slot of gamma, gives the connection
term of D'gamma and the curvature blocks Theta_jk = -dbar_k theta_j.  The
adjoint reuses D'gamma, since dbar*_h alpha = i D'gamma ^ omega_{p-1}, and
its squared norm leaves the i out: |i v|^2 = |v|^2 bit for bit.
bk_reports returns the pointwise and integrated reports of a single pass.

The pass scans gamma once (exterior._form_support): its live slots, its
support box and, per plane, the slices where it is live.  Four pairings
are products with gamma: <gamma,gamma>, <Theta gamma,gamma> and the two
cross terms <dbar D'gamma,gamma> and <gamma,dbar D'gamma>.  Each takes
gamma's support and multiplies the slot pairs of gamma's live slots on its
box only, scanning neither operand.  For the last three, which are densities themselves, dv_density
writes the density of the pairing wedged with omega_{p-1}, times the
unit i c_{n-p}, on that box in one product per term.  connection_terms
takes the whole support: theta_j ^ gamma and Theta_jk gamma are formed on
gamma's box, and Theta_jk is transformed on the slices where both gamma
and theta_j are live.  The derivatives of fields that live where gamma
does (gamma, alpha and <gamma,gamma>) take gamma's slices instead of
scanning, and so does dbar D'gamma, which only the cross pairings read
(dbar_dpg_on_gamma is exact on gamma's slices and nowhere else).  del
dbar <gamma,gamma> is dense in the plane of its dbar and scans its own
input.  Every density is bitwise what the whole-grid products give, up to
the sign of zeros.  On the identities-n2 benchmark config, whose gamma
meets a third of each plane's slices, the pass makes 18 full-field
liveness scans (np.any over at least a field's size of elements, counted
in field sizes) and 16.5 one-axis FFT passes over the field.
The curvature is always that of h.  The compact-support proxy check_support
holds the seam-margin mass to SUPPORT_TOL.

Memory: the pass keeps a full-grid field only until its last use, and
orders its stages so that few live at once.  The del-dbar term of the left
side comes first, while only gamma exists.  dbar gamma is reduced to its
density before any theta_j is built.  Derivatives are added into their
target slots block by block, so no full-grid derivative or spectrum
exists; pairing leaves its output unwritten outside gamma's box, and
hodge_star the slot of an identically zero slot.  Each theta_j goes once
its last curvature block is formed, and each block is applied as soon as
it is formed, on gamma's box, so no curvature field exists; D'gamma goes
once dbar D'gamma exists, and gamma once the cross terms are done.
omega_{p-1} is a read-only broadcast of one constant block (omega_power),
so it costs no full-grid array, and each density is one field.  The pass
yields each density in turn, and the reports reduce it before the next is
made: a copy of its interior box for the pointwise report, its whole-grid
integral for the integrated one.  At n = 2 and rank 1 the traced peak is
8.8 full-grid complex fields (141 MiB at N = 32), below the 189 MiB of a
whole identities run there; at n = 1, N = 128 with a diagonal rank-2
metric it is 11.6 fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormError, SupportError
from .exterior import (
    EForm,
    _form_support,
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

    gamma is scanned once, and its box, slices and live slots are handed to
    every pairing with it, every derivative of a field that lives where it
    does and connection_terms (see the module docstring).  One plane
    transform per coefficient of gamma and direction gives dbar gamma and
    del gamma, and one connection theta gives D'gamma and the curvature
    blocks.  The adjoint term reuses D'gamma: dbar*_h alpha = i D'gamma ^
    omega_{p-1}.  Each full-grid intermediate is dropped after its last
    use, in an order that keeps few of them alive at once; a consumer drops
    each density before it asks for the next.
    """
    n = alpha.grid.n
    p = alpha.q
    gamma = hodge_star(alpha)
    _, box, slices = support = _form_support(gamma)
    om_p1 = omega_power(alpha.grid, p - 1)
    ic = 1j * c_const(n - p)

    # <gamma,gamma> lives where gamma does; del dbar of it does not
    yield "lhs", dv_density(dpartial(dbar(pairing(gamma, gamma, h, (support, support)),
                                          slices)), ic, om_p1)
    dbar_gamma, dpg = dbar_and_del(gamma, slices)
    yield "dbar_gamma_sq", norm_sq(dbar_gamma, h)
    del dbar_gamma
    theta_gamma = connection_terms(gamma, h, dpg, support)  # dpg is now D'gamma
    yield "curvature", dv_density(pairing(theta_gamma, gamma, h, (None, support)), ic, om_p1, box)
    del theta_gamma
    # |i v|^2 = |v|^2 bit for bit: the adjoint i D'gamma ^ omega_{p-1} drops its i
    yield "adjoint_sq", norm_sq(dpg if p == 1 else wedge(dpg, om_p1), h)
    # only the cross pairings read dbar D'gamma, at gamma's nonzeros
    dbar_dpg_on_gamma = dbar(dpg, slices)
    del dpg
    yield "cross_minus", dv_density(pairing(dbar_dpg_on_gamma, gamma, h, (None, support)),
                                    -ic, om_p1, box)
    yield "cross_plus", dv_density(pairing(gamma, dbar_dpg_on_gamma, h, (support, None)),
                                   ic, om_p1, box)
    del dbar_dpg_on_gamma, gamma
    if p == n:
        yield "dbar_alpha_sq", np.zeros(alpha.grid.shape)
    else:  # alpha = gamma ^ omega_p lives where gamma does
        yield "dbar_alpha_sq", norm_sq(dbar(alpha, slices), h)


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
    lhs = dv_density(pairing(xi, xi, h), 1j * c_const(n - 1) * (-1) ** n)
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
