"""The two Stokes cross-term integrals of the Bochner-Kodaira balance, read
off ``dbarlab.bochner``'s term pass.

Integration by parts on the periodic box turns each cross term into
-||dbar*_h alpha||^2, so both must match the adjoint term that
``bk_integrated`` balances against.
"""

from __future__ import annotations

from dbarlab.bochner import _bk_terms
from dbarlab.exterior import EForm
from dbarlab.grid import integrate
from dbarlab.metric import MetricField


def cross_term_integrals(alpha: EForm, h: MetricField) -> tuple:
    """The two Stokes cross-term integrals; each should equal -||dbar*_h alpha||^2.

    Returns (cross_minus, cross_plus, minus_adjoint_sq), read off the term pass.
    """
    t = _bk_terms(alpha, h)
    return (
        float(integrate(alpha.grid, t["cross_minus"].real)),
        float(integrate(alpha.grid, t["cross_plus"].real)),
        -float(integrate(alpha.grid, t["adjoint_sq"])),
    )
