"""Spectral laboratory for hermitian bundle curvature on periodic model domains.

Subsystems: spectral grid calculus (grid), bundle-valued form algebra
(exterior), metrics/connections/curvature (metric, hermitian), quantitative
positivity (positivity), the del-dbar identity harness (bochner), weighted
minimal-norm dbar solves (hormander), singular metrics and their regularized
solve pipeline (singular), model weights (weights), serialization (io), and
the experiment runner (cli).
"""

from .errors import (
    CurvatureFloorError,
    CurvatureSymmetryError,
    DbarLabError,
    FormError,
    MetricError,
    PreconditionError,
    SolverError,
    SupportError,
    ValidationError,
)
from .grid import (
    GridSpec,
    ScalarField,
    convolve,
    integrate,
    interior_mask,
    partial_z,
    seam_leakage,
)
from .exterior import (
    EForm,
    c_const,
    conjugate_form,
    dv_density,
    hodge_star,
    inner_product,
    norm_sq,
    omega,
    omega_power,
    pairing,
    scale_by_field,
    wedge,
)
from .metric import MetricField, dual_metric
from .hermitian import (
    CurvatureField,
    chern_connection,
    curvature,
    curvature_wedge,
    dbar,
    dbar_star_formal,
    dpartial,
    dprime,
)
from .positivity import (
    PositivityReport,
    check_basic_inequality,
    check_nakano_pointwise_identity,
    griffiths_delta,
    griffiths_report,
    nakano_delta,
    nakano_report,
    positivity_report,
)
from .bochner import (
    IdentityReport,
    basic_estimate,
    bk_integrated,
    bk_pointwise,
    bk_reports,
    cross_term_integrals,
    xi_omega_identity,
)
from .hormander import (
    HilbertStructure,
    SolveReport,
    apply_T,
    apply_Tstar,
    closedness_defect,
    dbar_transpose,
    dense_min_norm,
    project_to_range,
    range_projection_defect,
    solve_min_norm,
    verify_hormander,
)
from .singular import (
    CatalogMetric,
    MollifierSchedule,
    MonotoneReport,
    RegularizationReport,
    check_monotone,
    masked_norm2,
    mollifier_kernel,
    mollify,
    mollify_scalar,
    periodic_log_pole,
    regularized_solve,
    singular_catalog,
)
from .weights import (
    apodized_quadratic_weight,
    default_plateau_radius,
    default_smoothing_scale,
    gaussian_metric,
    plateau_bump,
    random_band_limited,
    random_form,
    smooth_source_bump,
)

__version__ = "0.1.0"
