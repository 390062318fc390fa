"""Singular hermitian metrics, mollification, and the regularized solve pipeline.

Positively curved singular metrics are regularized through their duals: the
dual of a positively curved metric has plurisubharmonic section norms, so
entrywise convolution with a radial approximate identity produces a family
that decreases in the quadratic-form order as the radius shrinks, and
dualizing back gives smooth metrics increasing pointwise to the original.

Log-pole catalog metrics use the periodic Green's function of the lattice
Laplacian instead of a bare log |z - z0|: the factor exp(a * lambda(z)) with
Delta lambda = 2 pi (delta_z0 - 1/L^2) scales so exp(2 a lambda) behaves like |z - z0|^(2a) near the
pole, is exactly periodic, and costs only a uniform curvature background
a*pi/L^2 spread over the box.  The pole is placed off-lattice; the grid point
nearest each pole is masked as the computable stand-in for the det h = 0 set,
and h-weighted quadrature excludes masked cells.  Pole distances are periodic
everywhere, so offsets that differ by a box side build the same metric, mask
and regions.  DEFAULTS holds every catalog parameter's default once.

Each region is grid.region of a centred box, given by its half-width, less
the points within eps + 3 spacings of a pole: the floors' half-r0 box, and
for monotonicity the points whose coarse kernel ball stays inside the dual's
plurisubharmonic zone.  That zone can leave no point at coarse radii on a
small box; such pairs are reported as unchecked rather than silently passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import PreconditionError, ValidationError
from .exterior import EForm
from .grid import GridSpec, convolve, kernel_spectrum, periodic_offset, region
from .grid import to_lattice, to_spectrum
from .hermitian import curvature
from .hormander import norm2, solve_min_norm
from .metric import MetricField, dual_metric
from .positivity import nakano_report
from .weights import BUDGET, apodized_quadratic_weight, plateau_coordinate, plateau_geometry


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MollifierSchedule:
    """Shrinking family of radial bump kernels, eps_nu = eps0 / nu."""

    eps0: float
    nu_max: int = 8

    def __post_init__(self):
        if self.eps0 <= 0 or self.nu_max < 1:
            raise ValidationError("schedule needs eps0 > 0 and nu_max >= 1")

    @property
    def radii(self) -> tuple:
        return tuple(self.eps0 / nu for nu in range(1, self.nu_max + 1))


@lru_cache(maxsize=64)
def mollifier_kernel(grid: GridSpec, eps: float) -> np.ndarray:
    """Radial bump exp(-1/(1-(rho/eps)^2)) on rho < eps, unit discrete mass.

    Built once per grid and radius; the cached array is read-only.
    """
    if eps < 2.0 * grid.spacing:
        raise PreconditionError(
            f"mollifier radius {eps} under-resolved: needs at least 2 grid spacings "
            f"({2 * grid.spacing})",
            measured=eps,
        )
    if eps >= 0.5 * grid.L:
        raise ValidationError("mollifier radius must be smaller than half the box")
    rho2 = np.zeros(grid.shape, dtype=np.float64)
    t = grid.axis_coordinates()
    for d in grid.along_axes(np.minimum(t, grid.L - t)):
        rho2 = rho2 + d ** 2
    u = rho2 / (eps * eps)
    vals = np.zeros(grid.shape)
    inside = u < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - u[inside]))
    mass = vals.sum() * grid.cell_volume
    if mass <= 0:
        raise PreconditionError("mollifier kernel has no interior samples")
    vals /= mass
    vals.flags.writeable = False
    return vals


@lru_cache(maxsize=64)
def _mollifier_spectrum(grid: GridSpec, eps: float) -> np.ndarray:
    """The checked spectrum of mollifier_kernel(grid, eps), built once; read-only."""
    spec = kernel_spectrum(grid, mollifier_kernel(grid, eps))
    spec.flags.writeable = False
    return spec


def mollify(h: MetricField, eps: float) -> MetricField:
    """Entrywise periodic convolution with the radius-eps kernel.

    Hermiticity and positive semidefiniteness survive (averaging with
    nonnegative weights stays in the psd cone), up to the transforms'
    roundoff, which MetricField symmetrizes away; the result is unmasked.
    """
    return MetricField(h.grid, h.rank, convolve(h.grid, h.mat, _mollifier_spectrum(h.grid, eps)))


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def periodic_log_pole(grid: GridSpec, z0: complex) -> np.ndarray:
    """Periodic counterpart of log |z - z0| via the lattice Green's function.

    Solves Delta lambda = 2 pi (src - 1/L^2) spectrally, where src is the
    band-limited unit point mass at z0; lambda ~ log |z - z0| + smooth near
    the pole and is exactly periodic.  Only n = 1.
    """
    if grid.n != 1:
        raise ValidationError("log-pole weights are a Riemann-surface (n = 1) construction")
    k = np.fft.fftfreq(grid.N, d=grid.spacing) * 2.0 * np.pi
    # band-limited point mass: product of shifted Dirichlet kernels
    sx = np.zeros(grid.N, dtype=np.complex128)
    sy = np.zeros(grid.N, dtype=np.complex128)
    t = grid.axis_coordinates()
    for kk in np.fft.fftfreq(grid.N) * grid.N:
        w = 2.0 * np.pi * kk / grid.L
        sx += np.exp(1j * w * (t - z0.real))
        sy += np.exp(1j * w * (t - z0.imag))
    src = np.outer(sx.real, sy.real) / grid.L ** 2
    spec = to_spectrum(grid, src)
    kx = k.reshape(-1, 1)
    ky = k.reshape(1, -1)
    k2 = kx * kx + ky * ky
    k2[0, 0] = 1.0
    lam_spec = -2.0 * np.pi * spec / k2
    lam_spec[0, 0] = 0.0
    lam = to_lattice(grid, lam_spec).real
    return lam


@dataclass
class CatalogMetric:
    """A catalog entry: the metric plus the geometry its guarantees live on."""

    name: str
    metric: MetricField
    poles: tuple = ()
    delta_target: float = 1.0
    plateau_radius: float = 0.0
    smoothing: float = 0.0


# the rank each catalog entry fixes; the gaussian takes its rank as a parameter
FIXED_RANK = {"log_pole": 1, "log_pole_pair": 2, "matrix_psh_dual": 2}

# every catalog parameter with its default; unset r0 and s follow plateau_geometry
DEFAULTS = {"rank": 1, "c": 1.0, "budget": BUDGET, "r0": None, "s": None, "a": 0.5,
            "a1": 0.5, "a2": 0.3, "offset": 0.55 + 0.35j, "offset2": -0.62 - 0.41j}


def singular_catalog(name: str, grid: GridSpec, **params) -> CatalogMetric:
    """Built-in singular metrics, each documented with singular set and sign.

    params are keys of DEFAULTS; c is the weight strength, and budget, r0 and
    s set the plateau geometry (weights.plateau_geometry).

    * "log_pole" (r=1): |z - z0|^(2a)-type factor times the apodized Gaussian
      weight, vanishing determinant at the pole z0 = centre + offset.  It is
      positively curved off the pole only, with floor ~ delta = c there: its
      curvature carries a point mass of about -pi a at z0.
    * "log_pole_pair" (r=2): diagonal of two such weights with distinct poles
      (offset, offset2) and exponents (a1, a2).
    * "matrix_psh_dual" (r=2): dual of the Griffiths-negative F^H F + e^phi I
      built from holomorphic-section norms; smooth, positively curved, empty
      mask.
    * "gaussian" (r = rank): the a = 0 degenerate member, exp(-phi) times the
      r x r identity (smooth, no mask).
    """
    p = {**DEFAULTS, **params}
    c = float(p["c"])
    r0, s = plateau_geometry(grid, c, float(p["budget"]), p["r0"], p["s"])
    phi = apodized_quadratic_weight(grid, c, r0, s)

    if name == "gaussian":
        h = MetricField.from_weight(grid, np.exp(np.negative(phi, out=phi), out=phi),
                                    int(p["rank"]))
        return CatalogMetric(name, h, (), c, r0, s)

    if name == "log_pole":
        a = float(p["a"])
        if not 0.0 <= a < 1.0:
            raise ValidationError(f"log-pole exponent must lie in [0,1), got {a}")
        z0 = complex(grid.center + p["offset"].real, grid.center + p["offset"].imag)
        if a == 0.0:
            h = MetricField.from_weight(grid, np.exp(-phi), 1)
            return CatalogMetric(name, h, (), c, r0, s)
        lam = periodic_log_pole(grid, z0)
        w = np.exp(2.0 * a * lam - phi)
        h = MetricField.from_weight(grid, w, 1)
        h = _mask_nearest(h, (z0,))
        return CatalogMetric(name, h, (z0,), c, r0, s)

    if name == "log_pole_pair":
        z1 = complex(grid.center + p["offset"].real, grid.center + p["offset"].imag)
        z2 = complex(grid.center + p["offset2"].real, grid.center + p["offset2"].imag)
        w1 = np.exp(2.0 * float(p["a1"]) * periodic_log_pole(grid, z1) - phi)
        w2 = np.exp(2.0 * float(p["a2"]) * periodic_log_pole(grid, z2) - phi)
        h = MetricField.from_diagonal(grid, [w1, w2])
        h = _mask_nearest(h, (z1, z2))
        return CatalogMetric(name, h, (z1, z2), c, r0, s)

    if name == "matrix_psh_dual":
        # Griffiths-negative g = F^H F + e^phi I with F = [[1, w],[0, 1]] and w
        # holomorphic on the plateau box; section norms |F u|^2 + e^phi |u|^2
        # are plurisubharmonic there, so the dual is positively curved on it.
        w_entry = plateau_coordinate(grid, 0, r0, s)
        g = np.zeros(grid.shape + (2, 2), dtype=np.complex128)
        g[..., 0, 0] = 1.0 + np.exp(phi)
        g[..., 0, 1] = np.conj(w_entry)
        g[..., 1, 0] = w_entry
        g[..., 1, 1] = np.abs(w_entry) ** 2 + 1.0 + np.exp(phi)
        gm = MetricField(grid, 2, g)
        h = dual_metric(gm)
        return CatalogMetric(name, h, (), 0.0, r0, s)

    raise ValidationError(f"unknown catalog metric {name!r}")


def _mask_nearest(h: MetricField, poles: tuple) -> MetricField:
    """Mask the grid point nearest each pole: the det h = 0 stand-in."""
    mask = np.zeros(h.grid.shape, dtype=bool)
    t = h.grid.axis_coordinates()
    for z0 in poles:
        ix = int(np.argmin(np.abs(periodic_offset(h.grid, t - z0.real))))
        iy = int(np.argmin(np.abs(periodic_offset(h.grid, t - z0.imag))))
        mask[ix, iy] = True
    return MetricField(h.grid, h.rank, h.mat, mask)


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

@dataclass
class MonotoneReport:
    """Worst quadratic-form ordering violation per consecutive kernel pair."""

    pair_defects: list = field(default_factory=list)   # (nu, defect, points_checked)
    max_defect: float = 0.0
    unchecked_pairs: list = field(default_factory=list)


def _centred_region(grid: GridSpec, halfwidth: float, poles: tuple, eps: float) -> np.ndarray:
    """region() of the box L/2 - halfwidth <= t < L/2 + halfwidth; empty unless halfwidth > 0."""
    if halfwidth <= 0:
        return np.zeros(grid.shape, dtype=bool)
    return region(grid, 0.5 - halfwidth / grid.L, poles, eps)


def check_monotone(cat: CatalogMetric, schedule: MollifierSchedule) -> MonotoneReport:
    """Quadratic-form ordering of the mollified family on the negatively curved side.

    The dual g of the positively curved catalog metric is mollified, and the
    family must be non-increasing along the shrinking schedule:
    g * chi_(eps_{nu+1}) <= g * chi_(eps_nu) pointwise as forms.  The defect
    is the worst positive eigenvalue of the difference, relative to the local
    scale, measured where the averaging argument applies; pairs whose region
    is empty are reported unchecked.
    """
    g = dual_metric(cat.metric)
    radii = schedule.radii
    return _monotone_report(cat, radii, [mollify(g, eps) for eps in radii])


def _monotone_report(cat: CatalogMetric, radii: tuple, mollified: list):
    """check_monotone's pairwise ordering over an already mollified family, one per radius."""
    grid = cat.metric.grid
    report = MonotoneReport()
    for idx in range(len(radii) - 1):
        eps_coarse = radii[idx]
        # the coarse kernel ball stays off the pole cells and in the dual's psh zone,
        # whose complex Hessian is nonnegative to ~4 smoothing scales past r0
        zone = _centred_region(grid, cat.plateau_radius + 4.0 * cat.smoothing - eps_coarse,
                               cat.poles, eps_coarse)
        if not zone.any():
            report.unchecked_pairs.append(idx + 1)
            continue
        # exactly hermitian, as the difference of two MetricField matrices
        diff = mollified[idx + 1].mat[zone] - mollified[idx].mat[zone]
        top = np.linalg.eigvalsh(diff)[..., -1]
        scale = np.abs(np.linalg.eigvalsh(mollified[idx].mat[zone])).max()
        defect = float(max(top.max(), 0.0) / max(scale, 1e-300))
        report.pair_defects.append((idx + 1, defect, int(zone.sum())))
        report.max_defect = max(report.max_defect, defect)
    return report


# ---------------------------------------------------------------------------
# the regularized solve pipeline
# ---------------------------------------------------------------------------

@dataclass
class RegularizationReport:
    """Everything the shrinking-kernel solve family produced."""

    eps_values: tuple
    delta_values: list
    eps_floor: float                  # 1 - min delta_nu, clipped at 0
    monotone: MonotoneReport
    f_norm_h: float
    bound_matrix: dict                # (nu0, nu) -> |u_nu|^2 in the h_nu0 norm
    uniform_bound_ok: bool
    cauchy_defects: list
    final_ratio: float
    solve_reports: list


def regularized_solve(f: EForm, cat: CatalogMetric, schedule: MollifierSchedule) -> tuple:
    """Solve dbar u = f against the shrinking mollified family of a singular metric.

    For each kernel radius the dual is mollified and dualized back, the
    curvature floor delta_nu is extracted over the interior region, and the
    weighted minimal-norm solve runs with the smooth metric.  The returned u
    is the finest-radius solution; the report carries the floors, the
    uniform-bound family |u_nu|^2_(h_nu0) <= (1/(1-eps)) |f|^2_h, the
    cross-radius Cauchy defects, the final ratio |u|^2_h / |f|^2_h and the
    dual family's monotone ordering.  The caller judges the floors.
    """
    h = cat.metric
    grid = h.grid
    if grid.n != 1:
        raise ValidationError("the regularized pipeline is a Riemann-surface (n=1) run")
    f_norm_h = norm2(f, h)
    if not np.isfinite(f_norm_h) or f_norm_h == 0.0:
        raise PreconditionError("source must have finite nonzero h-weighted norm")

    radii = schedule.radii
    # each kernel's averaging ball must stay inside the certified zone, which
    # at desk scale leaves about half the plateau radius; the region only
    # grows as the radius shrinks, so the first one decides
    interior_halfwidth = 0.5 * cat.plateau_radius
    regions = [_centred_region(grid, interior_halfwidth, cat.poles, eps) for eps in radii]
    if not regions[0].any():
        offsets = ", ".join(f"({z.real - grid.center:g}, {z.imag - grid.center:g})"
                            for z in cat.poles)
        raise ValidationError(
            f"no certified floor region: no grid point within r0/2 = {interior_halfwidth:g} "
            f"of the box centre on each axis (r0={cat.plateau_radius:g}) lies farther than "
            f"eps0 + 3 spacings (eps0={schedule.eps0:g}, spacing {grid.spacing:g}) from a pole "
            f"at offset_re, offset_im = {offsets}"
        )

    g = dual_metric(h)
    mollified, metrics, deltas, solves, us = [], [], [], [], []

    for eps, reg_nu in zip(radii, regions):
        mollified.append(mollify(g, eps))
        h_nu = dual_metric(mollified[-1])
        metrics.append(h_nu)
        # a diagonal family's curvature comes from its exponents and is block
        # symmetric to roundoff; a non-diagonal one takes h^{-1} dh, whose
        # mollified matrix_psh_dual curvature misses the default 1e-6 check
        # (4.2e-7 against a 0.41 scale at N = 64), immaterial at the 0.1-level
        # floor tolerance of this pipeline; the default can stand once the
        # matrix route is block symmetric to roundoff
        delta_nu = nakano_report(h_nu, curvature(h_nu), reg_nu, symmetry_tol=1e-2)[0]
        deltas.append(float(delta_nu))
        # the pipeline's inequalities live at the few-percent level; a 1e-9
        # relative solve keeps the deepest mollified weights inside the cap
        u_nu, rep = solve_min_norm(f, h_nu, delta=float(delta_nu), tol=1e-9)
        us.append(u_nu)
        solves.append(rep)

    eps_floor = max(0.0, cat.delta_target - min(deltas))
    bound_limit = (1.0 / max(cat.delta_target - eps_floor, 1e-12)) * f_norm_h
    bound_matrix = {(nu0, nu): norm2(us[nu - 1], metrics[nu0 - 1])
                    for nu0 in range(1, len(radii) + 1) for nu in range(nu0, len(radii) + 1)}
    uniform_ok = all(val <= bound_limit * (1.0 + 1e-9) for val in bound_matrix.values())

    cauchy = []
    h_coarsest = metrics[0]
    for nu in range(2, len(radii) + 1):
        diff = us[nu - 1].coeffs - us[nu - 2].coeffs
        dform = EForm(grid, f.rank, f.p, f.q - 1, diff)
        cauchy.append(float(np.sqrt(norm2(dform, h_coarsest))))

    final_ratio = norm2(us[-1], h) / f_norm_h
    # the dual family the solves ran on is the one check_monotone would build
    monotone = _monotone_report(cat, radii, mollified)
    report = RegularizationReport(
        eps_values=radii,
        delta_values=deltas,
        eps_floor=eps_floor,
        monotone=monotone,
        f_norm_h=f_norm_h,
        bound_matrix=bound_matrix,
        uniform_bound_ok=uniform_ok,
        cauchy_defects=cauchy,
        final_ratio=final_ratio,
        solve_reports=solves,
    )
    return us[-1], report
