"""Experiment runner: reproducible pipelines with machine-readable reports.

Configs are flat key = value text with [section] headers; '#' starts a
comment, and every field is one row of FIELDS.  Every pipeline writes one
RFC 4180 CSV whose rows carry the check slug, measured value, threshold, and
pass flag, so a report is self-describing.  Identical config and seed produce
byte-identical reports.

Exit codes: 0 all configured checks passed, 2 at least one check failed,
1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, make_dataclass
from pathlib import Path

import numpy as np
import numpy.random  # loaded with the package, not on a run's first draw

from .bochner import bk_pointwise, bk_reports, xi_omega_identity
from .errors import DbarLabError, ValidationError
from .exterior import (
    EForm,
    c_const,
    hodge_star,
    norm_sq,
    omega_power,
    wedge,
)
from .grid import SEAM_MARGIN, GridSpec, _is_power_of_two, region
from .hermitian import CurvatureField, curvature
from .hormander import project_to_range, solve_min_norm, verify_hormander
from .io import write_csv, write_field, write_svg_plot
from .metric import MetricField, dual_metric
from .positivity import (
    check_nakano_pointwise_identity,
    griffiths_report,
    nakano_report,
    positivity_report,
)
from .singular import DEFAULTS, FIXED_RANK, MollifierSchedule, regularized_solve, singular_catalog
from .weights import BUMP_SUPPORT_RADIUS, random_form, smooth_source_bump

OPERATIONS = ("identities", "positivity", "solve", "regularize", "convergence")

# where regularize centres its source bump, off the box centre on each axis
REGULARIZE_SOURCE_OFFSET = (-0.7, -0.5)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """One config field: where it lives, how its text is read, what it admits and why."""

    section: str
    name: str
    cast: object       # text -> value; raises ValueError on text it cannot read
    admissible: str    # a set {a, b} or an interval such as [0, 0.5); a list's every entry
    default: object    # ... if required, a value, {operation: value} or f(earlier fields)
    why: str

    @property
    def attr(self) -> str:
        """Its ExperimentConfig attribute: the field name, cfg.operation for [operation] name."""
        return "operation" if self.name == "name" else self.name

    def admits(self, value) -> bool:
        inner = [part.strip() for part in self.admissible[1:-1].split(",")]
        if self.admissible[0] == "{":
            return value in inner
        lo, hi = (float(part) for part in inner)
        above = lo < value if self.admissible[0] == "(" else lo <= value
        return above and (value < hi if self.admissible[-1] == ")" else value <= hi)


def _finite(text: str) -> float:
    """float() that also rejects nan and the infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def _power_of_two(text: str) -> int:
    value = int(text)
    if not _is_power_of_two(value):
        raise ValueError(f"must be a power of two, got {value}")
    return value


def _list_of(caster, at_least: int = 1):
    """Caster for a comma-separated tuple of at least at_least caster values."""
    def cast(text: str) -> tuple:
        items = tuple(caster(item) for item in text.split(",")) if text.strip() else ()
        if len(items) < at_least:
            raise ValueError(f"must list at least {at_least} value(s), got {len(items)}")
        return items
    return cast


ANY = "(-inf, inf)"
POSITIVE = "(0, inf)"

# Every config field, in reading order: [operation] name first, since the
# per-operation defaults key on it, and [domain] before the grid-dependent
# default of eps0.  A known field that the operation does not read is ignored.
# ExperimentConfig has one typed attribute per row.
FIELDS = (
    Field("operation", "name", str, "{" + ", ".join(OPERATIONS) + "}", ..., "the five pipelines"),
    Field("domain", "n", int, "[1, 2]", ..., "the grids are of complex dimension 1 or 2"),
    Field("domain", "N", _power_of_two, "[8, inf)", ...,
          "spectral derivatives need a power-of-two lattice of at least 8 points"),
    Field("domain", "L", _finite, POSITIVE, ..., "a box side is a positive length"),
    Field("domain", "seam_margin", _finite, "[0, 0.5)", SEAM_MARGIN,
          "the seam band on each side is a fraction of the box side"),
    Field("random", "seed", int, "[0, inf)", 20260808, "PCG64 takes a non-negative seed"),
    Field("metric", "catalog", str, "{gaussian, log_pole, log_pole_pair, matrix_psh_dual}",
          "gaussian", "the metrics singular_catalog builds"),
    Field("metric", "rank", int, "[1, inf)", lambda v: FIXED_RANK.get(v["catalog"], 1),
          "rank of the bundle and the algebraic rows; the catalog fixes all but the gaussian's"),
    Field("metric", "c", _finite, ANY, DEFAULTS["c"], "any weight strength; 0 is the flat member"),
    Field("metric", "budget", _finite, POSITIVE, DEFAULTS["budget"],
          "exponent range; sets r0 when r0 is unset"),
    Field("metric", "r0", _finite, POSITIVE, None, "a plateau radius is a positive length"),
    Field("metric", "s", _finite, POSITIVE, None, "the ramp's smoothing scale is a length"),
    Field("metric", "a", _finite, "[0, 1)", DEFAULTS["a"],
          "log-pole exponent: |z - z0|^(2a) vanishes at the pole and is integrable"),
    Field("metric", "a1", _finite, "[0, 1)", DEFAULTS["a1"],
          "the first log-pole exponent of the pair"),
    Field("metric", "a2", _finite, "[0, 1)", DEFAULTS["a2"],
          "the second log-pole exponent of the pair"),
    Field("metric", "offset_re", _finite, ANY, DEFAULTS["offset"].real,
          "any pole offset from the box centre"),
    Field("metric", "offset_im", _finite, ANY, DEFAULTS["offset"].imag,
          "any pole offset from the box centre"),
    Field("operation", "count", int, "[1, inf)", {"identities": 100, "solve": 20},
          "a row reports the worst or mean over its samples; identities draws as many "
          "independent coefficients as count band-limited draws on the grid would carry, "
          "as full-band samples on its suite grid against a random metric"),
    Field("operation", "sweep", _list_of(_finite), ANY, (1.0, 2.0, 4.0), "any weight strengths c"),
    Field("operation", "sigma", _finite, POSITIVE, {"solve": 0.3, "regularize": 0.2},
          "a source bump needs a positive width"),
    Field("operation", "spread", _finite, "[0, inf)", 0.25, "a centre offset on each axis"),
    Field("operation", "nu_max", int, "[3, inf)", 8,
          "the weak-limit check compares the last two Cauchy defects"),
    Field("operation", "eps0", _finite, POSITIVE, lambda v: 16.0 * (v["L"] / v["N"]),
          "the coarsest mollifier radius, 16 grid spacings by default"),
    Field("operation", "resolutions", _list_of(_power_of_two, at_least=3), "[8, inf)",
          (16, 32, 64), "the grids of the slope fit, which needs three"),
    Field("operation", "slope", _finite, ANY, -4.0, "any decay rate for the fit to reach"),
) + tuple(
    Field("tolerances", name, _finite, POSITIVE, default, "a tolerance is a positive bound")
    for name, default in (
        ("algebraic", 1e-12), ("identity", 1e-6), ("integrated", 1e-8),  # identities
        ("symmetry", 1e-6),  # positivity, solve
        ("net", 1e-4), ("duality", 1e-6),  # positivity
        ("hormander", 0.05), ("solve_residual", 1e-9), ("cg", 1e-10),  # solve, regularize
        ("floor_eps", 0.1), ("monotone", 1e-10),  # regularize
    )
)

ExperimentConfig = make_dataclass("ExperimentConfig", [spec.attr for spec in FIELDS])

# A run whose estimated working set passes this cap exits 1 before it allocates
# anything: the lab is desk-scale, and a larger run would take a workstation's
# memory for itself.  identities-n2 (n = 2, N = 32) is estimated at 193 MB.
WORKING_SET_CAP_MB = 2048

# Full-grid complex fields (16 bytes a point, times rank^2) a pipeline holds at
# its peak, rounded up from traced peaks at n = 1, 2 and rank 1, 2.  solve
# holds about one more per source bump and regularize five more per mollifier
# radius; those are charged to count and nu_max.
_PEAK_FIELDS = {"identities": 12, "positivity": 20, "solve": 32, "regularize": 32,
                "convergence": 20}
_FIELDS_PER_ITEM = {"solve": ("count", 2), "regularize": ("nu_max", 6)}
# What does not grow with the grid, and outweighs the fields at the smallest
# grids: every run's interpreter allocations and lazy caches (0.1-0.3 MB
# traced at N = 8 and 16), and the identities suite's fields on its own grid
# of at most SUITE_POINTS points (20.6 of them traced at n = 2, rank 1).
_FIXED_MB = 0.5
_SUITE_FIELDS = 21


def _parse_sections(text: str) -> dict:
    """{section: {key: text}}; a section or key that FIELDS does not list is rejected."""
    known = {(spec.section, spec.name) for spec in FIELDS}
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in {section for section, _ in known}:
                raise ValidationError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected key = value, got {raw!r}")
        if current is None:
            raise ValidationError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if (current, key) not in known:
            raise ValidationError(f"line {lineno}: unknown field {key!r} in [{current}]")
        sections[current][key] = value
    return sections


def _read(spec: Field, section: dict, values: dict):
    """One field's typed value, cast and range-checked by name, or its default."""
    where = f"field {spec.name!r} in [{spec.section}]"
    if spec.name not in section:
        if spec.default is ...:
            raise ValidationError(f"missing {where}")
        if isinstance(spec.default, dict):
            return spec.default.get(values["operation"])
        return spec.default(values) if callable(spec.default) else spec.default
    try:
        value = spec.cast(section[spec.name])
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    for entry in value if isinstance(value, tuple) else (value,):
        if not spec.admits(entry):
            raise ValidationError(
                f"{where} must lie in {spec.admissible} ({spec.why}), got {entry!r}"
            )
    return value


def working_set_mb(cfg: ExperimentConfig) -> dict:
    """Estimated peak memory of a run in MB, split by the field that drives each part.

    The grid part is charged to N (to resolutions for convergence, whose
    largest grid it is), with the fixed part; solve's source bumps to count
    and regularize's mollified metrics to nu_max.
    """
    if cfg.operation == "convergence":
        N, grid_field = max(cfg.resolutions), "resolutions"
    else:
        N, grid_field = cfg.N, "N"
    field_mb = 16 * N ** (2 * cfg.n) * cfg.rank ** 2 / 2**20
    fixed_mb = _FIXED_MB
    if cfg.operation == "identities":
        fixed_mb += _SUITE_FIELDS * 16 * SUITE_POINTS * cfg.rank ** 2 / 2**20
    parts = {grid_field: _PEAK_FIELDS[cfg.operation] * field_mb + fixed_mb}
    if cfg.operation in _FIELDS_PER_ITEM:
        name, fields = _FIELDS_PER_ITEM[cfg.operation]
        parts[name] = getattr(cfg, name) * fields * field_mb
    return parts


def _check_relations(cfg: ExperimentConfig) -> None:
    """Constraints tying fields together, checked as run starts; each names the fields."""
    if cfg.operation in ("solve", "regularize") and cfg.n != 1:
        raise ValidationError(
            f"field 'n' in [domain] must be 1 for the {cfg.operation} pipeline, got {cfg.n}"
        )
    if cfg.operation == "solve" and cfg.spread + BUMP_SUPPORT_RADIUS * cfg.sigma > 0.5 * cfg.L:
        raise ValidationError(
            f"field 'spread' in [operation] plus the source support radius "
            f"{BUMP_SUPPORT_RADIUS:g}*sigma must fit in half the box side, "
            f"got spread={cfg.spread:g}, sigma={cfg.sigma:g}, L={cfg.L:g}"
        )
    offset = max(abs(part) for part in REGULARIZE_SOURCE_OFFSET)
    if cfg.operation == "regularize" and offset + BUMP_SUPPORT_RADIUS * cfg.sigma > 0.5 * cfg.L:
        raise ValidationError(
            f"field 'sigma' in [operation] must keep the source support radius "
            f"{BUMP_SUPPORT_RADIUS:g}*sigma plus the source's offset {offset:g} from the box "
            f"centre within half the box side, got sigma={cfg.sigma:g}, L={cfg.L:g}"
        )
    if FIXED_RANK.get(cfg.catalog, cfg.rank) != cfg.rank:
        raise ValidationError(f"field 'rank' in [metric] must be {FIXED_RANK[cfg.catalog]} "
                              f"for catalog={cfg.catalog}, got rank={cfg.rank}")
    parts = working_set_mb(cfg)
    total = sum(parts.values())
    if total > WORKING_SET_CAP_MB:
        name = max(parts, key=parts.get)
        section = next(spec.section for spec in FIELDS if spec.name == name)
        raise ValidationError(
            f"field {name!r} in [{section}] gives an estimated working set of "
            f"{total:.0f} MB, over the {WORKING_SET_CAP_MB} MB cap of a desk-scale run "
            f"(got {name}={getattr(cfg, name)}, n={cfg.n}, rank={cfg.rank})"
        )
    if cfg.operation == "regularize" and cfg.eps0 / cfg.nu_max < 2.0 * (cfg.L / cfg.N):
        raise ValidationError(
            f"fields 'eps0' and 'nu_max' in [operation] must leave the finest mollifier "
            f"radius eps0/nu_max at least 2 grid spacings 2*L/N = {2.0 * (cfg.L / cfg.N):g}, "
            f"got eps0={cfg.eps0:g}, nu_max={cfg.nu_max}, L={cfg.L:g}, N={cfg.N}"
        )
    if cfg.operation == "regularize" and not cfg.eps0 < 0.5 * cfg.L:
        raise ValidationError(
            f"field 'eps0' in [operation] must be below half the box side (a kernel "
            f"ball must fit in the box), got eps0={cfg.eps0:g}, L={cfg.L:g}"
        )


def parse_config(path) -> ExperimentConfig:
    """Read a config file into an ExperimentConfig, every field through FIELDS.

    Unknown sections and fields are rejected by name, so a misspelling
    cannot silently fall back to a default.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config {path} is not UTF-8 text: {exc}") from exc
    sections = _parse_sections(text)
    values = {}
    for spec in FIELDS:
        values[spec.attr] = _read(spec, sections.get(spec.section, {}), values)
    return ExperimentConfig(**values)


def _metric_for(cfg: ExperimentConfig, grid: GridSpec, c: float | None = None):
    """CatalogMetric from the config's [metric] fields; c, a sweep entry, overrides its c.

    The catalog checks its geometry in terms of r0, s and the grid; a rejection
    is re-raised naming the fields those follow from.
    """
    label, cval = ("c", cfg.c) if c is None else ("sweep", c)
    try:
        return singular_catalog(
            cfg.catalog, grid, rank=cfg.rank, c=cval, budget=cfg.budget, r0=cfg.r0, s=cfg.s,
            a=cfg.a, a1=cfg.a1, a2=cfg.a2, offset=complex(cfg.offset_re, cfg.offset_im),
        )
    except ValidationError as exc:
        raise ValidationError(
            f"metric catalog={cfg.catalog} with {label}={cval:g}, budget={cfg.budget:g}, "
            f"r0={cfg.r0}, s={cfg.s}, n={grid.n}, L={grid.L:g}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

HEADER = ["check", "verifies", "n", "p", "N", "value", "threshold", "passed"]


def _row(check, verifies, n, p, N, value, threshold, passed):
    # a row with no threshold reports its value, and fails only on a non-finite one
    passed = passed and (threshold != "" or math.isfinite(value))
    return [check, verifies, n, p, N, value, threshold, int(bool(passed))]


def run_identities(cfg: ExperimentConfig, rng: np.random.Generator) -> list:
    grid = GridSpec(cfg.n, cfg.N, cfg.L)
    n = grid.n

    # constant lemma, exact
    exact = True
    for nn in range(1, 5):
        for p in range(1, nn + 1):
            lhs1 = c_const(nn - p) * c_const(p - 1) * (-1) ** ((nn - p) * (p - 1))
            lhs2 = 1j * c_const(nn - p) * (-1) ** (nn - p)
            exact &= lhs1 == c_const(nn - 1) and lhs2 == c_const(nn - p + 1)
    rows = [_row("constants-lemma", "unimodular-normalizer-relations", n, 0, grid.N,
                 0.0 if exact else 1.0, 0.0, exact)]
    rows += _algebraic_rows(grid, cfg.rank, cfg.count, cfg.algebraic, rng)
    rows += _bk_rows(cfg, grid)
    return rows


_ALGEBRAIC_CHECKS = (
    ("hodge-star-reconstruction", "star-wedge-identity"),
    ("norm-preservation", "star-preserves-pointwise-norm"),
    ("curvature-contraction", "pointwise-nakano-identity"),
    ("wedge-omega-norm", "antisymmetric-part-identity"),
)


# The algebraic suite runs on its own grid of at most this many points.  Each
# point of a full-band draw is an independent instance of the same small
# algebra, so the configured grid would add points, not rigour.
SUITE_POINTS = 4096


def _suite_grid(grid: GridSpec) -> GridSpec:
    """The largest power-of-two grid N_s >= 8 with N_s <= N and N_s^(2n) <= SUITE_POINTS."""
    N = 8
    while 2 * N <= grid.N and (2 * N) ** (2 * grid.n) <= SUITE_POINTS:
        N *= 2
    return GridSpec(grid.n, N, grid.L)


def _suite_samples(grid: GridSpec, suite: GridSpec, count: int) -> int:
    """Suite draws per case: at least count band-limited draws' worth of coefficients.

    A default draw on the configured grid (random_form's kmax_frac 0.25) keeps
    m = 2 max(1, N/8) + 1 modes per axis, so count of them carry count m^(2n)
    independent gaussian coefficients per field; a full-band suite draw
    carries N_s^(2n).
    """
    m = 2 * max(1, grid.N // 8) + 1
    return -(-count * m ** (2 * grid.n) // suite.N ** (2 * grid.n))


def _algebraic_rows(grid: GridSpec, rank: int, count: int, tol: float, rng) -> list:
    """Worst residual of each pointwise algebraic identity over the suite's samples per case.

    The rows run on the suite grid, with full-band draws against one random
    metric drawn for the run; their N column is the suite grid's.
    """
    n = grid.n
    suite = _suite_grid(grid)
    samples = _suite_samples(grid, suite, count)
    h = _random_metric(suite, rank, rng)
    rows = []
    for p in [1] if n == 1 else [1, n]:
        worst = [0.0] * 4
        for _ in range(samples):
            worst = [max(w, r) for w, r in zip(worst, _algebraic_sample(h, p, rng))]
        for (check, verifies), value in zip(_ALGEBRAIC_CHECKS, worst):
            rows.append(_row(check, verifies, n, p, suite.N, float(value), tol, value <= tol))
    return rows


def _algebraic_sample(h: MetricField, p: int, rng) -> tuple:
    """Residuals of one full-band random sample, in _ALGEBRAIC_CHECKS order."""
    grid, rank = h.grid, h.rank
    n = grid.n
    alpha = random_form(grid, rank, n, p, rng, kmax_frac=1.0)
    gam = hodge_star(alpha)
    scale = max(np.abs(alpha.coeffs).max(), 1e-300)
    rec_err = np.abs(wedge(gam, omega_power(grid, p)).coeffs - alpha.coeffs).max() / scale
    nsq_a = norm_sq(alpha, h)
    norm_err = np.abs(nsq_a - norm_sq(gam, h)).max() / max(nsq_a.max(), 1e-300)
    gamma1 = random_form(grid, rank, n - 1, 0, rng, kmax_frac=1.0)
    nak_err = check_nakano_pointwise_identity(_random_symmetric_curvature(h, rng), gamma1, h)
    xi = random_form(grid, rank, n - 1, 1, rng, kmax_frac=1.0)
    return rec_err, norm_err, nak_err, xi_omega_identity(xi, h)


def _bk_source(grid: GridSpec, rank: int) -> EForm:
    """The (n,1)-form the Bochner-Kodaira checks run on: one bump off the box centre."""
    alpha = EForm.zeros(grid, rank, grid.n, 1)
    alpha.coeffs[..., 0, 0, 0] = smooth_source_bump(
        grid, tuple(grid.center + 0.3 * (-1) ** k for k in range(2 * grid.n)), 0.05 * grid.L
    )
    return alpha


def _bk_rows(cfg: ExperimentConfig, grid: GridSpec) -> list:
    """The pointwise and integrated Bochner-Kodaira rows on the configured metric."""
    n = grid.n
    cat = _metric_for(cfg, grid)
    rep_p, rep_i = bk_reports(_bk_source(grid, cat.metric.rank), cat.metric,
                              margin=cfg.seam_margin)
    tol, tol_int = cfg.identity, cfg.integrated
    return [
        _row("bk-pointwise", "del-dbar-identity", n, 1, grid.N,
             rep_p.relative_residual, tol, rep_p.relative_residual <= tol),
        _row("bk-integrated", "integral-identity-balance", n, 1, grid.N,
             rep_i.relative_residual, tol_int, rep_i.relative_residual <= tol_int),
    ]


def _random_metric(grid: GridSpec, rank: int, rng) -> MetricField:
    """A random positive hermitian metric, drawn independently at every point.

    Rank 1 is the weight exp(N(0, 1)); rank >= 2 is A A^H + I with A a complex
    gaussian matrix, which is not diagonal.
    """
    if rank == 1:
        return MetricField.from_weight(grid, np.exp(rng.standard_normal(grid.shape)))
    shape = grid.shape + (rank, rank)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return MetricField(grid, rank, a @ np.conj(np.swapaxes(a, -1, -2)) + np.eye(rank))


def _random_symmetric_curvature(h: MetricField, rng) -> CurvatureField:
    """Random curvature Theta_jk = h^-1 B_jk, drawn independently at every point.

    B, read as one nr x nr matrix with rows (j, a) and columns (k, b), is
    hermitian: B_kj = B_jk^H, which is the h-symmetry h Theta_jk = (h Theta_kj)^H.
    """
    n, rank = h.grid.n, h.rank
    shape = h.grid.shape + (n, n, rank, rank)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    blocks = 0.5 * (raw + np.conj(np.swapaxes(np.swapaxes(raw, -4, -3), -2, -1)))
    return CurvatureField(h.grid, rank, np.einsum("...ac,...jkcb->...jkab",
                                                  h.inverse_mat(), blocks))


def _certified_region(cfg: ExperimentConfig, grid: GridSpec, cat) -> np.ndarray:
    """Points off the seam band and inside the metric's plateau box: where floors hold."""
    margin = max(cfg.seam_margin, 0.5 - cat.plateau_radius / grid.L)
    if not margin < 0.5:
        raise ValidationError(f"plateau radius r0={cat.plateau_radius:g} vanishes at L={grid.L:g}")
    box = region(grid, margin)
    # an unmollified pole's lattice curvature rings far from its cell: refuse, carve no disc
    if cat.poles and not np.array_equal(region(grid, margin, cat.poles), box):
        offsets = ", ".join(f"({z.real - grid.center:g}, {z.imag - grid.center:g})"
                            for z in cat.poles)
        raise ValidationError(
            f"no certified floor region: a pole of catalog={cat.name} at offset_re, offset_im "
            f"= {offsets} lies within 3 spacings of the box trimming {margin:g}*L per side "
            f"(r0={cat.plateau_radius:g}, seam_margin={cfg.seam_margin:g}): move it or shrink r0"
        )
    return box


def run_positivity(cfg: ExperimentConfig, rng: np.random.Generator) -> list:
    grid = GridSpec(cfg.n, cfg.N, cfg.L)
    cat = _metric_for(cfg, grid)
    region = _certified_region(cfg, grid, cat)
    theta = curvature(cat.metric)
    rep = positivity_report(cat.metric, theta, region, symmetry_tol=cfg.symmetry)
    dn, dg, net_err = rep.delta_nakano, rep.delta_griffiths, rep.net_error
    tol = rep.ordering_tolerance
    rows = [
        _row("nakano-floor", "tuple-quadratic-form-minimum", grid.n, 0, grid.N,
             dn, "", True),
        _row("griffiths-floor", "decomposable-quadratic-form-minimum", grid.n, 0, grid.N,
             dg, "", True),
        _row("floor-ordering", "nakano-bounded-by-griffiths", grid.n, 0, grid.N,
             dn - dg, tol, dn <= dg + tol),
        _row("net-refinement", "direction-net-error-bound", grid.n, 0, grid.N,
             net_err, cfg.net, net_err <= cfg.net),
    ]
    if grid.n == 1:
        rows.append(_row("dimension-one-equality", "griffiths-equals-nakano", grid.n, 0,
                         grid.N, abs(dg - dn), 0.0, dg == dn))
    if cat.metric.mask is None and cat.metric.rank == 1:
        # floor of the dual equals minus the cap of the metric, exactly at rank one;
        # the cap is minus the floor of -Theta
        dual = dual_metric(cat.metric)
        dual_floor = griffiths_report(dual, curvature(dual), region,
                                      symmetry_tol=cfg.symmetry)[0]
        cap = -griffiths_report(cat.metric, CurvatureField(grid, theta.rank, -theta.theta),
                                region, symmetry_tol=cfg.symmetry)[0]
        rows.append(_row("duality-flip", "dual-curvature-sign-reversal", grid.n, 0, grid.N,
                         abs(dual_floor + cap), cfg.duality,
                         abs(dual_floor + cap) <= cfg.duality))
    return rows


def _bump_centers(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    """count source-bump centres, each up to spread off the box centre on every axis.

    All are drawn before the first solve, which fixes the order of the draws;
    each bump is built only when its solve starts.
    """
    return [tuple(grid.center + rng.uniform(-cfg.spread, cfg.spread, size=2 * grid.n))
            for _ in range(cfg.count)]


def run_solve(cfg: ExperimentConfig, rng: np.random.Generator, out_dir=None) -> list:
    grid = GridSpec(cfg.n, cfg.N, cfg.L)
    rows = []
    mean_ratios = []
    report_rows = []
    last_solution = None
    for c in cfg.sweep:
        cat = _metric_for(cfg, grid, c=c)
        h = cat.metric
        region = _certified_region(cfg, grid, cat)
        theta = curvature(h)
        delta = nakano_report(h, theta, region, symmetry_tol=cfg.symmetry)[0]
        delta_global = nakano_report(h, theta, None, symmetry_tol=cfg.symmetry)[0]
        rows.append(_row(f"certified-floor-c{c:g}", "interior-curvature-floor", 1, 1,
                         grid.N, delta, "", True))
        rows.append(_row(f"global-floor-c{c:g}", "uncertified-global-floor", 1, 1,
                         grid.N, delta_global, "", True))
        ratios = []
        for idx, center in enumerate(_bump_centers(cfg, grid, rng)):
            f = EForm.zeros(grid, h.rank, 1, 1)
            f.coeffs[..., 0, 0, 0] = smooth_source_bump(grid, center, cfg.sigma)
            f = project_to_range(f)
            u, rep = solve_min_norm(f, h, delta=delta, tol=cfg.cg, margin=cfg.seam_margin)
            check = verify_hormander(rep, tol=cfg.hormander)
            # an unclaimable bound (no positive certified floor) or a source
            # that samples to zero is a failure of the configured check, not a
            # silent skip
            ok = bool(check["passed"]) and rep.residual <= cfg.solve_residual and rep.f_norm2 > 0
            ratios.append(rep.ratio)
            value = rep.ratio if check["normalized_ratio"] is None else check["normalized_ratio"]
            rows.append(_row(f"hormander-bound-c{c:g}-{idx:02d}",
                             "weighted-minimal-solution-bound", 1, 1, grid.N,
                             value, 1.0 + cfg.hormander, ok))
            report_rows.append({"c": c, "source": idx, **rep.row()})
            last_solution = u
        mean_ratios.append(sum(ratios) / len(ratios))
    # a zero mean ratio (every source of that entry sampled to zero) checks no step
    steps = list(zip(mean_ratios, mean_ratios[1:]))
    rows.append(_row("sweep-monotonicity", "bound-ratio-monotone-in-floor", 1, 1, grid.N,
                     max((b / a if a > 0 else np.inf for a, b in steps), default=0.0), 1.0,
                     all(a > 0 and b <= a * (1 + 1e-9) for a, b in steps)))
    if out_dir is not None and report_rows:
        keys = list(report_rows[0])
        write_csv(Path(out_dir) / "solve_reports.csv", keys,
                  [[row[k] for k in keys] for row in report_rows])
        write_field(Path(out_dir) / "solution.hdbl", last_solution)
    return rows


def run_regularize(cfg: ExperimentConfig, rng: np.random.Generator) -> list:
    grid = GridSpec(cfg.n, cfg.N, cfg.L)
    cat = _metric_for(cfg, grid)
    schedule = MollifierSchedule(cfg.eps0, cfg.nu_max)
    center = tuple(grid.center + offset for offset in REGULARIZE_SOURCE_OFFSET)
    bump = smooth_source_bump(grid, center, cfg.sigma)
    f = EForm.zeros(grid, cat.metric.rank, 1, 1)
    f.coeffs[..., 0, 0, 0] = bump
    f = project_to_range(f)
    eps_req = cfg.floor_eps
    u, rep = regularized_solve(f, cat, schedule)
    rows = []
    for nu, (eps, delta) in enumerate(zip(rep.eps_values, rep.delta_values), start=1):
        rows.append(_row(f"floor-nu{nu}", "mollified-curvature-floor", 1, 1, grid.N,
                         delta, cat.delta_target - eps_req,
                         delta >= cat.delta_target - eps_req))
    rows.append(_row("monotone-ordering", "dual-mollification-ordering", 1, 1, grid.N,
                     rep.monotone.max_defect, cfg.monotone,
                     rep.monotone.max_defect <= cfg.monotone))
    rows.append(_row("unchecked-pairs", "kernel-radius-exceeds-certified-zone", 1, 1,
                     grid.N, len(rep.monotone.unchecked_pairs), "", True))
    limit = rep.f_norm_h / max(cat.delta_target - rep.eps_floor, 1e-12)
    rows.append(_row("uniform-bound-family", "cross-radius-norm-bounds", 1, 1, grid.N,
                     max(rep.bound_matrix.values()) / limit, 1.0, rep.uniform_bound_ok))
    last3 = rep.cauchy_defects[-3:]
    dec = last3[0] >= last3[1] >= last3[2] if len(last3) == 3 else True
    rows.append(_row("weak-limit-stability", "cauchy-defect-decreasing", 1, 1, grid.N,
                     rep.cauchy_defects[-1], rep.cauchy_defects[-2], dec))
    rows.append(_row("final-ratio", "singular-weight-solution-bound", 1, 1, grid.N,
                     rep.final_ratio, 1.0 + cfg.hormander,
                     rep.final_ratio <= 1.0 + cfg.hormander))
    return rows


def report_convergence(results: list) -> dict:
    """Least-squares slope of log residual vs log N, with a noise-floor rule."""
    if len(results) < 3:
        raise ValidationError("convergence fit needs at least 3 resolutions")
    Ns = np.array([float(N) for N, _ in results])
    res = np.array([float(r) for _, r in results])
    saturated = bool((res < 1e-13).any())
    fit_res = np.maximum(res, 1e-300)
    slope = float(np.polyfit(np.log(Ns), np.log(fit_res), 1)[0])
    return {"slope": slope, "saturated": saturated}


def run_convergence(cfg: ExperimentConfig, rng: np.random.Generator) -> tuple:
    grid_ns, slope_tol = cfg.resolutions, cfg.slope
    results = []
    for N in grid_ns:
        grid = GridSpec(cfg.n, N, cfg.L)
        cat = _metric_for(cfg, grid)
        rep = bk_pointwise(_bk_source(grid, cat.metric.rank), cat.metric, margin=cfg.seam_margin)
        results.append((N, rep.relative_residual))
    fit = report_convergence(results)
    rows = [_row(f"bk-residual-N{N}", "del-dbar-identity", cfg.n, 1, N, r, "", True)
            for N, r in results]
    ok = fit["saturated"] or fit["slope"] <= slope_tol
    rows.append(_row("spectral-slope", "residual-decay-rate", cfg.n, 1, max(grid_ns),
                     fit["slope"], slope_tol, ok))
    rows.append(_row("noise-floor", "saturation-detection", cfg.n, 1, max(grid_ns),
                     int(fit["saturated"]), "", True))
    return rows, results


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(cfg: ExperimentConfig, out_dir) -> int:
    _check_relations(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    if cfg.operation == "solve":
        rows = run_solve(cfg, rng, out_dir=out)
    elif cfg.operation == "convergence":
        rows, plot_points = run_convergence(cfg, rng)
        write_svg_plot(out / "convergence.svg", plot_points,
                       "identity residual vs resolution", "N", "residual")
    else:
        rows = {"identities": run_identities, "positivity": run_positivity,
                "regularize": run_regularize}[cfg.operation](cfg, rng)
    write_csv(out / f"{cfg.operation}.csv", HEADER, rows)
    failed = [row for row in rows if not row[-1]]
    for row in failed:
        print(f"FAIL {row[0]}: value {row[5]!r} vs threshold {row[6]!r}", file=sys.stderr)
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dbarlab",
        description="verification pipelines for curvature identities and weighted solves",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in OPERATIONS:
        cmd = sub.add_parser(name, help=f"run the {name} pipeline")
        cmd.add_argument("--config", required=True, help="experiment config path")
        cmd.add_argument("--out", default="out", help="report output directory")
        cmd.add_argument("--seed", default=None, help="seed override, read as the seed field")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = parse_config(args.config)
        if cfg.operation != args.command:
            raise ValidationError(
                f"field 'name' in [operation] is {cfg.operation!r}, not the subcommand "
                f"{args.command!r}"
            )
        if args.seed is not None:
            seed_row = next(spec for spec in FIELDS if spec.name == "seed")
            cfg.seed = _read(seed_row, {"seed": args.seed}, {})
        return run(cfg, args.out)
    except (OSError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DbarLabError as exc:
        print(f"check failed with error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
