"""Experiment runner: reproducible pipelines with machine-readable reports.

Configs are flat key = value text with [section] headers (no structured-format
dependency); '#' starts a comment.  Every pipeline writes one RFC 4180 CSV
whose rows carry the check slug, measured value, threshold, and pass flag, so
a report is self-describing.  Identical config and seed produce byte-identical
reports.

Exit codes: 0 all configured checks passed, 2 at least one check failed,
1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
from .grid import GridSpec, interior_mask
from .hermitian import MetricField, curvature, dual_metric
from .hormander import project_to_range, solve_min_norm, verify_hormander
from .io import write_csv, write_svg_plot
from .positivity import (
    check_nakano_pointwise_identity,
    griffiths_report,
    nakano_report,
)
from .singular import MollifierSchedule, regularized_solve, singular_catalog
from .weights import (
    BUMP_SUPPORT_RADIUS,
    default_smoothing_scale,
    gaussian_metric,
    random_form,
    smooth_source_bump,
)

OPERATIONS = ("identities", "positivity", "solve", "regularize", "convergence")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    n: int
    N: int
    L: float
    seam_margin: float
    operation: str
    seed: int
    metric: dict = field(default_factory=dict)
    op_params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))


def _parse_sections(text: str) -> dict:
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected key = value, got {raw!r}")
        if current is None:
            raise ValidationError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        sections[current][key] = value
    return sections


def _require(section: dict, name: str, caster, section_name: str):
    if name not in section:
        raise ValidationError(f"missing field {name!r} in [{section_name}]")
    try:
        return caster(section[name])
    except ValueError as exc:
        raise ValidationError(f"field {name!r} in [{section_name}]: {exc}") from exc


def _optional(section: dict, name: str, caster, section_name: str, default):
    """_require for a field that may be absent; an absent field reads as default."""
    return _require(section, name, caster, section_name) if name in section else default


def _finite(text: str) -> float:
    """float() that also rejects nan and the infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def _list_of(caster):
    """Caster for a non-empty comma-separated list of caster values."""
    def cast(text: str) -> list:
        if not text.strip():
            raise ValueError("must list at least one value")
        return [caster(item) for item in text.split(",")]
    return cast


def parse_config(path) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    sections = _parse_sections(text)
    domain = sections.get("domain", {})
    op = sections.get("operation", {})
    random = sections.get("random", {})
    tolerances = sections.get("tolerances", {})
    cfg = ExperimentConfig(
        n=_require(domain, "n", int, "domain"),
        N=_require(domain, "N", int, "domain"),
        L=_require(domain, "L", float, "domain"),
        seam_margin=_optional(domain, "seam_margin", float, "domain", 0.125),
        operation=_require(op, "name", str, "operation"),
        seed=_optional(random, "seed", int, "random", 20260808),
        metric=dict(sections.get("metric", {})),
        op_params=dict(op),
        tolerances={k: _require(tolerances, k, float, "tolerances") for k in tolerances},
    )
    if cfg.operation not in OPERATIONS:
        raise ValidationError(
            f"unknown operation {cfg.operation!r}; pick one of {', '.join(OPERATIONS)}"
        )
    for name, value in (("n", cfg.n), ("N", cfg.N)):
        if value <= 0:
            raise ValidationError(f"domain field {name!r} must be positive")
    if not 0 <= cfg.seam_margin < 0.5:
        raise ValidationError(
            f"field 'seam_margin' in [domain] must lie in [0, 0.5), got {cfg.seam_margin}"
        )
    for name, t in cfg.tolerances.items():
        if not t > 0:
            raise ValidationError(f"field {name!r} in [tolerances] must be positive, got {t}")
    return cfg


def _op_int(cfg: ExperimentConfig, name: str, default: int, minimum: int, why: str) -> int:
    """Integer [operation] field, rejected by name if unparsable or below minimum."""
    value = _optional(cfg.op_params, name, int, "operation", default)
    if value < minimum:
        raise ValidationError(
            f"field {name!r} in [operation] must be at least {minimum} ({why}), got {value}"
        )
    return value


def _op_positive(cfg: ExperimentConfig, name: str, default: float) -> float:
    """Finite positive [operation] field, rejected by name otherwise."""
    value = _optional(cfg.op_params, name, _finite, "operation", default)
    if not value > 0:
        raise ValidationError(f"field {name!r} in [operation] must be positive, got {value}")
    return value


def _metric_rank(cfg: ExperimentConfig) -> int:
    """The [metric] rank, at least 1."""
    rank = _optional(cfg.metric, "rank", int, "metric", 1)
    if rank < 1:
        raise ValidationError(f"field 'rank' in [metric] must be at least 1, got {rank}")
    return rank


def _grid(cfg: ExperimentConfig) -> GridSpec:
    return GridSpec(cfg.n, cfg.N, cfg.L)


def _metric_for(cfg: ExperimentConfig, grid: GridSpec, c: float | None = None):
    """CatalogMetric from the config's [metric] block; c, if given, overrides its c.

    Every number is parsed by name and must be finite.
    """
    block = cfg.metric
    name = block.get("catalog", "gaussian")
    rank = _metric_rank(cfg)
    cval = float(c) if c is not None else _optional(block, "c", _finite, "metric", 1.0)
    kwargs = {"c": cval}
    for key in ("budget", "r0", "s", "a", "a1", "a2"):
        if key in block:
            kwargs[key] = _require(block, key, _finite, "metric")
    if "offset_re" in block or "offset_im" in block:
        kwargs["offset"] = complex(
            _optional(block, "offset_re", _finite, "metric", 0.55),
            _optional(block, "offset_im", _finite, "metric", 0.35),
        )
    if name == "gaussian" and rank != 1:
        s = kwargs.get("s")
        h, r0 = gaussian_metric(grid, cval, rank=rank, r0=kwargs.get("r0"), s=s)
        from .singular import CatalogMetric

        return CatalogMetric("gaussian", h, (), cval, r0,
                             default_smoothing_scale(grid, cval) if s is None else s)
    return singular_catalog(name, grid, **kwargs)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

HEADER = ["check", "verifies", "n", "p", "N", "value", "threshold", "passed"]


def _row(check, verifies, n, p, N, value, threshold, passed):
    return [check, verifies, n, p, N, value, threshold, int(bool(passed))]


def run_identities(cfg: ExperimentConfig, rng: np.random.Generator) -> list:
    grid = _grid(cfg)
    n = grid.n
    tol_alg = cfg.tol("algebraic", 1e-12)
    tol_diff = cfg.tol("identity", 1e-6)
    count = _op_int(cfg, "count", 100, 1, "every algebraic row reports the worst of its samples")
    rows = []

    # constant lemma, exact
    exact = True
    for nn in range(1, 5):
        for p in range(1, nn + 1):
            lhs1 = c_const(nn - p) * c_const(p - 1) * (-1) ** ((nn - p) * (p - 1))
            lhs2 = 1j * c_const(nn - p) * (-1) ** (nn - p)
            exact &= lhs1 == c_const(nn - 1) and lhs2 == c_const(nn - p + 1)
    rows.append(_row("constants-lemma", "unimodular-normalizer-relations", n, 0, grid.N,
                     0.0 if exact else 1.0, 0.0, exact))

    rows += _algebraic_rows(grid, _metric_rank(cfg), count, tol_alg, rng)
    rows += _bk_rows(cfg, grid, tol_diff)
    return rows


_ALGEBRAIC_CHECKS = (
    ("hodge-star-reconstruction", "star-wedge-identity"),
    ("norm-preservation", "star-preserves-pointwise-norm"),
    ("curvature-contraction", "pointwise-nakano-identity"),
    ("wedge-omega-norm", "antisymmetric-part-identity"),
)


def _algebraic_rows(grid: GridSpec, rank: int, count: int, tol: float, rng) -> list:
    """Worst residual of each pointwise algebraic identity over count samples per case."""
    n = grid.n
    h = MetricField.identity(grid, rank)
    rows = []
    for p in [1] if n == 1 else [1, n]:
        worst = [0.0] * 4
        for _ in range(count):
            worst = [max(w, r) for w, r in zip(worst, _algebraic_sample(grid, h, p, rng))]
        for (check, verifies), value in zip(_ALGEBRAIC_CHECKS, worst):
            rows.append(_row(check, verifies, n, p, grid.N, float(value), tol, value <= tol))
    return rows


def _algebraic_sample(grid: GridSpec, h: MetricField, p: int, rng) -> tuple:
    """Residuals of one random sample, in _ALGEBRAIC_CHECKS order; its fields die on return."""
    n, rank = grid.n, h.rank
    alpha = random_form(grid, rank, n, p, rng)
    gam = hodge_star(alpha)
    scale = max(np.abs(alpha.coeffs).max(), 1e-300)
    rec_err = np.abs(wedge(gam, omega_power(grid, p)).coeffs - alpha.coeffs).max() / scale
    nsq_a = norm_sq(alpha, h).values.real
    del alpha
    norm_err = np.abs(nsq_a - norm_sq(gam, h).values.real).max() / max(nsq_a.max(), 1e-300)
    del gam, nsq_a
    gamma1 = random_form(grid, rank, n - 1, 0, rng)
    nak_err = check_nakano_pointwise_identity(
        _random_symmetric_curvature(grid, rank, rng), gamma1, h
    )
    del gamma1
    xi = random_form(grid, rank, n - 1, 1, rng)
    return rec_err, norm_err, nak_err, xi_omega_identity(xi, h)


def _bk_rows(cfg: ExperimentConfig, grid: GridSpec, tol: float) -> list:
    """The pointwise and integrated Bochner-Kodaira rows on the configured metric."""
    n = grid.n
    cat = _metric_for(cfg, grid)
    alpha = EForm.zeros(grid, cat.metric.rank, n, 1)
    alpha.coeffs[..., 0, 0, 0] = smooth_source_bump(
        grid, tuple(grid.center + 0.3 * (-1) ** k for k in range(2 * n)), 0.05 * grid.L
    ).values
    rep_p, rep_i = bk_reports(alpha, cat.metric, margin=cfg.seam_margin)
    tol_int = cfg.tol("integrated", 1e-8)
    return [
        _row("bk-pointwise", "del-dbar-identity", n, 1, grid.N,
             rep_p.relative_residual, tol, rep_p.relative_residual <= tol),
        _row("bk-integrated", "integral-identity-balance", n, 1, grid.N,
             rep_i.relative_residual, tol_int, rep_i.relative_residual <= tol_int),
    ]


def _random_symmetric_curvature(grid, rank, rng):
    """Random curvature blocks with the hermitian h-symmetry (h = identity)."""
    from .hermitian import CurvatureField

    n = grid.n
    blocks = rng.standard_normal((n, n, rank, rank)) + 1j * rng.standard_normal(
        (n, n, rank, rank)
    )
    for j in range(n):
        for k in range(j, n):
            blocks[k, j] = np.conj(blocks[j, k].T)
    return CurvatureField.constant(grid, rank, blocks)


def run_positivity(cfg: ExperimentConfig, rng: np.random.Generator) -> list:
    grid = _grid(cfg)
    cat = _metric_for(cfg, grid)
    margin = max(cfg.seam_margin, 0.5 - cat.plateau_radius / grid.L)
    region = interior_mask(grid, margin)
    theta = curvature(cat.metric)
    sym_tol = cfg.tol("symmetry", 1e-6)
    dn, argn, _vec = nakano_report(cat.metric, theta, region, symmetry_tol=sym_tol)
    dg, argg, _xi, net_err = griffiths_report(cat.metric, theta, region,
                                              symmetry_tol=sym_tol)
    rows = [
        _row("nakano-floor", "tuple-quadratic-form-minimum", grid.n, 0, grid.N,
             dn, "", True),
        _row("griffiths-floor", "decomposable-quadratic-form-minimum", grid.n, 0, grid.N,
             dg, "", True),
        _row("floor-ordering", "nakano-bounded-by-griffiths", grid.n, 0, grid.N,
             dn - dg, 1e-9 + net_err, dn <= dg + 1e-9 + net_err),
        _row("net-refinement", "direction-net-error-bound", grid.n, 0, grid.N,
             net_err, cfg.tol("net", 1e-4), net_err <= cfg.tol("net", 1e-4)),
    ]
    if grid.n == 1:
        rows.append(_row("dimension-one-equality", "griffiths-equals-nakano", grid.n, 0,
                         grid.N, abs(dg - dn), 0.0, dg == dn))
    if cat.metric.mask is None and cat.metric.rank == 1:
        # floor of the dual equals minus the cap of the metric, exactly at rank one
        dual = dual_metric(cat.metric)
        dual_floor = griffiths_report(dual, curvature(dual), region,
                                      symmetry_tol=sym_tol)[0]
        cap = griffiths_report(cat.metric, theta, region, mode="upper",
                               symmetry_tol=sym_tol)[0]
        rows.append(_row("duality-flip", "dual-curvature-sign-reversal", grid.n, 0, grid.N,
                         abs(dual_floor + cap), cfg.tol("duality", 1e-6),
                         abs(dual_floor + cap) <= cfg.tol("duality", 1e-6)))
    return rows


def _bump_family(grid, rng, count, spread, sigma):
    centers = []
    for _ in range(count):
        off = rng.uniform(-spread, spread, size=2 * grid.n)
        centers.append(tuple(grid.center + o for o in off))
    return [smooth_source_bump(grid, cen, sigma) for cen in centers]


def run_solve(cfg: ExperimentConfig, rng: np.random.Generator, out_dir=None) -> list:
    grid = _grid(cfg)
    if grid.n != 1:
        raise ValidationError("the solve pipeline is configured for n = 1")
    count = _op_int(cfg, "count", 20, 1, "each sweep step averages over its sources")
    sweep = _optional(cfg.op_params, "sweep", _list_of(_finite), "operation", [1.0, 2.0, 4.0])
    sigma = _op_positive(cfg, "sigma", 0.3)
    spread = _optional(cfg.op_params, "spread", _finite, "operation", 0.25)
    if abs(spread) + BUMP_SUPPORT_RADIUS * sigma > 0.5 * grid.L:
        # a source centre may sit spread off the box centre on each axis
        raise ValidationError(
            f"field 'spread' in [operation] plus the source support radius "
            f"{BUMP_SUPPORT_RADIUS:g}*sigma must fit in L/2 = {0.5 * grid.L:g}, "
            f"got spread = {spread:g}, sigma = {sigma:g}"
        )
    tol_h = cfg.tol("hormander", 0.05)
    tol_res = cfg.tol("solve_residual", 1e-9)
    rows = []
    mean_ratios = []
    report_rows = []
    last_solution = None
    for c in sweep:
        cat = _metric_for(cfg, grid, c=c)
        h = cat.metric
        theta = curvature(h)
        margin = max(cfg.seam_margin, 0.5 - cat.plateau_radius / grid.L)
        region = interior_mask(grid, margin)
        delta = nakano_report(h, theta, region)[0]
        delta_global = nakano_report(h, theta, None)[0]
        rows.append(_row(f"certified-floor-c{c:g}", "interior-curvature-floor", 1, 1,
                         grid.N, delta, "", True))
        rows.append(_row(f"global-floor-c{c:g}", "uncertified-global-floor", 1, 1,
                         grid.N, delta_global, "", True))
        ratios = []
        for idx, bump in enumerate(_bump_family(grid, rng, count, spread, sigma)):
            f = EForm.zeros(grid, 1, 1, 1)
            f.coeffs[..., 0, 0, 0] = bump.values
            f = project_to_range(f)
            u, rep = solve_min_norm(f, h, delta=delta, tol=cfg.tol("cg", 1e-10))
            check = verify_hormander(rep, delta, 1, tol=tol_h)
            # an unclaimable bound (no positive certified floor) is a failure
            # of the configured check, not a silent skip
            ok = bool(check["passed"]) and rep.residual <= tol_res
            ratios.append(rep.ratio)
            value = rep.ratio if check["normalized_ratio"] is None else check["normalized_ratio"]
            rows.append(_row(f"hormander-bound-c{c:g}-{idx:02d}",
                             "weighted-minimal-solution-bound", 1, 1, grid.N,
                             value, 1.0 + tol_h, ok))
            rep_row = rep.row()
            rep_row["c"] = c
            rep_row["source"] = idx
            report_rows.append(rep_row)
            last_solution = u
        mean_ratios.append(sum(ratios) / len(ratios))
    non_increasing = all(
        mean_ratios[i + 1] <= mean_ratios[i] * (1 + 1e-9) for i in range(len(mean_ratios) - 1)
    )
    rows.append(_row("sweep-monotonicity", "bound-ratio-monotone-in-floor", 1, 1, grid.N,
                     max(mean_ratios[i + 1] / mean_ratios[i] for i in range(len(mean_ratios) - 1))
                     if len(mean_ratios) > 1 else 0.0,
                     1.0, non_increasing))
    if out_dir is not None and report_rows:
        keys = ["c", "source"] + [k for k in report_rows[0] if k not in ("c", "source")]
        write_csv(Path(out_dir) / "solve_reports.csv", keys,
                  [[row[k] for k in keys] for row in report_rows])
        if last_solution is not None:
            from .io import write_field

            write_field(Path(out_dir) / "solution.hdbl", last_solution)
    return rows


def run_regularize(cfg: ExperimentConfig, rng: np.random.Generator) -> list:
    nu_max = _op_int(cfg, "nu_max", 8, 3,
                     "the weak-limit check compares the last two Cauchy defects")
    grid = _grid(cfg)
    cat = _metric_for(cfg, grid)
    eps0 = _optional(cfg.op_params, "eps0", _finite, "operation", 16.0 * grid.spacing)
    sigma = _op_positive(cfg, "sigma", 0.2)
    schedule = MollifierSchedule(eps0, nu_max)
    bump = smooth_source_bump(
        grid, (grid.center - 0.7, grid.center - 0.5), sigma
    )
    f = EForm.zeros(grid, cat.metric.rank, 1, 1)
    f.coeffs[..., 0, 0, 0] = bump.values
    f = project_to_range(f)
    eps_req = cfg.tol("floor_eps", 0.1)
    u, rep = regularized_solve(f, cat, schedule, eps_required=eps_req, strict=False)
    rows = []
    for nu, (eps, delta) in enumerate(zip(rep.eps_values, rep.delta_values), start=1):
        rows.append(_row(f"floor-nu{nu}", "mollified-curvature-floor", 1, 1, grid.N,
                         delta, cat.delta_target - eps_req,
                         delta >= cat.delta_target - eps_req))
    rows.append(_row("monotone-ordering", "dual-mollification-ordering", 1, 1, grid.N,
                     rep.monotone.max_defect, cfg.tol("monotone", 1e-10),
                     rep.monotone.max_defect <= cfg.tol("monotone", 1e-10)))
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
                     rep.final_ratio, 1.0 + cfg.tol("hormander", 0.05),
                     rep.final_ratio <= 1.0 + cfg.tol("hormander", 0.05)))
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
    grid_ns = _optional(cfg.op_params, "resolutions", _list_of(int), "operation", [16, 32, 64])
    slope_tol = _optional(cfg.op_params, "slope", _finite, "operation", -4.0)
    results = []
    for N in grid_ns:
        sub = ExperimentConfig(cfg.n, N, cfg.L, cfg.seam_margin, cfg.operation,
                               cfg.seed, cfg.metric, cfg.op_params, cfg.tolerances)
        grid = GridSpec(cfg.n, N, cfg.L)
        cat = _metric_for(sub, grid)
        alpha = EForm.zeros(grid, cat.metric.rank, grid.n, 1)
        bump = smooth_source_bump(
            grid, tuple(grid.center + 0.3 * (-1) ** k for k in range(2 * grid.n)),
            0.05 * grid.L,
        )
        alpha.coeffs[..., 0, 0, 0] = bump.values
        rep = bk_pointwise(alpha, cat.metric, margin=cfg.seam_margin)
        results.append((N, rep.relative_residual))
    fit = report_convergence(results)
    rows = []
    for N, r in results:
        rows.append(_row(f"bk-residual-N{N}", "del-dbar-identity", cfg.n, 1, N, r, "", True))
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    plot_points = None
    if cfg.operation == "identities":
        rows = run_identities(cfg, rng)
    elif cfg.operation == "positivity":
        rows = run_positivity(cfg, rng)
    elif cfg.operation == "solve":
        rows = run_solve(cfg, rng, out_dir=out)
    elif cfg.operation == "regularize":
        rows = run_regularize(cfg, rng)
    elif cfg.operation == "convergence":
        rows, plot_points = run_convergence(cfg, rng)
    else:  # pragma: no cover - parse_config already screens this
        raise ValidationError(f"unknown operation {cfg.operation!r}")
    write_csv(out / f"{cfg.operation}.csv", HEADER, rows)
    if plot_points is not None:
        write_svg_plot(out / "convergence.svg", plot_points,
                       "identity residual vs resolution", "N", "residual")
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
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = parse_config(args.config)
        if cfg.operation != args.command:
            raise ValidationError(
                f"config operation {cfg.operation!r} does not match subcommand {args.command!r}"
            )
        if args.seed is not None:
            cfg.seed = int(args.seed)
        return run(cfg, args.out)
    except (OSError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DbarLabError as exc:
        print(f"check failed with error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
