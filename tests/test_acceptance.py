"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line with the measured value so the suite
reads as a checklist under `pytest -s tests/test_acceptance.py`.
"""

import time

import numpy as np

from dbarlab.bochner import basic_estimate, bk_integrated, bk_pointwise, xi_omega_identity
from dbarlab.cli import main as cli_main, report_convergence
from dbarlab.exterior import (
    EForm,
    c_const,
    hodge_star,
    inner_product,
    norm_sq,
    omega_power,
    wedge,
)
from dbarlab.grid import GridSpec, integrate
from dbarlab.hermitian import CurvatureField, curvature, dbar, dbar_star_formal
from dbarlab.hormander import (
    apply_Tstar,
    norm2,
    project_to_range,
    solve_min_norm,
    verify_hormander,
)
from dbarlab.metric import MetricField
from dbarlab.positivity import (
    check_nakano_pointwise_identity,
    griffiths_report,
    nakano_report,
    positivity_report,
)
from dbarlab.singular import MollifierSchedule, regularized_solve, singular_catalog
from dbarlab.weights import random_band_limited, smooth_source_bump
from field_helpers import complex_coordinate, plateau_bump, scale_by_field
import positivity_reference
from test_positivity import WITNESS_BLOCKS


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion}] {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def raw_form(grid, rank, p, q, rng):
    f = EForm.zeros(grid, rank, p, q)
    f.coeffs[...] = rng.standard_normal(f.coeffs.shape) + 1j * rng.standard_normal(
        f.coeffs.shape
    )
    return f


def random_pointwise_curvature(grid, rank, rng, h=None):
    """Independent curvature blocks at every grid point, hermitian-symmetric
    with respect to h (identity when omitted): h Theta_jk = (h Theta_kj)^H."""
    n = grid.n
    shape = grid.shape + (n, n, rank, rank)
    blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for j in range(n):
        blocks[..., j, j, :, :] = 0.5 * (
            blocks[..., j, j, :, :] + np.conj(np.swapaxes(blocks[..., j, j, :, :], -1, -2))
        )
        for k in range(j + 1, n):
            blocks[..., k, j, :, :] = np.conj(np.swapaxes(blocks[..., j, k, :, :], -1, -2))
    if h is not None:
        hinv = h.inverse_mat()
        blocks = np.einsum("...ab,...jkbc->...jkac", hinv, blocks)
    return CurvatureField(grid, rank, blocks)


def random_pointwise_metric(grid, rank, rng):
    raw = rng.standard_normal(grid.shape + (rank, rank)) + 1j * rng.standard_normal(
        grid.shape + (rank, rank)
    )
    mat = raw @ np.conj(np.swapaxes(raw, -1, -2))
    for a in range(rank):
        mat[..., a, a] += 2.0 * rank
    return MetricField(grid, rank, mat)


def test_criterion_1_constant_lemma():
    t0 = time.time()
    exact = True
    for n in range(1, 5):
        for p in range(1, n + 1):
            exact &= (
                c_const(n - p) * c_const(p - 1) * (-1) ** ((n - p) * (p - 1))
                == c_const(n - 1)
            )
            exact &= 1j * c_const(n - p) * (-1) ** (n - p) == c_const(n - p + 1)
    elapsed = time.time() - t0
    report(1, exact and elapsed < 1.0,
           f"both normalizer relations exact over 1 <= p <= n <= 4 in {elapsed:.3f}s")


def test_criterion_2_algebraic_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(20260808)
    tol = 1e-12
    worst = 0.0
    instance_counts = {}
    for n, p in ((1, 1), (2, 1), (2, 2)):
        grid = GridSpec(n, 16, 8.0)
        rank = 2
        # every grid point carries independent random data, so each form draw
        # contributes one algebraic instance per point; (1,1) also gets the
        # literal thousand independent draws since it is cheap
        draws = 1000 if n == 1 else 16
        instance_counts[(n, p)] = draws * grid.N ** (2 * n)
        h = random_pointwise_metric(grid, rank, rng)
        theta = random_pointwise_curvature(grid, rank, rng, h=h)
        for _ in range(draws):
            alpha = raw_form(grid, rank, n, p, rng)
            gamma = hodge_star(alpha)
            rec = wedge(gamma, omega_power(grid, p))
            worst = max(worst, np.abs(rec.coeffs - alpha.coeffs).max()
                        / np.abs(alpha.coeffs).max())
            na = norm_sq(alpha, h)
            ng = norm_sq(gamma, h)
            worst = max(worst, np.abs(na - ng).max() / na.max())
            gam1 = raw_form(grid, rank, n - 1, 0, rng)
            worst = max(worst, check_nakano_pointwise_identity(theta, gam1, h))
            xi = raw_form(grid, rank, n - 1, 1, rng)
            worst = max(worst, xi_omega_identity(xi, h))
    elapsed = time.time() - t0
    counts = ", ".join(f"({n},{p}): {c:,}" for (n, p), c in instance_counts.items())
    report(2, worst <= tol and elapsed < 30.0,
           f"hodge reconstruction, norm preservation, curvature contraction and "
           f"wedge-omega identities at worst {worst:.2e} (tol {tol}) over point-instances "
           f"{counts} in {elapsed:.1f}s")


def test_criterion_3_differential_identity_suite():
    t0 = time.time()
    results = []
    worst_at_64 = {"pointwise": 0.0, "integrated": 0.0}
    for N in (16, 32, 64):
        grid = GridSpec(1, N, 8.0)
        worst_pointwise = 0.0
        for c, r0 in ((1.0, 1.0), (2.0, 0.7), (4.0, 0.5)):
            h = singular_catalog("gaussian", grid, c=c, r0=r0, s=0.30).metric
            alpha = EForm.zeros(grid, 1, 1, 1)
            alpha.coeffs[..., 0, 0, 0] = smooth_source_bump(
                grid, (grid.center + 0.3, grid.center - 0.2), 0.42
            )
            rp = bk_pointwise(alpha, h)
            ri = bk_integrated(alpha, h)
            worst_pointwise = max(worst_pointwise, rp.relative_residual)
            if N == 64:
                worst_at_64["pointwise"] = max(worst_at_64["pointwise"], rp.relative_residual)
                worst_at_64["integrated"] = max(worst_at_64["integrated"], ri.relative_residual)
        results.append((N, worst_pointwise))
    fit = report_convergence(results)
    ok = (
        worst_at_64["pointwise"] <= 1e-6
        and worst_at_64["integrated"] <= 1e-8
        and (fit["saturated"] or fit["slope"] <= -4.0)
    )
    elapsed = time.time() - t0
    report(3, ok and elapsed < 300.0,
           f"del-dbar residuals at N=64: pointwise {worst_at_64['pointwise']:.2e} (<=1e-6), "
           f"integrated {worst_at_64['integrated']:.2e} (<=1e-8), slope "
           f"{fit['slope']:.1f} (<= -4) across N=16,32,64 for the weight family "
           f"c in {{1,2,4}} in {elapsed:.1f}s")


def test_criterion_4_adjoint_exactness():
    t0 = time.time()
    grid = GridSpec(1, 16, 8.0)
    rng = np.random.default_rng(44)
    phi = 0.5 * random_band_limited(grid, rng, 0.15).real
    h = MetricField.from_weight(grid, np.exp(-phi), 1)
    worst = 0.0
    for _ in range(1000):
        u = raw_form(grid, 1, 1, 0, rng)
        v = raw_form(grid, 1, 1, 1, rng)
        lhs = integrate(grid, inner_product(dbar(u), v, h))
        rhs = integrate(grid, inner_product(u, apply_Tstar(v, h), h))
        worst = max(worst, abs(lhs - rhs) / np.sqrt(norm2(u, h) * norm2(v, h)))

    g64 = GridSpec(1, 64, 8.0)
    h64 = singular_catalog("gaussian", g64, c=1.0, r0=1.0, s=0.30).metric
    v = EForm.zeros(g64, 1, 1, 1)
    v.coeffs[..., 0, 0, 0] = smooth_source_bump(g64, (g64.center + 0.3, g64.center), 0.35)
    diff = apply_Tstar(v, h64).coeffs - dbar_star_formal(v, h64).coeffs
    formal_gap = np.sqrt(
        norm2(EForm(g64, 1, 1, 0, diff), h64) / norm2(dbar_star_formal(v, h64), h64)
    )
    elapsed = time.time() - t0
    report(4, worst <= 1e-12 and formal_gap <= 1e-6,
           f"discrete adjoint defect {worst:.2e} (<=1e-12) on 1000 random pairs; "
           f"formal vs discrete adjoint {formal_gap:.2e} (<=1e-6) on interior data at "
           f"N=64 in {elapsed:.1f}s")


def test_criterion_5_hormander_bound():
    t0 = time.time()
    grid = GridSpec(1, 64, 8.0)
    rng = np.random.default_rng(55)
    mean_ratio = {}
    all_ok = True
    detail_bits = []
    for c, count in ((1.0, 20), (2.0, 7), (4.0, 7)):
        gauss = singular_catalog("gaussian", grid, c=c)
        h, r0 = gauss.metric, gauss.plateau_radius
        z = complex_coordinate(grid, 0)
        box = (np.abs(z.real) <= 0.95 * r0) & (np.abs(z.imag) <= 0.95 * r0)
        delta = nakano_report(h, curvature(h), region=box)[0]
        ratios = []
        for _ in range(count):
            center = tuple(grid.center + rng.uniform(-0.25, 0.25) for _ in range(2))
            f = EForm.zeros(grid, 1, 1, 1)
            f.coeffs[..., 0, 0, 0] = smooth_source_bump(grid, center, 0.3)
            f = project_to_range(f)
            u, rep = solve_min_norm(f, h, delta=delta)
            check = verify_hormander(rep, tol=0.05)
            all_ok &= bool(check["passed"]) and rep.residual <= 1e-9
            ratios.append(rep.ratio)
        mean_ratio[c] = float(np.mean(ratios))
        detail_bits.append(f"c={c:g}: delta={delta:.4f}, mean ratio {mean_ratio[c]:.4f}")
    monotone = mean_ratio[2.0] <= mean_ratio[1.0] and mean_ratio[4.0] <= mean_ratio[2.0]
    elapsed = time.time() - t0
    report(5, all_ok and monotone and elapsed < 600.0,
           "every solve met ratio <= 1.05/(p delta) with residual <= 1e-9; "
           + "; ".join(detail_bits)
           + f"; ratios non-increasing in the weight sweep; {elapsed:.1f}s")


def test_criterion_6_basic_estimate():
    t0 = time.time()
    rng = np.random.default_rng(66)
    worst = 0.0
    for n, p, N, count in ((1, 1, 64, 100), (2, 1, 16, 100), (2, 2, 16, 100)):
        grid = GridSpec(n, N, 8.0)
        cval = 1.0 if n == 1 else 0.5
        gauss = singular_catalog("gaussian", grid, c=cval)
        h, r0 = gauss.metric, gauss.plateau_radius
        region = np.ones(grid.shape, dtype=bool)
        t_ax = grid.axis_coordinates() - grid.center
        for axis in range(2 * n):
            shape = [1] * (2 * n)
            shape[axis] = grid.N
            region &= (np.abs(t_ax) <= 0.95 * r0).reshape(shape)
        delta = nakano_report(h, curvature(h), region=region)[0]
        assert delta > 0
        support = plateau_bump(grid, r_flat=0.5 * r0, r_zero=min(2.4, 0.45 * grid.L))
        for _ in range(count):
            alpha = raw_form(grid, 1, n, p, rng) if N <= 16 else None
            if alpha is None:
                alpha = EForm.zeros(grid, 1, 1, 1)
                center = tuple(grid.center + rng.uniform(-0.3, 0.3) for _ in range(2))
                alpha.coeffs[..., 0, 0, 0] = smooth_source_bump(grid, center, 0.3) * (
                    rng.standard_normal() + 1j * rng.standard_normal()
                )
            else:
                alpha = scale_by_field(alpha, support)
            res = basic_estimate(alpha, h, delta)
            worst = min(worst, res["relative_slack"]) if res["rhs"] > 0 else worst
    elapsed = time.time() - t0
    report(6, worst >= -1e-6 and elapsed < 600.0,
           f"a-priori estimate slack >= -1e-6 * RHS on 100 compactly supported forms per "
           f"bidegree (1,1),(2,1),(2,2) with certified floors; worst relative slack "
           f"{worst:.2e}; {elapsed:.1f}s")


def test_criterion_7_positivity_extraction():
    t0 = time.time()
    rng = np.random.default_rng(77)
    ordering_ok = True
    for _ in range(10):
        grid = GridSpec(2, 8, 8.0)
        h = random_pointwise_metric(grid, 2, rng)
        theta = random_pointwise_curvature(grid, 2, rng, h=h)
        rep = positivity_report(h, theta)
        ordering_ok &= rep.delta_nakano <= rep.delta_griffiths + 1e-9 + rep.net_error

    equality_ok = True
    for _ in range(5):
        grid = GridSpec(1, 16, 8.0)
        phi = 0.4 * random_band_limited(grid, rng, 0.1).real
        h1 = MetricField.from_weight(grid, np.exp(-phi), 1)
        th = curvature(h1)
        equality_ok &= griffiths_report(h1, th)[0] == nakano_report(h1, th)[0]

    grid = GridSpec(2, 8, 8.0)
    h = MetricField.identity(grid, 2)
    witness = positivity_reference.constant_curvature(grid, 2, WITNESS_BLOCKS)
    rep = positivity_report(h, witness)
    witness_ok = rep.delta_griffiths > 0.0 >= rep.delta_nakano
    elapsed = time.time() - t0
    report(7, ordering_ok and equality_ok and witness_ok,
           f"nakano <= griffiths on all extractions; exact equality in dimension one; "
           f"frozen search witness reproduces griffiths {rep.delta_griffiths:.4f} > 0 >= "
           f"nakano {rep.delta_nakano:.4f}; {elapsed:.1f}s")


def test_criterion_8_regularization_pipeline():
    t0 = time.time()
    grid = GridSpec(1, 64, 8.0)
    cat = singular_catalog("log_pole", grid, a=0.5, offset=1.5 + 1.5j)
    f = EForm.zeros(grid, 1, 1, 1)
    f.coeffs[..., 0, 0, 0] = smooth_source_bump(
        grid, (grid.center - 0.7, grid.center - 0.5), 0.2
    )
    f = project_to_range(f)
    schedule = MollifierSchedule(2.0, 8)
    u, rep = regularized_solve(f, cat, schedule)
    mono_ok = rep.monotone.max_defect <= 1e-10
    eps_ok = rep.eps_floor <= 0.1 and min(rep.delta_values) >= cat.delta_target - 0.1
    uniform_ok = rep.uniform_bound_ok
    last3 = rep.cauchy_defects[-3:]
    final_ok = rep.final_ratio <= 1.05 and last3[0] >= last3[1] >= last3[2]
    elapsed = time.time() - t0
    report(8, mono_ok and eps_ok and uniform_ok and final_ok and elapsed < 900.0,
           f"(a) ordering defect {rep.monotone.max_defect:.1e} <= 1e-10 over checked pairs "
           f"(pairs left unchecked by the coarse kernel: {rep.monotone.unchecked_pairs}); "
           f"(b) floors min {min(rep.delta_values):.3f} >= {cat.delta_target - 0.1:.1f} "
           f"(measured eps {rep.eps_floor:.3f} <= 0.1); (c) uniform bounds hold for all "
           f"(nu0, nu) pairs; (d) final ratio {rep.final_ratio:.3f} <= 1.05 with Cauchy "
           f"defects decreasing over the last three steps; {elapsed:.1f}s")


def test_criterion_9_reproducibility(tmp_path):
    t0 = time.time()
    cfg_text = """
[domain]
n = 1
N = 32
L = 8.0

[metric]
catalog = gaussian
c = 1.0

[operation]
name = solve
count = 3
sweep = 1,2

[tolerances]
solve_residual = 1.0
hormander = 10.0

[random]
seed = 4242
"""
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    outs = []
    extras = []
    for name in ("runA", "runB"):
        out = tmp_path / name
        code = cli_main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append((out / "solve.csv").read_bytes())
        extras.append((out / "solve_reports.csv").read_bytes())
    identical = outs[0] == outs[1] and extras[0] == extras[1]
    elapsed = time.time() - t0
    report(9, identical,
           f"two consecutive runs of the same config and seed produced byte-identical "
           f"CSV reports ({len(outs[0])} + {len(extras[0])} bytes); {elapsed:.1f}s")
