from pathlib import Path

import numpy as np
import pytest

from dbarlab import cli
from dbarlab.errors import PreconditionError, ValidationError
from dbarlab.exterior import EForm, norm_sq
from dbarlab.grid import (
    GridSpec,
    convolve,
    dz_array,
    integrate,
    kernel_spectrum,
)
from dbarlab.hermitian import curvature
from dbarlab.hormander import norm2, project_to_range, solve_min_norm
from dbarlab.metric import MetricField, dual_metric
from dbarlab.positivity import nakano_report
from dbarlab.singular import (
    MollifierSchedule,
    _centred_region,
    check_monotone,
    mollifier_kernel,
    mollify,
    periodic_log_pole,
    regularized_solve,
    singular_catalog,
)
from dbarlab.weights import smooth_source_bump
from field_helpers import complex_coordinate


@pytest.fixture
def rng():
    return np.random.default_rng(606)


def test_schedule_radii():
    sched = MollifierSchedule(2.0, 4)
    assert sched.radii == (2.0, 1.0, 2.0 / 3.0, 0.5)
    with pytest.raises(ValidationError):
        MollifierSchedule(-1.0, 4)


def test_kernel_mass_support_positivity():
    g = GridSpec(1, 64, 8.0)
    for eps in (0.5, 1.0, 2.0):
        kern = mollifier_kernel(g, eps)
        assert abs(integrate(g, kern) - 1.0) < 1e-12
        vals = kern
        assert vals.min() >= 0.0
        t = g.axis_coordinates()
        d = np.minimum(t, g.L - t)
        rho = np.sqrt(d.reshape(-1, 1) ** 2 + d.reshape(1, -1) ** 2)
        assert vals[rho >= eps].max() == 0.0


def test_kernel_resolvability_guard():
    g = GridSpec(1, 16, 8.0)
    with pytest.raises(PreconditionError):
        mollifier_kernel(g, 0.5 * g.spacing)


def test_mollify_smooth_limit_rate():
    # for a smooth metric the mollification error scales like eps^2; measured
    # away from the apodization transition, whose scale the widest kernel spans
    g = GridSpec(1, 64, 8.0)
    h = singular_catalog("gaussian", g, c=1.0).metric
    z = complex_coordinate(g, 0)
    inner = (np.abs(z.real) <= 1.0) & (np.abs(z.imag) <= 1.0)
    errs = []
    for eps in (1.2, 0.6, 0.3):
        smoothed = mollify(h, eps)
        errs.append(np.abs(smoothed.mat - h.mat)[inner].max())
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_mollify_preserves_hermitian_psd(rng):
    g = GridSpec(1, 32, 8.0)
    cat = singular_catalog("log_pole_pair", g)
    h = cat.metric
    out = mollify(h, 1.0)
    herm = np.abs(out.mat - np.conj(np.swapaxes(out.mat, -1, -2))).max()
    assert herm < 1e-12 * np.abs(out.mat).max()
    assert np.linalg.eigvalsh(out.mat).min() > -1e-14


def test_mollified_psh_gains_constant():
    # convolution lifts a subharmonic weight by a positive constant where the
    # kernel sees only the quadratic core
    g = GridSpec(1, 64, 8.0)
    z = complex_coordinate(g, 0)
    phi = np.abs(z) ** 2
    out = convolve(g, phi, kernel_spectrum(g, mollifier_kernel(g, 0.8)))
    gain = out - phi
    inner = np.abs(z) < 0.5 * g.L - 0.8 - 2 * g.spacing
    assert gain[inner].min() > 0


def test_catalog_gaussian_degenerate_member():
    g = GridSpec(1, 32, 8.0)
    cat = singular_catalog("log_pole", g, a=0.0)
    assert cat.metric.mask is None
    assert cat.poles == ()


def test_catalog_log_pole_masks_nearest_point():
    g = GridSpec(1, 64, 8.0)
    cat = singular_catalog("log_pole", g, a=0.5)
    assert cat.metric.mask is not None
    assert int(cat.metric.mask.sum()) == 1
    # the masked cell holds the pole
    ix, iy = np.argwhere(cat.metric.mask)[0]
    t = g.axis_coordinates()
    z0 = cat.poles[0]
    assert abs(t[ix] - z0.real) <= 0.5 * g.spacing + 1e-12
    assert abs(t[iy] - z0.imag) <= 0.5 * g.spacing + 1e-12


def test_catalog_pair_det_dips_at_both_poles():
    g = GridSpec(1, 64, 8.0)
    cat = singular_catalog("log_pole_pair", g)
    assert int(cat.metric.mask.sum()) == 2
    det = np.linalg.det(cat.metric.mat).real
    masked_vals = det[cat.metric.mask]
    # the two masked cells are local minima of the determinant
    for (ix, iy), dval in zip(np.argwhere(cat.metric.mask), masked_vals):
        patch = det[max(ix - 2, 0) : ix + 3, max(iy - 2, 0) : iy + 3]
        assert dval == patch.min()


def test_periodic_log_pole_behaves_like_log():
    g = GridSpec(1, 64, 8.0)
    z0 = complex(g.center + 0.3, g.center - 0.2)
    lam = periodic_log_pole(g, z0)
    z = complex_coordinate(g, 0, centered=False)
    d = np.abs(z - z0)
    ring = (d > 0.3) & (d < 0.8)
    # lambda - log|z - z0| is approximately constant-plus-smooth on a ring
    diff = lam[ring] - np.log(d[ring])
    assert diff.max() - diff.min() < 0.1


def test_periodic_log_pole_delta_mass():
    # d dbar lambda = (pi/2)(point mass - 1/L^2): integrating over a ball
    # around the pole captures the unit mass minus the ball's background share
    g = GridSpec(1, 64, 8.0)
    z0 = complex(g.center + 0.3, g.center - 0.2)
    lam = periodic_log_pole(g, z0)
    curv = dz_array(g, dz_array(g, lam.astype(np.complex128), 0), 0, True).real
    z = complex_coordinate(g, 0, centered=False)
    # the band-limited point mass rings: its sinc tails keep ~7% outside small
    # balls, shrinking as the ball grows
    for rho, tol in ((1.0, 0.08), (3.0, 0.025)):
        ball = np.abs(z - z0) <= rho
        mass = curv[ball].sum() * g.cell_volume
        expected = (np.pi / 2.0) * (1.0 - np.pi * rho**2 / g.L**2)
        assert abs(mass - expected) < tol * abs(expected)
    total = curv.sum() * g.cell_volume
    assert abs(total) < 1e-10  # zero net curvature on the torus


def test_catalog_log_pole_background_curvature():
    # off the pole the catalog curvature is the weight strength plus the
    # uniform background a*pi/L^2 that periodizing the pole costs
    g = GridSpec(1, 64, 8.0)
    a = 0.5
    cat = singular_catalog("log_pole", g, a=a, offset=1.5 + 1.5j)
    theta = curvature(cat.metric).theta[..., 0, 0, 0, 0].real
    z = complex_coordinate(g, 0)
    z0 = cat.poles[0]
    ring = (
        (np.abs(z.real) <= 0.9 * cat.plateau_radius)
        & (np.abs(z.imag) <= 0.9 * cat.plateau_radius)
        & (np.abs(z + g.center * (1 + 1j) - z0) > 1.0)
    )
    expected = cat.delta_target + a * np.pi / g.L**2
    assert np.abs(theta[ring] - expected).max() < 0.02


def test_catalog_matrix_psh_dual_section_subharmonicity():
    # mollified dual section norms have nonnegative laplacian on the plateau
    g = GridSpec(1, 64, 8.0)
    cat = singular_catalog("matrix_psh_dual", g)
    dual = dual_metric(cat.metric)  # the negatively curved side
    for eps in (0.5, 0.8):
        smoothed = mollify(dual, eps)
        for v in (np.array([1.0, 0.0]), np.array([0.4, 1.0 - 0.3j])):
            norm = np.einsum("a,...ab,b->...", np.conj(v), smoothed.mat, v).real
            lap = dz_array(g, dz_array(g, norm.astype(np.complex128), 0), 0, True).real
            z = complex_coordinate(g, 0)
            inner = (np.abs(z.real) <= 0.5 * cat.plateau_radius) & (
                np.abs(z.imag) <= 0.5 * cat.plateau_radius
            )
            assert lap[inner].min() > -1e-8 * max(np.abs(lap).max(), 1e-300)


def test_monotone_ordering_log_pole():
    g = GridSpec(1, 64, 8.0)
    cat = singular_catalog("log_pole", g, a=0.5, offset=1.5 + 1.5j)
    sched = MollifierSchedule(2.0, 8)
    rep = check_monotone(cat, sched)
    assert rep.max_defect <= 1e-10
    assert rep.pair_defects  # some pairs were actually measured
    # the coarsest kernel exceeds the certified zone at this resolution
    assert rep.unchecked_pairs == [1]


def test_monotone_strict_gap_scalar_psh():
    # dual of the gaussian member: psh weight, so consecutive mollifications
    # are strictly ordered with a positive gap away from the seam
    g = GridSpec(1, 64, 8.0)
    cat = singular_catalog("gaussian", g)
    gd = dual_metric(cat.metric)
    m1 = mollify(gd, 1.0)
    m2 = mollify(gd, 0.5)
    z = complex_coordinate(g, 0)
    inner = (np.abs(z.real) <= 0.4 * cat.plateau_radius) & (
        np.abs(z.imag) <= 0.4 * cat.plateau_radius
    )
    gap = (m1.mat[..., 0, 0] - m2.mat[..., 0, 0]).real
    assert gap[inner].min() > 0


def test_monotone_near_equality_for_pluriharmonic_exponent():
    # a pluriharmonic dual exponent has the exact mean-value property, so its
    # kernel averages collapse to the value itself: the ordering degenerates
    # to near-equality at quadrature accuracy
    g = GridSpec(1, 64, 8.0)
    from dbarlab.weights import plateau_coordinate

    w = plateau_coordinate(g, 0, r0=0.9, s=0.31)
    psi = (w**2).real  # Re(z^2) on the core
    a1 = convolve(g, psi, kernel_spectrum(g, mollifier_kernel(g, 0.7)))
    a2 = convolve(g, psi, kernel_spectrum(g, mollifier_kernel(g, 0.35)))
    z = complex_coordinate(g, 0)
    inner = (np.abs(z.real) <= 0.15) & (np.abs(z.imag) <= 0.15)
    scale = max(np.abs(psi).max(), 1.0)
    assert np.abs(a1 - psi)[inner].max() < 1e-6 * scale
    assert np.abs(a1 - a2)[inner].max() < 1e-6 * scale


def test_monotone_ordering_gaussian():
    # the gaussian's dual is negatively curved with no pole, so its mollified
    # family is non-increasing wherever the kernel ball stays in the psh zone
    g = GridSpec(1, 64, 8.0)
    cat = singular_catalog("gaussian", g)
    rep = check_monotone(cat, MollifierSchedule(1.0, 4))
    assert rep.max_defect <= 1e-10
    assert rep.pair_defects


def test_masked_norm_excludes_cells():
    g = GridSpec(1, 32, 8.0)
    cat = singular_catalog("log_pole", g, a=0.5)
    f = EForm.zeros(g, 1, 1, 1)
    f.coeffs[..., 0, 0, 0] = 1.0
    dens = norm_sq(f, cat.metric)
    full = dens.sum() * g.cell_volume
    masked = norm2(f, cat.metric)
    assert masked < full


def test_norm2_quadrature_leaves_out_the_pole_cell():
    # the solver's norm2 is the quadrature over the unmasked cells, so a solve
    # on a masked metric does not count the pole cell
    g = GridSpec(1, 32, 8.0)
    h = singular_catalog("log_pole", g, a=0.5).metric
    f = EForm.zeros(g, 1, 1, 1)
    f.coeffs[..., 0, 0, 0] = 1.0
    dens = norm_sq(f, h)
    assert h.mask.sum() == 1 and dens[h.mask].min() > 0.0
    assert norm2(f, h) == pytest.approx(dens[~h.mask].sum() * g.cell_volume, rel=1e-13)


def test_regularized_solve_smooth_limit_matches_direct():
    # empty-mask catalog: the pipeline's finest solution agrees with a direct
    # solve against the unmollified metric
    g = GridSpec(1, 64, 8.0)
    cat = singular_catalog("gaussian", g)
    f = EForm.zeros(g, 1, 1, 1)
    f.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center - 0.5, g.center - 0.3), 0.2)
    f = project_to_range(f)
    sched = MollifierSchedule(2.0, 8)
    u_pipe, rep = regularized_solve(f, cat, sched)
    z = complex_coordinate(g, 0)
    box = (np.abs(z.real) <= 0.95 * cat.plateau_radius) & (
        np.abs(z.imag) <= 0.95 * cat.plateau_radius
    )
    delta = nakano_report(cat.metric, curvature(cat.metric), region=box)[0]
    u_direct, rep_direct = solve_min_norm(f, cat.metric, delta=delta)
    num = np.linalg.norm(u_pipe.coeffs - u_direct.coeffs)
    den = np.linalg.norm(u_direct.coeffs)
    # the finest resolvable kernel radius is 2 dx = 0.25, so the smooth-limit
    # agreement is bounded below by O(eps^2) ~ 1e-2; see the decisions ledger
    assert num / den < 1e-2


def test_regularized_solve_full_pipeline():
    g = GridSpec(1, 64, 8.0)
    cat = singular_catalog("log_pole", g, a=0.5, offset=1.5 + 1.5j)
    f = EForm.zeros(g, 1, 1, 1)
    f.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center - 0.7, g.center - 0.5), 0.2)
    f = project_to_range(f)
    sched = MollifierSchedule(2.0, 8)
    u, rep = regularized_solve(f, cat, sched)
    assert min(rep.delta_values) >= cat.delta_target - 0.1
    assert rep.eps_floor <= 0.1
    assert rep.uniform_bound_ok
    assert rep.final_ratio <= 1.05
    last3 = rep.cauchy_defects[-3:]
    assert last3[0] >= last3[1] >= last3[2]
    assert rep.monotone.max_defect <= 1e-10


def test_regularized_solve_rank_two_pair_catalog():
    # the diagonal pair of log-pole weights runs the full pipeline at rank 2
    g = GridSpec(1, 64, 8.0)
    cat = singular_catalog(
        "log_pole_pair", g, a1=0.5, a2=0.3, offset=1.5 + 1.5j, offset2=1.5 - 1.5j
    )
    f = EForm.zeros(g, 2, 1, 1)
    bump = smooth_source_bump(g, (g.center - 0.6, g.center), 0.2)
    f.coeffs[..., 0, 0, 0] = bump
    f.coeffs[..., 0, 0, 1] = 0.6j * bump
    f = project_to_range(f)
    u, rep = regularized_solve(f, cat, MollifierSchedule(2.0, 8))
    assert min(rep.delta_values) >= cat.delta_target - 0.1
    assert rep.uniform_bound_ok
    assert rep.final_ratio <= 1.05
    assert rep.monotone.max_defect <= 1e-10


def test_regularized_solve_zero_source_rejected():
    g = GridSpec(1, 32, 8.0)
    cat = singular_catalog("log_pole", g, a=0.5)
    f = EForm.zeros(g, 1, 1, 1)
    with pytest.raises(PreconditionError):
        regularized_solve(f, cat, MollifierSchedule(2.0, 2))


def test_shipped_regularize_config_takes_few_iterations_per_radius(tmp_path, monkeypatch):
    # the weighted preconditioner takes each mollified solve in 3-4 CG
    # iterations, where the flat one took 188-517
    reports = []

    def recording(*args, **kwargs):
        u, rep = regularized_solve(*args, **kwargs)
        reports.append(rep)
        return u, rep

    monkeypatch.setattr(cli, "regularized_solve", recording)
    config = Path(__file__).resolve().parent.parent / "configs" / "regularize.cfg"
    assert cli.main(["regularize", "--config", str(config), "--out", str(tmp_path)]) == 0
    (rep,) = reports
    assert len(rep.solve_reports) == len(rep.eps_values) == 8
    assert max(solve.iterations for solve in rep.solve_reports) <= 10


def test_shipped_regularize_config_builds_each_piece_once(tmp_path, monkeypatch):
    # the plateau profile is built once per run, and the monotone check reads
    # the family the solves ran on instead of mollifying every radius again
    from dbarlab import singular, weights

    calls = {"mollify": 0, "dual_metric": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    runs = []

    def recording(*args, **kwargs):
        u, rep = regularized_solve(*args, **kwargs)
        runs.append((args, rep))
        return u, rep

    monkeypatch.setattr(singular, "mollify", counted("mollify", mollify))
    monkeypatch.setattr(singular, "dual_metric", counted("dual_metric", dual_metric))
    monkeypatch.setattr(cli, "regularized_solve", recording)
    weights.saturating_square_profile.cache_clear()
    config = Path(__file__).resolve().parent.parent / "configs" / "regularize.cfg"
    assert cli.main(["regularize", "--config", str(config), "--out", str(tmp_path)]) == 0
    (((_f, cat, schedule), rep),) = runs
    assert schedule.nu_max == 8
    assert weights.saturating_square_profile.cache_info().misses == 1
    assert calls["mollify"] == schedule.nu_max
    assert calls["dual_metric"] <= 1 + schedule.nu_max
    assert check_monotone(cat, schedule) == rep.monotone
    assert rep.monotone.pair_defects


def test_pole_offset_past_half_the_box_is_the_same_pole(tmp_path):
    # (9.5, 9.5) is (1.5, 1.5) moved by the box side L = 8: the same point of
    # the torus, so the same metric, certified regions and report rows
    g = GridSpec(1, 64, 8.0)
    near = singular_catalog("log_pole", g, a=0.5, offset=1.5 + 1.5j)
    far = singular_catalog("log_pole", g, a=0.5, offset=9.5 + 9.5j)
    assert np.array_equal(near.metric.mask, far.metric.mask)
    for eps in MollifierSchedule(2.0, 8).radii:
        # regularize's half-r0 box and check_monotone's psh zone, as half-widths
        half = 0.5 * near.plateau_radius
        assert np.array_equal(_centred_region(g, half, near.poles, eps),
                              _centred_region(g, half, far.poles, eps))
        zone = near.plateau_radius + 4.0 * near.smoothing - eps
        assert np.array_equal(_centred_region(g, zone, near.poles, eps),
                              _centred_region(g, zone, far.poles, eps))

    shipped = Path(__file__).resolve().parent.parent / "configs" / "regularize.cfg"
    text = shipped.read_text(encoding="utf-8")
    rows = {}
    for name, offset in (("near", "1.5"), ("far", "9.5")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text.replace("offset_re = 1.5", f"offset_re = {offset}")
                       .replace("offset_im = 1.5", f"offset_im = {offset}"), encoding="utf-8")
        out = tmp_path / name
        assert cli.main(["regularize", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "regularize.csv").read_text(encoding="utf-8").splitlines()
        rows[name] = [line.split(",") for line in lines[1:]]
    assert len(rows["near"]) == len(rows["far"])
    for a, b in zip(rows["near"], rows["far"]):
        # check, verifies, n, p, N and passed agree; value and threshold to 1e-9
        assert a[:5] + a[7:] == b[:5] + b[7:]
        for x, y in zip(a[5:7], b[5:7]):
            assert (x == y == "") or float(x) == pytest.approx(float(y), rel=1e-9, abs=1e-9)
