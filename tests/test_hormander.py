import numpy as np
import pytest

from cg_reference import flat_reference_min_norm, reference_min_norm, symbol_eig, symbol_pinv
from field_helpers import complex_coordinate, coordinate
from hormander_reference import dense_min_norm, range_projection_defect
from dbarlab import hormander
from dbarlab.errors import FormError, PreconditionError, SolverError
from dbarlab.exterior import EForm, inner_product, norm_sq
from dbarlab.grid import GridSpec, integrate
from dbarlab.hermitian import curvature, dbar, dbar_star_formal
from dbarlab.hormander import (
    _flat_symbol,
    _per_mode,
    _range_component,
    _spectral_norm2,
    _symbol_pinv,
    apply_Tstar,
    closedness_defect,
    dbar_transpose,
    norm2,
    project_to_range,
    solve_min_norm,
    verify_hormander,
)
from dbarlab.metric import MetricField
from dbarlab.positivity import nakano_report
from dbarlab.singular import singular_catalog
from dbarlab.weights import random_band_limited, random_form, smooth_source_bump


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_weight_metric(grid, rng, amp=0.5):
    phi = amp * random_band_limited(grid, rng, 0.15).real
    return MetricField.from_weight(grid, np.exp(-phi), 1)


def test_adjoint_exactness_random_pairs(rng):
    g = GridSpec(1, 16, 8.0)
    h = random_weight_metric(g, rng)
    worst = 0.0
    for _ in range(200):
        u = random_form(g, 1, 1, 0, rng)
        v = random_form(g, 1, 1, 1, rng)
        lhs = integrate(g, inner_product(dbar(u), v, h))
        rhs = integrate(g, inner_product(u, apply_Tstar(v, h), h))
        scale = np.sqrt(norm2(u, h) * norm2(v, h))
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst < 1e-12


def test_adjoint_exactness_matrix_metric_n2(rng):
    g = GridSpec(2, 8, 8.0)
    mat = np.zeros(g.shape + (2, 2), dtype=np.complex128)
    for a in range(2):
        for b in range(2):
            mat[..., a, b] = 0.3 * random_band_limited(g, rng, 0.2)
    mat = mat @ np.conj(np.swapaxes(mat, -1, -2))
    mat[..., 0, 0] += 1.2
    mat[..., 1, 1] += 1.2
    h = MetricField(g, 2, mat)
    for p in (1, 2):
        for _ in range(20):
            u = random_form(g, 2, 2, p - 1, rng)
            v = random_form(g, 2, 2, p, rng)
            lhs = integrate(g, inner_product(dbar(u), v, h))
            rhs = integrate(g, inner_product(u, apply_Tstar(v, h), h))
            scale = np.sqrt(norm2(u, h) * norm2(v, h))
            assert abs(lhs - rhs) / scale < 1e-12


def test_single_mode_flat_adjoint_is_conjugate_multiplier():
    # h = I: T* on one Fourier mode multiplies by the conjugated dbar symbol
    g = GridSpec(1, 16, 8.0)
    h = MetricField.identity(g, 1)
    kx, ky = 2, -3
    x = coordinate(g, 0)
    y = coordinate(g, 1)
    wave = np.exp(2j * np.pi * (kx * x + ky * y) / g.L)
    v = EForm.zeros(g, 1, 1, 1)
    v.coeffs[..., 0, 0, 0] = wave
    out = apply_Tstar(v, h)
    wx = 2 * np.pi * kx / g.L
    wy = 2 * np.pi * ky / g.L
    mu = 0.5 * (1j * wx - wy)  # dbar symbol
    # T = -dbar on the (1,0) coefficient; T* multiplies by -conj(mu)
    expected = -np.conj(mu) * wave
    assert np.abs(out.coeffs[..., 0, 0, 0] - expected).max() < 1e-12 * abs(mu)


def test_formal_vs_discrete_adjoint_interior_data():
    g = GridSpec(1, 64, 8.0)
    h = singular_catalog("gaussian", g, c=1.0, r0=1.0, s=0.30).metric
    v = EForm.zeros(g, 1, 1, 1)
    v.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center + 0.3, g.center), 0.35)
    a_disc = apply_Tstar(v, h)
    a_form = dbar_star_formal(v, h)
    num = norm2(EForm(g, 1, 1, 0, a_disc.coeffs - a_form.coeffs), h)
    den = norm2(a_form, h)
    assert np.sqrt(num / den) < 1e-6


def test_solve_zero_source():
    g = GridSpec(1, 16, 8.0)
    h = MetricField.identity(g, 1)
    f = EForm.zeros(g, 1, 1, 1)
    u, rep = solve_min_norm(f, h)
    assert np.abs(u.coeffs).max() == 0.0
    assert rep.ratio == 0.0


def test_solve_gaussian_bump_bound():
    g = GridSpec(1, 64, 8.0)
    gauss = singular_catalog("gaussian", g, c=1.0)
    h, r0 = gauss.metric, gauss.plateau_radius
    z = complex_coordinate(g, 0)
    box = (np.abs(z.real) <= 0.95 * r0) & (np.abs(z.imag) <= 0.95 * r0)
    delta = nakano_report(h, curvature(h), region=box)[0]
    f = EForm.zeros(g, 1, 1, 1)
    f.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center + 0.2, g.center - 0.1), 0.3)
    f = project_to_range(f)
    u, rep = solve_min_norm(f, h, delta=delta)
    assert rep.residual <= 1e-9
    check = verify_hormander(rep)
    assert check["claimed"] and check["passed"]
    assert check["normalized_ratio"] < 1.0


def test_solve_flat_metric_returns_algebraic_solution(rng):
    # delta = 0: no bound is claimed, but the minimal-norm solve still works
    # for sources inside the discrete range
    g = GridSpec(1, 32, 8.0)
    h = MetricField.identity(g, 1)
    f = project_to_range(random_form(g, 1, 1, 1, rng, kmax_frac=0.25))
    u, rep = solve_min_norm(f, h, delta=0.0)
    assert rep.residual <= 1e-10
    assert not rep.bound_claimed
    check = verify_hormander(rep)
    assert check["claimed"] is False and check["passed"] is None


def test_minimal_norm_kernel_orthogonality():
    g = GridSpec(1, 32, 8.0)
    h = singular_catalog("gaussian", g, c=1.0).metric
    f = EForm.zeros(g, 1, 1, 1)
    f.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center, g.center), 0.3)
    f = project_to_range(f)
    u, rep = solve_min_norm(f, h)
    # T-kernel elements on the (1,0) slot: the constant mode and the modes
    # where both axis multipliers are Nyquist-zeroed
    kernel_fields = [np.ones(g.shape, dtype=np.complex128)]
    spec = np.zeros(g.shape, dtype=np.complex128)
    spec[g.N // 2, g.N // 2] = 1.0
    kernel_fields.append(np.fft.ifftn(spec) * g.N)
    spec = np.zeros(g.shape, dtype=np.complex128)
    spec[0, g.N // 2] = 1.0
    kernel_fields.append(np.fft.ifftn(spec) * g.N)
    for vals in kernel_fields:
        k = EForm.zeros(g, 1, 1, 0)
        k.coeffs[..., 0, 0, 0] = vals
        assert np.abs(dbar(k).coeffs).max() < 1e-12  # genuinely in Ker T
        ip = abs(integrate(g, inner_product(u, k, h))) / np.sqrt(norm2(u, h) * norm2(k, h))
        assert ip < 1e-8


def test_dense_oracle_agreement(rng):
    g = GridSpec(1, 16, 8.0)
    h = singular_catalog("gaussian", g, c=1.0).metric
    f = EForm.zeros(g, 1, 1, 1)
    f.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center + 0.3, g.center - 0.2), 0.4)
    f = project_to_range(f)
    u_cg, rep = solve_min_norm(f, h)
    u_dn = dense_min_norm(f, h)
    diff = norm2(EForm(g, 1, 1, 0, u_cg.coeffs - u_dn.coeffs), h)
    assert np.sqrt(diff / rep.u_norm2) < 1e-8


def test_ratio_scale_invariance():
    g = GridSpec(1, 32, 8.0)
    h = singular_catalog("gaussian", g, c=1.0).metric
    f = EForm.zeros(g, 1, 1, 1)
    f.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center, g.center), 0.3)
    f = project_to_range(f)
    _, rep1 = solve_min_norm(f, h)
    _, rep2 = solve_min_norm(3.7j * f, h)
    assert rep2.ratio == pytest.approx(rep1.ratio, rel=1e-8)


def test_weight_sweep_bound_halves():
    g = GridSpec(1, 64, 8.0)
    ratios = {}
    for c in (1.0, 2.0, 4.0):
        gauss = singular_catalog("gaussian", g, c=c)
        h, r0 = gauss.metric, gauss.plateau_radius
        z = complex_coordinate(g, 0)
        box = (np.abs(z.real) <= 0.95 * r0) & (np.abs(z.imag) <= 0.95 * r0)
        delta = nakano_report(h, curvature(h), region=box)[0]
        assert delta == pytest.approx(c, rel=2e-2)
        f = EForm.zeros(g, 1, 1, 1)
        f.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center + 0.15, g.center), 0.3)
        f = project_to_range(f)
        _, rep = solve_min_norm(f, h, delta=delta)
        assert verify_hormander(rep)["passed"]
        ratios[c] = rep.ratio
    assert ratios[2.0] <= ratios[1.0]
    assert ratios[4.0] <= ratios[2.0]


def test_non_closed_source_rejected(rng):
    g = GridSpec(2, 8, 8.0)
    h = MetricField.identity(g, 1)
    f = random_form(g, 1, 2, 1, rng)  # generic (2,1)-form is not closed
    with pytest.raises(PreconditionError):
        solve_min_norm(f, h)


def test_out_of_range_source_rejected():
    g = GridSpec(1, 32, 8.0)
    h = MetricField.identity(g, 1)
    f = EForm.zeros(g, 1, 1, 1)
    f.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center, g.center), 0.4)
    assert range_projection_defect(f) > 1e-3  # positive bump has mean content
    with pytest.raises(PreconditionError):
        solve_min_norm(f, h)
    cleaned = project_to_range(f)
    assert range_projection_defect(cleaned) < 1e-12


def test_iteration_cap_surfaces_as_solver_error():
    g = GridSpec(1, 32, 8.0)
    h = singular_catalog("gaussian", g, c=1.0).metric
    f = EForm.zeros(g, 1, 1, 1)
    f.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center, g.center), 0.3)
    f = project_to_range(f)
    with pytest.raises(SolverError) as err:
        solve_min_norm(f, h, maxiter_factor=0)
    assert err.value.residual is not None


def test_breakdown_reports_near_null_direction():
    # a pure zero-mode source, let through by a loose range tolerance, gives
    # a search direction in the kernel of the normal operator
    g = GridSpec(1, 16, 8.0)
    f = EForm.zeros(g, 1, 1, 1)
    f.coeffs[...] = 1.0
    with pytest.raises(SolverError) as err:
        solve_min_norm(f, MetricField.identity(g, 1), range_tol=2.0)
    near_null = err.value.near_null
    assert (near_null.p, near_null.q) == (1, 1)
    assert near_null.coeffs.shape == f.coeffs.shape


def test_closedness_defect_top_degree_is_zero(rng):
    g = GridSpec(1, 16, 8.0)
    h = MetricField.identity(g, 1)
    f = random_form(g, 1, 1, 1, rng)
    assert closedness_defect(f, h) == 0.0


def test_solve_n2_top_degree_bound():
    # (2,2)-source: automatic closedness, multi-slot transpose path, and the
    # bound against the measured interior floor (coarse at N=16, but certified)
    g = GridSpec(2, 16, 8.0)
    gauss = singular_catalog("gaussian", g, c=0.5)
    h, r0 = gauss.metric, gauss.plateau_radius
    region = np.ones(g.shape, bool)
    t = g.axis_coordinates() - g.center
    for ax in range(4):
        sh = [1] * 4
        sh[ax] = g.N
        region &= (np.abs(t) <= 0.95 * r0).reshape(sh)
    delta = nakano_report(h, curvature(h), region=region)[0]
    assert delta > 0
    f = EForm.zeros(g, 1, 2, 2)
    f.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center,) * 4, 0.35)
    f = project_to_range(f)
    u, rep = solve_min_norm(f, h, delta=delta, tol=1e-8)
    assert rep.residual <= 1e-7
    check = verify_hormander(rep)
    assert check["passed"]


def closed_n2_source(rng):
    """A dbar-exact (2,1)-source on a coarse n = 2 grid, with its metric."""
    g = GridSpec(2, 8, 8.0)
    h = singular_catalog("gaussian", g, c=0.5).metric
    return g, h, dbar(random_form(g, 1, 2, 0, rng, kmax_frac=0.2))


def top_degree_n2_source(rng=None):
    """A range-projected (2,2) bump on an n = 2 grid, with its metric."""
    g = GridSpec(2, 16, 8.0)
    h = singular_catalog("gaussian", g, c=0.5).metric
    f = EForm.zeros(g, 1, 2, 2)
    f.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center,) * 4, 0.35)
    return g, h, project_to_range(f)


def test_solve_sees_closed_n2_source(rng):
    # a dbar-exact source at (2,1) is solvable and the solution reproduces it
    g, h, f = closed_n2_source(rng)
    assert closedness_defect(f, h) < 1e-10
    # a quick 1e-8 solve; the same source converges to 1e-10 as well
    # (test_solve_closed_n2_source_to_1e10)
    u, rep = solve_min_norm(f, h, tol=1e-8)
    assert rep.residual < 1e-7
    # u is the minimal solution, not necessarily u0; residual is the contract
    resid = dbar(u)
    resid.coeffs -= f.coeffs
    assert np.sqrt(norm_sq(resid, h).sum()) < 1e-7 * np.sqrt(norm_sq(f, h).sum())


def test_dbar_transpose_shape_guard(rng):
    g = GridSpec(1, 16, 8.0)
    with pytest.raises(FormError):
        dbar_transpose(random_form(g, 1, 1, 0, rng))


def test_dense_adjoint_matrix_oracle(rng):
    # assemble T and T* as dense matrices by applying them to basis vectors
    # and check T* = G1^{-1} T^H G2 literally, independent of the einsum paths
    g = GridSpec(1, 8, 4.0)
    h = random_weight_metric(g, rng, amp=0.4)
    dim = g.N ** (2 * g.n)
    T = np.zeros((dim, dim), dtype=complex)
    Tstar = np.zeros((dim, dim), dtype=complex)
    basis = np.zeros(dim, dtype=complex)
    shape1 = g.shape + (1, 1, 1)
    for i in range(dim):
        basis[:] = 0
        basis[i] = 1.0
        u = EForm(g, 1, 1, 0, basis.reshape(shape1).copy())
        T[:, i] = dbar(u).coeffs.ravel()
        v = EForm(g, 1, 1, 1, basis.reshape(shape1).copy())
        Tstar[:, i] = apply_Tstar(v, h).coeffs.ravel()
    dA = g.cell_volume
    G1 = np.diag(h.mat[..., 0, 0].ravel()) * dA
    G2 = G1.copy()
    expected = np.linalg.inv(G1) @ T.conj().T @ G2
    assert np.abs(Tstar - expected).max() < 1e-12 * np.abs(expected).max()


def pinv_zero_modes(grid, p):
    """Number of modes where the closed-form pseudoinverse is the zero matrix."""
    return int((np.abs(_symbol_pinv(grid, p)).max(axis=(-2, -1)) == 0.0).sum())


def test_flat_symbol_cokernel_dimension():
    # the discrete dbar on (1,0)-forms annihilates exactly the modes whose two
    # axis multipliers are both zeroed: the constant mode and the Nyquist rows
    g = GridSpec(1, 16, 8.0)
    vals, vecs, keep = symbol_eig(g, 1)
    assert keep.shape == g.shape + (1,)
    killed = (~keep).sum()
    assert killed == 4  # (kx, ky) in {0, Nyquist}^2
    assert pinv_zero_modes(g, 1) == 4


def test_symbol_eig_keeps_exact_rank_n2():
    # at (n, p) = (2, 1) B = D D^H is 2x2 per mode with rank one wherever some
    # dzbar multiplier is nonzero; the exactly-zero transverse eigenvalues
    # come out of eigh as +-1e-17 and must not be kept
    g = GridSpec(2, 8, 8.0)
    _vals, _vecs, keep = symbol_eig(g, 1)
    zero_per_axis = int((g.wavenumbers() == 0.0).sum())
    assert keep.sum() == g.N ** (2 * g.n) - zero_per_axis ** 4 == 4080
    assert g.N ** (2 * g.n) - pinv_zero_modes(g, 1) == 4080


def _adjoint(mat):
    return np.conj(np.swapaxes(mat, -1, -2))


def _close(got, expected, rel):
    return np.abs(got - expected).max() <= rel * np.abs(expected).max()


@pytest.mark.parametrize("n, N, p", [(1, 16, 1), (1, 64, 1), (2, 8, 1), (2, 8, 2), (2, 16, 1),
                                     (2, 16, 2)])
def test_closed_form_symbol_pinv_is_the_moore_penrose_inverse(n, N, p, rng):
    # D D^H + D^H D = |d|^2 makes D^H / |d|^2 the pseudoinverse per mode: the
    # four Penrose conditions hold, it equals the eigh oracle's D^H (D D^H)^+,
    # and D D^+ is an idempotent projection that keeps what the oracle keeps
    g = GridSpec(n, N, 8.0)
    D = _flat_symbol(g, p)
    Dp = _symbol_pinv(g, p)
    assert Dp.shape == g.shape + D.shape[-1:] + D.shape[-2:-1]
    assert _close(D @ Dp @ D, D, 1e-14)
    assert _close(Dp @ D @ Dp, Dp, 1e-14)
    assert _close(_adjoint(D @ Dp), D @ Dp, 1e-14)
    assert _close(_adjoint(Dp @ D), Dp @ D, 1e-14)
    assert _close(Dp, symbol_pinv(g, p), 1e-14)

    shape = g.shape + (D.shape[-2], 2)
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kept = _range_component(g, p, spec)
    assert _close(_range_component(g, p, kept), kept, 1e-14)
    _vals, vecs, keep = symbol_eig(g, p)
    oracle = np.einsum("...jm,...m,...km,...kr->...jr", vecs, keep, np.conj(vecs), spec)
    assert _close(kept, oracle, 1e-14)


def test_solve_closed_n2_source_to_1e10(rng):
    g, h, f = closed_n2_source(rng)
    u, rep = solve_min_norm(f, h, tol=1e-10)
    assert rep.residual < 1e-9


def n1_bump_source(rng=None):
    """A range-projected (1,1) bump on an n = 1 grid, with its metric."""
    g = GridSpec(1, 32, 8.0)
    h = singular_catalog("gaussian", g, c=1.0).metric
    f = EForm.zeros(g, 1, 1, 1)
    f.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center + 0.2, g.center - 0.1), 0.3)
    return g, h, project_to_range(f)


@pytest.mark.parametrize(
    "make_source",
    [n1_bump_source, closed_n2_source, top_degree_n2_source],
    ids=["n1-N32-p1", "n2-N8-p1", "n2-N16-p2"],
)
def test_spectral_cg_matches_real_space_reference(make_source, rng):
    g, h, f = make_source(rng)
    u, rep = solve_min_norm(f, h, tol=1e-10)
    u_ref, iterations_ref = reference_min_norm(f, h, tol=1e-10)
    diff = norm2(EForm(g, 1, g.n, f.q - 1, u.coeffs - u_ref.coeffs), h)
    assert np.sqrt(diff / norm2(u_ref, h)) < 1e-8
    assert abs(rep.iterations - iterations_ref) <= 0.02 * iterations_ref


def nondiagonal_rank2_metric(grid, rng):
    """A smooth positive rank-2 metric with nonzero off-diagonal entries."""
    mat = np.zeros(grid.shape + (2, 2), dtype=np.complex128)
    for a in range(2):
        for b in range(2):
            mat[..., a, b] = 0.3 * random_band_limited(grid, rng, 0.15)
    mat = mat @ np.conj(np.swapaxes(mat, -1, -2))
    mat[..., 0, 0] += 1.0
    mat[..., 1, 1] += 0.5
    return MetricField(grid, 2, mat)


def rank2_top_degree_source(rng):
    """A range-projected random (2,2)-form, rank 2, against nondiagonal_rank2_metric
    times the gaussian weight of the n = 2 sources above.

    The bare nondiagonal metric has eigenvalues in [0.5, 1], where the flat
    preconditioner is already near-exact (7 iterations); the gaussian factor
    gives it the same ~e^7 dynamic range as the scalar sources.
    """
    g = GridSpec(2, 16, 8.0)
    weight = singular_catalog("gaussian", g, c=0.5).metric
    h = MetricField(g, 2, nondiagonal_rank2_metric(g, rng).mat * weight.mat)
    return g, h, project_to_range(random_form(g, 2, 2, 2, rng, kmax_frac=0.3))


def p1_source(n, rank, rng):
    """A dbar-exact (n,1)-source against the gaussian weight at rank 1, or against
    nondiagonal_rank2_metric times that weight at rank 2."""
    g = GridSpec(n, 32 if n == 1 else 8, 8.0)
    h = singular_catalog("gaussian", g, c=0.5).metric
    if rank == 2:
        h = MetricField(g, 2, nondiagonal_rank2_metric(g, rng).mat * h.mat)
    return h, dbar(random_form(g, rank, n, 0, rng, kmax_frac=0.2))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("rank", [1, 2])
def test_every_p1_solve_takes_one_iteration(n, rank, rng):
    # at p = 1, D^+ D = 1 off the symbol's kernel, and the preconditioner
    # projects that kernel out in the h inner product: M A is the range
    # projection, so preconditioned CG stops after its first step
    h, f = p1_source(n, rank, rng)
    _u, rep = solve_min_norm(f, h, tol=1e-10)
    assert rep.iterations == 1
    assert rep.residual <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("rank", [1, 2])
def test_p1_solves_need_the_class_projection(n, rank, rng, monkeypatch):
    # without the projection the preconditioner is D^+H h D^+, which leaves a
    # low-rank term from the symbol's kernel, and one iteration is not enough
    monkeypatch.setattr(hormander, "_class_mean", lambda *args: 0.0)
    h, f = p1_source(n, rank, rng)
    _u, rep = solve_min_norm(f, h, tol=1e-10)
    assert rep.iterations > 1


@pytest.mark.parametrize(
    "make_source",
    [n1_bump_source, closed_n2_source, top_degree_n2_source, rank2_top_degree_source],
    ids=["n1-N32-p1", "n2-N8-p1", "n2-N16-p2", "n2-N16-p2-rank2"],
)
def test_weighted_preconditioner_cuts_flat_iterations_tenfold(make_source, rng):
    # the weight between the two symbol pseudoinverses is what the flat
    # preconditioner misses; measured 1/256, 1/152, 17/301 and 21/500.  The
    # flat run stops at ten times the weighted count, still above tol there
    g, h, f = make_source(rng)
    _u, rep = solve_min_norm(f, h, tol=1e-10)
    with pytest.raises(SolverError, match="hit the cap"):
        flat_reference_min_norm(f, h, tol=1e-10, maxiter=10 * rep.iterations)


@pytest.mark.parametrize("n, N, p", [(1, 32, 1), (2, 8, 1), (2, 16, 2)])
@pytest.mark.parametrize("rank", [1, 2])
def test_stopping_norm_matches_hilbert_norm(n, N, p, rank, rng):
    g = GridSpec(n, N, 8.0)
    h = random_weight_metric(g, rng) if rank == 1 else nondiagonal_rank2_metric(g, rng)
    f = random_form(g, rank, n, p, rng, kmax_frac=0.3)
    spec = np.fft.fftn(f.coeffs[..., 0, :, :], axes=tuple(range(2 * n)))
    expected = norm2(f, h)
    assert abs(_spectral_norm2(g, h.mat, spec) - expected) <= 1e-13 * expected
    # the CG's per-mode products D, D^H, D^+ and D^+H, with blocks larger than
    # 1 x 1 at n = 2
    D = _flat_symbol(g, p)
    Dp = _symbol_pinv(g, p)
    for mat in (D, np.conj(np.swapaxes(D, -1, -2)), Dp, np.conj(np.swapaxes(Dp, -1, -2))):
        shape = g.shape + (mat.shape[-1], rank)
        cols = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = np.einsum("...ab,...br->...ar", mat, cols)
        assert np.abs(_per_mode(mat, cols) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_solver_forms_store_each_coefficient_as_one_contiguous_block(rng):
    # at n = 2 and rank 2 a form has several slots and components, so a
    # grid-major array would leave every coefficient field strided
    g = GridSpec(2, 8, 8.0)
    h = singular_catalog("gaussian", g, c=0.5, r0=1.0, s=0.3, rank=2).metric
    f = project_to_range(dbar(random_form(g, 2, 2, 0, rng)))
    u, _ = solve_min_norm(f, h, tol=1e-8)
    for form in (f, u, apply_Tstar(f, h), dbar_transpose(f)):
        for index in np.ndindex(form.coeffs.shape[-3:]):
            assert form.coeffs[(...,) + index].flags.c_contiguous, index
