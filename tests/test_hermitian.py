import numpy as np
import pytest
import scipy.fft
import positivity_reference
import spectral_reference as ref
from field_helpers import complex_coordinate
from hormander_reference import sqrt_mat

from dbarlab.errors import FormError, MetricError
from dbarlab.exterior import (
    EForm,
    inner_product,
    norm_sq,
    pairing,
)
from dbarlab.grid import GridSpec, _dz_multiplier, dz_array, integrate
from dbarlab.hermitian import (
    chern_connection,
    curvature,
    curvature_wedge,
    dbar,
    dbar_star_formal,
    dpartial,
    dprime,
)
from dbarlab.hormander import dbar_transpose
from dbarlab.metric import MetricField, dual_metric
from dbarlab.singular import singular_catalog
from dbarlab.weights import random_band_limited, random_form


@pytest.fixture
def rng():
    return np.random.default_rng(77)


def random_matrix_metric(grid, rank, rng, amp=0.2, kmax_frac=0.1):
    """Smooth positive matrix metric without the exponent payload.

    Kept well inside the band limit so products (connection, curvature) stay
    alias-free; rougher metrics shift every spectral identity to its
    discretization floor.
    """
    mat = np.zeros(grid.shape + (rank, rank), dtype=np.complex128)
    for a in range(rank):
        for b in range(rank):
            mat[..., a, b] = random_band_limited(grid, rng, kmax_frac) * amp
    mat = mat @ np.conj(np.swapaxes(mat, -1, -2))
    for a in range(rank):
        mat[..., a, a] += 1.5
    return MetricField(grid, rank, mat)


def test_connection_constant_metric(rng):
    g = GridSpec(1, 16, 8.0)
    h = MetricField.identity(g, 2)
    assert np.abs(chern_connection(h)).max() == 0.0
    assert np.abs(curvature(h).theta).max() == 0.0


def test_connection_gaussian_interior():
    g = GridSpec(1, 64, 8.0)
    gauss = singular_catalog("gaussian", g, c=1.0)
    h, r0 = gauss.metric, gauss.plateau_radius
    theta = chern_connection(h)
    z = complex_coordinate(g, 0)
    box = (np.abs(z.real) <= 0.9 * r0) & (np.abs(z.imag) <= 0.9 * r0)
    assert np.abs(theta[..., 0, 0, 0] + np.conj(z))[box].max() < 1e-4


def test_connection_finite_difference_oracle(rng):
    g = GridSpec(1, 32, 8.0)
    h = random_matrix_metric(g, 2, rng)
    theta = chern_connection(h)
    step = g.spacing
    dh = (np.roll(h.mat, -1, axis=0) - np.roll(h.mat, 1, axis=0)) / (2 * step)
    dh = 0.5 * (dh - 1j * (np.roll(h.mat, -1, axis=1) - np.roll(h.mat, 1, axis=1)) / (2 * step))
    fd_theta = np.linalg.inv(h.mat) @ dh
    err = np.abs(theta[..., 0, :, :] - fd_theta).max()
    assert err < 20.0 * step**2  # centered differences are O(h^2)


def test_curvature_gaussian_equals_weight_strength():
    g = GridSpec(1, 64, 8.0)
    for c in (1.0, 2.0):
        gauss = singular_catalog("gaussian", g, c=c)
        h, r0 = gauss.metric, gauss.plateau_radius
        th = curvature(h)
        z = complex_coordinate(g, 0)
        box = (np.abs(z.real) <= 0.9 * r0) & (np.abs(z.imag) <= 0.9 * r0)
        assert np.abs(th.theta[..., 0, 0, 0, 0] - c)[box].max() < 5e-3 * c


def test_curvature_diagonal_reduction(rng):
    g = GridSpec(1, 32, 8.0)
    phi1 = random_band_limited(g, rng, 0.15).real * 0.3
    phi2 = random_band_limited(g, rng, 0.15).real * 0.3
    h = MetricField.from_diagonal(g, [np.exp(-phi1), np.exp(-phi2)])
    th = curvature(h).theta
    for slot, phi in ((0, phi1), (1, phi2)):
        scalar = MetricField.from_weight(g, np.exp(-phi), 1)
        ref = curvature(scalar).theta[..., 0, 0, 0, 0]
        assert np.abs(th[..., 0, 0, slot, slot] - ref).max() < 1e-12 * max(
            np.abs(ref).max(), 1e-300
        )
        other = 1 - slot
        assert np.abs(th[..., 0, 0, slot, other]).max() == 0.0


def test_curvature_two_code_paths_agree(rng):
    # the library's exponent route against the reference's h^{-1} dh formula, rank one
    g = GridSpec(1, 32, 8.0)
    phi = random_band_limited(g, rng, 0.1).real * 0.3
    h = MetricField.from_weight(g, np.exp(-phi), 1)
    t1 = curvature(h).theta
    t2 = ref.curvature_matrix(h)
    scale = max(np.abs(t1).max(), 1e-300)
    assert np.abs(t1 - t2).max() < 1e-8 * scale


def test_curvature_hermitian_symmetry(rng):
    g = GridSpec(1, 32, 8.0)
    h = random_matrix_metric(g, 2, rng)
    th = curvature(h)
    assert positivity_reference.hermitian_defect(th, h) < 1e-8


def test_dual_metric_involution_and_sign_flip(rng):
    g = GridSpec(1, 32, 8.0)
    h = random_matrix_metric(g, 2, rng)
    again = dual_metric(dual_metric(h))
    assert np.abs(again.mat - h.mat).max() < 1e-12 * np.abs(h.mat).max()

    gauss = singular_catalog("gaussian", g, c=1.0)
    hw, r0 = gauss.metric, gauss.plateau_radius
    dw = dual_metric(hw)
    assert np.abs(dw.mat[..., 0, 0] * hw.mat[..., 0, 0] - 1.0).max() < 1e-12
    flip = curvature(dw).theta + curvature(hw).theta
    assert np.abs(flip).max() < 1e-8


def test_dprime_flat_metric_is_del(rng):
    g = GridSpec(2, 8, 4.0)
    h = MetricField.identity(g, 2)
    gamma = random_form(g, 2, 1, 0, rng)
    out = dprime(gamma, h)
    ref = dpartial(gamma)
    assert np.abs(out.coeffs - ref.coeffs).max() == 0.0


def test_dprime_rejects_antiholomorphic_degree(rng):
    g = GridSpec(1, 16, 8.0)
    h = MetricField.identity(g, 1)
    with pytest.raises(FormError):
        dprime(random_form(g, 1, 0, 1, rng), h)


def test_dprime_gaussian_scalar_section():
    # D' of the unit section is theta = -zbar dz on the quadratic zone
    g = GridSpec(1, 64, 8.0)
    gauss = singular_catalog("gaussian", g, c=1.0)
    h, r0 = gauss.metric, gauss.plateau_radius
    one = EForm.zeros(g, 1, 0, 0)
    one.coeffs[..., 0, 0, 0] = 1.0
    out = dprime(one, h)
    z = complex_coordinate(g, 0)
    box = (np.abs(z.real) <= 0.9 * r0) & (np.abs(z.imag) <= 0.9 * r0)
    assert np.abs(out.coeffs[..., 0, 0, 0] + np.conj(z))[box].max() < 1e-4


def test_dprime_leibniz_compatibility(rng):
    # del <a,b> = <D'a, b> + (-1)^deg <a, dbar b> for (q,0)-forms; exact to
    # roundoff when all products stay inside the band limit
    g = GridSpec(2, 16, 4.0)
    rngl = np.random.default_rng(3)
    mat = random_matrix_metric(g, 2, rngl)
    for q in (0, 1):
        a = random_form(g, 2, q, 0, rngl, kmax_frac=0.1)
        b = random_form(g, 2, q, 0, rngl, kmax_frac=0.1)
        lhs = dpartial(pairing(a, b, mat))
        rhs = pairing(dprime(a, mat), b, mat)
        rhs = rhs + (-1) ** q * pairing(a, dbar(b), mat)
        scale = max(np.abs(lhs.coeffs).max(), 1e-300)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-10 * scale


def test_dbar_annihilates_plateau_holomorphic():
    # polynomial in the plateau coordinate: holomorphic where the coordinate
    # is linear, smooth everywhere, so interior dbar is pure truncation noise
    # (squaring halves the taper's effective width, hence the smoother ramp)
    from dbarlab.weights import plateau_coordinate

    g = GridSpec(1, 64, 8.0)
    w = plateau_coordinate(g, 0, r0=0.9, s=0.31)
    f = EForm.zeros(g, 1, 0, 0)
    f.coeffs[..., 0, 0, 0] = w**2 - 0.5 * w
    out = dbar(f)
    z = complex_coordinate(g, 0)
    inner = (np.abs(z.real) <= 0.6) & (np.abs(z.imag) <= 0.6)
    scale = np.abs(f.coeffs).max()
    assert np.abs(out.coeffs[..., 0, 0, 0])[inner].max() < 5e-5 * scale


def test_dbar_squares_to_zero(rng):
    g = GridSpec(2, 8, 4.0)
    a = random_form(g, 2, 1, 0, rng)
    dd = dbar(dbar(a))
    scale = max(np.abs(dbar(a).coeffs).max(), 1e-300)
    assert np.abs(dd.coeffs).max() < 1e-10 * scale


def test_dbar_top_degree_raises(rng):
    g = GridSpec(1, 16, 8.0)
    with pytest.raises(FormError):
        dbar(random_form(g, 1, 1, 1, rng))


def test_dbar_star_pointwise_norm_identity(rng):
    # |D' gamma_beta| = |dbar*_h beta| pointwise: purely algebraic after D'
    for n, p in ((1, 1), (2, 1), (2, 2)):
        g = GridSpec(n, 8, 4.0)
        h = random_matrix_metric(g, 2, np.random.default_rng(4), amp=0.2)
        beta = random_form(g, 2, n, p, rng)
        gamma = dbar_star_formal(beta, h)
        from dbarlab.exterior import hodge_star

        dpg = dprime(hodge_star(beta), h)
        n1 = norm_sq(dpg, h)
        n2 = norm_sq(gamma, h)
        assert np.abs(n1 - n2).max() < 1e-12 * max(n1.max(), 1e-300)


def test_dbar_star_flat_case_n1(rng):
    # flat h: dbar*(g dz^dzbar) = (dg/dz) dz
    g = GridSpec(1, 16, 8.0)
    h = MetricField.identity(g, 1)
    beta = random_form(g, 1, 1, 1, rng, kmax_frac=0.3)
    out = dbar_star_formal(beta, h)
    ref = dz_array(g, beta.coeffs[..., 0, 0, 0], 0)
    assert np.abs(out.coeffs[..., 0, 0, 0] - ref).max() < 1e-10 * max(np.abs(ref).max(), 1e-300)


def test_dbar_star_stokes_adjointness(rng):
    # integral adjointness against dbar, for smooth periodic data
    for n, p in ((1, 1), (2, 1)):
        g = GridSpec(n, 16 if n == 1 else 8, 6.0)
        rngl = np.random.default_rng(5)
        h = random_matrix_metric(g, 2, rngl, amp=0.2)
        eta = random_form(g, 2, n, p - 1, rngl, kmax_frac=0.15)
        beta = random_form(g, 2, n, p, rngl, kmax_frac=0.15)
        lhs = integrate(g, inner_product(dbar(eta), beta, h))
        rhs = integrate(g, inner_product(eta, dbar_star_formal(beta, h), h))
        scale = np.sqrt(
            norm_sq(eta, h).sum() * norm_sq(beta, h).sum() * g.cell_volume ** 2
        )
        assert abs(lhs - rhs) < 1e-7 * scale


def test_dbar_star_requires_p_at_least_one(rng):
    g = GridSpec(1, 16, 8.0)
    h = MetricField.identity(g, 1)
    with pytest.raises(FormError):
        dbar_star_formal(random_form(g, 1, 1, 0, rng), h)


def test_motivational_subharmonicity_identity():
    # i del dbar |u|^2_h = -<i Theta u, u> + i <D'u, D'u> for holomorphic u
    g = GridSpec(1, 64, 8.0)
    gauss = singular_catalog("gaussian", g, c=1.0, r0=1.0, s=0.30)
    h, r0 = gauss.metric, gauss.plateau_radius
    u = EForm.zeros(g, 1, 0, 0)
    u.coeffs[..., 0, 0, 0] = 1.0  # constant sections are holomorphic
    lhs = 1j * dpartial(dbar(pairing(u, u, h))).coeffs[..., 0, 0, 0]
    theta = curvature(h)
    curv_term = -1j * pairing(curvature_wedge(theta, u), u, h).coeffs[..., 0, 0, 0]
    dpu = dprime(u, h)
    grad_term = 1j * pairing(dpu, dpu, h).coeffs[..., 0, 0, 0]
    z = complex_coordinate(g, 0)
    box = (np.abs(z.real) <= 0.9 * r0) & (np.abs(z.imag) <= 0.9 * r0)
    resid = np.abs(lhs - curv_term - grad_term)[box].max()
    scale = max(np.abs(curv_term[box]).max(), np.abs(grad_term[box]).max())
    assert resid < 1e-5 * scale


@pytest.mark.parametrize("n, N, rank", [(1, 16, 2), (2, 8, 1)])
def test_transform_once_operators_match_per_direction_reference(rng, n, N, rank):
    # sharing a spectrum leaves the arithmetic unchanged, so results are equal
    g = GridSpec(n, N, 8.0)
    diagonal = singular_catalog("gaussian", g, c=1.0, rank=rank).metric
    for h in (diagonal, random_matrix_metric(g, rank, rng)):
        assert np.array_equal(chern_connection(h), ref.chern_connection(h))
        assert np.array_equal(curvature(h).theta, ref.curvature(h))
    for p in range(n + 1):
        for q in range(n + 1):
            a = random_form(g, rank, p, q, rng)
            pairs = []
            if q < n:
                pairs.append((dbar(a), ref.dbar(a)))
            if p < n:
                pairs.append((dpartial(a), ref.dpartial(a)))
            if q > 0:
                pairs.append((dbar_transpose(a), ref.dbar_transpose(a)))
            for fast, slow in pairs:
                assert (fast.p, fast.q) == (slow.p, slow.q)
                assert np.array_equal(fast.coeffs, slow.coeffs)


def full_grid_dz(grid, arr, j, conjugate=False):
    """d/dz_j (or d/dzbar_j) through scipy.fft.fftn/ifftn over every grid axis."""
    axes = tuple(range(2 * grid.n))
    mult = _dz_multiplier(grid, j, conjugate)
    mult = mult.reshape(mult.shape + (1,) * (arr.ndim - mult.ndim))
    return scipy.fft.ifftn(mult * scipy.fft.fftn(arr, axes=axes), axes=axes)


@pytest.mark.parametrize("N", [8, 16, 32])
def test_plane_derivatives_match_full_grid_transforms(rng, monkeypatch, N):
    # a derivative transforms only its own complex plane; transforming every
    # grid axis is the same operator, so the two agree to roundoff.  The
    # per-direction reference, run on full-grid transforms, is the oracle for
    # the form operators, the connection and the curvature.  Errors are
    # relative to the operator's bound on its input, kmax^order * max|input|
    # with kmax = pi N / L: the matrix metric's connection is 1e-3 of h, so
    # relative to its own size it would measure h's roundoff.  The rank-2
    # matrix metric runs at N <= 16, where its curvature field stays small.
    g = GridSpec(2, N, 8.0)
    kmax = np.pi * N / g.L
    monkeypatch.setattr(ref, "dz_array", full_grid_dz)

    def assert_close(plane, full, scale):
        assert plane.shape == full.shape
        assert np.abs(plane - full).max() <= 1e-14 * scale

    f = random_band_limited(g, rng)
    for j in range(2):
        for conj in (False, True):
            assert_close(dz_array(g, f, j, conj), full_grid_dz(g, f, j, conj),
                         kmax * np.abs(f).max())
    metrics = [singular_catalog("gaussian", g, c=1.0).metric]
    if N <= 16:
        metrics.append(random_matrix_metric(g, 2, rng))
    for h in metrics:
        phis = h.diagonal_exponents()
        if phis is None:
            size = np.abs(h.mat).max() * np.abs(h.inverse_mat()).max()
        else:
            size = max(np.abs(phi).max() for phi in phis)
        assert_close(chern_connection(h), ref.chern_connection(h), kmax * size)
        assert_close(curvature(h).theta, ref.curvature(h), kmax**2 * size)
        a = random_form(g, h.rank, 0, 1, rng)
        scale = kmax * np.abs(a.coeffs).max()
        assert_close(dbar(a).coeffs, ref.dbar(a).coeffs, scale)
        assert_close(dpartial(a).coeffs, ref.dpartial(a).coeffs, scale)
        assert_close(dbar_transpose(a).coeffs, ref.dbar_transpose(a).coeffs, scale)


def test_sqrt_mat_clips_roundoff_and_rejects_negative_eigenvalue(rng):
    g = GridSpec(1, 8, 8.0)
    h = random_matrix_metric(g, 2, rng)
    root = sqrt_mat(h)
    assert np.abs(root @ root - h.mat).max() < 1e-13 * np.abs(h.mat).max()
    # an eigenvalue a few eps below zero is roundoff of a singular point
    mat = h.mat.copy()
    mat[2, 5] = np.diag([1.0, -1e-17])
    root = sqrt_mat(MetricField(g, 2, mat))
    assert np.abs(root[2, 5] - np.diag([1.0, 0.0])).max() == 0.0
    mat[2, 5] = np.diag([1.0, -1e-3])
    with pytest.raises(MetricError):
        sqrt_mat(MetricField(g, 2, mat))
