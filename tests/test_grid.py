import numpy as np
import pytest
import scipy.fft

from dbarlab.errors import FormError, ValidationError
from dbarlab.grid import (
    GridSpec,
    _dz_multiplier,
    convolve,
    dz_array,
    from_spectrum,
    integrate,
    interior_mask,
    seam_leakage,
    to_lattice,
    to_spectrum,
)
from dbarlab.weights import random_band_limited


def test_gridspec_validation():
    with pytest.raises(ValidationError):
        GridSpec(3, 16, 8.0)
    with pytest.raises(ValidationError):
        GridSpec(1, 12, 8.0)
    with pytest.raises(ValidationError):
        GridSpec(1, 4, 8.0)
    with pytest.raises(ValidationError):
        GridSpec(1, 16, -1.0)


def test_plane_wave_eigenfunction():
    g = GridSpec(1, 16, 8.0)
    x = g.coordinate(0)
    f = np.exp(2j * np.pi * x / g.L)
    df = dz_array(g, f, 0)
    expected = (1j * np.pi / g.L) * f
    assert np.abs(df - expected).max() < 1e-13
    dfbar = dz_array(g, f, 0, conjugate=True)
    assert np.abs(dfbar - expected).max() < 1e-13  # x-wave: both halves equal


def test_y_wave_conjugate_split():
    g = GridSpec(1, 16, 8.0)
    y = g.coordinate(1)
    f = np.exp(2j * np.pi * y / g.L)
    assert np.abs(dz_array(g, f, 0) - (np.pi / g.L) * f).max() < 1e-13
    assert np.abs(dz_array(g, f, 0, True) + (np.pi / g.L) * f).max() < 1e-13


def test_constant_derivative_vanishes():
    g = GridSpec(2, 8, 4.0)
    f = np.full(g.shape, 3.7 - 0.2j)
    for j in range(2):
        for conj in (False, True):
            assert np.abs(dz_array(g, f, j, conj)).max() == 0.0


def test_axis_range_checked():
    g = GridSpec(1, 16, 8.0)
    f = np.ones(g.shape)
    with pytest.raises(FormError):
        dz_array(g, f, 1)


def test_band_limited_vs_finite_differences():
    # spectral derivative is exact on band-limited data, so the mismatch with
    # centered differences is the FD truncation error h^2/6 f''' + O(h^4)
    g = GridSpec(1, 32, 8.0)
    rng = np.random.default_rng(10)
    f = random_band_limited(g, rng, kmax_frac=0.2)
    h = g.spacing
    fd_x = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2 * h)
    fd_y = (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2 * h)
    fd = 0.5 * (fd_x - 1j * fd_y)
    spectral = dz_array(g, f, 0)
    third_x = dz_array(g, dz_array(g, dz_array(g, f, 0), 0), 0)  # magnitude proxy
    bound = (h * h / 6.0) * 8.0 * np.abs(third_x).max() + 1e-12
    assert np.abs(spectral - fd).max() < bound
    assert np.abs(spectral - fd).max() > 1e-9  # FD really is only O(h^2)


def test_integrate_constant_and_orthogonality():
    g = GridSpec(1, 16, 8.0)
    assert integrate(g, np.full(g.shape, 2.5)) == pytest.approx(2.5 * g.L**2)
    x = g.coordinate(0)
    wave = np.exp(2j * np.pi * x / g.L)
    assert abs(integrate(g, wave)) < 1e-12


def test_discrete_stokes():
    g = GridSpec(2, 8, 4.0)
    rng = np.random.default_rng(11)
    f = random_band_limited(g, rng, kmax_frac=0.4)
    scale = abs(integrate(g, np.abs(f))) + 1e-300
    for j in range(2):
        for conj in (False, True):
            assert abs(integrate(g, dz_array(g, f, j, conj))) / scale < 1e-12


def test_partial_linear_and_commuting():
    g = GridSpec(2, 8, 4.0)
    rng = np.random.default_rng(12)
    f = random_band_limited(g, rng, 0.4)
    h = random_band_limited(g, rng, 0.4)
    lin = dz_array(g, 2.0 * f + 1j * h, 0)
    ref = 2.0 * dz_array(g, f, 0) + 1j * dz_array(g, h, 0)
    assert np.abs(lin - ref).max() < 1e-10 * np.abs(ref).max()
    ab = dz_array(g, dz_array(g, f, 0), 1, True)
    ba = dz_array(g, dz_array(g, f, 1, True), 0)
    assert np.abs(ab - ba).max() < 1e-10 * max(np.abs(ab).max(), 1e-300)


def _delta_kernel(g):
    vals = np.zeros(g.shape)
    vals[(0,) * (2 * g.n)] = 1.0 / g.cell_volume
    return vals


def test_convolve_delta_and_constant():
    g = GridSpec(1, 16, 8.0)
    rng = np.random.default_rng(13)
    f = random_band_limited(g, rng, 0.3)
    out = convolve(g, f, _delta_kernel(g))
    assert np.abs(out - f).max() < 1e-10 * np.abs(f).max()
    const = np.full(g.shape, 4.2)
    out2 = convolve(g, const, _delta_kernel(g))
    assert np.abs(out2 - 4.2).max() < 1e-10


def test_convolve_validation():
    g = GridSpec(1, 16, 8.0)
    f = np.ones(g.shape)
    bad = -np.ones(g.shape) / g.L**2
    with pytest.raises(ValidationError):
        convolve(g, f, bad)
    double = 2.0 * np.ones(g.shape) / g.L**2
    with pytest.raises(ValidationError):
        convolve(g, f, double)


def test_convolve_against_direct_summation():
    from dbarlab.singular import mollifier_kernel

    g = GridSpec(1, 8, 8.0)
    rng = np.random.default_rng(14)
    f = random_band_limited(g, rng, 0.5, real=True)
    kern = mollifier_kernel(g, 2.2)
    spectral = convolve(g, f, kern)
    direct = np.zeros(g.shape, dtype=np.complex128)
    for dx in range(g.N):
        for dy in range(g.N):
            if kern[dx, dy] == 0.0:
                continue
            direct += kern[dx, dy] * np.roll(np.roll(f, dx, axis=0), dy, axis=1)
    direct *= g.cell_volume
    assert np.abs(spectral - direct).max() < 1e-12 * np.abs(direct).max()


def test_convolve_radial_kernel_adds_constant_on_quadratic_field():
    # |z|^2 convolved with a radial unit-mass kernel gains the constant second
    # moment wherever the kernel support does not cross the seam
    from dbarlab.singular import mollifier_kernel

    g = GridSpec(1, 32, 8.0)
    z = g.z(0)
    f = np.abs(z) ** 2
    eps = 0.8
    kern = mollifier_kernel(g, eps)
    out = convolve(g, f, kern)
    shift = out - f
    interior = np.abs(z) < 0.5 * g.L - eps - 2 * g.spacing
    inner_vals = shift[interior]
    assert inner_vals.min() > 0.0
    assert inner_vals.max() - inner_vals.min() < 1e-8 * max(inner_vals.max(), 1e-300)


def test_convolve_preserves_integral():
    from dbarlab.singular import mollifier_kernel

    g = GridSpec(1, 16, 8.0)
    rng = np.random.default_rng(15)
    f = random_band_limited(g, rng, 0.4)
    kern = mollifier_kernel(g, 1.5)
    before = integrate(g, f)
    after = integrate(g, convolve(g, f, kern))
    assert abs(after - before) < 1e-12 * max(abs(before), 1e-300)


def test_interior_mask_and_leakage():
    g = GridSpec(1, 16, 8.0)
    mask = interior_mask(g, 0.25)
    assert mask.sum() == (g.N // 2) ** 2
    density = np.ones(g.shape)
    assert seam_leakage(density, g, 0.25) == pytest.approx(0.75)
    inner = np.where(mask, 1.0, 0.0)
    assert seam_leakage(inner, g, 0.25) == 0.0


@pytest.mark.parametrize("n, N, slots, rank", [(1, 32, 1, 1), (2, 8, 2, 2), (2, 16, 1, 2)])
def test_transform_pair_matches_numpy_fft(n, N, slots, rank):
    # grid + (C(n,p), r): the component axes ride along the grid transforms
    g = GridSpec(n, N, 8.0)
    rng = np.random.default_rng(5)
    shape = g.shape + (slots, rank)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = tuple(range(2 * n))
    spec = to_spectrum(g, arr)
    ref = np.fft.fftn(arr, axes=axes)
    assert np.abs(spec - ref).max() <= 1e-13 * np.abs(ref).max()
    back = to_lattice(g, spec)
    ref_back = np.fft.ifftn(spec, axes=axes)
    assert np.abs(back - ref_back).max() <= 1e-13 * np.abs(ref_back).max()
    assert np.abs(back - arr).max() <= 1e-13 * np.abs(arr).max()


@pytest.mark.parametrize("n, N, slots, rank", [(1, 32, 1, 1), (2, 8, 2, 2)])
def test_from_spectrum_is_the_plain_inverse_and_leaves_spec_alone(n, N, slots, rank):
    # callers such as curvature, chern_connection and _differential reuse one
    # spectrum for several derivatives, so the in-place inverse must not touch it
    g = GridSpec(n, N, 8.0)
    rng = np.random.default_rng(9)
    shape = g.shape + (slots, rank)
    spec = to_spectrum(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    kept = spec.copy()
    for j in range(n):
        for conj in (False, True):
            mult = _dz_multiplier(g, j, conj)[..., None, None]
            expected = scipy.fft.ifftn(mult * spec, axes=tuple(range(2 * n)))
            assert np.array_equal(from_spectrum(g, spec, j, conj), expected)
            assert np.array_equal(spec, kept)
