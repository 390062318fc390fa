import tracemalloc

import numpy as np
import pytest
import spectral_reference as ref

from dbarlab import hermitian
from dbarlab.bochner import (
    _bk_terms,
    basic_estimate,
    bk_integrated,
    bk_pointwise,
    bk_reports,
    check_support,
    xi_omega_identity,
)
from dbarlab.cli import _bk_source
from dbarlab.errors import FormError, SupportError
from dbarlab.exterior import EForm, norm_sq
from dbarlab.grid import GridSpec, integrate
from dbarlab.hermitian import curvature, dbar, dbar_star_formal, dpartial
from dbarlab.hormander import dbar_transpose
from dbarlab.metric import MetricField
from dbarlab.positivity import nakano_report
from dbarlab.singular import singular_catalog
from dbarlab.weights import random_form, smooth_source_bump

from bochner_reference import bk_terms, cross_term_integrals
from field_helpers import complex_coordinate, plateau_bump, scale_by_field
from test_hormander import nondiagonal_rank2_metric


@pytest.fixture
def rng():
    return np.random.default_rng(808)


def test_flat_constant_everything_vanishes():
    g = GridSpec(1, 16, 8.0)
    h = MetricField.identity(g, 1)
    alpha = EForm.zeros(g, 1, 1, 1)
    alpha.coeffs[..., 0, 0, 0] = 2.0 - 1.0j
    rep = bk_pointwise(alpha, h)
    assert rep.residual == 0.0
    assert all(v == 0.0 for v in rep.terms.values())
    rep_i = bk_integrated(alpha, h)
    assert rep_i.residual == 0.0


def test_bk_pointwise_gaussian_bump_n1():
    g = GridSpec(1, 64, 8.0)
    h = singular_catalog("gaussian", g, c=1.0, r0=1.0, s=0.30).metric
    alpha = EForm.zeros(g, 1, 1, 1)
    alpha.coeffs[..., 0, 0, 0] = smooth_source_bump(
        g, (g.center + 0.3, g.center - 0.2), 0.42
    )
    rep = bk_pointwise(alpha, h)
    assert rep.relative_residual < 1e-6


def test_bk_requires_p_at_least_one(rng):
    g = GridSpec(1, 16, 8.0)
    h = MetricField.identity(g, 1)
    with pytest.raises(FormError):
        bk_pointwise(random_form(g, 1, 1, 0, rng), h)


def test_bk_pointwise_resolution_decay_n2(rng):
    residuals = {}
    for N in (16, 32):
        g = GridSpec(2, N, 8.0)
        h = singular_catalog("gaussian", g, c=0.5, r0=1.0, s=0.30).metric
        alpha = EForm.zeros(g, 1, 2, 1)
        bump = smooth_source_bump(g, (g.center,) * 4, 0.45)
        rngl = np.random.default_rng(9)
        for slot in range(alpha.coeffs.shape[-2]):
            alpha.coeffs[..., 0, slot, 0] = bump * (
                1.0 + 0.3 * (-1) ** slot * 1j
            )
        residuals[N] = bk_pointwise(alpha, h).relative_residual
    assert residuals[32] / residuals[16] <= 1e-2


def test_bk_pointwise_n2_p2_decay(rng):
    # the top-degree case exercises the general-p last-term route, which this
    # harness verifies by residual decay rather than symbolically
    residuals = {}
    for N in (16, 32):
        g = GridSpec(2, N, 8.0)
        h = singular_catalog("gaussian", g, c=0.5, r0=1.0, s=0.30).metric
        alpha = EForm.zeros(g, 1, 2, 2)
        bump = smooth_source_bump(g, (g.center,) * 4, 0.45)
        alpha.coeffs[..., 0, 0, 0] = bump * (1.0 + 0.4j)
        rep = bk_pointwise(alpha, h)
        residuals[N] = rep.relative_residual
        rep_i = bk_integrated(alpha, h)
        assert rep_i.terms["dbar_alpha_integral"] == 0.0
        assert rep_i.relative_residual < 200 * rep.relative_residual
    assert residuals[32] / residuals[16] <= 1e-2


def test_bk_integrated_periodic_flat_balance(rng):
    # Theta = 0: the dbar-gamma energy balances the adjoint plus dbar energies
    g = GridSpec(1, 16, 8.0)
    h = MetricField.identity(g, 1)
    alpha = random_form(g, 1, 1, 1, rng, kmax_frac=0.25)
    rep = bk_integrated(alpha, h)
    assert abs(rep.terms["curvature_integral"]) < 1e-12 * rep.terms["adjoint_integral"]
    assert rep.relative_residual < 1e-10


def test_bk_integrated_top_degree_closed(rng):
    # at top degree alpha is automatically closed: curvature + dbar-gamma = adjoint
    g = GridSpec(1, 64, 8.0)
    h = singular_catalog("gaussian", g, c=1.0, r0=1.0, s=0.30).metric
    alpha = random_form(g, 1, 1, 1, rng, kmax_frac=0.2)
    rep = bk_integrated(alpha, h)
    assert rep.terms["dbar_alpha_integral"] == 0.0
    balance = (
        rep.terms["curvature_integral"]
        + rep.terms["dbar_gamma_integral"]
        - rep.terms["adjoint_integral"]
    )
    assert abs(balance) < 1e-10 * rep.terms["adjoint_integral"]


def test_bk_integrated_n2_p1(rng):
    g = GridSpec(2, 16, 8.0)
    h = singular_catalog("gaussian", g, c=0.5, r0=1.0, s=0.30).metric
    alpha = random_form(g, 1, 2, 1, rng, kmax_frac=0.2)
    rep = bk_integrated(alpha, h)
    assert rep.relative_residual < 1e-3  # N = 16 discretization floor


def test_bk_integrated_support_enforcement(rng):
    g = GridSpec(1, 32, 8.0)
    h = singular_catalog("gaussian", g, c=1.0).metric
    alpha = random_form(g, 1, 1, 1, rng)  # full-box support
    with pytest.raises(SupportError) as err:
        check_support(alpha, h, 0.125)
    assert err.value.measured > 0

    inner = scale_by_field(alpha, plateau_bump(g, r_flat=1.0, r_zero=2.4))
    assert check_support(inner, h, 0.125) <= 1e-10


def test_cross_terms_equal_minus_adjoint_energy():
    g = GridSpec(1, 64, 8.0)
    h = singular_catalog("gaussian", g, c=1.0, r0=1.0, s=0.30).metric
    alpha = EForm.zeros(g, 1, 1, 1)
    alpha.coeffs[..., 0, 0, 0] = smooth_source_bump(
        g, (g.center - 0.2, g.center + 0.1), 0.42
    )
    c_minus, c_plus, target = cross_term_integrals(alpha, h)
    assert c_minus == pytest.approx(target, rel=1e-6)
    assert c_plus == pytest.approx(target, rel=1e-6)


def test_xi_omega_symmetric_case(rng):
    # symmetric coefficient matrices: xi ^ omega = 0 and both sides reduce to
    # the plain norm
    g = GridSpec(2, 8, 8.0)
    h = MetricField.identity(g, 2)
    xi = EForm.zeros(g, 2, 1, 1)
    sym = rng.standard_normal(g.shape + (2,)) + 1j * rng.standard_normal(g.shape + (2,))
    # coefficient of hat-dz_j ^ dzbar_k with xi_{jk} = xi_{kj}: in increasing
    # multi-index storage, build from a symmetric 2x2 coefficient matrix
    coeffs = np.zeros(g.shape + (2, 2, 2), dtype=np.complex128)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = 0.5 * (m + m.T)  # symmetric, NOT hermitian
    for j in range(2):
        for k in range(2):
            # hat-dz_j = (-1)^j dz_{other}; slot of dz_{other} is (1 - j)
            coeffs[..., 1 - j, k, :] += ((-1) ** j * m[j, k]) * sym
    xi.coeffs = coeffs
    from dbarlab.exterior import omega, wedge

    assert np.abs(wedge(xi, omega(g)).coeffs).max() < 1e-12 * np.abs(xi.coeffs).max()
    assert xi_omega_identity(xi, h) < 1e-12


def test_xi_omega_identity_random(rng):
    for n in (1, 2):
        g = GridSpec(n, 8, 8.0)
        h = MetricField.identity(g, 2)
        xi = random_form(g, 2, n - 1, 1, rng)
        assert xi_omega_identity(xi, h) < 1e-12


def test_xi_omega_wrong_bidegree(rng):
    g = GridSpec(2, 8, 8.0)
    with pytest.raises(FormError):
        xi_omega_identity(random_form(g, 1, 2, 1, rng))


def test_basic_estimate_zero_form():
    g = GridSpec(1, 16, 8.0)
    h = MetricField.identity(g, 1)
    alpha = EForm.zeros(g, 1, 1, 1)
    res = basic_estimate(alpha, h, 1.0, enforce_support=False)
    assert res["slack"] == 0.0


def test_basic_estimate_random_bumps_n1():
    g = GridSpec(1, 64, 8.0)
    gauss = singular_catalog("gaussian", g, c=1.0)
    h, r0 = gauss.metric, gauss.plateau_radius
    z = complex_coordinate(g, 0)
    box = (np.abs(z.real) <= 0.95 * r0) & (np.abs(z.imag) <= 0.95 * r0)
    delta = nakano_report(h, curvature(h), region=box)[0]
    rngl = np.random.default_rng(21)
    for _ in range(10):
        center = tuple(g.center + rngl.uniform(-0.3, 0.3) for _ in range(2))
        alpha = EForm.zeros(g, 1, 1, 1)
        alpha.coeffs[..., 0, 0, 0] = smooth_source_bump(g, center, 0.3) * (
            rngl.standard_normal() + 1j * rngl.standard_normal()
        )
        res = basic_estimate(alpha, h, delta)
        assert res["relative_slack"] >= -1e-6


def test_basic_estimate_n2(rng):
    g = GridSpec(2, 16, 8.0)
    gauss = singular_catalog("gaussian", g, c=0.5)
    h, r0 = gauss.metric, gauss.plateau_radius
    region = np.ones(g.shape, dtype=bool)
    for axis in range(4):
        t = g.axis_coordinates() - g.center
        shape = [1] * 4
        shape[axis] = g.N
        region &= (np.abs(t) <= 0.95 * r0).reshape(shape)
    delta = nakano_report(h, curvature(h), region=region)[0]
    assert delta > 0
    for p in (1, 2):
        alpha = scale_by_field(random_form(g, 1, 2, p, rng, kmax_frac=0.2), plateau_bump(g))
        bump = plateau_bump(g, r_flat=0.4 * r0, r_zero=min(0.9 * r0, 0.45 * g.L))
        alpha = scale_by_field(alpha, bump)
        res = basic_estimate(alpha, h, delta)
        assert res["relative_slack"] >= -1e-6


@pytest.mark.parametrize("n, p", [(1, 1), (2, 1), (2, 2)])
def test_bk_reports_matches_separate_calls(rng, n, p):
    g = GridSpec(n, 32 if n == 1 else 16, 8.0)
    h = singular_catalog("gaussian", g, c=0.5, r0=1.0, s=0.30).metric
    alpha = scale_by_field(random_form(g, 1, n, p, rng, kmax_frac=0.2), plateau_bump(g))
    rep_p, rep_i = bk_reports(alpha, h, margin=0.125)
    sep_p = bk_pointwise(alpha, h, margin=0.125)
    sep_i = bk_integrated(alpha, h)
    assert rep_p.residual == sep_p.residual
    assert rep_p.relative_residual == sep_p.relative_residual
    assert rep_p.terms == sep_p.terms
    scale = max(abs(v) for v in sep_i.terms.values())
    assert scale > 0
    assert abs(rep_i.residual - sep_i.residual) <= 1e-13 * scale
    for name, value in sep_i.terms.items():
        assert abs(rep_i.terms[name] - value) <= 1e-13 * scale
    # the pass reuses D'gamma for the adjoint term; the formal adjoint recomputes it
    adjoint = integrate(g, norm_sq(dbar_star_formal(alpha, h), h))
    assert abs(rep_i.terms["adjoint_integral"] - adjoint) <= 1e-13 * scale


def _traced_peak_fields(alpha, h):
    """bk_reports' traced peak in full-grid complex fields, and whether it repeats its reports."""
    field_bytes = np.dtype(np.complex128).itemsize * np.prod(alpha.grid.shape)
    expected = bk_reports(alpha, h)  # also fills the lazy caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rep_p, rep_i = bk_reports(alpha, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    same = rep_p.terms == expected[0].terms and rep_i.terms == expected[1].terms
    return (peak - start) / field_bytes, same


def test_bk_reports_traced_peak_stays_within_field_budget():
    # n = 2, N = 16, rank 1, curvature computed inside the pass.  The pass
    # holds gamma, one curvature block at a time and no materialized omega
    # power, frees theta_j and dbar gamma early, adds each derivative into
    # its slot block by block, leaves zero slots unwritten, and keeps only
    # the interior box of each finished density: 9.45 full-grid complex
    # fields of traced peak, against 10.1 with full-grid derivatives and
    # densities, 11.1 with the full curvature field and 21.0 when it and
    # omega^0 lived for the whole pass.
    g = GridSpec(2, 16, 8.0)
    h = singular_catalog("gaussian", g, c=0.5, r0=1.0, s=0.30).metric
    alpha = EForm.zeros(g, 1, 2, 1)
    alpha.coeffs[..., 0, 0, 0] = smooth_source_bump(
        g, tuple(g.center + 0.3 * (-1) ** k for k in range(4)), 0.05 * g.L
    )
    peak, same = _traced_peak_fields(alpha, h)
    assert peak <= 9.5
    assert same


def test_bk_reports_traced_peak_keeps_a_diagonal_connection_at_rank():
    # a rank-2 diagonal metric keeps theta_j and Theta_jk as their r
    # diagonal fields, not r x r blocks: 12.9 full-grid complex fields of
    # traced peak at n = 1, N = 128, against 21.0 with full blocks,
    # full-grid derivatives and full-grid densities
    g = GridSpec(1, 128, 8.0)
    h = singular_catalog("gaussian", g, c=0.5, r0=1.0, s=0.30, rank=2).metric
    peak, same = _traced_peak_fields(_bk_source(g, 2), h)
    assert peak <= 13.0
    assert same


def test_bk_pass_transforms_no_zero_coefficient(monkeypatch):
    # the CLI's source fills one of the two slots of its (2,1)-form; the other
    # slot and the zero slots it leaves in gamma and the pairings are never
    # transformed, gamma is transformed once per direction for dbar and del,
    # and one connection block feeds D'gamma and its curvature row.  Each
    # derivative transforms only its own complex plane, and there only the
    # live slices of the other plane (the source is a bump of compact
    # support): 23.875 one-axis FFT passes over the field, where every slice
    # took 42 and 18 full-grid transforms took 72.  A pass is counted in
    # elements over the field's size, so a blocked transform counts once.
    # No forward pass has a dead slice in its input
    g = GridSpec(2, 8, 8.0)
    h = singular_catalog("gaussian", g, c=0.5, r0=1.0, s=0.30).metric
    field = np.prod(g.shape)
    inputs, passes, live = [], [], []
    call = {}

    def nonzero_input(transform):
        def wrapped(grid, arr, j, *args):
            inputs.append(np.any(arr))
            call.update(j=j, ndim=arr.ndim)
            return transform(grid, arr, j, *args)
        return wrapped

    def one_pass(fft):
        def wrapped(arr, *args, **kwargs):
            passes.append((fft.__name__, arr.size / field))
            if fft.__name__ == "fft":
                # a block has the other plane's axes merged into one index
                j, merged = call["j"], arr.ndim < call["ndim"]
                plane = (j, j + 1) if merged else (2 * j, 2 * j + 1)
                components = range(4 - merged, arr.ndim)
                live.append(np.all(np.any(arr, axis=plane + tuple(components))))
            return fft(arr, *args, **kwargs)
        return wrapped

    for name in ("_plane_derivatives", "dz_array"):
        monkeypatch.setattr(hermitian, name, nonzero_input(getattr(hermitian, name)))
    for name in ("fft", "ifft", "rfft"):
        monkeypatch.setattr(np.fft, name, one_pass(getattr(np.fft, name)))
    bk_reports(_bk_source(g, 1), h)
    assert sum(size for _, size in passes) == 23.875
    assert "rfft" not in {name for name, _ in passes}
    assert all(inputs)
    assert live and all(live)


@pytest.mark.parametrize("rank", [1, 2])
def test_differentials_of_forms_with_zero_slots_match_reference(rng, rank):
    g = GridSpec(2, 8, 8.0)
    for p in range(3):
        for q in range(3):
            a = random_form(g, rank, p, q, rng)
            # the coefficient fields cycle through zero, real, imaginary and
            # complex, and one point of the first field is NaN, which is nonzero
            for count, index in enumerate(np.ndindex(a.coeffs.shape[-3:])):
                field = a.coeffs[(...,) + index]
                field[...] = (0.0, field.real, 1j * field.imag, field)[count % 4]
            a.coeffs[(0,) * 4 + (0, 0, 0)] = np.nan
            if q < 2:
                assert np.array_equal(dbar(a).coeffs, ref.dbar(a).coeffs, equal_nan=True)
            if p < 2:
                assert np.array_equal(dpartial(a).coeffs, ref.dpartial(a).coeffs, equal_nan=True)
            if q > 0:
                assert np.array_equal(dbar_transpose(a).coeffs, ref.dbar_transpose(a).coeffs,
                                      equal_nan=True)


def _pass_metric(g, kind, rng):
    gauss = singular_catalog("gaussian", g, c=0.5, r0=1.0, s=0.30).metric
    if kind == "rank1":
        return gauss
    if kind == "diagonal-rank2":
        phi = -np.log(gauss.mat[..., 0, 0].real)
        return MetricField.from_diagonal(g, [np.exp(-phi), np.exp(-0.5 * phi)])
    return nondiagonal_rank2_metric(g, rng)


@pytest.mark.parametrize("source", ["one-slot", "every-slot"])
@pytest.mark.parametrize("metric", ["rank1", "diagonal-rank2", "nondiagonal-rank2"])
@pytest.mark.parametrize("n, p", [(1, 1), (2, 1), (2, 2)])
def test_bk_terms_equal_the_reference_pass_bitwise(n, p, metric, source):
    # one connection for Theta ^ gamma and D'gamma, curvature blocks only for
    # the directions gamma grows, one spectrum for dbar gamma and del gamma:
    # the same arithmetic as the full curvature field and dprime
    rng = np.random.default_rng(17)
    g = GridSpec(n, 16 if n == 1 else 8, 8.0)
    h = _pass_metric(g, metric, rng)
    if source == "every-slot":
        alpha = random_form(g, h.rank, n, p, rng, kmax_frac=0.25)
    elif p == 1:
        alpha = _bk_source(g, h.rank)
    else:
        alpha = EForm.zeros(g, h.rank, n, p)
        alpha.coeffs[..., 0, 0, 0] = smooth_source_bump(g, (g.center,) * (2 * n), 0.05 * g.L)
    fast, slow = dict(_bk_terms(alpha, h)), bk_terms(alpha, h)
    assert fast.keys() == slow.keys()
    for name, value in slow.items():
        assert fast[name].dtype == value.dtype
        assert np.array_equal(fast[name].view(np.float64), value.view(np.float64)), name
    assert np.abs(slow["curvature"]).max() > 0
