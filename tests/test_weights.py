import itertools

import numpy as np
import plateau_reference
import pytest
import spectral_reference as ref
from field_helpers import smooth_source_bump_reference

from dbarlab.errors import ValidationError
from dbarlab.grid import GridSpec
from dbarlab.singular import singular_catalog
from dbarlab.weights import (
    _reach,
    _saturation_law,
    default_plateau_radius,
    random_band_limited,
    saturating_square_profile,
    smooth_source_bump,
)


@pytest.mark.parametrize("n, N, kmax_frac, real", [
    (1, 16, 0.25, False),
    (1, 8, 2.0, True),
    (2, 16, 0.25, False),
    (2, 8, 0.1, True),
])
def test_separable_band_limited_matches_full_grid_reference(n, N, kmax_frac, real):
    g = GridSpec(n, N, 8.0)
    rng_fast = np.random.default_rng(5)
    rng_slow = np.random.default_rng(5)
    fast = random_band_limited(g, rng_fast, kmax_frac)
    slow = ref.random_band_limited(g, rng_slow, kmax_frac)
    if real:
        fast, slow = fast.real, slow.real
    assert np.abs(fast - slow).max() <= 1e-14 * np.abs(slow).max()
    assert rng_fast.bit_generator.state == rng_slow.bit_generator.state


def test_profile_too_wide_for_box_rejected():
    # r0 = 3.5 at L = 8 saturates past L/2 and would break periodicity
    with pytest.raises(ValidationError):
        saturating_square_profile(64, 8.0, 3.5, 0.22)
    with pytest.raises(ValidationError):
        singular_catalog("gaussian", GridSpec(1, 16, 8.0), c=1.0, r0=3.5)
    with pytest.raises(ValidationError):
        saturating_square_profile(64, 8.0, 0.0, 0.22)


def test_profile_at_half_box_accepted():
    # the shipped configs saturate exactly at L/2: 1.0 + (4.5 + 5.5) * 0.30
    _, vals = saturating_square_profile(64, 8.0, 1.0, 0.30)
    assert np.isfinite(vals).all()


def test_closed_form_profile_matches_quadrature():
    # the closed-form tail against the 128-panel Gauss-Legendre rule it
    # replaced, sample by sample, including plateaus narrow against the ramp
    tails = 0
    for N, L, r0, s in itertools.product(
        (16, 64, 128), (4.0, 8.0, 12.5), (0.2, 0.5, 1.0, 1.7, 2.5), (0.05, 0.1, 0.22, 0.3)
    ):
        tm, r1 = _reach(r0, s)
        if r1 > 0.5 * L:
            continue
        t_axis, vals = saturating_square_profile(N, L, r0, s)
        for t, value in zip(np.abs(t_axis), vals):
            if t <= r0:
                assert value == t * t
                continue
            expected = plateau_reference._profile_value(r0, min(t, r1), s)
            assert abs(value - expected) <= 2e-15 * expected, (N, L, r0, s, t)
            tails += 1
    assert tails > 1000
    for s in np.linspace(0.01, 1.0, 100):
        for got, expected in zip(_saturation_law(s), plateau_reference._saturation_law(s)):
            assert abs(got - expected) <= 2e-15 * expected, s


def _radius_or_error(fn, grid, c, budget):
    try:
        return fn(grid, c, budget)
    except ValidationError as exc:
        return str(exc)


def test_closed_form_plateau_radius_matches_bisection():
    # the saturation value is a quadratic in r0, so its root replaces the
    # 60-step bisection; the sweep covers the cap at hi and both rejections
    # (c = 64 at L = 4 is too deep, c = 0.05 leaves no room for the ramp)
    solved = capped = 0
    raised = set()
    for n, N, L, c, budget in itertools.product(
        (1, 2), (16, 64), (4.0, 8.0, 12.5), (0.05, 0.25, 1.0, 2.0, 8.0, 64.0), (1.0, 7.0, 40.0)
    ):
        grid = GridSpec(n, N, L)
        fast = _radius_or_error(default_plateau_radius, grid, c, budget)
        slow = _radius_or_error(plateau_reference.plateau_radius, grid, c, budget)
        if isinstance(slow, str):
            assert fast == slow, (n, N, L, c, budget)
            raised.add(slow.split(":")[0].split(" for ")[0])
            continue
        assert isinstance(fast, float), (n, N, L, c, budget, fast)
        assert abs(fast - slow) <= 1e-13 * slow, (n, N, L, c, budget, fast, slow)
        hi = 0.5 * L - 10.0 * (0.0275 * L / c ** 0.25) - 1e-9
        capped += fast == hi
        solved += fast != hi
    assert solved > 50 and capped > 0
    assert raised == {"weight too deep", "box too small"}


def test_weight_fields_are_real_contiguous_arrays():
    # the exponents derived from a catalog metric are each their own float64
    # array, not a strided real view into a complex128 field
    g = GridSpec(2, 8, 8.0)
    h = singular_catalog("gaussian", g, c=0.5, rank=2, r0=1.0, s=0.3).metric
    for w in h.diagonal_exponents():
        assert w.dtype == np.float64 and w.flags.c_contiguous
        base = w
        while base is not None:
            assert base.dtype != np.complex128
            base = base.base
    bump = smooth_source_bump(g, (g.center,) * 4, 0.5)
    assert isinstance(bump, np.ndarray)
    assert bump.dtype == np.float64 and bump.shape == g.shape


@pytest.mark.parametrize("n, N", [(2, 32), (1, 64), (2, 16), (1, 16)])
def test_source_bump_on_its_support_box_is_the_full_grid_bump_bitwise(n, N):
    # the bump is evaluated only on the box of its support; every point off
    # the box is an exact zero of the full-grid formula, and every point on
    # it takes the same arithmetic.  Centred, offset and near-seam centres,
    # with supports inside the box, across the seam, past it and off the grid
    g = GridSpec(n, N, 8.0)
    dims = 2 * n
    centers = [
        (g.center,) * dims,
        tuple(g.center + 0.3 * (-1) ** k for k in range(dims)),
        tuple(0.1 + 0.37 * k for k in range(dims)),
        (g.L - 0.05,) + (g.center,) * (dims - 1),
        (g.L + 3.0,) * dims,
    ]
    for center in centers:
        for sigma in (0.05 * g.L, 0.3, 0.42, 1.5):
            got = smooth_source_bump(g, center, sigma)
            expected = smooth_source_bump_reference(g, center, sigma)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (center, sigma)
