"""Periodic model weights, bumps, and random band-limited test fields.

Gaussian-type weights are apodized so every field is genuinely periodic: the
per-axis exponent profile m(t) equals t^2 on |t| <= r0, then its derivative
is switched off by an erfc ramp,

    m'(t) = 2 t * q(t),   q(t) = erfc((t - tm)/s) / 2,

so m saturates to a constant well before the seam.  The erfc ramp is the
Gaussian-smoothed indicator, whose spectrum decays like exp(-(k s)^2 / 2); s
is chosen as a fraction of the box size, independent of resolution, so one
fixed continuum weight can be sampled across a convergence study.  q is
below 1e-14 at the nominal saturation radius, which makes the profile
constant near the seam to machine precision.

Inside the box where every axis offset satisfies |t| <= r0 the weight is
exactly exp(-c|z - z_c|^2); all curvature claims are made on that region.
The saturation keeps the weight's dynamic range bounded, with the exponent
budget split evenly across the 2n real axes.

The tail is the integral of m' in closed form, with math.erfc and math.exp.
With x = (t - tm)/s, m(t) = r0^2 + F(x(t)) - F(x(r0)) for

    F(x) = s tm (x erfc x - e^(-x^2)/sqrt(pi))
           + s^2 ((2x^2 - 1)/4 erfc x - x e^(-x^2)/(2 sqrt(pi))),

evaluated in the rearrangement _saturated_square gives, which subtracts no
terms much larger than m (the difference as written loses up to 1e-14 of m
when r0 is small against s).  With t = r0 + u the saturation value is
exactly r0^2 + 2 A r0 + B, A and B fixed integrals of the ramp
(_saturation_law, from the same antiderivatives), so the default r0 is a
closed-form root.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .grid import GridSpec, periodic_offset

RAMP_REACH = 5.5   # erfc(5.5) ~ 7e-15: the ramp has saturated to 0 beyond this
CORE_REACH = 4.5   # erfc(4.5)/2 ~ 1e-10: the ramp is still 1 to within 1e-10 here
BUDGET = 7.0       # the weight's default exponent range, which sets r0


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step with exact endpoints: 0 for t <= 0, 1 for t >= 1.

    Used where exact compact support matters more than spectral decay.
    """
    t = np.asarray(t, dtype=np.float64)
    a = np.zeros_like(t)
    b = np.zeros_like(t)
    pos = t > 0
    a[pos] = np.exp(-1.0 / t[pos])
    neg = t < 1
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return a / (a + b)


def _ramp_down(t: np.ndarray, tm: float, s: float) -> np.ndarray:
    """erfc ramp from 1 to 0 centered at tm with smoothing scale s."""
    return np.array([0.5 * math.erfc((x - tm) / s) for x in np.asarray(t, dtype=np.float64)])


def _reach(r0: float, s: float) -> tuple:
    """(tm, r1): the ramp's center and the radius by which the profile saturates."""
    tm = r0 + CORE_REACH * s
    return tm, tm + RAMP_REACH * s


def _erfc_antiderivatives(x: float) -> tuple:
    """(G0, G1) at x: antiderivatives of erfc(x) and of x erfc(x)."""
    erfc = math.erfc(x)
    gauss = math.exp(-x * x) / math.sqrt(math.pi)
    return x * erfc - gauss, (2.0 * x * x - 1.0) / 4.0 * erfc - 0.5 * x * gauss


def _ramp_moment(x: float, tm: float, s: float) -> float:
    """F(x) = s tm G0(x) + s^2 G1(x), an antiderivative of m'(t) = 2 t ramp(t) in x = (t - tm)/s."""
    g0, g1 = _erfc_antiderivatives(x)
    return s * tm * g0 + s * s * g1


def _saturated_square(t: float, tm: float, s: float) -> float:
    """m(t) = r0^2 + integral of 2 u ramp(u) on [r0, t], for r0 = tm - CORE_REACH s <= t.

    Up to the ramp's center it is t^2 less the integral of 2 u (1 - ramp(u)),
    which is F with tm -> -tm on the reflected range; beyond, m(tm) plus the
    integral the ramp keeps.  Neither form subtracts terms much larger than m.
    """
    x = (t - tm) / s
    if x > 0.0:
        return _saturated_square(tm, tm, s) + (_ramp_moment(x, tm, s) - _ramp_moment(0.0, tm, s))
    return t * t - (_ramp_moment(-x, -tm, s) - _ramp_moment(CORE_REACH, -tm, s))


@lru_cache(maxsize=64)
def saturating_square_profile(N: int, L: float, r0: float, s: float) -> tuple:
    """Sampled profile m(|t|) at the N centered axis offsets; m = t^2 on [0, r0].

    Beyond r0 the profile continues as the closed-form integral of
    m'(t) = 2 t * ramp(t), saturating by r0 + (CORE_REACH + RAMP_REACH) * s.
    Returned as tuples to stay hashable.
    """
    tm, r1 = _reach(r0, s)
    if not (0 < r0 and 0 < s and r1 <= 0.5 * L):
        raise ValidationError(
            f"profile needs r0 > 0, s > 0 and to saturate inside the box: "
            f"r0={r0}, s={s}, saturation {r1} vs L/2={L / 2}"
        )
    t_axis = np.arange(N) * (L / N) - 0.5 * L
    a = np.abs(t_axis)
    vals = np.empty_like(a)
    core = a <= r0
    vals[core] = a[core] ** 2
    vals[~core] = [_saturated_square(min(tp, r1), tm, s) for tp in a[~core]]
    return tuple(t_axis), tuple(vals)


def _axis_profile(grid: GridSpec, r0: float, s: float, center: float) -> np.ndarray:
    """Profile m(t - center) sampled on the axis, wrapped periodically."""
    _, vals = saturating_square_profile(grid.N, grid.L, r0, s)
    vals = np.asarray(vals)
    d = periodic_offset(grid, grid.axis_coordinates() - center)
    idx = np.round((d + 0.5 * grid.L) / grid.spacing).astype(int) % grid.N
    return vals[idx]


def _saturation_law(s: float) -> tuple:
    """(A, B), the integrals of ramp(u) and 2 u ramp(u) on [0, r1 - r0], the same for all r0.

    B is the saturation value at r0 = 0; A is tm less the ramp's deficit below
    its center plus its mass above, in x = (u - tm)/s with tm = CORE_REACH s.
    """
    g0_core, _ = _erfc_antiderivatives(CORE_REACH)
    g0_ramp, _ = _erfc_antiderivatives(RAMP_REACH)
    tm = CORE_REACH * s
    A = s * (CORE_REACH + 0.5 * (g0_ramp - g0_core))
    return A, _saturated_square(tm + RAMP_REACH * s, tm, s)


def default_smoothing_scale(grid: GridSpec, c: float) -> float:
    """Ramp smoothing scale: a box fraction, mildly tightened for deeper weights."""
    return 0.0275 * grid.L / max(c, 1.0e-6) ** 0.25


def default_plateau_radius(grid: GridSpec, c: float, budget: float) -> float:
    """Quadratic-zone radius r0 keeping the weight's exponent range near budget, c > 0.

    The separable exponent is c * sum over 2n axes of m(t); each axis
    saturates at r0^2 + 2 A r0 + B (_saturation_law), so r0 is that
    quadratic's positive root.  Larger c gets a smaller exactly-quadratic
    zone instead of a deeper well.
    """
    s = default_smoothing_scale(grid, c)
    target = budget / (2.0 * grid.n * c)
    A, B = _saturation_law(s)
    lo = 1e-3
    if lo * lo + 2.0 * A * lo + B > target:
        raise ValidationError(
            f"weight too deep for the box: budget {budget} unreachable at c={c}, L={grid.L}"
        )
    hi = 0.5 * grid.L - (CORE_REACH + RAMP_REACH) * s - 1e-9
    if hi <= lo:
        raise ValidationError(f"box too small for the apodization ramp: L={grid.L}")
    if hi * hi + 2.0 * A * hi + B < target:
        return hi
    # target > B here, and this form of the root does not cancel
    return (target - B) / (A + (A * A - B + target) ** 0.5)


def plateau_geometry(
    grid: GridSpec, c: float, budget: float, r0: float | None, s: float | None
) -> tuple:
    """(r0, s) of the weight of strength c: a given r0 or s is kept, else derived.

    s is default_smoothing_scale and r0 default_plateau_radius at the exponent
    budget; c <= 0 is the flat member, whose inactive plateau is sized as at c = 1.
    """
    c_geom = c if c > 0 else 1.0
    if s is None:
        s = default_smoothing_scale(grid, c_geom)
    if r0 is None:
        r0 = default_plateau_radius(grid, c_geom, budget)
    return r0, s


def apodized_quadratic_weight(grid: GridSpec, c: float, r0: float, s: float) -> np.ndarray:
    """Apodized weight exponent phi with phi = c|z - z_c|^2 on the plateau box.

    phi(z) = c * sum_axes m(t_axis - L/2), separable per real axis, constant
    near the seam to machine precision.
    """
    phi = np.zeros(grid.shape, dtype=np.float64)
    for prof in grid.along_axes(_axis_profile(grid, r0, s, grid.center)):
        phi = phi + prof
    return c * phi


@lru_cache(maxsize=64)
def _tapered_linear_profile(N: int, L: float, r0: float, s: float) -> tuple:
    """Odd periodic profile w(t) = t on |t| <= r0, tapered back to 0 at the seam.

    w(t) = t * ramp(|t|): odd, continuous across the seam (both sides vanish),
    linear exactly on the core where the erfc ramp is still 1.
    """
    tm, r1 = _reach(r0, s)
    if r1 > 0.5 * L:
        raise ValidationError(
            f"tapered coordinate does not fit the box: r0={r0}, s={s}, L={L}"
        )
    t_axis = np.arange(N) * (L / N) - 0.5 * L
    vals = t_axis * _ramp_down(np.abs(t_axis), tm, s)
    return tuple(t_axis), tuple(vals)


def plateau_coordinate(grid: GridSpec, j: int, r0: float, s: float) -> np.ndarray:
    """Periodic complex field equal to z_j - z_c on the plateau box.

    Holomorphic exactly where both real-axis profiles are in their linear
    core; tapers smoothly back to zero near the seam so the field stays
    spectrally clean and periodic.
    """
    _, vals = _tapered_linear_profile(grid.N, grid.L, r0, s)
    x, y = grid.along_axes(np.asarray(vals))[2 * j : 2 * j + 2]
    return np.broadcast_to(x, grid.shape) + 1j * np.broadcast_to(y, grid.shape)


BUMP_SUPPORT_RADIUS = 6.5  # smooth_source_bump's support radius, in units of sigma


def smooth_source_bump(grid: GridSpec, center: tuple, sigma: float) -> np.ndarray:
    """Gaussian profile with an exactly-supported smooth cutoff.

    The cutoff engages at 5 sigma, where the Gaussian has already dropped to
    e^(-25/2), so the bump keeps near-Gaussian spectral decay while having
    exactly compact support of radius BUMP_SUPPORT_RADIUS * sigma.  Only the
    box where every axis offset |t - c| is below that radius is evaluated;
    the rest of the grid lies outside the support and is exactly 0, bitwise
    the full-grid formula's value there.  The distance is not periodic, so
    the box is clipped to the grid rather than wrapped across the seam.
    """
    radius = BUMP_SUPPORT_RADIUS * sigma
    t = grid.axis_coordinates()
    box = [slice(None)] * (2 * grid.n)
    for axis, c in enumerate(center):
        inside = np.flatnonzero(np.abs(t - c) < radius)  # an interval, as t increases
        box[axis] = slice(int(inside[0]), int(inside[-1]) + 1) if inside.size else slice(0, 0)
    box = tuple(box)
    rho = _radial_distance(grid, center, box)
    vals = np.exp(-rho * rho / (2.0 * sigma * sigma))
    vals *= 1.0 - smooth_step((rho - 5.0 * sigma) / ((BUMP_SUPPORT_RADIUS - 5.0) * sigma))
    vals[rho >= radius] = 0.0
    bump = np.zeros(grid.shape)
    bump[box] = vals
    return bump


def _radial_distance(grid: GridSpec, center: tuple, box: tuple) -> np.ndarray:
    """Distance to center on the sub-box of the grid that box (a slice per real axis) cuts."""
    coordinates = grid.axis_coordinates()
    dims = 2 * grid.n
    rho2 = np.zeros(tuple(len(range(grid.N)[cut]) for cut in box))
    for axis, (cut, c) in enumerate(zip(box, center)):
        t = coordinates[cut].reshape((1,) * axis + (-1,) + (1,) * (dims - 1 - axis))
        rho2 = rho2 + (t - c) ** 2
    return np.sqrt(rho2)


def random_band_limited(
    grid: GridSpec,
    rng: np.random.Generator,
    kmax_frac: float = 0.25,
) -> np.ndarray:
    """Random field with spectrum supported on |k_axis| <= kmax_frac * N/2.

    The kept modes form a box of m^(2n) coefficients, drawn in C order of the
    full spectrum, so the field is synthesized separably: one N x m
    DFT-matrix contraction per axis instead of an inverse FFT of the mostly
    empty full grid.
    """
    kmax = max(1, int(kmax_frac * grid.N / 2))
    freqs = np.fft.fftfreq(grid.N) * grid.N
    modes = np.flatnonzero(np.abs(freqs) <= kmax)
    dims = 2 * grid.n
    count = modes.size ** dims
    vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    vals = vals.reshape((modes.size,) * dims)
    phase = np.outer(np.arange(grid.N), modes) % grid.N
    synth = np.exp((2j * np.pi / grid.N) * phase)
    # the 1/N per axis of the inverse FFT times the N^n normalization
    vals = vals / grid.N ** grid.n
    for _ in range(dims):
        # contracting the leading axis appends the synthesized one last
        vals = np.tensordot(vals, synth, axes=([0], [1]))
    return vals


def random_form(
    grid: GridSpec,
    rank: int,
    p: int,
    q: int,
    rng: np.random.Generator,
    kmax_frac: float = 0.25,
):
    """Random band-limited (p,q)-form, every coefficient a random_band_limited field."""
    from .exterior import EForm

    form = EForm.zeros(grid, rank, p, q)
    # one field per (dz slot, dzbar slot, component), drawn in that C order and
    # written through indexing (a reshape of the slot-major coefficients that
    # merges grid and slot axes would copy)
    for index in np.ndindex(form.coeffs.shape[-3:]):
        form.coeffs[(...,) + index] = random_band_limited(grid, rng, kmax_frac)
    return form
