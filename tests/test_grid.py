import itertools

import numpy as np
import pytest
import scipy.fft

from dbarlab import grid as grid_module
from dbarlab.errors import FormError, ValidationError
from dbarlab.grid import (
    GridSpec,
    _blocks,
    _dz_multiplier,
    _interior_box,
    _plane_derivatives,
    _support,
    convolve,
    dz_array,
    integrate,
    kernel_spectrum,
    region,
    seam_leakage,
    to_lattice,
    to_spectrum,
)
from dbarlab.singular import mollifier_kernel
from dbarlab.weights import random_band_limited
from field_helpers import complex_coordinate, coordinate


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
    x = coordinate(g, 0)
    f = np.exp(2j * np.pi * x / g.L)
    df = dz_array(g, f, 0)
    expected = (1j * np.pi / g.L) * f
    assert np.abs(df - expected).max() < 1e-13
    dfbar = dz_array(g, f, 0, True)
    assert np.abs(dfbar - expected).max() < 1e-13  # x-wave: both halves equal


def test_y_wave_conjugate_split():
    g = GridSpec(1, 16, 8.0)
    y = coordinate(g, 1)
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
    x = coordinate(g, 0)
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
    delta = kernel_spectrum(g, _delta_kernel(g))
    out = convolve(g, f, delta)
    assert np.abs(out - f).max() < 1e-10 * np.abs(f).max()
    const = np.full(g.shape, 4.2)
    out2 = convolve(g, const, delta)
    assert np.abs(out2 - 4.2).max() < 1e-10


def test_convolve_validation():
    g = GridSpec(1, 16, 8.0)
    f = np.ones(g.shape)
    bad = -np.ones(g.shape) / g.L**2
    with pytest.raises(ValidationError):
        kernel_spectrum(g, bad)
    double = 2.0 * np.ones(g.shape) / g.L**2
    with pytest.raises(ValidationError):
        kernel_spectrum(g, double)
    with pytest.raises(ValidationError):
        kernel_spectrum(g, (1.0 + 0j) * np.ones(g.shape) / g.L**2)
    # the kernel itself in place of its spectrum is refused, not misread
    unit = np.ones(g.shape) / g.L**2
    with pytest.raises(ValidationError):
        convolve(g, f, unit)
    assert np.abs(convolve(g, f, kernel_spectrum(g, unit)) - 1.0).max() < 1e-12


def _direct_convolution(g, f, kern):
    """Periodic convolution of a grid-shaped field as the plain lattice sum."""
    direct = np.zeros(g.shape, dtype=np.complex128)
    for dx in range(g.N):
        for dy in range(g.N):
            if kern[dx, dy] == 0.0:
                continue
            direct += kern[dx, dy] * np.roll(np.roll(f, dx, axis=0), dy, axis=1)
    return direct * g.cell_volume


def test_convolve_against_direct_summation():
    g = GridSpec(1, 8, 8.0)
    rng = np.random.default_rng(14)
    f = random_band_limited(g, rng, 0.5).real
    kern = mollifier_kernel(g, 2.2)
    kern_spec = kernel_spectrum(g, kern)
    spectral = convolve(g, f, kern_spec)
    direct = _direct_convolution(g, f, kern)
    assert np.abs(spectral - direct).max() < 1e-12 * np.abs(direct).max()

    # a nondiagonal matrix field: the component axes ride along, each entry
    # convolved as its own grid field
    shape = g.shape + (2, 2)
    field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spectral = convolve(g, field, kern_spec)
    assert spectral.shape == shape
    for a in range(2):
        for b in range(2):
            entry = field[..., a, b]
            assert np.array_equal(spectral[..., a, b], convolve(g, entry, kern_spec))
            direct = _direct_convolution(g, entry, kern)
            assert np.abs(spectral[..., a, b] - direct).max() < 1e-12 * np.abs(direct).max()


def test_convolve_radial_kernel_adds_constant_on_quadratic_field():
    # |z|^2 convolved with a radial unit-mass kernel gains the constant second
    # moment wherever the kernel support does not cross the seam
    g = GridSpec(1, 32, 8.0)
    z = complex_coordinate(g, 0)
    f = np.abs(z) ** 2
    eps = 0.8
    out = convolve(g, f, kernel_spectrum(g, mollifier_kernel(g, eps)))
    shift = out - f
    interior = np.abs(z) < 0.5 * g.L - eps - 2 * g.spacing
    inner_vals = shift[interior]
    assert inner_vals.min() > 0.0
    assert inner_vals.max() - inner_vals.min() < 1e-8 * max(inner_vals.max(), 1e-300)


def test_convolve_preserves_integral():
    g = GridSpec(1, 16, 8.0)
    rng = np.random.default_rng(15)
    f = random_band_limited(g, rng, 0.4)
    kern_spec = kernel_spectrum(g, mollifier_kernel(g, 1.5))
    before = integrate(g, f)
    after = integrate(g, convolve(g, f, kern_spec))
    assert abs(after - before) < 1e-12 * max(abs(before), 1e-300)


def test_interior_mask_and_leakage():
    g = GridSpec(1, 16, 8.0)
    mask = region(g, 0.25)
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
def test_plane_derivative_targets_each_equal_the_plain_inverse(n, N, slots, rank):
    # _differentials takes dbar and del from one forward transform: each
    # target is the plain inverse of its multiplier times the spectrum, and
    # the input is left alone
    g = GridSpec(n, N, 8.0)
    rng = np.random.default_rng(9)
    shape = g.shape + (slots, rank)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kept = arr.copy()
    for j in range(n):
        spec = scipy.fft.fftn(arr, axes=(2 * j, 2 * j + 1))
        outs = _plane_derivatives(g, arr, j, [(None, 1, False), (None, 1, True)])
        for conj, got in zip((False, True), outs):
            mult = _dz_multiplier(g, j, conj)[..., None, None]
            expected = scipy.fft.ifftn(mult * spec, axes=(2 * j, 2 * j + 1))
            assert np.array_equal(got, expected)
            assert np.array_equal(dz_array(g, arr, j, conj), expected)
        assert np.array_equal(arr, kept)


def _slot_major(g, slots, rng):
    """A random complex grid + slots field laid out slot-major, as EForm.zeros lays out a form."""
    store = rng.standard_normal(slots + g.shape) + 1j * rng.standard_normal(slots + g.shape)
    return np.moveaxis(store, tuple(range(len(slots))), tuple(range(-len(slots), 0)))


def _same_bits(x, y):
    """Whether two complex128 arrays hold the same bits, signed zeros and NaN payloads included.

    The bit patterns are compared in place, with no copy of either array.
    """
    return (x.dtype == y.dtype == np.complex128
            and np.array_equal(x.real.view(np.uint64), y.real.view(np.uint64))
            and np.array_equal(x.imag.view(np.uint64), y.imag.view(np.uint64)))


@pytest.mark.parametrize("N", [8, 16, 32])
def test_plane_derivatives_are_bitwise_scipy_fft(N, monkeypatch):
    # the blocked kernel is scipy.fft.ifftn(mult * scipy.fft.fftn(arr)) over
    # plane j bit for bit, for complex, real and strided rank-2 input, into
    # several targets: +- accumulation into the slots of a slot-major form,
    # written through views, and a new array.  The block sizes put block
    # boundaries at every row of the outer axis outside the plane, at every
    # other row, and at none: the whole array fits, or one row is over
    # the budget
    g = GridSpec(2, N, 8.0)
    rng = np.random.default_rng(N)
    line = 16 * N**2 * 2  # bytes at one index of the other two grid axes
    inputs = (
        _slot_major(g, (2,), rng),
        rng.standard_normal(g.shape + (2,)),
        _slot_major(g, (3,), rng)[..., ::2],
    )
    blocks = {line * N: N, line * N * 2: N // 2, line * N**2: 1, line * N // 2: 1}
    start = _slot_major(g, (2, 1, 2), rng)
    form = _slot_major(g, (2, 1, 2), rng)
    for arr in inputs:
        for j in range(2):
            plane = (2 * j, 2 * j + 1)
            spec = scipy.fft.fftn(arr.astype(complex), axes=plane)
            d, dbar = (scipy.fft.ifftn(_dz_multiplier(g, j, conj)[..., None] * spec, axes=plane)
                       for conj in (False, True))
            expected = [start[..., 0, 0, :] + d, start[..., 1, 0, :] - dbar, d]
            for block_bytes, count in blocks.items():
                monkeypatch.setattr(grid_module, "_BLOCK_BYTES", block_bytes)
                assert len(_blocks(g, arr, j)) == count
                form[...] = start
                targets = [(form[..., 0, 0, :], 1, False), (form[..., 1, 0, :], -1, True),
                           (None, 1, False)]
                outs = _plane_derivatives(g, arr, j, targets)
                for got, want in zip(outs, expected):
                    assert _same_bits(got, want), (block_bytes, arr.strides, j)
            assert _same_bits(dz_array(g, arr, j, True), dbar)


def _sparse_inputs(g, rng):
    """Complex grid + (2,) fields, slot-major, whose slices of either plane are mostly dead."""
    x1, y1, x2, y2 = g.along_axes(g.axis_coordinates())
    noise = _slot_major(g, (2,), rng)
    ball = noise * ((x1 - 3.0) ** 2 + (y1 - 4.5) ** 2 + (x2 - 5.0) ** 2 + (y2 - 3.5) ** 2
                    < 2.5**2)[..., None]

    def seam(u):  # periodic distance to the lattice origin
        return np.minimum(u, g.L - u)

    # a disc around a corner of each plane, which the seam cuts in four
    discs = noise * ((seam(x1) ** 2 + seam(y1 - 0.5) ** 2 < 1.5**2)
                     & (seam(x2 - 7.0) ** 2 + seam(y2) ** 2 < 1.5**2))[..., None]
    lone_nan = ball.copy()
    lone_nan[g.N - 1, 0, 0, g.N - 1, 0] = np.nan  # in a slice of neither plane the ball meets
    one_component = ball.copy()
    one_component[1, g.N - 2, g.N - 2, 1, 1] = 1.0 - 2.0j
    return {"ball": ball, "discs": discs, "lone-nan": lone_nan,
            "one-component": one_component, "zero": np.zeros_like(ball)}


@pytest.mark.parametrize("name", ["ball", "discs", "lone-nan", "one-component", "zero"])
def test_plane_derivatives_of_sparse_fields_are_bitwise_scipy_fft(name, monkeypatch):
    # the kernel transforms only the live slices of the other plane, found
    # by its own scan or given by the caller as an exact mask: for a field
    # with compact support, one across the seam, one NaN or one nonzero
    # component in an otherwise dead slice, and none at all, every target is
    # still scipy.fft.ifftn(mult * scipy.fft.fftn(arr)) over plane j bit for
    # bit, whatever the block budget, and a new array's dead slices are
    # exact +0.0
    g = GridSpec(2, 16, 8.0)
    rng = np.random.default_rng(27)
    arr = _sparse_inputs(g, rng)[name]
    line = 16 * g.N**2 * 2  # bytes of one slice
    start = _slot_major(g, (2, 1, 2), rng)
    form = _slot_major(g, (2, 1, 2), rng)
    for j in range(2):
        plane = (2 * j, 2 * j + 1)
        live = np.any(arr, axis=plane + (4,))
        dead = np.s_[:, :, ~live] if j == 0 else np.s_[~live]
        spec = scipy.fft.fftn(arr, axes=plane)
        d, dbar = (scipy.fft.ifftn(_dz_multiplier(g, j, conj)[..., None] * spec, axes=plane)
                   for conj in (False, True))
        expected = [start[..., 0, 0, :] + d, start[..., 1, 0, :] - dbar, d, dbar]
        # the kernel's own scan, and the exact mask of live slices given by the caller
        for block_bytes, slices in itertools.product(
                (line * g.N, line * g.N * 4, line * g.N**2, line * g.N // 2), (None, live)):
            monkeypatch.setattr(grid_module, "_BLOCK_BYTES", block_bytes)
            form[...] = start
            targets = [(form[..., 0, 0, :], 1, False), (form[..., 1, 0, :], -1, True),
                       (None, 1, False), (None, 1, True)]
            outs = _plane_derivatives(g, arr, j, targets, slices)
            where = (name, j, block_bytes, slices is None)
            for got, want in zip(outs, expected):
                assert got.tobytes() == want.tobytes(), where
            for got in outs[2:]:
                assert not got[dead].view(np.uint8).any(), where


@pytest.mark.parametrize("name", ["dense", "ball", "discs"])
def test_plane_derivatives_on_kept_slices_are_bitwise_scipy_fft(name, monkeypatch):
    # with a mask of the other plane's slices the kernel transforms only the
    # live slices it keeps: there every target is scipy.fft.ifftn(mult *
    # scipy.fft.fftn(arr)) over plane j bit for bit, a new array is +0.0 on
    # the slices left out and a target view keeps its values there.  A NaN
    # in a slice left out reaches no kept slice
    g = GridSpec(2, 16, 8.0)
    rng = np.random.default_rng(41)
    arr = _slot_major(g, (2,), rng) if name == "dense" else _sparse_inputs(g, rng)[name]
    x1, y1, x2, y2 = g.along_axes(g.axis_coordinates())
    line = 16 * g.N**2 * 2  # bytes of one slice
    start = _slot_major(g, (2, 1, 2), rng)
    form = _slot_major(g, (2, 1, 2), rng)
    for j in range(2):
        plane = (2 * j, 2 * j + 1)
        u, v = (x2, y2) if j == 0 else (x1, y1)  # the other plane's coordinates
        kept = ((u - 4.5) ** 2 + (v - 3.0) ** 2 < 2.0**2).reshape(g.N, g.N)
        dropped = np.s_[:, :, ~kept] if j == 0 else np.s_[~kept]
        on_kept = np.s_[:, :, kept] if j == 0 else np.s_[kept]
        field = arr.copy()
        field[dropped] = np.nan  # every slice left out
        spec = scipy.fft.fftn(field, axes=plane)
        d, dbar = (scipy.fft.ifftn(_dz_multiplier(g, j, conj)[..., None] * spec, axes=plane)
                   for conj in (False, True))
        expected = [start[..., 0, 0, :] + d, start[..., 1, 0, :] - dbar, d, dbar]
        for block_bytes in (line * g.N, line * g.N * 4, line * g.N**2):
            monkeypatch.setattr(grid_module, "_BLOCK_BYTES", block_bytes)
            form[...] = start
            targets = [(form[..., 0, 0, :], 1, False), (form[..., 1, 0, :], -1, True),
                       (None, 1, False), (None, 1, True)]
            outs = _plane_derivatives(g, field, j, targets, kept)
            for got, want in zip(outs, expected):
                assert _same_bits(got[on_kept], want[on_kept]), (name, j, block_bytes)
                assert not np.isnan(got[on_kept]).any()
            for got, before in zip(outs, (start[..., 0, 0, :], start[..., 1, 0, :])):
                assert _same_bits(got[dropped], before[dropped]), (name, j, block_bytes)
            for got in outs[2:]:
                assert not got[dropped].view(np.uint64).any(), (name, j, block_bytes)


def test_support_is_the_bounding_box_and_the_live_slices():
    # one np.any pass: the bounding box of the nonzeros on each grid axis
    # (a NaN is nonzero; a support across the seam spans the axis; none is
    # an empty box) and, per plane k, the live slices of the other plane;
    # a bool mask of the grid's shape is read as that collapsed mask
    g = GridSpec(2, 16, 8.0)
    rng = np.random.default_rng(43)
    fields = _sparse_inputs(g, rng)
    fields["dense"] = _slot_major(g, (2,), rng)
    fields["only-nan"] = np.zeros(g.shape + (2,))
    fields["only-nan"][3, 5, 7, 11, 1] = np.nan
    for name, arr in fields.items():
        box, slices = _support(g, arr)
        live = np.any(arr, axis=-1)
        points = np.nonzero(live)
        assert box == tuple(slice(p.min(), p.max() + 1) if p.size else slice(0, 0)
                            for p in points), name
        assert np.array_equal(slices[0], live.any(axis=(0, 1))), name
        assert np.array_equal(slices[1], live.any(axis=(2, 3))), name
        from_mask = _support(g, live)
        assert from_mask[0] == box and all(map(np.array_equal, from_mask[1], slices)), name
    assert _support(g, fields["only-nan"])[0] == (slice(3, 4), slice(5, 6), slice(7, 8),
                                                  slice(11, 12))
    box = _support(g, fields["discs"])[0]
    assert [box[axis] for axis in (0, 1, 3)] == [slice(0, g.N)] * 3  # the axes the seam cuts
    assert _support(g, fields["zero"])[0] == (slice(0, 0),) * 4
    g1 = GridSpec(1, 32, 8.0)
    line = np.zeros(g1.shape)
    line[30, 4:9] = 1.0
    box, slices = _support(g1, line)  # n = 1: the other plane is one point
    assert box == (slice(30, 31), slice(4, 9))
    assert len(slices) == 1 and slices[0].shape == () and slices[0]
    assert not _support(g1, np.zeros(g1.shape + (2,)))[1][0]


def test_blocks_of_a_dense_field_are_runs_of_whole_rows(monkeypatch):
    # with every slice live a block is a power of two of whole rows of the
    # other plane's outer axis, as many as fit the budget, so the blocks are
    # the row blocks of the merged index; a field that fits the budget, one
    # whose single row is over it, one at n = 1 and one whose other plane's
    # axes are swapped (they merge into no view) is one block
    g = GridSpec(2, 16, 8.0)
    arr = _slot_major(g, (2,), np.random.default_rng(3))
    line = 16 * g.N**2 * 2
    for block_bytes, rows in ((line * g.N, 1), (line * g.N * 3, 2), (line * g.N * 8, 8)):
        monkeypatch.setattr(grid_module, "_BLOCK_BYTES", block_bytes)
        for j, lead in ((0, 2), (1, 0)):
            expected = [(slice(None),) * lead + (slice(first * g.N, (first + rows) * g.N),)
                        for first in range(0, g.N, rows)]
            assert _blocks(g, arr, j) == expected
    for block_bytes in (line * g.N**2, line * g.N // 2):
        monkeypatch.setattr(grid_module, "_BLOCK_BYTES", block_bytes)
        assert _blocks(g, arr, 0) == _blocks(g, arr, 1) == [np.s_[...]]
    monkeypatch.setattr(grid_module, "_BLOCK_BYTES", line * g.N)
    swapped = np.swapaxes(_sparse_inputs(g, np.random.default_rng(4))["ball"], 2, 3)
    assert _blocks(g, swapped, 0) == [np.s_[...]]
    assert len(_blocks(g, swapped, 1)) > 1
    spec = scipy.fft.fftn(swapped, axes=(0, 1))
    expected = scipy.fft.ifftn(_dz_multiplier(g, 0, False)[..., None] * spec, axes=(0, 1))
    assert dz_array(g, swapped, 0).tobytes() == expected.tobytes()
    g1 = GridSpec(1, 64, 8.0)
    assert _blocks(g1, np.zeros(g1.shape + (2,)), 0) == [np.s_[...]]


def test_interior_box_is_the_interior_mask():
    for n, N, margin in ((1, 16, 0.25), (2, 8, 0.125), (1, 8, 0.0), (1, 32, 0.45)):
        g = GridSpec(n, N, 8.0)
        mask = np.zeros(g.shape, dtype=bool)
        mask[_interior_box(g, margin)] = True
        assert np.array_equal(mask, region(g, margin))


@pytest.mark.parametrize("n, N", [(1, 8), (1, 16), (1, 64), (1, 128), (2, 8), (2, 16), (2, 32)])
def test_transforms_are_bitwise_scipy_fft(n, N):
    # numpy.fft one axis at a time does scipy.fft.fftn/ifftn's complex
    # arithmetic over the same axes, all grid axes or one complex plane's: a
    # real input is the complex transform of its complex cast, and the bytes
    # agree for real and complex input, with and without trailing components,
    # and for strided views
    g = GridSpec(n, N, 8.0)
    axes = tuple(range(2 * n))
    rng = np.random.default_rng(100 * n + N)
    shape = g.shape + (2, 1)
    real = rng.standard_normal(shape)
    cplx = real + 1j * rng.standard_normal(shape)
    for arr in (real, cplx, real[..., 1, 0], cplx[..., 0, 0]):
        for ours, theirs in ((to_spectrum, scipy.fft.fftn), (to_lattice, scipy.fft.ifftn)):
            got, expected = ours(g, arr), theirs(arr.astype(complex), axes=axes)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (ours.__name__, arr.shape, arr.dtype)
    for j in range(n):
        plane = (2 * j, 2 * j + 1)
        for arr in (real, cplx, real[..., 1, 0], cplx[..., 0, 0]):
            spec = scipy.fft.fftn(arr.astype(complex), axes=plane)
            for conj in (False, True):
                mult = _dz_multiplier(g, j, conj)
                mult = mult.reshape(mult.shape + (1,) * (arr.ndim - mult.ndim))
                got = dz_array(g, arr, j, conj)
                expected = scipy.fft.ifftn(mult * spec, axes=plane)
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), (j, conj, arr.shape, arr.dtype)
