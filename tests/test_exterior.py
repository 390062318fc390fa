from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from dbarlab.cli import main, parse_config
from dbarlab.errors import FormError
from dbarlab.exterior import (
    EForm,
    _form_support,
    c_const,
    dv_density,
    grow_table,
    hodge_star,
    hodge_star_table,
    index_slot,
    index_tuples,
    inner_product,
    norm_sq,
    omega_power,
    pairing,
    wedge,
    wedge_basis,
)
from dbarlab.grid import GridSpec, _support, periodic_offset
from dbarlab.hermitian import dbar, dprime
from dbarlab.metric import MetricField
from dbarlab.singular import singular_catalog
from dbarlab.weights import random_band_limited, random_form

import exterior_reference
from field_helpers import scale_by_field
from grassmann_oracle import as_canonical, basis_form, multiply
from test_hormander import nondiagonal_rank2_metric


@pytest.fixture
def rng():
    return np.random.default_rng(2025)


def small_grid(n):
    return GridSpec(n, 8, 4.0)


def test_c_const_values():
    assert c_const(0) == 1
    assert c_const(1) == 1j
    assert c_const(2) == 1
    assert c_const(3) == 1j
    assert c_const(4) == 1


def test_constant_lemma_exact():
    # both normalizer relations, enumerated exactly over 1 <= p <= n <= 4
    for n in range(1, 5):
        for p in range(1, n + 1):
            assert c_const(n - p) * c_const(p - 1) * (-1) ** ((n - p) * (p - 1)) == c_const(n - 1)
            assert 1j * c_const(n - p) * (-1) ** (n - p) == c_const(n - p + 1)


def test_wedge_square_zero_and_anticommute(rng):
    g = small_grid(2)
    dz1 = EForm.zeros(g, 1, 1, 0)
    dz1.coeffs[..., 0, 0, 0] = 1.0  # dz_0
    assert np.abs(wedge(dz1, dz1).coeffs).max() == 0.0

    dzb1 = EForm.zeros(g, 1, 0, 1)
    dzb1.coeffs[..., 0, 0, 0] = 1.0
    ab = wedge(dz1, dzb1)
    ba = wedge(dzb1, dz1)
    assert np.abs(ab.coeffs + ba.coeffs).max() == 0.0


def test_wedge_signs_against_grassmann_oracle(rng):
    for n in (1, 2):
        g = small_grid(n)
        for p1 in range(n + 1):
            for q1 in range(n + 1):
                for p2 in range(n + 1):
                    for q2 in range(n + 1):
                        for I1 in index_tuples(n, p1):
                            for J1 in index_tuples(n, q1):
                                for I2 in index_tuples(n, p2):
                                    for J2 in index_tuples(n, q2):
                                        sign, I, J = wedge_basis(I1, J1, I2, J2)
                                        oracle = multiply(
                                            basis_form(n, I1, J1), basis_form(n, I2, J2)
                                        )
                                        canon = as_canonical(n, oracle)
                                        if sign == 0:
                                            assert not canon
                                        else:
                                            assert canon == {(I, J): sign}


def test_pairing_decomposable_case(rng):
    g = small_grid(1)
    h = MetricField.identity(g, 1)
    s = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    t = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    a = EForm.zeros(g, 1, 1, 0)
    a.coeffs[..., 0, 0, 0] = s
    b = EForm.zeros(g, 1, 1, 0)
    b.coeffs[..., 0, 0, 0] = t
    out = pairing(a, b, h)
    assert (out.p, out.q) == (1, 1)
    assert np.abs(out.coeffs[..., 0, 0, 0] - s * np.conj(t)).max() < 1e-14


def test_pairing_positivity_for_holomorphic_degree(rng):
    g = small_grid(2)
    h = MetricField.identity(g, 2)
    for p in (1, 2):
        a = random_form(g, 2, p, 0, rng)
        top = wedge(pairing(a, a, h), omega_power(g, g.n - p))
        dens = c_const(p) * dv_density(top)
        assert np.abs(dens.imag).max() < 1e-12 * max(np.abs(dens.real).max(), 1e-300)
        assert dens.real.min() > -1e-12 * dens.real.max()
        # the positive density is exactly the multi-index norm
        assert np.abs(dens.real - norm_sq(a, h)).max() < 1e-12 * dens.real.max()


def test_pairing_expansion_oracle(rng):
    # generic engine against a hand-rolled expansion over all slot pairs, with
    # the conjugated factor dzbar_Ib ^ dz_Jb built generator by generator
    from grassmann_oracle import word

    n = 2
    g = small_grid(n)
    h_mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h_mat = h_mat @ h_mat.conj().T + 2 * np.eye(2)
    h = MetricField(g, 2, np.broadcast_to(h_mat, g.shape + (2, 2)).copy())
    a = random_form(g, 2, 1, 1, rng)
    for bp, bq in ((1, 0), (0, 1), (1, 1)):
        b = random_form(g, 2, bp, bq, rng)
        out = pairing(a, b, h)
        expected = EForm.zeros(g, 1, out.p, out.q)
        for Ia in a.dz_slots():
            for Ja in a.dzbar_slots():
                for Ib in b.dz_slots():
                    for Jb in b.dzbar_slots():
                        # (s,t)_h = t^H h s, conjugate-linear in t
                        scalar = np.einsum(
                            "ab,...b,...a->...", h_mat, a.slot(Ia, Ja), np.conj(b.slot(Ib, Jb))
                        )
                        conj_word = word(tuple(n + i for i in Ib) + tuple(Jb))
                        oracle = multiply(basis_form(n, Ia, Ja), conj_word)
                        for (I, J), sign in as_canonical(n, oracle).items():
                            pos_I = index_tuples(n, out.p).index(I)
                            pos_J = index_tuples(n, out.q).index(J)
                            expected.coeffs[..., pos_I, pos_J, 0] += sign * scalar
        scale = max(np.abs(expected.coeffs).max(), 1e-300)
        assert np.abs(out.coeffs - expected.coeffs).max() < 1e-12 * scale


def test_norm_single_index_case(rng):
    g = small_grid(1)
    w = np.exp(rng.standard_normal(g.shape))
    h = MetricField.from_weight(g, w)
    s = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    a = EForm.zeros(g, 1, 1, 0)
    a.coeffs[..., 0, 0, 0] = s
    expected = w * np.abs(s) ** 2
    assert np.abs(norm_sq(a, h) - expected).max() < 1e-12 * expected.max()


def test_hodge_star_n1_forced_value(rng):
    g = small_grid(1)
    a = random_form(g, 1, 1, 1, rng)
    gam = hodge_star(a)
    assert np.abs(gam.coeffs[..., 0, 0, 0] + 1j * a.coeffs[..., 0, 0, 0]).max() == 0.0


def test_hodge_star_n2_p0_identity(rng):
    g = small_grid(2)
    a = random_form(g, 1, 2, 0, rng)
    gam = hodge_star(a)
    assert np.abs(gam.coeffs - a.coeffs).max() == 0.0


def test_hodge_star_epsilon_count_and_reconstruction(rng):
    # four unimodular constants across p = 0,1,2 at n = 2; each verified by
    # re-wedging against omega_p
    total = sum(len(hodge_star_table(2, p)) for p in range(3))
    assert total == 4
    g = small_grid(2)
    for p in range(3):
        for _, _, eps in hodge_star_table(2, p):
            assert abs(abs(eps) - 1.0) < 1e-15
        a = random_form(g, 2, 2, p, rng)
        rec = wedge(hodge_star(a), omega_power(g, p))
        assert np.abs(rec.coeffs - a.coeffs).max() == 0.0


def test_hodge_star_wrong_bidegree(rng):
    g = small_grid(2)
    a = random_form(g, 1, 1, 1, rng)
    with pytest.raises(FormError):
        hodge_star(a)


def test_norm_preserved_by_star(rng):
    for n in (1, 2):
        g = small_grid(n)
        h_mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h_mat = h_mat @ h_mat.conj().T + 2 * np.eye(2)
        h = MetricField(g, 2, np.broadcast_to(h_mat, g.shape + (2, 2)).copy())
        for p in range(n + 1):
            a = random_form(g, 2, n, p, rng)
            na = norm_sq(a, h)
            ng = norm_sq(hodge_star(a), h)
            assert np.abs(na - ng).max() < 1e-12 * max(na.max(), 1e-300)


def test_np_inner_product_specialization(rng):
    # (alpha, beta) dV = c_{n-p} <alpha, gamma_beta> for (n,p)-forms
    for n, p in ((1, 1), (2, 1), (2, 2)):
        g = small_grid(n)
        h = MetricField.identity(g, 2)
        a = random_form(g, 2, n, p, rng)
        b = random_form(g, 2, n, p, rng)
        direct = inner_product(a, b, h)
        special = c_const(n - p) * dv_density(pairing(a, hodge_star(b), h))
        scale = max(np.abs(direct).max(), 1e-300)
        assert np.abs(direct - special).max() < 1e-12 * scale


def test_inner_product_hermitian(rng):
    g = small_grid(2)
    h = MetricField.identity(g, 2)
    a = random_form(g, 2, 1, 1, rng)
    b = random_form(g, 2, 1, 1, rng)
    ab = inner_product(a, b, h)
    ba = inner_product(b, a, h)
    assert np.abs(ab - np.conj(ba)).max() < 1e-13 * max(np.abs(ab).max(), 1e-300)
    aa = inner_product(a, a, h)
    assert np.abs(aa - norm_sq(a, h)).max() < 1e-12 * np.abs(aa).max()


def test_wedge_rank_and_degree_errors(rng):
    g = small_grid(1)
    a = random_form(g, 2, 1, 0, rng)
    b = random_form(g, 2, 0, 1, rng)
    with pytest.raises(FormError):
        wedge(a, b)  # two bundle-valued operands
    c = random_form(g, 1, 1, 0, rng)
    with pytest.raises(FormError):
        wedge(c, c)  # simple-degree overflow is caught before sign work

    d = random_form(g, 1, 1, 1, rng)
    with pytest.raises(FormError):
        wedge(d, random_form(g, 1, 0, 1, rng))


def test_pairing_rank_mismatch(rng):
    g = small_grid(1)
    h = MetricField.identity(g, 1)
    a = random_form(g, 1, 1, 0, rng)
    b = random_form(g, 2, 1, 0, rng)
    with pytest.raises(FormError):
        pairing(a, b, h)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grow_table_matches_wedge_basis(n):
    for k in range(n + 1):
        rows = grow_table(n, k)
        expected = []
        for src, idx in enumerate(index_tuples(n, k)):
            for j in range(n):
                if j in idx:
                    continue
                sign, grown, _ = wedge_basis((j,), (), idx, ())
                expected.append((src, j, index_slot(n, k + 1)[grown], sign))
        # one row per (idx, j not in idx), in idx-then-j order
        assert rows == tuple(expected)
        assert len({(src, j) for src, j, _, _ in rows}) == len(rows)
        assert len(rows) == len(index_tuples(n, k)) * (n - k)


@dataclass(frozen=True)
class AlgebraGrid:
    """Stand-in for GridSpec at any n: the form algebra reads only n and shape."""

    n: int
    N: int = 2

    @property
    def shape(self) -> tuple:
        return (self.N,) * (2 * self.n)


def random_coeff_form(g, rank, p, q, rng):
    shape = g.shape + (len(index_tuples(g.n, p)), len(index_tuples(g.n, q)), rank)
    return EForm(g, rank, p, q, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_omega_power_is_a_read_only_constant_block(n):
    g = AlgebraGrid(n)
    for p in range(n + 1):
        om = omega_power(g, p)
        size = len(index_tuples(n, p))
        assert om.coeffs.shape == g.shape + (size, size, 1)
        # every grid axis is a zero-stride broadcast of one small block
        assert om.coeffs.strides[: 2 * n] == (0,) * (2 * n)
        assert not om.coeffs.flags.writeable
        with pytest.raises(ValueError):
            om.coeffs[(0,) * (2 * n) + (0, 0, 0)] = 1.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_with_omega_power_equals_materialized_omega(rng, n):
    g = AlgebraGrid(n)
    for p in range(n + 1):
        materialized = EForm.zeros(g, 1, p, p)
        for K in index_tuples(n, p):
            slot = index_slot(n, p)[K]
            materialized.coeffs[..., slot, slot, 0] = c_const(p)
        om = omega_power(g, p)
        for pa in range(n - p + 1):
            for qa in range(n - p + 1):
                a = random_coeff_form(g, 2, pa, qa, rng)
                assert np.array_equal(wedge(a, om).coeffs, wedge(a, materialized).coeffs)
                assert np.array_equal(wedge(om, a).coeffs, wedge(materialized, a).coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_with_constant_block_equals_materialized_block(rng, n):
    # entries -1, 1, 0 and generic complex values, each taking its scalar path
    g = AlgebraGrid(n)
    for p in range(n + 1):
        for q in range(n + 1):
            size = (len(index_tuples(n, p)), len(index_tuples(n, q)), 1)
            block = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            block.flat[: 3] = [-1.0, 1.0, 0.0][: block.size]
            const = EForm(g, 1, p, q, np.broadcast_to(block, g.shape + size))
            materialized = EForm(g, 1, p, q, np.broadcast_to(block, g.shape + size).copy())
            for pa in range(n - p + 1):
                for qa in range(n - q + 1):
                    a = random_coeff_form(g, 2, pa, qa, rng)
                    assert np.array_equal(wedge(a, const).coeffs, wedge(a, materialized).coeffs)
                    assert np.array_equal(wedge(const, a).coeffs, wedge(materialized, a).coeffs)


def reference_metrics(g, rank, rng):
    """Metrics the contractions are checked on: two weights at rank 1, non-diagonal ones at 2."""
    if rank == 1:
        return [MetricField.from_weight(g, np.exp(rng.standard_normal(g.shape))),
                MetricField.identity(g, 1)]
    m = rng.standard_normal(g.shape + (2, 2)) + 1j * rng.standard_normal(g.shape + (2, 2))
    metrics = [MetricField(g, 2, m @ np.conj(np.swapaxes(m, -1, -2)) + np.eye(2))]
    if isinstance(g, GridSpec):
        metrics.append(nondiagonal_rank2_metric(g, rng))
    return metrics


def assert_matches_reference(got, expected, rank, scale):
    """Bitwise at rank > 1; at rank 1 within 8 ulps of the pointwise scale."""
    if rank == 1:
        assert np.all(np.abs(got - expected) <= 8 * np.finfo(np.float64).eps * scale)
    else:
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_contractions_match_per_slot_einsum_reference(n, rank):
    rng = np.random.default_rng(10 * n + rank)
    g = GridSpec(n, 8, 8.0) if n < 3 else AlgebraGrid(n)
    degrees = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    for h in reference_metrics(g, rank, rng):
        # the pointwise scale sums the moduli of the terms each contraction adds
        w = np.abs(h.mat).max(axis=(-2, -1))
        forms = {d: random_coeff_form(g, rank, *d, rng) for d in degrees}
        moduli = {d: np.abs(a.coeffs).sum(axis=(-3, -2, -1)) for d, a in forms.items()}
        for d, a in forms.items():
            b = random_coeff_form(g, rank, *d, rng)
            expected = exterior_reference.norm_sq(a, h)
            assert_matches_reference(norm_sq(a, h), expected, rank, expected)
            scale = w * (np.abs(a.coeffs) * np.abs(b.coeffs)).sum(axis=(-3, -2, -1))
            assert_matches_reference(inner_product(a, b, h),
                                     exterior_reference.inner_product(a, b, h), rank, scale)
            for e, c in forms.items():
                if d[0] + e[1] > n or d[1] + e[0] > n:
                    continue
                scale = (w * moduli[d] * moduli[e])[..., None, None, None]
                assert_matches_reference(pairing(a, c, h).coeffs,
                                         exterior_reference.pairing(a, c, h).coeffs, rank, scale)


def _ball(g, center, radius):
    """The grid points within radius of center, taken periodically: the seam may cut the ball."""
    axes = g.along_axes(g.axis_coordinates())
    return sum(periodic_offset(g, t - c) ** 2 for t, c in zip(axes, center)) < radius**2


def _support_cases(g):
    """{case: (a's slot masks, b's slot masks)} of two (1,0)-forms; None is a zero slot."""
    c = g.center
    dense = np.ones(g.shape, dtype=bool)
    lone = np.zeros(g.shape, dtype=bool)
    lone[(3,) * (2 * g.n)] = True  # the NaN's point
    return {
        "disjoint": ([_ball(g, (c - 2.0,) * (2 * g.n), 1.5), None],
                     [_ball(g, (c + 2.0,) * (2 * g.n), 1.5)] * 2),
        "overlapping": ([_ball(g, (c - 0.5,) * (2 * g.n), 2.0),
                         _ball(g, (c + 1.0,) * (2 * g.n), 1.5)],
                        [_ball(g, (c + 0.5,) * (2 * g.n), 2.0), None]),
        "seam": ([_ball(g, (0.0,) * (2 * g.n), 2.0), _ball(g, (c,) * (2 * g.n), 1.5)],
                 [_ball(g, (0.5,) * (2 * g.n), 2.0), _ball(g, (g.L - 1.0,) * (2 * g.n), 2.0)]),
        "lone-nan": ([lone, None], [dense, _ball(g, (c,) * (2 * g.n), 2.5)]),
        "dense": ([dense, _ball(g, (c,) * (2 * g.n), 2.0)], [dense, dense]),
    }


def _slot_form(g, rank, masks, rng):
    """A (1,0)-form whose slot s is complex noise on masks[s] (a lone point is NaN) and 0 off it.

    At n = 1 the form has one slot, and takes masks[0].
    """
    a = EForm.zeros(g, rank, 1, 0)
    for slot, mask in enumerate(masks[: g.n]):
        if mask is not None:
            shape = g.shape + (rank,)
            noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            a.coeffs[..., slot, 0, :] = np.where(mask[..., None], noise, 0.0)
            if mask.sum() == 1:
                a.coeffs[..., slot, 0, :][mask] = np.nan
    return a


def _bounding_box_mask(field):
    """The points of the bounding box of field's nonzeros (a NaN is nonzero), as a grid mask."""
    live = np.any(field != 0, axis=-1)
    mask = np.zeros(live.shape, dtype=bool)
    points = np.nonzero(live)
    if points[0].size:
        mask[tuple(slice(p.min(), p.max() + 1) for p in points)] = True
    return mask


def _same_values(x, y):
    """Equal real and imaginary parts, NaN matching NaN; a zero's sign is not compared."""
    return (np.array_equal(x.real, y.real, equal_nan=True)
            and np.array_equal(x.imag, y.imag, equal_nan=True))


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("case", ["disjoint", "overlapping", "seam", "lone-nan", "dense"])
@pytest.mark.parametrize("n", [1, 2])
def test_pairing_on_support_boxes_equals_the_full_grid_pairing(n, case, rank):
    # each slot pair's product is taken on the intersection of the slots'
    # support boxes: there it is bitwise the whole-grid product (rank 1: the
    # library's former slot loop; rank 2: the per-slot einsum reference) up
    # to the sign of zeros.  Outside it is exactly +0.0, where the whole-grid
    # product is a zero too, except at a NaN factor, which meets a zero there.
    # Given the support (_form_support) of either operand or both, every
    # slot pair of live slots is taken on the given box with no scan: the
    # whole-grid product there, NaN included, +0.0 off it and in the output
    # slots of a dead slot, and the scanning pairing's values wherever no
    # factor is NaN
    g = GridSpec(n, 16, 8.0)
    rng = np.random.default_rng(31 + 10 * n + rank)
    h = reference_metrics(g, rank, rng)[-1]
    a_masks, b_masks = _support_cases(g)[case]
    a, b = _slot_form(g, rank, a_masks, rng), _slot_form(g, rank, b_masks, rng)
    got = pairing(a, b, h).coeffs
    full = (exterior_reference.pairing_rank1_full_grid if rank == 1
            else exterior_reference.pairing)(a, b, h).coeffs
    for i, k in np.ndindex(n, n):  # a's slot i and b's slot k fill the output slot (i, k)
        ca, cb = a.coeffs[..., i, 0, :], b.coeffs[..., k, 0, :]
        box = _bounding_box_mask(ca) & _bounding_box_mask(cb)
        assert _same_values(got[..., i, k, 0][box], full[..., i, k, 0][box]), (i, k)
        assert not got[..., i, k, 0][~box].view(np.uint64).any(), (i, k)  # +0.0, sign bit too
        finite = ~np.isnan(ca).any(axis=-1) & ~np.isnan(cb).any(axis=-1)
        assert np.all(full[..., i, k, 0][~box & finite] == 0), (i, k)
    if case == "disjoint":
        assert not got.view(np.uint64).any()
    if case == "lone-nan":  # the NaN is the support of its slot, and meets the dense slot
        assert np.isnan(got[..., 0, 0, 0]).sum() == 1
    if case == "dense":
        assert np.abs(got[..., 0, 0, 0]).min() > 0  # dense times dense: the whole grid
    slots = (-3, -2, -1)
    finite = ~np.isnan(a.coeffs).any(axis=slots) & ~np.isnan(b.coeffs).any(axis=slots)
    for operand, masks in ((a, a_masks), (b, b_masks)):
        support = _form_support(operand)
        assert support[0] == {(s, 0) for s in range(n) if masks[s] is not None}
        assert support[1] == _support(g, operand.coeffs)[0]
    both = (_form_support(a), _form_support(b))
    for supports in ((both[0], None), (None, both[1]), both):
        on_box = np.ones(g.shape, dtype=bool)
        kept = np.ones((n, n), dtype=bool)  # a's slot i and b's slot k, for output slot (i, k)
        for side, support in enumerate(supports):
            if support is not None:
                mask = np.zeros(g.shape, dtype=bool)
                mask[support[1]] = True
                on_box &= mask
                live = np.array([(s, 0) in support[0] for s in range(n)])
                kept &= live[:, None] if side == 0 else live[None, :]
        given = pairing(a, b, h, supports).coeffs
        where = [support is not None for support in supports]
        assert not given[~on_box].view(np.uint64).any(), where
        for i, k in np.ndindex(n, n):
            if kept[i, k]:
                assert _same_values(given[..., i, k, 0][on_box], full[..., i, k, 0][on_box])
            else:
                assert not given[..., i, k, 0].view(np.uint64).any(), (where, i, k)
        assert _same_values(given[finite], got[finite]), where


IDENTITIES_CFG = Path(__file__).resolve().parent.parent / "configs" / "identities.cfg"


def test_identities_runs_no_three_operand_contraction_on_a_full_grid(tmp_path, monkeypatch):
    # the shipped identities config runs at rank 1, where every contraction is
    # elementwise or a two-operand dot
    cfg = parse_config(IDENTITIES_CFG)
    assert cfg.rank == 1
    points = cfg.N ** (2 * cfg.n)
    calls = []
    plain_einsum = np.einsum

    def counting_einsum(subscripts, *operands, **kwargs):
        calls.append((subscripts, [np.shape(op) for op in operands]))
        return plain_einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    assert main(["identities", "--config", str(IDENTITIES_CFG), "--out", str(tmp_path)]) == 0
    full_grid = [(subscripts, shapes) for subscripts, shapes in calls
                 if len(shapes) == 3 and max(int(np.prod(s)) for s in shapes) >= points]
    assert full_grid == []
    # the counter sees the library's calls: a rank-2 norm still runs the einsum
    g = small_grid(1)
    del calls[:]
    norm_sq(random_form(g, 2, 1, 0, np.random.default_rng(0)), MetricField.identity(g, 2))
    assert [len(shapes) for _, shapes in calls] == [3]


def assert_slot_major(form):
    """Every coefficient field coeffs[..., i, j, a] is one C-contiguous grid block."""
    for index in np.ndindex(form.coeffs.shape[-3:]):
        assert form.coeffs[(...,) + index].flags.c_contiguous, index


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_forms_store_each_coefficient_as_one_contiguous_block(n, rank):
    rng = np.random.default_rng(50 + 10 * n + rank)
    g = GridSpec(n, 8, 8.0)
    h = singular_catalog("gaussian", g, c=0.5, r0=1.0, s=0.3, rank=rank).metric
    for p in range(n + 1):
        for q in range(n + 1):
            zero = EForm.zeros(g, rank, p, q)
            assert_slot_major(zero)
            a = random_form(g, rank, p, q, rng)
            assert_slot_major(scale_by_field(a, np.ones(g.shape)))
            if q < n:
                assert_slot_major(dbar(a))
            if p + q <= n:
                assert_slot_major(pairing(a, random_form(g, rank, p, q, rng), h))
            for pb in range(n - p + 1):
                for qb in range(n - q + 1):
                    assert_slot_major(wedge(a, random_form(g, 1, pb, qb, rng)))
        alpha = random_form(g, rank, n, p, rng)
        assert_slot_major(hodge_star(alpha))
        if p < n:
            assert_slot_major(dprime(random_form(g, rank, p, 0, rng), h))


@pytest.mark.parametrize("n", [1, 2])
def test_random_form_fills_every_slot_in_draw_order(n):
    g = small_grid(n)
    for rank in (1, 2):
        for p in range(n + 1):
            for q in range(n + 1):
                seed = 100 * rank + 10 * p + q
                form = random_form(g, rank, p, q, np.random.default_rng(seed))
                draws = np.random.default_rng(seed)
                # one draw per (dz slot, dzbar slot, component), in C order
                for index in np.ndindex(form.coeffs.shape[-3:]):
                    field = form.coeffs[(...,) + index]
                    assert np.any(field != 0)
                    assert np.array_equal(field, random_band_limited(g, draws))


@pytest.mark.parametrize("n", [1, 2])
def test_unit_constants_equal_their_products(rng, n):
    g = small_grid(n)
    full = tuple(range(n))
    pos = {p: index_slot(n, n - p) for p in range(n + 1)}
    for rank in (1, 2):
        for p in range(n + 1):
            alpha = random_form(g, rank, n, p, rng)
            gamma = hodge_star(alpha)
            for J, Jc, eps in hodge_star_table(n, p):
                assert np.array_equal(gamma.coeffs[..., pos[p][Jc], 0, :],
                                      eps * alpha.slot(full, J))
    top = random_form(g, 1, n, n, rng)
    assert np.array_equal(dv_density(top), top.coeffs[..., 0, 0, 0] / c_const(n))
    # scale times the density of a ^ omega_p on a box, one unit product per
    # term, against the wedge and the density taken in full
    box = (slice(1, 6), slice(2, 7)) * n
    on_box = np.zeros(g.shape, dtype=bool)
    on_box[box] = True
    for p in range(n + 1):
        a = random_form(g, 1, n - p, n - p, rng)
        om = omega_power(g, p)
        for scale in (1, -1, 1j, -1j):
            expected = scale * dv_density(wedge(a, om))
            assert _same_values(dv_density(a, scale, om), expected), (p, scale)
            got = dv_density(a, scale, om, box)
            assert _same_values(got[box], expected[box]), (p, scale)
            assert not got[~on_box].view(np.uint64).any(), (p, scale)
