import numpy as np
import pytest

from dbarlab.errors import CurvatureSymmetryError, MetricError, PreconditionError
from dbarlab.grid import GridSpec
from dbarlab.hermitian import CurvatureField, MetricField, curvature
from dbarlab.metric import dual_metric
from dbarlab.positivity import (
    _whiten,
    check_basic_inequality,
    check_nakano_pointwise_identity,
    griffiths_report,
    nakano_delta,
    nakano_report,
    positivity_report,
)
from dbarlab.singular import singular_catalog
from dbarlab.weights import random_band_limited, random_form

import positivity_reference

# Griffiths-positive / Nakano-negative curvature blocks, found by randomized
# search (seed 2026, trial 5490) over hermitian-symmetric constant curvature
# at n = r = 2, then frozen as a regression fixture.  Certified extrema:
# griffiths floor ~ +0.0777, nakano floor ~ -0.1406.
WITNESS_BLOCKS = np.array(
    [
        [
            [
                [1.4753261037377656 + 0.0j, 0.6554920635570105 + 0.8019255958383846j],
                [0.6554920635570105 - 0.8019255958383846j, 2.214373030647377 + 0.0j],
            ],
            [
                [0.33717485166397876 - 0.8827355237291702j, 0.0027306653992056 - 0.5664711086033798j],
                [-0.46665392191630384 + 0.10158263856280081j, -0.6446152129919507 + 0.05386160377351151j],
            ],
        ],
        [
            [
                [0.33717485166397876 + 0.8827355237291702j, -0.46665392191630384 - 0.10158263856280081j],
                [0.0027306653992056 + 0.5664711086033798j, -0.6446152129919507 - 0.05386160377351151j],
            ],
            [
                [0.9167630612864444 + 0.0j, -0.06313046472513431 + 0.20456066378300147j],
                [-0.06313046472513431 - 0.20456066378300147j, 0.3117046116941077 + 0.0j],
            ],
        ],
    ]
)


@pytest.fixture
def rng():
    return np.random.default_rng(500)


def identity_curvature(grid, rank):
    blocks = np.zeros((grid.n, grid.n, rank, rank), dtype=np.complex128)
    for j in range(grid.n):
        blocks[j, j] = np.eye(rank)
    return CurvatureField.constant(grid, rank, blocks)


def nakano_positive_curvature(grid, rank, rng, floor=0.3):
    """Random constant curvature with the stacked matrix positive definite."""
    nr = grid.n * rank
    raw = rng.standard_normal((nr, nr)) + 1j * rng.standard_normal((nr, nr))
    M = raw @ raw.conj().T / nr + floor * np.eye(nr)
    blocks = np.empty((grid.n, grid.n, rank, rank), dtype=np.complex128)
    for j in range(grid.n):
        for k in range(grid.n):
            blocks[j, k] = M[k * rank : (k + 1) * rank, j * rank : (j + 1) * rank]
    return CurvatureField.constant(grid, rank, blocks)


def test_identity_curvature_floors():
    g = GridSpec(2, 8, 8.0)
    h = MetricField.identity(g, 2)
    th = identity_curvature(g, 2)
    assert nakano_delta(h, th) == pytest.approx(1.0, abs=1e-12)
    assert griffiths_report(h, th)[0] == pytest.approx(1.0, abs=1e-9)


def test_gaussian_interior_floor_is_weight_strength():
    g = GridSpec(1, 64, 8.0)
    gauss = singular_catalog("gaussian", g, c=1.0)
    h, r0 = gauss.metric, gauss.plateau_radius
    z = g.z(0)
    box = (np.abs(z.real) <= 0.9 * r0) & (np.abs(z.imag) <= 0.9 * r0)
    delta = nakano_delta(h, curvature(h), region=box)
    assert abs(delta - 1.0) < 5e-3


def test_dimension_one_exact_equality(rng):
    g = GridSpec(1, 16, 8.0)
    w = np.exp(0.3 * random_band_limited(g, rng, 0.1, real=True).real)
    h = MetricField.from_weight(g, w, 1, log_weight=-np.log(w))
    th = curvature(h)
    assert griffiths_report(h, th)[0] == nakano_delta(h, th)


def test_rank_one_griffiths_equals_nakano_in_dimension_two(rng):
    # at rank one every tuple s_j = xi_j s is decomposable, so the floors
    # coincide exactly and no direction net runs
    g = GridSpec(2, 8, 8.0)
    phi = 0.4 * random_band_limited(g, rng, 0.2, real=True).real
    h = MetricField.from_weight(g, np.exp(-phi), 1, log_weight=phi)
    th = curvature(h)
    dg, point, xi, net_err = griffiths_report(h, th)
    assert dg == nakano_delta(h, th)
    assert net_err == 0.0
    # the reported direction attains the floor at the reported point
    form = np.einsum("j,k,jk->", xi, np.conj(xi), th.theta[point][..., 0, 0]).real
    assert form == pytest.approx(dg, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n, rank", [(1, 2), (2, 1)])
def test_positivity_report_runs_nakano_once(monkeypatch, rng, n, rank):
    import dbarlab.positivity as positivity

    calls = []
    real = positivity.nakano_report

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(positivity, "nakano_report", counting)
    g = GridSpec(n, 8, 8.0)
    positivity_report(MetricField.identity(g, rank), nakano_positive_curvature(g, rank, rng))
    assert len(calls) == 1


def test_frozen_witness_griffiths_positive_nakano_negative():
    g = GridSpec(2, 8, 8.0)
    h = MetricField.identity(g, 2)
    th = CurvatureField.constant(g, 2, WITNESS_BLOCKS)
    rep = positivity_report(h, th)
    assert rep.delta_griffiths > 0.05
    assert rep.delta_nakano <= -0.05
    assert rep.delta_nakano == pytest.approx(-0.14059545547494423, abs=1e-10)
    # dense eigenvalue oracle for the nakano floor
    M = np.transpose(WITNESS_BLOCKS, (1, 2, 0, 3)).reshape(4, 4)
    assert rep.delta_nakano == pytest.approx(
        float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0]), abs=1e-12
    )


def test_griffiths_definition_oracle_by_sampling(rng):
    # net extraction must lower-bound the definition sampled at random (s, xi),
    # and evaluating at the reported minimizer direction must reproduce it
    g = GridSpec(2, 8, 8.0)
    h = MetricField.identity(g, 2)
    th = nakano_positive_curvature(g, 2, rng)
    dg, _, xi_star, net_err = griffiths_report(h, th)
    blocks = th.theta[(0,) * 4]

    def form_ratio(s, xi):
        total = 0.0 + 0.0j
        for j in range(2):
            for k in range(2):
                total += (np.conj(s) @ blocks[j, k] @ s) * xi[j] * np.conj(xi[k])
        return total.real / (np.conj(s) @ s).real

    worst = np.inf
    for _ in range(2000):
        s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        xi /= np.linalg.norm(xi)
        worst = min(worst, form_ratio(s, xi))
    assert dg <= worst + 1e-9
    A_star = sum(
        blocks[j, k] * xi_star[j] * np.conj(xi_star[k]) for j in range(2) for k in range(2)
    )
    at_minimizer = float(np.linalg.eigvalsh(0.5 * (A_star + A_star.conj().T))[0])
    assert at_minimizer == pytest.approx(dg, abs=1e-9)


@pytest.mark.parametrize("mode", ["lower", "upper"])
@pytest.mark.parametrize("case", ["criterion7-0", "criterion7-1", "witness"])
def test_griffiths_matches_per_direction_reference(case, mode):
    from test_acceptance import random_pointwise_curvature, random_pointwise_metric

    g = GridSpec(2, 8, 8.0)
    if case == "witness":
        h = MetricField.identity(g, 2)
        th = CurvatureField.constant(g, 2, WITNESS_BLOCKS)
    else:
        # criterion 7's metrics, drawn in its order from its seed
        rng = np.random.default_rng(77)
        for _ in range(int(case[-1]) + 1):
            h = random_pointwise_metric(g, 2, rng)
            th = random_pointwise_curvature(g, 2, rng, h=h)
    delta, point, _xi, net_err = griffiths_report(h, th, mode=mode)
    reference = positivity_reference.griffiths_report(h, th, mode=mode)
    ref_delta, ref_point, _ref_xi, ref_net_err = reference
    assert abs(delta - ref_delta) <= 1e-12 * abs(ref_delta)
    assert point == ref_point
    assert abs(net_err - ref_net_err) <= 1e-12


def test_nakano_at_most_griffiths(rng):
    g = GridSpec(2, 8, 8.0)
    h = MetricField.identity(g, 2)
    for _ in range(5):
        th = nakano_positive_curvature(g, 2, rng)
        rep = positivity_report(h, th)
        assert rep.delta_nakano <= rep.delta_griffiths + 1e-9


def test_scaling_covariance(rng):
    # h -> c h leaves curvature and both floors unchanged
    g = GridSpec(1, 32, 8.0)
    w = np.exp(0.3 * random_band_limited(g, rng, 0.1, real=True).real)
    h1 = MetricField.from_weight(g, w, 1, log_weight=-np.log(w))
    h2 = MetricField.from_weight(g, 7.0 * w, 1, log_weight=-np.log(7.0 * w))
    t1, t2 = curvature(h1), curvature(h2)
    assert np.abs(t1.theta - t2.theta).max() < 1e-10 * np.abs(t1.theta).max()
    assert abs(nakano_delta(h1, t1) - nakano_delta(h2, t2)) < 1e-10


def test_duality_flip_rank_one(rng):
    g = GridSpec(1, 32, 8.0)
    gauss = singular_catalog("gaussian", g, c=1.0)
    h, r0 = gauss.metric, gauss.plateau_radius
    z = g.z(0)
    box = (np.abs(z.real) <= 0.9 * r0) & (np.abs(z.imag) <= 0.9 * r0)
    dual = dual_metric(h)
    floor_dual = griffiths_report(dual, curvature(dual), box)[0]
    cap = griffiths_report(h, curvature(h), box, mode="upper")[0]
    assert abs(floor_dual + cap) < 1e-6


def test_duality_rank_two_griffiths_negative_dual(rng):
    # Griffiths-positive constant curvature: the dual's cap is the negated floor
    g = GridSpec(2, 8, 8.0)
    h = MetricField.identity(g, 2)
    th = nakano_positive_curvature(g, 2, rng)
    dual_th = CurvatureField(g, 2, -np.conj(np.swapaxes(th.theta, -1, -2)))
    # for h = I the dual curvature blocks are -Theta_jk^T; its Griffiths cap
    # must sit at minus the original floor
    dg = griffiths_report(h, th)[0]
    cap_dual = griffiths_report(h, dual_th, mode="upper")[0]
    assert cap_dual == pytest.approx(-dg, abs=1e-6)


def test_duality_rank_two_twisted_metric(rng):
    # a genuinely matrix-valued (non-diagonal, non-constant) positively curved
    # metric: the dual must be strictly Griffiths-negative
    from dbarlab.weights import apodized_quadratic_weight, random_band_limited

    g = GridSpec(1, 64, 8.0)
    phi = apodized_quadratic_weight(g, 0.5, r0=1.0, s=0.30).real
    pert = 0.15 * random_band_limited(g, rng, 0.08, real=True).real
    pert2 = 0.15 * random_band_limited(g, rng, 0.08, real=True).real
    mat = np.zeros(g.shape + (2, 2), dtype=complex)
    mat[..., 0, 0] = np.exp(-phi) * (1.0 + 0.3 * np.tanh(pert))
    mat[..., 1, 1] = np.exp(-phi) * (1.0 - 0.3 * np.tanh(pert))
    mat[..., 0, 1] = np.exp(-phi) * 0.2 * (pert2 + 0.5j * pert)
    mat[..., 1, 0] = np.conj(mat[..., 0, 1])
    h = MetricField(g, 2, mat)
    z = g.z(0)
    box = (np.abs(z.real) <= 0.9) & (np.abs(z.imag) <= 0.9)
    # matrix products through the weight well leave ~1e-4 discretization
    # asymmetry; immaterial at the 1e-2 level these floors are read at
    floor = griffiths_report(h, curvature(h), box, symmetry_tol=1e-3)[0]
    assert floor > 0.3
    dual = dual_metric(h)
    cap_dual = griffiths_report(dual, curvature(dual), box, mode="upper",
                                symmetry_tol=1e-3)[0]
    assert cap_dual < -0.3
    assert abs(floor + cap_dual) < 1e-3


def test_symmetry_violation_raises():
    g = GridSpec(2, 8, 8.0)
    h = MetricField.identity(g, 2)
    blocks = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    blocks[0, 1] = np.eye(2)  # missing conjugate partner
    th = CurvatureField.constant(g, 2, blocks)
    with pytest.raises(CurvatureSymmetryError):
        nakano_delta(h, th)
    with pytest.raises(CurvatureSymmetryError):
        griffiths_report(h, th)


def test_metric_not_positive_at_unmasked_point_raises_metric_error():
    g = GridSpec(2, 8, 8.0)
    mat = MetricField.identity(g, 2).mat.copy()
    bad = (3, 4, 3, 4)
    mat[bad] = np.diag([1.0, -1.0])
    h = MetricField(g, 2, mat)
    th = identity_curvature(g, 2)
    with pytest.raises(MetricError):
        nakano_report(h, th)
    with pytest.raises(MetricError):
        griffiths_report(h, th)
    # the same point under the singular mask is outside every claim
    mask = np.zeros(g.shape, dtype=bool)
    mask[bad] = True
    assert nakano_delta(MetricField(g, 2, mat, mask), th) == pytest.approx(1.0)


def test_whiten_singular_factor_raises_metric_error():
    chol = np.zeros((3, 2, 2), dtype=np.complex128)
    with pytest.raises(MetricError):
        _whiten(np.eye(2) + chol, chol)


def test_empty_region_raises():
    g = GridSpec(1, 16, 8.0)
    h = MetricField.identity(g, 1)
    th = identity_curvature(g, 1)
    with pytest.raises(PreconditionError):
        nakano_delta(h, th, region=np.zeros(g.shape, dtype=bool))


def test_nakano_pointwise_identity_cases(rng):
    for n in (1, 2):
        g = GridSpec(n, 8, 8.0)
        h = MetricField.identity(g, 2)
        th = nakano_positive_curvature(g, 2, rng)
        gamma = random_form(g, 2, n - 1, 0, rng)
        assert check_nakano_pointwise_identity(th, gamma, h) < 1e-12
        zero = random_form(g, 2, n - 1, 0, rng) * 0.0
        assert check_nakano_pointwise_identity(th, zero, h) == 0.0


def test_nakano_identity_with_nontrivial_metric(rng):
    # h-symmetric random curvature against a non-identity constant metric
    g = GridSpec(2, 8, 8.0)
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    hmat = raw @ raw.conj().T + 2 * np.eye(2)
    h = MetricField(g, 2, np.broadcast_to(hmat, g.shape + (2, 2)).copy())
    nr = 4
    raws = rng.standard_normal((nr, nr)) + 1j * rng.standard_normal((nr, nr))
    Msym = raws @ raws.conj().T
    blocks = np.empty((2, 2, 2, 2), dtype=np.complex128)
    hinv = np.linalg.inv(hmat)
    for j in range(2):
        for k in range(2):
            blocks[j, k] = hinv @ Msym[k * 2 : (k + 1) * 2, j * 2 : (j + 1) * 2]
    th = CurvatureField.constant(g, 2, blocks)
    gamma = random_form(g, 2, 1, 0, rng)
    assert check_nakano_pointwise_identity(th, gamma, h) < 1e-12


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_nakano_pointwise_identity_folds_hat_signs_exactly(n, rank):
    # the residual is roundoff, so it reads the last bits of the right-hand
    # side; random non-hermitian curvature exercises every (j, k) sign pair
    rng = np.random.default_rng(30 + 10 * n + rank)
    g = GridSpec(n, 8, 8.0)
    h = MetricField.from_weight(g, np.exp(rng.standard_normal(g.shape)), rank)
    shape = g.shape + (n, n, rank, rank)
    th = CurvatureField(g, rank, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    gamma = random_form(g, rank, n - 1, 0, rng)
    assert (check_nakano_pointwise_identity(th, gamma, h)
            == positivity_reference.nakano_pointwise_identity(th, gamma, h))


def test_basic_inequality_equality_case(rng):
    # Theta = omega (x) I: the chain collapses to equality, slack exactly zero
    g = GridSpec(2, 8, 8.0)
    h = MetricField.identity(g, 2)
    th = identity_curvature(g, 2)
    for p in (1, 2):
        gamma = random_form(g, 2, 2 - p, 0, rng)
        res = check_basic_inequality(th, gamma, h, 1.0, p)
        assert abs(res["min_slack"]) < 1e-12 * max(res["scale"], 1e-300)


def test_basic_inequality_p1_matches_pointwise_identity(rng):
    g = GridSpec(2, 8, 8.0)
    h = MetricField.identity(g, 2)
    th = nakano_positive_curvature(g, 2, rng)
    delta = nakano_delta(h, th)
    gamma = random_form(g, 2, 1, 0, rng)
    res = check_basic_inequality(th, gamma, h, delta, 1)
    assert res["min_slack"] >= -1e-10 * max(res["scale"], 1e-300)


def test_basic_inequality_randomized_nonnegative(rng):
    g = GridSpec(2, 8, 8.0)
    h = MetricField.identity(g, 2)
    for _ in range(10):
        th = nakano_positive_curvature(g, 2, rng)
        delta = nakano_delta(h, th)
        for p in (1, 2):
            gamma = random_form(g, 2, 2 - p, 0, rng)
            res = check_basic_inequality(th, gamma, h, delta, p)
            assert res["min_slack"] >= -1e-8 * max(res["scale"], 1e-300)
