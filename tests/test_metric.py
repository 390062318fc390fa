"""MetricField: construction rejects non-finite entries and diagonal weights off the
grid's shape; inverse_mat against LAPACK.

A diagonal stack is inverted entrywise; every other stack, and every stack
with a reciprocal that is not finite, goes through np.linalg.inv.  Both paths
must give what np.linalg.inv gives, exactly.  The non-finite stacks below are
written after construction, which is what lets them reach inverse_mat.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

from dbarlab.cli import _metric_for, main, parse_config
from dbarlab.errors import FormError, MetricError
from dbarlab.grid import GridSpec
from dbarlab.metric import HERMITIAN_TOL, MetricField, dual_metric
from dbarlab.singular import MollifierSchedule, mollify, singular_catalog
from test_hermitian import random_matrix_metric

REGULARIZE_CFG = Path(__file__).resolve().parent.parent / "configs" / "regularize.cfg"


@pytest.fixture
def inv_calls(monkeypatch):
    """Shapes of the stacks handed to np.linalg.inv while the test runs."""
    shapes = []
    lapack_inv = np.linalg.inv

    def counting_inv(a):
        shapes.append(np.shape(a))
        return lapack_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    return shapes


def regularize_mollified_duals():
    cfg = parse_config(REGULARIZE_CFG)
    grid = GridSpec(cfg.n, cfg.N, cfg.L)
    g = dual_metric(_metric_for(cfg, grid).metric)
    return [mollify(g, eps) for eps in MollifierSchedule(cfg.eps0, cfg.nu_max).radii]


GRID = GridSpec(1, 32, 8.0)
GRID2 = GridSpec(2, 8, 8.0)

DIAGONAL = {
    "log_pole": lambda: [singular_catalog("log_pole", GRID).metric],
    "log_pole_pair": lambda: [singular_catalog("log_pole_pair", GRID).metric],
    "gaussian-rank1": lambda: [singular_catalog("gaussian", GRID, c=1.0).metric,
                               singular_catalog("gaussian", GRID2, c=0.5).metric],
    "gaussian-rank2": lambda: [singular_catalog("gaussian", GRID, c=1.0, rank=2).metric,
                               singular_catalog("gaussian", GRID2, c=0.5, rank=2).metric],
    "identity": lambda: [MetricField.identity(GRID, 1), MetricField.identity(GRID2, 3)],
    "regularize-mollified-duals": regularize_mollified_duals,
}


@pytest.mark.parametrize("name", list(DIAGONAL))
def test_diagonal_inverse_is_entrywise_and_equals_lapack(name, inv_calls):
    for h in DIAGONAL[name]():
        expected = np.linalg.inv(h.mat)
        del inv_calls[:]
        assert np.array_equal(h.inverse_mat(), expected)
        assert inv_calls == []


@pytest.mark.parametrize("name", ["matrix_psh_dual", "random_matrix_metric"])
def test_non_diagonal_inverse_goes_through_lapack(name, inv_calls):
    if name == "matrix_psh_dual":
        h = singular_catalog("matrix_psh_dual", GRID).metric
    else:
        h = random_matrix_metric(GRID, 2, np.random.default_rng(3))
    del inv_calls[:]
    inv = h.inverse_mat()
    assert inv_calls == [h.mat.shape]
    assert np.array_equal(inv, np.linalg.inv(h.mat))


@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 1)],
                         ids=["rank1", "rank2-diagonal", "rank2-off-diagonal"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_metric_is_rejected_at_construction(entry, value):
    rank = max(entry) + 1
    g = GridSpec(1, 16, 8.0)
    mat = np.zeros(g.shape + (rank, rank), dtype=np.complex128)
    for a in range(rank):
        mat[..., a, a] = 1.0
    mat[(3, 5) + entry] = value
    if entry[0] != entry[1]:
        mat[(3, 5) + entry[::-1]] = np.conj(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricError, match="non-finite"):
            MetricField(g, rank, mat)
    # a diagonal metric's weights are checked against the grid, not broadcast
    with pytest.raises(FormError, match="does not match the grid"):
        MetricField.from_diagonal(g, [np.ones(g.N), np.full(g.shape, 2.0)])
    with pytest.raises(FormError, match="at least one weight"):
        MetricField.from_diagonal(g, [])


@pytest.mark.parametrize("noise, accepted", [(1e-14, True), (1e-9, False)])
def test_rank_one_symmetrization_is_the_general_formula(noise, accepted):
    # rank 1 reads the defect and the hermitian part off Im h and Re h; both
    # are the general formula's bit for bit, and noise past the tolerance
    # still raises
    g = GridSpec(2, 8, 8.0)
    weight = singular_catalog("gaussian", g, c=0.5, r0=1.0, s=0.30).metric.mat
    rng = np.random.default_rng(3)
    mat = weight + 1j * noise * rng.standard_normal(weight.shape)
    adjoint = np.conj(np.swapaxes(mat, -1, -2))
    defect = np.abs(mat - adjoint).max()
    assert defect == 2 * np.abs(mat.imag).max()
    assert (defect <= HERMITIAN_TOL * np.abs(mat).max() * 10) == accepted
    if not accepted:
        with pytest.raises(MetricError, match="not hermitian"):
            MetricField(g, 1, mat)
        return
    h = MetricField(g, 1, mat)
    assert h.mat.tobytes() == (0.5 * (mat + adjoint)).tobytes()
    assert not np.signbit(h.mat.imag).any()


def diagonal_with_entry(rank: int, value) -> MetricField:
    g = GridSpec(1, 16, 8.0)
    rng = np.random.default_rng(11)
    h = MetricField.from_diagonal(g, [rng.uniform(0.5, 2.0, g.shape) for _ in range(rank)])
    # set after construction: the hermitian check is not what is under test
    h.mat[3, 5, 0, 0] = value
    return h


@pytest.mark.parametrize("rank", [1, 2])
def test_zero_diagonal_entry_raises_like_lapack_without_warning(rank):
    h = diagonal_with_entry(rank, 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(h.mat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricError):
            h.inverse_mat()


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e-310, 1e308])
def test_nonfinite_and_extreme_entries_keep_lapacks_answer(rank, value):
    h = diagonal_with_entry(rank, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = h.inverse_mat()
    expected = np.linalg.inv(h.mat)
    # compare the float64 parts, so that a NaN in either part must sit where LAPACK puts it
    assert np.array_equal(got.view(np.float64), expected.view(np.float64), equal_nan=True)
    if np.isnan(value):
        assert np.isnan(got[3, 5, 0, 0])
    if np.isinf(value):
        assert got[3, 5, 0, 0] == 0.0


def test_regularize_inverts_no_full_grid_stack_through_lapack(tmp_path, inv_calls):
    cfg = parse_config(REGULARIZE_CFG)
    points = cfg.N ** (2 * cfg.n)
    del inv_calls[:]
    assert main(["regularize", "--config", str(REGULARIZE_CFG), "--out", str(tmp_path)]) == 0
    full_grid = [s for s in inv_calls if int(np.prod(s[:-2])) >= points]
    assert full_grid == []
