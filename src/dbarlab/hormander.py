"""Weighted L2 norms, the exact discrete adjoint, and minimal-norm solves.

T is the spectral dbar from (n,p-1)-forms to (n,p)-forms.  Because the bundle
is trivialized, T is a fixed Fourier-multiplier structure and the metric only
enters through the pointwise Gram weight h of both spaces: norm2(a, h) is the
h-weighted lattice quadrature over h's unmasked cells, and the Hilbert-space
adjoint is computed exactly as apply_Tstar(v, h) = h^{-1} dbar^T (h v), with
dbar^T the unweighted transpose.  This module has no derivative loop of its
own: dbar^T is one call of ``hermitian``'s row-table operators (dbar's rows
read backwards, each coefficient transformed once), and the per-mode symbol
D of dbar reads dbar's rows from the same table.

The minimal-norm solve uses the normal equations T T* y = f.  Substituting
z = h y turns them into A z = f with A = dbar (h^{-1} dbar^T z), which is
symmetric positive semidefinite in the plain l2 inner product and, crucially,
has its range inside the dbar-multiplier range: residuals never leave the
solvable subspace, so preconditioned conjugate gradients converges without
touching the cokernel.  The returned u = h^{-1} dbar^T z lies in Range(T*),
hence is Gram-orthogonal to Ker(T) to machine precision regardless of how
accurately the iteration converged.

CG keeps z, r and p as Fourier spectra.  D is the per-mode dbar symbol:
wedging with d = sum_k d_k dzbar_k, d_k the dzbar_k multiplier.  Wedging and
contracting with d anticommute to |d|^2, D D^H + D^H D = |d|^2, so the cached
per-mode pseudoinverse is the closed form D^+ = D^H / |d|^2, zero at the
zero and Nyquist modes where d vanishes, and D D^+ is the range projection.
A acts as D F[h^{-1} F^{-1}[D^H p]] and the preconditioner as
D^+H F[h (v - P_h v)] with v = F^{-1}[D^+ r]: the weight sits between the
two pseudoinverses, less the symbol's kernel.  d vanishes on the 2^(2n)
modes that are zero or Nyquist on every axis, and those modes span exactly
the functions constant on each parity class of lattice points (i mod 2
fixed on every axis).  So P_h, the h-orthogonal projection onto them, is
v's h-weighted mean over each class, slot by slot,
(sum_class h)^{-1} sum_class h v: each grid axis is read as i = 2m + parity
and summed over m, the class sums of h formed once per solve.  M stays
hermitian positive semidefinite.  At p = 1, D^+ D = 1 off the kernel, and M A
is exactly the range projection at every n and rank: a solve stops after
one iteration.  At p = 2 M remains a good preconditioner (17-21 iterations
in the tests).  An iteration runs five transforms, all through grid's
numpy.fft transform pair: two for h^{-1}, two for h in the preconditioner
and one for the real-space stopping norm; the iteration that converges
skips the preconditioner, so a one-iteration solve runs eight in all,
counting the source's forward one and the solution's inverse one.  The stopping norm is taken in place, as one
h-weighted sum over the inverse transform of r.  The per-mode products, and
h and h^{-1} (formed entrywise when h is diagonal) through
``metric.matrix_apply``, are broadcast multiply-adds over the small
contracted index.  The final u and its true residual go through
the real-space dbar^T and dbar; an unconverged solve raises SolverError.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import FormError, PreconditionError, SolverError
from .exterior import EForm, index_tuples, norm_sq
from .grid import (
    SEAM_MARGIN,
    GridSpec,
    _dz_multiplier,
    integrate,
    seam_leakage,
    to_lattice,
    to_spectrum,
)
from .hermitian import _derivative_rows, _differentials, dbar
from .metric import MetricField, matrix_apply


def norm2(a: EForm, h: MetricField) -> float:
    """h-weighted squared L2 norm of a form: pointwise Gram h, lattice quadrature.

    Masked cells of h are left out of the quadrature.
    """
    dens = norm_sq(a, h)
    if h.mask is not None:
        dens[h.mask] = 0.0
    return float(integrate(a.grid, dens))


@dataclass
class SolveReport:
    """Norms, bound, and diagnostics for one minimal-norm dbar solve."""

    u_norm2: float
    f_norm2: float
    p: int
    delta: float | None
    bound: float | None          # 1/(p*delta) when a positive floor is certified
    ratio: float                 # u_norm2 / f_norm2
    residual: float              # |T u - f|_H2 / |f|_H2
    iterations: int
    seam_leakage: float
    bound_claimed: bool

    def row(self) -> dict:
        """The fields in order, an unset delta or bound as an empty cell."""
        return {key: "" if value is None else value for key, value in asdict(self).items()}


def dbar_transpose(v: EForm) -> EForm:
    """Unweighted l2 transpose of the dbar coefficient map, from hermitian's row table.

    (dbar^T v)_{I,J} = sum_{k not in J} (-1)^p ins(k,J) (-d_k) v_{I, J+k};
    exact because the Nyquist-zeroed multipliers make each d_k skew-adjoint.
    """
    if v.q == 0:
        raise FormError("transpose of dbar maps q = 0 forms to nothing")
    return _differentials(v, ("dbar_transpose",))[0]


def apply_Tstar(v: EForm, h: MetricField) -> EForm:
    """Exact discrete adjoint of dbar in the h-weighted L2 norms: h^{-1} dbar^T (h v).

    <dbar u, v> = <u, T* v> to roundoff, both sides integrated with h.
    """
    u = dbar_transpose(EForm(v.grid, v.rank, v.p, v.q, matrix_apply(h.mat, v.coeffs)))
    u.coeffs = matrix_apply(h.inverse_mat(), u.coeffs)
    return u


# ---------------------------------------------------------------------------
# symbol machinery: range projection and the preconditioner's pseudoinverse
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _flat_symbol(grid: GridSpec, p: int) -> np.ndarray:
    """Stacked multiplier matrices D[J', J](mode) of dbar: (n,p-1) -> (n,p)."""
    n = grid.n
    shape = grid.shape + (len(index_tuples(n, p)), len(index_tuples(n, p - 1)))
    D = np.zeros(shape, dtype=np.complex128)
    for (_, src), k, (_, dst), sign in _derivative_rows(n, n, p - 1, "dbar"):
        D[..., dst, src] += sign * _dz_multiplier(grid, k, True)
    return D


@lru_cache(maxsize=16)
def _symbol_pinv(grid: GridSpec, p: int) -> np.ndarray:
    """Per-mode pseudoinverse D^+ = D^H / |d|^2 of the dbar symbol (module docstring).

    |d|^2 = sum_k |d_k|^2 vanishes exactly at the zero and Nyquist modes, where D^+ is 0.
    """
    d2 = sum(np.abs(_dz_multiplier(grid, k, True)) ** 2 for k in range(grid.n))
    inv = np.divide(1.0, d2, out=np.zeros(d2.shape), where=d2 > 0.0)
    return np.conj(np.swapaxes(_flat_symbol(grid, p), -1, -2)) * inv[..., None, None]


def _per_mode(mat: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """Per-mode matrix product: mat (grid + (a, b)) times spec (grid + (b, r)).

    Written as multiply-adds over the small index b.
    """
    out = mat[..., :, :1] * spec[..., :1, :]
    for b in range(1, mat.shape[-1]):
        out += mat[..., :, b : b + 1] * spec[..., b : b + 1, :]
    return out


def _range_component(grid: GridSpec, p: int, spec: np.ndarray) -> np.ndarray:
    """Part of a (n,p) spectrum, shape grid + (C(n,p), r), in the range of dbar: D D^+ spec."""
    return _per_mode(_flat_symbol(grid, p), _per_mode(_symbol_pinv(grid, p), spec))


def _range_defect(grid: GridSpec, p: int, spec: np.ndarray) -> float:
    """Relative l2 mass outside the range of dbar of an (n,p) spectrum, grid + (C(n,p), r)."""
    lost = np.linalg.norm(spec - _range_component(grid, p, spec))
    return float(lost / max(np.linalg.norm(spec), 1e-300))


def project_to_range(f: EForm) -> EForm:
    """Remove the (measure-zero) cokernel bins: zero/Nyquist modes and
    directions transverse to the dbar multiplier."""
    spec = to_spectrum(f.grid, f.coeffs)
    spec[..., 0, :, :] = _range_component(f.grid, f.q, spec[..., 0, :, :])
    out = EForm.zeros(f.grid, f.rank, f.p, f.q)
    out.coeffs[...] = to_lattice(f.grid, spec)
    return out


def _parity_split(grid: GridSpec, arr: np.ndarray) -> np.ndarray:
    """arr, grid + tail, with each grid axis read as i = 2m + parity: (N/2, 2) per axis.

    A parity class of lattice points fixes i mod 2 on every axis.  The result
    is a view of a C-contiguous arr, as the transforms leave their output.
    """
    return arr.reshape(sum(((grid.N // 2, 2),) * (2 * grid.n), ()) + arr.shape[2 * grid.n :])


def _class_sums(grid: GridSpec, arr: np.ndarray) -> np.ndarray:
    """Sums of arr, grid + tail, over each parity class: (1, 2) per axis + tail."""
    return _parity_split(grid, arr).sum(axis=tuple(range(0, 4 * grid.n, 2)), keepdims=True)


def _class_mean(grid: GridSpec, hmat: np.ndarray, hsum_inv: np.ndarray, v: np.ndarray):
    """h-weighted mean of v, grid + (slots, r), over each parity class, slot by slot.

    (sum_class h)^-1 sum_class h v, shaped to broadcast against v's split
    axes; hsum_inv is the inverse of _class_sums(grid, hmat).
    """
    return matrix_apply(hsum_inv, _class_sums(grid, matrix_apply(hmat, v)))


def _spectral_norm2(grid: GridSpec, hmat: np.ndarray, spec: np.ndarray) -> float:
    """h-weighted squared L2 norm of the (n,p)-form whose dzbar spectrum is spec.

    spec is grid + (C(n,p), r), the dz slot dropped; equals norm2 of that
    form on an unmasked metric, taken as one weighted sum on the lattice.
    """
    v = to_lattice(grid, spec)
    return float(np.vdot(v, matrix_apply(hmat, v)).real) * grid.cell_volume


def closedness_defect(f: EForm, h: MetricField) -> float:
    """Dimensionless closedness measure |dbar f| / (k_1 |f|), k_1 = 2 pi / L.

    Scaling by the lowest nonzero wavenumber makes the defect comparable to a
    relative coefficient error; it vanishes identically at top degree.
    """
    if f.q == f.grid.n:
        return 0.0
    num = norm_sq(dbar(f), h).sum()
    den = norm_sq(f, h).sum()
    return float(np.sqrt(num / max(den, 1e-300))) * f.grid.L / (2 * np.pi)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def solve_min_norm(
    f: EForm,
    h: MetricField,
    delta: float | None = None,
    tol: float = 1e-10,
    maxiter_factor: int = 10,
    range_tol: float = 1e-8,
    margin: float = SEAM_MARGIN,
) -> tuple:
    """Minimal-norm u with dbar u = f, plus a SolveReport.

    f must be an (n,p)-form, dbar-closed (closedness_defect at most 1e-8) and
    inside the discrete range (up to range_tol); curvature hypotheses enter
    only through the reported delta.
    """
    grid = f.grid
    n = grid.n
    p = f.q
    if f.p != n or p < 1:
        raise FormError(f"source must be an (n,p)-form with p >= 1, got ({f.p},{f.q})")
    if h.grid != grid or h.rank != f.rank:
        raise FormError("metric does not match the source")

    # the Hormander bound 1/(p delta), claimed only for a positive finite floor
    bound = 1.0 / (delta * p) if delta is not None and 0.0 < delta < np.inf else None
    f_norm2 = norm2(f, h)
    if f_norm2 == 0.0:
        zero = SolveReport(0.0, 0.0, p, delta, bound, 0.0, 0.0, 0, 0.0, bound is not None)
        return EForm.zeros(grid, f.rank, n, p - 1), zero

    closed = closedness_defect(f, h)
    if closed > 1e-8:
        raise PreconditionError(
            f"source is not dbar-closed: relative defect {closed:.3e}", measured=closed
        )
    # CG runs on spectra of shape grid + (C(n,p), r); the dz slot of an
    # (n,p)-form is the single index (0..n-1) and is dropped
    f_hat = to_spectrum(grid, f.coeffs[..., 0, :, :])
    range_defect = _range_defect(grid, p, f_hat)
    if range_defect > range_tol:
        raise PreconditionError(
            f"source lies outside the discrete range of dbar by {range_defect:.3e} "
            "(zero-mode or Nyquist content); clean the source first",
            measured=range_defect,
        )

    hmat = h.mat
    hinv = h.inverse_mat()
    D = _flat_symbol(grid, p)
    DH = np.conj(np.swapaxes(D, -1, -2))
    Dp = _symbol_pinv(grid, p)
    DpH = np.conj(np.swapaxes(Dp, -1, -2))

    def to_form(spec: np.ndarray) -> EForm:
        form = EForm.zeros(grid, f.rank, n, p)
        form.coeffs[..., 0, :, :] = to_lattice(grid, spec)
        return form

    def apply_A(spec: np.ndarray) -> np.ndarray:
        w = matrix_apply(hinv, to_lattice(grid, _per_mode(DH, spec)))
        return _per_mode(D, to_spectrum(grid, w))

    # the symbol's kernel spans the functions constant on each parity class;
    # their h-orthogonal projection P_h v is v's h-weighted class mean
    hsum = _class_sums(grid, hmat)
    hsum_inv = 1.0 / hsum if f.rank == 1 else np.linalg.inv(hsum)

    def precondition(spec: np.ndarray) -> np.ndarray:
        # M = D^+H F[h (v - P_h v)], v = F^-1[D^+ r]: the weight sits between
        # the two pseudoinverses, and at p = 1 M A is the range projection
        v = to_lattice(grid, _per_mode(Dp, spec))
        _parity_split(grid, v)[...] -= _class_mean(grid, hmat, hsum_inv, v)
        return _per_mode(DpH, to_spectrum(grid, matrix_apply(hmat, v)))

    def h2_norm(spec: np.ndarray) -> float:
        return np.sqrt(max(_spectral_norm2(grid, hmat, spec), 0.0))

    dim = f.coeffs.size
    maxiter = int(maxiter_factor * np.ceil(np.sqrt(dim)))
    f_norm = np.sqrt(f_norm2)

    # Parseval scales rho and pAp by the same factor, so alpha and beta are
    # those of the real-space iteration
    z = np.zeros_like(f_hat)
    r = f_hat.copy()
    Mr = precondition(r)
    rho = np.vdot(r, Mr).real
    pdir = Mr
    iterations = 0
    resid = h2_norm(r) / f_norm
    best_resid = resid
    best_z = z.copy()
    restarts = 0
    while resid > tol:
        if iterations >= maxiter:
            raise SolverError(
                f"conjugate gradients hit the iteration cap {maxiter} at residual {resid:.3e}"
                f" (best seen {best_resid:.3e})",
                iterations=iterations,
                residual=resid,
            )
        Ap = apply_A(pdir)
        pAp = np.vdot(pdir, Ap).real
        if pAp <= 0.0:
            raise SolverError(
                "conjugate gradients broke down on a nonpositive curvature direction "
                "(near-kernel of the normal operator)",
                near_null=to_form(pdir),
                iterations=iterations,
                residual=resid,
            )
        alpha = rho / pAp
        z += alpha * pdir
        r -= alpha * Ap
        iterations += 1
        resid = h2_norm(r) / f_norm
        if resid < best_resid:
            best_resid = resid
            best_z = z.copy()
        elif resid > 10.0 * best_resid:
            # accumulated roundoff has broken conjugacy; restart the recurrence
            # from the best iterate with a fresh residual
            if restarts >= 5:
                raise SolverError(
                    f"conjugate gradients stalled at residual {best_resid:.3e} "
                    f"after {restarts} restarts",
                    iterations=iterations,
                    residual=best_resid,
                )
            restarts += 1
            z = best_z.copy()
            r = f_hat - apply_A(z)
            Mr = precondition(r)
            rho = np.vdot(r, Mr).real
            pdir = Mr
            resid = h2_norm(r) / f_norm
            continue
        if resid <= tol:
            break  # the next direction would never be used
        Mr = precondition(r)
        rho_new = np.vdot(r, Mr).real
        beta = rho_new / rho
        rho = rho_new
        pdir = Mr + beta * pdir

    # the solution and its true residual go through the real-space operators,
    # which checks the spectral iteration on every solve
    u = dbar_transpose(to_form(best_z if best_resid < resid else z))
    u.coeffs = matrix_apply(hinv, u.coeffs)

    true_resid_form = dbar(u)
    true_resid_form.coeffs -= f.coeffs
    residual = np.sqrt(max(norm2(true_resid_form, h), 0.0)) / f_norm
    u_norm2 = norm2(u, h)
    leak = seam_leakage(norm_sq(u, h), grid, margin)
    report = SolveReport(
        u_norm2=u_norm2,
        f_norm2=f_norm2,
        p=p,
        delta=delta,
        bound=bound,
        ratio=u_norm2 / f_norm2,
        residual=float(residual),
        iterations=iterations,
        seam_leakage=float(leak),
        bound_claimed=bound is not None,
    )
    return u, report


def verify_hormander(report: SolveReport, tol: float = 0.05) -> dict:
    """Check u_norm2 <= (1 + tol) * bound * f_norm2 against the report's 1/(p delta) bound."""
    bound = report.bound
    if bound is None:
        return {"claimed": False, "passed": None, "slack": None, "bound": None,
                "normalized_ratio": None}
    limit = bound * (1.0 + tol) * report.f_norm2
    slack = limit - report.u_norm2
    return {
        "claimed": True,
        "passed": bool(report.u_norm2 <= limit),
        "slack": float(slack),
        "bound": bound,
        # a zero source has the zero solution, which meets the bound with no ratio
        "normalized_ratio": report.u_norm2 / (bound * report.f_norm2) if report.f_norm2 else None,
    }
