"""Bundle-valued (p,q)-form algebra: wedge, pairing, norms, Hodge star.

Coefficients are stored only on strictly increasing multi-indices, in the
global frame dz_I wedge dzbar_J; every other ordering is resolved through an
explicit sign computation.  The ambient Kahler form is always the flat
omega = i * sum_j dz_j wedge dzbar_j, so this frame is orthonormal at every
point and the volume form is omega^n / n!.

Sign bookkeeping is concentrated in three primitives:

* ``merge_sign(a, b)``: the permutation sign for sorting the concatenation of
  two increasing index tuples (0 if they collide);
* ``wedge_basis``: the sign and target slot for the product of two frame
  elements, including the (-1)^(q1*p2) crossing of dzbar factors past dz
  factors;
* ``grow_table(n, k)``: every way dz_j (or dzbar_j) grows an increasing
  k-index, as (source slot, j, target slot, sign) rows built from
  ``merge_sign``.  dbar, del, D', Theta wedge, the dbar transpose, the flat
  dbar symbol and the hat-dz_j frame all read their signs from it.

Everything else (Hodge star epsilon constants, pairing expansion) is derived
from these, never from closed-form tables.

Storage is slot-major: ``EForm.zeros`` allocates one C-contiguous
(C(n,p), C(n,q), rank) + grid block and exposes it, grid axes moved first,
as ``coeffs`` of shape grid + (C(n,p), C(n,q), rank), so every coefficient
field ``coeffs[..., i, j, a]`` is one contiguous grid block that transforms,
adds and multiplies at full bandwidth.  A new form keeps this order by
writing into ``EForm.zeros`` or by an order-"K" operation (ufuncs);
``ndarray.copy()`` defaults to C order and would make the coefficients
grid-major.  A reshape that merges grid axes with slot axes
(``ravel``, ``reshape(-1)``) copies a slot-major form, and writes into the
copy are lost; a writer fills slots through indexing.

The pointwise contractions move no memory they do not need:

* a rank-1 metric contracts as a real weight w = h_00, so each slot pair of
  ``pairing`` and ``inner_product`` is two elementwise products, and
  ``norm_sq`` is w times one pass over the slot-major store viewed as reals;
  rank > 1 runs the einsum t^H h s per slot pair, and ``norm_sq`` is the
  real part of ``inner_product(a, a)``;
* a constant form (``omega_power``, a zero-stride broadcast) wedges as
  scalars: each nonzero entry of its block multiplies the other operand's
  field, and the zero entries are skipped;
* ``pairing`` tests each slot of its operands once with np.any (a NaN
  counts as nonzero) and skips every slot pair with an identically zero
  slot, whose product would add exact zeros for finite data; ``hodge_star``
  leaves the slot of a zero slot unwritten.  An output slot nothing is
  added to stays as EForm.zeros made it, pages the system has not yet
  backed with memory;
* a +-1 sign or factor picks an add or a subtract instead of a product, and
  a unit constant in {1, -1, i, -i} (``dv_density``, ``hodge_star``) is one
  product written straight into the result: no division and no temporary.
  numpy runs a complex-scalar product at about copy speed, faster than its
  complex negation or a swap of real and imaginary parts through strided
  views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import FormError
from .grid import GridSpec, add_signed
from .metric import MetricField, vector_inner


# ---------------------------------------------------------------------------
# unimodular constants and multi-index tables
# ---------------------------------------------------------------------------

def c_const(p: int) -> complex:
    """The unimodular normalizer i**(p*p) in {1, i, -1, -i}."""
    if p < 0:
        raise FormError(f"degree must be nonnegative, got {p}")
    return 1j ** ((p * p) % 4)


@lru_cache(maxsize=64)
def index_tuples(n: int, k: int) -> tuple:
    """All strictly increasing k-tuples from {0, ..., n-1}, lexicographic."""
    if k < 0 or k > n:
        return ()
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=64)
def index_slot(n: int, k: int) -> dict:
    return {idx: pos for pos, idx in enumerate(index_tuples(n, k))}


def merge_sign(a: tuple, b: tuple):
    """Sign of sorting a+b into increasing order; (0, None) on a collision."""
    if set(a) & set(b):
        return 0, None
    inversions = sum(1 for x in a for y in b if x > y)
    return (-1) ** inversions, tuple(sorted(a + b))


@lru_cache(maxsize=64)
def grow_table(n: int, k: int) -> tuple:
    """Rows (src, j, dst, sign) with dz_j ^ dz_idx = sign * dz_grown.

    idx runs over the increasing k-tuples and j over the n - k directions
    outside idx; src and dst are the slots of idx and grown among the k- and
    (k+1)-tuples.  Rows are ordered by idx, then j.
    """
    pos = index_slot(n, k + 1)
    rows = []
    for src, idx in enumerate(index_tuples(n, k)):
        for j in range(n):
            sign, grown = merge_sign((j,), idx)
            if sign:
                rows.append((src, j, pos[grown], sign))
    return tuple(rows)


def wedge_basis(I1: tuple, J1: tuple, I2: tuple, J2: tuple):
    """Sign and target (I, J) for (dz_I1 ^ dzbar_J1) ^ (dz_I2 ^ dzbar_J2).

    Returns (0, None, None) when the product vanishes.
    """
    cross = (-1) ** (len(J1) * len(I2))
    si, I = merge_sign(I1, I2)
    if si == 0:
        return 0, None, None
    sj, J = merge_sign(J1, J2)
    if sj == 0:
        return 0, None, None
    return cross * si * sj, I, J


# ---------------------------------------------------------------------------
# the form container
# ---------------------------------------------------------------------------

@dataclass
class EForm:
    """A (p,q)-form with values in a rank-r trivialized bundle.

    coeffs has shape grid.shape + (C(n,p), C(n,q), rank); slot ordering is the
    lexicographic one of ``index_tuples``.  Forms built here are slot-major
    (see the module docstring): each coeffs[..., i, j, a] is C-contiguous.
    """

    grid: GridSpec
    rank: int
    p: int
    q: int
    coeffs: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        if not (0 <= self.p <= n and 0 <= self.q <= n):
            raise FormError(f"bidegree ({self.p},{self.q}) out of range for n={n}")
        if self.rank < 1:
            raise FormError(f"rank must be positive, got {self.rank}")
        expected = self.grid.shape + (
            len(index_tuples(n, self.p)),
            len(index_tuples(n, self.q)),
            self.rank,
        )
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != expected:
            raise FormError(
                f"coefficient shape {self.coeffs.shape} does not match {expected}"
            )

    @classmethod
    def zeros(cls, grid: GridSpec, rank: int, p: int, q: int) -> "EForm":
        """The zero form, on a slot-major store seen with the grid axes first."""
        n = grid.n
        shape = (len(index_tuples(n, p)), len(index_tuples(n, q)), rank) + grid.shape
        store = np.zeros(shape, dtype=np.complex128)
        # np.moveaxis(store, (0, 1, 2), (-3, -2, -1)) without its argument checks
        return cls(grid, rank, p, q, store.transpose(tuple(range(3, store.ndim)) + (0, 1, 2)))

    def dz_slots(self) -> tuple:
        return index_tuples(self.grid.n, self.p)

    def dzbar_slots(self) -> tuple:
        return index_tuples(self.grid.n, self.q)

    def slot(self, I: tuple, J: tuple) -> np.ndarray:
        """Coefficient field (grid shape + rank axis) of dz_I wedge dzbar_J."""
        n = self.grid.n
        return self.coeffs[..., index_slot(n, self.p)[I], index_slot(n, self.q)[J], :]

    def __add__(self, other: "EForm") -> "EForm":
        _check_compatible(self, other)
        return EForm(self.grid, self.rank, self.p, self.q, self.coeffs + other.coeffs)

    def __sub__(self, other: "EForm") -> "EForm":
        _check_compatible(self, other)
        return EForm(self.grid, self.rank, self.p, self.q, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "EForm":
        return EForm(self.grid, self.rank, self.p, self.q, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "EForm":
        return EForm(self.grid, self.rank, self.p, self.q, -self.coeffs)


def _check_compatible(a: EForm, b: EForm):
    if a.grid != b.grid:
        raise FormError("forms live on different grids")
    if (a.p, a.q, a.rank) != (b.p, b.q, b.rank):
        raise FormError(
            f"form mismatch: ({a.p},{a.q}) rank {a.rank} vs ({b.p},{b.q}) rank {b.rank}"
        )


# ---------------------------------------------------------------------------
# wedge and the flat Kahler form
# ---------------------------------------------------------------------------

def _factors(a: EForm):
    """Per slot (I, J, factor): the coefficient field, or a constant form's scalar entry.

    A rank-1 form is constant when its coefficients broadcast one block over
    the grid (zero grid strides, as omega_power's); its zero entries are left
    out.
    """
    grid_axes = a.coeffs.ndim - 3
    constant = a.rank == 1 and a.coeffs.strides[:grid_axes] == (0,) * grid_axes
    for i, I in enumerate(a.dz_slots()):
        for j, J in enumerate(a.dzbar_slots()):
            if not constant:
                yield I, J, a.coeffs[..., i, j, :]
            elif (entry := a.coeffs[(0,) * grid_axes + (i, j, 0)]) != 0:
                yield I, J, entry


def _signed_product(sign: int, x, y) -> tuple:
    """(s, product) with s * product = sign * x * y; a scalar +-1 factor folds into s."""
    for unit, other in ((x, y), (y, x)):
        if np.ndim(unit) == 0 and unit.imag == 0 and abs(unit.real) == 1:
            return sign * int(unit.real), other
    return sign, x * y


def wedge(a: EForm, b: EForm) -> EForm:
    """Graded wedge product; at most one operand may be bundle-valued (rank > 1).

    A constant rank-1 operand (omega_power) enters entry by entry as a complex
    scalar: its zero entries are skipped and a +-1 entry is folded into the
    sign.  The result equals the one for the materialized constant field, up
    to the sign of zeros.
    """
    if a.grid != b.grid:
        raise FormError("forms live on different grids")
    if a.rank > 1 and b.rank > 1:
        raise FormError(
            "wedge of two bundle-valued forms is not defined; use pairing instead"
        )
    n = a.grid.n
    p, q = a.p + b.p, a.q + b.q
    if p > n or q > n:
        raise FormError(f"wedge target bidegree ({p},{q}) exceeds n={n}")
    rank = max(a.rank, b.rank)
    out = EForm.zeros(a.grid, rank, p, q)
    pos_I = index_slot(n, p)
    pos_J = index_slot(n, q)
    b_factors = list(_factors(b))
    for Ia, Ja, ca in _factors(a):
        for Ib, Jb, cb in b_factors:
            sign, I, J = wedge_basis(Ia, Ja, Ib, Jb)
            if sign == 0:
                continue
            add_signed(out.coeffs[..., pos_I[I], pos_J[J], :], *_signed_product(sign, ca, cb))
    return out


@lru_cache(maxsize=32)
def _omega_p_table(n: int, p: int) -> tuple:
    """(slot, value) entries of omega^p/p! = sum_K c_p dz_K wedge dzbar_K."""
    cp = c_const(p)
    return tuple((K, cp) for K in index_tuples(n, p))


def omega(grid: GridSpec) -> EForm:
    """The flat Kahler form i * sum_j dz_j wedge dzbar_j."""
    return omega_power(grid, 1)


def omega_power(grid: GridSpec, p: int) -> EForm:
    """omega^p / p! as a rank-1 (p,p)-form with constant coefficients.

    The coefficients are a read-only broadcast view of one (C(n,p), C(n,p), 1)
    block, so the form holds no full-grid array; wedge and pairing read it as
    they would a materialized field.  Copy the coefficients before writing.
    """
    n = grid.n
    if not 0 <= p <= n:
        raise FormError(f"omega power {p} out of range for n={n}")
    size = len(index_tuples(n, p))
    block = np.zeros((size, size, 1), dtype=np.complex128)
    for K, value in _omega_p_table(n, p):
        block[index_slot(n, p)[K], index_slot(n, p)[K], 0] = value
    return EForm(grid, 1, p, p, np.broadcast_to(block, grid.shape + block.shape))


def dv_density(a: EForm) -> np.ndarray:
    """Density of an (n,n)-form against the volume form omega^n/n!."""
    n = a.grid.n
    if (a.p, a.q) != (n, n):
        raise FormError(f"density requires a top-degree form, got ({a.p},{a.q})")
    if a.rank != 1:
        raise FormError("density of a bundle-valued form is undefined")
    # 1/c is a unit too, and a product by it is one vectorized pass
    return a.coeffs[..., 0, 0, 0] * (1 / c_const(n))


# ---------------------------------------------------------------------------
# metric pairing, norms, Hodge star
# ---------------------------------------------------------------------------

def pairing(a: EForm, b: EForm, h: MetricField) -> EForm:
    """Sesquilinear pairing <a, b>_h, a scalar form of bidegree (pa+qb, qa+pb).

    On decomposables alpha (x) s, beta (x) t this is alpha ^ conj(beta) (s,t)_h;
    the second argument enters conjugated.
    """
    if a.grid != b.grid:
        raise FormError("forms live on different grids")
    if a.rank != b.rank:
        raise FormError(f"rank mismatch in pairing: {a.rank} vs {b.rank}")
    if h.grid != a.grid or h.rank != a.rank:
        raise FormError("metric does not match the forms")
    n = a.grid.n
    p, q = a.p + b.q, a.q + b.p
    if p > n or q > n:
        raise FormError(f"pairing target bidegree ({p},{q}) exceeds n={n}")
    out = EForm.zeros(a.grid, 1, p, q)
    pos_I = index_slot(n, p)
    pos_J = index_slot(n, q)
    conj_sign = (-1) ** (b.p * b.q)
    a_slots = _live_slots(a)
    b_slots = a_slots if b is a else _live_slots(b)
    for Ia, Ja, ca in a_slots:
        for Ib, Jb, cb in b_slots:
            # conj(dz_Ib ^ dzbar_Jb) = (-1)^(pb*qb) dz_Jb ^ dzbar_Ib
            sign, I, J = wedge_basis(Ia, Ja, Jb, Ib)
            if sign == 0:
                continue
            add_signed(out.coeffs[..., pos_I[I], pos_J[J], 0], conj_sign * sign,
                       vector_inner(h, ca, cb))
    return out


def _live_slots(a: EForm) -> list:
    """(I, J, coefficient field) of each slot of a that is not identically zero.

    One np.any pass per slot; a NaN counts as nonzero.  A product with a zero
    slot is exact zeros for finite data, and costs several passes.
    """
    return [(I, J, a.slot(I, J)) for I in a.dz_slots() for J in a.dzbar_slots()
            if np.any(a.slot(I, J))]


def norm_sq(a: EForm, h: MetricField) -> np.ndarray:
    """Pointwise squared norm sum_IJ ||a_IJ||_h^2 in the orthonormal frame, a real density.

    At rank 1 this is w * sum |c|^2 with the real weight w = h_00.  One slot
    is two squares and an add.  Several are read in one pass over the
    slot-major store viewed as rows of interleaved real and imaginary parts:
    the squares are summed over the slots, from the last to the first, then
    each point's real and imaginary sums are added.  For the 2 or 4 slots of
    n <= 2 this rounds exactly as numpy's per-point einsum dot over the
    interleaved parts does.  At rank > 1 it is the real part of
    inner_product(a, a, h).
    """
    if h.grid != a.grid or h.rank != a.rank:
        raise FormError("metric does not match the form")
    if h.rank == 1:
        if a.coeffs.shape[-3] * a.coeffs.shape[-2] == 1:
            c = a.coeffs[..., 0, 0, 0]
            total = np.square(c.real)
            total += np.square(c.imag)
        else:
            grid_axes = a.coeffs.ndim - 3
            slot_first = (grid_axes, grid_axes + 1, grid_axes + 2) + tuple(range(grid_axes))
            store = np.ascontiguousarray(a.coeffs.transpose(slot_first))
            reals = store.view(np.float64).reshape(store.shape[0] * store.shape[1], -1)[::-1]
            sums = np.einsum("sk,sk->k", reals, reals)
            total = (sums[0::2] + sums[1::2]).reshape(a.grid.shape)
        total *= h.mat[..., 0, 0].real
        return total
    # the real part of the complex sum is the sum of the real parts
    return inner_product(a, a, h).real


def inner_product(a: EForm, b: EForm, h: MetricField) -> np.ndarray:
    """Pointwise hermitian inner product sum_IJ (a_IJ, b_IJ)_h."""
    _check_compatible(a, b)
    if h.grid != a.grid or h.rank != a.rank:
        raise FormError("metric does not match the forms")
    total = np.zeros(a.grid.shape, dtype=np.complex128)
    for I in a.dz_slots():
        for J in a.dzbar_slots():
            total += vector_inner(h, a.slot(I, J), b.slot(I, J))
    return total


@lru_cache(maxsize=32)
def hodge_star_table(n: int, p: int) -> tuple:
    """Unimodular constants eps_J with gamma = sum_J eps_J alpha_J dz_(J^c).

    Solved from the defining relation gamma ^ omega_p = alpha rather than
    written down: for each J the wedge of dz_(J^c) with the (J,J) term of
    omega_p lands on dz_(0..n-1) ^ dzbar_J with a known sign, and eps_J is
    whatever cancels it.
    """
    cp = c_const(p)
    full = tuple(range(n))
    entries = []
    for J in index_tuples(n, p):
        Jc = tuple(sorted(set(full) - set(J)))
        sign, I, Jt = wedge_basis(Jc, (), J, J)
        if sign == 0 or I != full or Jt != J:
            raise FormError("hodge star table construction failed")
        entries.append((J, Jc, 1.0 / (cp * sign)))
    return tuple(entries)


def hodge_star(a: EForm) -> EForm:
    """The (n-p,0)-form gamma with gamma ^ omega^p/p! = a, for a of bidegree (n,p)."""
    n = a.grid.n
    if a.p != n:
        raise FormError(f"hodge star requires an (n,p)-form, got ({a.p},{a.q})")
    p = a.q
    out = EForm.zeros(a.grid, a.rank, n - p, 0)
    full = tuple(range(n))
    pos = index_slot(n, n - p)
    for J, Jc, eps in hodge_star_table(n, p):
        if np.any(a.slot(full, J)):  # a zero slot stays unwritten
            np.multiply(a.slot(full, J), eps, out=out.coeffs[..., pos[Jc], 0, :])
    return out
