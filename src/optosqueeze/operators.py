"""Sparse operator algebra on truncated tensor-product Hilbert spaces.

Everything downstream (Hamiltonians, evolutions, spectra) is built from the
pieces here: Fock factors for the cavity and the mechanical oscillator, a
Level factor for the atom, and complex matrices acting on their tensor
product.  Operators are stored as `scipy.sparse` CSR arrays, the storage
QuTiP uses: every Hamiltonian of the model is banded, so the three-level H
at 8 x 32 x 3 = 768 dimensions holds 3,000 to 4,400 nonzeros out of 589,824
entries.  Single-factor matrices are numpy (rows, cols, values) triples,
and every operator built from them, from b to a model Hamiltonian, is
one Kronecker pass over them with one COO-to-CSR conversion
(`_kron_sum`); X and P come from one builder (`_quadrature_block`), on
the full space or on any set of basis states.  The module exports the
operators the model needs, not a general embedding of caller-supplied
matrices.  States are of two kinds only, the two the model prepares: a
dense pure vector (`QuantumState`: vacuum modes and an atom in a chosen
state) and the Fock occupations of a thermal oscillator
(`thermal_populations`, whose density matrix is diagonal).  Conventions
used throughout the package:

* hbar = 1, all rates and frequencies in units of the mechanical frequency.
* Factor order is fixed as (cavity, oscillator, atom).
* Quadratures are X = (b + b^dag)/2 and P = (b - b^dag)/(2i), so the vacuum
  variance of X is 1/4.
* Atomic levels are indexed |0> -> 0, |1> -> 1, |e> -> 2.

Truncation is handled by policy, not by magic: ladder operators are used
as-is on the truncated space, and simulations record the population of the
top two Fock levels (the top one at three levels) so a caller can
tell whether the truncation was adequate (see `dynamics`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "Fock",
    "Level",
    "HilbertSpace",
    "Operator",
    "QuantumState",
    "annihilation",
    "position",
    "momentum",
    "level_projector",
    "thermal_populations",
]


def _check_size(factor, what: str):
    """Require `factor.size` to be an integer >= 2, and store it as a Python int."""
    if not isinstance(factor.size, (int, np.integer)) or factor.size < 2:
        raise ValueError(f"{what} must be an integer >= 2, got {factor.size!r}")
    object.__setattr__(factor, "size", int(factor.size))


@dataclass(frozen=True)
class Fock:
    """A bosonic mode truncated to the Fock states |0>, ..., |size-1>."""

    size: int

    def __post_init__(self):
        _check_size(self, "Fock dimension")


@dataclass(frozen=True)
class Level:
    """A discrete internal degree of freedom with `size` levels."""

    size: int

    def __post_init__(self):
        _check_size(self, "Level count")


@dataclass(frozen=True)
class HilbertSpace:
    """An ordered tensor product of Fock and Level factors.

    The order of `factors` fixes the Kronecker layout of every operator and
    state on the space: factor 0 is outermost (slowest index), the last
    factor is innermost.  The composite basis index of occupation
    (n_0, ..., n_k) is therefore `ravel_multi_index` with the factor sizes
    as shape.
    """

    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("HilbertSpace needs at least one factor")
        for f in factors:
            if not isinstance(f, (Fock, Level)):
                raise TypeError(f"factors must be Fock or Level, got {f!r}")
        object.__setattr__(self, "factors", factors)

    @property
    def factor_sizes(self) -> tuple:
        return tuple(f.size for f in self.factors)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.factor_sizes))

    def factor(self, index: int, kind: type):
        """The factor at `index`, or IndexError when there is none and TypeError when it is not a `kind`."""
        if not 0 <= index < len(self.factors):
            raise IndexError(f"factor index {index} out of range for {len(self.factors)} factors")
        f = self.factors[index]
        if not isinstance(f, kind):
            raise TypeError(f"factor {index} is not a {kind.__name__} factor")
        return f


def _require_same_space(a, b):
    if a.space != b.space:
        raise ValueError("operands live on different Hilbert spaces")


@dataclass(frozen=True, eq=False)
class Operator:
    """A complex matrix acting on a HilbertSpace, stored as a CSR array.

    `Operator(space, m)` accepts a dense or a sparse `m` and keeps its own
    copy in `csr`, without explicitly stored zeros.  All arithmetic stays
    sparse; `matrix` builds a dense read-only array on demand, for callers
    that need one (the tests and the benchmark's correctness gates; the
    library itself never densifies a whole operator).

    Hermiticity is a checkable predicate (`is_hermitian`), never an
    assumption; constructors downstream assert it where the physics
    requires it.  Operators compare by identity: nothing in the package
    compares two of them, and a value comparison is one of their `csr`
    arrays (`(a.csr != b.csr).nnz == 0`).
    """

    space: HilbertSpace
    csr: sparse.csr_array

    def __post_init__(self):
        m = self.csr if sparse.issparse(self.csr) else np.asarray(self.csr, dtype=complex)
        n = self.space.total_dim
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {n}")
        m = sparse.csr_array(m, dtype=complex, copy=True)
        m.sum_duplicates()
        m.eliminate_zeros()
        object.__setattr__(self, "csr", m)

    @property
    def matrix(self) -> np.ndarray:
        """The operator as a dense read-only array, built on every access."""
        m = self.csr.toarray()
        m.setflags(write=False)
        return m

    def dag(self) -> "Operator":
        return Operator(self.space, self.csr.conj().T)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """Whether max |H - H^dag| <= tol, read off the CSR arrays without forming H - H^dag.

        A stable argsort of the column indices lists the stored entries in
        the row-major order of H^T, so their mirror keys c n + r come out
        sorted, like H's keys r n + c (`__post_init__` leaves the array
        canonical).  Each entry (r, c) is compared with the conjugate of its
        mirror (c, r): at the same position when the pattern is symmetric,
        else found by `searchsorted`; a missing mirror counts as 0.  Every
        nonzero of H - H^dag is one of these differences up to sign and
        conjugation.  A NaN entry fails.
        """
        m = self.csr
        n = m.shape[0]
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(m.indptr))
        order = np.argsort(m.indices, kind="stable")
        keys = rows * n + m.indices
        mirrors = (m.indices.astype(np.int64) * n + rows)[order]
        if np.array_equal(keys, mirrors):
            at = np.arange(keys.size)
        else:
            at = np.minimum(np.searchsorted(keys, mirrors), keys.size - 1)
        d = np.abs(m.data[order] - np.where(keys[at] == mirrors, m.data[at].conj(), 0))
        return bool(np.all((d <= tol) | (d == 0)))  # exact zeros pass any tol, as an empty difference does

    def __add__(self, other: "Operator") -> "Operator":
        _require_same_space(self, other)
        return Operator(self.space, self.csr + other.csr)

    def __sub__(self, other: "Operator") -> "Operator":
        _require_same_space(self, other)
        return Operator(self.space, self.csr - other.csr)

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.csr)

    def __mul__(self, scalar) -> "Operator":
        if isinstance(scalar, Operator):
            raise TypeError("use @ for operator products, * is scalar multiplication")
        return Operator(self.space, self.csr * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        _require_same_space(self, other)
        return Operator(self.space, self.csr @ other.csr)


@dataclass(frozen=True)
class QuantumState:
    """A pure state vector on a HilbertSpace, normalized within 1e-10.

    Construction keeps a read-only complex copy of the vector.  Mixed states
    never enter as matrices: the thermal phonon bath enters as Fock
    occupations (`thermal_populations`), and numerical trajectories that
    accumulate drift carry raw arrays (see `dynamics`).
    """

    space: HilbertSpace
    vector: np.ndarray

    _NORM_TOL = 1e-10

    def __post_init__(self):
        n = self.space.total_dim
        v = np.array(self.vector, dtype=complex).reshape(-1)
        if v.shape != (n,):
            raise ValueError(f"vector length {v.shape[0]} does not match space dimension {n}")
        nrm = np.linalg.norm(v)
        if not abs(nrm - 1.0) <= self._NORM_TOL:  # a NaN or infinite entry fails too
            raise ValueError(f"pure state norm {float(nrm)!r} deviates from 1 beyond {self._NORM_TOL}")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @classmethod
    def pure(cls, space: HilbertSpace, vector: np.ndarray) -> "QuantumState":
        return cls(space, vector)


def _index_dtype(largest_index: int, entries: int) -> type:
    """The index dtype scipy.sparse picks for an array of that largest index and entry count."""
    return np.int32 if max(largest_index, entries) <= np.iinfo(np.int32).max else np.int64


def _kron_sum(terms, sizes) -> sparse.csr_array:
    """Canonical CSR array of a sum of scaled Kronecker products, assembled in one pass.

    `sizes` are the factor dimensions (a space's `factor_sizes`, or (k, k)
    for the row-major vec(rho) of a k x k rho), and `terms` lists
    (c, {factor_index: (rows, cols, values)}) pairs: the coefficient c of
    one product and the stored entries of its single-factor matrices;
    unlisted factors carry identities.  Every nonzero of a product is a
    tuple of one entry per factor, so its row and column are the factors'
    rows and columns in mixed radix (factor 0 outermost), and its value is
    c ((v_0 v_1) v_2 ...), the factors' values multiplied in factor order.
    Diagonal entries are accumulated into a dense vector in list order, so
    each keeps the rounding of the term-by-term sum, and exact zeros among
    them are dropped; off-diagonal entries are concatenated, and the one
    COO-to-CSR conversion sorts them and sums any that coincide.
    """
    n = int(np.prod(sizes))
    eyes = [(np.arange(d), np.arange(d), np.ones(d, dtype=complex)) for d in sizes]
    parts = []
    for c, factors in terms:
        rows, cols, vals = factors.get(0, eyes[0])
        for idx, d in enumerate(sizes[1:], 1):
            r, k, v = factors.get(idx, eyes[idx])
            rows = (rows[:, None] * d + r).ravel()
            cols = (cols[:, None] * d + k).ravel()
            vals = (vals[:, None] * v).ravel()
        parts.append((rows, cols, vals * c))
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    on = rows == cols
    diag = np.zeros(n, dtype=complex)
    np.add.at(diag, rows[on], vals[on])  # one term after another, in list order
    at = np.flatnonzero(diag)
    off = ~on
    rows = np.concatenate([at, rows[off]])
    cols = np.concatenate([at, cols[off]])
    vals = np.concatenate([diag[at], vals[off]])
    index_dtype = _index_dtype(n, rows.size)
    return sparse.coo_array((vals, (rows.astype(index_dtype), cols.astype(index_dtype))), shape=(n, n)).tocsr()


def _banded(d: int, bands) -> tuple:
    """(rows, cols, values) of the d x d matrix holding `values` on diagonal `offset`.

    `bands` lists (offset, values) pairs; offset k > 0 lies above the main
    diagonal, so its entries are (i, i + k).  Values are stored as complex.
    """
    rows, cols, vals = [], [], []
    for k, v in bands:
        i = np.arange(d - abs(k))
        rows.append(i + max(-k, 0))
        cols.append(i + max(k, 0))
        vals.append(np.asarray(v, dtype=complex))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _ladder(space: HilbertSpace, factor_index: int) -> tuple:
    """(rows, cols, values) of b on the Fock factor at `factor_index`.

    b|n> = sqrt(n)|n-1>: entries (n-1, n) = sqrt(n).  The matrix is real, so
    (cols, rows, values) is b^dag.
    """
    d = space.factor(factor_index, Fock).size
    return _banded(d, [(1, np.sqrt(np.arange(1, d, dtype=float)))])


def _number(space: HilbertSpace, factor_index: int) -> tuple:
    """(rows, cols, values) of b^dag b as the product of the ladder matrices.

    Its entries are fl(sqrt(n) sqrt(n)), not always n.
    """
    _, cols, vals = _ladder(space, factor_index)
    return cols, cols, vals * vals


def _x2_bands(d: int) -> tuple:
    """(main diagonal, +-2 diagonal) of (b + b^dag)^2 on Fock levels 0..d-1.

    This is the truncated-space product (b + b^dag) @ (b + b^dag): the top
    level has no b b^dag term, so its diagonal entry is d - 1, not 2d - 1.
    The +-1 diagonals vanish, so the operator preserves Fock parity.
    """
    n = np.arange(d, dtype=float)
    diag = 2.0 * n + 1.0
    diag[-1] = d - 1.0
    return diag, np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))


def _embed(space: HilbertSpace, factor_index: int, triple: tuple) -> Operator:
    """The single-factor matrix `triple` on the factor at `factor_index`, in the full space."""
    return Operator(space, _kron_sum([(1.0, {factor_index: triple})], space.factor_sizes))


def annihilation(space: HilbertSpace, factor_index: int) -> Operator:
    """The ladder operator b of the Fock factor at `factor_index`.

    On the truncated space the top row of b^dag b is cut off, so the
    canonical commutator [b, b^dag] equals 1 only on |n> with n <= d-2; the
    (d-1, d-1) element is 1-d.  Callers track top-level population to keep
    that edge unpopulated.
    """
    return _embed(space, factor_index, _ladder(space, factor_index))


def _sector_positions(sector: np.ndarray, indices: np.ndarray) -> tuple:
    """(mask of the `indices` that lie in the sorted `sector`, their positions in it)."""
    pos = np.minimum(np.searchsorted(sector, indices), sector.size - 1)
    hit = sector[pos] == indices
    return hit, pos[hit]


def _quadrature_block(space: HilbertSpace, factor_index: int, quadrature: str, states: np.ndarray) -> tuple:
    """(rows, q[rows][:, states]): X or P of the Fock factor `factor_index` on the sorted basis `states`.

    `rows` are the sorted basis states that q reaches from `states`: each
    moves the factor's level n to n - 1 or n + 1, `step` indices apart.
    From that index arithmetic the block is a canonical CSR array of q's
    entries q[n, n - 1] = sqrt(n)/2, q[n, n + 1] = sqrt(n + 1)/2 for X
    (real) and i sqrt(n)/2, -i sqrt(n + 1)/2 for P; on every basis state
    it is the whole operator (`position`, `momentum`).
    """
    if quadrature not in ("X", "P"):
        raise ValueError("quadrature must be 'X' or 'P'")
    d = space.factor(factor_index, Fock).size
    step = int(np.prod(space.factor_sizes[factor_index + 1:]))
    level = states // step % d
    reached = np.zeros(space.total_dim, dtype=bool)
    reached[states[level > 0] - step] = True
    reached[states[level < d - 1] + step] = True
    rows = np.flatnonzero(reached)
    n = rows // step % d
    cols = np.stack([rows - step, rows + step], axis=1)  # level n - 1, then n + 1: sorted
    on = np.stack([n > 0, n < d - 1], axis=1)
    hit, at = _sector_positions(states, cols[on])
    on[on] = hit
    roots = np.sqrt(np.stack([n, n + 1], axis=1).astype(float))
    vals = 0.5 * roots if quadrature == "X" else roots * np.array([0.5j, -0.5j])
    index_dtype = _index_dtype(space.total_dim, at.size)
    indptr = np.concatenate([[0], np.cumsum(on.sum(axis=1))]).astype(index_dtype)
    return rows, sparse.csr_array((vals[on], at.astype(index_dtype), indptr), shape=(rows.size, states.size))


def position(space: HilbertSpace, factor_index: int) -> Operator:
    """X = (b + b^dag)/2 of the given Fock factor."""
    return Operator(space, _quadrature_block(space, factor_index, "X", np.arange(space.total_dim))[1])


def momentum(space: HilbertSpace, factor_index: int) -> Operator:
    """P = (b - b^dag)/(2i) of the given Fock factor."""
    return Operator(space, _quadrature_block(space, factor_index, "P", np.arange(space.total_dim))[1])


def _ket_bra(i: int, j: int) -> tuple:
    """(rows, cols, values) of the single-factor matrix |i><j|."""
    return np.array([i]), np.array([j]), np.ones(1, dtype=complex)


def level_projector(space: HilbertSpace, factor_index: int, i: int, j: int) -> Operator:
    """|i><j| on the Level factor at `factor_index`, embedded in the full space."""
    f = space.factor(factor_index, Level)
    if not (0 <= i < f.size and 0 <= j < f.size):
        raise IndexError(f"level indices ({i}, {j}) out of range for {f.size} levels")
    return _embed(space, factor_index, _ket_bra(i, j))


def thermal_populations(d: int, nbar: float) -> np.ndarray:
    """Fock occupations p_0, ..., p_{d-1} of a thermal state of mean occupation nbar.

    Geometric weights p_n proportional to (nbar/(nbar+1))^n, renormalized
    over the d truncated levels; the mass dropped by the truncation is
    (nbar/(nbar+1))^d.  nbar = 0 gives [1, 0, ..., 0] exactly.  The thermal
    density matrix is diagonal in the Fock basis, so these occupations are
    the whole state.
    """
    if not (np.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"nbar must be finite and >= 0, got {nbar!r}")
    if nbar == 0:
        p = np.zeros(d)
        p[0] = 1.0
        return p
    # geometric weights in log space, stable for large n*log(ratio)
    logr = np.log(nbar) - np.log(nbar + 1.0)
    p = np.exp(np.arange(d) * logr)
    return p / p.sum()

