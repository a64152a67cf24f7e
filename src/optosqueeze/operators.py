"""Sparse operator algebra on truncated tensor-product Hilbert spaces.

Everything downstream (Hamiltonians, evolutions, spectra) is built from the
pieces here: Fock factors for the cavity and the mechanical oscillator, a
Level factor for the atom, and complex matrices acting on their tensor
product.  Operators are stored as `scipy.sparse` CSR arrays, the storage
QuTiP uses: every Hamiltonian of the model is banded, so the three-level H
at 8 x 32 x 3 = 768 dimensions holds 3,000 to 4,400 nonzeros out of 589,824
entries.  States are of two kinds only, the two the model prepares: a
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
top two Fock levels (the top one only below four levels) so a caller can
tell whether the truncation was adequate (see `dynamics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    "tensor_embed",
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

    def check_factor(self, index: int):
        if not 0 <= index < len(self.factors):
            raise IndexError(f"factor index {index} out of range for {len(self.factors)} factors")


def _require_same_space(a, b):
    if a.space != b.space:
        raise ValueError("operands live on different Hilbert spaces")


@dataclass(frozen=True)
class Operator:
    """A complex matrix acting on a HilbertSpace, stored as a CSR array.

    `Operator(space, m)` accepts a dense or a sparse `m` and keeps its own
    copy in `csr`, without explicitly stored zeros.  All arithmetic stays
    sparse; `matrix` builds a dense read-only array on demand, for callers
    that need one (the tests and the benchmark's correctness gates; the
    library itself never densifies a whole operator).

    Hermiticity is a checkable predicate (`is_hermitian`), never an
    assumption; constructors downstream assert it where the physics
    requires it.
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
        diff = self.csr - self.csr.conj().T
        return diff.nnz == 0 or bool(np.max(np.abs(diff.data)) <= tol)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return self.space == other.space and (self.csr != other.csr).nnz == 0


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
            raise ValueError(f"pure state norm {nrm!r} deviates from 1 beyond {self._NORM_TOL}")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @classmethod
    def pure(cls, space: HilbertSpace, vector: np.ndarray) -> "QuantumState":
        return cls(space, vector)


def tensor_embed(ops: Iterable, space: HilbertSpace) -> Operator:
    """Embed single-factor matrices into the full space.

    `ops` is an iterable of (factor_index, matrix) pairs, at most one per
    factor; unspecified factors get identities.  The Kronecker order follows
    the factor order of `space`, factor 0 outermost.

    The product is assembled in one pass: every nonzero of the result is a
    tuple of one nonzero per factor (an identity's are its diagonal), so
    its row and column are the factors' rows and columns in mixed radix,
    and its value is the product of the factors' values, taken left to
    right.  Listing the tuples in lexicographic order of the factors'
    row-major nonzeros puts every row's entries in ascending column order,
    so one COO-to-CSR conversion yields the canonical CSR array, the same
    one as a chain of pairwise `scipy.sparse.kron` products.
    """
    n = space.total_dim
    index_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64  # as scipy.sparse picks
    entries = {}  # factor index -> (rows, cols, values) of its stored entries, in CSR order
    for idx, mat in ops:
        space.check_factor(idx)
        if idx in entries:
            raise ValueError(f"duplicate factor index {idx} in tensor_embed")
        m = mat if sparse.issparse(mat) else np.asarray(mat, dtype=complex)
        d = space.factors[idx].size
        if m.shape != (d, d):
            raise ValueError(f"matrix for factor {idx} has shape {m.shape}, expected ({d}, {d})")
        m = sparse.csr_array(m, dtype=complex)
        r = np.repeat(np.arange(d, dtype=index_dtype), np.diff(m.indptr))
        entries[idx] = (r, m.indices.astype(index_dtype), m.data)
    rows = cols = vals = None
    for idx, f in enumerate(space.factors):
        eye = np.arange(f.size, dtype=index_dtype)
        r, c, v = entries.get(idx, (eye, eye, np.ones(f.size, dtype=complex)))
        if vals is None:
            rows, cols, vals = r, c, v
        else:
            rows = (rows[:, None] * f.size + r).ravel()
            cols = (cols[:, None] * f.size + c).ravel()
            vals = (vals[:, None] * v).ravel()
    return Operator(space, sparse.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr())


def _ladder(space: HilbertSpace, factor_index: int) -> sparse.csr_array:
    """The single-factor matrix of b on the Fock factor at `factor_index`."""
    space.check_factor(factor_index)
    f = space.factors[factor_index]
    if not isinstance(f, Fock):
        raise TypeError(f"factor {factor_index} is not a Fock factor")
    # b|n> = sqrt(n)|n-1>: entries (n-1, n) = sqrt(n)
    return sparse.diags_array(np.sqrt(np.arange(1, f.size, dtype=float)), offsets=1,
                              format="csr", dtype=complex)


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


def annihilation(space: HilbertSpace, factor_index: int) -> Operator:
    """The ladder operator b of the Fock factor at `factor_index`.

    On the truncated space the top row of b^dag b is cut off, so the
    canonical commutator [b, b^dag] equals 1 only on |n> with n <= d-2; the
    (d-1, d-1) element is 1-d.  Callers track top-level population to keep
    that edge unpopulated.
    """
    return tensor_embed([(factor_index, _ladder(space, factor_index))], space)


def position(space: HilbertSpace, factor_index: int) -> Operator:
    """X = (b + b^dag)/2 of the given Fock factor."""
    b = _ladder(space, factor_index)
    return tensor_embed([(factor_index, 0.5 * (b + b.T))], space)


def momentum(space: HilbertSpace, factor_index: int) -> Operator:
    """P = (b - b^dag)/(2i) of the given Fock factor."""
    b = _ladder(space, factor_index)
    return tensor_embed([(factor_index, -0.5j * (b - b.T))], space)


def _ket_bra(count: int, i: int, j: int) -> sparse.csr_array:
    """The single-factor matrix |i><j| on `count` levels."""
    return sparse.csr_array(([1.0], ([i], [j])), shape=(count, count), dtype=complex)


def level_projector(space: HilbertSpace, factor_index: int, i: int, j: int) -> Operator:
    """|i><j| on the Level factor at `factor_index`, embedded in the full space."""
    space.check_factor(factor_index)
    f = space.factors[factor_index]
    if not isinstance(f, Level):
        raise TypeError(f"factor {factor_index} is not a Level factor")
    if not (0 <= i < f.size and 0 <= j < f.size):
        raise IndexError(f"level indices ({i}, {j}) out of range for {f.size} levels")
    return tensor_embed([(factor_index, _ket_bra(f.size, i, j))], space)


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

