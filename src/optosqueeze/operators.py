"""Sparse operator algebra on truncated tensor-product Hilbert spaces.

Everything downstream (Hamiltonians, evolutions, spectra) is built from the
pieces here: Fock factors for the cavity and the mechanical oscillator, a
Level factor for the atom, and complex matrices acting on their tensor
product.  Operators are stored as `scipy.sparse` CSR arrays, the storage
QuTiP uses: every Hamiltonian of the model is banded, so the three-level H
at 8 x 32 x 3 = 768 dimensions holds 3,000 to 4,400 nonzeros out of 589,824
entries.  States stay dense.  Conventions used throughout the package:

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

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

__all__ = [
    "SpaceMismatchError",
    "Fock",
    "Level",
    "HilbertSpace",
    "Operator",
    "QuantumState",
    "identity",
    "annihilation",
    "creation",
    "number",
    "position",
    "momentum",
    "level_projector",
    "tensor_embed",
    "basis_state",
    "vacuum_state",
    "thermal_state",
    "thermal_tail_mass",
    "expectation",
    "variance",
    "commutator",
]


class SpaceMismatchError(ValueError):
    """Raised when two objects that must share a Hilbert space do not."""


@dataclass(frozen=True)
class Fock:
    """A bosonic mode truncated to the Fock states |0>, ..., |dim-1>."""

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ValueError(f"Fock dimension must be an integer >= 2, got {self.dim!r}")

    @property
    def size(self) -> int:
        return int(self.dim)


@dataclass(frozen=True)
class Level:
    """A discrete internal degree of freedom with `count` levels."""

    count: int

    def __post_init__(self):
        if not isinstance(self.count, (int, np.integer)) or self.count < 2:
            raise ValueError(f"Level count must be an integer >= 2, got {self.count!r}")

    @property
    def size(self) -> int:
        return int(self.count)


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
        raise SpaceMismatchError("operands live on different Hilbert spaces")


@dataclass(frozen=True)
class Operator:
    """A complex matrix acting on a HilbertSpace, stored as a CSR array.

    `Operator(space, m)` accepts a dense or a sparse `m` and keeps its own
    copy in `csr`, without explicitly stored zeros.  All arithmetic stays
    sparse; `matrix` builds a dense read-only array on demand, for callers
    that need one (a dense propagator, tests).

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

    def trace(self) -> complex:
        return complex(self.csr.diagonal().sum())

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
    """A pure state vector or a density matrix on a HilbertSpace.

    Construction validates the state: pure vectors must be normalized within
    1e-10; density matrices must be Hermitian and unit-trace within 1e-10
    with eigenvalues >= -1e-10.  Numerical trajectories that accumulate
    larger drift carry raw arrays instead (see `dynamics`); a QuantumState
    is always a legitimate state.
    """

    space: HilbertSpace
    vector: np.ndarray | None = None
    rho: np.ndarray | None = None

    _NORM_TOL = 1e-10
    _EIG_TOL = 1e-10

    def __post_init__(self):
        if (self.vector is None) == (self.rho is None):
            raise ValueError("provide exactly one of vector, rho")
        n = self.space.total_dim
        if self.vector is not None:
            v = np.array(self.vector, dtype=complex).reshape(-1)
            if v.shape != (n,):
                raise ValueError(f"vector length {v.shape[0]} does not match space dimension {n}")
            nrm = np.linalg.norm(v)
            if abs(nrm - 1.0) > self._NORM_TOL:
                raise ValueError(f"pure state norm {nrm!r} deviates from 1 beyond {self._NORM_TOL}")
            v.setflags(write=False)
            object.__setattr__(self, "vector", v)
        else:
            r = np.array(self.rho, dtype=complex)
            if r.shape != (n, n):
                raise ValueError(f"density matrix shape {r.shape} does not match dimension {n}")
            diag = np.diagonal(r)
            is_diagonal = np.count_nonzero(r) == np.count_nonzero(diag)
            # on a diagonal r, |r - r^dag| is 2 |Im r_ii|: no d x d temporaries
            if is_diagonal:
                herm_dev = 2.0 * np.max(np.abs(diag.imag))
            else:
                herm_dev = np.max(np.abs(r - r.conj().T))
            if herm_dev > self._NORM_TOL:
                raise ValueError("density matrix is not Hermitian within 1e-10")
            tr = np.trace(r).real
            if abs(tr - 1.0) > self._NORM_TOL:
                raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond {self._NORM_TOL}")
            if is_diagonal:
                eigmin = float(np.min(diag.real))
            else:
                eigmin = float(np.min(np.linalg.eigvalsh(r)))
            if eigmin < -self._EIG_TOL:
                raise ValueError(f"density matrix has eigenvalue {eigmin} < -{self._EIG_TOL}")
            r.setflags(write=False)
            object.__setattr__(self, "rho", r)

    @classmethod
    def pure(cls, space: HilbertSpace, vector: np.ndarray) -> "QuantumState":
        return cls(space, vector=vector)

    @classmethod
    def mixed(cls, space: HilbertSpace, rho: np.ndarray) -> "QuantumState":
        return cls(space, rho=rho)

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    def density(self) -> np.ndarray:
        """The state as a density matrix, regardless of kind."""
        if self.is_pure:
            return np.outer(self.vector, self.vector.conj())
        return np.asarray(self.rho)

    def purity(self) -> float:
        if self.is_pure:
            return 1.0
        r = self.rho
        return float(np.einsum("ij,ji->", r, r).real)


def identity(space: HilbertSpace) -> Operator:
    return Operator(space, sparse.identity(space.total_dim, dtype=complex, format="csr"))


def tensor_embed(ops: Iterable, space: HilbertSpace) -> Operator:
    """Embed single-factor matrices into the full space.

    `ops` is an iterable of (factor_index, matrix) pairs, at most one per
    factor; unspecified factors get identities.  The Kronecker order follows
    the factor order of `space`, factor 0 outermost.
    """
    mats = {}
    for idx, mat in ops:
        space.check_factor(idx)
        if idx in mats:
            raise ValueError(f"duplicate factor index {idx} in tensor_embed")
        m = mat if sparse.issparse(mat) else np.asarray(mat, dtype=complex)
        d = space.factors[idx].size
        if m.shape != (d, d):
            raise ValueError(f"matrix for factor {idx} has shape {m.shape}, expected ({d}, {d})")
        mats[idx] = sparse.csr_array(m, dtype=complex)
    blocks = (mats[idx] if idx in mats else sparse.identity(f.size, dtype=complex, format="csr")
              for idx, f in enumerate(space.factors))
    return Operator(space, functools.reduce(lambda a, b: sparse.kron(a, b, format="csr"), blocks))


def _ladder(d: int) -> sparse.csr_array:
    # b|n> = sqrt(n)|n-1>: entries (n-1, n) = sqrt(n)
    return sparse.diags_array(np.sqrt(np.arange(1, d, dtype=float)), offsets=1,
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
    space.check_factor(factor_index)
    f = space.factors[factor_index]
    if not isinstance(f, Fock):
        raise TypeError(f"factor {factor_index} is not a Fock factor")
    return tensor_embed([(factor_index, _ladder(f.size))], space)


def creation(space: HilbertSpace, factor_index: int) -> Operator:
    return annihilation(space, factor_index).dag()


def number(space: HilbertSpace, factor_index: int) -> Operator:
    b = annihilation(space, factor_index)
    return b.dag() @ b


def position(space: HilbertSpace, factor_index: int) -> Operator:
    """X = (b + b^dag)/2 of the given Fock factor."""
    b = annihilation(space, factor_index)
    return 0.5 * (b + b.dag())


def momentum(space: HilbertSpace, factor_index: int) -> Operator:
    """P = (b - b^dag)/(2i) of the given Fock factor."""
    b = annihilation(space, factor_index)
    return (-0.5j) * (b - b.dag())


def level_projector(space: HilbertSpace, factor_index: int, i: int, j: int) -> Operator:
    """|i><j| on the Level factor at `factor_index`, embedded in the full space."""
    space.check_factor(factor_index)
    f = space.factors[factor_index]
    if not isinstance(f, Level):
        raise TypeError(f"factor {factor_index} is not a Level factor")
    if not (0 <= i < f.count and 0 <= j < f.count):
        raise IndexError(f"level indices ({i}, {j}) out of range for {f.count} levels")
    m = np.zeros((f.count, f.count), dtype=complex)
    m[i, j] = 1.0
    return tensor_embed([(factor_index, m)], space)


def basis_state(space: HilbertSpace, occupations: Sequence[int]) -> QuantumState:
    """The product basis state |n_0, ..., n_k> for the given occupations."""
    sizes = space.factor_sizes
    if len(occupations) != len(sizes):
        raise ValueError(f"expected {len(sizes)} occupation numbers, got {len(occupations)}")
    for occ, d in zip(occupations, sizes):
        if not 0 <= occ < d:
            raise ValueError(f"occupation {occ} out of range for factor of size {d}")
    idx = int(np.ravel_multi_index(tuple(occupations), sizes))
    v = np.zeros(space.total_dim, dtype=complex)
    v[idx] = 1.0
    return QuantumState.pure(space, v)


def vacuum_state(space: HilbertSpace) -> QuantumState:
    return basis_state(space, [0] * len(space.factors))


def thermal_tail_mass(nbar: float, dim: int) -> float:
    """Probability mass of the untruncated thermal distribution at n >= dim.

    The geometric weights p_n = (nbar/(nbar+1))^n / (nbar+1) sum to
    (nbar/(nbar+1))^dim beyond the truncation, which is what gets
    renormalized away by `thermal_state`.
    """
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    if nbar == 0:
        return 0.0
    return float((nbar / (nbar + 1.0)) ** dim)


def thermal_state(space: HilbertSpace, factor_index: int, nbar: float) -> QuantumState:
    """Thermal state of mean occupation nbar on one Fock factor.

    Populates the factor at `factor_index` with geometric weights
    p_n proportional to (nbar/(nbar+1))^n, renormalized over the truncated
    levels; every other factor is placed in its ground (index 0) basis
    state.  The mass dropped by the truncation is `thermal_tail_mass(nbar,
    d)`.  nbar = 0 gives |0><0| exactly.
    """
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    space.check_factor(factor_index)
    f = space.factors[factor_index]
    if not isinstance(f, Fock):
        raise TypeError(f"factor {factor_index} is not a Fock factor")
    d = f.size
    if nbar == 0:
        w = np.zeros(d)
        w[0] = 1.0
    else:
        # geometric weights in log space, stable for large n*log(ratio)
        logr = np.log(nbar) - np.log(nbar + 1.0)
        w = np.exp(np.arange(d) * logr)
        w /= w.sum()
    # every factor's block is diagonal, so rho is the diagonal of their Kronecker product
    diags = []
    for idx, g in enumerate(space.factors):
        if idx == factor_index:
            diags.append(w.astype(complex))
        else:
            ground = np.zeros(g.size, dtype=complex)
            ground[0] = 1.0
            diags.append(ground)
    return QuantumState.mixed(space, np.diag(functools.reduce(np.kron, diags)))


def expectation(state: QuantumState, op: Operator) -> complex:
    """<psi|O|psi> for pure states, Tr(rho O) for mixed ones."""
    _require_same_space(state, op)
    if state.is_pure:
        return complex(np.vdot(state.vector, op.csr @ state.vector))
    # Tr(rho O) = sum_ij O_ij rho_ji, over the stored entries of O only
    return complex(op.csr.multiply(state.rho.T).sum())


def variance(state: QuantumState, op: Operator) -> float:
    """<O^2> - <O>^2 for a Hermitian observable."""
    m = expectation(state, op).real
    m2 = expectation(state, op @ op).real
    return m2 - m * m


def commutator(a: Operator, b: Operator) -> Operator:
    _require_same_space(a, b)
    return a @ b - b @ a
