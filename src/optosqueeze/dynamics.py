"""Numerical time evolution and the validation harness.

Four evolution routes are implemented on purpose.  The two closed-system
routes, and the master equation on a small sector, share one idiom:
diagonalise the generator once, then evaluate every time of the grid from
t0 as exponentials in its eigenbasis (`_eigen_expansion` for the Fock
engines).

* `evolve_unitary`: Schroedinger-picture evaluation for pure states of a
  time-independent Hamiltonian (exact up to round-off, on any strictly
  increasing grid), on the sector the initial state reaches; it serves
  the cavity-oscillator-atom legs of the elimination chain, and its
  master-equation leg that has no collapse channel (rho stays pure).
* `exact_quadrature_moments`: Heisenberg-picture evaluation for the
  effective Hamiltonian, the one route for H_eff from vacuum and thermal
  states alike.  The state enters as its mean occupation nbar: a thermal
  density matrix is diagonal, so its Fock occupations are the whole state
  and no d x d matrix is built.  H_eff couples level n only to n +- 2, so
  it splits into two parity blocks, each real symmetric tridiagonal.  In a
  block's eigenbasis every weight (state, X^2, tail projector) is a real
  Gram product a^T a, and every moment is one real cos/sin product over
  the time grid.  X flips parity and the state has no even-odd
  coherence, so <X> is exactly zero and never computed.
* `covariance_evolve`: the Gaussian first/second-moment equations of the
  damped quadratic model, solved exactly per time point with an augmented
  matrix exponential (Van Loan block trick), valid in the unstable regime
  as well; it returns the means and covariances as stacked arrays.
* `evolve_lindblad`: the master equation with explicit collapse
  operators, through a sparse Liouvillian restricted to the sector the
  initial state reaches; it returns the expectations of the observables
  the caller names, not the states.  A sector of at most
  `EIGEN_SECTOR_MAX` entries is diagonalised once (L = V Lambda V^-1)
  and evaluated as `evolve_unitary` does, unless its eigenvector
  expansion cancels beyond `EIGEN_EXPANSION_MAX`, as near a defective L;
  any other sector is stepped by DOP853.  The chain compares an exact
  closed leg with an open leg: DOP853's error on decay_immunity.cfg's
  28,224 entries, about 1e-11 relative, is far below the 0.0746
  degradation measured there.

Both Fock engines propagate only the reachable sector: a breadth-first
search over the generator's nonzero pattern (H for `evolve_unitary`, the
Liouvillian for `evolve_lindblad`), started from the support of the
initial pure state, finds the index set that exp(t G) can populate.  The
restriction is exact, so it is always on; a drive, mechanical damping or
any other term that joins sectors enlarges the search result by itself.
Every reader (norm, trace, truncation tails, expectations) works on the
sector block, every component outside it being exactly zero.  A
`UnitaryTrajectory` keeps its (n_t, sector size) block of amplitudes,
which `variance_trajectory` reads; `UnitaryTrajectory.vectors` scatters
full-size states on access.  `evolve_lindblad` keeps no states: it
reads its populations and the requested expectations off the eigen
route's entries, or off each DOP853 step's grid times, and returns those.

Operators arrive as CSR arrays (see `operators`) and stay sparse here; the
dense matrices are the sector block of H that `evolve_unitary` hands to
`eigh` and the small Liouvillian sector blocks that `evolve_lindblad`
hands to `eig`.

Their mutual agreement (and agreement with `analytic`) is what the test
suite leans on; no route is trusted on its own.

Truncation is self-reported: every run records the joint population of the
top two Fock levels of each mode, and the adaptive wrappers share one
doubling loop that doubles the offending dimension until the tail drops
below 1e-6 or a cap is hit.  So is accuracy: each Fock engine's meta names
its route, sector size and RHS count, and its own relative error ("rtol"),
which is all a caller reads of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal, expm

from .model import (
    STARK_VARIANTS,
    ModelParams,
    _drift_diffusion,
    _stark_shifts,
    atomic_coupling_spectrum,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_two_level_hamiltonian,
    hybrid_space,
    oscillator_space,
)
from .operators import (
    Fock,
    HilbertSpace,
    Operator,
    QuantumState,
    annihilation,
    level_projector,
    momentum,
    position,
    thermal_populations,
)

__all__ = [
    "TruncationError",
    "TimeSeries",
    "CovarianceState",
    "UnitaryTrajectory",
    "Expectations",
    "CovarianceTrajectory",
    "AdiabaticReport",
    "evolve_unitary",
    "exact_quadrature_moments",
    "evolve_lindblad",
    "variance_trajectory",
    "covariance_evolve",
    "mech_dim_start",
    "effective_variance_series",
    "validate_adiabatic_chain",
]

TAIL_LIMIT = 1e-6
TRACE_TOL = 1e-9  # largest |Tr rho - 1| a master-equation run may reach
EFFECTIVE_DIM_CAP = 8192  # largest oscillator dimension of an H_eff series
CHAIN_DIM_CAP = 4096  # largest dimension any elimination-chain leg, Lindblad pair included, may reach
# relative error of an exactly propagated variance series: a stationary state
# moves its X variance by at most 11 eps at 8 x 32 x 3
EXACT_VARIANCE_RTOL = 256 * np.finfo(float).eps
# the same for a master-equation series on the eigen route: 1,247 eps at most
# against a longdouble propagator, over 50 chain legs of 40-180 entries
EIGEN_VARIANCE_RTOL = 2**14 * np.finfo(float).eps
MIN_RTOL = 100 * np.finfo(float).eps  # DOP853 raises any smaller rtol to this, with a warning
# largest Liouvillian sector that `evolve_lindblad` diagonalises instead of
# stepping DOP853: at the chain's parameters (rtol 1e-8, 2,900-5,100 RHS,
# 63-98 ms) a dense eig takes 29 ms at 160 entries and 89 ms at 256
EIGEN_SECTOR_MAX = 256
# largest ||V^-1 y0||_1 the eigen route accepts; its error measured about
# 1e-16 ||c||_1 from ||c||_1 = 1.6 up to a driven qubit's exceptional point (1.6e7)
EIGEN_EXPANSION_MAX = 1e4


class TruncationError(RuntimeError):
    """A run failed its self-checks: truncation tail, norm or trace drift, or dimension cap."""


def _double_until_converged(run, dims: tuple, cap: int):
    """Call `run(dims)`, doubling every dim whose tail exceeds TAIL_LIMIT, until none does.

    `run` returns (result, tails), with tails a dict from dim index to that
    dimension's truncation tail.  Returns (result, tails, dims) of the first
    run within the limit; raises TruncationError, naming the tails, the dims
    and the cap, when a doubled dim would pass `cap`.
    """
    while True:
        result, tails = run(dims)
        over = {i for i, tail in tails.items() if not tail <= TAIL_LIMIT}  # NaN counts as over
        if not over:
            return result, tails, dims
        doubled = tuple(2 * d if i in over else d for i, d in enumerate(dims))
        if any(doubled[i] > cap for i in over):
            raise TruncationError(
                f"tails {', '.join(f'{tails[i]:g}' for i in sorted(tails))} exceed "
                f"{TAIL_LIMIT:g} at dims {dims}; doubling to {doubled} passes the cap {cap}"
            )
        dims = doubled


@dataclass
class TimeSeries:
    """Real values on a strictly increasing grid of at least two times, plus run metadata."""

    times: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = _time_grid(self.times)
        v = np.asarray(self.values, dtype=float)
        if v.shape != t.shape:
            raise ValueError("times and values must be 1d arrays of equal length")
        self.times = t
        self.values = v


def _check_uncertainty(cov: np.ndarray):
    """Raise ValueError unless every 2x2 covariance in `cov` has det >= 1/16 (1e-10 slack)."""
    det = np.atleast_1d(np.linalg.det(cov))
    bad = det[~(det >= 1.0 / 16.0 - 1e-10)]  # a NaN determinant fails too
    if bad.size:
        raise ValueError(f"det(cov) = {bad[0]:g} violates the bound 1/16")


@dataclass(frozen=True)
class CovarianceState:
    """Gaussian state of the oscillator quadratures (X, P).

    cov is the symmetric covariance matrix; the Heisenberg bound for the
    1/4-normalized quadratures is det(cov) >= 1/16 and is enforced (with a
    1e-10 slack) at construction.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = np.array(self.mean, dtype=float).reshape(-1)
        c = np.array(self.cov, dtype=float)
        if m.shape != (2,) or c.shape != (2, 2):
            raise ValueError("mean must be a 2-vector and cov a 2x2 matrix")
        if not (np.isfinite(m).all() and np.isfinite(c).all()):
            raise ValueError("mean and cov must be finite")
        if abs(c[0, 1] - c[1, 0]) > 1e-10 * max(1.0, abs(c[0, 1])):
            raise ValueError("covariance matrix must be symmetric")
        _check_uncertainty(c)
        m.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", c)

    @classmethod
    def vacuum(cls) -> "CovarianceState":
        return cls(mean=np.zeros(2), cov=np.diag([0.25, 0.25]))

    @classmethod
    def thermal(cls, nbar: float) -> "CovarianceState":
        v = (2.0 * nbar + 1.0) / 4.0
        return cls(mean=np.zeros(2), cov=np.diag([v, v]))


@dataclass
class UnitaryTrajectory:
    """Pure-state trajectory on the reachable sector of its space.

    `sector` holds the sorted composite indices that the state can reach;
    row i of `amplitudes` is the state at times[i] on those indices, and
    every other component is exactly zero.
    """

    space: HilbertSpace
    times: np.ndarray
    sector: np.ndarray
    amplitudes: np.ndarray
    meta: dict

    @property
    def vectors(self) -> np.ndarray:
        """The full-length state vectors, scattered from `amplitudes` on every access."""
        out = np.zeros((self.times.size, self.space.total_dim), dtype=complex)
        out[:, self.sector] = self.amplitudes
        return out


@dataclass
class Expectations:
    """Tr(A rho(t)) of each requested observable A: column k of `values` holds the k-th."""

    times: np.ndarray
    values: np.ndarray  # complex, (n_t, number of observables)
    meta: dict


@dataclass
class CovarianceTrajectory:
    """Gaussian moments over the grid: `mean` is (n_t, 2) and `cov` is (n_t, 2, 2)."""

    times: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    meta: dict


def _tail_levels(size: int) -> tuple:
    """The Fock levels whose joint population is a mode's truncation tail.

    The top TWO levels: the quadratic coupling moves population in steps of
    two, so the single top level is blind to even-parity states whenever the
    truncation dimension is even.  For very small spaces (size < 4) the
    second-highest level is ordinary occupied population, not a truncation
    diagnostic, so only the top one counts there.
    """
    return (size - 2, size - 1) if size >= 4 else (size - 1,)


def _fock_tails(probs: np.ndarray, states: np.ndarray, space: HilbertSpace) -> dict:
    """Largest truncation tail of each Fock factor over the time axis of `probs`.

    `probs` (n_t, n) holds the populations of the composite basis states
    `states`; every other basis state is empty.
    """
    levels = np.unravel_index(states, space.factor_sizes)
    out = {}
    for idx, f in enumerate(space.factors):
        if isinstance(f, Fock):
            on_tail = np.isin(levels[idx], _tail_levels(f.size))
            out[idx] = float(probs[:, on_tail].sum(axis=1).max())
    return out


def _time_grid(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2 or not (np.isfinite(t).all() and np.all(np.diff(t) > 0)):
        raise ValueError("need a finite, strictly increasing time grid with at least two points")
    return t


def _first_drift(values: np.ndarray, tol: float):
    """Index of the first |value - 1| above `tol` or not a number, or None."""
    bad = np.flatnonzero(~(np.abs(values - 1.0) <= tol))
    return int(bad[0]) if bad.size else None


def _reachable_sector(g: sparse.csr_array, seed: np.ndarray) -> np.ndarray:
    """Sorted indices that the support of `seed` reaches along the nonzero pattern of `g`.

    A breadth-first search with an edge from column c to row r wherever
    g[r, c] != 0.  The span of the returned basis vectors is closed under g,
    hence under exp(t g): a vector supported there stays there, and every
    other component stays exactly zero.
    """
    pattern = sparse.csr_array(((g.data != 0).astype(float), g.indices, g.indptr), shape=g.shape)
    reached = seed != 0
    frontier = reached
    while frontier.any():
        frontier = (pattern @ frontier.astype(float) > 0) & ~reached
        reached |= frontier
    return np.flatnonzero(reached)


def _sector_positions(sector: np.ndarray, indices: np.ndarray) -> tuple:
    """(mask of the `indices` that lie in the sorted `sector`, their positions in it)."""
    pos = np.minimum(np.searchsorted(sector, indices), sector.size - 1)
    hit = sector[pos] == indices
    return hit, pos[hit]


def _eigen_expansion(omega: np.ndarray, v: np.ndarray, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-i G (t - t0)) y0 at every time of the grid, for G = V diag(omega) V^-1 and c = V^-1 y0.

    Row k is (exp(-i omega (t_k - t0)) * c) V^T: every time is evaluated
    from t0 in one product, so round-off does not accumulate from step to
    step.  A real omega is a Hamiltonian's spectrum; a Liouvillian L enters
    as G = i L, its decay rates being -Im omega.
    """
    return (np.exp(-1j * np.outer(t - t[0], omega)) * c) @ v.T


def evolve_unitary(H: Operator, psi0: QuantumState, times) -> UnitaryTrajectory:
    """Propagate a pure state under exp(-i H (t - t0)) on any strictly increasing grid.

    H's block on the sector that psi0 reaches (`meta["sector_dim"]` states)
    is diagonalised once (`eigh`, valid because H is checked Hermitian),
    and the state at every time is evaluated from t0 in one product,
    psi(t) = V exp(-i Lambda (t - t0)) V^dag psi0 (`_eigen_expansion`), so
    round-off does not accumulate from step to step.  The trajectory keeps
    these sector amplitudes only; the norm and the top-two-Fock-level
    population of every mode are read from them over the whole grid.  Norm
    drift beyond 1e-6 aborts with a TruncationError naming the first such
    time.

    `meta` holds the record every Fock engine returns: "method" ("eigh"),
    "dims", "sector_dim", "n_rhs_evals" (0: nothing is stepped), "rtol"
    (`EXACT_VARIANCE_RTOL`, this route's relative variance error) and
    "tail_max".
    """
    if not H.is_hermitian(1e-12):
        raise ValueError("evolve_unitary requires a Hermitian Hamiltonian")
    if H.space != psi0.space:
        raise ValueError("Hamiltonian and state live on different spaces")
    t = _time_grid(times)
    space = H.space
    sec = _reachable_sector(H.csr, psi0.vector)
    lam, v = np.linalg.eigh(H.csr[sec][:, sec].toarray())
    c = v.conj().T @ psi0.vector[sec]
    amps = _eigen_expansion(lam, v, c, t)

    probs = np.abs(amps) ** 2
    tails = _fock_tails(probs, sec, space)
    norms = np.sqrt(probs.sum(axis=1))
    i = _first_drift(norms, 1e-6)
    if i is not None:
        raise TruncationError(
            f"norm drifted to {norms[i]!r} at t={t[i]:g}; tails {tails}; enlarge the space"
        )

    meta = {
        "method": "eigh",
        "dims": space.factor_sizes,
        "sector_dim": int(sec.size),
        "n_rhs_evals": 0,
        "rtol": EXACT_VARIANCE_RTOL,
        "tail_max": tails,
        "tail_flag": any(not v <= TAIL_LIMIT for v in tails.values()),
        "norm_max_dev": float(np.max(np.abs(norms - 1.0))),
    }
    return UnitaryTrajectory(space=space, times=t, sector=sec, amplitudes=amps, meta=meta)


_BANDED_H = (
    "exact_quadrature_moments needs H on a single Fock factor, real, with entries only "
    "on the main diagonal and the +-2 diagonals (as build_effective_hamiltonian returns)"
)


def _phase_sum(cs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Re sum_jk exp(i (lam[j] - lam[k]) t) w[j, k] at every t, for a real symmetric w.

    `cs` stacks cos(outer(t, lam)) over sin(outer(t, lam)); the real part is
    c^T w c + s^T w s, one real product for the whole grid.
    """
    return np.einsum("tk,tk->t", cs @ w, cs).reshape(2, -1).sum(axis=0)


def _gram(a: np.ndarray) -> np.ndarray:
    """a^T a, written so that numpy runs it as a symmetric rank-k update."""
    return a.T @ a


def exact_quadrature_moments(H: Operator, nbar: float, times):
    """Moments of X under exp(-i H t) from a thermal state, exactly, by parity sector.

    The oscillator starts in the thermal state of mean occupation nbar
    (vacuum at nbar = 0), whose density matrix is diagonal: it enters as
    its Fock occupations p = `thermal_populations(d, nbar)`, and no d x d
    matrix is built.  H must be Hermitian, act on a single Fock factor, and
    be real with entries only on the main diagonal and the +-2 diagonals,
    which is what `build_effective_hamiltonian` returns; any other H raises
    ValueError.  Such an H couples level n only to n +- 2, so it splits into
    an even- and an odd-parity block, each real symmetric tridiagonal and
    diagonalised with `scipy.linalg.eigh_tridiagonal`.

    Every weight in a block's eigenbasis V is a real Gram product a^T a:
    the state is y^T y with y = sqrt(p) V (rows of this parity), and since
    X maps this parity to the other one, the block of the truncated-space
    X @ X (top diagonal entry d - 1) is z^T z with z = X[other, this] V.
    The tail projector's block is top^T top, top being the rows of V on
    the tail levels of this parity.  The weights are real and symmetric, so
    each moment Re sum_jk exp(i (lam_j - lam_k) t) w_jk is c^T w c + s^T w s
    with c, s = cos, sin(lam t): one real product over the whole grid.

    Returns (mean, second, tail): <X>(t), <X^2>(t), and the joint
    population of the top two Fock levels (the top one below four levels)
    over the grid.  The phases run from t = 0, not from times[0]: the
    state is thermal at t = 0.  X maps one parity to the other and a
    thermal state has no even-odd coherence, so `mean` is np.zeros(t.size)
    and is never computed; the slot stays so that the variance reads
    second - mean**2 and the tail stays [2].
    """
    t = _time_grid(times)
    if not H.is_hermitian(1e-12):
        raise ValueError("exact_quadrature_moments requires a Hermitian Hamiltonian")
    space = H.space
    if len(space.factors) != 1 or not isinstance(space.factors[0], Fock):
        raise ValueError(_BANDED_H)
    c = H.csr.tocoo()
    off_band = (c.row != c.col) & (np.abs(c.row - c.col) != 2)
    if np.any(np.abs(c.data[off_band]) > 1e-12) or np.any(np.abs(c.data.imag) > 1e-12):
        raise ValueError(_BANDED_H)

    d = space.total_dim
    p = thermal_populations(d, nbar)
    hd, h2 = H.csr.diagonal(0).real, H.csr.diagonal(2).real
    x = position(space, 0).csr.real

    second, tail = np.zeros((2, t.size))
    for s in (0, 1):  # levels s, s + 2, s + 4, ...
        lam, v = eigh_tridiagonal(hd[s::2], h2[s::2])
        w = _gram(x[1 - s::2][:, s::2] @ v)  # X^2 in the eigenbasis
        rho_t = _gram(np.sqrt(p[s::2])[:, None] * v)
        cs = np.concatenate([f(np.outer(t, lam)) for f in (np.cos, np.sin)])
        w *= rho_t
        second += _phase_sum(cs, w)
        top = v[[(lv - s) // 2 for lv in _tail_levels(d) if lv % 2 == s]]
        np.matmul(top.T, top, out=w)  # the tail weight reuses the X^2 weight's buffer
        w *= rho_t
        tail += _phase_sum(cs, w)
    return np.zeros(t.size), second, tail


def evolve_lindblad(
    H: Operator,
    collapse_ops,
    psi0: QuantumState,
    times,
    observables,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> Expectations:
    """Tr(A rho(t)) over the grid for each observable A, under the master equation.

    The master equation is drho/dt = -i[H, rho] + sum_k rate_k D[c_k] rho.
    `collapse_ops` is a list of (Operator, rate) pairs; each dissipator is
    D[c] rho = c rho c^dag - (c^dag c rho + rho c^dag c)/2 scaled by its
    rate (equivalently, collapse operator sqrt(rate) c).  The generator is
    assembled once as a sparse Liouvillian L acting on the row-major
    vectorised rho, and restricted to the sector that vec(|psi0><psi0|)
    reaches (`meta["sector_dim"]` entries).

    Two routes propagate that block, named in `meta["method"]`:

    * "lindblad-eig": a sector of at most `EIGEN_SECTOR_MAX` entries is
      diagonalised once, L = V Lambda V^-1, and every time is evaluated
      from t0 as (exp(Lambda (t - t0)) * c) V^T with c = V^-1 y0, the
      evaluation `evolve_unitary` does (`_eigen_expansion`); the requested
      rtol and atol play no part, so `meta["rtol"]` is this route's own
      error, `EIGEN_VARIANCE_RTOL`, `meta["atol"]` is None and
      `meta["n_rhs_evals"]` is 0.  The columns of V have
      unit norm and y0 has unit 2-norm, so ||c||_1 (`meta["expansion_l1"]`)
      bounds how far the expansion cancels; near a defective L it grows
      without bound, and above `EIGEN_EXPANSION_MAX` the run takes the
      other route.
    * "lindblad-dop853": a `scipy.integrate.DOP853` stepper, its dense
      output evaluated at the grid times inside each step; `meta` keeps
      the rtol and atol it was given.  rtol below `MIN_RTOL`, which DOP853
      would silently raise to it, is a ValueError (on either route).

    No route keeps the states.  Column k of the returned `values` is
    Tr(A rho(t)) = sum_ij A[j, i] rho[i, j] for the k-th Operator A of the
    sequence `observables`: one product of the sector entries with the
    weights A[j, i], complex (take the real part for a Hermitian A).  The
    populations, hence the trace and the truncation tails, are read from
    the diagonal entries rho[i, i] (vec index i * (d + 1)); row t0 is y0
    itself, the trace is checked at every output time and drift beyond
    `TRACE_TOL` aborts.  Only the last rho is scattered into a d x d
    matrix, for `meta["final_eigmin"]`.
    """
    if not H.is_hermitian(1e-12):
        raise ValueError("evolve_lindblad requires a Hermitian Hamiltonian")
    if not rtol >= MIN_RTOL:
        raise ValueError(f"rtol must be >= {MIN_RTOL:.3g} (100 machine epsilon), got {rtol!r}")
    space = H.space
    if space != psi0.space or any(a.space != space for a in observables):
        raise ValueError("Hamiltonian, state and observables live on different spaces")
    t = _time_grid(times)

    ls = []
    for op, rate in collapse_ops:
        if op.space != space:
            raise ValueError("collapse operator on a different space")
        if not 0 <= rate < math.inf:  # a NaN rate would otherwise be skipped below as if it were 0
            raise ValueError(f"collapse rates must be finite and >= 0, got {rate!r}")
        if rate > 0:
            ls.append(math.sqrt(rate) * op.csr)
    d = space.total_dim

    # drho/dt = K rho + rho K^dag + sum_k l_k rho l_k^dag with
    # K = -i H - sum_k l_k^dag l_k / 2; row-major vec(A rho B) = (A kron B^T) vec(rho)
    k = -1j * H.csr
    for l in ls:
        k = k - 0.5 * (l.conj().T @ l)
    eye = sparse.identity(d, dtype=complex, format="csr")
    liouv = sparse.kron(k, eye) + sparse.kron(eye, k.conj())
    for l in ls:
        liouv = liouv + sparse.kron(l, l.conj())
    liouv = sparse.csr_array(liouv)
    y0 = np.outer(psi0.vector, psi0.vector.conj()).ravel()
    sec = _reachable_sector(liouv, y0)
    block = liouv[sec][:, sec]
    y0 = y0[sec]

    # populations of the basis states i whose diagonal entry rho[i, i] lies in the sector
    hit, at = _sector_positions(sec, np.arange(d) * (d + 1))
    weights = [_trace_weights(a.csr, sec, d) for a in observables]
    probs = np.empty((t.size, at.size))
    values = np.empty((t.size, len(observables)), dtype=complex)
    rho_final = np.zeros(d * d, dtype=complex)

    def record(i: int, entries: np.ndarray):
        """Read the sector entries of grid rows i, i + 1, ...; the last row recorded is the final rho."""
        rows = slice(i, i + len(entries))
        probs[rows] = entries[:, at].real
        for col, w in enumerate(weights):
            values[rows, col] = entries @ w
        rho_final[sec] = entries[-1]

    l1 = None
    if sec.size <= EIGEN_SECTOR_MAX:
        try:
            lam, v = np.linalg.eig(block.toarray())
            c = np.linalg.solve(v, y0)
        except np.linalg.LinAlgError:  # no convergence, or V exactly singular: L is defective
            c = np.full(sec.size, np.inf)
        l1 = float(np.abs(c).sum())
    eigen = l1 is not None and l1 <= EIGEN_EXPANSION_MAX  # a NaN l1 fails too
    if eigen:
        entries = _eigen_expansion(1j * lam, v, c, t)
        entries[0] = y0
        record(0, entries)
        nfev = 0
    else:
        nfev = _dop853_steps(block, y0, t, rtol, atol, record)

    traces = probs.sum(axis=1)
    i = _first_drift(traces, TRACE_TOL)
    if i is not None:
        raise TruncationError(
            f"trace drifted to {traces[i]!r} at t={t[i]:g} (tolerance {TRACE_TOL:g}); "
            "tighten rtol/atol or enlarge the space"
        )
    tails = _fock_tails(probs, np.flatnonzero(hit), space)

    meta = {
        "method": "lindblad-eig" if eigen else "lindblad-dop853",
        "dims": space.factor_sizes,
        "rtol": EIGEN_VARIANCE_RTOL if eigen else rtol,
        "atol": None if eigen else atol,
        "sector_dim": int(sec.size),
        "n_rhs_evals": nfev,
        "expansion_l1": l1,
        "trace_max_dev": float(np.max(np.abs(traces - 1.0))),
        "final_eigmin": float(np.min(np.linalg.eigvalsh(rho_final.reshape(d, d)))),
        "tail_max": tails,
        "tail_flag": any(not v <= TAIL_LIMIT for v in tails.values()),
    }
    return Expectations(times=t, values=values, meta=meta)


def _dop853_steps(block: sparse.csr_array, y0: np.ndarray, t: np.ndarray, rtol, atol, record):
    """Integrate dy/dt = block @ y from y0 over the grid with DOP853, as `solve_ivp` does.

    Each step's dense output is evaluated at the grid times it covers, and
    `record(i, rows)` receives them (rows[j] at t[i + j]); no step's states
    are kept.  Returns the RHS count.
    """
    # imported here, its only user, so that a run without a large master equation skips it
    from scipy.integrate import DOP853

    solver = DOP853(lambda _, y: block @ y, t[0], y0, t[-1], rtol=rtol, atol=atol)
    done = 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise TruncationError(f"master-equation integration failed: {message}")
        upto = int(np.searchsorted(t, solver.t, side="right"))
        if upto > done:
            record(done, solver.dense_output()(t[done:upto]).T)
            done = upto
    return solver.nfev


def variance_trajectory(traj: UnitaryTrajectory, factor: int, quadrature: str = "X") -> TimeSeries:
    """Variance of X or P of the Fock factor `factor` along a pure-state trajectory.

    The trajectory is read on its sector, never scattered.  Both moments
    come from one sparse product qv = q v, with q the columns of the
    quadrature on the sector, restricted to its nonzero rows: <q> = Re sum
    conj(v) qv over the rows inside the sector and <q^2> = sum |qv|^2,
    exact for the Hermitian q of the truncated space (its q @ q).
    """
    if quadrature not in ("X", "P"):
        raise ValueError("quadrature must be 'X' or 'P'")
    q = (position if quadrature == "X" else momentum)(traj.space, factor).csr
    q_sec = q[:, traj.sector]
    rows = np.flatnonzero(np.diff(q_sec.indptr))
    qv = (q_sec[rows] @ traj.amplitudes.T).T
    hit, at = _sector_positions(traj.sector, rows)
    m1 = np.einsum("ti,ti->t", traj.amplitudes[:, at].conj(), qv[:, hit]).real
    m2 = np.einsum("ti,ti->t", qv.conj(), qv).real
    return TimeSeries(traj.times, m2 - m1**2, dict(traj.meta, quadrature=quadrature))


def _trace_weights(a: sparse.csr_array, sector: np.ndarray, d: int) -> np.ndarray:
    """Weights w on the sector of row-major vec(rho) such that Tr(a rho) = w . vec(rho)[sector].

    Tr(a rho) = sum_rc a[r, c] rho[c, r], and rho[c, r] is entry c * d + r.
    """
    c = a.tocoo()
    hit, at = _sector_positions(sector, c.col.astype(np.int64) * d + c.row)
    w = np.zeros(sector.size, dtype=complex)
    w[at] = c.data[hit]
    return w


def covariance_evolve(
    g_eff: float,
    omega_m: float,
    gamma: float,
    nbar: float,
    init: CovarianceState,
    times,
) -> CovarianceTrajectory:
    """Exact Gaussian moments of the damped quadratic model.

    The quadrature Langevin equations give linear moment dynamics
    d mean/dt = A mean, d cov/dt = A cov + cov A^T + D with

        A = [[-gamma/2, omega_m], [-(omega_m + 4 g_eff), -gamma/2]],
        D = gamma (2 nbar + 1)/4 * identity.

    Each output point is computed from `init` at times[0] with one
    augmented matrix exponential (exact; no step-size error, stable and
    unstable regimes alike); the exponentials of the whole grid are one
    stacked `expm` call, and the means and covariances follow from them by
    stacked products.  The covariances are symmetrized against round-off,
    and det(cov) >= 1/16 is checked once over the stack.  This is the
    package's brute-force oracle for everything Gaussian.
    """
    if not (0 <= gamma < math.inf and 0 <= nbar < math.inf):
        raise ValueError(f"gamma and nbar must be finite and >= 0, got {gamma!r} and {nbar!r}")
    t = _time_grid(times)
    a, d = _drift_diffusion(g_eff, omega_m, gamma, nbar)
    m = np.zeros((4, 4))
    m[:2, :2] = a
    m[:2, 2:] = d
    m[2:, 2:] = -a.T

    e = expm(m[None] * (t - t[0])[:, None, None])
    f = e[:, :2, :2]
    ft = f.transpose(0, 2, 1)
    cov = f @ init.cov @ ft + e[:, :2, 2:] @ ft
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    _check_uncertainty(cov)
    meta = {
        "method": "covariance-expm",
        "g_eff": g_eff,
        "omega_m": omega_m,
        "gamma": gamma,
        "nbar": nbar,
    }
    return CovarianceTrajectory(times=t, mean=f @ init.mean, cov=cov, meta=meta)


def mech_dim_start(nbar: float, g_eff: float, omega_m: float) -> int:
    """Starting oscillator truncation for adaptive runs.

    A squeezed thermal state spreads over roughly (2 nbar + 1)(4 g/omega_m
    + 1) Fock levels; the factor 8 margin keeps the initial tail well under
    the 1e-6 limit for typical parameters, and the doubling loop picks up
    the rest.
    """
    spread = (2.0 * nbar + 1.0) * (4.0 * max(g_eff, 0.0) / omega_m + 1.0)
    return int(max(16, math.ceil(8.0 * spread)))


def effective_variance_series(
    g_eff: float,
    omega_m: float,
    nbar: float,
    times,
    d_start: int | None = None,
) -> TimeSeries:
    """X-variance under H_eff from a thermal state (vacuum at nbar = 0), truncation-adaptive.

    The moments come from the parity-split `exact_quadrature_moments` for
    every nbar, so the phases run from t = 0: the state is thermal at
    t = 0, whatever times[0] is.  The oscillator dimension starts at
    `d_start` (default `mech_dim_start`) and doubles until the truncation
    tail stays below 1e-6; TruncationError is raised when a doubling would
    pass `EFFECTIVE_DIM_CAP`.
    """
    t = _time_grid(times)

    def run(dims):
        space = oscillator_space(dims[0])
        h = build_effective_hamiltonian(g_eff, omega_m, space)
        mean, second, tail = exact_quadrature_moments(h, nbar, t)
        return second - mean**2, {0: float(np.max(tail))}

    d0 = d_start if d_start is not None else mech_dim_start(nbar, g_eff, omega_m)
    var, tails, (d,) = _double_until_converged(run, (d0,), EFFECTIVE_DIM_CAP)
    meta = {"method": "eigh-moments", "d_mech": d, "g_eff": g_eff, "omega_m": omega_m,
            "nbar": nbar, "tail_max": tails}
    return TimeSeries(t, var, meta)


@dataclass
class AdiabaticReport:
    """Outcome of one elimination-chain validation run.

    deviations: max pointwise relative X-variance deviation per model pair
    (keys like "full_vs_effective"); ratios: the hierarchy ratios that the
    elimination assumes large; stark_winner: which two-level Stark variant
    tracked the three-level model better over this run; variances: each
    leg's oscillator X variance on the run's grid, linspace(0, horizon,
    n_times), keyed by leg name as `tails` is; the smax fields stay None
    only for a run without the master-equation pair.
    """

    ratios: dict
    deviations: dict
    stark_winner: str
    dims: dict
    tails: dict
    variances: dict
    atom_weights: tuple
    smax_closed: float | None = None
    smax_open: float | None = None
    smax_degradation: float | None = None
    meta: dict = field(default_factory=dict)


def _rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def _resolve_atom_init(p: ModelParams, atom_init):
    spec = atomic_coupling_spectrum(p)
    if isinstance(atom_init, str):
        if atom_init == "e1":
            ground = spec.e1.astype(complex)
        elif atom_init == "e2":
            ground = spec.e2.astype(complex)
        else:
            raise ValueError(f"atom_init string must be 'e1' or 'e2', got {atom_init!r}")
        full = np.array([ground[0], ground[1], 0.0], dtype=complex)
    else:
        v = np.asarray(atom_init, dtype=complex).reshape(-1)
        if v.shape == (2,):
            full = np.array([v[0], v[1], 0.0], dtype=complex)
        elif v.shape == (3,):
            full = v.copy()
        else:
            raise ValueError("atom_init must be 'e1', 'e2', or a 2- or 3-vector")
        nrm = np.linalg.norm(full)
        if not (np.all(np.isfinite(full)) and nrm > 0):
            raise ValueError(f"atom_init must be finite and nonzero, got {v!r}")
        full = full / nrm
    ground = full[:2]
    gnorm = np.linalg.norm(ground)
    if gnorm < 1e-12:
        raise ValueError("atom_init has no ground-doublet component; the reduced models do not apply")
    ground = ground / gnorm
    w1 = float(abs(np.vdot(spec.e1, ground)) ** 2)
    w2 = float(abs(np.vdot(spec.e2, ground)) ** 2)
    return spec, full, ground, (w1, w2)


def _product_vacuum_with_atom(space: HilbertSpace, atom_vec: np.ndarray) -> QuantumState:
    # cavity and oscillator vacuum are level 0 of the two outer factors, so
    # |0, 0, atom> holds the atom amplitudes in its first entries
    psi = np.zeros(space.total_dim, dtype=complex)
    psi[: atom_vec.size] = atom_vec
    return QuantumState.pure(space, psi)


def _leg_variance(H: Operator, psi0: QuantumState, times: np.ndarray, collapse_ops=(), rtol=None):
    """(oscillator X variance, engine record) of one chain leg, the engine picked by its collapse set.

    None keeps rho pure: exact `evolve_unitary`.  Any runs `evolve_lindblad`
    on X and X^2, with atol = `rtol` / 100, which picks its own route.
    Either way the meta is the engine's own record, passed on unchanged:
    its "method", "n_rhs_evals" and "rtol", the relative error of the
    variance series.
    """
    if not collapse_ops:
        ts = variance_trajectory(evolve_unitary(H, psi0, times), 1, "X")
        return ts.values, ts.meta
    x = position(H.space, 1)
    out = evolve_lindblad(H, collapse_ops, psi0, times, (x, x @ x), rtol=rtol, atol=rtol * 1e-2)
    m1, m2 = out.values.real.T  # <X> and <X^2> of the oscillator
    return m2 - m1**2, out.meta


def validate_adiabatic_chain(
    p: ModelParams,
    atom_init,
    horizon: float,
    n_times: int = 400,
    d_cav: int = 8,
    d_mech: int | None = None,
    include_lindblad: bool = False,
    lindblad_dims: tuple = (None, None),
    lindblad_rtol: float = 1e-12,
) -> AdiabaticReport:
    """Run the elimination chain end to end and measure how well it holds.

    Evolves (i) the three-level model, (ii) both Stark variants of the
    two-level model, in `STARK_VARIANTS` order (two variants with equal
    shifts, as at Omega = g1, share one run and its result), and (iii) the
    effective oscillator model with the atom decomposed over the coupling
    eigenstates (a non-eigenstate preparation runs as a mixture over e1/e2
    with the overlap weights; the neglected cross-coherence shows up in the
    reported deviation rather than being hidden).  All start from cavity
    and oscillator vacuum.  Returns the pairwise maximum relative
    X-variance deviations, the hierarchy ratios the chain assumes large
    (|Delta| and |delta| over the rates they must exceed), and which Stark
    variant tracked the three-level model better.

    Every leg runs on linspace(0, horizon, n_times) through `_leg_variance`,
    which picks its engine from the leg's collapse set.  With
    `include_lindblad`, two master-equation legs of the three-level model,
    without and with the kappa / Gamma_e collapse channels (gamma damps
    the oscillator in both), measure how much the achieved maximum
    squeezing degrades.  A closed leg whose relative X-variance dip does not
    exceed its own error, the "rtol" its engine reports in its meta
    (`EXACT_VARIANCE_RTOL` when it runs unitarily, `EIGEN_VARIANCE_RTOL` on
    the master equation's eigen route, `lindblad_rtol` under DOP853),
    leaves the degradation undefined and raises ValueError.  A leg without
    a channel (the closed leg whenever gamma = 0) runs unitarily, with a
    Hilbert-sector size in `meta["sector_dim"]`; `meta["lindblad_method"]`
    names each leg's route and `meta["lindblad_n_rhs_evals"]` counts its
    RHS calls (0 off DOP853).  DOP853's error, about 1e-11 relative on
    decay_immunity.cfg's open leg, is far below the degradation measured
    there.  Both legs share one space, which starts at `lindblad_dims` =
    (d_cav, d_mech); a None entry takes min(d_cav, 4), respectively d_mech,
    as reached by the unitary legs.

    Truncation is adaptive: a Fock leg whose top-level population exceeds
    1e-6 doubles the offending dimension, up to `CHAIN_DIM_CAP` for every
    leg, the master-equation pair included.  Each unitary leg passes its
    dimensions on to the next; the effective leg starts from the d_mech
    they reached and doubles in `effective_variance_series`, its branches'
    largest d_mech being `dims["d_mech_effective"]`.  The master-equation
    pair doubles on the larger tail of its two legs and reports its
    dimensions as `dims["lindblad"]`.  `meta["sector_dim"]` holds each Fock
    leg's propagated sector size, and `variances` each unitary and
    effective leg's X-variance series on the report's grid.
    """
    spec, atom3, atom2, weights = _resolve_atom_init(p, atom_init)
    alpha = spec.alpha
    denom1 = max(p.Omega, p.g1)
    ratio1 = abs(p.Delta) / denom1 if denom1 > 0 else math.inf
    denom2 = max(abs(alpha), p.g2, p.eps * p.g2 / abs(p.delta) if p.delta != 0 else 0.0)
    ratio2 = abs(p.delta) / denom2 if denom2 > 0 else math.inf
    ratios = {"Delta_over_drive": ratio1, "delta_over_residual": ratio2}

    times = np.linspace(0.0, horizon, n_times)
    gmax = max(abs(spec.g_eff_1), abs(spec.g_eff_2))
    dm = d_mech if d_mech is not None else mech_dim_start(0.0, gmax, p.omega_m)
    dc = d_cav

    def run_unitary_leg(build, levels, atom_vec):
        nonlocal dc, dm

        def run(dims):
            space = hybrid_space(*dims, levels)
            var, meta = _leg_variance(build(space), _product_vacuum_with_atom(space, atom_vec), times)
            return (var, meta["sector_dim"]), meta["tail_max"]

        (var, sector), tails, (dc, dm) = _double_until_converged(run, (dc, dm), CHAIN_DIM_CAP)
        return var, tails, sector

    # legs by report name: (X variance, tails, sector size); one run per Stark shift pair
    legs = {"full": run_unitary_leg(lambda s: build_full_hamiltonian(p, s), 3, atom3)}
    runs = {}
    for variant in STARK_VARIANTS:
        shifts = _stark_shifts(p, variant)
        if shifts not in runs:
            runs[shifts] = run_unitary_leg(lambda s: build_two_level_hamiltonian(p, s, variant), 2, atom2)
        legs["two_level_" + variant.replace("-", "_")] = runs[shifts]

    # effective leg: mixture over the coupling eigenstates.  From vacuum each
    # branch has <X> = 0 exactly, so the mixture's variance is the weighted
    # sum of the branch variances.
    var_eff, tail_eff, dm_eff = 0.0, 0.0, dm
    for w, g in zip(weights, (spec.g_eff_1, spec.g_eff_2)):
        if w < 1e-12:
            continue
        ts = effective_variance_series(g, p.omega_m, 0.0, times, d_start=dm)
        var_eff = var_eff + w * ts.values
        tail_eff = max(tail_eff, ts.meta["tail_max"][0])
        dm_eff = max(dm_eff, ts.meta["d_mech"])

    var_full = legs["full"][0]
    two_level = list(legs)[1:]
    deviations = {"full_vs_effective": _rel_dev(var_full, var_eff)}
    deviations.update({f"full_vs_{k}": _rel_dev(legs[k][0], var_full) for k in two_level})
    deviations.update({f"{k}_vs_effective": _rel_dev(legs[k][0], var_eff) for k in two_level})
    d_aw = deviations["full_vs_two_level_as_written"]
    d_tb = deviations["full_vs_two_level_textbook"]
    if abs(d_aw - d_tb) <= 1e-15:
        winner = "tie"
    else:
        winner = "as-written" if d_aw < d_tb else "textbook"

    report = AdiabaticReport(
        ratios=ratios,
        deviations=deviations,
        stark_winner=winner,
        dims={"d_cav": dc, "d_mech": dm, "d_mech_effective": dm_eff},
        tails={**{k: tails for k, (_, tails, _) in legs.items()}, "effective": {0: tail_eff}},
        variances={**{k: var for k, (var, _, _) in legs.items()}, "effective": var_eff},
        atom_weights=weights,
        meta={"sector_dim": {k: sector for k, (_, _, sector) in legs.items()}},
    )

    if include_lindblad:
        def collapse_set(lspace: HilbertSpace, open_system: bool):
            # (rate, builder) pairs: an operator is built only when its rate is positive,
            # and D[b] runs whenever gamma > 0
            b = annihilation(lspace, 1) if p.gamma > 0 else None
            ops = [(p.gamma * (p.nbar + 1.0), lambda: b), (p.gamma * p.nbar, lambda: b.dag())]
            if open_system:
                ops += [(p.kappa, lambda: annihilation(lspace, 0)),
                        (p.Gamma_e, lambda: level_projector(lspace, 2, 1, 2)),
                        (p.Gamma_e, lambda: level_projector(lspace, 2, 0, 2))]
            return [(build(), rate) for rate, build in ops if rate > 0]

        def run_lindblad_legs(dims):
            # the closed and the open leg share one space, so their smax stay comparable
            lspace = hybrid_space(*dims, 3)
            lh = build_full_hamiltonian(p, lspace)
            psi0 = _product_vacuum_with_atom(lspace, atom3)
            legs = [_leg_variance(lh, psi0, times, collapse_set(lspace, open_system), lindblad_rtol)
                    for open_system in (False, True)]
            tails = {i: max(meta["tail_max"][i] for _, meta in legs) for i in legs[0][1]["tail_max"]}
            return legs, tails

        ldc, ldm = lindblad_dims
        ldims = (min(dc, 4) if ldc is None else ldc, dm if ldm is None else ldm)
        ((v_closed, closed), (v_open, opened)), _, ldims = _double_until_converged(
            run_lindblad_legs, ldims, CHAIN_DIM_CAP)
        # a dip within the closed leg's own error is noise, and dividing by it means nothing
        dip = 1.0 - float(np.min(v_closed)) / float(v_closed[0])
        if not dip > closed["rtol"]:
            raise ValueError("the smax degradation is undefined: the closed master-equation leg "
                             f"does not squeeze beyond its error (relative X-variance dip {dip:.3g} "
                             f"<= {closed['rtol']:.3g})")
        s_closed, s_open = (-5.0 * math.log10(float(np.min(v)) / float(v[0])) for v in (v_closed, v_open))
        report.smax_closed = s_closed
        report.smax_open = s_open
        report.smax_degradation = (s_closed - s_open) / s_closed
        report.dims["lindblad"] = ldims
        report.meta["lindblad_method"] = (closed["method"], opened["method"])
        report.meta["lindblad_n_rhs_evals"] = (closed["n_rhs_evals"], opened["n_rhs_evals"])
        report.meta["sector_dim"]["lindblad_closed"] = closed["sector_dim"]
        report.meta["sector_dim"]["lindblad_open"] = opened["sector_dim"]
    return report
