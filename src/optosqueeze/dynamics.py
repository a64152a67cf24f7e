"""Numerical time evolution and the validation harness.

Four evolution routes are implemented on purpose.  The two closed-system
routes share one idiom: diagonalise the generator once, then evaluate every
time of the grid as exponentials in its eigenbasis, in one product:
`evolve_unitary` runs its phases from t0, `exact_quadrature_moments`
(`_phase_sum`) from t = 0, where its thermal state is prepared, whatever
times[0] is.  The master equation needs no eigenbasis: it propagates
exactly, by exp(G h) or `expm_multiply`.

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
  operators, through a sparse Liouvillian L on the Hilbert states the
  initial state reaches; it returns the expectations of the observables
  the caller names as a `TimeSeries`, one column each, not the states.
  Both of its routes propagate one real vector, rho's coordinates in a
  basis U of Hermitian matrix units on the sector the initial state
  reaches, under the real generator G = Re(U^dag L U).  It needs a uniform
  grid of step h, as every `np.linspace` is, and rejects any other.  Both
  routes are exact up to round-off, so neither has a tolerance to choose,
  and the sector size alone picks one: a sector of at most
  `EXPM_SECTOR_MAX` entries forms exp(G h) once (scaling and squaring,
  exact for a defective G as well) and applies it from row to row; a
  larger one takes the action exp(G t) r0 over the whole grid in one call
  of scipy's `expm_multiply`, the truncated Taylor series of Al-Mohy &
  Higham (SIAM J. Sci. Comput. 33, 488 (2011)).

Both Fock engines propagate only the reachable sector: a breadth-first
search over the generator's nonzero pattern (H for `evolve_unitary`, the
Liouvillian for `evolve_lindblad`, which is assembled on the Hilbert
states that a first search along the operators acting on rho reaches),
started from the support of the initial pure state, finds the index set
that exp(t G) can populate.  The restriction is exact, so it is always
on; a drive, mechanical damping or any other term that joins sectors
enlarges the search result by itself.  Every reader (the trace and
truncation tails of `_checked_populations`, shared by both engines, and
the expectations) works on the sector block, every component outside it
being exactly zero.  A `UnitaryTrajectory` is the `TimeSeries` of the
state's sector amplitudes, its `values` (n_t, sector size), which `variance_trajectory`
reads; `UnitaryTrajectory.vectors` scatters full-size states on access.
`evolve_lindblad` returns no states: it reads its populations and the
requested expectations off the real coordinates of the propagated rows
and returns those.

Operators arrive as CSR arrays (see `operators`) and stay sparse here; the
dense matrices are the sector block of H that `evolve_unitary` hands to
`eigh`, the k x k K = -i H - sum_k l_k^dag l_k / 2 on the k reached
Hilbert states, from which the Liouvillian is assembled in the one
Kronecker pass that builds every operator (`operators._kron_sum`), and
the small real generators G = Re(U^dag L U) that `evolve_lindblad` hands
to `expm`.  The Fock readouts take only the block of X or P they multiply
from `operators`, which writes every matrix element of the model.

Their mutual agreement (and agreement with `analytic`) is what the test
suite leans on; no route is trusted on its own.

Truncation is self-reported: every Fock run records the joint population of
the top two Fock levels of each mode (`_tail_levels`; `exact_quadrature_moments`
as its third array), and each Fock engine how far its trace, ||psi||^2 or
Tr rho, strays from 1 (at most `TRACE_TOL`).  The adaptive wrappers share
one doubling loop, which reads each run's tails off its `TimeSeries`
records and doubles the offending dimension until the tail drops below
1e-6 or a cap is hit; every adaptive record names the truncation it
reached as "dims".  So is accuracy: each Fock engine's meta names its
route, sector size and RHS count (0: no route evaluates a right-hand
side), and its own relative error ("rtol"), which is all a caller reads of
it; `exact_quadrature_moments` returns a bare tuple with no meta.
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
    _kron_sum,
    _quadrature_block,
    _sector_positions,
    annihilation,
    level_projector,
    position,
    thermal_populations,
)

__all__ = [
    "TruncationError",
    "TimeSeries",
    "CovarianceState",
    "UnitaryTrajectory",
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
TRACE_TOL = 1e-9  # largest |trace - 1| of any Fock run: ||psi||^2 - 1 or Tr rho - 1
EFFECTIVE_DIM_CAP = 8192  # largest oscillator dimension of an H_eff series
CHAIN_DIM_CAP = 4096  # largest dimension a unitary chain leg or the Lindblad pair may reach
# relative error of an exactly propagated variance series: a stationary state
# moves its X variance by at most 11 eps at 8 x 32 x 3
EXACT_VARIANCE_RTOL = 256 * np.finfo(float).eps
# the same for a master-equation series on either route, against a longdouble
# exp(L h) over 200 random chain legs of 40-160 entries on grids of 20-400
# steps: 181 eps at most stepped by exp(G h), 75 eps by one expm_multiply call
EXPM_VARIANCE_RTOL = 2**10 * np.finfo(float).eps
# largest Liouvillian sector that `evolve_lindblad` steps by one exp(G h)
# instead of expm_multiply: on open-chain legs over 160 times (medians of 11,
# one BLAS thread) exp(G h) and its readout take 9 ms at 160 entries, 48 ms
# at 360, 82 ms at 490, 169 ms at 640 and 266 ms at 810, expm_multiply 89,
# 131, 146, 160 and 149 ms
EXPM_SECTOR_MAX = 512


class TruncationError(RuntimeError):
    """A run failed its self-checks: truncation tail, trace drift, or dimension cap."""


def _double_until_converged(run, dims: tuple, cap: int) -> tuple:
    """Call `run(dims)`, doubling every dim whose tail exceeds TAIL_LIMIT, until none does.

    `run` returns a tuple of `TimeSeries` records that share `dims`; dim i's
    tail is the largest `meta["tail_max"][i]` among them, NaN if any is.
    Returns the records of the first run within the limit; raises
    TruncationError naming the dims and the cap before the first run when a
    starting dim passes `cap`, and naming the tails too when a doubled dim
    would.
    """
    if any(d > cap for d in dims):
        raise TruncationError(f"starting dims {dims} pass the cap {cap}")
    while True:
        records = run(dims)
        tails = {i: float(np.max([ts.meta["tail_max"][i] for ts in records])) for i in range(len(dims))}
        over = {i for i, tail in tails.items() if not tail <= TAIL_LIMIT}  # NaN counts as over
        if not over:
            return records
        doubled = tuple(2 * d if i in over else d for i, d in enumerate(dims))
        if any(doubled[i] > cap for i in over):
            raise TruncationError(
                f"tails {', '.join(f'{tails[i]:g}' for i in sorted(tails))} exceed "
                f"{TAIL_LIMIT:g} at dims {dims}; doubling to {doubled} passes the cap {cap}"
            )
        dims = doubled


@dataclass
class TimeSeries:
    """Values on a strictly increasing grid of at least two times, one row per time, plus the run's record.

    `values` is (n_t,) for one series or (n_t, k) for k of them, real or
    complex; `meta` holds what the run chose or measured (route, dims,
    tails), not the arguments its caller passed.
    """

    times: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = _time_grid(self.times)
        v = np.asarray(self.values)
        v = np.asarray(v, dtype=complex if np.iscomplexobj(v) else float)
        if v.ndim not in (1, 2) or v.shape[0] != t.size:
            raise ValueError("times and values must be of equal length: one row of values per time")
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
class UnitaryTrajectory(TimeSeries):
    """Pure-state trajectory on the reachable sector of its space: a `TimeSeries` of sector amplitudes.

    `sector` holds the sorted composite indices that the state can reach;
    row i of `values` is the state at times[i] on those indices, and every
    other component of `space` is exactly zero.
    """

    space: HilbertSpace = field(kw_only=True)
    sector: np.ndarray = field(kw_only=True)

    @property
    def vectors(self) -> np.ndarray:
        """The full-length state vectors, scattered from `values` on every access."""
        out = np.zeros((self.times.size, self.space.total_dim), dtype=complex)
        out[:, self.sector] = self.values
        return out


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
    truncation dimension is even.  At three levels the second-highest level
    is the first excited one, ordinary occupied population rather than a
    truncation diagnostic, so only the top one counts there.  At two levels
    the top two are the whole mode, so a two-level mode always doubles:
    (b + b^dag)^2 truncated there is diagonal and never lifts the vacuum.
    """
    return (2,) if size == 3 else (size - 2, size - 1)


def _checked_populations(probs: np.ndarray, states: np.ndarray, space: HilbertSpace, t: np.ndarray) -> dict:
    """The population record of a Fock run, {"tail_max", "trace_max_dev"}, or TruncationError.

    `probs` (n_t, n) holds the populations of the composite basis states
    `states` at the times `t`; every other basis state is empty.
    "tail_max" maps each Fock factor's index to its largest truncation tail
    over the times.  Each row sums to the run's trace, ||psi||^2 or Tr rho;
    the first time at which it is off 1 by more than `TRACE_TOL`, or is not
    a number, raises TruncationError naming that time, the tolerance and the
    tails.
    """
    levels = np.unravel_index(states, space.factor_sizes)
    tails = {i: float(probs[:, np.isin(levels[i], _tail_levels(f.size))].sum(axis=1).max())
             for i, f in enumerate(space.factors) if isinstance(f, Fock)}
    totals = probs.sum(axis=1)
    dev = np.abs(totals - 1.0)
    bad = np.flatnonzero(~(dev <= TRACE_TOL))  # NaN counts as drift
    if bad.size:
        i = bad[0]
        raise TruncationError(
            f"trace drifted to {float(totals[i])!r} at t={t[i]:g} (tolerance {TRACE_TOL:g}); "
            f"tails {tails}; enlarge the space"
        )
    return {"tail_max": tails, "trace_max_dev": float(dev.max())}


def _time_grid(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2 or not (np.isfinite(t).all() and np.all(np.diff(t) > 0)):
        raise ValueError("need a finite, strictly increasing time grid with at least two points")
    return t


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


def _hermitian_basis(sec: np.ndarray, n: int) -> tuple:
    """(U, states): the n^2 x s isometry of Hermitian matrix units on a sorted sector of an n x n row-major vec(rho).

    Column e_ii for each diagonal entry rho[i, i]; for each pair rho[i, j],
    rho[j, i] with i < j, the columns (e_ij + e_ji)/sqrt(2) and
    i (e_ij - e_ji)/sqrt(2), e_ij being row i * n + j and its mirror e_ji
    row j * n + i.  U's nonzero rows are exactly `sec`, and U^dag U = I_s.
    The diagonal columns come first, one for each of `states`, the indices
    i whose rho[i, i] lies in the sector, so the leading coordinates of
    U^dag vec(rho) are their populations.  A Hermitian rho has real
    coordinates U^dag vec(rho), so a generator that maps Hermitian matrices
    to Hermitian matrices, as every Liouvillian does, has a real block
    U^dag B U: the coherence-vector form (Alicki & Lendi, Quantum Dynamical
    Semigroups and Applications, LNP 286, 1987).  The sector must be closed
    under (i, j) -> (j, i), as every sector that `_reachable_sector` finds
    from a Hermitian rho under `_liouvillian_sector`'s L is.
    """
    i, j = np.divmod(sec, n)
    diag, up = np.flatnonzero(i == j), np.flatnonzero(i < j)
    low = j[up] * n + i[up]
    pair = diag.size + 2 * np.arange(up.size)  # each pair's symmetric column; +1 is the other
    r = math.sqrt(0.5)
    rows = np.concatenate([sec[diag], sec[up], low, sec[up], low])
    cols = np.concatenate([np.arange(diag.size), pair, pair, pair + 1, pair + 1])
    vals = np.repeat([1.0, r, r, 1j * r, -1j * r], [diag.size] + [up.size] * 4)
    return sparse.csr_array((vals, (rows, cols)), shape=(n * n, sec.size)), i[diag]


def evolve_unitary(H: Operator, psi0: QuantumState, times) -> UnitaryTrajectory:
    """Propagate a pure state under exp(-i H (t - t0)) on any strictly increasing grid.

    H's block on the sector that psi0 reaches (`meta["sector_dim"]` states)
    is diagonalised once (`eigh`, valid because H is checked Hermitian),
    and the state at every time is evaluated from t0 in one product,
    psi(t) = V exp(-i Lambda (t - t0)) V^dag psi0: row k of the amplitudes
    is (exp(-i lam (t_k - t0)) * c) V^T with c = V^dag psi0, so round-off
    does not accumulate from step to step.  The `UnitaryTrajectory`
    returned is the `TimeSeries` of these sector amplitudes, its `values`
    (n_t, `meta["sector_dim"]`), and keeps nothing else of the state.
    Their populations go through `_checked_populations`, as the master
    equation's do: ||psi||^2 off 1 by more than `TRACE_TOL` at any time
    aborts with a TruncationError naming the first such time.

    `meta` holds the record every Fock engine returns: "method" ("eigh"),
    "dims", "sector_dim", "n_rhs_evals" (0: nothing is stepped), "rtol"
    (`EXACT_VARIANCE_RTOL`, this route's relative variance error), and
    "tail_max" and "trace_max_dev" from `_checked_populations`.
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
    amps = (np.exp(-1j * np.outer(t - t[0], lam)) * c) @ v.T
    meta = {
        "method": "eigh",
        "dims": space.factor_sizes,
        "sector_dim": int(sec.size),
        "n_rhs_evals": 0,
        "rtol": EXACT_VARIANCE_RTOL,
        **_checked_populations(np.abs(amps) ** 2, sec, space, t),
    }
    return UnitaryTrajectory(t, amps, meta, space=space, sector=sec)


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
    H's bands are read off its CSR arrays, and X[other, this] is built as
    that block alone (`operators._quadrature_block`).  A block whose
    populations are all exactly zero would add exact zeros, so it is
    skipped: at vacuum, the odd block.

    Returns (mean, second, tail): <X>(t), <X^2>(t), and the joint
    population of the top two Fock levels (the top one at three levels;
    `_tail_levels`) over the grid.  The phases run from t = 0, not from
    times[0]: the state is thermal at t = 0.  X maps one parity to the
    other and a thermal state has no even-odd coherence, so `mean` is
    np.zeros(t.size) and is never computed, and `second` is the variance.
    The slot stays only because the benchmark tracer
    (`perfbench/tracer.py`) reads the tail by position, as [2].
    """
    t = _time_grid(times)
    if not H.is_hermitian(1e-12):
        raise ValueError("exact_quadrature_moments requires a Hermitian Hamiltonian")
    space = H.space
    if len(space.factors) != 1 or not isinstance(space.factors[0], Fock):
        raise ValueError(_BANDED_H)
    h = H.csr
    d = space.total_dim
    row = np.repeat(np.arange(d), np.diff(h.indptr))
    off = h.indices - row
    if np.any(np.abs(h.data[(off != 0) & (np.abs(off) != 2)]) > 1e-12) or np.any(np.abs(h.data.imag) > 1e-12):
        raise ValueError(_BANDED_H)
    hd, h2 = np.zeros(d), np.zeros(d - 2)
    hd[row[off == 0]] = h.data.real[off == 0]
    h2[row[off == 2]] = h.data.real[off == 2]
    p = thermal_populations(d, nbar)

    # a block holds at most three k x k arrays at a time, and frees them
    # before the other block's eigh starts
    second, tail = np.zeros((2, t.size))
    for s in (0, 1):  # levels s, s + 2, s + 4, ...
        if not p[s::2].any():  # every weight of this block would be an exact zero
            continue
        lam, v = eigh_tridiagonal(hd[s::2], h2[s::2])
        _, x = _quadrature_block(space, 0, "X", np.arange(s, d, 2))  # X from this parity to the other
        w = _gram(x @ v)  # X^2 in the eigenbasis
        top = v[[(lv - s) // 2 for lv in _tail_levels(d) if lv % 2 == s]]
        v *= np.sqrt(p[s::2])[:, None]  # sqrt(p) V, in place
        rho_t = _gram(v)
        del v
        cs = np.empty((2 * t.size, lam.size))  # cos(outer(t, lam)) over sin(outer(t, lam))
        np.outer(t, lam, out=cs[t.size:])
        np.cos(cs[t.size:], out=cs[:t.size])
        np.sin(cs[t.size:], out=cs[t.size:])
        w *= rho_t
        second += _phase_sum(cs, w)
        np.matmul(top.T, top, out=w)  # the tail weight reuses the X^2 weight's buffer
        w *= rho_t
        tail += _phase_sum(cs, w)
        del w, rho_t, cs
    return np.zeros(t.size), second, tail


def evolve_lindblad(H: Operator, collapse_ops, psi0: QuantumState, times, observables) -> TimeSeries:
    """Tr(A rho(t)) over the grid for each observable A, under the master equation.

    The master equation is drho/dt = -i[H, rho] + sum_k rate_k D[c_k] rho.
    `collapse_ops` is a list of (Operator, rate) pairs; each dissipator is
    D[c] rho = c rho c^dag - (c^dag c rho + rho c^dag c)/2 scaled by its
    rate (equivalently, collapse operator sqrt(rate) c).  rho is k x k on
    the k Hilbert states hs that psi0 reaches (`_liouvillian_sector`):
    every other entry stays exactly zero.  The sparse Liouvillian L on the
    k^2 entries of the row-major vec(rho) is assembled there once, in one
    Kronecker pass (`operators._kron_sum`, as every Hamiltonian is); L,
    vec(|psi0><psi0|), the observables' weights and the final rho all stay
    on those k^2 entries.  The sector that vec(|psi0><psi0|) reaches
    (`meta["sector_dim"]` = s entries) is only the column set of the
    k^2 x s basis U of Hermitian matrix units (`_hermitian_basis`): L maps
    Hermitian rho to Hermitian rho, so rho is the real coherence vector
    r = U^dag vec(rho), under the real generator G = Re(U^dag L U); the
    real part drops the round-off, and H's anti-Hermitian part within the
    1e-12 check.

    The grid must be uniform: every step equal to h = (t[-1] - t0) /
    (n_t - 1) within 4 ulps of the grid's largest |t|, as `np.linspace`
    gives.  Any other grid raises ValueError before anything is assembled.
    The sector size alone picks one of two routes, named in
    `meta["method"]`; both are exact up to round-off and return the real
    rows r(t_i), one per grid time:

    * "lindblad-expm": a sector of at most `EXPM_SECTOR_MAX` entries forms
      the exact propagator E = exp(G h) once, by scaling and squaring
      (`scipy.linalg.expm`, exact for a defective G as well), and records
      r(t_0) = r0, r(t_i+1) = E r(t_i).
    * "lindblad-expm-multiply": a larger sector takes the action
      exp(G (t - t0)) r0 of `_expm_multiply_rows`, one call over the grid.

    `meta["rtol"]` is the route's relative variance error,
    `EXPM_VARIANCE_RTOL` on both, and `meta["n_rhs_evals"]` is 0: no route
    evaluates a right-hand side.

    The states are not returned: the readout takes the real rows r(t),
    and the `TimeSeries` returned holds in column n of its complex
    (n_t, len(observables)) `values` Tr(A rho(t)) = r . (U^T w) for
    the n-th Operator A of the sequence `observables`, w being A's k^2
    trace weights, w[c * k + r] = A[r, c] between the reached states
    (`_entries`), complex (take the real part for a Hermitian A), read by
    one product per observable.  The populations,
    hence the trace and the truncation tails, are r's leading coordinates,
    the diagonal ones, on the states that `_hermitian_basis` names.  They go
    through `_checked_populations`, as `evolve_unitary`'s do, which gives
    `meta` "tail_max" and "trace_max_dev" and aborts on a trace off 1 by
    more than `TRACE_TOL`.  `meta["final_eigmin"]` is the smallest
    eigenvalue of the last rho, U r, on the reached states (k x k).
    """
    if not H.is_hermitian(1e-12):
        raise ValueError("evolve_lindblad requires a Hermitian Hamiltonian")
    space = H.space
    if space != psi0.space or any(a.space != space for a in observables):
        raise ValueError("Hamiltonian, state and observables live on different spaces")
    t = _time_grid(times)
    h = (t[-1] - t[0]) / (t.size - 1)
    if np.any(np.abs(np.diff(t) - h) > 4 * np.spacing(np.abs(t).max())):
        raise ValueError(
            "evolve_lindblad needs a uniform time grid: every step equal to (t[-1] - t[0]) / (n_t - 1) "
            "within 4 ulps of the grid's largest |t|, as np.linspace gives"
        )

    ls = []
    for op, rate in collapse_ops:
        if op.space != space:
            raise ValueError("collapse operator on a different space")
        if not 0 <= rate < math.inf:  # a NaN rate would otherwise be skipped below as if it were 0
            raise ValueError(f"collapse rates must be finite and >= 0, got {rate!r}")
        if rate > 0:
            ls.append(math.sqrt(rate) * op.csr)
    hs, sec, liouv, y0 = _liouvillian_sector(H.csr, ls, psi0.vector)
    k = hs.size
    u, states = _hermitian_basis(sec, k)
    g = sparse.csr_array((u.conj().T @ liouv @ u).real)  # CSC as formed; expm_multiply's matvec is faster on CSR
    r0 = (u.conj().T @ y0).real

    dense = sec.size <= EXPM_SECTOR_MAX
    if dense:
        step = expm(g.toarray() * h)
        rows = np.empty((t.size, sec.size))
        rows[0] = r0
        for i in range(1, t.size):
            np.dot(step, rows[i - 1], out=rows[i])
    else:
        rows = _expm_multiply_rows(g, r0, t)

    values = np.empty((t.size, len(observables)), dtype=complex)
    for col, a in enumerate(observables):  # one real product each: a column's rounding is its own
        r, c, vals = _entries(a.csr, hs)
        w = np.zeros(k * k, dtype=complex)
        w[c * k + r] = vals  # Tr(A rho) = sum_rc A[r, c] rho[c, r], and rho[c, r] is entry c * k + r
        w = u.T @ w
        values.real[:, col] = rows @ w.real
        values.imag[:, col] = rows @ w.imag

    meta = {
        "method": "lindblad-expm" if dense else "lindblad-expm-multiply",
        "dims": space.factor_sizes,
        "rtol": EXPM_VARIANCE_RTOL,
        "sector_dim": int(sec.size),
        "n_rhs_evals": 0,
        # before eigvalsh, which a NaN rho fails
        **_checked_populations(rows[:, : states.size], hs[states], space, t),
        "final_eigmin": float(np.min(np.linalg.eigvalsh((u @ rows[-1]).reshape(k, k)))),
    }
    return TimeSeries(t, values, meta)


def _expm_multiply_rows(g: sparse.csr_array, r0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(g (t_i - t_0)) r0 at every time of the uniform grid t, as one real (n_t, n) array of rows.

    One call of scipy's `expm_multiply`, the truncated Taylor action of
    Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 488 (2011)), whose degree
    and number of sub-steps hold the truncation's backward error to the
    unit round-off; its array is returned as it comes.  When t ||g||_1
    fails their condition (3.13), its 1-norm estimator (`onenormest`) draws
    from the global np.random; the call runs under a seeded state, restored
    afterwards, so the rows do not depend on the caller's random state and
    the caller's stream is left where it was.
    """
    # imported here, its only user, so that a CLI start skips scipy.sparse.linalg
    from scipy.sparse.linalg import expm_multiply

    state = np.random.get_state()
    np.random.seed(0)
    try:
        return expm_multiply(g, r0, start=0.0, stop=t[-1] - t[0], num=t.size, endpoint=True)
    finally:
        np.random.set_state(state)


def _entries(m: sparse.csr_array, hs: np.ndarray | None = None) -> tuple:
    """(rows, cols, values) of the CSR array m's stored entries, in storage order.

    Given the sorted states hs, only the entries between two of them are
    kept, renumbered by the position map pos[hs] = 0, ..., k - 1: the
    entries of m[hs][:, hs], without its two fancy slices.
    """
    rows, cols, vals = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data
    if hs is None:
        return rows, cols, vals
    pos = np.full(m.shape[0], -1)
    pos[hs] = np.arange(hs.size)
    rows, cols = pos[rows], pos[cols]
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], vals[keep]


def _liouvillian_sector(h: sparse.csr_array, ls: list, psi: np.ndarray) -> tuple:
    """(hs, sector, L, y0): the Liouvillian on the Hilbert states hs that psi reaches.

    For Hamiltonian h and collapse operators ls, rates folded in,
    drho/dt = K rho + rho K^dag + sum_k l_k rho l_k^dag with
    K = -i h - sum_k l_k^dag l_k / 2; row-major vec(A rho B) =
    (A kron B^T) vec(rho) gives L = K kron I + I kron K* + sum_k l_k kron l_k*
    (QuTiP's `liouvillian`; Johansson, Nation & Nori, CPC 184, 1234
    (2013)).  Entry ((i, j), (k, l)) is nonzero exactly when entry
    ((j, i), (l, k)) is; for an exactly Hermitian h the two are conjugate
    up to the round-off of the complex products, and to the last bit when
    h and every l_k are real.

    hs are the states psi reaches under the joint pattern of h, every l_k
    and every l_k^dag l_k (each formed once), the operators that act on
    rho.  They map the span of hs into itself, so the |i><j| with i, j in
    hs hold everything L reaches from |psi><psi|, and L there is L of the
    operators restricted to hs (`_entries`).  These are exactly the states
    whose rho[i, i] the sector reaches, unless an exact cancellation in K
    leaves one out.

    K is a dense k x k array (k = hs.size), -i h minus each
    (l_k^dag l_k) / 2 in turn; L is one `operators._kron_sum` on the two
    k x k factors of vec(rho), of the terms K kron I, I kron K*, then each
    l_k kron l_k*.  The diagonal is summed from +0.0, in term order.  With
    the library's collapse sets (a, b, b^dag, |1><e|, |0><e|) every
    off-diagonal entry gets one term, to which +0.0 is added (a -0.0 entry
    reads +0.0).  A collapse operator with both diagonal and off-diagonal
    entries, or two sharing an entry, can give an off-diagonal entry
    several terms, which the COO-to-CSR conversion adds in its own order;
    an entry with three or more terms may then differ in its last bits.

    L and vec(|psi><psi|) are returned on all k^2 row-major entries of the
    k x k rho, with the sector that vec(|psi><psi|) reaches under L as
    sorted indices into them.  hs is sorted, so L's rows and columns on the
    sector keep the full-space assembly's order.
    """
    lls = [sparse.csr_array(l.conj().T @ l) for l in ls]  # the product comes out CSC
    rows, cols, vals = (np.concatenate(x) for x in zip(*(_entries(m) for m in (h, *ls, *lls))))
    hs = _reachable_sector(sparse.csr_array(((vals != 0).astype(float), (rows, cols)), shape=h.shape), psi)
    k = hs.size
    K = np.zeros((k, k), dtype=complex)
    rows, cols, vals = _entries(h, hs)
    K[rows, cols] = -1j * vals
    for ll in lls:
        rows, cols, vals = _entries(ll, hs)
        K[rows, cols] -= 0.5 * vals
    rows, cols = np.nonzero(K)
    terms = [(1, {0: (rows, cols, K[rows, cols])}), (1, {1: (rows, cols, K[rows, cols].conj())})]
    for l in ls:
        rows, cols, vals = _entries(l, hs)
        terms.append((1, {0: (rows, cols, vals), 1: (rows, cols, vals.conj())}))
    liouv = _kron_sum(terms, (k, k))
    liouv.data += 0.0  # every entry summed from a zero
    y0 = np.outer(psi[hs], psi[hs].conj()).ravel()
    sec = _reachable_sector(liouv, y0)
    return hs, sec, liouv, y0


def variance_trajectory(traj: UnitaryTrajectory, factor: int, quadrature: str = "X") -> TimeSeries:
    """Variance of X or P of the Fock factor `factor` along a pure-state trajectory.

    The trajectory is read on its sector, its `values` v, never
    scattered.  Both moments come from one sparse product qv = q v, with q
    the quadrature's block on the sector's columns and the rows they reach
    (`_quadrature_block` of `operators`, which rejects any quadrature but
    "X" and "P"): <q> = Re sum conj(v) qv over the rows inside the sector
    and <q^2> = sum |qv|^2, exact for the Hermitian q of the truncated
    space (its q @ q).  The series' meta is the trajectory's own record.
    """
    rows, q = _quadrature_block(traj.space, factor, quadrature, traj.sector)
    qv = (q @ traj.values.T).T
    hit, at = _sector_positions(traj.sector, rows)
    m1 = np.einsum("ti,ti->t", traj.values[:, at].conj(), qv[:, hit]).real
    m2 = np.einsum("ti,ti->t", qv.conj(), qv).real
    return TimeSeries(traj.times, m2 - m1**2, traj.meta)


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
    return CovarianceTrajectory(times=t, mean=f @ init.mean, cov=cov, meta={"method": "covariance-expm"})


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
    pass `EFFECTIVE_DIM_CAP`.  The series is the record of the run that
    the doubling loop accepted: `meta` holds "method" ("eigh-moments"),
    "dims", its dimension (d,), and "tail_max", its tail {0: tail}.

    The tail bounds the population of the top two levels, not the
    variance's error, which can be far larger: X^2 weighs level n by about
    2n + 1.  At g = 2, nbar = 10 (201 times over one period) d = 1512 has
    a tail of 4.5e-10 and a variance 2.95e-6 (relative) from d = 3024's,
    while d = 756 has a tail of 2.0e-6, just over the limit, and a
    variance off by 7.5e-3.
    """
    t = _time_grid(times)

    def run(dims):
        space = oscillator_space(dims[0])
        h = build_effective_hamiltonian(g_eff, omega_m, space)
        _, second, tail = exact_quadrature_moments(h, nbar, t)  # the mean is zero: second is the variance
        meta = {"method": "eigh-moments", "dims": dims, "tail_max": {0: float(np.max(tail))}}
        return (TimeSeries(t, second, meta),)

    d0 = d_start if d_start is not None else mech_dim_start(nbar, g_eff, omega_m)
    (ts,) = _double_until_converged(run, (d0,), EFFECTIVE_DIM_CAP)
    return ts


@dataclass
class AdiabaticReport:
    """Outcome of one elimination-chain validation run.

    deviations: max pointwise relative X-variance deviation per model pair
    (keys like "full_vs_effective"); ratios: the hierarchy ratios that the
    elimination assumes large; stark_winner: which two-level Stark variant
    tracked the three-level model better over this run; dims: the "d_cav"
    and "d_mech" of the last unitary leg's record; legs: each leg's
    oscillator X variance on the run's grid, linspace(0, horizon, n_times),
    as a `TimeSeries` whose meta is the leg's own record (route, dims,
    tails), keyed "full", "two_level_as_written", "two_level_textbook",
    "effective" and, with the master-equation pair, "lindblad_closed" and
    "lindblad_open"; the smax fields stay None only for a run without that
    pair.
    """

    ratios: dict
    deviations: dict
    stark_winner: str
    dims: dict
    legs: dict
    atom_weights: tuple
    smax_closed: float | None = None
    smax_open: float | None = None
    smax_degradation: float | None = None


def _rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def _atom_vector(atom_init) -> np.ndarray:
    """The normalised 3-vector of a 2- or 3-component atom state (|e> last), or ValueError."""
    v = np.asarray(atom_init).reshape(-1)
    if v.shape not in ((2,), (3,)):
        raise ValueError(f"the atom state must be 'e1', 'e2', or a 2- or 3-vector, got {v.size} components")
    full = np.concatenate([v, np.zeros(3 - v.size)]).astype(complex)
    nrm = np.linalg.norm(full)
    if not (np.all(np.isfinite(full)) and nrm > 0):
        raise ValueError(f"the atom state must be finite and nonzero, got {v.tolist()}")
    full = full / nrm
    if np.linalg.norm(full[:2]) < 1e-12:
        raise ValueError("the atom state has no ground-doublet component; the reduced models do not apply")
    return full


def _resolve_atom_init(p: ModelParams, atom_init):
    spec = atomic_coupling_spectrum(p)
    if isinstance(atom_init, str):
        if atom_init not in ("e1", "e2"):
            raise ValueError(f"atom_init string must be 'e1' or 'e2', got {atom_init!r}")
        full = np.append(getattr(spec, atom_init), 0.0).astype(complex)
    else:
        full = _atom_vector(atom_init)
    ground = full[:2] / np.linalg.norm(full[:2])
    if isinstance(atom_init, str):
        # a coupling eigenstate's branch weights are exact; its overlap with
        # the other eigenvector would be the round-off of the 2 x 2 eigh
        weights = (1.0, 0.0) if atom_init == "e1" else (0.0, 1.0)
    else:
        weights = tuple(float(abs(np.vdot(e, ground)) ** 2) for e in (spec.e1, spec.e2))
    return spec, full, ground, weights


def _leg_variance(H: Operator, psi0: QuantumState, times: np.ndarray, collapse_ops=()) -> TimeSeries:
    """The oscillator X variance of one chain leg, the engine picked by its collapse set.

    An empty collapse set keeps rho pure: exact `evolve_unitary`, read by
    `variance_trajectory`.  Any other runs `evolve_lindblad` on X and X^2,
    which picks its own exact route.  Either way the series' meta is the
    engine's own record, passed on unchanged: its "method", "dims",
    "sector_dim", "tail_max", "trace_max_dev", "n_rhs_evals" and "rtol",
    the relative error of the variance series.
    """
    if not collapse_ops:
        return variance_trajectory(evolve_unitary(H, psi0, times), 1, "X")
    x = position(H.space, 1)
    out = evolve_lindblad(H, collapse_ops, psi0, times, (x, x @ x))
    m1, m2 = out.values.real.T  # <X> and <X^2> of the oscillator
    return TimeSeries(out.times, m2 - m1**2, out.meta)


def validate_adiabatic_chain(
    p: ModelParams,
    atom_init,
    horizon: float,
    n_times: int = 400,
    d_cav: int = 8,
    d_mech: int | None = None,
    lindblad_dims: tuple | None = None,
) -> AdiabaticReport:
    """Run the elimination chain end to end and measure how well it holds.

    Evolves (i) the three-level model, (ii) both Stark variants of the
    two-level model, in `STARK_VARIANTS` order (two variants with equal
    shifts, as at Omega = g1, share one run: both of their keys in `legs`
    hold the same series), and (iii) the effective oscillator model with
    the atom decomposed over the coupling eigenstates (a non-eigenstate
    preparation runs as a mixture over e1/e2 with the overlap weights; the
    neglected cross-coherence shows up in the reported deviation rather
    than being hidden).  All start from cavity and oscillator vacuum.
    Returns the pairwise maximum relative X-variance deviations, the
    hierarchy ratios the chain assumes large (|Delta| and |delta| over the
    rates they must exceed), which Stark variant tracked the three-level
    model better, and each leg's X-variance series with its own record.

    Every leg runs on linspace(0, horizon, n_times).  The Fock legs share
    one runner, which builds the space, H and the vacuum-times-atom start
    once per run and gives one `_leg_variance` record per collapse set (the
    unitary legs pass one empty set).  A `lindblad_dims` tuple adds two
    master-equation legs of the three-level model, "lindblad_closed" and
    "lindblad_open", without and with the kappa / Gamma_e collapse channels
    (gamma damps the oscillator in both), which measure how much the
    achieved maximum squeezing degrades; None runs no such pair.  Both legs
    share one space, which starts at `lindblad_dims` = (d_cav, d_mech); a
    None entry takes min(d_cav, 4), respectively d_mech, as the last unitary
    leg's record holds them.  A leg with an empty collapse set (the closed
    leg whenever gamma = 0) runs unitarily.  A closed leg whose relative
    X-variance dip does not exceed its own error, the "rtol" its engine
    reports in its meta (`EXACT_VARIANCE_RTOL` when it runs unitarily,
    `EXPM_VARIANCE_RTOL` on either master-equation route), leaves the
    degradation undefined and raises ValueError.  Against an adaptive
    Runge-Kutta reference at rtol 1e-12, the expm_multiply route errs by
    9.6e-15 relative in decay_immunity.cfg's smax_open_db and 1.2e-13 in its
    smax_degradation, within that reference's own error and far below the
    degradation, 0.0746.

    Truncation is adaptive: a Fock leg whose `_tail_levels` tail exceeds
    `TAIL_LIMIT` doubles the offending dimension.  The unitary legs and the
    master-equation pair double up to `CHAIN_DIM_CAP`.  The three-level leg
    starts at (d_cav, d_mech), and each later unitary leg at the
    meta["dims"][:2] of the leg run before it; `dims` holds those of the
    last one's record.  The effective leg starts from that d_mech and
    doubles in `effective_variance_series`, up to `EFFECTIVE_DIM_CAP`; its
    record holds "method", the largest "dims" (a 1-tuple) and "tail_max" of
    its branches.  The master-equation pair doubles on the larger tail of
    its two legs, and each leg's `meta["dims"]` holds the dimensions it
    ended at.
    """
    spec, atom3, atom2, weights = _resolve_atom_init(p, atom_init)
    alpha = spec.alpha
    denom1 = max(p.Omega, p.g1)
    ratio1 = abs(p.Delta) / denom1 if denom1 > 0 else math.inf
    denom2 = max(abs(alpha), p.g2, p.eps * p.g2 / abs(p.delta))
    ratio2 = abs(p.delta) / denom2 if denom2 > 0 else math.inf
    ratios = {"Delta_over_drive": ratio1, "delta_over_residual": ratio2}

    times = np.linspace(0.0, horizon, n_times)
    gmax = max(abs(spec.g_eff_1), abs(spec.g_eff_2))
    dm = d_mech if d_mech is not None else mech_dim_start(0.0, gmax, p.omega_m)

    def run_legs(dims, build, atom_vec, collapse_sets=lambda space: ((),)):
        # one space, H and |0, 0, atom> per run; one leg record per set of collapse_sets(space)
        def run(dims):
            space = hybrid_space(*dims, atom_vec.size)
            psi = np.zeros(space.total_dim, dtype=complex)
            psi[: atom_vec.size] = atom_vec  # cavity and oscillator vacuum are level 0 of the outer factors
            H, psi0 = build(space), QuantumState(space, psi)
            return tuple(_leg_variance(H, psi0, times, ops) for ops in collapse_sets(space))

        return _double_until_converged(run, dims, CHAIN_DIM_CAP)

    # legs by report name; one run per Stark shift pair, each starting from
    # the dims that the leg run before it reached
    legs = {"full": run_legs((d_cav, dm), lambda s: build_full_hamiltonian(p, s), atom3)[0]}
    runs = {}
    for variant in STARK_VARIANTS:
        shifts = _stark_shifts(p, variant)
        if shifts not in runs:
            reached = list(legs.values())[-1].meta["dims"][:2]
            runs[shifts] = run_legs(reached, lambda s: build_two_level_hamiltonian(p, s, variant), atom2)[0]
        legs["two_level_" + variant.replace("-", "_")] = runs[shifts]
    two_level = list(legs)[1:]
    dc, dm = legs[two_level[-1]].meta["dims"][:2]  # the last unitary leg's record

    # effective leg: mixture over the coupling eigenstates.  From vacuum each
    # branch has <X> = 0 exactly, so the mixture's variance is the weighted
    # sum of the branch variances.
    branches = [(w, effective_variance_series(g, p.omega_m, 0.0, times, d_start=dm))
                for w, g in zip(weights, (spec.g_eff_1, spec.g_eff_2)) if w >= 1e-12]
    legs["effective"] = TimeSeries(times, sum(w * ts.values for w, ts in branches), {
        "method": "eigh-moments",
        "dims": (max(ts.meta["dims"][0] for _, ts in branches),),
        "tail_max": {0: max(ts.meta["tail_max"][0] for _, ts in branches)},
    })

    var_full, var_eff = legs["full"].values, legs["effective"].values
    deviations = {"full_vs_effective": _rel_dev(var_full, var_eff)}
    deviations.update({f"full_vs_{k}": _rel_dev(legs[k].values, var_full) for k in two_level})
    deviations.update({f"{k}_vs_effective": _rel_dev(legs[k].values, var_eff) for k in two_level})
    d_aw = deviations["full_vs_two_level_as_written"]
    d_tb = deviations["full_vs_two_level_textbook"]
    if abs(d_aw - d_tb) <= 1e-15:
        winner = "tie"
    else:
        winner = "as-written" if d_aw < d_tb else "textbook"

    report = AdiabaticReport(ratios=ratios, deviations=deviations, stark_winner=winner,
                             dims={"d_cav": dc, "d_mech": dm}, legs=legs, atom_weights=weights)
    if lindblad_dims is None:
        return report

    def collapse_sets(space):
        # the closed and the open leg: gamma damps the oscillator in both, and
        # each operator is built only at positive rate
        closed = []
        if p.gamma > 0:
            b = annihilation(space, 1)
            closed.append((b, p.gamma * (p.nbar + 1.0)))
            if p.gamma * p.nbar > 0:
                closed.append((b.dag(), p.gamma * p.nbar))
        opened = list(closed)
        if p.kappa > 0:
            opened.append((annihilation(space, 0), p.kappa))
        if p.Gamma_e > 0:
            opened += [(level_projector(space, 2, 1, 2), p.Gamma_e), (level_projector(space, 2, 0, 2), p.Gamma_e)]
        return closed, opened

    # both legs share one space, so their smax stay comparable
    ldc, ldm = lindblad_dims
    ldims = (min(dc, 4) if ldc is None else ldc, dm if ldm is None else ldm)
    closed, opened = run_legs(ldims, lambda s: build_full_hamiltonian(p, s), atom3, collapse_sets)
    legs["lindblad_closed"], legs["lindblad_open"] = closed, opened
    # a dip within the closed leg's own error is noise, and dividing by it means nothing
    dip = 1.0 - float(np.min(closed.values)) / float(closed.values[0])
    if not dip > closed.meta["rtol"]:
        raise ValueError("the smax degradation is undefined: the closed master-equation leg "
                         f"does not squeeze beyond its error (relative X-variance dip {dip:.3g} "
                         f"<= {closed.meta['rtol']:.3g})")
    s_closed, s_open = (-5.0 * math.log10(float(np.min(v)) / float(v[0])) for v in (closed.values, opened.values))
    report.smax_closed = s_closed
    report.smax_open = s_open
    report.smax_degradation = (s_closed - s_open) / s_closed
    return report
