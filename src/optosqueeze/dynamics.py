"""Numerical time evolution and the validation harness.

Four independent evolution routes are implemented on purpose:

* `evolve_unitary`: Schroedinger-picture matrix-exponential stepping for
  pure states of a time-independent Hamiltonian (exact up to round-off).
* `exact_quadrature_moments`: Heisenberg-picture evaluation for the
  effective Hamiltonian, usable for mixed (e.g. thermal) initial states
  without storing propagated density matrices.  H_eff couples level n only
  to n +- 2, so it splits into two parity blocks, each real symmetric
  tridiagonal; each block is diagonalised once and every moment is one
  batched product over the time grid.
* `covariance_evolve`: the Gaussian first/second-moment equations of the
  damped quadratic model, solved exactly per time point with an augmented
  matrix exponential (Van Loan block trick), valid in the unstable regime
  as well.
* `evolve_lindblad`: adaptive integration of the master equation with
  explicit collapse operators, through a sparse Liouvillian.

Operators arrive as CSR arrays (see `operators`) and stay sparse here, with
two exceptions: the input of the dense `expm` in `evolve_unitary`, and the
quadrature and its square that `variance_trajectory` contracts against a
stack of dense density matrices.

Their mutual agreement (and agreement with `analytic`) is what the test
suite leans on; no route is trusted on its own.

Truncation is self-reported: every run records the joint population of the
top two Fock levels of each mode, and the adaptive wrappers double the
offending dimension until the tail drops below 1e-6 or a cap is hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal, expm

from .model import (
    ModelParams,
    _drift_diffusion,
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
    _x2_bands,
    annihilation,
    level_projector,
    momentum,
    position,
    thermal_state,
    vacuum_state,
)

__all__ = [
    "TruncationError",
    "TimeSeries",
    "CovarianceState",
    "UnitaryTrajectory",
    "LindbladTrajectory",
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
CHAIN_DIM_CAP = 4096  # largest dimension a leg of the elimination chain may double to


class TruncationError(RuntimeError):
    """A run failed its self-checks: truncation tail, norm or trace drift, or dimension cap."""


@dataclass
class TimeSeries:
    """Real values on a strictly increasing time grid, plus run metadata."""

    times: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise ValueError("times and values must be 1d arrays of equal length")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        self.times = t
        self.values = v


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
        if abs(c[0, 1] - c[1, 0]) > 1e-10 * max(1.0, abs(c[0, 1])):
            raise ValueError("covariance matrix must be symmetric")
        if float(np.linalg.det(c)) < 1.0 / 16.0 - 1e-10:
            raise ValueError(f"det(cov) = {np.linalg.det(c):g} violates the bound 1/16")
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
    """Pure-state trajectory: row i of `vectors` is the state at times[i]."""

    space: HilbertSpace
    times: np.ndarray
    vectors: np.ndarray
    meta: dict


@dataclass
class LindbladTrajectory:
    """Density-matrix trajectory: rhos[i] is the state at times[i]."""

    space: HilbertSpace
    times: np.ndarray
    rhos: np.ndarray
    meta: dict


@dataclass
class CovarianceTrajectory:
    times: np.ndarray
    states: list
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


def _fock_tails(probs: np.ndarray, sizes: tuple, factors: tuple) -> dict:
    out = {}
    resh = probs.reshape(sizes)
    for idx, f in enumerate(factors):
        if isinstance(f, Fock):
            out[idx] = float(np.take(resh, _tail_levels(f.size), axis=idx).sum())
    return out


def _check_uniform(times: np.ndarray) -> float:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need a 1d time grid with at least two points")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ValueError("times must be strictly increasing")
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise ValueError("evolve_unitary uses fixed-step propagation; the grid must be uniform")
    return float(dt[0])


def evolve_unitary(H: Operator, psi0: QuantumState, times) -> UnitaryTrajectory:
    """Propagate a pure state on a uniform grid with U = exp(-i H dt).

    The propagator is built once, so each step is a single matrix-vector
    product and the evolution is exact up to round-off.  The norm and the
    top-two-Fock-level population of every mode are recorded at every step;
    norm drift beyond 1e-6 aborts with a TruncationError naming the step.
    """
    if not H.is_hermitian(1e-12):
        raise ValueError("evolve_unitary requires a Hermitian Hamiltonian")
    if not psi0.is_pure:
        raise ValueError("evolve_unitary requires a pure initial state (see exact_quadrature_moments for mixed ones)")
    if H.space != psi0.space:
        raise ValueError("Hamiltonian and state live on different spaces")
    t = np.asarray(times, dtype=float)
    dt = _check_uniform(t)
    u = expm(-1j * H.matrix * dt)

    space = H.space
    sizes = space.factor_sizes
    n = t.size
    vecs = np.empty((n, space.total_dim), dtype=complex)
    vecs[0] = psi0.vector
    tails = {idx: 0.0 for idx, f in enumerate(space.factors) if isinstance(f, Fock)}
    norm_dev = 0.0
    v = psi0.vector.copy()
    for i in range(n):
        if i > 0:
            v = u @ v
            vecs[i] = v
        probs = np.abs(vecs[i]) ** 2
        nrm = math.sqrt(float(probs.sum()))
        norm_dev = max(norm_dev, abs(nrm - 1.0))
        if abs(nrm - 1.0) > 1e-6:
            raise TruncationError(
                f"norm drifted to {nrm!r} at step {i} (t={t[i]:g}); "
                f"tails so far {tails}; reduce dt or enlarge the space"
            )
        for idx, tail in _fock_tails(probs, sizes, space.factors).items():
            tails[idx] = max(tails[idx], tail)

    meta = {
        "method": "expm-step",
        "dt": dt,
        "dims": sizes,
        "tail_max": tails,
        "tail_flag": any(v > TAIL_LIMIT for v in tails.values()),
        "norm_max_dev": norm_dev,
    }
    return UnitaryTrajectory(space=space, times=t, vectors=vecs, meta=meta)


def _default_mech_factor(space: HilbertSpace) -> int:
    focks = [i for i, f in enumerate(space.factors) if isinstance(f, Fock)]
    if len(focks) == 1:
        return focks[0]
    # fixed (cavity, oscillator, atom) order puts the oscillator at index 1
    if 1 in focks:
        return 1
    raise ValueError("cannot infer the oscillator factor")


_BANDED_H = (
    "exact_quadrature_moments needs H on a single Fock factor, real, with entries only "
    "on the main diagonal and the +-2 diagonals (as build_effective_hamiltonian returns)"
)


def _phase_sum(lam_l: np.ndarray, lam_r: np.ndarray, w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_jk exp(i lam_l[j] t) w[j, k] exp(-i lam_r[k] t) at every t, as one product."""
    el = np.exp(1j * np.outer(t, lam_l))
    er = np.exp(1j * np.outer(t, lam_r))
    return np.einsum("tk,tk->t", el @ w, er.conj())


def _transform(vl: np.ndarray, r: np.ndarray, vr: np.ndarray) -> np.ndarray:
    """vl^T r vr for real vl, vr; real arithmetic unless r has an imaginary part."""
    out = vl.T @ r.real @ vr
    if r.imag.any():
        out = out + 1j * (vl.T @ r.imag @ vr)
    return out


def exact_quadrature_moments(H: Operator, state: QuantumState, times):
    """First and second moments of X under exp(-i H t), exactly, by parity sector.

    H must be Hermitian, act on a single Fock factor, and be real with
    entries only on the main diagonal and the +-2 diagonals, which is what
    `build_effective_hamiltonian` returns; any other H raises ValueError.
    Such an H couples level n only to n +- 2, so it splits into an even- and
    an odd-parity block, each real symmetric tridiagonal and diagonalised
    with `scipy.linalg.eigh_tridiagonal`.  In the eigenbases the evolution
    is pure phase rotation, and every moment is one batched product over
    the whole time grid:

    * X^2 (the truncated-space X @ X) and the projector on the tail levels
      are parity-even, so they need only the sector-diagonal blocks of rho;
    * X maps one parity to the other, so <X> needs only rho's even-odd
      block, which is exactly zero for thermal and vacuum states.

    Any pure or mixed state is accepted.  Returns (first, second, tail):
    <X>(t), <X^2>(t), and the joint population of the top two Fock levels
    (the top one below four levels) over the grid.  This is the route used
    for thermal initial states, where `evolve_unitary` does not apply.
    """
    if not H.is_hermitian(1e-12):
        raise ValueError("exact_quadrature_moments requires a Hermitian Hamiltonian")
    if H.space != state.space:
        raise ValueError("Hamiltonian and state live on different spaces")
    space = H.space
    if len(space.factors) != 1 or not isinstance(space.factors[0], Fock):
        raise ValueError(_BANDED_H)
    c = H.csr.tocoo()
    off_band = (c.row != c.col) & (np.abs(c.row - c.col) != 2)
    if np.any(np.abs(c.data[off_band]) > 1e-12) or np.any(np.abs(c.data.imag) > 1e-12):
        raise ValueError(_BANDED_H)

    d = space.total_dim
    t = np.asarray(times, dtype=float)
    rho = state.density()
    hd, h2 = H.csr.diagonal(0).real, H.csr.diagonal(2).real
    x2d, x2o = _x2_bands(d)
    tail_levels = _tail_levels(d)

    second = np.zeros(t.size)
    tail = np.zeros(t.size)
    sectors = []
    for s in (0, 1):  # levels s, s + 2, s + 4, ...
        lam, v = eigh_tridiagonal(hd[s::2], h2[s::2])
        sectors.append((lam, v))
        # X^2 = (b + b^dag)^2 / 4 is tridiagonal within the sector
        dg, od = x2d[s::2, None] / 4.0, x2o[s::2, None] / 4.0
        x2v = dg * v
        x2v[:-1] += od * v[1:]
        x2v[1:] += od * v[:-1]
        top = v[[(lv - s) // 2 for lv in tail_levels if lv % 2 == s]]
        rho_t = _transform(v, rho[s::2, s::2], v).T
        second += _phase_sum(lam, lam, (v.T @ x2v) * rho_t, t).real
        tail += _phase_sum(lam, lam, (top.T @ top) * rho_t, t).real

    rho_oe = rho[1::2, 0::2]
    if not np.any(rho_oe):
        return np.zeros(t.size), second, tail
    # <X> = 2 Re Tr(rho_oe X_eo(t)), X_eo the even-row, odd-column block of X
    (lam_e, v_e), (lam_o, v_o) = sectors
    x_eo = position(space, 0).csr.real[0::2, 1::2]
    rho_t = _transform(v_o, rho_oe, v_e).T
    first = 2.0 * _phase_sum(lam_e, lam_o, (v_e.T @ (x_eo @ v_o)) * rho_t, t).real
    return first, second, tail


def evolve_lindblad(
    H: Operator,
    collapse_ops,
    rho0: QuantumState,
    times,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> LindbladTrajectory:
    """Integrate drho/dt = -i[H, rho] + sum_k rate_k D[c_k] rho.

    `collapse_ops` is a list of (Operator, rate) pairs; each dissipator is
    D[c] rho = c rho c^dag - (c^dag c rho + rho c^dag c)/2 scaled by its
    rate (equivalently, collapse operator sqrt(rate) c).  The generator is
    assembled once as a sparse Liouvillian acting on the row-major
    vectorised rho, then integrated adaptively (DOP853); the trace is
    checked at every output time and drift beyond `TRACE_TOL` aborts.
    """
    if not H.is_hermitian(1e-12):
        raise ValueError("evolve_lindblad requires a Hermitian Hamiltonian")
    space = H.space
    if space != rho0.space:
        raise ValueError("Hamiltonian and state live on different spaces")
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("need a strictly increasing time grid with at least two points")

    ls = []
    for op, rate in collapse_ops:
        if op.space != space:
            raise ValueError("collapse operator on a different space")
        if rate < 0:
            raise ValueError("collapse rates must be >= 0")
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

    sol = solve_ivp(
        lambda _, y: liouv @ y,
        (t[0], t[-1]),
        rho0.density().ravel().astype(complex),
        t_eval=t,
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise TruncationError(f"master-equation integration failed: {sol.message}")
    rhos = sol.y.T.reshape(t.size, d, d)

    trace_dev = 0.0
    eigmin = 0.0
    sizes = space.factor_sizes
    tails = {idx: 0.0 for idx, f in enumerate(space.factors) if isinstance(f, Fock)}
    for i in range(t.size):
        tr = np.trace(rhos[i]).real
        trace_dev = max(trace_dev, abs(tr - 1.0))
        if abs(tr - 1.0) > TRACE_TOL:
            raise TruncationError(
                f"trace drifted to {tr!r} at t={t[i]:g} (tolerance {TRACE_TOL:g}); "
                "tighten rtol/atol or enlarge the space"
            )
        probs = np.diag(rhos[i]).real
        for idx, tail in _fock_tails(probs, sizes, space.factors).items():
            tails[idx] = max(tails[idx], tail)
    eigmin = float(np.min(np.linalg.eigvalsh(rhos[-1])))

    meta = {
        "method": "lindblad-dop853",
        "dims": sizes,
        "rtol": rtol,
        "atol": atol,
        "n_rhs_evals": int(sol.nfev),
        "trace_max_dev": trace_dev,
        "final_eigmin": eigmin,
        "tail_max": tails,
        "tail_flag": any(v > TAIL_LIMIT for v in tails.values()),
    }
    return LindbladTrajectory(space=space, times=t, rhos=rhos, meta=meta)


def variance_trajectory(traj, quadrature: str = "X") -> TimeSeries:
    """Variance of X or P along a trajectory, as a TimeSeries.

    Accepts the pure-state, density-matrix, and covariance trajectory
    containers.  For tensor-product spaces the oscillator factor is
    inferred from the fixed (cavity, oscillator, atom) ordering.

    On pure states both moments come from one sparse product qv = X v:
    <X> = Re sum conj(v) qv and <X^2> = sum |qv|^2, exact for the Hermitian
    X of the truncated space (its X @ X).
    """
    if quadrature not in ("X", "P"):
        raise ValueError("quadrature must be 'X' or 'P'")

    if isinstance(traj, CovarianceTrajectory):
        i = 0 if quadrature == "X" else 1
        vals = np.array([cs.cov[i, i] for cs in traj.states])
        return TimeSeries(traj.times, vals, dict(traj.meta, quadrature=quadrature))

    space = traj.space
    idx = _default_mech_factor(space)
    q = (position if quadrature == "X" else momentum)(space, idx).csr

    if isinstance(traj, UnitaryTrajectory):
        vs = traj.vectors
        qv = (q @ vs.T).T
        m1 = np.einsum("ti,ti->t", vs.conj(), qv).real
        m2 = np.einsum("ti,ti->t", qv.conj(), qv).real
    elif isinstance(traj, LindbladTrajectory):
        m1 = np.einsum("tij,ji->t", traj.rhos, q.toarray()).real
        m2 = np.einsum("tij,ji->t", traj.rhos, (q @ q).toarray()).real
    else:
        raise TypeError(f"unsupported trajectory type {type(traj).__name__}")
    return TimeSeries(traj.times, m2 - m1**2, dict(traj.meta, quadrature=quadrature))


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

    Each output point is computed from the initial condition with one
    augmented matrix exponential (exact; no step-size error, stable and
    unstable regimes alike).  This is the package's brute-force oracle for
    everything Gaussian.
    """
    if gamma < 0 or nbar < 0:
        raise ValueError("gamma and nbar must be >= 0")
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1 or (t.size > 1 and np.any(np.diff(t) <= 0)):
        raise ValueError("need a strictly increasing time grid")
    a, d = _drift_diffusion(g_eff, omega_m, gamma, nbar)
    m = np.zeros((4, 4))
    m[:2, :2] = a
    m[:2, 2:] = d
    m[2:, 2:] = -a.T

    states = []
    for ti in t:
        tau = ti - t[0]
        e = expm(m * tau)
        f = e[:2, :2]
        w = e[:2, 2:] @ f.T
        cov = f @ init.cov @ f.T + w
        cov = 0.5 * (cov + cov.T)  # kill round-off asymmetry
        states.append(CovarianceState(mean=f @ init.mean, cov=cov))
    meta = {
        "method": "covariance-expm",
        "g_eff": g_eff,
        "omega_m": omega_m,
        "gamma": gamma,
        "nbar": nbar,
    }
    return CovarianceTrajectory(times=t, states=states, meta=meta)


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
    d_cap: int = 8192,
) -> TimeSeries:
    """X-variance under H_eff from a vacuum or thermal state, truncation-adaptive.

    Uses `evolve_unitary` for nbar = 0 and the parity-split
    `exact_quadrature_moments` for thermal states; doubles the oscillator
    dimension until the truncation tail stays below 1e-6, and raises
    TruncationError at the cap.
    """
    d = d_start if d_start is not None else mech_dim_start(nbar, g_eff, omega_m)
    while True:
        space = oscillator_space(d)
        h = build_effective_hamiltonian(g_eff, omega_m, space)
        if nbar == 0:
            traj = evolve_unitary(h, vacuum_state(space), times)
            tail = max(traj.meta["tail_max"].values())
            if tail <= TAIL_LIMIT:
                ts = variance_trajectory(traj, "X")
                ts.meta.update(d_mech=d, g_eff=g_eff, omega_m=omega_m, nbar=nbar)
                return ts
        else:
            state = thermal_state(space, 0, nbar)
            m1, m2, tailseries = exact_quadrature_moments(h, state, times)
            tail = float(np.max(tailseries))
            if tail <= TAIL_LIMIT:
                return TimeSeries(
                    np.asarray(times, dtype=float),
                    m2 - m1**2,
                    {
                        "method": "eigh-moments",
                        "d_mech": d,
                        "dims": (d,),
                        "g_eff": g_eff,
                        "omega_m": omega_m,
                        "nbar": nbar,
                        "tail_max": {0: tail},
                        "tail_flag": False,
                    },
                )
        if 2 * d > d_cap:
            raise TruncationError(
                f"oscillator tail {tail:g} > {TAIL_LIMIT:g} at dimension {d}, cap {d_cap} reached"
            )
        d *= 2


@dataclass
class AdiabaticReport:
    """Outcome of one elimination-chain validation run.

    deviations: max pointwise relative X-variance deviation per model pair
    (keys like "full_vs_effective"); ratios: the hierarchy ratios that the
    elimination assumes large; stark_winner: which two-level Stark variant
    tracked the three-level model better over this run.
    """

    ratios: dict
    deviations: dict
    stark_winner: str
    dims: dict
    tails: dict
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
        if nrm == 0:
            raise ValueError("atom_init must be nonzero")
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
    dc, dm = space.factors[0].size, space.factors[1].size
    ec = np.zeros(dc, dtype=complex)
    ec[0] = 1.0
    em = np.zeros(dm, dtype=complex)
    em[0] = 1.0
    return QuantumState.pure(space, np.kron(np.kron(ec, em), atom_vec))


def validate_adiabatic_chain(
    p: ModelParams,
    atom_init,
    horizon: float,
    n_times: int = 400,
    d_cav: int = 8,
    d_mech: int | None = None,
    include_lindblad: bool = False,
    lindblad_dims: tuple | None = None,
    lindblad_n_times: int = 160,
    lindblad_rtol: float = 1e-12,
    lindblad_atol: float = 1e-14,
) -> AdiabaticReport:
    """Run the elimination chain end to end and measure how well it holds.

    Evolves (i) the three-level model, (ii) both Stark variants of the
    two-level model, and (iii) the effective oscillator model with the atom
    decomposed over the coupling eigenstates (a non-eigenstate preparation
    runs as a mixture over e1/e2 with the overlap weights; the neglected
    cross-coherence shows up in the reported deviation rather than being
    hidden).  All start from cavity and oscillator vacuum.  Returns the
    pairwise maximum relative X-variance deviations, the hierarchy ratios
    the chain assumes large, and which Stark variant tracked the
    three-level model better.

    With `include_lindblad`, two extra density-matrix runs of the
    three-level model (with and without the kappa / Gamma_e collapse
    channels, same integrator and grid) measure how much the achieved
    maximum squeezing degrades; their dimensions may be chosen smaller via
    `lindblad_dims`, and the tails are still checked.

    Truncation is adaptive: any leg whose top-level population exceeds
    1e-6 doubles the offending dimension, up to `CHAIN_DIM_CAP`.
    """
    spec, atom3, atom2, weights = _resolve_atom_init(p, atom_init)
    alpha = spec.alpha
    denom1 = max(p.Omega, p.g1)
    ratio1 = p.Delta / denom1 if denom1 > 0 else math.inf
    denom2 = max(abs(alpha), p.g2, p.eps * p.g2 / abs(p.delta) if p.delta != 0 else 0.0)
    ratio2 = p.delta / denom2 if denom2 > 0 else math.inf
    ratios = {"Delta_over_drive": ratio1, "delta_over_residual": ratio2}

    times = np.linspace(0.0, horizon, n_times)
    gmax = max(abs(spec.g_eff_1), abs(spec.g_eff_2))
    dm = d_mech if d_mech is not None else mech_dim_start(0.0, gmax, p.omega_m)
    dc = d_cav

    def run_unitary_leg(build, levels, atom_vec):
        nonlocal dc, dm
        while True:
            space = hybrid_space(dc, dm, levels)
            traj = evolve_unitary(build(space), _product_vacuum_with_atom(space, atom_vec), times)
            tails = traj.meta["tail_max"]
            if not traj.meta["tail_flag"]:
                return variance_trajectory(traj, "X").values, tails
            if tails.get(0, 0.0) > TAIL_LIMIT:
                dc *= 2
            if tails.get(1, 0.0) > TAIL_LIMIT:
                dm *= 2
            if dc > CHAIN_DIM_CAP or dm > CHAIN_DIM_CAP:
                raise TruncationError(f"dimension cap {CHAIN_DIM_CAP} hit at (d_cav={dc}, d_mech={dm})")

    var_full, tails_full = run_unitary_leg(lambda s: build_full_hamiltonian(p, s), 3, atom3)
    var_aw, tails_aw = run_unitary_leg(
        lambda s: build_two_level_hamiltonian(p, s, "as-written"), 2, atom2
    )
    var_tb, tails_tb = run_unitary_leg(
        lambda s: build_two_level_hamiltonian(p, s, "textbook"), 2, atom2
    )

    # effective leg: mixture over the coupling eigenstates
    m1 = np.zeros_like(times)
    m2 = np.zeros_like(times)
    tail_eff = 0.0
    osp = oscillator_space(dm)
    vac = vacuum_state(osp)
    for w, g in zip(weights, (spec.g_eff_1, spec.g_eff_2)):
        if w < 1e-12:
            continue
        h = build_effective_hamiltonian(g, p.omega_m, osp)
        f, s, tl = exact_quadrature_moments(h, vac, times)
        m1 += w * f
        m2 += w * s
        tail_eff = max(tail_eff, float(np.max(tl)))
    if tail_eff > TAIL_LIMIT:
        raise TruncationError(f"effective-model tail {tail_eff:g} exceeds {TAIL_LIMIT:g} at d_mech={dm}")
    var_eff = m2 - m1**2

    deviations = {
        "full_vs_effective": _rel_dev(var_full, var_eff),
        "full_vs_two_level_as_written": _rel_dev(var_aw, var_full),
        "full_vs_two_level_textbook": _rel_dev(var_tb, var_full),
        "two_level_as_written_vs_effective": _rel_dev(var_aw, var_eff),
        "two_level_textbook_vs_effective": _rel_dev(var_tb, var_eff),
    }
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
        dims={"d_cav": dc, "d_mech": dm},
        tails={
            "full": tails_full,
            "two_level_as_written": tails_aw,
            "two_level_textbook": tails_tb,
            "effective": {0: tail_eff},
        },
        atom_weights=weights,
        meta={"n_times": n_times, "horizon": horizon, "atom_init": atom3.tolist()},
    )

    if include_lindblad:
        ldc, ldm = lindblad_dims if lindblad_dims is not None else (min(dc, 4), dm)
        lspace = hybrid_space(ldc, ldm, 3)
        lh = build_full_hamiltonian(p, lspace)
        rho0 = _product_vacuum_with_atom(lspace, atom3)
        ltimes = np.linspace(0.0, horizon, lindblad_n_times)

        def collapse_set(open_system: bool):
            ops = []
            if p.gamma > 0:
                b = annihilation(lspace, 1)
                ops.append((b, p.gamma * (p.nbar + 1.0)))
                ops.append((b.dag(), p.gamma * p.nbar))
            if open_system:
                if p.kappa > 0:
                    ops.append((annihilation(lspace, 0), p.kappa))
                if p.Gamma_e > 0:
                    ops.append((level_projector(lspace, 2, 1, 2), p.Gamma_e))
                    ops.append((level_projector(lspace, 2, 0, 2), p.Gamma_e))
            return ops

        def achieved_smax(traj):
            var = variance_trajectory(traj, "X").values
            return -5.0 * math.log10(float(np.min(var)) / float(var[0]))

        closed = evolve_lindblad(
            lh, collapse_set(False), rho0, ltimes, rtol=lindblad_rtol, atol=lindblad_atol
        )
        opened = evolve_lindblad(
            lh, collapse_set(True), rho0, ltimes, rtol=lindblad_rtol, atol=lindblad_atol
        )
        if closed.meta["tail_flag"] or opened.meta["tail_flag"]:
            raise TruncationError(
                f"master-equation tails exceeded {TAIL_LIMIT:g} at dims ({ldc}, {ldm}); enlarge lindblad_dims"
            )
        s_closed = achieved_smax(closed)
        s_open = achieved_smax(opened)
        report.smax_closed = s_closed
        report.smax_open = s_open
        report.smax_degradation = (s_closed - s_open) / s_closed if s_closed != 0 else None
        report.dims["lindblad"] = (ldc, ldm)
        report.meta["lindblad_n_rhs_evals"] = (
            closed.meta["n_rhs_evals"],
            opened.meta["n_rhs_evals"],
        )
    return report
