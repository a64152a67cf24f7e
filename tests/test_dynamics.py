"""Tests for the evolution routes, cross-validated against each other.

The covariance route is checked against a brute-force ODE integration, the
wavefunction and eigendecomposition routes against the covariance route and
the closed forms, the master-equation route against decay/steady-state
facts it cannot inherit from any of the above, and the wavefunction route
against an extended-precision propagator.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from optosqueeze import dynamics
from optosqueeze.analytic import position_variance, s_max
from optosqueeze.cli import parse_config
from optosqueeze.dynamics import (
    AdiabaticReport,
    CovarianceState,
    TimeSeries,
    TruncationError,
    covariance_evolve,
    effective_variance_series,
    evolve_lindblad,
    evolve_unitary,
    exact_quadrature_moments,
    mech_dim_start,
    validate_adiabatic_chain,
    variance_trajectory,
)
from optosqueeze.model import (
    ModelParams,
    atomic_coupling_spectrum,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_two_level_hamiltonian,
    hybrid_space,
    oscillator_space,
)
from optosqueeze.operators import (
    Fock,
    HilbertSpace,
    Level,
    Operator,
    QuantumState,
    _quadrature_block,
    annihilation,
    level_projector,
    momentum,
    position,
)
from test_operators import basis_state, number, vacuum_state

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def brute_gaussian(g_eff, gamma, nbar, init, times, omega_m=1.0):
    """Reference integration of the moment ODEs, independent of the module."""
    a = np.array([[-gamma / 2.0, omega_m], [-(omega_m + 4.0 * g_eff), -gamma / 2.0]])
    d = gamma * (2.0 * nbar + 1.0) / 4.0 * np.eye(2)

    def rhs(_, y):
        m = y[:2]
        c = y[2:].reshape(2, 2)
        dc = a @ c + c @ a.T + d
        return np.concatenate([a @ m, dc.ravel()])

    y0 = np.concatenate([init.mean, init.cov.ravel()])
    sol = solve_ivp(rhs, (times[0], times[-1]), y0, t_eval=times, rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y[:2].T, sol.y[2:].T.reshape(-1, 2, 2)


class TestCovarianceState:
    def test_vacuum_and_thermal_constructors(self):
        v = CovarianceState.vacuum()
        assert np.allclose(v.cov, np.diag([0.25, 0.25]))
        th = CovarianceState.thermal(10.0)
        assert np.allclose(th.cov, np.diag([5.25, 5.25]))
        assert np.all(th.mean == 0)

    def test_rejects_uncertainty_violation(self):
        with pytest.raises(ValueError, match="1/16"):
            CovarianceState(mean=np.zeros(2), cov=np.diag([0.1, 0.1]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceState(mean=np.zeros(2), cov=np.array([[0.3, 0.1], [0.2, 0.3]]))

    @pytest.mark.parametrize("field", ["mean", "cov"])
    def test_rejects_non_finite(self, field):
        # a NaN covariance has a NaN determinant, and nan < 1/16 is False
        args = {"mean": np.zeros(2), "cov": np.diag([0.25, 0.25])}
        args[field] = np.full_like(args[field], math.nan)
        with pytest.raises(ValueError, match="finite"):
            CovarianceState(**args)

    def test_arrays_read_only(self):
        v = CovarianceState.vacuum()
        with pytest.raises(ValueError):
            v.cov[0, 0] = 1.0


class TestCovarianceEvolve:
    def test_matches_brute_ode(self):
        rng = np.random.default_rng(7)
        cases = [(rng.uniform(0.1, 3.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 4.0)) for _ in range(4)]
        cases.append((-0.3, 0.3, 2.0))  # hyperbolic regime
        times = np.linspace(0.0, 4.0, 25)
        for g, gamma, nbar in cases:
            init = CovarianceState(mean=np.array([0.4, -0.2]), cov=np.diag([0.3, 0.4]))
            traj = covariance_evolve(g, 1.0, gamma, nbar, init, times)
            means, covs = brute_gaussian(g, gamma, nbar, init, times)
            assert traj.mean.shape == (times.size, 2) and traj.cov.shape == (times.size, 2, 2)
            for i in range(times.size):
                assert np.allclose(traj.mean[i], means[i], atol=1e-9)
                assert np.allclose(traj.cov[i], covs[i], atol=1e-9)

    def test_free_oscillator_vacuum_is_stationary(self):
        times = np.linspace(0.0, 10.0, 41)
        traj = covariance_evolve(0.0, 1.0, 0.0, 0.0, CovarianceState.vacuum(), times)
        for cov in traj.cov:
            assert np.allclose(cov, np.diag([0.25, 0.25]), atol=1e-12)

    def test_free_oscillator_mean_rotates(self):
        init = CovarianceState(mean=np.array([1.0, 0.0]), cov=np.diag([0.25, 0.25]))
        traj = covariance_evolve(0.0, 1.0, 0.0, 0.0, init, np.array([0.0, math.pi / 2.0]))
        assert np.allclose(traj.mean[1], [0.0, -1.0], atol=1e-12)

    def test_quarter_period_squeezing(self):
        # g = omega_m = 1: variance dips to (1/4)(1 - 4/5) = 1/20 at q t = pi/2
        q = math.sqrt(5.0)
        traj = covariance_evolve(
            1.0, 1.0, 0.0, 0.0, CovarianceState.vacuum(), np.array([0.0, math.pi / (2.0 * q)])
        )
        assert traj.cov[1, 0, 0] == pytest.approx(0.05, abs=1e-12)
        # pure Gaussian state stays at the uncertainty floor
        assert np.linalg.det(traj.cov[1]) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        g, nbar = 1.7, 3.0
        times = np.linspace(0.0, 6.0, 60)
        traj = covariance_evolve(g, 1.0, 0.0, nbar, CovarianceState.thermal(nbar), times)
        ref = np.array([position_variance(g, 1.0, nbar, t) for t in times])
        assert np.allclose(traj.cov[:, 0, 0], ref, rtol=1e-12, atol=0.0)

    def test_damped_steady_state_is_thermal(self):
        nbar = 3.0
        times = np.array([0.0, 60.0])
        traj = covariance_evolve(0.0, 1.0, 0.8, nbar, CovarianceState.vacuum(), times)
        assert np.allclose(traj.cov[1], np.diag([1.75, 1.75]), atol=1e-6)
        assert np.allclose(traj.mean[1], 0.0, atol=1e-12)

    def test_nonzero_start_time(self):
        init = CovarianceState(mean=np.array([0.2, 0.1]), cov=np.diag([0.3, 0.3]))
        a = covariance_evolve(0.8, 1.0, 0.2, 1.0, init, np.array([0.0, 1.5]))
        b = covariance_evolve(0.8, 1.0, 0.2, 1.0, init, np.array([2.0, 3.5]))
        assert np.allclose(a.cov[1], b.cov[1], atol=1e-13)

    def test_hyperbolic_regime_variance_grows(self):
        # omega_m (omega_m + 4g) < 0: X-variance is 0.25 (1 + 6 sinh^2 mu t)
        times = np.linspace(0.0, 3.0, 10)
        traj = covariance_evolve(-0.3, 1.0, 0.0, 0.0, CovarianceState.vacuum(), times)
        mu = math.sqrt(0.2)
        for i, t in enumerate(times):
            ref = 0.25 * (1.0 + 6.0 * math.sinh(mu * t) ** 2)
            assert traj.cov[i, 0, 0] == pytest.approx(ref, rel=1e-10)

    def test_rejects_bad_arguments(self):
        init = CovarianceState.vacuum()
        with pytest.raises(ValueError):
            covariance_evolve(1.0, 1.0, -0.1, 0.0, init, [0.0, 1.0])
        with pytest.raises(ValueError):
            covariance_evolve(1.0, 1.0, 0.0, -1.0, init, [0.0, 1.0])
        for gamma, nbar in ((math.nan, 0.0), (math.inf, 0.0), (0.5, math.inf)):
            with pytest.raises(ValueError, match="gamma and nbar"):
                covariance_evolve(1.0, 1.0, gamma, nbar, init, [0.0, 1.0])
        with pytest.raises(ValueError, match="increasing"):
            covariance_evolve(1.0, 1.0, 0.0, 0.0, init, [0.0, 1.0, 0.5])
        with pytest.raises(ValueError, match="two points"):
            covariance_evolve(1.0, 1.0, 0.0, 0.0, init, [0.0])
        with pytest.raises(ValueError, match="bound 1/16"), np.errstate(invalid="ignore"):
            covariance_evolve(math.nan, 1.0, 0.0, 0.0, init, [0.0, 1.0])  # NaN fails the det check

    @pytest.mark.parametrize("g, gamma, nbar", [(0.5, 0.0, 0.0), (2.0, 0.0, 10.0), (-0.3, 0.3, 2.0)])
    def test_stacked_expm_equals_per_time_expm(self, g, gamma, nbar):
        # the grid's exponentials come from one stacked expm; each state must
        # be bit for bit what a per-time expm(m * tau) of the same m gives
        a = np.array([[-gamma / 2.0, 1.0], [-(1.0 + 4.0 * g), -gamma / 2.0]])
        m = np.zeros((4, 4))
        m[:2, :2] = a
        m[:2, 2:] = gamma * (2.0 * nbar + 1.0) / 4.0 * np.eye(2)
        m[2:, 2:] = -a.T
        init = CovarianceState(mean=np.array([0.4, -0.2]), cov=np.diag([0.3, 0.4]))
        times = 0.3 + np.linspace(0.0, 2.0 * math.pi / math.sqrt(abs(1.0 + 4.0 * g)), 201)
        traj = covariance_evolve(g, 1.0, gamma, nbar, init, times)
        for ti, mean, cov_t in zip(times, traj.mean, traj.cov):
            e = expm(m * (ti - times[0]))
            f = e[:2, :2]
            cov = f @ init.cov @ f.T + e[:2, 2:] @ f.T
            assert np.array_equal(cov_t, 0.5 * (cov + cov.T))
            assert np.array_equal(mean, f @ init.mean)

    @settings(max_examples=40, deadline=None)
    @given(
        g=st.floats(min_value=-0.2, max_value=5.0),
        t=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_closed_evolution_preserves_purity(self, g, t):
        # gamma = 0 keeps det(cov) at the 1/16 floor for any quadratic g
        traj = covariance_evolve(g, 1.0, 0.0, 0.0, CovarianceState.vacuum(), np.array([0.0, t]))
        assert np.linalg.det(traj.cov[-1]) == pytest.approx(1.0 / 16.0, abs=1e-11)


class TestEvolveUnitary:
    def test_number_state_statistics_static(self):
        space = oscillator_space(12)
        h = Operator(space, np.diag(np.arange(12)).astype(complex))
        psi0 = basis_state(space, [3])
        traj = evolve_unitary(h, psi0, np.linspace(0.0, 7.0, 30))
        ts = variance_trajectory(traj, 0, "X")
        assert np.allclose(ts.values, 7.0 / 4.0, atol=1e-12)
        assert traj.meta["trace_max_dev"] < 1e-12

    @pytest.mark.parametrize("grid", ["uniform", "nonuniform_offset"])
    def test_matches_covariance_route(self, grid):
        space = oscillator_space(64)
        h = build_effective_hamiltonian(1.0, 1.0, space)
        q = math.sqrt(5.0)
        s = np.linspace(0.0, 1.0, 80)
        # both routes start from vacuum at times[0], whatever its value
        times = 2.0 * math.pi / q * s if grid == "uniform" else 0.7 + 2.0 * math.pi / q * s**2
        traj = evolve_unitary(h, vacuum_state(space), times)
        ts = variance_trajectory(traj, 0, "X")
        ref = covariance_evolve(1.0, 1.0, 0.0, 0.0, CovarianceState.vacuum(), times)
        assert np.allclose(ts.values, ref.cov[:, 0, 0], rtol=0.0, atol=1e-9)
        assert max(traj.meta["tail_max"].values()) < 1e-6

    def test_minimum_at_quarter_period(self):
        space = oscillator_space(64)
        h = build_effective_hamiltonian(1.0, 1.0, space)
        q = math.sqrt(5.0)
        times = np.linspace(0.0, math.pi / q, 201)  # index 100 sits at q t = pi/2
        ts = variance_trajectory(evolve_unitary(h, vacuum_state(space), times), 0, "X")
        assert ts.values[100] == pytest.approx(0.05, abs=1e-9)

    def test_conjugate_quadrature_antisqueezes(self):
        space = oscillator_space(64)
        h = build_effective_hamiltonian(1.0, 1.0, space)
        q = math.sqrt(5.0)
        times = np.array([0.0, math.pi / (2.0 * q)])
        traj = evolve_unitary(h, vacuum_state(space), times)
        vx = variance_trajectory(traj, 0, "X").values[1]
        vp = variance_trajectory(traj, 0, "P").values[1]
        assert vp == pytest.approx(1.25, rel=1e-8)
        assert vx * vp == pytest.approx(1.0 / 16.0, abs=1e-9)

    def test_truncation_is_reported_not_hidden(self):
        space = oscillator_space(4)
        h = build_effective_hamiltonian(1.0, 1.0, space)
        traj = evolve_unitary(h, vacuum_state(space), np.linspace(0.0, 3.0, 40))
        assert traj.meta["tail_max"][0] > dynamics.TAIL_LIMIT

    def test_rejections(self):
        space = oscillator_space(6)
        h = build_effective_hamiltonian(0.5, 1.0, space)
        psi0 = vacuum_state(space)
        bad = Operator(space, np.triu(np.ones((6, 6), dtype=complex)))
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_unitary(bad, psi0, [0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="increasing"):
            evolve_unitary(h, psi0, [0.0, 0.2, 0.1])
        with pytest.raises(ValueError, match="space"):
            evolve_unitary(h, vacuum_state(oscillator_space(8)), [0.0, 0.1])

    def test_complex_hamiltonian_matches_expm(self):
        # every model Hamiltonian is real; a complex Hermitian one exercises
        # the conjugations of the eigenvector route
        space = oscillator_space(6)
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = Operator(space, m + m.conj().T)
        v0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi0 = QuantumState.pure(space, v0 / np.linalg.norm(v0))
        times = np.array([0.3, 0.35, 0.9, 2.0])
        traj = evolve_unitary(h, psi0, times)
        ref = [expm(-1j * h.matrix * (t - times[0])) @ psi0.vector for t in times]
        assert np.allclose(traj.vectors, ref, rtol=0.0, atol=1e-12)

    def test_norm_drift_names_first_time(self, monkeypatch):
        # a Hermitian H keeps the norm to round-off, so the check is exercised
        # by giving every eigenvalue a decay rate r: 1 - ||psi||^2 is about
        # 2 r (t - t0), which passes TRACE_TOL = 1e-9 first at t - t0 = 0.4
        # (0.86e-9 at 0.3)
        eigh = np.linalg.eigh

        def decaying_eigh(m):
            lam, v = eigh(m)
            return lam - 0.5e-9j / 0.35, v

        monkeypatch.setattr(np.linalg, "eigh", decaying_eigh)
        space = oscillator_space(6)
        h = build_effective_hamiltonian(0.5, 1.0, space)
        drift = r"trace drifted to 0\.99999999\d* at t=2\.4 \(tolerance 1e-09\); tails "
        with pytest.raises(TruncationError, match=drift) as err:
            evolve_unitary(h, vacuum_state(space), np.linspace(2.0, 3.0, 11))
        assert "np." not in str(err.value)  # a plain number, not a numpy scalar's repr

    def test_nan_norm_raises(self, monkeypatch):
        # |nan - 1| > tol is False, so a plain "> tol" drift test let a NaN norm through
        eigh = np.linalg.eigh

        def nan_eigh(m):
            lam, v = eigh(m)
            return np.full_like(lam, np.nan), v

        monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
        space = oscillator_space(6)
        h = build_effective_hamiltonian(0.5, 1.0, space)
        with pytest.raises(TruncationError, match=r"trace drifted to .*nan.* at t=0 "):
            evolve_unitary(h, vacuum_state(space), np.linspace(0.0, 1.0, 5))


def dense_moments_reference(h, nbar, times):
    """<X>, <X^2> and the top-two-level tail by the former dense route.

    One dense `eigh` of the whole H, a dense thermal rho from its own
    geometric weights, X^2 as the
    truncated-space product X @ X, and one phase sum per time point;
    independent of the parity split that `exact_quadrature_moments` uses.
    """
    evals, v = np.linalg.eigh(h.matrix)
    d = h.space.total_dim
    w = (nbar / (nbar + 1.0)) ** np.arange(d)
    rho = np.diag(w / w.sum())
    xt = v.conj().T @ position(h.space, 0).matrix @ v
    mask = np.zeros(d)
    mask[-1 if d == 3 else -2:] = 1.0  # the top two levels, the top one at three
    pt = v.conj().T @ (mask[:, None] * v)
    rho_t = (v.conj().T @ rho @ v).T
    out = np.empty((3, len(times)))
    for i, ti in enumerate(times):
        ph = np.exp(1j * evals * ti)
        for row, a in enumerate((xt, xt @ xt, pt)):
            out[row, i] = (ph @ ((a * rho_t) @ ph.conj())).real
    return out


def pure_projector(psi):
    """Row-major vec(|psi><psi|), the initial vector of `evolve_lindblad`."""
    return np.outer(psi.vector, psi.vector.conj()).ravel()


def trace_weights(a):
    """Weights w on the row-major vec(rho) with Tr(a rho) = w . vec(rho): w[c * n + r] = a[r, c]."""
    return a.toarray().T.ravel()


def matrix_units(space):
    """The observables |j><i| in row-major order of (i, j): Tr(|j><i| rho) = rho[i, j].

    Their expectations from `evolve_lindblad`, reshaped to (n_t, d, d), are
    the density matrices themselves.  Each is read off the Hermitian-basis
    coordinates with one rounded product by sqrt(1/2) (none on the
    diagonal), so every entry is within an ulp of the coordinates' rho.
    """
    d = space.total_dim
    return [Operator(space, sparse.csr_array(([1.0], ([j], [i])), shape=(d, d)))
            for i in range(d) for j in range(d)]


class TestExactQuadratureMoments:
    # odd d puts the two tail levels in different parities; at three
    # levels one parity has no tail level at all, and at two the tail is
    # the whole population
    @pytest.mark.parametrize("nbar", [0.0, 2.0])
    @pytest.mark.parametrize("d", [2, 3, 5, 64, 65])
    def test_matches_dense_reference_for_thermal_state(self, d, nbar):
        space = oscillator_space(d)
        h = build_effective_hamiltonian(0.8, 1.0, space)
        times = np.linspace(0.0, 2.0 * math.pi / math.sqrt(4.2), 60)
        got = np.array(exact_quadrature_moments(h, nbar, times))
        ref = dense_moments_reference(h, nbar, times)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12)
        assert np.all(got[0] == 0.0)  # no even-odd coherence, so <X> vanishes

    def test_rejects_hamiltonians_off_the_parity_bands(self):
        space = oscillator_space(8)
        b = annihilation(space, 0)
        driven = build_effective_hamiltonian(0.5, 1.0, space) + 0.3 * (b + b.dag())
        with pytest.raises(ValueError, match=r"\+-2 diagonals"):
            exact_quadrature_moments(driven, 0.0, [0.0, 1.0])
        composite = HilbertSpace((Fock(4), Fock(3)))
        h = number(composite, 0) + number(composite, 1)
        with pytest.raises(ValueError, match="single Fock factor"):
            exact_quadrature_moments(h, 0.0, [0.0, 1.0])
        # the time grid is checked first, before any eigendecomposition
        h = build_effective_hamiltonian(0.5, 1.0, space)
        for grid in ([[0.0, 1.0], [2.0, 3.0]], [0.0], [0.0, 1.0, 1.0], [0.0, math.nan], [0.0, math.inf]):
            with pytest.raises(ValueError, match="strictly increasing time grid"):
                exact_quadrature_moments(h, 0.0, grid)
            with pytest.raises(ValueError, match="strictly increasing time grid"):
                effective_variance_series(0.5, 1.0, 0.0, grid)

    def test_agrees_with_wavefunction_route_for_pure_states(self):
        space = oscillator_space(30)
        h = build_effective_hamiltonian(0.5, 1.0, space)
        times = np.linspace(0.0, 2.0 * math.pi, 50)
        m1, m2, tail = exact_quadrature_moments(h, 0.0, times)
        ts = variance_trajectory(evolve_unitary(h, vacuum_state(space), times), 0, "X")
        assert np.allclose(m2 - m1**2, ts.values, atol=1e-10)
        assert np.max(tail) < 1e-8

    def test_free_thermal_state_is_stationary(self):
        space = oscillator_space(200)
        h = build_effective_hamiltonian(0.0, 1.0, space)
        m1, m2, _ = exact_quadrature_moments(h, 10.0, np.linspace(0.0, 5.0, 11))
        assert np.allclose(m1, 0.0, atol=1e-10)
        assert np.allclose(m2, 21.0 / 4.0, rtol=1e-6)
        assert np.std(m2) < 1e-10

    def test_thermal_squeezing_matches_closed_form(self):
        # twice the starting-policy dimension buys ~1e-13 relative accuracy
        nbar, g = 1.0, 1.0
        d = 2 * mech_dim_start(nbar, g, 1.0)
        space = oscillator_space(d)
        h = build_effective_hamiltonian(g, 1.0, space)
        times = np.linspace(0.0, 2.0 * math.pi / math.sqrt(5.0), 40)
        m1, m2, tail = exact_quadrature_moments(h, nbar, times)
        ref = np.array([position_variance(g, 1.0, nbar, t) for t in times])
        assert np.max(tail) < 1e-12
        assert np.allclose(m2 - m1**2, ref, rtol=1e-10)


class TestEvolveLindblad:
    def test_amplitude_decay(self):
        space = oscillator_space(6)
        h = Operator(space, np.zeros((6, 6), dtype=complex))
        b = annihilation(space, 0)
        gamma = 0.7
        times = np.linspace(0.0, 3.0, 16)
        out = evolve_lindblad(h, [(b, gamma)], basis_state(space, [1]), times, [number(space, 0)])
        assert out.values.shape == (times.size, 1)
        assert np.allclose(out.values[:, 0].real, np.exp(-gamma * times), atol=1e-8)

    def test_detailed_balance_reaches_truncated_thermal(self):
        d, nbar, gamma = 30, 0.5, 1.0
        space = oscillator_space(d)
        h = build_effective_hamiltonian(0.0, 1.0, space)
        b = annihilation(space, 0)
        ops = [(b, gamma * (nbar + 1.0)), (b.dag(), gamma * nbar)]
        out = evolve_lindblad(h, ops, vacuum_state(space), np.array([0.0, 30.0]), [number(space, 0)])
        w = (nbar / (nbar + 1.0)) ** np.arange(d)
        ref_mean = float((np.arange(d) * w).sum() / w.sum())
        assert out.values[-1, 0].real == pytest.approx(ref_mean, rel=1e-6)

    def test_matches_covariance_route_with_damping(self):
        # the only route pair that shares neither equations nor integrator
        d, g, gamma, nbar = 32, 0.3, 0.4, 0.3
        space = oscillator_space(d)
        h = build_effective_hamiltonian(g, 1.0, space)
        b = annihilation(space, 0)
        ops = [(b, gamma * (nbar + 1.0)), (b.dag(), gamma * nbar)]
        times = np.linspace(0.0, 6.0, 25)
        x = position(space, 0)
        out = evolve_lindblad(h, ops, vacuum_state(space), times, [x, x @ x])
        assert max(out.meta["tail_max"].values()) <= dynamics.TAIL_LIMIT
        m1, m2 = out.values.real.T
        ref = covariance_evolve(g, 1.0, gamma, nbar, CovarianceState.vacuum(), times).cov[:, 0, 0]
        assert np.allclose(m2 - m1**2, ref, rtol=1e-6)

    def test_no_collapse_matches_unitary(self):
        space = oscillator_space(24)
        h = build_effective_hamiltonian(1.0, 1.0, space)
        times = np.linspace(0.0, 2.0, 15)
        x = position(space, 0)
        m1, m2 = evolve_lindblad(h, [], vacuum_state(space), times, [x, x @ x]).values.real.T
        ref = variance_trajectory(evolve_unitary(h, vacuum_state(space), times), 0, "X")
        assert np.allclose(m2 - m1**2, ref.values, atol=1e-7)

    def test_starts_from_pure_state_projector(self):
        # a complex superposition pins the conjugate in |psi0><psi0|.  Row t0
        # is read back through the Hermitian basis, so it is exact to 0.25
        # eps here; a dropped conjugate would be off by 0.61
        space = oscillator_space(4)
        v0 = np.array([0.6, 0.48j, 0.0, -0.64])
        psi0 = QuantumState.pure(space, v0)
        h = build_effective_hamiltonian(0.3, 1.0, space)
        out = evolve_lindblad(h, [(annihilation(space, 0), 0.2)], psi0, np.linspace(0.5, 1.0, 3),
                              matrix_units(space))
        err = np.abs(out.values[0].reshape(4, 4) - np.outer(v0, v0.conj()))
        assert np.max(err) <= 4 * np.finfo(float).eps

    def test_trace_and_positivity_meta(self):
        space = oscillator_space(10)
        h = build_effective_hamiltonian(0.2, 1.0, space)
        out = evolve_lindblad(
            h, [(annihilation(space, 0), 0.5)], basis_state(space, [2]), np.linspace(0.0, 4.0, 9), []
        )
        assert out.values.shape == (9, 0)
        assert out.meta["trace_max_dev"] < 1e-9
        assert out.meta["final_eigmin"] > -1e-8

    def test_trace_drift_names_first_time(self, monkeypatch):
        # the Lindblad form preserves the trace up to round-off; at tolerance
        # 0 the first time whose trace is off by any round-off must be named
        space = oscillator_space(10)
        h = build_effective_hamiltonian(0.2, 1.0, space)
        times = np.linspace(0.0, 4.0, 9)
        args = (h, [(annihilation(space, 0), 0.5)], basis_state(space, [2]), times)
        # the populations |i><i|, summed as the engine sums them: a contiguous
        # (n_t, d) float array reduced along its rows
        out = evolve_lindblad(*args, [Operator(space, np.diag(np.eye(10)[i])) for i in range(10)])
        off = np.flatnonzero(np.ascontiguousarray(out.values.real).sum(axis=1) != 1.0)
        assert off.size > 1
        monkeypatch.setattr(dynamics, "TRACE_TOL", 0.0)
        with pytest.raises(TruncationError, match=rf"trace drifted to [\d.]+ at t={times[off[0]]:g} ") as err:
            evolve_lindblad(*args, [])
        assert "np." not in str(err.value)  # a plain number, not a numpy scalar's repr

    def test_rejections(self, monkeypatch):
        space = oscillator_space(6)
        h = build_effective_hamiltonian(0.5, 1.0, space)
        rho0 = vacuum_state(space)
        x = [position(space, 0)]
        for rate in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rate"):
                evolve_lindblad(h, [(annihilation(space, 0), rate)], rho0, [0.0, 1.0], x)
        with pytest.raises(ValueError, match="space"):
            evolve_lindblad(h, [(annihilation(oscillator_space(8), 0), 1.0)], rho0, [0.0, 1.0], x)
        with pytest.raises(ValueError, match="space"):
            evolve_lindblad(h, [], rho0, [0.0, 1.0], [position(oscillator_space(8), 0)])

        # a non-uniform grid is refused before the Liouvillian is assembled
        def unreached(*args):
            raise AssertionError("the Liouvillian was assembled")

        monkeypatch.setattr(dynamics, "_liouvillian_sector", unreached)
        with pytest.raises(ValueError, match=r"uniform time grid: every step equal to \(t\[-1\] - t\[0\]\)"):
            evolve_lindblad(h, [(annihilation(space, 0), 1.0)], rho0, [0.0, 0.3, 1.0], x)

    def test_exceptional_point_runs_on_the_propagator(self):
        # a driven, decaying qubit at Omega = Gamma/4: with p = rho_11 and
        # y = Im rho_01, s = (p, y) obeys ds/dt = M s + f with M = [[-G, W],
        # [-W, -G/2]] and f = (0, W/2), whose eigenvalues -3G/4 +- sqrt(G^2/16
        # - W^2) merge there; the Liouvillian is defective, which an
        # eigenvector expansion cannot represent but exp(G h) can
        gamma = 1.0
        omega = gamma / 4
        space = oscillator_space(2)
        b = annihilation(space, 0)
        h = Operator(space, omega / 2 * (b.matrix + b.matrix.T))
        times = np.linspace(0.0, 8.0, 41)
        out = evolve_lindblad(h, [(b, gamma)], vacuum_state(space), times, [number(space, 0)])
        assert out.meta["method"] == "lindblad-expm"
        assert out.meta["n_rhs_evals"] == 0
        # exp(M t) = exp(lam t) (1 + N t) with N = M - lam, nilpotent at the exceptional point
        m = np.array([[-gamma, omega], [-omega, -gamma / 2]])
        lam = -0.75 * gamma
        s_inf = -np.linalg.solve(m, [0.0, omega / 2])
        nil = m - lam * np.eye(2)
        assert np.max(np.abs(nil @ nil)) < 1e-15
        p = [(s_inf - np.exp(lam * t) * (np.eye(2) + nil * t) @ s_inf)[0] for t in times]
        assert np.max(np.abs(out.values[:, 0].real - p)) <= 1e-9

    def test_expm_multiply_route_holds_only_the_real_rows(self):
        # 1,600 entries of a decaying oscillator's coherences, above
        # EXPM_SECTOR_MAX, on 200 times: the route's one array is the real
        # (n_t, sector) rows that expm_multiply returns (2.56 MB), read in
        # place; with the assembly and scipy's work arrays the peak measured
        # 3.88 MB.  A complex (n_t, sector) array alone would take 5.12 MB
        d = 40
        space = oscillator_space(d)
        args = (build_effective_hamiltonian(0.0, 1.0, space), [(annihilation(space, 0), 0.05)],
                QuantumState.pure(space, np.ones(d) / np.sqrt(d)))
        times = np.linspace(0.0, 1.0, 200)
        evolve_lindblad(*args, times[:2], [])  # the lazy import of scipy.sparse.linalg stays out of the peak
        tracemalloc.start()
        try:
            out = evolve_lindblad(*args, times, [])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.meta["method"] == "lindblad-expm-multiply"
        rows_bytes = times.size * out.meta["sector_dim"] * 8
        assert peak < 1.65 * rows_bytes < 2 * rows_bytes

    def test_expm_route_matches_expm_multiply_on_the_open_chain_leg(self, monkeypatch):
        # the benchmark's open leg (160 entries) on both routes; the variances
        # differ by 7.4e-15 relative
        h, ops, psi0, times = open_chain_leg()
        x = position(h.space, 1)
        runs = []
        for largest in (dynamics.EXPM_SECTOR_MAX, 0):
            monkeypatch.setattr(dynamics, "EXPM_SECTOR_MAX", largest)
            runs.append(evolve_lindblad(h, ops, psi0, times, [x, x @ x]))
        dense, action = runs
        assert (dense.meta["method"], action.meta["method"]) == ("lindblad-expm", "lindblad-expm-multiply")
        assert dense.meta["n_rhs_evals"] == action.meta["n_rhs_evals"] == 0
        assert dense.meta["sector_dim"] == action.meta["sector_dim"] == 160
        var_dense, var_action = ((o.values[:, 1] - o.values[:, 0] ** 2).real for o in runs)
        assert np.max(np.abs(var_action - var_dense) / var_dense) <= 1e-12

    def test_both_routes_propagate_one_real_generator(self, monkeypatch):
        # the open chain leg, 160 entries: the exp(G h) route exponentiates
        # G h for G = Re(U^dag L U) in the Hermitian basis U, and forced onto
        # expm_multiply the same leg acts with that very G on r0 = Re(U^dag y0),
        # all float64
        h, ops, psi0, times = open_chain_leg()
        hs, sec, liouv, y0 = dynamics._liouvillian_sector(
            h.csr, [math.sqrt(rate) * op.csr for op, rate in ops], psi0.vector)
        u, _ = dynamics._hermitian_basis(sec, hs.size)
        g, r0 = (u.conj().T @ liouv @ u).toarray(), u.conj().T @ y0
        assert not np.any(g.imag) and not np.any(r0.imag)  # H, the collapse operators and psi0 are real
        seen = []
        expm, rows = dynamics.expm, dynamics._expm_multiply_rows

        def exponentiate(a):
            seen.append(a)
            return expm(a)

        def act(b, y, *rest):
            seen.append((b, y))
            return rows(b, y, *rest)

        monkeypatch.setattr(dynamics, "expm", exponentiate)
        monkeypatch.setattr(dynamics, "_expm_multiply_rows", act)
        evolve_lindblad(h, ops, psi0, times, [])
        monkeypatch.setattr(dynamics, "EXPM_SECTOR_MAX", 0)
        evolve_lindblad(h, ops, psi0, times[:20], [])
        exponentiated, (acted, start) = seen
        assert exponentiated.dtype == acted.dtype == start.dtype == np.float64
        step_h = (times[-1] - times[0]) / (times.size - 1)
        assert np.array_equal(exponentiated, g.real * step_h) and np.array_equal(acted.toarray(), g.real)
        assert np.array_equal(start, r0.real)

    def test_open_chain_leg_needs_no_eigendecomposition(self, monkeypatch):
        # exp(G h) is exact for a defective G as well, so nothing is diagonalised or solved
        calls = []
        for name in ("eig", "solve"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        h, ops, psi0, times = open_chain_leg()
        x = position(h.space, 1)
        out = evolve_lindblad(h, ops, psi0, times, [x, x @ x])
        assert out.meta["method"] == "lindblad-expm"
        assert calls == []
        np.linalg.eig(np.eye(2))  # the counter sees a call
        assert calls == ["eig"]

    def test_open_chain_leg_calls_no_sparse_kron(self, monkeypatch):
        # the Liouvillian is one `_kron_sum` pass, not chained scipy.sparse.kron sums
        calls = []
        kron = sparse.kron

        def counted(*args, **kwargs):
            calls.append("kron")
            return kron(*args, **kwargs)

        monkeypatch.setattr(sparse, "kron", counted)
        h, ops, psi0, times = open_chain_leg()
        x = position(h.space, 1)
        out = evolve_lindblad(h, ops, psi0, times, [x, x @ x])
        assert out.meta["method"] == "lindblad-expm" and out.meta["sector_dim"] == 160
        assert calls == []
        liouvillian_kron_reference(h.csr, [])  # the counter sees a call
        assert calls == ["kron", "kron"]

    def test_expm_multiply_route_starts_at_the_first_grid_time(self, monkeypatch):
        # rho(times[0]) is psi0's projector whatever times[0] is: the action
        # runs over t - t0, so a grid shifted to start at t0 = 5 reads the
        # same values as one starting at 0 (4.2e-16 apart: the grids' steps
        # round differently)
        monkeypatch.setattr(dynamics, "EXPM_SECTOR_MAX", 0)
        h, ops, psi0, _ = open_chain_leg(2, 6)
        x = position(h.space, 1)
        at_zero, shifted = (evolve_lindblad(h, ops, psi0, np.linspace(t0, t0 + 3.2, 41), [x, x @ x])
                            for t0 in (0.0, 5.0))
        assert shifted.meta["method"] == "lindblad-expm-multiply"
        assert np.max(np.abs(shifted.values - at_zero.values)) <= 1e-12

    def test_values_do_not_depend_on_the_global_random_state(self, monkeypatch):
        # scipy's expm_multiply draws its 1-norm estimates from np.random (on
        # this leg, t ||G||_1 fails Al-Mohy & Higham's condition (3.13)); the
        # route runs them under a seeded state and restores the caller's, so
        # its draws and bytes are fixed and the caller's next draw is the one
        # it would have been.  The dense exp(G h) route has no such draw
        draws = []
        randint = np.random.randint

        def recorded(*args, **kwargs):
            out = randint(*args, **kwargs)
            draws[-1].append(np.copy(out))
            return out

        monkeypatch.setattr(np.random, "randint", recorded)
        h, ops, psi0, times = open_chain_leg()
        x = position(h.space, 1)
        state = np.random.get_state()
        try:
            for largest, route in ((dynamics.EXPM_SECTOR_MAX, "lindblad-expm"), (0, "lindblad-expm-multiply")):
                monkeypatch.setattr(dynamics, "EXPM_SECTOR_MAX", largest)
                runs, after = [], []
                for seed in (1, 2):
                    draws.append([])
                    np.random.seed(seed)
                    runs.append(evolve_lindblad(h, ops, psi0, times, [x, x @ x]))
                    after.append(np.random.random())
                    np.random.seed(seed)
                    assert after[-1] == np.random.random()  # the caller's stream did not move
                assert runs[0].meta["method"] == route
                assert bool(draws[-1]) == (route == "lindblad-expm-multiply")
                a, b = draws[-2:]
                assert len(a) == len(b) and all(np.array_equal(u, v) for u, v in zip(a, b))
                assert runs[0].values.tobytes() == runs[1].values.tobytes()
                assert after[0] != after[1]
        finally:
            np.random.set_state(state)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is only double precision here")
    def test_expm_route_matches_longdouble_propagation(self, monkeypatch):
        # a 2 x 6 x 3 open chain leg (90 entries) on both routes: the same
        # Liouvillian block, stepped by a longdouble exp(L dt).  This leg's
        # error is 8.2 eps on the exp(G h) route and 10.0 eps forced onto
        # expm_multiply; the largest over 200 random chain legs was 181 eps
        # on the former and 75 eps on the latter (EXPM_VARIANCE_RTOL)
        h, ops, psi0, times = open_chain_leg(2, 6)
        space = h.space
        x = position(space, 1)
        runs = []
        for largest in (dynamics.EXPM_SECTOR_MAX, 0):
            monkeypatch.setattr(dynamics, "EXPM_SECTOR_MAX", largest)
            runs.append(evolve_lindblad(h, ops, psi0, times, [x, x @ x]))
        assert [(o.meta["method"], o.meta["sector_dim"]) for o in runs] == [
            ("lindblad-expm", 90), ("lindblad-expm-multiply", 90)]

        liouv = liouvillian_kron_reference(h.csr, [math.sqrt(rate) * op.csr for op, rate in ops])
        y0 = pure_projector(psi0)
        sec = dynamics._reachable_sector(liouv, y0)
        d = space.total_dim
        i, j = np.divmod(sec, d)
        assert sec.size < d**2 and np.array_equal(np.sort(j * d + i), sec)  # closed under transposition
        block = liouv[sec][:, sec]
        u = dynamics._hermitian_basis(sec, d)[0][sec]  # its rows on the sector
        assert np.all((u.conj().T @ block @ u).toarray().imag == 0.0)  # real H and collapse operators
        step = expm_clongdouble(block.toarray() * np.longdouble(times[1] - times[0]))
        w1, w2 = (trace_weights(a.csr)[sec].astype(np.clongdouble) for a in (x, x @ x))
        y = y0[sec].astype(np.clongdouble)
        ref = np.empty(times.size, dtype=np.longdouble)
        for k in range(times.size):
            if k:
                y = step @ y
            m1 = (y @ w1).real
            ref[k] = (y @ w2).real - m1 * m1
        for out in runs:
            var = (out.values[:, 1] - out.values[:, 0] ** 2).real
            assert float(np.max(np.abs(var - ref) / ref)) <= out.meta["rtol"] == dynamics.EXPM_VARIANCE_RTOL


def open_chain_leg(d_cav=3, d_mech=8):
    """The open master-equation leg of the benchmark's open chain: (H, collapse set, psi0, grid).

    3 x 8 x 3 = 72 states by default, kappa and Gamma_e decay, 160 times over [0, 3.2].
    """
    p = ModelParams(delta=20.0, Delta=100.0, Omega=1.0, g1=1.0, g2=0.02, kappa=0.5, Gamma_e=0.1)
    space = hybrid_space(d_cav, d_mech, 3)
    e1 = atomic_coupling_spectrum(p).e1
    psi0 = QuantumState.pure(space, np.kron(np.eye(d_cav * d_mech)[0], [e1[0], e1[1], 0.0]))
    ops = [(annihilation(space, 0), p.kappa), (level_projector(space, 2, 1, 2), p.Gamma_e),
           (level_projector(space, 2, 0, 2), p.Gamma_e)]
    return build_full_hamiltonian(p, space), ops, psi0, np.linspace(0.0, 3.2, 160)


def decay_immunity_leg(thermal=False):
    """`decay_immunity.cfg`'s open leg: (H, collapse set, psi0) on 7 x 16 x 3 states.

    thermal=True adds mechanical damping at gamma = 0.05, nbar = 0.5 on
    3 x 8 x 3 states, so that b and b^dag join the collapse set.  Channels
    at rate 0 are listed too; the engine skips them.
    """
    p = parse_config((SCRIPTS / "decay_immunity.cfg").read_text()).params
    dims = (7, 16)
    if thermal:
        p, dims = ModelParams(**{**vars(p), "gamma": 0.05, "nbar": 0.5}), (3, 8)
    space = hybrid_space(*dims, 3)
    b = annihilation(space, 1)
    ops = [(b, p.gamma * (p.nbar + 1.0)), (b.dag(), p.gamma * p.nbar),
           (annihilation(space, 0), p.kappa), (level_projector(space, 2, 1, 2), p.Gamma_e),
           (level_projector(space, 2, 0, 2), p.Gamma_e)]
    e1 = atomic_coupling_spectrum(p).e1
    psi0 = QuantumState.pure(space, np.kron(np.eye(dims[0] * dims[1])[0], [e1[0], e1[1], 0.0]))
    return build_full_hamiltonian(p, space), ops, psi0


class TestEngineRecord:
    """Every Fock engine checks its input alike and reports its route, size, work and accuracy in one record."""

    RECORD = {"method", "dims", "sector_dim", "rtol", "tail_max", "trace_max_dev"}

    @pytest.mark.parametrize("engine", ["evolve_unitary", "exact_quadrature_moments", "evolve_lindblad"])
    def test_engine_refuses_a_non_hermitian_hamiltonian(self, engine):
        # real and on the +2 band alone, so exact_quadrature_moments' band check would pass it
        space = oscillator_space(6)
        bad = Operator(space, np.diag(np.ones(4), 2))
        times = np.linspace(0.0, 1.0, 5)
        run = {
            "evolve_unitary": lambda: evolve_unitary(bad, vacuum_state(space), times),
            "exact_quadrature_moments": lambda: exact_quadrature_moments(bad, 0.0, times),
            "evolve_lindblad": lambda: evolve_lindblad(bad, [], vacuum_state(space), times, []),
        }[engine]
        with pytest.raises(ValueError, match=f"^{engine} requires a Hermitian Hamiltonian$"):
            run()

    @pytest.mark.parametrize("route", ["eigh", "lindblad-expm", "lindblad-expm-multiply"])
    def test_engine_reports_its_own_accuracy(self, monkeypatch, route):
        space = oscillator_space(6)
        h = build_effective_hamiltonian(0.2, 1.0, space)
        times = np.linspace(0.0, 1.0, 20)
        if route == "eigh":
            meta = evolve_unitary(h, vacuum_state(space), times).meta
        else:
            if route == "lindblad-expm-multiply":  # as the two routes' agreement test forces it
                monkeypatch.setattr(dynamics, "EXPM_SECTOR_MAX", 0)
            meta = evolve_lindblad(h, [(annihilation(space, 0), 0.1)], vacuum_state(space), times, []).meta
        assert meta.keys() == (self.RECORD if route == "eigh" else self.RECORD | {"final_eigmin", "n_rhs_evals"})
        assert meta["method"] == route
        assert meta["dims"] == (6,)
        assert 0 < meta["sector_dim"] <= 6 ** 2
        assert set(meta["tail_max"]) == {0}
        assert meta.get("n_rhs_evals", 0) == 0  # no route evaluates a right-hand side
        want = dynamics.EXACT_VARIANCE_RTOL if route == "eigh" else dynamics.EXPM_VARIANCE_RTOL
        assert meta["rtol"] == want


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


@st.composite
def open_systems(draw, max_collapse=3):
    """A random Hermitian H on 2-6 Fock levels, a random pure state and 0-`max_collapse` channels.

    Each collapse operator is a random complex matrix of unit Frobenius
    norm, at a rate drawn from [0, 2].
    """
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    space = oscillator_space(d)
    h = Operator(space, random_hermitian(rng, d) / 2)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi0 = QuantumState.pure(space, v / np.linalg.norm(v))
    ops = []
    for _ in range(draw(st.integers(0, max_collapse))):
        c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ops.append((Operator(space, c / np.linalg.norm(c)), draw(st.floats(0.0, 2.0))))
    return h, psi0, ops


class TestLindbladProperties:
    """Trace, positivity and the closed limit of `evolve_lindblad` on random small systems.

    Over 1,800 draws of `open_systems`, each on the exact exp(G h) route
    (their sectors hold at most 36 entries), |Tr rho - 1| reached 1.9e-15,
    the final eigenvalue -1.4e-15, and the moments' distance from the
    unitary route 7.3e-15, all far inside the bounds.
    """

    TIMES = np.linspace(0.0, 2.0, 9)

    @settings(max_examples=40, deadline=None)
    @given(open_systems())
    def test_trace_and_positivity(self, system):
        h, psi0, ops = system
        meta = evolve_lindblad(h, ops, psi0, self.TIMES, []).meta
        assert meta["trace_max_dev"] <= dynamics.TRACE_TOL
        assert meta["final_eigmin"] >= -1e-8

    @settings(max_examples=40, deadline=None)
    @given(open_systems(max_collapse=0))
    def test_without_collapse_matches_unitary(self, system):
        h, psi0, _ = system
        x = position(h.space, 0)
        m1, m2 = evolve_lindblad(h, [], psi0, self.TIMES, [x, x @ x]).values.real.T
        traj = evolve_unitary(h, psi0, self.TIMES)
        u1 = np.einsum("ti,ij,tj->t", traj.vectors.conj(), x.matrix, traj.vectors).real
        var = variance_trajectory(traj, 0, "X").values
        assert np.max(np.abs(m1 - u1)) <= 1e-8
        assert np.max(np.abs(m2 - (var + u1**2))) <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(open_systems())
    def test_hermitian_basis_makes_the_block_real(self, system):
        # the exp(G h) route exponentiates U^dag B U as a real matrix, B being
        # the engine's own sector block.  With complex collapse operators B's
        # conjugate pairs differ by the round-off of complex products: over
        # 2,000 draws the imaginary part reached 1.03 eps max|B|, and U^dag U
        # missed I by 1 eps
        h, psi0, ops = system
        hs, sec, b, _ = dynamics._liouvillian_sector(
            h.csr, [math.sqrt(rate) * op.csr for op, rate in ops if rate > 0], psi0.vector)
        d = hs.size
        i, j = np.divmod(sec, d)
        assert np.array_equal(np.sort(j * d + i), sec)  # closed under (i, j) -> (j, i)
        u, states = dynamics._hermitian_basis(sec, d)
        # its leading columns are the units e_ii, one for each population in the sector
        assert np.array_equal(states, i[i == j])
        assert np.array_equal(u[sec][:, : states.size].toarray(), np.eye(sec.size)[:, np.flatnonzero(i == j)])
        assert np.max(np.abs((u.conj().T @ u).toarray() - np.eye(sec.size))) <= 4 * np.finfo(float).eps
        block = (u.conj().T @ b @ u).toarray()
        assert np.max(np.abs(block.imag)) <= 4 * np.finfo(float).eps * np.max(np.abs(b.data))


def sector_hermitian_basis(sec, n):
    """The s x s Hermitian basis on the sector's own positions: `_hermitian_basis`'s rows on `sec`.

    The form the engine used before its basis mapped all of vec(rho), kept
    as the bit-level reference: each mirror entry j * n + i is located by a
    search of the sorted sector.
    """
    i, j = np.divmod(sec, n)
    diag, up = np.flatnonzero(i == j), np.flatnonzero(i < j)
    low = np.searchsorted(sec, j[up] * n + i[up])
    pair = diag.size + 2 * np.arange(up.size)
    r = math.sqrt(0.5)
    rows = np.concatenate([diag, up, low, up, low])
    cols = np.concatenate([np.arange(diag.size), pair, pair, pair + 1, pair + 1])
    vals = np.repeat([1.0, r, r, 1j * r, -1j * r], [diag.size] + [up.size] * 4)
    return sparse.csr_array((vals, (rows, cols)), shape=(sec.size, sec.size))


class TestCoherenceCoordinates:
    """G, r0 and the readout weights from the k^2 x s basis U equal the sector-sliced form bit for bit.

    The reference is the sector-resident form: the Liouvillian's block
    L[sec][:, sec], y0[sec], the s x s basis of `sector_hermitian_basis`
    and trace weights on the sector.  U has no rows outside the sector and
    L maps no sector column outside it, so the sparse products meet the
    same terms in the same order.
    """

    def assert_sector_form(self, monkeypatch, h, ops, psi0, observables, times):
        hs, sec, liouv, y0 = dynamics._liouvillian_sector(
            h.csr, [math.sqrt(rate) * op.csr for op, rate in ops if rate > 0], psi0.vector)
        k = hs.size
        u, _ = dynamics._hermitian_basis(sec, k)
        assert u.shape == (k * k, sec.size) and liouv.shape == (k * k, k * k) and y0.shape == (k * k,)
        assert np.array_equal(np.flatnonzero(np.diff(u.indptr)), sec)  # U's nonzero rows are the sector
        assert np.max(np.abs((u.conj().T @ u).toarray() - np.eye(sec.size))) <= 4 * np.finfo(float).eps

        ref_u = sector_hermitian_basis(sec, k)
        g = sparse.csr_array((ref_u.conj().T @ liouv[sec][:, sec] @ ref_u).real)
        r0 = (ref_u.conj().T @ y0[sec]).real
        weights = []
        for a in observables:
            w = ref_u.T @ trace_weights(a.csr[hs][:, hs])[sec]
            weights += [w.real, w.imag]

        seen = []

        class ReadRows(np.ndarray):
            # the propagated rows; each readout product rows @ w records its w
            def __matmul__(self, other):
                seen.append(np.copy(other))
                return np.asarray(self) @ other

        rows = dynamics._expm_multiply_rows

        class Exponentiated(Exception):
            """Raised once expm's argument is recorded: no assertion reads the propagator."""

        def exponentiate(a):
            seen.append(a)
            raise Exponentiated

        def act(b, y, *rest):
            seen.append((b, y))
            return rows(b, y, *rest).view(ReadRows)

        monkeypatch.setattr(dynamics, "expm", exponentiate)
        monkeypatch.setattr(dynamics, "_expm_multiply_rows", act)
        monkeypatch.setattr(dynamics, "EXPM_SECTOR_MAX", sec.size)
        with pytest.raises(Exponentiated):
            evolve_lindblad(h, ops, psi0, times, [])
        monkeypatch.setattr(dynamics, "EXPM_SECTOR_MAX", 0)
        out = evolve_lindblad(h, ops, psi0, times, observables)
        assert out.meta["method"] == "lindblad-expm-multiply"
        exponentiated, (acted, start), *read = seen
        step_h = (times[-1] - times[0]) / (times.size - 1)
        assert exponentiated.tobytes() == (g.toarray() * step_h).tobytes()
        assert_same_csr(acted, g)
        assert acted.data.tobytes() == g.data.tobytes()
        assert start.tobytes() == r0.tobytes()
        assert len(read) == len(weights)
        assert all(got.tobytes() == ref.tobytes() for got, ref in zip(read, weights))

    @pytest.mark.parametrize("thermal", [False, True], ids=["open_chain", "thermal_damping"])
    def test_chain_legs(self, monkeypatch, thermal):
        if thermal:
            (h, ops, psi0), times = decay_immunity_leg(thermal=True), np.linspace(0.0, 3.2, 20)
        else:
            h, ops, psi0, times = open_chain_leg()
        x = position(h.space, 1)
        self.assert_sector_form(monkeypatch, h, ops, psi0, [x, x @ x, momentum(h.space, 1)], times)

    @settings(max_examples=40, deadline=None)
    @given(open_systems())
    def test_random_systems(self, system):
        h, psi0, ops = system
        with pytest.MonkeyPatch.context() as monkeypatch:  # hypothesis reruns the body; a fixture would not reset
            self.assert_sector_form(monkeypatch, h, ops, psi0, [position(h.space, 0), momentum(h.space, 0), h],
                                    np.linspace(0.0, 2.0, 9))


def liouvillian_kron_reference(h, ls):
    """Sparse Liouvillian on the row-major vec(rho) as chained `scipy.sparse.kron` sums.

    The assembly the library used before its one `_kron_sum` pass, kept as
    the bit-level reference: K = -i h - sum_k l_k^dag l_k / 2, then
    L = K kron I + I kron K*, plus l_k kron l_k* for each collapse operator
    l_k (rates folded in), each sum a sparse addition.
    """
    k = -1j * h
    for l in ls:
        k = k - 0.5 * (l.conj().T @ l)
    eye = sparse.identity(h.shape[0], dtype=complex, format="csr")
    liouv = sparse.kron(k, eye) + sparse.kron(eye, k.conj())
    for l in ls:
        liouv = liouv + sparse.kron(l, l.conj())
    return sparse.csr_array(liouv)


def liouvillian_reference(h, collapse_ops):
    """Dense Liouvillian on the row-major vec(rho), from the textbook kron formula."""
    d = h.shape[0]
    eye = np.eye(d)
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c, rate in collapse_ops:
        cdc = c.conj().T @ c
        out += rate * (np.kron(c, c.conj()) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T))
    return out


class TestReachableSector:
    def test_connected_hermitian_gives_whole_space(self):
        rng = np.random.default_rng(11)
        n = 40
        m = sparse.random(n, n, density=0.05, random_state=12, format="csr")
        m = m + sparse.diags(np.ones(n - 1), 1)  # a chain through every index keeps it connected
        h = sparse.csr_array(m + m.T)
        seed = np.zeros(n, dtype=complex)
        seed[rng.integers(n)] = 1.0
        assert np.array_equal(dynamics._reachable_sector(h, seed), np.arange(n))

    def test_block_diagonal_hamiltonian_matches_full_expm(self):
        # two Hermitian blocks, interleaved by a permutation; psi0 lives in the
        # block without index 0
        rng = np.random.default_rng(3)
        n = 10
        perm = rng.permutation(n)
        block_a, block_b = np.sort(perm[:6]), np.sort(perm[6:])
        if 0 in block_b:
            block_a, block_b = block_b, block_a
        m = np.zeros((n, n), dtype=complex)
        m[np.ix_(block_a, block_a)] = random_hermitian(rng, block_a.size)
        m[np.ix_(block_b, block_b)] = random_hermitian(rng, block_b.size)
        space = oscillator_space(n)
        h = Operator(space, m)
        v0 = np.zeros(n, dtype=complex)
        v0[block_b] = rng.normal(size=block_b.size) + 1j * rng.normal(size=block_b.size)
        psi0 = QuantumState.pure(space, v0 / np.linalg.norm(v0))
        times = np.array([0.2, 0.5, 1.3, 3.0])
        traj = evolve_unitary(h, psi0, times)
        ref = np.array([expm(-1j * m * (t - times[0])) @ psi0.vector for t in times])
        assert traj.meta["sector_dim"] == block_b.size
        assert traj.vectors.shape == (times.size, n)
        assert np.allclose(traj.vectors, ref, rtol=0.0, atol=1e-12)
        assert np.all(traj.vectors[:, block_a] == 0.0)

    def test_decay_reaches_down_not_up(self):
        # D[b] carries |1><1| to |0><0| and never back: the edge runs from the
        # column of the source to the row of the target
        d = 4
        space = oscillator_space(d)
        b = annihilation(space, 0)
        liouv = sparse.csr_array(liouvillian_reference(np.zeros((d, d)), [(b.matrix, 0.7)]))
        excited = dynamics._reachable_sector(liouv, pure_projector(basis_state(space, [1])))
        ground = dynamics._reachable_sector(liouv, pure_projector(basis_state(space, [0])))
        assert excited.tolist() == [0, 1 * d + 1]
        assert ground.tolist() == [0]

        h = Operator(space, np.zeros((d, d)))
        times = np.linspace(0.0, 3.0, 7)
        up = evolve_lindblad(h, [(b, 0.7)], basis_state(space, [1]), times, [])
        down = evolve_lindblad(h, [(b, 0.7)], basis_state(space, [0]), times, matrix_units(space))
        assert (up.meta["sector_dim"], down.meta["sector_dim"]) == (2, 1)
        assert np.all(down.values == down.values[0])  # rho stays |0><0|, every entry exactly

    @pytest.mark.parametrize("case", ["open_chain", "decay_immunity", "thermal_damping", "dephasing"])
    def test_hilbert_sector_assembly_matches_full_space(self, case):
        # the Liouvillian assembled on the Hilbert states hs psi0 reaches
        # equals the d^2 `scipy.sparse.kron` assembly restricted to its
        # sector: the local index i * k + j of rho[hs[i], hs[j]] maps to the
        # full-space vec(rho) index hs[i] * d + hs[j], and the CSR structure
        # and entries agree bit for bit.  hs is exactly the set of states
        # whose diagonal the sector reaches: 16 of the open chain's 72 states
        # and 168 of decay_immunity.cfg's 336; with gamma nbar > 0, b and
        # b^dag are collapse operators and every state is reached.  The
        # dephasing case adds |e><e| and a^dag a to the open chain's set:
        # collapse operators with diagonal entries, which put their
        # l_ii l_jj* on L's diagonal only, summed in term order as the
        # sparse sums add them, so that block is bit-identical too
        if case in ("open_chain", "dephasing"):
            h, ops, psi0, _ = open_chain_leg()
            if case == "dephasing":
                a = annihilation(h.space, 0)
                ops = ops + [(level_projector(h.space, 2, 2, 2), 0.3), (a.dag() @ a, 0.2)]
        else:
            h, ops, psi0 = decay_immunity_leg(thermal=case == "thermal_damping")
        ls = [math.sqrt(rate) * op.csr for op, rate in ops if rate > 0]
        assert len(ls) == {"open_chain": 3, "decay_immunity": 3, "thermal_damping": 5, "dephasing": 5}[case]
        liouv = liouvillian_kron_reference(h.csr, ls)
        y0 = pure_projector(psi0)
        sec = dynamics._reachable_sector(liouv, y0)
        block = liouv[sec][:, sec]
        hs, got_sec, got, got_y0 = dynamics._liouvillian_sector(h.csr, ls, psi0.vector)
        got, got_y0 = got[got_sec][:, got_sec], got_y0[got_sec]  # returned on all k^2 entries
        i, j = np.divmod(got_sec, hs.size)
        assert np.array_equal(hs[i] * h.space.total_dim + hs[j], sec)
        assert np.array_equal(got.indptr, block.indptr)
        assert np.array_equal(got.indices, block.indices)
        assert got.data.tobytes() == block.data.tobytes()
        assert got_y0.tobytes() == y0[sec].tobytes()
        reached = np.unique(sec // h.space.total_dim).size
        assert reached == {"open_chain": 16, "decay_immunity": 168, "thermal_damping": 72, "dephasing": 16}[case]
        assert hs.size == reached

    def test_single_reached_state(self):
        # from the ground state under decay alone hs is the one state |0>
        # (k = 1): the Liouvillian is 1 x 1, and its one entry is an exact
        # zero (h[0, 0] = 0 and b|0> = 0), so no entry is stored, as in the
        # full-space assembly's block
        d = 4
        space = oscillator_space(d)
        h = build_effective_hamiltonian(0.0, 1.0, space)
        ls = [math.sqrt(0.7) * annihilation(space, 0).csr]
        psi0 = basis_state(space, [0])
        hs, sec, block, y0 = dynamics._liouvillian_sector(h.csr, ls, psi0.vector)
        assert hs.tolist() == [0] and sec.tolist() == [0]
        ref = liouvillian_kron_reference(h.csr, ls)[[0]][:, [0]]
        assert block.shape == (1, 1) and block.nnz == ref.nnz == 0
        assert y0.tolist() == [1.0]
        out = evolve_lindblad(h, [(annihilation(space, 0), 0.7)], psi0, np.linspace(0.0, 1.0, 5),
                              [position(space, 0)])
        assert out.meta["sector_dim"] == 1 and out.meta["final_eigmin"] == 1.0
        assert np.all(out.values == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(open_systems())
    def test_sector_assembly_matches_kron_reference_on_random_systems(self, system):
        # random complex H and collapse operators with diagonal entries: an
        # off-diagonal entry of L can then receive three or more terms,
        # which the COO-to-CSR conversion sums in its own order, so entries
        # may differ from the term-by-term sparse sums in their last bits.
        # Over 3,000 draws of this strategy the largest difference was 1.1 eps
        # of the largest entry of L (1,809 draws agreed exactly); the bound is
        # 4 eps
        h, psi0, ops = system
        ls = [math.sqrt(rate) * op.csr for op, rate in ops if rate > 0]
        liouv = liouvillian_kron_reference(h.csr, ls)
        sec = dynamics._reachable_sector(liouv, pure_projector(psi0))
        block = liouv[sec][:, sec]
        hs, got_sec, got, _ = dynamics._liouvillian_sector(h.csr, ls, psi0.vector)
        got = got[got_sec][:, got_sec]  # returned on all k^2 entries
        i, j = np.divmod(got_sec, hs.size)
        assert np.array_equal(hs[i] * h.space.total_dim + hs[j], sec)
        scale = max(np.max(np.abs(liouv.data), initial=0.0), np.finfo(float).tiny)
        assert np.max(np.abs(got.toarray() - block.toarray())) <= 4 * np.finfo(float).eps * scale

    def test_hilbert_sector_follows_each_collapse_adjoint(self):
        # l = |0><1| + |0><2| never maps |1> to |2>, but l^dag l does, so
        # K = -i H - l^dag l / 2 carries rho's |1><1| into |2><1|; a Hilbert
        # search along |l| alone would stop at {0, 1}
        space = oscillator_space(3)
        h = Operator(space, np.diag([0.0, 1.0, 2.5]))
        l = sparse.csr_array(np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        psi0 = basis_state(space, [1])
        liouv = liouvillian_kron_reference(h.csr, [l])
        sec = dynamics._reachable_sector(liouv, pure_projector(psi0))
        hs, got_sec, got, _ = dynamics._liouvillian_sector(h.csr, [l], psi0.vector)
        assert 2 * 3 + 1 in sec
        assert hs.tolist() == [0, 1, 2]
        assert np.array_equal(got_sec, sec)  # every state is reached, so the indices are the full ones
        assert got[got_sec][:, got_sec].data.tobytes() == liouv[sec][:, sec].data.tobytes()

    def test_final_eigmin_is_taken_on_the_reached_states(self, monkeypatch):
        # the open chain's rho lives on the 16 of 72 Hilbert states psi0
        # reaches, so its smallest eigenvalue comes from a 16 x 16 matrix
        h, ops, psi0, times = open_chain_leg()
        hs = dynamics._liouvillian_sector(h.csr, [math.sqrt(r) * op.csr for op, r in ops], psi0.vector)[0]
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        evolve_lindblad(h, ops, psi0, times, [])
        assert hs.size == 16 and shapes == [(hs.size, hs.size)]

    def test_final_eigmin_matches_full_space_reference(self):
        # two-phonon loss and gain under H_eff keep the parity of the vacuum,
        # so rho lives on the 6 even levels of 12, where it has full rank:
        # its smallest eigenvalue there, 6.3e-3, is what the run reports,
        # while the full 12 x 12 rho adds six exact zeros
        d = 12
        space = oscillator_space(d)
        h = build_effective_hamiltonian(0.3, 1.0, space)
        b = annihilation(space, 0)
        ops = [(b @ b, 0.5), (b.dag() @ b.dag(), 0.2)]
        times = np.linspace(0.0, 3.0, 13)
        out = evolve_lindblad(h, ops, vacuum_state(space), times, [])
        liouv = liouvillian_reference(h.matrix, [(op.matrix, rate) for op, rate in ops])
        rho = expm_multiply(liouv * times[-1], pure_projector(vacuum_state(space))).reshape(d, d)
        even = np.arange(0, d, 2)
        want = np.min(np.linalg.eigvalsh(rho[np.ix_(even, even)]))
        assert want > 1e-3
        assert abs(out.meta["final_eigmin"] - want) <= 1e-12

    def test_damped_model_matches_full_liouvillian(self):
        # D[b] and D[b^dag] move m and n of |m><n| together, and H_eff moves
        # them by 0 or +-2, so from vacuum only even m - n is reached
        d, g, gamma, nbar = 10, 0.5, 0.3, 0.4
        space = oscillator_space(d)
        h = build_effective_hamiltonian(g, 1.0, space)
        b = annihilation(space, 0)
        ops = [(b, gamma * (nbar + 1.0)), (b.dag(), gamma * nbar)]
        times = np.linspace(0.0, 3.0, 13)
        # a random Hermitian observable with unit entrywise 1-norm, so an
        # entrywise error of 1e-9 moves its expectation by at most 1e-9
        a = random_hermitian(np.random.default_rng(17), d)
        a /= np.abs(a).sum()
        odd = (np.arange(d)[:, None] - np.arange(d)[None, :]) % 2 == 1
        obs = [Operator(space, a), Operator(space, np.where(odd, a, 0.0))]
        out = evolve_lindblad(h, ops, vacuum_state(space), times, obs)
        liouv = liouvillian_reference(h.matrix, [(op.matrix, rate) for op, rate in ops])
        ref = expm_multiply(liouv, pure_projector(vacuum_state(space)),
                            start=0.0, stop=3.0, num=13, endpoint=True)
        assert out.meta["sector_dim"] == d * d // 2
        assert np.all(out.values[:, 1] == 0.0)  # the odd entries are never reached
        # Tr(a rho) = sum_ij a[j, i] rho[i, j] on the row-major vec(rho)
        assert np.allclose(out.values[:, 0], ref @ a.T.ravel(), rtol=0.0, atol=1e-9)

    def test_chain_sectors_at_closed_chain_dims(self):
        # the undriven chain from vacuum at 8 x 32 x 3 (768 states) and 8 x 32 x 2 (512)
        p = ModelParams(delta=20.0, Delta=100.0, Omega=1.0, g1=1.0, g2=0.02)
        rep = validate_adiabatic_chain(p, "e1", horizon=1.0, n_times=20, d_cav=8, d_mech=32)
        assert rep.legs["two_level_textbook"].meta["dims"][:2] == (8, 32)
        sectors = {k: ts.meta["sector_dim"] for k, ts in rep.legs.items() if k != "effective"}
        assert sectors == {"full": 48, "two_level_as_written": 32, "two_level_textbook": 32}


class TestVarianceTrajectory:
    def test_quadrature_validation(self):
        space = oscillator_space(4)
        traj = evolve_unitary(build_effective_hamiltonian(0.5, 1.0, space), vacuum_state(space), [0.0, 1.0])
        with pytest.raises(ValueError, match="quadrature"):
            variance_trajectory(traj, 0, "Y")

    @pytest.mark.parametrize("quadrature", ["X", "P"])
    def test_unitary_moments_match_three_operand_einsum(self, quadrature):
        # reference: <q> and <q^2> as v^dag q v and v^dag (q @ q) v with dense q,
        # the contraction variance_trajectory replaced by one sparse product
        p = ModelParams(delta=5.0, Delta=40.0, g1=1.5, g2=0.4, Omega=2.5, eps=0.8)
        space = hybrid_space(3, 10, 3)
        rng = np.random.default_rng(21)
        v0 = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
        v0[np.arange(space.total_dim) // 3 % 10 >= 6] = 0.0  # keep the oscillator tail empty
        psi0 = QuantumState.pure(space, v0 / np.linalg.norm(v0))
        traj = evolve_unitary(build_full_hamiltonian(p, space), psi0, np.linspace(0.0, 2.0, 25))
        q = (position if quadrature == "X" else momentum)(space, 1).matrix
        vs = traj.vectors
        m1 = np.einsum("ti,ij,tj->t", vs.conj(), q, vs).real
        m2 = np.einsum("ti,ij,tj->t", vs.conj(), q @ q, vs).real
        assert np.max(np.abs(m1)) > 0.1  # the first moment is exercised
        ref = m2 - m1**2
        got = variance_trajectory(traj, 1, quadrature).values
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    def test_covariance_p_column(self):
        # the P variance of a unitary run against the covariance route's P column
        q = math.sqrt(5.0)
        times = np.array([0.0, math.pi / (2.0 * q)])
        traj = covariance_evolve(1.0, 1.0, 0.0, 0.0, CovarianceState.vacuum(), times)
        assert traj.cov[1, 1, 1] == pytest.approx(1.25, rel=1e-12)
        space = oscillator_space(64)
        fock = evolve_unitary(build_effective_hamiltonian(1.0, 1.0, space), vacuum_state(space), times)
        assert variance_trajectory(fock, 0, "P").values[1] == pytest.approx(traj.cov[1, 1, 1], rel=1e-8)


def driven_oscillator_beside_level(d):
    """H_eff plus a linear drive on Fock(d), beside an idle Level(2); the state starts at level 0.

    The drive moves the oscillator by one quantum, so X connects the
    reachable sector (atom at level 0) to itself and <X> is nonzero.
    """
    space = HilbertSpace((Fock(d), Level(2)))
    osc = build_effective_hamiltonian(0.4, 1.0, oscillator_space(d))
    b = annihilation(oscillator_space(d), 0)
    h = Operator(space, sparse.kron((osc + 0.6 * (b + b.dag())).csr, sparse.identity(2)))
    h = h + 0.3 * level_projector(space, 1, 1, 1)
    return space, h, basis_state(space, [0, 0])


class TestSectorContractions:
    """Both engines read the sector block; full-space states are the reference."""

    @staticmethod
    def full_space_unitary_moments(traj, q):
        # the contraction the full-length vectors used to go through
        vs = traj.vectors
        qv = (q @ vs.T).T
        m1 = np.einsum("ti,ti->t", vs.conj(), qv).real
        m2 = np.einsum("ti,ti->t", qv.conj(), qv).real
        return m2 - m1**2

    @pytest.mark.parametrize("quadrature", ["X", "P"])
    def test_unitary_chain_equals_full_space_exactly(self, quadrature):
        # 48 of the 768 states are reached, and X maps all of them outside the sector
        p = ModelParams(delta=20.0, Delta=100.0, Omega=1.0, g1=1.0, g2=0.02)
        space = hybrid_space(8, 32, 3)
        e1 = atomic_coupling_spectrum(p).e1
        psi0 = QuantumState.pure(space, np.kron(np.eye(8 * 32)[0], [e1[0], e1[1], 0.0]))
        traj = evolve_unitary(build_full_hamiltonian(p, space), psi0, np.linspace(0.0, 6.0, 61))
        assert traj.values.shape == (61, 48)
        q = (position if quadrature == "X" else momentum)(space, 1).csr
        got = variance_trajectory(traj, 1, quadrature).values
        assert np.array_equal(got, self.full_space_unitary_moments(traj, q))

    @pytest.mark.parametrize("quadrature", ["X", "P"])
    def test_unitary_driven_equals_full_space_exactly(self, quadrature):
        space, h, psi0 = driven_oscillator_beside_level(12)
        traj = evolve_unitary(h, psi0, np.linspace(0.0, 4.0, 41))
        assert traj.meta["sector_dim"] == 12
        q = (position if quadrature == "X" else momentum)(space, 0).csr
        vs = traj.vectors
        assert np.max(np.abs(np.einsum("ti,ti->t", vs.conj(), (q @ vs.T).T))) > 0.1
        got = variance_trajectory(traj, 0, quadrature).values
        assert np.array_equal(got, self.full_space_unitary_moments(traj, q))

    @pytest.mark.parametrize("quadrature", ["X", "P"])
    @pytest.mark.parametrize("driven", [False, True])
    def test_lindblad_matches_density_matrices(self, quadrature, driven):
        if driven:
            space, h, psi0 = driven_oscillator_beside_level(10)
            b = annihilation(space, 0)
        else:
            space = oscillator_space(10)
            h = build_effective_hamiltonian(0.5, 1.0, space)
            b, psi0 = annihilation(space, 0), vacuum_state(space)
        ops = [(b, 0.3 * 1.4), (b.dag(), 0.3 * 0.4)]
        q = (position if quadrature == "X" else momentum)(space, 0)
        # one run: the quadrature moments, then the matrix units, which read rho to an ulp
        out = evolve_lindblad(h, ops, psi0, np.linspace(0.0, 3.0, 13), [q, q @ q, *matrix_units(space)])
        assert out.meta["sector_dim"] < space.total_dim ** 2
        d = space.total_dim
        rhos = out.values[:, 2:].reshape(-1, d, d)
        qd = q.matrix
        m1 = np.einsum("tij,ji->t", rhos, qd).real
        m2 = np.einsum("tij,ji->t", rhos, qd @ qd).real
        assert driven == bool(np.max(np.abs(m1)) > 0.1)
        ref = m2 - m1**2
        got_m1, got_m2 = out.values[:, :2].real.T
        got = got_m2 - got_m1**2
        # each observable is read by its own product, so the two readouts
        # differ only in how they round the same sums: at most 7.6e-16 relative
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-15

    def test_lindblad_open_chain_leg_stays_off_the_full_space(self):
        # the open leg of the benchmark's open chain, 3 x 8 x 3 = 72 states:
        # scattering its 160 states would hold 160 x 72^2 complex values (13.3 MB)
        h, ops, psi0, times = open_chain_leg()
        space = h.space
        scatter_bytes = times.size * space.total_dim ** 2 * 16
        x = position(space, 1)
        # the leg runs on the exp(G h) route: the Liouvillian's assembly, its
        # dense 160-entry block, propagator and entries peak at 1.8 MB
        tracemalloc.start()
        try:
            out = evolve_lindblad(h, ops, psi0, times, [x, x @ x])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.meta["sector_dim"] < space.total_dim ** 2 // 4
        assert peak < scatter_bytes / 4


def assert_same_csr(got, ref):
    """The same block entry for entry: shape, index arrays (with their dtypes) and values."""
    assert got.shape == ref.shape
    for name in ("indptr", "indices"):
        assert getattr(got, name).dtype == getattr(ref, name).dtype
        assert np.array_equal(getattr(got, name), getattr(ref, name))
    assert np.array_equal(got.data, ref.data)


class TestQuadratureBlocks:
    """The quadrature blocks the readouts multiply equal slices of the full-space X and P.

    `position` and `momentum` are the same builder on every basis state;
    test_model checks them against dense references.
    """

    @pytest.mark.parametrize("s", [0, 1])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 17, 64])
    def test_parity_blocks_equal_sliced_position(self, d, s):
        # exact_quadrature_moments' X from parity s to the other parity
        space = oscillator_space(d)
        rows, got = _quadrature_block(space, 0, "X", np.arange(s, d, 2))
        assert np.array_equal(rows, np.arange(1 - s, d, 2))
        assert got.dtype == np.float64
        assert_same_csr(got, position(space, 0).csr.real[1 - s::2][:, s::2])

    @pytest.mark.parametrize("levels", [3, 2])
    def test_sector_blocks_equal_sliced_operators(self, levels):
        # variance_trajectory's (reached rows x sector) block on the elimination
        # chain's full and two-level sectors, for X and P on every Fock factor
        p = ModelParams(delta=20.0, Delta=100.0, Omega=1.0, g1=1.0, g2=0.02)
        space = hybrid_space(8, 32, levels)
        e1 = atomic_coupling_spectrum(p).e1
        build = build_full_hamiltonian if levels == 3 else build_two_level_hamiltonian
        psi0 = QuantumState.pure(space, np.kron(np.eye(8 * 32)[0], [e1[0], e1[1], 0.0][:levels]))
        sector = evolve_unitary(build(p, space), psi0, [0.0, 1.0]).sector
        assert 0 < sector.size < space.total_dim
        for factor in (0, 1):
            for quadrature, op in (("X", position), ("P", momentum)):
                q = op(space, factor).csr[:, sector]
                ref_rows = np.flatnonzero(np.diff(q.indptr))
                rows, got = _quadrature_block(space, factor, quadrature, sector)
                assert np.array_equal(rows, ref_rows)
                assert_same_csr(got, q[ref_rows])

    def test_readouts_construct_no_operator(self, monkeypatch):
        space = oscillator_space(32)
        h = build_effective_hamiltonian(0.5, 1.0, space)
        times = np.linspace(0.0, 2.0, 11)
        traj = evolve_unitary(h, vacuum_state(space), times)
        built = []
        post_init = Operator.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Operator, "__post_init__", counted)
        for nbar in (0.0, 2.0):
            exact_quadrature_moments(h, nbar, times)
        for quadrature in ("X", "P"):
            variance_trajectory(traj, 0, quadrature)
        assert built == []
        position(space, 0)  # the counter sees a full-space build
        assert len(built) == 1


def tail_record(*tails):
    """A stand-in run's record: a flat series whose meta holds one tail per dim."""
    return TimeSeries(np.array([0.0, 1.0]), np.zeros(2), {"tail_max": dict(enumerate(tails))})


class TestDimensionPolicy:
    def test_starting_dimensions(self):
        assert mech_dim_start(0.0, 1.0, 1.0) == 40
        assert mech_dim_start(10.0, 2.0, 1.0) == 1512
        assert mech_dim_start(0.0, 0.0, 1.0) == 16

    def test_adaptive_series_recovers_from_small_start(self):
        q = math.sqrt(5.0)
        times = np.linspace(0.0, math.pi / q, 51)
        ref = np.array([position_variance(1.0, 1.0, 0.0, t) for t in times])
        # at d = 2 the tail is the whole population: (b + b^dag)^2 truncated
        # to two levels is diagonal, so level 1 alone stays empty from vacuum
        for d_start in (2, 4):
            ts = effective_variance_series(1.0, 1.0, 0.0, times, d_start=d_start)
            # a 1e-6 tail bound translates to ~1e-5 variance accuracy
            assert np.allclose(ts.values, ref, rtol=0.0, atol=5e-5)
            assert ts.meta["dims"][0] > 4
            assert max(ts.meta["tail_max"].values()) <= 1e-6

    def test_adaptive_series_thermal_route(self):
        times = np.linspace(0.0, 2.0, 21)
        ts = effective_variance_series(0.5, 1.0, 1.0, times)
        ref = np.array([position_variance(0.5, 1.0, 1.0, t) for t in times])
        # accuracy at the accepted dimension is tail-limited, ~1e-7 relative
        assert np.allclose(ts.values, ref, rtol=1e-5)
        assert ts.meta["method"] == "eigh-moments"

    def test_thermal_series_memory_peak(self):
        # acceptance 04's largest job: g = 2, nbar = 10 starts at d = 1512 and
        # stays there; a dense d x d thermal rho alone would be 35 MiB, and a
        # run that built and copied it peaked at 72.6 MiB (31.1 MiB without it,
        # 24.5 MiB with real Gram-product weights and cos/sin phase sums).
        # Each parity block now frees its arrays before the other block's eigh
        # and scales V in place: 13.6 MiB, about three 756 x 756 float arrays
        period = 2.0 * math.pi / math.sqrt(9.0)
        tracemalloc.start()
        try:
            ts = effective_variance_series(2.0, 1.0, 10.0, np.linspace(0.0, period, 201))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ts.meta["dims"] == (1512,)
        assert peak < 16 * 2**20

    def test_thermal_series_agrees_with_doubled_dimension(self):
        # the tail bounds the population near the cut, not the variance: at
        # g = 0.5, nbar = 10 the starting d = 504 has a tail of 1.4e-9 and a
        # variance 1.25e-6 (relative) from d = 1008's
        times = np.linspace(0.0, 2.0 * math.pi / math.sqrt(3.0), 201)
        assert mech_dim_start(10.0, 0.5, 1.0) == 504
        a, b = (effective_variance_series(0.5, 1.0, 10.0, times, d_start=d) for d in (504, 1008))
        assert (a.meta["dims"], b.meta["dims"]) == ((504,), (1008,))
        assert np.max(np.abs(a.values - b.values) / b.values) <= 1e-5

    def test_nan_tail_counts_as_over(self):
        # nan > 1e-6 is False, so a plain "> limit" test took a NaN tail as converged
        with pytest.raises(TruncationError, match="tails nan exceed"):
            dynamics._double_until_converged(lambda dims: (tail_record(math.nan),), (4,), 8)

    def test_starting_dim_above_the_cap_never_runs(self, monkeypatch):
        # only doubled dims used to meet the cap: geff = 1, nbar = 1000 starts
        # at 80,040 against EFFECTIVE_DIM_CAP = 8,192 and ran anyway, with
        # Gram products of about 12.8 GB each
        def never(*args):
            raise AssertionError("ran at a starting dim above the cap")

        with pytest.raises(TruncationError, match=r"^starting dims \(48, 8\) pass the cap 32$"):
            dynamics._double_until_converged(never, (48, 8), 32)
        assert mech_dim_start(1000.0, 1.0, 1.0) == 80040 > dynamics.EFFECTIVE_DIM_CAP
        monkeypatch.setattr(dynamics, "exact_quadrature_moments", never)
        with pytest.raises(TruncationError, match=r"starting dims \(80040,\) pass the cap 8192"):
            effective_variance_series(1.0, 1.0, 1000.0, np.linspace(0.0, 1.0, 5))
        dynamics._double_until_converged(lambda dims: (tail_record(0.0),), (32,), 32)  # the cap itself runs

    def test_loop_reads_the_largest_tail_of_the_records(self):
        # dim i doubles on the largest tail i of the records a run returns,
        # and a NaN in any of them counts as over; the records are returned
        tried = []

        def run(dims):
            tried.append(dims)
            over = 1.0 if dims[1] < 8 else 0.0
            return tail_record(0.0, 0.0), tail_record(0.0, over), tail_record(math.nan if dims[0] < 4 else 0.0, 0.0)

        records = dynamics._double_until_converged(run, (2, 2), 8)
        assert tried == [(2, 2), (4, 4), (4, 8)]
        assert len(records) == 3 and all(isinstance(ts, TimeSeries) for ts in records)

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(dynamics, "EFFECTIVE_DIM_CAP", 8)
        with pytest.raises(TruncationError, match="cap 8"):
            effective_variance_series(5.0, 1.0, 0.0, np.linspace(0.0, 2.0, 11), d_start=4)


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            TimeSeries(np.array([0.0, 1.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError, match="equal length"):
            TimeSeries(np.array([0.0, 1.0]), np.zeros(3))

    def test_every_fock_record_is_a_time_series_naming_its_dims(self):
        # the unitary trajectory is the series of its sector amplitudes, and
        # every adaptive record names the truncation it reached as "dims"
        times = np.linspace(0.0, 1.0, 5)
        space = hybrid_space(3, 4, 3)
        p = ModelParams(delta=2.0, Delta=10.0, g1=1.0, Omega=1.0, g2=0.4)
        psi0 = QuantumState.pure(space, np.eye(space.total_dim)[1])
        traj = evolve_unitary(build_full_hamiltonian(p, space), psi0, times)
        assert isinstance(traj, TimeSeries)
        assert traj.values.shape == (times.size, traj.meta["sector_dim"]) and traj.values.shape[1] < space.total_dim
        full = np.zeros((times.size, space.total_dim), dtype=complex)
        full[:, traj.sector] = traj.values
        assert np.array_equal(traj.vectors, full)
        eff = effective_variance_series(0.5, 1.0, 0.0, times, d_start=32)
        assert eff.meta.keys() == {"method", "dims", "tail_max"} and eff.meta["dims"] == (32,)
        rep = validate_adiabatic_chain(p, "e1", horizon=1.0, n_times=5, d_cav=3, d_mech=8)
        dims = rep.legs["effective"].meta["dims"]
        assert isinstance(dims, tuple) and len(dims) == 1

    def test_meta_holds_what_the_run_decided(self):
        # route, dims and tails; never an argument the caller passed
        times = np.linspace(0.0, 1.0, 5)
        assert effective_variance_series(0.5, 1.0, 1.0, times).meta.keys() == {"method", "dims", "tail_max"}
        space = oscillator_space(8)
        traj = evolve_unitary(build_effective_hamiltonian(0.5, 1.0, space), vacuum_state(space), times)
        assert variance_trajectory(traj, 0, "P").meta == traj.meta
        cov = covariance_evolve(0.5, 1.0, 0.1, 1.0, CovarianceState.vacuum(), times)
        assert cov.meta == {"method": "covariance-expm"}

    def test_one_row_per_time(self):
        # a complex (n_t, k) block is a record, as evolve_lindblad returns it
        block = np.arange(6).reshape(3, 2) * (1.0 - 2.0j)
        ts = TimeSeries(np.array([0.0, 0.5, 1.0]), block)
        assert ts.values.dtype == complex and np.array_equal(ts.values, block)
        with pytest.raises(ValueError, match="equal length"):
            TimeSeries(np.array([0.0, 1.0]), block)
        space = oscillator_space(4)
        out = evolve_lindblad(build_effective_hamiltonian(0.2, 1.0, space), [(annihilation(space, 0), 0.1)],
                              vacuum_state(space), np.linspace(0.0, 1.0, 3), [number(space, 0), position(space, 0)])
        assert isinstance(out, TimeSeries)
        assert out.values.shape == (3, 2) and out.values.dtype == complex


class TestValidateAdiabaticChain:
    def test_decoupled_atom_all_models_agree(self):
        p = ModelParams(delta=10.0, Delta=50.0, g1=0.0, Omega=0.0, g2=0.02, eps=0.0)
        rep = validate_adiabatic_chain(p, "e1", horizon=3.0, n_times=60, d_cav=3, d_mech=8)
        assert isinstance(rep, AdiabaticReport)
        assert max(rep.deviations.values()) < 1e-10
        assert rep.stark_winner == "tie"

    def test_moderate_hierarchy_tracks_effective_model(self):
        p = ModelParams(delta=20.0, Delta=100.0, g1=1.0, Omega=1.0, g2=0.02, eps=0.0)
        rep = validate_adiabatic_chain(p, "e1", horizon=math.pi, n_times=120, d_cav=4, d_mech=12)
        assert rep.ratios["Delta_over_drive"] == pytest.approx(100.0)
        assert rep.ratios["delta_over_residual"] == pytest.approx(1000.0)
        assert rep.atom_weights[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.deviations["full_vs_effective"] < 0.01
        assert rep.deviations["full_vs_two_level_as_written"] < 0.01
        assert rep.stark_winner in ("as-written", "textbook", "tie")

    def test_two_level_oscillator_start_doubles(self, monkeypatch):
        # validate_adiabatic.cfg's point: from d_mech = 2 a tail of level 1
        # alone stays 0 in vacuum, and every deviation reads below 1e-15.  It
        # doubles to 4 and measures what a start at 16 does: 1.4598e-4 against 1.4619e-4.
        # The two-level leg starts at the (4, 4) the full leg reached, not at the configured (4, 2)
        p = ModelParams(delta=20.0, Delta=100.0, Omega=1.0, g1=1.0, g2=0.02)
        ref = validate_adiabatic_chain(p, "e1", horizon=6.2832, n_times=40, d_cav=4, d_mech=16)
        calls = []

        def recording(*dims):
            calls.append(dims)
            return hybrid_space(*dims)

        monkeypatch.setattr(dynamics, "hybrid_space", recording)
        small = validate_adiabatic_chain(p, "e1", horizon=6.2832, n_times=40, d_cav=4, d_mech=2)
        assert calls == [(4, 2, 3), (4, 4, 3), (4, 4, 2)]
        reached = small.legs["two_level_textbook"].meta["dims"][:2]
        assert reached == small.legs["full"].meta["dims"][:2]
        assert reached == (4, 4)
        assert small.deviations["full_vs_effective"] == pytest.approx(ref.deviations["full_vs_effective"], rel=1e-2)

    def test_zero_delta_raises(self):
        # the elimination needs delta != 0: the chain stops at the coupling spectrum
        p = ModelParams(delta=0.0, Delta=100.0, g1=1.0, Omega=1.0, g2=0.02)
        with pytest.raises(ValueError, match="delta != 0"):
            validate_adiabatic_chain(p, "e1", horizon=1.0, n_times=20, d_cav=4, d_mech=12)

    def test_negated_detunings_keep_ratios(self):
        # the hierarchy ratios compare magnitudes: the chain tracks just as
        # well with both detunings negated, so the ratios must not turn negative
        kw = dict(g1=1.0, Omega=1.0, g2=0.02, eps=0.0)
        run = dict(horizon=math.pi, n_times=60, d_cav=4, d_mech=12)
        rep = validate_adiabatic_chain(ModelParams(delta=20.0, Delta=100.0, **kw), "e1", **run)
        neg = validate_adiabatic_chain(ModelParams(delta=-20.0, Delta=-100.0, **kw), "e1", **run)
        assert neg.ratios == rep.ratios
        assert max(rep.deviations["full_vs_effective"], neg.deviations["full_vs_effective"]) < 0.01

    def test_distinct_stark_shifts_run_both_variants(self):
        # scripts/stark_variant.cfg's lopsided drive (Omega = 2 g1) on a
        # shorter grid: the two variants' shifts differ, and so do their legs
        p = ModelParams(delta=8.0, Delta=40.0, g1=1.0, Omega=2.0, g2=0.05, eps=2.0)
        rep = validate_adiabatic_chain(p, "e1", horizon=2.0 * math.pi, n_times=60, d_cav=4, d_mech=12)
        d_aw = rep.deviations["full_vs_two_level_as_written"]
        d_tb = rep.deviations["full_vs_two_level_textbook"]
        assert d_aw != d_tb
        assert rep.stark_winner == "textbook"

    @pytest.mark.parametrize("name, atom", [("stark_variant", (0.6, 0.8)), ("decay_immunity", "e2")])
    def test_effective_leg_is_the_closed_form_mixture(self, name, atom):
        # each config's unitary chain: (0.6, 0.8) weighs e1 / e2 at 0.018 / 0.982,
        # so both branches run; measured 4.5e-16 and 1.5e-15 relative
        cfg = parse_config((SCRIPTS / f"{name}.cfg").read_text())
        p, o = cfg.params, cfg.options
        rep = validate_adiabatic_chain(p, atom, o["horizon"], n_times=o["n_times"], d_cav=o["d_cav"],
                                       d_mech=o["d_mech"])
        spec = atomic_coupling_spectrum(p)
        eff = rep.legs["effective"]
        want = sum(w * np.array([position_variance(g, p.omega_m, 0.0, t) for t in eff.times])
                   for w, g in zip(rep.atom_weights, (spec.g_eff_1, spec.g_eff_2)))
        if name == "stark_variant":
            assert min(rep.atom_weights) > 0.01
        assert np.max(np.abs(eff.values - want) / want) <= 1e-12

    def test_equal_stark_shifts_share_one_run(self, monkeypatch):
        # at Omega = g1 both variants have one Hamiltonian, so the chain
        # propagates the full model and one two-level leg
        calls = []

        def counting(h, *args, **kwargs):
            calls.append(h.space.factor_sizes)
            return evolve_unitary(h, *args, **kwargs)

        monkeypatch.setattr(dynamics, "evolve_unitary", counting)
        p = ModelParams(delta=20.0, Delta=100.0, g1=1.0, Omega=1.0, g2=0.02)
        rep = validate_adiabatic_chain(p, "e1", horizon=2.0 * math.pi, n_times=60, d_cav=8, d_mech=32)
        assert calls == [(8, 32, 3), (8, 32, 2)]
        dev = rep.deviations
        assert dev["full_vs_two_level_as_written"] == dev["full_vs_two_level_textbook"]
        assert dev["two_level_as_written_vs_effective"] == dev["two_level_textbook_vs_effective"]
        assert rep.legs["two_level_as_written"] is rep.legs["two_level_textbook"]
        assert rep.stark_winner == "tie"

    def test_lindblad_legs_populate_degradation(self):
        p = ModelParams(
            delta=5.0, Delta=20.0, g1=1.0, Omega=1.0, g2=0.1, eps=0.0, kappa=0.05, Gamma_e=0.02
        )
        rep = validate_adiabatic_chain(
            p,
            "e1",
            horizon=math.pi,
            n_times=40,
            d_cav=3,
            d_mech=8,
            lindblad_dims=(4, 8),
        )
        s_closed, s_open = rep.squeezing_db["lindblad_closed"], rep.squeezing_db["lindblad_open"]
        assert s_closed is not None and math.isfinite(s_closed)
        assert s_open is not None and math.isfinite(s_open)
        assert rep.smax_degradation is not None
        closed, opened = rep.legs["lindblad_closed"].meta, rep.legs["lindblad_open"].meta
        assert closed["dims"] == opened["dims"] == (4, 8, 3)
        assert 0 < closed["sector_dim"] <= opened["sector_dim"] <= (4 * 8 * 3) ** 2

    @pytest.mark.parametrize(
        "rates, methods",  # the (closed leg, open leg) routes
        [
            # gamma = 0: the closed leg is unitary, the open leg's 160 entries step exp(G h)
            (dict(kappa=0.05, Gamma_e=0.02), ("eigh", "lindblad-expm")),
            # D[b] keeps the closed leg open, and it joins sectors of 288 and 320 entries
            (dict(kappa=0.05, Gamma_e=0.02, gamma=0.01), ("lindblad-expm", "lindblad-expm")),
            ({}, ("eigh", "eigh")),  # no channel at all: both legs are unitary
        ],
    )
    def test_leg_without_collapse_channel_runs_unitarily(self, monkeypatch, rates, methods):
        calls = []

        def counting(h, collapse_ops, *args, **kwargs):
            calls.append(len(collapse_ops))
            return evolve_lindblad(h, collapse_ops, *args, **kwargs)

        monkeypatch.setattr(dynamics, "evolve_lindblad", counting)
        p = ModelParams(delta=5.0, Delta=20.0, g1=1.0, Omega=1.0, g2=0.1, eps=0.0, **rates)
        rep = validate_adiabatic_chain(p, "e1", horizon=math.pi, n_times=40, d_cav=3, d_mech=8,
                                       lindblad_dims=(3, 8))
        closed, opened = rep.legs["lindblad_closed"].meta, rep.legs["lindblad_open"].meta
        assert (closed["method"], opened["method"]) == methods
        assert len(calls) == sum(m != "eigh" for m in methods) and all(calls)
        if methods[0] == "eigh":
            # the unitary leg's sector counts Hilbert-space states, not vec(rho) entries
            assert closed["sector_dim"] <= 3 * 8 * 3
        if methods == ("eigh", "eigh"):
            assert rep.smax_degradation == 0

    def test_master_equation_pair_keeps_its_records(self):
        # open_chain's chain and Lindblad space: each leg of the pair keeps its
        # series and its engine's record, the closed leg unitary (gamma = 0),
        # the open leg's 160 entries stepped by exp(G h)
        p = ModelParams(delta=20.0, Delta=100.0, Omega=1.0, g1=1.0, g2=0.02, kappa=0.5, Gamma_e=0.1)
        rep = validate_adiabatic_chain(p, "e1", horizon=3.2, n_times=160, d_cav=4, d_mech=16,
                                       lindblad_dims=(3, 8))
        pair = [rep.legs["lindblad_closed"], rep.legs["lindblad_open"]]
        assert [ts.meta["method"] for ts in pair] == ["eigh", "lindblad-expm"]
        for ts in pair:
            assert ts.values.shape == (160,) and ts.meta["dims"] == (3, 8, 3)
            assert max(ts.meta["tail_max"].values()) <= 1e-6  # measured 2.8e-14 at most
            assert ts.meta["trace_max_dev"] <= dynamics.TRACE_TOL

    def test_closed_leg_matches_dense_expm_propagation(self):
        # open_chain's chain and Lindblad space (3 x 8 x 3 = 72 states): the
        # closed leg has no collapse channel, so stepping psi0 with a dense
        # expm of H must reproduce its smax.  Measured 3.3e-10 relative; the
        # gap is the stepped expm's round-off (evolve_unitary is 4.4e-12 from
        # a longdouble propagator), amplified because smax (8e-5 dB) is the
        # log of a variance ratio within 2e-5 of one
        p = ModelParams(delta=20.0, Delta=100.0, Omega=1.0, g1=1.0, g2=0.02, kappa=0.5, Gamma_e=0.1)
        n_times = 160
        rep = validate_adiabatic_chain(p, "e1", horizon=3.2, n_times=n_times, d_cav=4, d_mech=16,
                                       lindblad_dims=(3, 8))
        assert rep.legs["lindblad_closed"].meta["dims"] == (3, 8, 3)
        space = hybrid_space(3, 8, 3)
        e1 = atomic_coupling_spectrum(p).e1
        times = np.linspace(0.0, 3.2, n_times)
        u = expm(-1j * build_full_hamiltonian(p, space).matrix * (times[1] - times[0]))
        psi = [np.kron(np.eye(3 * 8)[0], [e1[0], e1[1], 0.0])]
        for _ in times[1:]:
            psi.append(u @ psi[-1])
        psi = np.array(psi)
        xpsi = psi @ position(space, 1).matrix.T
        m1 = np.einsum("ti,ti->t", psi.conj(), xpsi).real
        var = np.einsum("ti,ti->t", xpsi.conj(), xpsi).real - m1**2
        ref = -5.0 * math.log10(var.min() / var[0])
        assert abs(rep.squeezing_db["lindblad_closed"] - ref) <= 1e-9 * ref

    def test_master_equation_legs_use_the_chain_grid(self, monkeypatch):
        # gamma > 0 sends both legs through the master equation; each
        # evaluates the chain's own n_times points, as every unitary leg does
        lindblad_grids, unitary_grids = [], []

        def recording(engine, grids):
            def run(h, *args, **kwargs):
                out = engine(h, *args, **kwargs)
                grids.append(out.times.size)
                return out
            return run

        monkeypatch.setattr(dynamics, "evolve_lindblad", recording(evolve_lindblad, lindblad_grids))
        monkeypatch.setattr(dynamics, "evolve_unitary", recording(evolve_unitary, unitary_grids))
        p = ModelParams(delta=5.0, Delta=20.0, g1=1.0, Omega=1.0, g2=0.1, kappa=0.05, gamma=0.01)
        rep = validate_adiabatic_chain(p, "e1", horizon=math.pi, n_times=40, d_cav=3, d_mech=8,
                                       lindblad_dims=(3, 8))
        assert lindblad_grids == [40, 40]
        assert unitary_grids and set(unitary_grids) == {40}
        assert len(rep.legs) == 6 and all(ts.values.shape == (40,) for ts in rep.legs.values())

    def test_closed_leg_without_squeezing_rejected(self):
        # eps = 0 leaves e2 = |1> stationary, so the closed leg never dips
        # below its initial variance (squeezing -0.0 dB); this used to return
        # smax_degradation None, on which the CLI crashed
        p = ModelParams(delta=20.0, Delta=100.0, Omega=1.0, g1=1.0, g2=0.02, kappa=0.5, gamma=0.1)
        with pytest.raises(ValueError, match="degradation is undefined"):
            validate_adiabatic_chain(p, "e2", horizon=3.2, n_times=40, d_cav=4, d_mech=8,
                                     lindblad_dims=(3, 8))

    def test_closed_leg_squeezing_at_round_off_rejected(self):
        # with gamma = 0 the closed leg runs exactly; e2 = |1> stays put, so
        # its X variance moves by round-off only (a dip of about 1 eps, which
        # used to pass as 4.8e-16 dB squeezing and degradation 1)
        p = ModelParams(delta=20.0, Delta=100.0, Omega=1.0, g1=1.0, g2=0.02, kappa=0.5, Gamma_e=0.1)
        with pytest.raises(ValueError, match="degradation is undefined.*beyond its error"):
            validate_adiabatic_chain(p, "e2", horizon=3.2, n_times=160, d_cav=4, d_mech=16,
                                     lindblad_dims=(3, 8))

    @pytest.mark.parametrize("reported, dip, rejected", [
        # an exact leg resolves a dip far below 1e-8
        pytest.param(dynamics.EXACT_VARIANCE_RTOL, 1e-9, False, id="eigh-1e-09"),
        pytest.param(dynamics.EXACT_VARIANCE_RTOL, 1e-14, True, id="eigh-1e-14"),
        # so does the exp(G h) route, with its larger round-off
        pytest.param(dynamics.EXPM_VARIANCE_RTOL, 1e-9, False, id="lindblad-expm-1e-09"),
        pytest.param(dynamics.EXPM_VARIANCE_RTOL, 1e-13, True, id="lindblad-expm-1e-13"),
        # a leg that reported a coarser error, 1e-8, would not resolve a dip below it
        pytest.param(1e-8, 1e-9, True, id="coarse-1e-09"),
        pytest.param(1e-8, 1e-7, False, id="coarse-1e-07"),
    ])
    def test_degradation_floor_follows_the_closed_leg_engine(self, monkeypatch, reported, dip, rejected):
        # the closed leg's series is replaced by one with a chosen relative
        # dip, and the rtol its engine reports by a chosen value; the chain
        # reads its floor from that record alone.  The chain hands each
        # master-equation leg its collapse set as a list, empty for the closed
        # leg at gamma = 0; the unitary legs pass none
        leg_variance = dynamics._leg_variance

        def closed_leg_with_dip(H, psi0, times, collapse_ops=()):
            ts = leg_variance(H, psi0, times, collapse_ops)
            if collapse_ops != []:
                return ts
            var = ts.values[0] * (1.0 - dip * times / times[-1])
            return TimeSeries(times, var, dict(ts.meta, rtol=reported))

        monkeypatch.setattr(dynamics, "_leg_variance", closed_leg_with_dip)
        p = ModelParams(delta=20.0, Delta=100.0, Omega=1.0, g1=1.0, g2=0.02, kappa=0.5)
        run = lambda: validate_adiabatic_chain(p, "e1", horizon=1.0, n_times=20, d_cav=3, d_mech=8,
                                               lindblad_dims=(3, 8))
        if rejected:
            with pytest.raises(ValueError, match="beyond its error"):
                run()
        else:
            assert run().squeezing_db["lindblad_closed"] == pytest.approx(-5.0 * math.log10(1.0 - dip), rel=1e-6)

    def test_effective_leg_doubles_its_dimension(self, monkeypatch):
        # at d_mech = 4 the unitary legs stay within the tail limit, but the
        # effective leg's e1 branch (weight 1e-8, g_eff_1 = 1e-3; its tail is
        # checked unweighted) does not; it doubles instead of raising, as the
        # unitary legs do, up to EFFECTIVE_DIM_CAP, not CHAIN_DIM_CAP
        monkeypatch.setattr(dynamics, "CHAIN_DIM_CAP", 4)
        p = ModelParams(delta=2.0, Delta=10.0, g1=1.0, Omega=1.0, g2=0.4)
        rep = validate_adiabatic_chain(p, [1e-4, 1.0], horizon=3.0, n_times=40, d_cav=3, d_mech=4)
        assert rep.legs["two_level_textbook"].meta["dims"][:2] == (3, 4)
        eff = rep.legs["effective"].meta
        assert (eff["method"], eff["dims"]) == ("eigh-moments", (8,)) and eff["tail_max"][0] <= 1e-6
        assert rep.deviations["full_vs_effective"] < 1e-6

    def test_atom_init_forms(self):
        p = ModelParams(delta=20.0, Delta=100.0, g1=1.0, Omega=1.0, g2=0.02, eps=0.0)
        with pytest.raises(ValueError, match="e1"):
            validate_adiabatic_chain(p, "ground", horizon=1.0)
        with pytest.raises(ValueError, match="nonzero"):
            validate_adiabatic_chain(p, [0.0, 0.0], horizon=1.0)
        # these used to warn twice and fail later on a NaN state norm
        for atom in ([np.nan, 1.0], [np.inf, 1.0], [1.0, 0.0, -np.inf]):
            with pytest.raises(ValueError, match="finite"):
                validate_adiabatic_chain(p, atom, horizon=1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        Delta=st.floats(1.0, 200.0) | st.floats(-200.0, -1.0),
        Omega=st.floats(0.0, 5.0),
        g1=st.floats(0.0, 5.0),
        eps=st.floats(0.0, 20.0),
        name=st.sampled_from(["e1", "e2"]),
    )
    def test_named_atom_state_has_exact_branch_weights(self, Delta, Omega, g1, eps, name):
        # a coupling eigenvector's overlap with the other one is the round-off
        # of the 2 x 2 eigh (8.4e-37 at stark_variant.cfg), which the golden
        # files' relative bound cannot tell from a real weight
        p = ModelParams(delta=20.0, Delta=Delta, g1=g1, Omega=Omega, g2=0.02, eps=eps)
        spec, _, ground, weights = dynamics._resolve_atom_init(p, name)
        assert weights == ((1.0, 0.0) if name == "e1" else (0.0, 1.0))
        overlaps = [abs(np.vdot(e, ground)) ** 2 for e in (spec.e1, spec.e2)]
        assert np.allclose(overlaps, weights, rtol=0.0, atol=1e-12)


def hand_legs(pair=None, rtol=1e-12, **values):
    # hand-made chain legs on a three-point grid; `pair` adds the master-equation
    # legs (closed, open), the closed one reporting `rtol` as its engine's error
    vals = dict(full=[1.0, 0.5, 0.8], two_level_as_written=[1.0, 0.4, 0.8],
                two_level_textbook=[1.0, 0.5, 0.6], effective=[1.0, 0.25, 1.0])
    vals.update(values)
    times = np.arange(len(vals["full"]), dtype=float)
    legs = {k: TimeSeries(times, v) for k, v in vals.items()}
    if pair is not None:
        legs["lindblad_closed"] = TimeSeries(times, pair[0], {"rtol": rtol})
        legs["lindblad_open"] = TimeSeries(times, pair[1], {"rtol": rtol})
    return legs


def hand_report(**kwargs):
    return AdiabaticReport(ratios={"Delta_over_drive": 100.0}, atom_weights=(1.0, 0.0), legs=hand_legs(**kwargs))


class TestAdiabaticReport:
    """The report derives every verdict from hand-built legs; no engine runs."""

    def test_takes_only_the_run_facts(self):
        rep = hand_report()
        assert rep.ratios == {"Delta_over_drive": 100.0} and rep.atom_weights == (1.0, 0.0)
        with pytest.raises(TypeError):
            AdiabaticReport(ratios={}, atom_weights=(1.0, 0.0), legs=hand_legs(), deviations={})

    def test_deviations_against_their_reference_legs(self):
        # in assertion order, a swapped reference would read 0.5, 0.25, 0.333, 0.375 and 0.667
        dev = hand_report().deviations
        assert set(dev) == {"full_vs_effective", "full_vs_two_level_as_written", "full_vs_two_level_textbook",
                            "two_level_as_written_vs_effective", "two_level_textbook_vs_effective"}
        assert dev["full_vs_effective"] == pytest.approx(1.0, rel=1e-15)  # |0.5 - 0.25| / 0.25
        assert dev["full_vs_two_level_as_written"] == pytest.approx(0.2, rel=1e-15)  # |0.4 - 0.5| / 0.5
        assert dev["full_vs_two_level_textbook"] == pytest.approx(0.25, rel=1e-15)  # |0.6 - 0.8| / 0.8
        assert dev["two_level_as_written_vs_effective"] == pytest.approx(0.6, rel=1e-15)  # |0.4 - 0.25| / 0.25
        assert dev["two_level_textbook_vs_effective"] == pytest.approx(1.0, rel=1e-15)  # |0.5 - 0.25| / 0.25

    def test_squeezing_reads_the_global_minimum(self):
        # the full leg's first interior minimum (0.9) is not its lowest point (0.5)
        rep = hand_report(full=[1.0, 0.9, 0.95, 0.5, 1.0], two_level_as_written=[1.0, 0.9, 0.95, 0.4, 1.0],
                          two_level_textbook=[2.0, 1.0, 1.5, 1.5, 2.0], effective=[1.0, 1.0, 1.0, 1.0, 1.0])
        s = rep.squeezing_db
        assert s["full"] == -5.0 * math.log10(0.5)
        assert s["two_level_as_written"] == -5.0 * math.log10(0.4)
        assert s["two_level_textbook"] == -5.0 * math.log10(0.5)  # relative to V(0) = 2
        assert s["effective"] == 0.0  # no dip at all

    @pytest.mark.parametrize("ulps, winner", [(0, "tie"), (4, "tie"), (8, "as-written"), (-8, "textbook")])
    def test_stark_winner_ties_within_1e_15(self, ulps, winner):
        # deviations 0.5 and 0.5 + ulps * 2^-52 from the full leg: 4 ulps (8.9e-16) tie, 8 (1.8e-15) do not
        rep = hand_report(full=[1.0, 1.0], two_level_as_written=[1.0, 1.5],
                          two_level_textbook=[1.0, 1.5 + ulps * 2.0**-52], effective=[1.0, 1.0])
        assert rep.stark_winner == winner

    def test_degradation_from_the_pair_squeezing(self):
        rep = hand_report(pair=([1.0, 0.5, 0.6], [1.0, 0.8, 0.9]))
        s_closed, s_open = rep.squeezing_db["lindblad_closed"], rep.squeezing_db["lindblad_open"]
        assert (s_closed, s_open) == (-5.0 * math.log10(0.5), -5.0 * math.log10(0.8))
        assert rep.smax_degradation == (s_closed - s_open) / s_closed
        assert rep.smax_degradation == pytest.approx(1.0 - math.log10(0.8) / math.log10(0.5), rel=1e-15)

    @pytest.mark.parametrize("closed, rtol", [
        ([1.0, 1.0 - 1e-13, 1.0], 1e-12),  # a dip below the leg's error
        ([1.0, 0.5, 1.0], 0.5),  # a dip exactly at it
        ([1.0, 1.0, 1.0], 1e-12),  # no dip at all
    ])
    def test_closed_leg_dip_within_its_error_raises(self, closed, rtol):
        with pytest.raises(ValueError, match=r"degradation is undefined.*beyond its error"):
            hand_report(pair=(closed, [1.0, 0.8, 0.9]), rtol=rtol)

    def test_no_pair_no_degradation(self):
        rep = hand_report()
        assert rep.smax_degradation is None
        assert set(rep.squeezing_db) == {"full", "two_level_as_written", "two_level_textbook", "effective"}


class TestEliminationOrder:
    """How the |e> elimination's error shrinks as the detuning Delta grows.

    scripts/stark_variant.cfg's point (delta = 8, Omega = 2, g1 = 1,
    g2 = 0.05, eps = 2, atom in e1) over 2 pi with 120 times, at Delta =
    40, 80, 160 and 320.  With the textbook Stark rates Omega^2/Delta and
    g1^2/Delta the elimination is second order in 1/Delta: the
    full-vs-two-level deviation falls from 4.085e-5 to 6.358e-7, with
    log-log slopes -2.007, -1.996 and -2.002 per doubling.  The as-written
    cross rate Omega g1/Delta converges too, but its deviation is 40.0,
    44.2, 46.9 and 52.2 times the textbook one.
    """

    DELTAS = (40.0, 80.0, 160.0, 320.0)

    @pytest.fixture(scope="class")
    def deviations(self):
        out = {"textbook": [], "as_written": []}
        for big_delta in self.DELTAS:
            p = ModelParams(delta=8.0, Delta=big_delta, Omega=2.0, g1=1.0, g2=0.05, eps=2.0)
            rep = validate_adiabatic_chain(p, "e1", horizon=2.0 * math.pi, n_times=120, d_cav=6, d_mech=24)
            for name in out:
                out[name].append(rep.deviations[f"full_vs_two_level_{name}"])
        return {name: np.array(dev) for name, dev in out.items()}

    def test_textbook_rates_are_second_order(self, deviations):
        slopes = np.diff(np.log(deviations["textbook"])) / np.diff(np.log(self.DELTAS))
        assert np.all(np.abs(slopes + 2.0) < 0.02)  # measured within 0.0073 of -2

    def test_as_written_rate_errs_40_to_52_times_more(self, deviations):
        ratio = deviations["as_written"] / deviations["textbook"]
        assert np.all((39.0 < ratio) & (ratio < 54.0))  # measured 40.03 to 52.23


class TestCavityEliminationPlateau:
    """How the cavity elimination's error moves as the detuning delta grows at fixed eps/delta.

    scripts/stark_variant.cfg's point at Delta = 320, with eps = delta/4
    so that (eps/delta)^2 = 0.0625 stays fixed, over 2 pi with 120 times,
    at delta = 8, 16, 32 and 64.  The two-level (textbook) vs effective
    deviation reads 1.119e-2, 1.037e-2, 1.031e-2 and 1.036e-2: from a
    cavity vacuum start the elimination does not converge in delta, since
    the cavity's switch-on sets an error of order (eps/delta)^2 that no
    larger delta removes.  A second-order elimination would fall 4x per
    doubling.  Each chain doubles d_cav from 6 to 12.
    """

    DELTAS = (8.0, 16.0, 32.0, 64.0)

    def test_deviation_plateaus_at_fixed_eps_over_delta(self):
        dev = []
        for delta in self.DELTAS:
            p = ModelParams(delta=delta, Delta=320.0, Omega=2.0, g1=1.0, g2=0.05, eps=delta / 4.0)
            rep = validate_adiabatic_chain(p, "e1", horizon=2.0 * math.pi, n_times=120, d_cav=6, d_mech=24)
            dev.append(rep.deviations["two_level_textbook_vs_effective"])
        dev = np.array(dev)
        assert np.all(dev > 1e-2)  # measured 1.031e-2 at least
        assert np.all(dev[:-1] / dev[1:] < 1.1)  # measured 1.079 at most per doubling of delta


class TestCavityEliminationMap:
    """How the cavity elimination's error moves with (eps/delta)^2 at fixed g_eff.

    scripts/stark_variant.cfg's Omega = 2 and g1 = 1 at Delta = 320, atom
    in e1, over 2 pi with 120 times.  g_eff = g2 (eps/delta)^2 = 0.05 and
    g2/delta = 0.005 stay fixed (g2 = 0.05/r, delta = 200 g2, eps = delta
    sqrt(r)) while r = (eps/delta)^2 halves from 0.25 to 0.0625.  The
    two-level (textbook) vs effective deviation reads 9.6547e-2, 7.0374e-2
    and 5.0403e-2, falling 1.372x and 1.396x per halving of r, close to
    the sqrt(2) by which eps/delta falls: the error tracks eps/delta.  Each
    chain doubles d_cav from 6 to 12; r = 0.03125 would also double d_mech
    to 48 and take about nine times as long, so the map stops at 0.0625.
    """

    RATIOS = (0.25, 0.125, 0.0625)

    def test_deviation_falls_with_eps_over_delta(self):
        dev = []
        for r in self.RATIOS:
            g2 = 0.05 / r
            delta = 200.0 * g2
            p = ModelParams(delta=delta, Delta=320.0, Omega=2.0, g1=1.0, g2=g2, eps=delta * math.sqrt(r))
            rep = validate_adiabatic_chain(p, "e1", horizon=2.0 * math.pi, n_times=120, d_cav=6, d_mech=24)
            dev.append(rep.deviations["two_level_textbook_vs_effective"])
        fall = np.array(dev[:-1]) / np.array(dev[1:])
        assert np.all((1.3 < fall) & (fall < 1.45))  # measured 1.372 and 1.396 per halving of r


def expm_clongdouble(a):
    """exp(a) in extended precision by scaling and squaring a Taylor series.

    The matrix is scaled by 2^-s to a 1-norm of at most 1/4, where 14 or so
    Taylor terms reach the longdouble round-off, then squared s times.
    """
    a = np.asarray(a, dtype=np.clongdouble)
    nrm = float(np.max(np.sum(np.abs(a), axis=0)))
    s = max(0, math.ceil(math.log2(nrm / 0.25))) if nrm > 0 else 0
    a = a / np.longdouble(2) ** s
    term = np.eye(a.shape[0], dtype=np.clongdouble)
    out = term.copy()
    for k in range(1, 40):
        term = term @ a / k
        out = out + term
        if np.max(np.abs(term)) < 1e-3 * np.finfo(np.longdouble).eps:
            break
    for _ in range(s):
        out = out @ out
    return out


def x_variance_clongdouble(h, psi0, times):
    """X variance of the oscillator (factor 1) under exp(-i h t), all in longdouble."""
    dt = np.longdouble(times[1] - times[0])
    u = expm_clongdouble(-1j * np.asarray(h.matrix, dtype=np.clongdouble) * dt)
    x = np.asarray(position(h.space, 1).matrix, dtype=np.clongdouble)
    v = np.asarray(psi0.vector, dtype=np.clongdouble)
    out = np.empty(len(times), dtype=np.longdouble)
    for i in range(len(times)):
        if i:
            v = u @ v
        xv = x @ v
        m1 = np.vdot(v, xv).real
        out[i] = np.vdot(xv, xv).real - m1 * m1
    return out


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is only double precision here")
class TestExtendedPrecisionOracle:
    """`evolve_unitary` against a longdouble propagator on validate_adiabatic.cfg's legs.

    Both engines start from the same double-precision H and psi0, so the
    difference is the propagation round-off alone.  The oracle agrees with
    itself to 4e-16 when its scaling threshold drops from 1/4 to 1/50.
    """

    @pytest.fixture(scope="class")
    def legs(self):
        cfg = parse_config((SCRIPTS / "validate_adiabatic.cfg").read_text())
        p, o = cfg.params, cfg.options
        times = np.linspace(0.0, o["horizon"], o["n_times"])
        e1 = atomic_coupling_spectrum(p).e1
        out = {}
        for name, levels in (("full", 3), ("as_written", 2)):
            space = hybrid_space(o["d_cav"], o["d_mech"], levels)
            h = (build_full_hamiltonian(p, space) if levels == 3
                 else build_two_level_hamiltonian(p, space, "as-written"))
            atom = np.zeros(levels, dtype=complex)
            atom[:2] = e1
            psi0 = QuantumState.pure(space, np.kron(np.eye(o["d_cav"] * o["d_mech"])[0], atom))
            got = variance_trajectory(evolve_unitary(h, psi0, times), 1, "X").values
            out[name] = (x_variance_clongdouble(h, psi0, times), got)
        return out

    def test_pins_unitary_variances(self, legs):
        # measured on the eigh engine: 2.4e-16 (full, 192 dims) and 2.7e-16
        # (as-written, 128 dims); the bound is 3.7 times the larger
        for ref, got in legs.values():
            assert float(np.max(np.abs(got - ref))) <= 1e-15

    def test_two_level_deviation_beside_committed(self, capsys, legs):
        # the committed field is the double engine's value; the gap to the
        # oracle measured on the eigh engine is 1.7e-9 relative, and the
        # bound is 6 times that
        (full, _), (aw, _) = legs["full"], legs["as_written"]
        oracle = float(np.max(np.abs(aw - full) / full))
        csv = (SCRIPTS / "out" / "validate_adiabatic.csv").read_text().splitlines()
        rows = dict(line.split(",") for line in csv if not line.startswith("#"))
        committed = float(rows["deviation_full_vs_two_level_as_written"])
        gap = abs(committed - oracle) / oracle
        with capsys.disabled():
            print(f"\ndeviation_full_vs_two_level_as_written: oracle {oracle:.9e}, "
                  f"committed {committed:.12g}, relative gap {gap:.1e}")
        assert gap <= 1e-8
