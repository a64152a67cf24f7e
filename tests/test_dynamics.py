"""Tests for the evolution routes, cross-validated against each other.

The covariance route is checked against a brute-force ODE integration, the
wavefunction and eigendecomposition routes against the covariance route and
the closed forms, and the master-equation route against decay/steady-state
facts it cannot inherit from any of the above.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from optosqueeze.analytic import position_variance, s_max
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
    build_effective_hamiltonian,
    build_full_hamiltonian,
    hybrid_space,
    oscillator_space,
)
from optosqueeze.operators import (
    Fock,
    HilbertSpace,
    Operator,
    QuantumState,
    annihilation,
    basis_state,
    momentum,
    number,
    position,
    thermal_state,
    vacuum_state,
)


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
            for i in range(times.size):
                assert np.allclose(traj.states[i].mean, means[i], atol=1e-9)
                assert np.allclose(traj.states[i].cov, covs[i], atol=1e-9)

    def test_free_oscillator_vacuum_is_stationary(self):
        times = np.linspace(0.0, 10.0, 41)
        traj = covariance_evolve(0.0, 1.0, 0.0, 0.0, CovarianceState.vacuum(), times)
        for cs in traj.states:
            assert np.allclose(cs.cov, np.diag([0.25, 0.25]), atol=1e-12)

    def test_free_oscillator_mean_rotates(self):
        init = CovarianceState(mean=np.array([1.0, 0.0]), cov=np.diag([0.25, 0.25]))
        traj = covariance_evolve(0.0, 1.0, 0.0, 0.0, init, np.array([0.0, math.pi / 2.0]))
        assert np.allclose(traj.states[1].mean, [0.0, -1.0], atol=1e-12)

    def test_quarter_period_squeezing(self):
        # g = omega_m = 1: variance dips to (1/4)(1 - 4/5) = 1/20 at q t = pi/2
        q = math.sqrt(5.0)
        traj = covariance_evolve(
            1.0, 1.0, 0.0, 0.0, CovarianceState.vacuum(), np.array([0.0, math.pi / (2.0 * q)])
        )
        assert traj.states[1].cov[0, 0] == pytest.approx(0.05, abs=1e-12)
        # pure Gaussian state stays at the uncertainty floor
        assert np.linalg.det(traj.states[1].cov) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        g, nbar = 1.7, 3.0
        times = np.linspace(0.0, 6.0, 60)
        traj = covariance_evolve(g, 1.0, 0.0, nbar, CovarianceState.thermal(nbar), times)
        ts = variance_trajectory(traj, "X")
        ref = np.array([position_variance(g, 1.0, nbar, t) for t in times])
        assert np.allclose(ts.values, ref, rtol=1e-12, atol=0.0)

    def test_damped_steady_state_is_thermal(self):
        nbar = 3.0
        times = np.array([0.0, 60.0])
        traj = covariance_evolve(0.0, 1.0, 0.8, nbar, CovarianceState.vacuum(), times)
        assert np.allclose(traj.states[1].cov, np.diag([1.75, 1.75]), atol=1e-6)
        assert np.allclose(traj.states[1].mean, 0.0, atol=1e-12)

    def test_nonzero_start_time(self):
        init = CovarianceState(mean=np.array([0.2, 0.1]), cov=np.diag([0.3, 0.3]))
        a = covariance_evolve(0.8, 1.0, 0.2, 1.0, init, np.array([0.0, 1.5]))
        b = covariance_evolve(0.8, 1.0, 0.2, 1.0, init, np.array([2.0, 3.5]))
        assert np.allclose(a.states[1].cov, b.states[1].cov, atol=1e-13)

    def test_hyperbolic_regime_variance_grows(self):
        # omega_m (omega_m + 4g) < 0: X-variance is 0.25 (1 + 6 sinh^2 mu t)
        times = np.linspace(0.0, 3.0, 10)
        traj = covariance_evolve(-0.3, 1.0, 0.0, 0.0, CovarianceState.vacuum(), times)
        mu = math.sqrt(0.2)
        for i, t in enumerate(times):
            ref = 0.25 * (1.0 + 6.0 * math.sinh(mu * t) ** 2)
            assert traj.states[i].cov[0, 0] == pytest.approx(ref, rel=1e-10)

    def test_rejects_bad_arguments(self):
        init = CovarianceState.vacuum()
        with pytest.raises(ValueError):
            covariance_evolve(1.0, 1.0, -0.1, 0.0, init, [0.0, 1.0])
        with pytest.raises(ValueError):
            covariance_evolve(1.0, 1.0, 0.0, -1.0, init, [0.0, 1.0])
        with pytest.raises(ValueError):
            covariance_evolve(1.0, 1.0, 0.0, 0.0, init, [0.0, 1.0, 0.5])

    @settings(max_examples=40, deadline=None)
    @given(
        g=st.floats(min_value=-0.2, max_value=5.0),
        t=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_closed_evolution_preserves_purity(self, g, t):
        # gamma = 0 keeps det(cov) at the 1/16 floor for any quadratic g
        traj = covariance_evolve(g, 1.0, 0.0, 0.0, CovarianceState.vacuum(), np.array([0.0, t]))
        assert np.linalg.det(traj.states[-1].cov) == pytest.approx(1.0 / 16.0, abs=1e-11)


class TestEvolveUnitary:
    def test_number_state_statistics_static(self):
        space = oscillator_space(12)
        h = Operator(space, np.diag(np.arange(12)).astype(complex))
        psi0 = basis_state(space, [3])
        traj = evolve_unitary(h, psi0, np.linspace(0.0, 7.0, 30))
        ts = variance_trajectory(traj, "X")
        assert np.allclose(ts.values, 7.0 / 4.0, atol=1e-12)
        assert traj.meta["norm_max_dev"] < 1e-12

    def test_matches_covariance_route(self):
        space = oscillator_space(64)
        h = build_effective_hamiltonian(1.0, 1.0, space)
        q = math.sqrt(5.0)
        times = np.linspace(0.0, 2.0 * math.pi / q, 80)
        traj = evolve_unitary(h, vacuum_state(space), times)
        ts = variance_trajectory(traj, "X")
        ref = covariance_evolve(1.0, 1.0, 0.0, 0.0, CovarianceState.vacuum(), times)
        refv = variance_trajectory(ref, "X")
        assert np.allclose(ts.values, refv.values, rtol=0.0, atol=1e-9)
        assert max(traj.meta["tail_max"].values()) < 1e-6

    def test_minimum_at_quarter_period(self):
        space = oscillator_space(64)
        h = build_effective_hamiltonian(1.0, 1.0, space)
        q = math.sqrt(5.0)
        times = np.linspace(0.0, math.pi / q, 201)  # index 100 sits at q t = pi/2
        ts = variance_trajectory(evolve_unitary(h, vacuum_state(space), times), "X")
        assert ts.values[100] == pytest.approx(0.05, abs=1e-9)

    def test_conjugate_quadrature_antisqueezes(self):
        space = oscillator_space(64)
        h = build_effective_hamiltonian(1.0, 1.0, space)
        q = math.sqrt(5.0)
        times = np.array([0.0, math.pi / (2.0 * q)])
        traj = evolve_unitary(h, vacuum_state(space), times)
        vx = variance_trajectory(traj, "X").values[1]
        vp = variance_trajectory(traj, "P").values[1]
        assert vp == pytest.approx(1.25, rel=1e-8)
        assert vx * vp == pytest.approx(1.0 / 16.0, abs=1e-9)

    def test_truncation_is_reported_not_hidden(self):
        space = oscillator_space(4)
        h = build_effective_hamiltonian(1.0, 1.0, space)
        traj = evolve_unitary(h, vacuum_state(space), np.linspace(0.0, 3.0, 40))
        assert traj.meta["tail_flag"]
        assert traj.meta["tail_max"][0] > 1e-6

    def test_rejections(self):
        space = oscillator_space(6)
        h = build_effective_hamiltonian(0.5, 1.0, space)
        psi0 = vacuum_state(space)
        bad = Operator(space, np.triu(np.ones((6, 6), dtype=complex)))
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_unitary(bad, psi0, [0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="pure"):
            evolve_unitary(h, thermal_state(space, 0, 1.0), [0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="uniform"):
            evolve_unitary(h, psi0, [0.0, 0.1, 0.3])
        with pytest.raises(ValueError, match="space"):
            evolve_unitary(h, vacuum_state(oscillator_space(8)), [0.0, 0.1])


def dense_moments_reference(h, state, times):
    """<X>, <X^2> and the top-two-level tail by the former dense route.

    One dense `eigh` of the whole H, X^2 as the truncated-space product
    X @ X, and one phase sum per time point; independent of the parity
    split that `exact_quadrature_moments` uses.
    """
    evals, v = np.linalg.eigh(h.matrix)
    d = h.space.total_dim
    xt = v.conj().T @ position(h.space, 0).matrix @ v
    mask = np.zeros(d)
    mask[-2:] = 1.0
    pt = v.conj().T @ (mask[:, None] * v)
    rho_t = (v.conj().T @ state.density() @ v).T
    out = np.empty((3, len(times)))
    for i, ti in enumerate(times):
        ph = np.exp(1j * evals * ti)
        for row, a in enumerate((xt, xt @ xt, pt)):
            out[row, i] = (ph @ ((a * rho_t) @ ph.conj())).real
    return out


class TestExactQuadratureMoments:
    def test_matches_dense_reference_for_thermal_state(self):
        space = oscillator_space(64)
        h = build_effective_hamiltonian(0.8, 1.0, space)
        state = thermal_state(space, 0, 2.0)
        times = np.linspace(0.0, 2.0 * math.pi / math.sqrt(4.2), 60)
        got = np.array(exact_quadrature_moments(h, state, times))
        ref = dense_moments_reference(h, state, times)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12)
        assert np.all(got[0] == 0.0)  # no even-odd coherence, so <X> vanishes

    def test_matches_dense_reference_for_parity_mixed_pure_state(self):
        space = oscillator_space(64)
        h = build_effective_hamiltonian(0.8, 1.0, space)
        v = np.zeros(64, dtype=complex)
        v[:2] = 1.0 / math.sqrt(2.0)  # (|0> + |1>)/sqrt(2)
        psi = QuantumState.pure(space, v)
        times = np.linspace(0.0, 4.0, 60)
        got = np.array(exact_quadrature_moments(h, psi, times))
        ref = dense_moments_reference(h, psi, times)
        assert np.max(np.abs(ref[0])) > 0.1  # the even-odd block drives <X>
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12)

    def test_rejects_hamiltonians_off_the_parity_bands(self):
        space = oscillator_space(8)
        b = annihilation(space, 0)
        driven = build_effective_hamiltonian(0.5, 1.0, space) + 0.3 * (b + b.dag())
        with pytest.raises(ValueError, match=r"\+-2 diagonals"):
            exact_quadrature_moments(driven, vacuum_state(space), [0.0, 1.0])
        composite = HilbertSpace((Fock(4), Fock(3)))
        h = number(composite, 0) + number(composite, 1)
        with pytest.raises(ValueError, match="single Fock factor"):
            exact_quadrature_moments(h, vacuum_state(composite), [0.0, 1.0])

    def test_agrees_with_wavefunction_route_for_pure_states(self):
        space = oscillator_space(30)
        h = build_effective_hamiltonian(0.5, 1.0, space)
        times = np.linspace(0.0, 2.0 * math.pi, 50)
        m1, m2, tail = exact_quadrature_moments(h, vacuum_state(space), times)
        ts = variance_trajectory(evolve_unitary(h, vacuum_state(space), times), "X")
        assert np.allclose(m2 - m1**2, ts.values, atol=1e-10)
        assert np.max(tail) < 1e-8

    def test_free_thermal_state_is_stationary(self):
        space = oscillator_space(200)
        h = build_effective_hamiltonian(0.0, 1.0, space)
        state = thermal_state(space, 0, 10.0)
        m1, m2, _ = exact_quadrature_moments(h, state, np.linspace(0.0, 5.0, 11))
        assert np.allclose(m1, 0.0, atol=1e-10)
        assert np.allclose(m2, 21.0 / 4.0, rtol=1e-6)
        assert np.std(m2) < 1e-10

    def test_thermal_squeezing_matches_closed_form(self):
        # twice the starting-policy dimension buys ~1e-13 relative accuracy
        nbar, g = 1.0, 1.0
        d = 2 * mech_dim_start(nbar, g, 1.0)
        space = oscillator_space(d)
        h = build_effective_hamiltonian(g, 1.0, space)
        state = thermal_state(space, 0, nbar)
        times = np.linspace(0.0, 2.0 * math.pi / math.sqrt(5.0), 40)
        m1, m2, tail = exact_quadrature_moments(h, state, times)
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
        traj = evolve_lindblad(h, [(b, gamma)], basis_state(space, [1]), times)
        n = number(space, 0).matrix
        occ = np.einsum("tij,ji->t", traj.rhos, n).real
        assert np.allclose(occ, np.exp(-gamma * times), atol=1e-8)

    def test_detailed_balance_reaches_truncated_thermal(self):
        d, nbar, gamma = 30, 0.5, 1.0
        space = oscillator_space(d)
        h = build_effective_hamiltonian(0.0, 1.0, space)
        b = annihilation(space, 0)
        ops = [(b, gamma * (nbar + 1.0)), (b.dag(), gamma * nbar)]
        traj = evolve_lindblad(h, ops, vacuum_state(space), np.array([0.0, 30.0]))
        w = (nbar / (nbar + 1.0)) ** np.arange(d)
        ref_mean = float((np.arange(d) * w).sum() / w.sum())
        occ = float(np.einsum("ij,ji->", traj.rhos[-1], number(space, 0).matrix).real)
        assert occ == pytest.approx(ref_mean, rel=1e-6)

    def test_matches_covariance_route_with_damping(self):
        # the only route pair that shares neither equations nor integrator
        d, g, gamma, nbar = 32, 0.3, 0.4, 0.3
        space = oscillator_space(d)
        h = build_effective_hamiltonian(g, 1.0, space)
        b = annihilation(space, 0)
        ops = [(b, gamma * (nbar + 1.0)), (b.dag(), gamma * nbar)]
        times = np.linspace(0.0, 6.0, 25)
        traj = evolve_lindblad(h, ops, vacuum_state(space), times)
        assert not traj.meta["tail_flag"]
        vx = variance_trajectory(traj, "X").values
        ref = variance_trajectory(
            covariance_evolve(g, 1.0, gamma, nbar, CovarianceState.vacuum(), times), "X"
        ).values
        assert np.allclose(vx, ref, rtol=1e-6)

    def test_no_collapse_matches_unitary(self):
        space = oscillator_space(24)
        h = build_effective_hamiltonian(1.0, 1.0, space)
        times = np.linspace(0.0, 2.0, 15)
        traj = evolve_lindblad(h, [], vacuum_state(space), times)
        ref = variance_trajectory(evolve_unitary(h, vacuum_state(space), times), "X")
        assert np.allclose(variance_trajectory(traj, "X").values, ref.values, atol=1e-7)

    def test_trace_and_positivity_meta(self):
        space = oscillator_space(10)
        h = build_effective_hamiltonian(0.2, 1.0, space)
        traj = evolve_lindblad(
            h, [(annihilation(space, 0), 0.5)], basis_state(space, [2]), np.linspace(0.0, 4.0, 9)
        )
        assert traj.meta["trace_max_dev"] < 1e-9
        assert traj.meta["final_eigmin"] > -1e-8

    def test_rejections(self):
        space = oscillator_space(6)
        h = build_effective_hamiltonian(0.5, 1.0, space)
        rho0 = vacuum_state(space)
        with pytest.raises(ValueError, match="rate"):
            evolve_lindblad(h, [(annihilation(space, 0), -1.0)], rho0, [0.0, 1.0])
        with pytest.raises(ValueError, match="space"):
            evolve_lindblad(h, [(annihilation(oscillator_space(8), 0), 1.0)], rho0, [0.0, 1.0])


class TestVarianceTrajectory:
    def test_quadrature_validation(self):
        traj = covariance_evolve(0.0, 1.0, 0.0, 0.0, CovarianceState.vacuum(), [0.0, 1.0])
        with pytest.raises(ValueError, match="quadrature"):
            variance_trajectory(traj, "Y")

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
        got = variance_trajectory(traj, quadrature).values
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    def test_covariance_p_column(self):
        q = math.sqrt(5.0)
        traj = covariance_evolve(
            1.0, 1.0, 0.0, 0.0, CovarianceState.vacuum(), np.array([0.0, math.pi / (2.0 * q)])
        )
        assert variance_trajectory(traj, "P").values[1] == pytest.approx(1.25, rel=1e-12)


class TestDimensionPolicy:
    def test_starting_dimensions(self):
        assert mech_dim_start(0.0, 1.0, 1.0) == 40
        assert mech_dim_start(10.0, 2.0, 1.0) == 1512
        assert mech_dim_start(0.0, 0.0, 1.0) == 16

    def test_adaptive_series_recovers_from_small_start(self):
        q = math.sqrt(5.0)
        times = np.linspace(0.0, math.pi / q, 51)
        ts = effective_variance_series(1.0, 1.0, 0.0, times, d_start=4)
        ref = np.array([position_variance(1.0, 1.0, 0.0, t) for t in times])
        # a 1e-6 tail bound translates to ~1e-5 variance accuracy
        assert np.allclose(ts.values, ref, rtol=0.0, atol=5e-5)
        assert ts.meta["d_mech"] > 4
        assert max(ts.meta["tail_max"].values()) <= 1e-6

    def test_adaptive_series_thermal_route(self):
        times = np.linspace(0.0, 2.0, 21)
        ts = effective_variance_series(0.5, 1.0, 1.0, times)
        ref = np.array([position_variance(0.5, 1.0, 1.0, t) for t in times])
        # accuracy at the accepted dimension is tail-limited, ~1e-7 relative
        assert np.allclose(ts.values, ref, rtol=1e-5)
        assert ts.meta["method"] == "eigh-moments"

    def test_cap_raises(self):
        with pytest.raises(TruncationError, match="cap"):
            effective_variance_series(5.0, 1.0, 0.0, np.linspace(0.0, 2.0, 11), d_start=4, d_cap=8)


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            TimeSeries(np.array([0.0, 1.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError, match="equal length"):
            TimeSeries(np.array([0.0, 1.0]), np.zeros(3))


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
            include_lindblad=True,
            lindblad_dims=(4, 8),
            lindblad_n_times=30,
            lindblad_rtol=1e-8,
            lindblad_atol=1e-10,
        )
        assert rep.smax_closed is not None and math.isfinite(rep.smax_closed)
        assert rep.smax_open is not None and math.isfinite(rep.smax_open)
        assert rep.smax_degradation is not None
        assert rep.dims["lindblad"] == (4, 8)

    def test_atom_init_forms(self):
        p = ModelParams(delta=20.0, Delta=100.0, g1=1.0, Omega=1.0, g2=0.02, eps=0.0)
        with pytest.raises(ValueError, match="e1"):
            validate_adiabatic_chain(p, "ground", horizon=1.0)
        with pytest.raises(ValueError, match="nonzero"):
            validate_adiabatic_chain(p, [0.0, 0.0], horizon=1.0)
