"""Tests for the closed-form layer.

The module computes variances through the Bogoliubov coefficients; the
tests re-evaluate the explicit closed brackets (independent arithmetic) and
fixed hand-computed numbers, so a transcription slip in either path shows
up as a mismatch.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optosqueeze.analytic import (
    BogoliubovCoeffs,
    OverdampedError,
    UnstableRegimeError,
    bogoliubov,
    critical_frequencies,
    position_variance,
    s_max,
    spectrum_analytic,
    thermal_V,
)
from optosqueeze.model import ModelParams


def thermal_occupation(x):
    """nbar = 1/(e^x - 1) for x = hbar omega_m / k_B T > 0."""
    if x <= 0:
        raise ValueError("hbar omega_m / k_B T must be > 0")
    return 1.0 / math.expm1(x)


def squeezing_db(g_eff, omega_m, t):
    """S(t) = -10 log10 of the uncertainty ratio against the free oscillator.

    The thermal factor V cancels in the ratio, so S does not depend on
    nbar; S(t) peaks at q t = pi/2 with the value given by `s_max`.
    """
    bc = bogoliubov(g_eff, omega_m, t)
    u = bc.r + bc.s.conjugate()
    ratio2 = float(abs(u) ** 2)  # variance ratio, free oscillator has |r + s*|^2 = 1
    return -5.0 * math.log10(ratio2)


stable_g = st.floats(min_value=-0.24, max_value=10.0, allow_nan=False)


class TestBogoliubov:
    def test_identity_at_t0(self):
        bc = bogoliubov(1.3, 1.0, 0.0)
        assert bc.r == pytest.approx(1.0)
        assert bc.s == pytest.approx(0.0)

    def test_quarter_period_values(self):
        # g=1, omega_m=1: k=3, q=sqrt(5); at qt=pi/2 r=-3i/sqrt5, s=-2i/sqrt5
        q = math.sqrt(5.0)
        bc = bogoliubov(1.0, 1.0, (math.pi / 2) / q)
        assert bc.q == pytest.approx(q, rel=1e-15)
        assert bc.k == pytest.approx(3.0)
        assert bc.r == pytest.approx(-3j / q, abs=1e-12)
        assert bc.s == pytest.approx(-2j / q, abs=1e-12)
        # symplectic check by hand: (9 - 4)/5 = 1
        assert abs(bc.r) ** 2 - abs(bc.s) ** 2 == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(g=stable_g, t=st.floats(-20.0, 20.0, allow_nan=False))
    def test_symplectic_invariant(self, g, t):
        bc = bogoliubov(g, 1.0, t)
        assert abs(bc.r) ** 2 - abs(bc.s) ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 0.5), (1.0, math.nan, 0.5), (1.0, 1.0, math.inf)])
    def test_non_finite_input_rejected(self, args):
        # a NaN q^2 fails "q2 <= 0" and would give NaN coefficients
        with pytest.raises(ValueError, match="finite") as info:
            bogoliubov(*args)
        assert not isinstance(info.value, UnstableRegimeError)

    def test_unstable_regime_raises(self):
        with pytest.raises(UnstableRegimeError):
            bogoliubov(-0.3, 1.0, 0.5)
        with pytest.raises(UnstableRegimeError):
            bogoliubov(-0.25, 1.0, 0.5)  # q = 0 boundary included


class TestThermalFactors:
    def test_values(self):
        assert thermal_V(0.0) == 1.0
        assert thermal_V(10.0) == 21.0
        assert thermal_V(0.5) == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            thermal_V(-0.1)

    @pytest.mark.parametrize("nbar", [math.nan, math.inf])
    def test_non_finite_rejected(self, nbar):
        with pytest.raises(ValueError, match="nbar"):
            thermal_V(nbar)

    def test_occupation_inverse(self):
        assert thermal_occupation(math.log(1.1)) == pytest.approx(10.0, rel=1e-12)
        with pytest.raises(ValueError):
            thermal_occupation(0.0)


def bracket_variance(g, omega_m, nbar, t):
    # independent path: the explicit closed bracket
    q = math.sqrt(omega_m * (omega_m + 4.0 * g))
    v = 2.0 * nbar + 1.0
    return 0.25 * v * (1.0 - (4.0 * g / (4.0 * g + omega_m)) * math.sin(q * t) ** 2)


class TestPositionVariance:
    def test_free_oscillator_is_vacuum_flat(self):
        for t in (0.0, 0.31, 2.9):
            assert position_variance(0.0, 1.0, 0.0, t) == pytest.approx(0.25, abs=1e-15)

    def test_minimum_vacuum(self):
        q = math.sqrt(5.0)
        assert position_variance(1.0, 1.0, 0.0, (math.pi / 2) / q) == pytest.approx(0.05, abs=1e-12)

    def test_minimum_thermal(self):
        # V=21 scales the vacuum minimum 0.05 to 1.05 = (V/4) omega_m/(4g+omega_m)
        q = math.sqrt(5.0)
        assert position_variance(1.0, 1.0, 10.0, (math.pi / 2) / q) == pytest.approx(1.05, abs=1e-12)

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -0.1])
    def test_bad_occupation_rejected(self, nbar):
        # "nbar < 0" alone let NaN through: position_variance(1, 1, nan, 0.5) was nan
        with pytest.raises(ValueError, match="nbar"):
            position_variance(1.0, 1.0, nbar, 0.5)

    @settings(max_examples=80, deadline=None)
    @given(
        g=st.floats(0.0, 10.0, allow_nan=False),
        nbar=st.floats(0.0, 30.0, allow_nan=False),
        t=st.floats(0.0, 15.0, allow_nan=False),
    )
    def test_matches_closed_bracket(self, g, nbar, t):
        assert position_variance(g, 1.0, nbar, t) == pytest.approx(
            bracket_variance(g, 1.0, nbar, t), abs=1e-12 * (2 * nbar + 1)
        )

    @settings(max_examples=40, deadline=None)
    @given(g=st.floats(1e-3, 10.0, allow_nan=False), nbar=st.floats(0.0, 20.0))
    def test_stationary_minimum_value(self, g, nbar):
        q = math.sqrt(1.0 + 4.0 * g)
        tmin = (math.pi / 2) / q
        v = 2.0 * nbar + 1.0
        assert position_variance(g, 1.0, nbar, tmin) == pytest.approx(
            0.25 * v / (4.0 * g + 1.0), abs=1e-10 * v
        )
        # flat to first order around the minimum
        h = 1e-6
        d = position_variance(g, 1.0, nbar, tmin + h) - position_variance(g, 1.0, nbar, tmin - h)
        assert abs(d) < 1e-8 * v

    @settings(max_examples=40, deadline=None)
    @given(g=st.floats(0.0, 8.0), nbar=st.floats(0.0, 10.0), t=st.floats(0.0, 5.0))
    def test_periodicity(self, g, nbar, t):
        q = math.sqrt(1.0 + 4.0 * g)
        a = position_variance(g, 1.0, nbar, t)
        b = position_variance(g, 1.0, nbar, t + math.pi / q)
        assert a == pytest.approx(b, abs=1e-10 * (2 * nbar + 1))


class TestSqueezingDb:
    def test_zero_coupling(self):
        for t in (0.0, 1.0, 4.0):
            assert squeezing_db(0.0, 1.0, t) == pytest.approx(0.0, abs=1e-12)

    def test_zero_time(self):
        assert squeezing_db(3.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_period_peak(self):
        q = math.sqrt(5.0)
        assert squeezing_db(1.0, 1.0, (math.pi / 2) / q) == pytest.approx(
            5.0 * math.log10(5.0), abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(
        g=st.floats(0.0, 8.0),
        t=st.floats(0.0, 10.0),
        n1=st.floats(0.0, 20.0),
        n2=st.floats(0.0, 20.0),
    )
    def test_independent_of_nbar(self, g, t, n1, n2):
        # ratio route at two temperatures vs the closed form
        s = squeezing_db(g, 1.0, t)
        for nbar in (n1, n2):
            ref = position_variance(0.0, 1.0, nbar, t)
            var = position_variance(g, 1.0, nbar, t)
            assert -10.0 * math.log10(math.sqrt(var / ref)) == pytest.approx(s, abs=1e-12)


class TestSMax:
    def test_fixed_points(self):
        assert s_max(0.0, 1.0) == 0.0
        assert s_max(1.0, 1.0) == pytest.approx(5.0 * math.log10(5.0), abs=1e-14)
        assert s_max(4.0, 1.0) == pytest.approx(5.0 * math.log10(17.0), abs=1e-14)
        # invert the dB values back to variance ratios
        assert 10.0 ** (s_max(1.0, 1.0) / 5.0) == pytest.approx(5.0, rel=1e-12)
        assert 10.0 ** (s_max(4.0, 1.0) / 5.0) == pytest.approx(17.0, rel=1e-12)

    def test_attained_by_time_maximum(self):
        g = 2.3
        q = math.sqrt(1.0 + 4.0 * g)
        assert squeezing_db(g, 1.0, (math.pi / 2) / q) == pytest.approx(s_max(g, 1.0), abs=1e-12)

    def test_monotone_in_g(self):
        grid = np.linspace(0.0, 8.0, 200)
        vals = [s_max(g, 1.0) for g in grid]
        assert np.all(np.diff(vals) > 0)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            s_max(-0.1, 1.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_non_finite_input_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            s_max(*args)

    @pytest.mark.parametrize("args", [(1.0, 0.0), (0.1, -1.0)])
    def test_non_positive_omega_m_rejected(self, args):
        # omega_m = 0 divided by zero, and omega_m < 0 returned a finite dB value (-1.109 at (0.1, -1))
        with pytest.raises(ValueError, match=r"omega_m > 0, got g_eff=.*, omega_m="):
            s_max(*args)


class TestSpectrumAnalytic:
    def test_worked_point(self):
        # omega=0, gamma=omega_m=g_eff=1, nbar=10: by direct substitution
        # P = 11(1/4 + 1) + 10(1/4 + 1) = 26.25, Q = (1/4 + 5)^2 = 27.5625,
        # so the variance is 5/21, the value both Langevin routes give
        p = ModelParams(gamma=1.0, nbar=10.0)
        pt = spectrum_analytic(p, 1.0, 0.0)
        assert pt.P == pytest.approx(26.25, abs=1e-12)
        assert pt.Q == pytest.approx(27.5625, abs=1e-12)
        assert pt.variance == pytest.approx(5.0 / 21.0, rel=1e-12)
        assert pt.variance == pytest.approx(0.25 * pt.P / pt.Q, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(omega=st.floats(-6.0, 6.0), nbar=st.floats(0.0, 20.0), gamma=st.floats(0.01, 3.0))
    def test_zero_coupling_reduction(self, omega, nbar, gamma):
        p = ModelParams(gamma=gamma, nbar=nbar)
        pt = spectrum_analytic(p, 0.0, omega)
        half = gamma / 2.0
        ref = (nbar + 1.0) * (half**2 + (omega + 1.0) ** 2) + nbar * (half**2 + (omega - 1.0) ** 2)
        assert pt.P == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(omega=st.floats(0.0, 6.0), g=st.floats(0.0, 5.0), gamma=st.floats(0.01, 3.0))
    def test_Q_symmetric_in_omega(self, omega, g, gamma):
        p = ModelParams(gamma=gamma, nbar=3.0)
        assert spectrum_analytic(p, g, omega).Q == spectrum_analytic(p, g, -omega).Q

    def test_gamma_required_positive(self):
        with pytest.raises(ValueError):
            spectrum_analytic(ModelParams(gamma=0.0), 1.0, 0.0)

    def test_no_stationary_state_rejected(self):
        # growth rate sqrt(2.6) beats gamma/2 = 0.5: both numeric routes raise,
        # and the closed form used to return positive values
        with pytest.raises(UnstableRegimeError):
            spectrum_analytic(ModelParams(gamma=1.0), -0.9, np.array([0.0, 1.0]))

    def test_grid_matches_per_point_calls(self):
        # a whole grid at once equals one call per frequency, up to the last
        # bits: an array's x**2 is x*x where a scalar's is C pow
        rng = np.random.default_rng(17)
        omegas = np.concatenate([np.linspace(-4.0, 4.0, 2001), rng.uniform(-6.0, 6.0, 500)])
        for g, gamma, nbar in ((0.3, 0.2, 0.5), (1.7, 1.1, 10.0), (0.0, 0.05, 0.0)):
            p = ModelParams(gamma=gamma, nbar=nbar)
            grid = spectrum_analytic(p, g, omegas)
            for field in ("variance", "P", "Q"):
                ref = np.array([getattr(spectrum_analytic(p, g, w), field) for w in omegas])
                assert np.max(np.abs(getattr(grid, field) - ref) / np.abs(ref)) <= 4 * np.finfo(float).eps

    def test_divergence_at_bare_resonance(self):
        # g=0, nbar=0: as gamma shrinks the on-resonance value blows up
        a = spectrum_analytic(ModelParams(gamma=1e-2), 0.0, 1.0).variance
        b = spectrum_analytic(ModelParams(gamma=1e-4), 0.0, 1.0).variance
        assert b > 50.0 * a


class TestCriticalFrequencies:
    def test_worked_point(self):
        p = ModelParams(gamma=1.0)
        lo, hi = critical_frequencies(p, 1.0)
        assert hi == pytest.approx(math.sqrt(4.75), rel=1e-14)
        assert lo == -hi

    def test_bare_resonance_limit(self):
        p = ModelParams(gamma=1e-8)
        _, hi = critical_frequencies(p, 0.0)
        assert hi == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_rejected(self, g):
        # a NaN root argument fails "arg <= 0" and would give (nan, nan)
        with pytest.raises(ValueError, match="g_eff") as info:
            critical_frequencies(ModelParams(gamma=1.0), g)
        assert not isinstance(info.value, OverdampedError)

    def test_overdamped_boundary(self):
        g = 1.0
        gamma = 2.0 * math.sqrt(1.0 * (4.0 * g + 1.0))
        with pytest.raises(OverdampedError):
            critical_frequencies(ModelParams(gamma=gamma), g)
        with pytest.raises(OverdampedError):
            critical_frequencies(ModelParams(gamma=gamma + 1.0), g)

    @settings(max_examples=30, deadline=None)
    @given(g=st.floats(0.0, 5.0), gamma=st.floats(0.05, 1.5), nbar=st.floats(0.0, 15.0))
    def test_minimizes_Q_on_grid(self, g, gamma, nbar):
        p = ModelParams(gamma=gamma, nbar=nbar)
        _, wc = critical_frequencies(p, g)
        grid = np.linspace(-1.5 * wc - 1.0, 1.5 * wc + 1.0, 1201)
        qs = np.array([spectrum_analytic(p, g, w).Q for w in grid])
        # both minima of the symmetric Q sit at +-omega_crit within the grid step
        step = grid[1] - grid[0]
        pos = grid[grid > 0]
        qpos = qs[grid > 0]
        assert abs(pos[np.argmin(qpos)] - wc) <= step

    def test_coeffs_record(self):
        bc = BogoliubovCoeffs(r=1.0 + 0j, s=0j, k=3.0, q=math.sqrt(5.0))
        assert bc.k == 3.0
