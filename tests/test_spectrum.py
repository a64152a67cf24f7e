"""Tests for the numerical spectrum routes.

The frequency-domain inversion and the time-domain Lyapunov/resolvent
route share nothing beyond the model, so their pointwise agreement pins
both; the closed form is checked against them at zero and nonzero
coupling, where all three expressions provably coincide.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid

from optosqueeze import spectrum
from optosqueeze.analytic import (
    OverdampedError,
    UnstableRegimeError,
    critical_frequencies,
    spectrum_analytic,
)
from optosqueeze.model import ModelParams
from optosqueeze.spectrum import (
    SpectrumSeries,
    _checked_real,
    _langevin_variances,
    default_omega_grid,
    find_peaks,
    spectrum_numeric,
    spectrum_regression,
    trend_vs_geff,
)


def params(gamma=1.0, nbar=10.0, omega_m=1.0):
    return ModelParams(delta=20.0, Delta=100.0, g1=1.0, Omega=1.0, g2=0.02, gamma=gamma, nbar=nbar, omega_m=omega_m)


def loop_reference_numeric(p, g_eff, omegas):
    """The Langevin inversion one frequency at a time: one 2x2 inverse per point."""

    def coeffs(omega):
        k = 2.0 * g_eff + p.omega_m
        m = np.array(
            [
                [p.gamma / 2.0 + 1j * (k - omega), 2j * g_eff],
                [-2j * g_eff, p.gamma / 2.0 - 1j * (k + omega)],
            ]
        )
        minv = np.linalg.inv(m)
        return minv[0, 0] + minv[1, 0], minv[0, 1] + minv[1, 1]

    vals = []
    for w in omegas:
        (c1, c2), (c1m, c2m) = coeffs(w), coeffs(-w)
        vals.append(((p.gamma / 4.0) * ((p.nbar + 1.0) * c1 * c2m + p.nbar * c2 * c1m)).real)
    return np.array(vals)


def stacked_inv_reference(p, g_eff, omegas):
    """The Langevin inversion as one stacked LAPACK inverse per sign of omega."""
    g, w = np.broadcast_arrays(np.asarray(g_eff, dtype=float), np.asarray(omegas, dtype=float))
    k = 2.0 * g + p.omega_m

    def coeffs(om):
        m = np.empty(om.shape + (2, 2), dtype=complex)
        m[..., 0, 0] = p.gamma / 2.0 + 1j * (k - om)
        m[..., 0, 1] = 2j * g
        m[..., 1, 0] = -2j * g
        m[..., 1, 1] = p.gamma / 2.0 - 1j * (k + om)
        return np.linalg.inv(m).sum(axis=-2).T

    (c1, c2), (c1m, c2m) = coeffs(w), coeffs(-w)
    return ((p.gamma / 4.0) * ((p.nbar + 1.0) * c1 * c2m + p.nbar * c2 * c1m)).real


def max_rel(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


def loop_reference_peaks(w, v):
    """Strict interior maxima and their parabola vertices, one grid point at a time."""
    out = []
    for i in range(1, w.size - 1):
        if not (v[i] > v[i - 1] and v[i] > v[i + 1]):
            continue
        x0, x1, x2, y0, y1, y2 = w[i - 1], w[i], w[i + 1], v[i - 1], v[i], v[i + 1]
        num = (y0 - y1) * (x2 - x1) ** 2 - (y2 - y1) * (x1 - x0) ** 2
        den = (y0 - y1) * (x2 - x1) + (y2 - y1) * (x1 - x0)
        if den == 0:
            out.append((x1, y1))
            continue
        xs = x1 + 0.5 * num / den
        l0 = (xs - x1) * (xs - x2) / ((x0 - x1) * (x0 - x2))
        l1 = (xs - x0) * (xs - x2) / ((x1 - x0) * (x1 - x2))
        l2 = (xs - x0) * (xs - x1) / ((x2 - x0) * (x2 - x1))
        out.append((xs, y0 * l0 + y1 * l1 + y2 * l2))
    return out


class TestSpectrumSeries:
    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            SpectrumSeries(np.array([0.0, 2.0, 1.0]), np.ones(3))

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError, match="non-negative"):
            SpectrumSeries(np.array([0.0, 1.0]), np.array([1.0, -0.1]))

    def test_default_grid(self):
        w = default_omega_grid()
        assert w.size == 801
        assert w[0] == -4.0 and w[-1] == 4.0

    def test_meta_names_the_route_not_its_arguments(self):
        p, w = params(), np.linspace(-2.0, 2.0, 5)
        assert spectrum_numeric(p, 1.0, w).meta == {"method": "langevin-inversion", "index": "omega"}
        assert spectrum_regression(p, 1.0, w).meta == {"method": "lyapunov-resolvent", "index": "omega"}
        assert trend_vs_geff(p, 1.0, [0.1, 0.2]).meta == {
            "method": "langevin-inversion", "index": "g_eff", "monotone": "decreasing"}


class TestSpectrumNumeric:
    def test_matches_per_point_inversion(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g = rng.uniform(0.0, 4.0)
            p = params(gamma=rng.uniform(0.05, 3.0), nbar=rng.uniform(0.0, 20.0), omega_m=rng.uniform(0.3, 2.0))
            w = np.sort(rng.uniform(-6.0, 6.0, 57))
            s = spectrum_numeric(p, g, w)
            assert np.allclose(s.variances, loop_reference_numeric(p, g, w), rtol=1e-13, atol=0.0)
            assert find_peaks(s) == loop_reference_peaks(w, s.variances)

    def test_complex_spectrum_names_first_bad_frequency(self):
        s = np.array([1.0, 2.0 + 1e-3j, 3.0 + 1.0j])
        with pytest.raises(RuntimeError, match=r"omega=0\.5: \(2\+0\.001j\)$"):
            _checked_real(s, np.array([0.0, 0.5, 1.0]))

    def test_reference_point(self):
        # gamma = g_eff = omega_m = 1, nbar = 10, omega = 0: the response
        # matrix is [[3/2+i, 2i], [-2i, 3/2-i]] up to sign bookkeeping, and
        # the weighted pairing evaluates to exactly 5/21
        s = spectrum_numeric(params(), 1.0, np.array([0.0]))
        assert s.variances[0] == pytest.approx(5.0 / 21.0, rel=1e-12)

    def test_agrees_with_regression_route(self):
        rng = np.random.default_rng(11)
        w = np.linspace(-5.0, 5.0, 41)
        for _ in range(20):
            g = rng.uniform(0.0, 4.0)
            p = params(gamma=rng.uniform(0.05, 3.0), nbar=rng.uniform(0.0, 20.0), omega_m=rng.uniform(0.3, 2.0))
            a = spectrum_numeric(p, g, w)
            b = spectrum_regression(p, g, w)
            assert np.allclose(a.variances, b.variances, rtol=1e-10)

    def test_matches_closed_form_at_zero_coupling(self):
        p = params(gamma=0.7, nbar=3.0)
        w = np.linspace(-4.0, 4.0, 101)
        s = spectrum_numeric(p, 0.0, w)
        ref = np.array([spectrum_analytic(p, 0.0, wi).variance for wi in w])
        assert np.allclose(s.variances, ref, rtol=1e-12)

    def test_damped_free_oscillator_doublet(self):
        # thermal weight puts a resonance on both sides; the vacuum case
        # below has no negative-frequency weight at all
        p = params(gamma=0.2, nbar=1.0)
        peaks = find_peaks(spectrum_numeric(p, 0.0, default_omega_grid()))
        assert len(peaks) == 2
        lo, hi = peaks[0][0], peaks[1][0]
        assert abs(lo + 1.0) < 0.02 and abs(hi - 1.0) < 0.02

    def test_vacuum_free_oscillator_is_single_sided(self):
        # nbar = 0: nothing to emit at negative frequency, so the
        # unsymmetrized density has exactly one peak, at +omega_m, of
        # height (gamma/4) P(omega_m)/Q(omega_m) = 5 for gamma = 0.2
        p = params(gamma=0.2, nbar=0.0)
        peaks = find_peaks(spectrum_numeric(p, 0.0, default_omega_grid()))
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(1.0, abs=1e-3)
        assert peaks[0][1] == pytest.approx(5.0, rel=1e-3)

    def test_non_negative_over_draws(self):
        rng = np.random.default_rng(5)
        w = np.linspace(-6.0, 6.0, 31)
        for _ in range(25):
            p = params(gamma=rng.uniform(0.05, 3.0), nbar=rng.uniform(0.0, 30.0))
            s = spectrum_numeric(p, rng.uniform(0.0, 5.0), w)
            assert np.min(s.variances) >= 0.0

    def test_integrated_spectrum_grows_with_nbar(self):
        w = np.linspace(-8.0, 8.0, 401)
        totals = []
        for nbar in (0.0, 1.0, 5.0, 10.0):
            s = spectrum_numeric(params(nbar=nbar), 1.0, w)
            totals.append(trapezoid(s.variances, w))
        assert np.all(np.diff(totals) > 0)

    def test_two_peaks_near_but_off_the_q_minimum(self):
        # the density peaks sit close to the Q-minimum frequencies, but the
        # frequency dependence of the numerator shifts them outward by a
        # visible fraction of a grid step, so "near" is the true statement
        p = params()
        peaks = find_peaks(spectrum_numeric(p, 1.0, default_omega_grid()))
        assert len(peaks) == 2
        lo, hi = critical_frequencies(p, 1.0)
        assert abs(peaks[0][0] - lo) < 0.15
        assert abs(peaks[1][0] - hi) < 0.15
        assert peaks[0][1] > 0 and peaks[1][1] > 0

    def test_hyperbolic_but_damped_regime_is_fine(self):
        # omega_m(omega_m + 4 g_eff) < 0 still has a stationary state when
        # gamma/2 exceeds the growth rate
        p = params(gamma=2.0, nbar=1.0)
        w = np.linspace(-3.0, 3.0, 61)
        a = spectrum_numeric(p, -0.3, w)
        b = spectrum_regression(p, -0.3, w)
        assert np.min(a.variances) >= 0.0
        assert np.allclose(a.variances, b.variances, rtol=1e-10)

    def test_rejects_unstable_and_undamped(self):
        with pytest.raises(UnstableRegimeError):
            spectrum_numeric(params(gamma=0.1), -0.3, np.array([0.0]))
        with pytest.raises(ValueError, match="gamma"):
            spectrum_numeric(ModelParams(delta=20.0, Delta=100.0, gamma=0.0), 1.0, np.array([0.0]))
        with pytest.raises(ValueError, match="grid"):
            spectrum_numeric(params(), 1.0, np.array([np.inf]))

    @pytest.mark.parametrize("route", [spectrum_numeric, spectrum_regression, spectrum_analytic])
    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coupling(self, route, g):
        # a NaN q^2 slipped past the stability test: spectrum_numeric and
        # spectrum_analytic gave all-NaN values, spectrum_regression a scipy error
        with pytest.raises(ValueError, match="g_eff") as info:
            route(params(), g, np.linspace(-1.0, 1.0, 5))
        assert not isinstance(info.value, UnstableRegimeError)


class TestAdjugateAgainstStackedInverse:
    """The closed-form 2x2 inverse against the stacked LAPACK one, on 20,001 points.

    Near the stability edge (gamma = 1, g_eff = -0.3124: growth rate
    0.9992 gamma/2) the response matrix is nearly singular at omega = 0.
    Measured there: adjugate against inverse 2.8e-13, and both against
    `spectrum_regression` 1.0e-12 at nbar = 3 and 5.2e-12 at nbar = 0.
    Away from the edge all three agree to 4e-14 or better.  The bounds
    below are about three times the measured values.
    """

    W = np.linspace(-4.0, 4.0, 20001)
    EDGE_G = -0.3124

    @pytest.mark.parametrize("nbar, bound_reg", [(3.0, 3e-12), (0.0, 1.5e-11)])
    def test_near_the_stability_edge(self, nbar, bound_reg):
        p = params(gamma=1.0, nbar=nbar)
        assert 0.999 * 0.5 < math.sqrt(-(1.0 + 4.0 * self.EDGE_G)) < 0.5
        adj = _langevin_variances(p, self.EDGE_G, self.W)
        ref = stacked_inv_reference(p, self.EDGE_G, self.W)
        reg = spectrum_regression(p, self.EDGE_G, self.W).variances
        assert max_rel(adj, ref) < 1e-12
        assert max_rel(adj, reg) < bound_reg
        assert max_rel(ref, reg) < bound_reg

    @pytest.mark.parametrize("g, gamma, nbar", [(1.0, 1.0, 10.0), (0.5, 0.3, 0.0), (0.0, 1.0, 0.0), (3.0, 2.5, 20.0)])
    def test_away_from_the_edge(self, g, gamma, nbar):
        p = params(gamma=gamma, nbar=nbar)
        adj = _langevin_variances(p, g, self.W)
        assert max_rel(adj, stacked_inv_reference(p, g, self.W)) < 1e-13
        assert max_rel(adj, spectrum_regression(p, g, self.W).variances) < 1e-13

    def test_coupling_grid(self):
        p = params(gamma=1.0, nbar=3.0)
        grid = np.linspace(0.0, 5.0, 4000)
        assert max_rel(_langevin_variances(p, grid, 1.0), stacked_inv_reference(p, grid, 1.0)) < 1e-13

    def test_memory_peak(self):
        # the (n, 2, 2) complex stacks and their inverses peaked at 3.97 MiB on
        # this grid; the elementwise adjugate peaks at 3.05 MiB
        p = params(gamma=1.0, nbar=3.0)
        spectrum_numeric(p, 1.0, self.W)  # first call outside the trace
        tracemalloc.start()
        try:
            spectrum_numeric(p, 1.0, self.W)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20


class TestSpectrumRegression:
    def test_reference_point(self):
        s = spectrum_regression(params(), 1.0, np.array([0.0]))
        assert s.variances[0] == pytest.approx(5.0 / 21.0, rel=1e-12)

    def test_zero_coupling_closed_form(self):
        p = params(gamma=1.3, nbar=7.0)
        w = np.linspace(-3.0, 3.0, 25)
        s = spectrum_regression(p, 0.0, w)
        ref = np.array([spectrum_analytic(p, 0.0, wi).variance for wi in w])
        assert np.allclose(s.variances, ref, rtol=1e-10)

    def test_closed_form_at_nonzero_coupling(self):
        rng = np.random.default_rng(17)
        w = np.linspace(-4.0, 4.0, 81)
        for _ in range(20):
            g = rng.uniform(0.05, 4.0)
            p = params(gamma=rng.uniform(0.1, 3.0), nbar=rng.uniform(0.0, 20.0), omega_m=rng.uniform(0.3, 2.0))
            s = spectrum_regression(p, g, w)
            ref = np.array([spectrum_analytic(p, g, wi).variance for wi in w])
            assert np.allclose(s.variances, ref, rtol=1e-12, atol=0.0)


class TestFindPeaks:
    def test_matches_per_point_scan(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            w = np.cumsum(rng.uniform(0.01, 1.0, 200))
            v = rng.uniform(0.0, 1.0, 200)
            v[rng.integers(0, 200, 20)] = 0.5  # plateaus and ties
            assert find_peaks(SpectrumSeries(w, v)) == loop_reference_peaks(w, v)

    def test_exact_on_a_parabola(self):
        w = np.linspace(-2.0, 2.0, 21)
        v = 10.0 - (w - 0.37) ** 2
        peaks = find_peaks(SpectrumSeries(w, v))
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(0.37, abs=1e-12)
        assert peaks[0][1] == pytest.approx(10.0, abs=1e-12)

    def test_two_gaussians(self):
        w = np.linspace(-5.0, 5.0, 501)
        v = np.exp(-((w + 2.0) ** 2) / 0.5) + 0.7 * np.exp(-((w - 1.5) ** 2) / 0.3)
        peaks = find_peaks(SpectrumSeries(w, v))
        assert len(peaks) == 2
        assert peaks[0][0] == pytest.approx(-2.0, abs=1e-3)
        assert peaks[1][0] == pytest.approx(1.5, abs=1e-3)

    def test_monotone_series_has_no_peaks(self):
        w = np.linspace(0.0, 1.0, 30)
        assert find_peaks(SpectrumSeries(w, np.exp(w))) == []

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_three_points_have_no_peak(self, n):
        # no interior point: no peak, and no error
        w = np.arange(float(n))
        assert find_peaks(SpectrumSeries(w, 1.0 + w)) == []

    def test_plateau_is_not_a_strict_maximum(self):
        w = np.linspace(0.0, 4.0, 5)
        v = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
        assert find_peaks(SpectrumSeries(w, v)) == []

    def test_merged_doublet_reports_single_central_peak(self):
        # heavy damping at zero coupling merges the thermal doublet; the
        # surviving peak drifts toward omega = 0 as gamma nbar grows
        p = params(gamma=8.0, nbar=10.0)
        peaks = find_peaks(spectrum_numeric(p, 0.0, default_omega_grid()))
        assert len(peaks) == 1
        assert abs(peaks[0][0]) < 0.1
        with pytest.raises(OverdampedError):
            critical_frequencies(p, 0.0)


class TestTrendVsGeff:
    def test_decreasing_at_the_mechanical_frequency(self):
        p = params()
        grid = np.linspace(0.1, 5.0, 25)
        s = trend_vs_geff(p, 1.0, grid)
        assert s.meta["monotone"] == "decreasing"
        assert np.all(np.diff(s.variances) < 0)
        assert s.meta["index"] == "g_eff"

    @pytest.mark.parametrize(
        "omega, grid, label, steps",
        [
            (4.0, np.linspace(0.1, 1.0, 25), "increasing", {1.0}),
            (2.0, np.linspace(0.1, 2.0, 25), "none", {1.0, -1.0}),
            (1.0, np.array([0.5]), "none", set()),
        ],
        ids=["increasing", "rises_then_falls", "single_coupling"],
    )
    def test_other_monotone_labels(self, omega, grid, label, steps):
        # the signs of the steps between neighbouring couplings; a single
        # coupling has none
        s = trend_vs_geff(params(), omega, grid)
        assert s.meta["monotone"] == label
        assert set(np.sign(np.diff(s.variances))) == steps

    def test_matches_per_point_inversion(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = params(gamma=rng.uniform(0.05, 3.0), nbar=rng.uniform(0.0, 20.0), omega_m=rng.uniform(0.3, 2.0))
            omega = rng.uniform(-4.0, 4.0)
            grid = np.sort(rng.uniform(0.0, 5.0, 33))
            s = trend_vs_geff(p, omega, grid)
            ref = np.array([loop_reference_numeric(p, g, [omega])[0] for g in grid])
            assert np.allclose(s.variances, ref, rtol=1e-13, atol=0.0)

    def test_continuous_at_zero_coupling(self):
        p = params()
        s = trend_vs_geff(p, 1.0, np.array([0.0, 1e-8, 1e-4]))
        ref = spectrum_numeric(p, 0.0, np.array([1.0])).variances[0]
        assert s.variances[0] == pytest.approx(ref, rel=1e-14)
        assert s.variances[1] == pytest.approx(ref, rel=1e-6)

    def test_gamma_raises_prefactor_wins_at_drifting_critical_frequency(self):
        # at the Q-minimum frequency the density scales like P/(4 gamma
        # omega_m (4 g_eff + omega_m)): the 1/gamma prefactor dominates the
        # gamma^2 growth of P at these scales, so the value FALLS as gamma
        # grows
        vals = []
        for gamma in (0.5, 1.0, 2.0):
            p = params(gamma=gamma)
            _, wc = critical_frequencies(p, 1.0)
            vals.append(spectrum_numeric(p, 1.0, np.array([wc])).variances[0])
        assert vals[0] > vals[1] > vals[2]

    def test_rejects_bad_grids(self):
        p = params()
        with pytest.raises(ValueError, match="non-negative"):
            trend_vs_geff(p, 1.0, np.array([-0.5, 1.0]))
        with pytest.raises(ValueError, match="increasing"):
            trend_vs_geff(p, 1.0, np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            trend_vs_geff(p, np.inf, np.array([0.5, 1.0]))

    def test_rejects_undamped(self):
        with pytest.raises(ValueError, match="gamma"):
            trend_vs_geff(params(gamma=0.0), 1.0, np.array([0.5, 1.0]))

    def test_searches_no_peaks(self, monkeypatch):
        # no route searches for peaks, even on a grid whose values rise and
        # fall: only a caller that prints them applies find_peaks
        def unreached(series):
            raise AssertionError("find_peaks was called")

        monkeypatch.setattr(spectrum, "find_peaks", unreached)
        s = trend_vs_geff(params(), 2.0, np.linspace(0.1, 2.0, 25))
        assert s.meta["monotone"] == "none"
        for route in (spectrum_numeric, spectrum_regression):
            s = route(params(), 1.0, default_omega_grid())
            assert s.variances.size == 801
