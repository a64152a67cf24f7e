"""Stationary position-uncertainty spectrum of the damped effective model.

Two independent numerical routes are provided next to the closed form in
`analytic`:

* `spectrum_numeric` solves the frequency-domain Langevin system for
  (b(omega), b_dag(omega)) by inverting its 2x2 response matrix in closed
  form and applies the white-bath input correlations.  It never touches
  the closed-form numerator/denominator expressions.
* `spectrum_regression` works in the time domain instead: stationary
  covariances from the Lyapunov equation, then the resolvent form of the
  Wiener-Khinchin transform.

Both report the coefficient of delta(omega + omega') in <X(omega)
X(omega')>, which equals 2 pi times the Fourier transform of the
stationary autocorrelation <X(t + tau) X(t)>.  Agreement between the two
(they share no algebra beyond the model itself) is the backbone of the
spectrum tests.

Both routes, and `trend_vs_geff` over a coupling grid, run on whole grids
with no per-point Python loop: the Langevin route inverts every 2x2
response matrix elementwise from its adjugate, and the regression route
stacks its 2x2 resolvents and solves or inverts them in one call.  They
return the grid and its values only; `find_peaks` locates the maxima of
a series on request, and the CLI's `spectrum` command is its one caller.

The spectrum exists only when the damped drift is actually stable; in the
hyperbolic regime this requires gamma/2 to beat the growth rate, and both
routes refuse to evaluate otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .analytic import _require_stationary
from .model import ModelParams, _drift_diffusion

__all__ = [
    "SpectrumSeries",
    "default_omega_grid",
    "spectrum_numeric",
    "spectrum_regression",
    "find_peaks",
    "trend_vs_geff",
]


@dataclass
class SpectrumSeries:
    """Spectral values on a strictly increasing grid.

    `omegas` is the index variable: frequency for spectra, the coupling
    for `trend_vs_geff` output (meta["index"] says which).  No route
    searches for peaks; a caller that prints them, the CLI's `spectrum`
    command, applies `find_peaks` to the series.
    """

    omegas: np.ndarray
    variances: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.omegas, dtype=float)
        v = np.asarray(self.variances, dtype=float)
        if w.ndim != 1 or v.shape != w.shape:
            raise ValueError("omegas and variances must be 1d arrays of equal length")
        if w.size > 1 and not np.all(np.diff(w) > 0):
            raise ValueError("omegas must be strictly increasing")
        if v.size and float(np.min(v)) < 0.0:
            raise ValueError("spectral densities must be non-negative")
        self.omegas = w
        self.variances = v


def default_omega_grid(omega_m: float = 1.0) -> np.ndarray:
    """801 points over [-4, 4] omega_m: resolves both peaks at the usual scales."""
    return np.linspace(-4.0 * omega_m, 4.0 * omega_m, 801)


def _finite_grid(values, name: str) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 1 or not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be a finite 1d grid")
    return x


def _checked_real(s: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """s.real, after checking that no point has a significant imaginary part."""
    bad = np.abs(s.imag) > 1e-10 * (1.0 + np.abs(s.real))
    if bad.any():
        i = int(np.argmax(bad))
        raise RuntimeError(f"spectrum came out complex at omega={omegas[i]:g}: {complex(s[i])}")
    return s.real


def _langevin_variances(p: ModelParams, g_eff, omegas) -> np.ndarray:
    """Langevin-inversion spectrum at every (g_eff, omega) pair, broadcast together.

    The 2x2 response matrix [[a, b], [c, d]] of (b(omega), b_dag(omega))
    is formed elementwise over every pair, once at omega and once at
    -omega.  The coefficients of b_in(omega), b_in_dag(omega) in X(omega)
    (without sqrt(gamma)) are the column sums of its inverse, taken from
    the adjugate: ((d - c)/det, (a - b)/det) with det = ad - bc.  The bath
    correlations <b_in(omega) b_in_dag(-omega')> = (nbar + 1)
    delta(omega + omega') and <b_in_dag(omega) b_in(-omega')> = nbar
    delta(omega + omega') pair them with those at -omega.
    """
    g, w = np.broadcast_arrays(np.asarray(g_eff, dtype=float), np.asarray(omegas, dtype=float))
    k = 2.0 * g + p.omega_m

    def coeffs(om):
        a = p.gamma / 2.0 + 1j * (k - om)
        b = 2j * g
        c = -b
        d = p.gamma / 2.0 - 1j * (k + om)
        det = a * d - b * c
        # X = (b + b_dag)/2: sum the rows of the inverse, keep the 1/2 in the prefactor below
        return (d - c) / det, (a - b) / det

    (c1, c2), (c1m, c2m) = coeffs(w), coeffs(-w)
    s = (p.gamma / 4.0) * ((p.nbar + 1.0) * c1 * c2m + p.nbar * c2 * c1m)
    return _checked_real(s, w)


def spectrum_numeric(p: ModelParams, g_eff: float, omegas) -> SpectrumSeries:
    """<X(omega), X(omega)> by direct solution of the linear response system.

    At every frequency of the grid the 2x2 response matrix is inverted in
    closed form for the pair (b(omega), b_dag(omega)); the bath correlations
    then pair the coefficients at omega with those at -omega, weighted
    (nbar + 1) against nbar.  Exact linear algebra, no sampling noise.
    """
    _require_stationary(p, g_eff)
    w = _finite_grid(omegas, "omegas")
    vals = _langevin_variances(p, g_eff, w)
    return SpectrumSeries(w, vals, {"method": "langevin-inversion", "index": "omega"})


def spectrum_regression(p: ModelParams, g_eff: float, omegas) -> SpectrumSeries:
    """Same quantity through the time domain: Lyapunov steady state + resolvent.

    The stationary covariance solves A C + C A^T = -D; the one-sided
    autocorrelation decays with exp(A tau), and its transform is a pair of
    resolvents applied to the unsymmetrized moment matrix, evaluated for
    the whole grid as one stack of 2x2 solves and one of inverses.  Shares
    no algebra with `spectrum_numeric` beyond the model parameters.
    """
    _require_stationary(p, g_eff)
    w = _finite_grid(omegas, "omegas")
    a, d = _drift_diffusion(g_eff, p.omega_m, p.gamma, p.nbar)
    c = solve_continuous_lyapunov(a, -d)
    # unsymmetrized <v v^T>: covariance plus the commutator part i/4 [[0,1],[-1,0]]
    m = c + 0.25j * np.array([[0.0, 1.0], [-1.0, 0.0]])
    iw = 1j * w[:, None, None] * np.eye(2)
    # explicit stack: numpy < 2 would read a 2-d right-hand side as a stack of vectors
    left = np.linalg.solve(-a - iw, np.broadcast_to(m, iw.shape))
    right = m @ np.linalg.inv(-a.T + iw)
    vals = _checked_real(left[:, 0, 0] + right[:, 0, 0], w)
    return SpectrumSeries(w, vals, {"method": "lyapunov-resolvent", "index": "omega"})


def find_peaks(series: SpectrumSeries) -> list:
    """Strict interior local maxima, refined by quadratic interpolation.

    Returns (omega, value) pairs in grid order; a monotone series, or
    one of fewer than three points (no interior point), yields an empty
    list.
    """
    w, v = series.omegas, series.variances
    i = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    x0, x1, x2 = w[i - 1], w[i], w[i + 1]
    y0, y1, y2 = v[i - 1], v[i], v[i + 1]
    # vertex of the parabola through the three points; exact for any spacing
    num = (y0 - y1) * (x2 - x1) ** 2 - (y2 - y1) * (x1 - x0) ** 2
    den = (y0 - y1) * (x2 - x1) + (y2 - y1) * (x1 - x0)
    flat = den == 0  # both products underflowed: keep the grid point
    xs = np.where(flat, x1, x1 + 0.5 * num / np.where(flat, 1.0, den))
    # evaluate the same parabola at its vertex (Lagrange form)
    l0 = (xs - x1) * (xs - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (xs - x0) * (xs - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (xs - x0) * (xs - x1) / ((x2 - x0) * (x2 - x1))
    return list(zip(xs, y0 * l0 + y1 * l1 + y2 * l2))


def trend_vs_geff(p: ModelParams, omega_fixed: float, geff_grid) -> SpectrumSeries:
    """Spectrum value at a fixed frequency as the coupling varies.

    The returned series is indexed by g_eff (meta["index"] = "g_eff") and
    meta["monotone"] reports "decreasing", "increasing", or "none" over the
    grid.  The whole coupling grid goes through one elementwise Langevin inversion.
    """
    g = _finite_grid(geff_grid, "geff_grid")
    if np.any(g < 0):
        raise ValueError("geff_grid must be non-negative")
    if g.size > 1 and not np.all(np.diff(g) > 0):
        raise ValueError("geff_grid must be strictly increasing")
    if not math.isfinite(omega_fixed):
        raise ValueError("omega_fixed must be finite")
    _require_stationary(p, float(g[0]))  # q^2 grows with g_eff: the first coupling is the least stable
    vals = _langevin_variances(p, g, omega_fixed)

    if g.size > 1 and np.all(np.diff(vals) < 0):
        monotone = "decreasing"
    elif g.size > 1 and np.all(np.diff(vals) > 0):
        monotone = "increasing"
    else:
        monotone = "none"
    return SpectrumSeries(g, vals, {"method": "langevin-inversion", "index": "g_eff", "monotone": monotone})
