"""Closed-form results for the effective squeezing model.

For H_eff = omega_m b^dag b + g_eff (b + b^dag)^2 the Heisenberg evolution
of the mode is a Bogoliubov transformation b(t) = r b(0) + s b^dag(0) with

    r = cos(q t) - (i k / q) sin(q t),   s = -(2 i g_eff / q) sin(q t),
    k = 2 g_eff + omega_m,               q = sqrt(k^2 - 4 g_eff^2),

valid while q^2 = omega_m (omega_m + 4 g_eff) > 0.  Everything else here
follows from that: the X-quadrature variance, the peak squeezing
5 log10(4 g_eff/omega_m + 1) dB, and, once damping gamma and a thermal
bath with occupation nbar are added, the stationary squeezing spectrum in
its closed P/Q form together with the critical frequencies minimizing Q.

The damped model is the Langevin equation of H_eff with amplitude damping
gamma and a white bath b_in.  Solving its 2x2 response matrix gives X(omega)
proportional to (gamma/2 - i(omega_m + omega)) b_in + (gamma/2 + i(omega_m -
omega)) b_in^dag, so the coupling enters the spectrum only through Q:

    P = (nbar+1) [(gamma/2)^2 + (omega + omega_m)^2]
        + nbar  [(gamma/2)^2 + (omega - omega_m)^2]
    Q = [(gamma/2)^2 + omega_m (4 g_eff + omega_m) - omega^2]^2 + (omega gamma)^2

X = (b + b^dag)/2, so the vacuum variance is 1/4; dB values and spectral
peak positions are ratios and do not depend on that normalization choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams, _q_squared

__all__ = [
    "UnstableRegimeError",
    "OverdampedError",
    "BogoliubovCoeffs",
    "SpectrumPoint",
    "bogoliubov",
    "thermal_V",
    "position_variance",
    "s_max",
    "spectrum_analytic",
    "critical_frequencies",
]


class UnstableRegimeError(ValueError):
    """q^2 = omega_m (omega_m + 4 g_eff) <= 0: no oscillatory closed form."""


class OverdampedError(ValueError):
    """gamma is too large for a spectral doublet: omega_m (4 g_eff + omega_m) <= gamma^2/4."""


@dataclass(frozen=True)
class BogoliubovCoeffs:
    """b(t) = r b(0) + s b^dag(0); |r|^2 - |s|^2 = 1."""

    r: complex
    s: complex
    k: float
    q: float


@dataclass(frozen=True)
class SpectrumPoint:
    """The closed-form spectrum at one frequency, or over a grid: variance = (gamma/4) P/Q."""

    variance: float
    P: float
    Q: float


def bogoliubov(g_eff: float, omega_m: float, t: float) -> BogoliubovCoeffs:
    """Bogoliubov coefficients of the evolution over time t.

    Raises UnstableRegimeError when q^2 <= 0 (hyperbolic regime): the
    trigonometric closed form no longer applies.
    """
    if not (math.isfinite(g_eff) and math.isfinite(omega_m) and math.isfinite(t)):
        raise ValueError(f"g_eff, omega_m and t must be finite, got {g_eff:g}, {omega_m:g}, {t:g}")
    q2 = _q_squared(g_eff, omega_m)
    if q2 <= 0:
        raise UnstableRegimeError(
            f"omega_m (omega_m + 4 g_eff) = {q2:g} <= 0 for g_eff={g_eff:g}, omega_m={omega_m:g}"
        )
    q = math.sqrt(q2)
    k = 2.0 * g_eff + omega_m
    c, s_ = math.cos(q * t), math.sin(q * t)
    r = c - 1j * (k / q) * s_
    s = -2j * (g_eff / q) * s_
    return BogoliubovCoeffs(r=r, s=s, k=k, q=q)


def thermal_V(nbar: float) -> float:
    """V = coth(hbar omega_m / 2 k_B T) = 2 nbar + 1."""
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"nbar must be finite and >= 0, got {nbar:g}")
    return 2.0 * nbar + 1.0


def position_variance(g_eff: float, omega_m: float, nbar: float, t: float) -> float:
    """Variance of X(t) = (b(t) + b^dag(t))/2 from a thermal state.

    Evaluates (V/4) |r + conj(s)|^2, which expands to the closed bracket

        (V/4) [1 - (4 g_eff / (4 g_eff + omega_m)) sin^2(q t)],

    with the minimum (V/4) omega_m / (4 g_eff + omega_m) at q t = pi/2.
    """
    bc = bogoliubov(g_eff, omega_m, t)
    u = bc.r + bc.s.conjugate()
    return 0.25 * thermal_V(nbar) * float(abs(u) ** 2)


def s_max(g_eff: float, omega_m: float) -> float:
    """Maximum squeezing over time: 5 log10(4 g_eff / omega_m + 1) dB, for omega_m > 0."""
    if not (math.isfinite(g_eff) and g_eff >= 0 and math.isfinite(omega_m) and omega_m > 0):
        raise ValueError(
            f"s_max is defined for finite g_eff >= 0 and finite omega_m > 0, got g_eff={g_eff:g}, omega_m={omega_m:g}"
        )
    return 5.0 * math.log10(4.0 * g_eff / omega_m + 1.0)


def _require_stationary(p: ModelParams, g_eff: float):
    """The one stationarity test of every spectrum route: gamma > 0 and a damped drift."""
    if p.gamma <= 0:
        raise ValueError("the stationary spectrum needs gamma > 0")
    if not math.isfinite(g_eff):
        raise ValueError(f"g_eff must be finite, got {g_eff:g}")
    q2 = _q_squared(g_eff, p.omega_m)
    if q2 <= 0 and math.sqrt(-q2) >= p.gamma / 2.0:
        raise UnstableRegimeError(
            f"no stationary state: growth rate {math.sqrt(-q2):g} >= gamma/2 = {p.gamma / 2.0:g}"
        )


def spectrum_analytic(p: ModelParams, g_eff: float, omega) -> SpectrumPoint:
    """Closed-form stationary spectrum <X(omega), X(omega)> = (gamma/4) P/Q.

    `omega` may be a float or an array; an array gives array fields,
    evaluated elementwise over the whole grid at once.

        P = (nbar+1) [(gamma/2)^2 + (omega + omega_m)^2]
            + nbar  [(gamma/2)^2 + (omega - omega_m)^2]
        Q = [(gamma/2)^2 + omega_m (4 g_eff + omega_m) - omega^2]^2
            + (omega gamma)^2

    Q's minimum over omega sits at the critical frequencies (see
    `critical_frequencies`).  An independent frequency-domain solution of
    the same damped model lives in `spectrum.spectrum_numeric`; the two are
    compared, not assumed equal.  Like it, this raises when the damped
    drift has no stationary state.
    """
    _require_stationary(p, g_eff)
    half = 0.5 * p.gamma
    pnum = (
        (p.nbar + 1.0) * (half**2 + (omega + p.omega_m) ** 2)
        + p.nbar * (half**2 + (omega - p.omega_m) ** 2)
    )
    qden = (half**2 + _q_squared(g_eff, p.omega_m) - omega**2) ** 2 + (omega * p.gamma) ** 2
    return SpectrumPoint(variance=0.25 * p.gamma * pnum / qden, P=pnum, Q=qden)


def critical_frequencies(p: ModelParams, g_eff: float) -> tuple:
    """The two frequencies +-sqrt(omega_m (4 g_eff + omega_m) - gamma^2/4).

    These minimize Q exactly.  Returned ascending (negative root first).
    Raises OverdampedError when the argument of the root is <= 0 and the
    doublet collapses.
    """
    if not math.isfinite(g_eff):
        raise ValueError(f"g_eff must be finite, got {g_eff:g}")
    arg = _q_squared(g_eff, p.omega_m) - 0.25 * p.gamma**2
    if arg <= 0:
        raise OverdampedError(
            f"omega_m (4 g_eff + omega_m) - gamma^2/4 = {arg:g} <= 0: no spectral doublet"
        )
    w = math.sqrt(arg)
    return (-w, w)
