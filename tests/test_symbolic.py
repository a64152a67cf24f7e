"""A symbolic oracle for the closed forms of `analytic`.

sympy derives the Bogoliubov map from the model rather than from the
documented formula: for H_eff = omega_m b^dag b + g (b + b^dag)^2 the
Heisenberg equations read d/dt (b, b^dag) = M (b, b^dag) with the generator
M = -i [[k, 2g], [-2g, -k]], k = 2g + omega_m, so the first row of exp(M t),
computed by `Matrix.exp`, holds r and s of b(t) = r b + s b^dag.  The X
variance from vacuum is |r + s*|^2 / 4, and its minimum at t = pi/(2q),
q = sqrt(omega_m (omega_m + 4g)), gives s_max = -5 log10(4 Var X).

The stationary spectrum comes from the quantum Langevin equation of the
damped oscillator, d/dt (b, b^dag) = (M - gamma/2) (b, b^dag) + sqrt(gamma)
(b_in, b_in^dag), in frequency space (b, b^dag) = sqrt(gamma) K(omega)^-1
(b_in, b_in^dag) with K(omega) = (gamma/2 - i omega) I - M.  X = (b + b^dag)/2
then weighs b_in by u1 and b_in^dag by u2, the column sums of K^-1, and the
input noise <b_in b_in^dag> ~ nbar + 1, <b_in^dag b_in> ~ nbar gives
(gamma/4) [(nbar + 1) u1(omega) u2(-omega) + nbar u2(omega) u1(-omega)].
Q is |det K(omega)|^2, and the critical frequencies are the nonzero roots of
dQ/domega.  This cannot come from the covariance drift: the symmetrised
spectrum is the mean of the spectrum at +-omega, not its value at omega.

Each expression is evaluated to 30 digits at exact rational points, with no
`simplify`, and compared with the library's floats within 1e-13 relative.
"""

import math

import pytest
import sympy as sp

from optosqueeze.analytic import bogoliubov, critical_frequencies, position_variance, s_max, spectrum_analytic
from optosqueeze.model import ModelParams

R = sp.Rational
RTOL = 1e-13


def generator(g, omega_m):
    """M, the Heisenberg generator of (b, b^dag) under H_eff."""
    k = 2 * g + omega_m
    return -sp.I * sp.Matrix([[k, 2 * g], [-2 * g, -k]])


def heisenberg_row(g, omega_m, t):
    """(r, s): the first row of exp(M t), the exact Bogoliubov map over time t."""
    e = (generator(g, omega_m) * t).exp()
    return e[0, 0], e[0, 1]


def langevin_kernel(g, omega_m, gamma, w):
    """K(omega) = (gamma/2 - i omega) I - M, which maps (b, b^dag)(omega) to sqrt(gamma) times the input noise."""
    return (gamma / 2 - sp.I * w) * sp.eye(2) - generator(g, omega_m)


def vacuum_x_variance(r, s):
    return R(1, 4) * abs(r + sp.conjugate(s)) ** 2


def digits(expr) -> complex:
    return complex(sp.N(expr, 30))


def rel_gap(a, b) -> float:
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("g, omega_m, t", [(R(1, 2), 1, R(3, 4)), (R(3, 10), 2, R(5, 3)), (R(-1, 8), 1, R(7, 2))])
def test_bogoliubov_and_variance_from_the_heisenberg_generator(g, omega_m, t):
    r, s = heisenberg_row(g, omega_m, t)
    bc = bogoliubov(float(g), float(omega_m), float(t))
    assert rel_gap(bc.r, digits(r)) <= RTOL
    assert rel_gap(bc.s, digits(s)) <= RTOL
    var = digits(vacuum_x_variance(r, s)).real
    assert rel_gap(position_variance(float(g), float(omega_m), 0.0, float(t)), var) <= RTOL


@pytest.mark.parametrize("g, omega_m", [(R(1, 2), 1), (R(3, 10), 2), (7, R(3, 4))])
def test_s_max_from_the_variance_minimum(g, omega_m):
    q = sp.sqrt(omega_m * (omega_m + 4 * g))
    var = vacuum_x_variance(*heisenberg_row(g, omega_m, sp.pi / (2 * q)))
    derived = digits(-5 * sp.log(4 * var, 10)).real
    assert math.isfinite(derived) and derived > 0
    assert rel_gap(s_max(float(g), float(omega_m)), derived) <= RTOL


# (g, omega_m, gamma, nbar, omega): thermal and vacuum noise, g < 0, omega < 0 and 0
SPECTRUM_POINTS = [
    (R(1, 2), 1, R(1, 10), R(1, 2), R(3, 4)),
    (R(-1, 8), 1, R(1, 5), 0, R(-1, 3)),
    (R(3, 10), 2, R(1, 2), 2, R(5, 2)),
    (7, R(3, 4), 1, R(1, 10), 0),
]


@pytest.mark.parametrize("g, omega_m, gamma, nbar, w", SPECTRUM_POINTS)
def test_spectrum_from_the_langevin_equation(g, omega_m, gamma, nbar, w):
    def u(freq):  # X's weights on b_in and b_in^dag: the column sums of K^-1
        inv = langevin_kernel(g, omega_m, gamma, freq).inv()
        return inv[0, 0] + inv[1, 0], inv[0, 1] + inv[1, 1]

    (u1p, u2p), (u1m, u2m) = u(w), u(-w)
    derived = gamma / 4 * ((nbar + 1) * u1p * u2m + nbar * u2p * u1m)
    p = ModelParams(omega_m=float(omega_m), gamma=float(gamma), nbar=float(nbar))
    got = spectrum_analytic(p, float(g), float(w))
    exact = digits(derived)
    assert abs(exact.imag) <= RTOL * abs(exact.real)
    assert rel_gap(got.variance, exact.real) <= RTOL
    det = langevin_kernel(g, omega_m, gamma, w).det()
    assert rel_gap(got.Q, digits(det * sp.conjugate(det)).real) <= RTOL


def test_Q_is_the_squared_kernel_determinant():
    g, omega_m, gamma, w = sp.symbols("g omega_m gamma omega", real=True)
    det = langevin_kernel(g, omega_m, gamma, w).det()
    q = ((gamma / 2) ** 2 + omega_m * (4 * g + omega_m) - w**2) ** 2 + (w * gamma) ** 2  # spectrum_analytic's Q
    assert sp.expand(det * sp.conjugate(det) - q) == 0


@pytest.mark.parametrize("g, omega_m, gamma", [(p[0], p[1], p[2]) for p in SPECTRUM_POINTS])
def test_critical_frequencies_are_the_roots_of_dQ(g, omega_m, gamma):
    w = sp.symbols("omega", real=True)
    det = langevin_kernel(g, omega_m, gamma, w).det()
    roots = sp.roots(sp.Poly(sp.expand(sp.diff(det * sp.conjugate(det), w)), w))
    nonzero = sorted(digits(r).real for r in roots if r != 0)
    got = critical_frequencies(ModelParams(omega_m=float(omega_m), gamma=float(gamma)), float(g))
    assert len(nonzero) == 2
    assert all(rel_gap(a, b) <= RTOL for a, b in zip(got, nonzero))
