"""A symbolic oracle for the closed forms of `analytic`.

sympy derives the Bogoliubov map from the model rather than from the
documented formula: for H_eff = omega_m b^dag b + g (b + b^dag)^2 the
Heisenberg equations read d/dt (b, b^dag) = M (b, b^dag) with the generator
M = -i [[k, 2g], [-2g, -k]], k = 2g + omega_m, so the first row of exp(M t),
computed by `Matrix.exp`, holds r and s of b(t) = r b + s b^dag.  The X
variance from vacuum is |r + s*|^2 / 4, and its minimum at t = pi/(2q),
q = sqrt(omega_m (omega_m + 4g)), gives s_max = -5 log10(4 Var X).  Each
expression is evaluated to 30 digits at exact rational points, with no
`simplify`, and compared with the library's floats within 1e-13 relative.
"""

import math

import pytest
import sympy as sp

from optosqueeze.analytic import bogoliubov, position_variance, s_max

R = sp.Rational
RTOL = 1e-13


def heisenberg_row(g, omega_m, t):
    """(r, s): the first row of exp(M t), the exact Bogoliubov map over time t."""
    k = 2 * g + omega_m
    e = (-sp.I * sp.Matrix([[k, 2 * g], [-2 * g, -k]]) * t).exp()
    return e[0, 0], e[0, 1]


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
