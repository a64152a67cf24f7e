"""Quadrature squeezing of a mechanical oscillator coupled to a driven cavity
and a three-level atom.

The package is organized bottom-up:

* `operators`: truncated Fock/level algebra, pure states, thermal
  occupations.
* `model`: physical parameters and the full, two-level-reduced, and
  effective Hamiltonians, plus the eigenmodes of the atom-conditioned
  coupling.
* `analytic`: every closed form (Bogoliubov coefficients, variance
  dynamics, squeezing in dB, spectra, critical frequencies).
* `dynamics`: unitary, Lindblad, and Gaussian-covariance evolutions, the
  H_eff moments from a mean occupation, and the validation harness for the
  adiabatic elimination chain.
* `spectrum`: independent frequency-domain solution of the damped model,
  peak finding, parameter trends.
* `cli`: config-driven experiment runner writing deterministic CSV files.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
