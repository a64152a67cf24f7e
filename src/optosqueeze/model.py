"""Physical parameters and Hamiltonian constructors for the hybrid system.

The setup is a driven cavity whose field couples quadratically to a
mechanical oscillator, g2 a^dag a (b + b^dag)^2, while a Lambda atom inside
the cavity links the classical control field (Rabi frequency Omega, on the
|0> <-> |e> leg) to the cavity mode (coupling g1, on the |1> <-> |e> leg).

All Hamiltonians are built in the time-independent frame obtained by
rotating the cavity at the pump frequency, |e> at the control frequency,
and |1> at their difference.  In that frame:

    H = delta a^dag a + omega_m b^dag b + Delta |e><e| - delta |1><1|
        + (Omega |e><0| + g1 a^dag |1><e| + h.c.)
        + g2 a^dag a (b + b^dag)^2 + eps (a + a^dag)

with delta the cavity-pump detuning and Delta the one-photon detuning.
Eliminating |e> at large Delta and then the cavity at large delta leaves

    H_eff = omega_m b^dag b + g_hat (b + b^dag)^2,

where g_hat is a 2x2 operator on the ground doublet; preparing the atom in
one of its eigenstates turns g_hat into the scalar g_eff handled by
`analytic` and `dynamics`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .operators import (
    Fock,
    HilbertSpace,
    Level,
    Operator,
    _banded,
    _embed,
    _ket_bra,
    _kron_sum,
    _ladder,
    _number,
    _x2_bands,
)

__all__ = [
    "UnstableRegimeWarning",
    "ModelParams",
    "AtomCouplingSpectrum",
    "hybrid_space",
    "oscillator_space",
    "build_full_hamiltonian",
    "build_two_level_hamiltonian",
    "atomic_coupling_spectrum",
    "build_effective_hamiltonian",
]

STARK_VARIANTS = ("as-written", "textbook")


class UnstableRegimeWarning(UserWarning):
    """The effective oscillator is hyperbolic: omega_m (omega_m + 4 g_eff) <= 0."""


_NONNEGATIVE = ("g1", "g2", "Omega", "eps", "gamma", "nbar", "kappa", "Gamma_e")


@dataclass(frozen=True)
class ModelParams:
    """All rates and detunings of the hybrid model, in units of omega_m.

    delta = omega_c - omega_l is the cavity-pump detuning; Delta is the
    one-photon detuning of the Raman pair (control off |0>-|e|, cavity off
    |1>-|e>).  kappa and Gamma_e do not enter the coherent model; they feed
    the Lindblad validation runs that probe how cavity decay and
    spontaneous emission affect the squeezing.
    """

    omega_m: float = 1.0
    delta: float = 0.0
    Delta: float = 0.0
    g1: float = 0.0
    g2: float = 0.0
    Omega: float = 0.0
    eps: float = 0.0
    gamma: float = 0.0
    nbar: float = 0.0
    kappa: float = 0.0
    Gamma_e: float = 0.0

    def __post_init__(self):
        for name in ("omega_m", "delta", "Delta") + _NONNEGATIVE:
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.omega_m <= 0:
            raise ValueError(f"omega_m must be > 0, got {self.omega_m!r}")
        for name in _NONNEGATIVE:
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} must be >= 0, got {v!r}")


def hybrid_space(d_cav: int, d_mech: int, levels: int) -> HilbertSpace:
    """Cavity x oscillator x atom, in the fixed factor order."""
    return HilbertSpace((Fock(d_cav), Fock(d_mech), Level(levels)))


def oscillator_space(d_mech: int) -> HilbertSpace:
    return HilbertSpace((Fock(d_mech),))


def _require_structure(space: HilbertSpace, levels: int, what: str):
    if [type(f) for f in space.factors] != [Fock, Fock, Level] or space.factors[2].size != levels:
        raise ValueError(f"{what} needs Fock x Fock x Level({levels}), got {space.factors!r}")


def _two_band(diag: np.ndarray, off: np.ndarray) -> tuple:
    """(rows, cols, values) of the matrix with `diag` on the main and `off` on the +-2 diagonals."""
    return _banded(diag.size, [(0, diag), (2, off), (-2, off)])


def _hybrid_hamiltonian(p: ModelParams, space: HilbertSpace, atom_terms) -> Operator:
    """The terms both hybrid models share, summed with the model's own atom terms.

    Each term is (coefficient, {factor: (rows, cols, values)}) in the input
    format of `operators._kron_sum`, which sums them in one pass;
    `atom_terms(a, ad, na)` lists the model's own terms, given the cavity's
    single-factor a, a^dag and a^dag a.  Diagonal entries are summed in list
    order: delta a^dag a, omega_m b^dag b, -delta |1><1|, the atom terms,
    g2 a^dag a (b + b^dag)^2 and eps (a + a^dag), and this order fixes their
    rounding; no off-diagonal entry receives two terms.  The number
    operators are the products a^dag a and b^dag b, with entries
    fl(sqrt(n) sqrt(n)), not always n; the quadratic coupling weights
    (b + b^dag)^2 with the exact n.
    """
    d_mech = space.factors[1].size
    a = _ladder(space, 0)
    ad = (a[1], a[0], a[2])  # the ladder matrix is real: a^dag is its transpose
    na = _number(space, 0)
    n = na[0]  # cavity levels 1 .. d_cav - 1, where n is nonzero
    terms = [
        (p.delta, {0: na}),
        (p.omega_m, {1: _number(space, 1)}),
        (-p.delta, {2: _ket_bra(1, 1)}),
        *atom_terms(a, ad, na),
        (p.g2, {0: (n, n, n.astype(complex)), 1: _two_band(*_x2_bands(d_mech))}),
        (p.eps, {0: a}),
        (p.eps, {0: ad}),
    ]
    return Operator(space, _kron_sum(terms, space.factor_sizes))


def build_full_hamiltonian(p: ModelParams, space: HilbertSpace) -> Operator:
    """The three-level model in the static rotating frame.

    H = delta a^dag a + omega_m b^dag b + Delta |e><e| - delta |1><1|
        + (Omega |e><0| + g1 a^dag |1><e| + h.c.)
        + g2 a^dag a (b + b^dag)^2 + eps (a + a^dag)
    """
    _require_structure(space, 3, "build_full_hamiltonian")
    return _hybrid_hamiltonian(p, space, lambda a, ad, na: [
        (p.Delta, {2: _ket_bra(2, 2)}),
        (p.Omega, {2: _ket_bra(2, 0)}),
        (p.Omega, {2: _ket_bra(0, 2)}),
        (p.g1, {0: ad, 2: _ket_bra(1, 2)}),
        (p.g1, {0: a, 2: _ket_bra(2, 1)}),
    ])


def _stark_shifts(p: ModelParams, variant: str) -> tuple:
    """The Stark coefficients (S0, S1) of `variant` (see `build_two_level_hamiltonian`)."""
    if variant not in STARK_VARIANTS:
        raise ValueError(f"variant must be one of {STARK_VARIANTS}, got {variant!r}")
    if p.Delta == 0:
        raise ValueError("two-level reduction requires Delta != 0")
    if variant == "as-written":
        coupling = p.Omega * p.g1 / p.Delta
        return coupling, coupling
    return p.Omega**2 / p.Delta, p.g1**2 / p.Delta


def build_two_level_hamiltonian(p: ModelParams, space: HilbertSpace, variant: str = "as-written") -> Operator:
    """The model after adiabatic elimination of |e>, on the ground doublet.

    Besides the free and optomechanical parts, the elimination leaves two
    Stark shifts and a photon-exchanging flip term:

        - S0 |0><0| - S1 |1><1| a^dag a - (Omega g1 / Delta)(|0><1| a + h.c.)
        - delta |1><1|

    `variant` picks the Stark coefficients.  "as-written" keeps the same
    coefficient Omega g1 / Delta on both shifts; "textbook" uses the
    second-order values Omega^2 / Delta and g1^2 / Delta.  The flip term is
    identical in both, so variants with equal shifts (Omega = g1) give one
    Hamiltonian bit for bit, which `dynamics.validate_adiabatic_chain` runs
    once; which tracks the three-level model better is decided there.
    """
    _require_structure(space, 2, "build_two_level_hamiltonian")
    s0, s1 = _stark_shifts(p, variant)
    coupling = p.Omega * p.g1 / p.Delta
    return _hybrid_hamiltonian(p, space, lambda a, ad, na: [
        (-s0, {2: _ket_bra(0, 0)}),
        (-s1, {0: na, 2: _ket_bra(1, 1)}),
        (-coupling, {0: a, 2: _ket_bra(0, 1)}),
        (-coupling, {0: ad, 2: _ket_bra(1, 0)}),
    ])


@dataclass(frozen=True)
class AtomCouplingSpectrum:
    """Eigen-decomposition of the atom-conditioned coupling operator.

    After eliminating the cavity, the coefficient of (b + b^dag)^2 is the
    2x2 ground-doublet operator

        g_hat = (g2 / delta^2) [ alpha^2 |0><0|
                                 - eps alpha (|0><1| + |1><0|) + eps^2 ],

    alpha = Omega g1 / Delta.  lambda1 >= lambda2 are the eigenvalues of
    the bracketed matrix without the eps^2 offset; e1, e2 the corresponding
    unit eigenvectors over {|0>, |1>}; g_eff_i = (g2/delta^2)(lambda_i +
    eps^2) is the scalar coupling seen by an atom prepared in e_i.
    """

    alpha: float
    lambda1: float
    lambda2: float
    e1: np.ndarray
    e2: np.ndarray
    g_eff_1: float
    g_eff_2: float


def _fix_sign(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        return -v
    return v


def atomic_coupling_spectrum(p: ModelParams) -> AtomCouplingSpectrum:
    """Eigenvalues, eigenvectors, and effective couplings of g_hat.

    Closed form: lambda_{1,2} = (alpha/2)[alpha +- sqrt(alpha^2 + 4 eps^2)].
    Implemented as a brute 2x2 eigensolve; the closed form is what the
    tests check against.
    """
    if p.Delta == 0 or p.delta == 0:
        raise ValueError("atomic_coupling_spectrum requires Delta != 0 and delta != 0")
    alpha = p.Omega * p.g1 / p.Delta
    m = np.array([[alpha**2, -p.eps * alpha], [-p.eps * alpha, 0.0]])
    vals, vecs = np.linalg.eigh(m)
    # eigh returns ascending order; branch 1 is the larger eigenvalue
    lam1, lam2 = float(vals[1]), float(vals[0])
    e1 = _fix_sign(vecs[:, 1].copy())
    e2 = _fix_sign(vecs[:, 0].copy())
    scale = p.g2 / p.delta**2
    return AtomCouplingSpectrum(
        alpha=alpha,
        lambda1=lam1,
        lambda2=lam2,
        e1=e1,
        e2=e2,
        g_eff_1=scale * (lam1 + p.eps**2),
        g_eff_2=scale * (lam2 + p.eps**2),
    )


def _q_squared(g_eff: float, omega_m: float) -> float:
    """q^2 = omega_m (omega_m + 4 g_eff): the dynamics oscillates when q^2 > 0."""
    return omega_m * (omega_m + 4.0 * g_eff)


def _drift_diffusion(g_eff: float, omega_m: float, gamma: float, nbar: float):
    """Drift A and diffusion D of the damped (X, P) moments: d cov/dt = A cov + cov A^T + D."""
    a = np.array([[-gamma / 2.0, omega_m], [-(omega_m + 4.0 * g_eff), -gamma / 2.0]])
    d = gamma * (2.0 * nbar + 1.0) / 4.0 * np.eye(2)
    return a, d


def build_effective_hamiltonian(g_eff: float, omega_m: float, space: HilbertSpace) -> Operator:
    """H_eff = omega_m b^dag b + g_eff (b + b^dag)^2 on a single-mode space.

    The matrix is real and has entries only on the main diagonal and the
    +-2 diagonals, written there directly; `dynamics.exact_quadrature_moments`
    relies on that shape.

    Negative g_eff is allowed; once 4 g_eff <= -omega_m the dynamics turns
    hyperbolic (q^2 <= 0) and an UnstableRegimeWarning is emitted instead
    of an error, since the operator itself is still perfectly well defined.
    """
    if len(space.factors) != 1 or not isinstance(space.factors[0], Fock):
        raise ValueError(f"effective Hamiltonian needs a single Fock factor, got {space.factors!r}")
    q2 = _q_squared(g_eff, omega_m)
    if q2 <= 0:
        warnings.warn(
            f"omega_m (omega_m + 4 g_eff) = {q2:g} <= 0: "
            "hyperbolic (anti-squeezing) regime",
            UnstableRegimeWarning,
            stacklevel=2,
        )
    diag, off = _x2_bands(space.factors[0].size)
    n = np.arange(diag.size, dtype=float)
    return _embed(space, 0, _two_band(omega_m * n + g_eff * diag, g_eff * off))
