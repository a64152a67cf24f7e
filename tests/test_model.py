"""Tests for parameter validation and Hamiltonian construction.

Matrix-element expectations are computed by hand from the operator
definitions (single nonzero entries, diagonal patterns); eigenvalue
expectations come from the closed 2x2 form evaluated independently here.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optosqueeze.model import (
    AtomCouplingSpectrum,
    ModelParams,
    UnstableRegimeWarning,
    atomic_coupling_spectrum,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_two_level_hamiltonian,
    hybrid_space,
    oscillator_space,
)
from optosqueeze.operators import Operator, _x2_bands, annihilation, level_projector, momentum, position
from test_operators import number


def commutator(a, b):
    return a @ b - b @ a


class TestModelParams:
    def test_defaults_are_valid(self):
        p = ModelParams()
        assert p.omega_m == 1.0

    def test_rates_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="g1"):
            ModelParams(g1=-0.5)
        with pytest.raises(ValueError, match="nbar"):
            ModelParams(nbar=-1.0)

    def test_omega_m_positive(self):
        with pytest.raises(ValueError, match="omega_m"):
            ModelParams(omega_m=0.0)

    def test_detunings_may_be_negative(self):
        ModelParams(delta=-2.0, Delta=-30.0)

    def test_finite(self):
        with pytest.raises(ValueError):
            ModelParams(eps=np.inf)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ModelParams)])
    def test_one_bad_field_is_named_alone(self, name):
        # one pass checks each field once: its message depends on that field alone
        with pytest.raises(ValueError, match=f"^{name} must be finite, got nan$"):
            ModelParams(**{name: np.nan})
        if name not in ("delta", "Delta"):
            bound = "> 0" if name == "omega_m" else ">= 0"
            with pytest.raises(ValueError, match=f"^{name} must be {bound}, got -1.0$"):
                ModelParams(**{name: -1.0})

    def test_frozen(self):
        p = ModelParams()
        with pytest.raises(AttributeError):
            p.g1 = 1.0


class TestFullHamiltonian:
    def test_control_coupling_element(self):
        # <0_c, 0_m, e| H |0_c, 0_m, 0> picks out the Omega |e><0| term;
        # atom innermost: |0,0,e> is index 2, |0,0,0> is index 0
        p = ModelParams(delta=3.0, Delta=40.0, Omega=0.7, g1=0.3, g2=0.1, eps=0.2)
        h = build_full_hamiltonian(p, hybrid_space(2, 2, 3)).matrix
        assert h[2, 0] == pytest.approx(0.7)

    def test_diagonal_when_uncoupled(self):
        p = ModelParams(delta=2.0, Delta=15.0, omega_m=1.0)
        h = build_full_hamiltonian(p, hybrid_space(3, 3, 3)).matrix
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) == 0.0
        # diagonal pattern: delta*n_a + omega_m*n_b + Delta [atom=e] - delta [atom=1]
        diag = np.diag(h).real.reshape(3, 3, 3)
        for na in range(3):
            for nb in range(3):
                assert diag[na, nb, 0] == pytest.approx(2.0 * na + nb)
                assert diag[na, nb, 1] == pytest.approx(2.0 * na + nb - 2.0)
                assert diag[na, nb, 2] == pytest.approx(2.0 * na + nb + 15.0)

    def test_hermitian_for_generic_params(self):
        p = ModelParams(delta=5.0, Delta=80.0, g1=1.3, g2=0.04, Omega=2.1, eps=1.7)
        h = build_full_hamiltonian(p, hybrid_space(3, 4, 3))
        assert h.is_hermitian(tol=1e-12)

    def test_phonon_number_conserved_without_quadratic_coupling(self):
        p = ModelParams(delta=5.0, Delta=80.0, g1=1.3, g2=0.0, Omega=2.1, eps=1.7)
        space = hybrid_space(3, 4, 3)
        h = build_full_hamiltonian(p, space)
        c = commutator(h, number(space, 1))
        assert np.max(np.abs(c.matrix)) <= 1e-12

    def test_rejects_wrong_structure(self):
        p = ModelParams(delta=1.0)
        with pytest.raises(ValueError, match="Level"):
            build_full_hamiltonian(p, hybrid_space(3, 4, levels=2))
        with pytest.raises(ValueError):
            build_full_hamiltonian(p, oscillator_space(8))


class TestTwoLevelHamiltonian:
    def test_flip_coefficient(self):
        # coefficient of |0><1| (x) a: <0_c,0_m,0| H |1_c,0_m,1> = -Omega g1/Delta
        p = ModelParams(delta=0.5, Delta=1.0, Omega=1.0, g1=1.0)
        h = build_two_level_hamiltonian(p, hybrid_space(2, 2, 2), "as-written").matrix
        col = int(np.ravel_multi_index((1, 0, 1), (2, 2, 2)))
        assert h[0, col] == pytest.approx(-1.0)

    def test_flip_vanishes_without_drive(self):
        space = hybrid_space(2, 2, 2)
        for p in (ModelParams(Delta=10.0, Omega=0.0, g1=1.0), ModelParams(Delta=10.0, Omega=1.0, g1=0.0)):
            h = build_two_level_hamiltonian(p, space, "as-written").matrix
            col = int(np.ravel_multi_index((1, 0, 1), (2, 2, 2)))
            assert h[0, col] == 0.0

    def test_hermitian(self):
        p = ModelParams(delta=8.0, Delta=40.0, Omega=2.0, g1=1.0, g2=0.5, eps=2.0)
        for variant in ("as-written", "textbook"):
            assert build_two_level_hamiltonian(p, hybrid_space(3, 4, 2), variant).is_hermitian(1e-12)

    def test_variants_coincide_when_omega_equals_g1(self):
        p = ModelParams(delta=8.0, Delta=40.0, Omega=1.5, g1=1.5, g2=0.5, eps=2.0)
        space = hybrid_space(3, 4, 2)
        aw = build_two_level_hamiltonian(p, space, "as-written").matrix
        tb = build_two_level_hamiltonian(p, space, "textbook").matrix
        assert np.array_equal(aw, tb)

    def test_variants_differ_only_on_stark_diagonals(self):
        p = ModelParams(delta=8.0, Delta=40.0, Omega=2.0, g1=1.0, g2=0.5, eps=2.0)
        space = hybrid_space(3, 4, 2)
        aw = build_two_level_hamiltonian(p, space, "as-written").matrix
        tb = build_two_level_hamiltonian(p, space, "textbook").matrix
        diff = aw - tb
        assert np.max(np.abs(diff - np.diag(np.diag(diff)))) == 0.0
        # |0><0| shift differs by Omega g1/Delta - Omega^2/Delta = -0.05 at these params
        assert diff[0, 0] == pytest.approx(-(2.0 * 1.0 / 40.0) + (2.0**2 / 40.0))

    def test_unknown_variant_rejected(self):
        p = ModelParams(Delta=10.0)
        with pytest.raises(ValueError, match="variant"):
            build_two_level_hamiltonian(p, hybrid_space(2, 2, 2), "other")

    def test_requires_nonzero_Delta(self):
        with pytest.raises(ValueError, match="Delta"):
            build_two_level_hamiltonian(ModelParams(), hybrid_space(2, 2, 2))


class TestAtomCouplingSpectrum:
    def test_diagonal_case(self):
        # eps=0, alpha=0.5: matrix is diag(alpha^2, 0)
        p = ModelParams(delta=1.0, Delta=2.0, Omega=1.0, g1=1.0, g2=1.0)
        s = atomic_coupling_spectrum(p)
        assert s.alpha == pytest.approx(0.5)
        assert s.lambda1 == pytest.approx(0.25, abs=1e-14)
        assert s.lambda2 == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(s.e1, [1.0, 0.0], atol=1e-14)
        assert np.allclose(s.e2, [0.0, 1.0], atol=1e-14)

    def test_closed_form_eigenvalues(self):
        # alpha=3, eps=2: lambda = (3/2)(3 +- 5) = 12, -3
        p = ModelParams(delta=2.0, Delta=1.0, Omega=3.0, g1=1.0, g2=2.0, eps=2.0)
        s = atomic_coupling_spectrum(p)
        assert s.lambda1 == pytest.approx(12.0, abs=1e-12)
        assert s.lambda2 == pytest.approx(-3.0, abs=1e-12)
        # g2/delta^2 = 0.5: g_eff = 0.5 (lambda + 4)
        assert s.g_eff_1 == pytest.approx(8.0, abs=1e-12)
        assert s.g_eff_2 == pytest.approx(0.5, abs=1e-12)

    def test_scalar_limit(self):
        # alpha=0, eps=1, g2/delta^2=1: g_hat = eps^2 * identity
        p = ModelParams(delta=1.0, Delta=5.0, Omega=0.0, g1=1.0, g2=1.0, eps=1.0)
        s = atomic_coupling_spectrum(p)
        assert s.g_eff_1 == pytest.approx(1.0)
        assert s.g_eff_2 == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(-4.0, 4.0, allow_nan=False),
        eps=st.floats(0.0, 5.0, allow_nan=False),
    )
    def test_trace_and_determinant_identities(self, alpha, eps):
        # tr = alpha^2, det = -(alpha eps)^2 for the 2x2 coupling matrix
        Delta = 1.0 if alpha >= 0 else -1.0
        p = ModelParams(delta=1.0, Delta=Delta, Omega=abs(alpha), g1=1.0, g2=1.0, eps=eps)
        s = atomic_coupling_spectrum(p)
        scale = max(1.0, alpha**2, eps**2)
        assert s.lambda1 + s.lambda2 == pytest.approx(alpha**2, abs=1e-12 * scale**2)
        assert s.lambda1 * s.lambda2 == pytest.approx(-((alpha * eps) ** 2), abs=1e-11 * scale**2)
        assert s.lambda1 >= s.lambda2
        assert abs(np.dot(s.e1, s.e2)) <= 1e-12

    def test_eliminations_require_nonzero_detunings(self):
        with pytest.raises(ValueError):
            atomic_coupling_spectrum(ModelParams(delta=0.0, Delta=1.0))
        with pytest.raises(ValueError):
            atomic_coupling_spectrum(ModelParams(delta=1.0, Delta=0.0))


class TestEffectiveHamiltonian:
    def test_free_oscillator(self):
        h = build_effective_hamiltonian(0.0, 1.0, oscillator_space(4)).matrix
        assert np.allclose(h, np.diag([0.0, 1.0, 2.0, 3.0]))

    def test_two_phonon_element(self):
        # <0|(b+b^dag)^2|2> = sqrt(2)
        h = build_effective_hamiltonian(1.0, 1.0, oscillator_space(3)).matrix
        assert h[0, 2] == pytest.approx(np.sqrt(2.0))

    def test_hermitian(self):
        h = build_effective_hamiltonian(2.7, 1.0, oscillator_space(12))
        assert h.is_hermitian(1e-12)

    def test_unstable_regime_warns(self):
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            build_effective_hamiltonian(-0.2, 1.0, oscillator_space(4))  # q^2 = 0.2 > 0
        with pytest.warns(UnstableRegimeWarning):
            build_effective_hamiltonian(-0.3, 1.0, oscillator_space(4))

    def test_stable_regime_is_quiet(self):
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            build_effective_hamiltonian(0.5, 1.0, oscillator_space(4))

    def test_rejects_composite_space(self):
        with pytest.raises(ValueError):
            build_effective_hamiltonian(1.0, 1.0, hybrid_space(2, 2, 3))


class TestQuadraticTermAgainstLadderProducts:
    """Each Hamiltonian's (b + b^dag)^2 term equals the truncated ladder product.

    The reference multiplies the ladder operators as matrices, the way the
    constructors used to; the constructors now write the bands directly.
    """

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 16, 33])
    def test_effective(self, d):
        g, omega_m = 0.7, 1.3
        space = oscillator_space(d)
        b = annihilation(space, 0)
        ref = omega_m * (b.dag() @ b) + g * ((b + b.dag()) @ (b + b.dag()))
        h = build_effective_hamiltonian(g, omega_m, space)
        assert np.max(np.abs(h.matrix - ref.matrix)) <= 1e-12 * max(1.0, np.max(np.abs(ref.matrix)))

    @pytest.mark.parametrize("variant", ["full", "as-written", "textbook"])
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_hybrid(self, variant, d):
        p = ModelParams(delta=5.0, Delta=80.0, g1=1.3, g2=0.37, Omega=2.1, eps=1.7)
        p0 = ModelParams(delta=5.0, Delta=80.0, g1=1.3, g2=0.0, Omega=2.1, eps=1.7)
        if variant == "full":
            space = hybrid_space(3, d, 3)
            h, h0 = build_full_hamiltonian(p, space), build_full_hamiltonian(p0, space)
        else:
            space = hybrid_space(3, d, 2)
            h = build_two_level_hamiltonian(p, space, variant)
            h0 = build_two_level_hamiltonian(p0, space, variant)
        a, b = annihilation(space, 0), annihilation(space, 1)
        ref = h0 + p.g2 * ((a.dag() @ a) @ (b + b.dag()) @ (b + b.dag()))
        assert np.max(np.abs(h.matrix - ref.matrix)) <= 1e-12 * max(1.0, np.max(np.abs(ref.matrix)))


class DenseReference:
    """The model's operators built with dense numpy matrices throughout.

    Dense Kronecker embeddings of dense ladder matrices: the dense reference
    of the same sums the constructors form, so every entry sees the same
    floating-point arithmetic.  The constructors sum CSR Kronecker products
    of single-factor matrices instead; their matrices must come out
    bit-identical.
    """

    def __init__(self, sizes):
        self.sizes = sizes

    def embed(self, idx, m):
        blocks = [m if i == idx else np.eye(d, dtype=complex) for i, d in enumerate(self.sizes)]
        out = blocks[0]
        for b in blocks[1:]:
            out = np.kron(out, b)
        return out

    def ladder(self, idx):
        d = self.sizes[idx]
        return self.embed(idx, np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1).astype(complex))

    def proj(self, i, j):
        m = np.zeros((self.sizes[2], self.sizes[2]), dtype=complex)
        m[i, j] = 1.0
        return self.embed(2, m)

    @staticmethod
    def two_band(diag, off):
        k = np.arange(diag.size)
        m = np.zeros((diag.size, diag.size), dtype=complex)
        m[k, k] = diag
        m[k[:-2], k[2:]] = off
        m[k[2:], k[:-2]] = off
        return m

    def optomechanical(self, g2):
        dc, dm = self.sizes[0], self.sizes[1]
        nmat = np.diag(np.arange(dc, dtype=float)).astype(complex)
        out = np.kron(nmat, self.two_band(*_x2_bands(dm)))
        return g2 * np.kron(out, np.eye(self.sizes[2], dtype=complex))

    def full(self, p):
        a, b = self.ladder(0), self.ladder(1)
        na, nb = a.conj().T @ a, b.conj().T @ b
        h = p.delta * na + p.omega_m * nb
        h = h + p.Delta * self.proj(2, 2) - p.delta * self.proj(1, 1)
        drive = p.Omega * self.proj(2, 0) + p.g1 * (a.conj().T @ self.proj(1, 2))
        h = h + drive + drive.conj().T
        h = h + self.optomechanical(p.g2)
        return h + p.eps * (a + a.conj().T)

    def two_level(self, p, variant):
        coupling = p.Omega * p.g1 / p.Delta
        s0, s1 = (coupling, coupling) if variant == "as-written" else (p.Omega**2 / p.Delta, p.g1**2 / p.Delta)
        a, b = self.ladder(0), self.ladder(1)
        na, nb = a.conj().T @ a, b.conj().T @ b
        h = p.delta * na + p.omega_m * nb - p.delta * self.proj(1, 1)
        h = h - s0 * self.proj(0, 0)
        h = h - s1 * (na @ self.proj(1, 1))
        flip = a @ self.proj(0, 1)
        h = h - coupling * (flip + flip.conj().T)
        h = h + self.optomechanical(p.g2)
        return h + p.eps * (a + a.conj().T)

    def effective(self, g, omega_m):
        diag, off = _x2_bands(self.sizes[0])
        n = np.arange(diag.size, dtype=float)
        return self.two_band(omega_m * n + g * diag, g * off)

    def quadratures(self, idx):
        b = self.ladder(idx)
        return 0.5 * (b + b.conj().T), (-0.5j) * (b - b.conj().T)


_REFERENCE_PARAMS = (
    ModelParams(delta=5.0, Delta=80.0, g1=1.3, g2=0.37, Omega=2.1, eps=1.7),
    ModelParams(omega_m=1.3, delta=-10.0, Delta=40.0, g1=1.5, g2=0.4, Omega=2.5, eps=0.0),
    ModelParams(delta=0.0, Delta=-30.0, g1=0.7, g2=0.02, Omega=0.0, eps=0.3),
)


class TestSparseBuildMatchesDenseReference:
    """Sparse-built operators are bit-identical to the dense construction."""

    @pytest.mark.parametrize("p", _REFERENCE_PARAMS)
    @pytest.mark.parametrize("dims", [(2, 2), (3, 5), (4, 9), (8, 32)])
    def test_hybrid_hamiltonians(self, p, dims):
        ref3 = DenseReference(dims + (3,))
        assert np.array_equal(build_full_hamiltonian(p, hybrid_space(*dims, 3)).matrix, ref3.full(p))
        ref2 = DenseReference(dims + (2,))
        for variant in ("as-written", "textbook"):
            h = build_two_level_hamiltonian(p, hybrid_space(*dims, 2), variant)
            assert np.array_equal(h.matrix, ref2.two_level(p, variant))

    @pytest.mark.parametrize("g", [0.0, 0.7, -0.2])
    @pytest.mark.parametrize("d", [2, 3, 4, 17, 200])
    def test_effective_hamiltonian(self, g, d):
        h = build_effective_hamiltonian(g, 1.3, oscillator_space(d))
        assert np.array_equal(h.matrix, DenseReference((d,)).effective(g, 1.3))

    @pytest.mark.parametrize("sizes", [(5,), (3, 6, 3), (8, 32, 2)])
    def test_quadratures(self, sizes):
        space = hybrid_space(*sizes[:2], sizes[2]) if len(sizes) == 3 else oscillator_space(sizes[0])
        ref = DenseReference(sizes)
        for idx in ([0, 1] if len(sizes) == 3 else [0]):
            x, p = ref.quadratures(idx)
            assert np.array_equal(position(space, idx).matrix, x)
            assert np.array_equal(momentum(space, idx).matrix, p)

    @pytest.mark.parametrize("sizes", [(5,), (3, 6, 3), (8, 32, 2)])
    def test_ladders_and_level_projectors(self, sizes):
        space = hybrid_space(*sizes[:2], sizes[2]) if len(sizes) == 3 else oscillator_space(sizes[0])
        ref = DenseReference(sizes)
        for idx in ([0, 1] if len(sizes) == 3 else [0]):
            assert np.array_equal(annihilation(space, idx).matrix, ref.ladder(idx))
        if len(sizes) == 3:
            for i in range(sizes[2]):
                for j in range(sizes[2]):
                    assert np.array_equal(level_projector(space, 2, i, j).matrix, ref.proj(i, j))


class TestOneAssembly:
    """Each hybrid Hamiltonian is assembled once: one Operator, no per-term ones."""

    @pytest.mark.parametrize("build, levels", [
        (build_full_hamiltonian, 3),
        (lambda p, space: build_two_level_hamiltonian(p, space, "textbook"), 2),
    ])
    def test_one_operator_per_hamiltonian(self, monkeypatch, build, levels):
        built = []
        post_init = Operator.__post_init__

        def counting(self):
            built.append(self.space)
            post_init(self)

        monkeypatch.setattr(Operator, "__post_init__", counting)
        space = hybrid_space(8, 32, levels)
        build(ModelParams(delta=20.0, Delta=100.0, Omega=1.0, g1=1.3, g2=0.02, eps=0.5), space)
        assert built == [space]


def test_spectrum_dataclass_is_plain_record():
    s = AtomCouplingSpectrum(
        alpha=1.0,
        lambda1=2.0,
        lambda2=-1.0,
        e1=np.array([1.0, 0.0]),
        e2=np.array([0.0, 1.0]),
        g_eff_1=0.5,
        g_eff_2=0.25,
    )
    assert s.lambda1 > s.lambda2
