"""Unit tests for the operator algebra layer.

Expected numbers here are either definitional (ladder matrix elements,
projector entries) or computed independently in the test body (np.kron
reference layouts, geometric-series moments), never read back from the
module under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from optosqueeze.operators import (
    Fock,
    HilbertSpace,
    Level,
    Operator,
    QuantumState,
    SpaceMismatchError,
    annihilation,
    basis_state,
    commutator,
    creation,
    expectation,
    identity,
    level_projector,
    momentum,
    number,
    position,
    tensor_embed,
    thermal_state,
    thermal_tail_mass,
    vacuum_state,
    variance,
)


def single_fock(d):
    return HilbertSpace((Fock(d),))


class TestSpaces:
    def test_total_dim_is_product(self):
        sp = HilbertSpace((Fock(4), Fock(6), Level(3)))
        assert sp.total_dim == 4 * 6 * 3
        assert sp.factor_sizes == (4, 6, 3)

    def test_fock_dim_lower_bound(self):
        with pytest.raises(ValueError):
            Fock(1)
        with pytest.raises(ValueError):
            Level(1)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpace(())

    def test_equality_is_structural(self):
        assert HilbertSpace((Fock(3), Level(2))) == HilbertSpace((Fock(3), Level(2)))
        assert HilbertSpace((Fock(3),)) != HilbertSpace((Fock(4),))


class TestLadder:
    def test_fock3_matrix_elements(self):
        b = annihilation(single_fock(3), 0).matrix
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1.0
        expected[1, 2] = np.sqrt(2.0)
        assert np.array_equal(b, expected)

    def test_commutator_off_truncation_edge(self):
        d = 40
        sp = single_fock(d)
        b = annihilation(sp, 0)
        c = commutator(b, b.dag()).matrix
        # exact identity on |n>, n <= d-2
        assert np.allclose(np.diag(c)[: d - 1], 1.0, atol=1e-14)
        assert np.max(np.abs(c - np.diag(np.diag(c)))) == 0.0

    @given(d=st.integers(min_value=2, max_value=25))
    def test_truncation_corner_is_one_minus_d(self, d):
        sp = single_fock(d)
        c = commutator(annihilation(sp, 0), creation(sp, 0)).matrix
        assert c[d - 1, d - 1] == pytest.approx(1 - d, abs=1e-12)

    def test_number_expectation_on_fock_state(self):
        sp = single_fock(5)
        one = basis_state(sp, [1])
        assert expectation(one, number(sp, 0)) == pytest.approx(1.0, abs=1e-14)

    def test_annihilation_requires_fock_factor(self):
        sp = HilbertSpace((Fock(3), Level(3)))
        with pytest.raises(TypeError):
            annihilation(sp, 1)
        with pytest.raises(IndexError):
            annihilation(sp, 2)

    def test_quadrature_commutator_interior(self):
        sp = single_fock(12)
        c = commutator(position(sp, 0), momentum(sp, 0)).matrix
        # [X, P] = i/2 away from the truncation edge
        assert np.allclose(np.diag(c)[:-1], 0.5j, atol=1e-14)


class TestProjectors:
    def test_single_entry(self):
        sp = HilbertSpace((Level(3),))
        m = level_projector(sp, 0, 2, 0).matrix
        expected = np.zeros((3, 3), dtype=complex)
        expected[2, 0] = 1.0
        assert np.array_equal(m, expected)

    def test_completeness(self):
        sp = HilbertSpace((Fock(2), Level(3)))
        total = sum(
            (level_projector(sp, 1, i, i) for i in range(3)),
            start=-1 * identity(sp),
        )
        assert np.max(np.abs(total.matrix)) == 0.0

    def test_adjoint(self):
        sp = HilbertSpace((Level(3),))
        assert level_projector(sp, 0, 0, 1).dag() == level_projector(sp, 0, 1, 0)

    def test_index_bounds(self):
        sp = HilbertSpace((Level(3),))
        with pytest.raises(IndexError):
            level_projector(sp, 0, 3, 0)


class TestTensorEmbed:
    def test_identity_embedding(self):
        sp = HilbertSpace((Fock(3), Level(2)))
        op = tensor_embed([], sp)
        assert np.array_equal(op.matrix, np.eye(6, dtype=complex))

    def test_against_independent_kron(self):
        sp = HilbertSpace((Fock(3), Level(2)))
        nmat = np.diag([0.0, 1.0, 2.0]).astype(complex)
        op = tensor_embed([(0, nmat)], sp)
        ref = np.kron(nmat, np.eye(2, dtype=complex))
        assert np.array_equal(op.matrix, ref)
        assert op.trace() == pytest.approx(6.0)  # (0+1+2)*2

    def test_joint_equals_product(self):
        sp = HilbertSpace((Fock(3), Fock(2)))
        a = _rng_matrix(3, seed=11)
        b = _rng_matrix(2, seed=12)
        joint = tensor_embed([(0, a), (1, b)], sp)
        prod = tensor_embed([(0, a)], sp) @ tensor_embed([(1, b)], sp)
        assert np.allclose(joint.matrix, prod.matrix, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        d0=st.integers(2, 5),
        d1=st.integers(2, 5),
        d2=st.integers(2, 4),
        seed=st.integers(0, 2**31),
    )
    def test_multiplicative_over_commuting_factors(self, d0, d1, d2, seed):
        sp = HilbertSpace((Fock(d0), Fock(d1), Level(d2)))
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d0, d0)) + 1j * rng.normal(size=(d0, d0))
        b = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
        joint = tensor_embed([(0, a), (2, b)], sp)
        prod = tensor_embed([(0, a)], sp) @ tensor_embed([(2, b)], sp)
        assert np.max(np.abs(joint.matrix - prod.matrix)) <= 1e-12 * max(
            1.0, np.max(np.abs(joint.matrix))
        )

    def test_duplicate_factor_rejected(self):
        sp = HilbertSpace((Fock(3), Level(2)))
        m = np.eye(3)
        with pytest.raises(ValueError, match="duplicate"):
            tensor_embed([(0, m), (0, m)], sp)

    def test_shape_mismatch_rejected(self):
        sp = HilbertSpace((Fock(3), Level(2)))
        with pytest.raises(ValueError, match="shape"):
            tensor_embed([(0, np.eye(4))], sp)


def _rng_matrix(d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


class TestStates:
    def test_pure_norm_enforced(self):
        sp = single_fock(3)
        with pytest.raises(ValueError, match="norm"):
            QuantumState.pure(sp, [1.0, 1.0, 0.0])
        # drift below the 1e-10 gate is accepted
        v = np.array([1.0 + 5e-11, 0.0, 0.0])
        QuantumState.pure(sp, v)

    def test_mixed_trace_enforced(self):
        sp = single_fock(2)
        with pytest.raises(ValueError, match="trace"):
            QuantumState.mixed(sp, np.diag([0.6, 0.6]))

    def test_mixed_hermiticity_enforced(self):
        sp = single_fock(2)
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            QuantumState.mixed(sp, rho)

    def test_diagonal_hermiticity_gate(self):
        # |rho - rho^dag| on a diagonal is 2 |Im rho_ii|, gated at 1e-10
        sp = single_fock(2)
        QuantumState.mixed(sp, np.diag([0.5 + 4e-11j, 0.5 - 4e-11j]))
        with pytest.raises(ValueError, match="Hermitian"):
            QuantumState.mixed(sp, np.diag([0.5 + 6e-11j, 0.5 - 6e-11j]))

    def test_mixed_positivity_enforced(self):
        sp = single_fock(2)
        rho = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            QuantumState.mixed(sp, rho)

    def test_density_of_pure_state(self):
        sp = single_fock(2)
        psi = QuantumState.pure(sp, [1.0, 0.0])
        assert np.array_equal(psi.density(), np.diag([1.0, 0.0]).astype(complex))
        assert psi.purity() == 1.0

    def test_basis_state_indexing(self):
        sp = HilbertSpace((Fock(2), Fock(2), Level(3)))
        psi = basis_state(sp, [0, 0, 2])
        idx = np.flatnonzero(psi.vector)
        assert list(idx) == [2]  # atom is the innermost factor

    def test_vacuum(self):
        sp = HilbertSpace((Fock(4), Level(2)))
        v = vacuum_state(sp)
        assert v.vector[0] == 1.0
        assert expectation(v, number(sp, 0)) == pytest.approx(0.0, abs=1e-14)


class TestThermal:
    def test_zero_temperature_is_ground_projector(self):
        sp = single_fock(6)
        rho = thermal_state(sp, 0, 0.0).rho
        expected = np.zeros((6, 6), dtype=complex)
        expected[0, 0] = 1.0
        assert np.array_equal(rho, expected)

    def test_mean_occupation(self):
        sp = single_fock(200)
        th = thermal_state(sp, 0, 10.0)
        mean = expectation(th, number(sp, 0)).real
        # independent truncated geometric sums; the renormalized mean sits
        # d*tail ~ 1.05e-6 below nbar at this truncation
        n = np.arange(200)
        w = (10.0 / 11.0) ** n
        ref = float((n * w).sum() / w.sum())
        assert mean == pytest.approx(ref, rel=1e-12)
        assert abs(mean - 10.0) < 1.5e-6

    def test_position_variance_matches_moment_identity(self):
        # Var X = (2 nbar + 1)/4 for X = (b + b^dag)/2
        sp = single_fock(200)
        th = thermal_state(sp, 0, 10.0)
        assert variance(th, position(sp, 0)) == pytest.approx(21.0 / 4.0, abs=1e-6)

    def test_trace_renormalized(self):
        sp = single_fock(24)
        th = thermal_state(sp, 0, 3.0)
        assert np.trace(th.rho).real == pytest.approx(1.0, abs=1e-12)

    def test_tail_mass(self):
        # independent closed form: sum_{n>=d} p_n = (nbar/(nbar+1))^d
        assert thermal_tail_mass(10.0, 200) == pytest.approx(
            np.exp(200.0 * np.log(10.0 / 11.0)), rel=1e-12
        )
        assert 0.0 < thermal_tail_mass(10.0, 200) < 1e-6
        assert thermal_tail_mass(0.0, 50) == 0.0

    def test_composite_space_puts_other_factors_in_ground(self):
        sp = HilbertSpace((Fock(3), Fock(8), Level(3)))
        th = thermal_state(sp, 1, 1.5)
        assert expectation(th, number(sp, 0)).real == pytest.approx(0.0, abs=1e-14)
        assert expectation(th, level_projector(sp, 2, 0, 0)).real == pytest.approx(1.0, abs=1e-12)

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError):
            thermal_state(single_fock(4), 0, -0.1)


class TestExpectation:
    def test_vacuum_number(self):
        sp = single_fock(5)
        assert expectation(vacuum_state(sp), number(sp, 0)) == 0.0

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            expectation(vacuum_state(single_fock(5)), number(single_fock(6), 0))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), d=st.integers(2, 8))
    def test_hermitian_expectation_is_real(self, seed, d):
        sp = single_fock(d)
        rng = np.random.default_rng(seed)
        m = _rng_matrix(d, seed)
        herm = Operator(sp, m + m.conj().T)
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        assert abs(expectation(QuantumState.pure(sp, v), herm).imag) < 1e-10


class TestOperatorArithmetic:
    def test_dag_and_hermiticity(self):
        sp = single_fock(4)
        b = annihilation(sp, 0)
        assert not b.is_hermitian()
        x = 0.5 * (b + b.dag())
        assert x.is_hermitian(tol=1e-15)

    def test_scalar_and_matmul(self):
        sp = single_fock(3)
        b = annihilation(sp, 0)
        n1 = (b.dag() @ b).matrix
        assert np.allclose(n1, np.diag([0.0, 1.0, 2.0]))
        assert np.allclose((2.0 * b).matrix, 2.0 * b.matrix)

    def test_operator_product_via_star_rejected(self):
        sp = single_fock(3)
        b = annihilation(sp, 0)
        with pytest.raises(TypeError):
            b * b

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Operator(single_fock(3), np.eye(4))


class TestOperatorStorage:
    """The CSR-backed Operator: what callers and the benchmark tracer rely on."""

    def test_accepts_dense_and_sparse(self):
        sp = single_fock(4)
        m = _rng_matrix(4, seed=3)
        m[m.real < 0] = 0.0
        from_dense = Operator(sp, m)
        for fmt in ("csr", "csc", "coo"):
            from_sparse = Operator(sp, sparse.csr_array(m).asformat(fmt))
            assert isinstance(from_sparse.csr, sparse.csr_array)
            assert from_sparse == from_dense
        assert isinstance(from_dense.csr, sparse.csr_array)
        assert from_dense.csr.dtype == complex
        assert np.array_equal(from_dense.matrix, m)

    def test_keeps_its_own_copy_without_stored_zeros(self):
        sp = single_fock(3)
        src = sparse.csr_array(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]], dtype=complex))
        src.data[1] = 0.0  # an explicitly stored zero
        op = Operator(sp, src)
        assert op.csr.nnz == 2
        src.data[0] = 7.0
        assert op.matrix[0, 0] == 1.0

    def test_matrix_is_read_only_dense(self):
        b = annihilation(single_fock(4), 0)
        m = b.matrix
        assert type(m) is np.ndarray
        assert m.dtype == complex
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 1] = 5.0
        assert b.matrix[0, 1] == 1.0

    def test_shape_mismatch_raises_for_sparse_and_dense(self):
        sp = single_fock(3)
        for m in (np.eye(4), sparse.identity(4, format="csr"), np.ones(3), np.ones((3, 3, 3))):
            with pytest.raises(ValueError, match="shape"):
                Operator(sp, m)

    def test_is_hermitian_on_sparse(self):
        sp = single_fock(5)
        m = sparse.random_array((5, 5), density=0.4, dtype=complex, rng=np.random.default_rng(4))
        m = m + sparse.csr_array(([1.0], ([0], [4])), shape=(5, 5))  # at least one unpaired entry
        op = Operator(sp, m)
        assert not op.is_hermitian()
        assert (op + op.dag()).is_hermitian(tol=0.0)
        assert not Operator(sp, sparse.csr_array(([1e-9j], ([2], [2])), shape=(5, 5))).is_hermitian()
        assert Operator(sp, sparse.csr_array((5, 5), dtype=complex)).is_hermitian(tol=0.0)

    def test_arithmetic_matches_dense(self):
        sp = single_fock(4)
        ma, mb = _rng_matrix(4, seed=5), _rng_matrix(4, seed=6)
        a, b = Operator(sp, ma), Operator(sp, mb)
        assert np.array_equal(a.dag().matrix, ma.conj().T)
        assert np.array_equal((a + b).matrix, ma + mb)
        assert np.array_equal((a - b).matrix, ma - mb)
        assert np.array_equal((-a).matrix, -ma)
        assert np.array_equal((a * 0.5j).matrix, 0.5j * ma)
        assert np.array_equal((0.5j * a).matrix, 0.5j * ma)
        assert np.allclose((a @ b).matrix, ma @ mb, rtol=0.0, atol=1e-13)
        assert a.trace() == pytest.approx(np.trace(ma), rel=1e-15)

    def test_traced_methods_are_class_attributes(self):
        # the benchmark tracer patches these by name on the class itself
        for name in ("dag", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__"):
            assert callable(Operator.__dict__[name])

    def test_mixed_expectation_matches_dense_trace(self):
        sp = single_fock(6)
        rng = np.random.default_rng(8)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        op = position(sp, 0) @ number(sp, 0)
        ref = np.einsum("ij,ji->", rho, op.matrix)
        assert expectation(QuantumState.mixed(sp, rho), op) == pytest.approx(ref, rel=1e-14)
