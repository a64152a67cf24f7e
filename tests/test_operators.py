"""Unit tests for the operator algebra layer.

Expected numbers here are either definitional (ladder matrix elements,
projector entries) or computed independently in the test body (np.kron
reference layouts, geometric-series moments), never read back from the
module under test.
"""

import functools
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from optosqueeze.dynamics import exact_quadrature_moments
from optosqueeze.operators import (
    Fock,
    HilbertSpace,
    Level,
    Operator,
    QuantumState,
    _kron_sum,
    _require_same_space,
    annihilation,
    level_projector,
    momentum,
    position,
    thermal_populations,
)


def embed_csr(ops, space):
    """`_kron_sum` of one term of coefficient 1: each (factor_index, matrix) on its factor.

    Unlisted factors carry identities.  The matrices may be dense or
    sparse; each enters as the (rows, cols, values) triple of its stored
    entries.
    """
    factors = {}
    for idx, m in ops:
        m = sparse.coo_array(m, dtype=complex)
        factors[idx] = (m.row, m.col, m.data)
    return _kron_sum([(1.0, factors)], space.factor_sizes)


def embed(ops, space):
    return Operator(space, embed_csr(ops, space))


def creation(space, factor_index):
    return annihilation(space, factor_index).dag()


def identity(space):
    return Operator(space, sparse.identity(space.total_dim, dtype=complex, format="csr"))


def number(space, factor_index):
    b = annihilation(space, factor_index)
    return b.dag() @ b


def thermal_tail_mass(nbar, dim):
    """Mass of the untruncated thermal distribution at n >= dim: (nbar/(nbar+1))^dim."""
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"nbar must be finite and >= 0, got {nbar!r}")
    if nbar == 0:
        return 0.0
    return float((nbar / (nbar + 1.0)) ** dim)


def commutator(a, b):
    return a @ b - b @ a


def trace(op):
    return complex(op.csr.diagonal().sum())


def expectation(state, op):
    """<psi|O|psi> on a pure state."""
    _require_same_space(state, op)
    return complex(np.vdot(state.vector, op.csr @ state.vector))


def variance(state, op):
    """<O^2> - <O>^2 for a Hermitian observable."""
    m = expectation(state, op).real
    m2 = expectation(state, op @ op).real
    return m2 - m * m


def basis_state(space, occupations):
    """The product basis state |n_0, ..., n_k> for the given occupations."""
    v = np.zeros(space.total_dim, dtype=complex)
    v[np.ravel_multi_index(tuple(occupations), space.factor_sizes)] = 1.0
    return QuantumState.pure(space, v)


def vacuum_state(space):
    return basis_state(space, [0] * len(space.factors))


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
        for build in (annihilation, position, momentum):
            with pytest.raises(TypeError):
                build(sp, 1)
            with pytest.raises(IndexError):
                build(sp, 2)

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
        diff = level_projector(sp, 0, 0, 1).dag().csr != level_projector(sp, 0, 1, 0).csr
        assert diff.nnz == 0

    def test_index_bounds(self):
        sp = HilbertSpace((Level(3),))
        with pytest.raises(IndexError):
            level_projector(sp, 0, 3, 0)


class TestTensorEmbed:
    """Single-factor matrices embedded in the full space by one `_kron_sum` term (`embed`)."""

    def test_identity_embedding(self):
        sp = HilbertSpace((Fock(3), Level(2)))
        op = embed([], sp)
        assert np.array_equal(op.matrix, np.eye(6, dtype=complex))

    def test_against_independent_kron(self):
        sp = HilbertSpace((Fock(3), Level(2)))
        nmat = np.diag([0.0, 1.0, 2.0]).astype(complex)
        op = embed([(0, nmat)], sp)
        ref = np.kron(nmat, np.eye(2, dtype=complex))
        assert np.array_equal(op.matrix, ref)
        assert trace(op) == pytest.approx(6.0)  # (0+1+2)*2

    def test_joint_equals_product(self):
        sp = HilbertSpace((Fock(3), Fock(2)))
        a = _rng_matrix(3, seed=11)
        b = _rng_matrix(2, seed=12)
        joint = embed([(0, a), (1, b)], sp)
        prod = embed([(0, a)], sp) @ embed([(1, b)], sp)
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
        joint = embed([(0, a), (2, b)], sp)
        prod = embed([(0, a)], sp) @ embed([(2, b)], sp)
        assert np.max(np.abs(joint.matrix - prod.matrix)) <= 1e-12 * max(
            1.0, np.max(np.abs(joint.matrix))
        )


def kron_chain_reference(ops, space):
    """CSR of the embedding as a left-to-right chain of pairwise `scipy.sparse.kron` products."""
    mats = {idx: sparse.csr_array(m, dtype=complex) for idx, m in ops}
    blocks = [mats.get(idx, sparse.identity(f.size, dtype=complex, format="csr"))
              for idx, f in enumerate(space.factors)]
    return Operator(space, functools.reduce(lambda a, b: sparse.kron(a, b, format="csr"), blocks)).csr


@st.composite
def embeddings(draw):
    """A 1- to 3-factor space and a factor matrix on each drawn factor.

    Matrices are complex with a drawn share of zeros (all zeros included),
    passed dense or as CSR; factors without one get identities.
    """
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    space = HilbertSpace(tuple(Fock(d) if draw(st.booleans()) else Level(d) for d in sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    ops = []
    for idx, d in enumerate(sizes):
        if draw(st.booleans()):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m[rng.random((d, d)) < draw(st.floats(0.0, 1.0))] = 0.0
            ops.append((idx, sparse.csr_array(m) if draw(st.booleans()) else m))
    return space, ops


class TestKronSumBitIdentical:
    """One `_kron_sum` term stores exactly the CSR arrays of the pairwise kron chain."""

    @staticmethod
    def assert_same_csr(got, ref):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name

    @settings(max_examples=200, deadline=None)
    @given(embeddings())
    def test_matches_kron_chain(self, case):
        space, ops = case
        self.assert_same_csr(embed_csr(ops, space), kron_chain_reference(ops, space))

    @pytest.mark.parametrize("sizes", [(4,), (3, 2), (3, 5, 2)])
    def test_empty_embedding(self, sizes):
        space = HilbertSpace(tuple(Fock(d) for d in sizes))
        self.assert_same_csr(embed_csr([], space), kron_chain_reference([], space))

    def test_model_operators_at_chain_dims(self):
        # the embeddings the model Hamiltonians are made of, at 8 x 32 x 3
        space = HilbertSpace((Fock(8), Fock(32), Level(3)))
        ladder = annihilation(HilbertSpace((Fock(32),)), 0).csr
        proj = np.zeros((3, 3))
        proj[1, 2] = 1.0
        for ops in ([(1, ladder)], [(0, np.diag(np.arange(8.0))), (1, ladder @ ladder)], [(2, proj)]):
            self.assert_same_csr(embed_csr(ops, space), kron_chain_reference(ops, space))


@st.composite
def kron_sums(draw):
    """A 1- to 3-factor space and 1-4 scaled products of dense factor matrices on it.

    The matrices are dense with a drawn share of zeros, so the terms overlap
    on many off-diagonal entries as well as on the diagonal.
    """
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    space = HilbertSpace(tuple(Fock(d) for d in sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        mats = {}
        for idx, d in enumerate(sizes):
            if draw(st.booleans()):
                m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                m[rng.random((d, d)) < draw(st.floats(0.0, 1.0))] = 0.0
                mats[idx] = m
        terms.append((draw(st.floats(-3.0, 3.0)), mats))
    return space, terms


class TestKronSum:
    """`_kron_sum` against the dense sum of scaled `np.kron` chains, term after term."""

    @settings(max_examples=100, deadline=None)
    @given(kron_sums())
    def test_matches_dense_term_by_term_sum(self, case):
        space, terms = case
        ref = np.zeros((space.total_dim,) * 2, dtype=complex)
        triples = []
        for c, mats in terms:
            blocks = [mats.get(i, np.eye(f.size, dtype=complex)) for i, f in enumerate(space.factors)]
            ref = ref + c * functools.reduce(np.kron, blocks)
            triples.append((c, {i: (*np.nonzero(m), m[np.nonzero(m)]) for i, m in mats.items()}))
        got = _kron_sum(triples, space.factor_sizes)
        assert got.has_canonical_format
        # the diagonal is summed in list order, as the reference sums it
        assert np.array_equal(got.diagonal(), np.diag(ref))
        # an off-diagonal entry shared by several terms is summed once, in any order
        assert np.max(np.abs(got.toarray() - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def _rng_matrix(d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


@st.composite
def near_hermitian_matrices(draw):
    """A random 2-8 level matrix H + H^dag, then perturbed or with mirror entries removed.

    The pattern has a drawn density; a drawn set of entries is shifted by
    up to 1e-11 (near-Hermitian entries around the tested tolerances), and
    another set is zeroed without its mirror (an asymmetric pattern).
    """
    d = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    m = _rng_matrix(d, int(rng.integers(2**31))) * (rng.random((d, d)) < draw(st.floats(0.1, 1.0)))
    m = m + m.conj().T
    shift = rng.random((d, d)) < draw(st.floats(0.0, 0.3))
    m[shift] += 10.0 ** rng.uniform(-16, -11, size=shift.sum()) * np.exp(2j * np.pi * rng.random(shift.sum()))
    m[rng.random((d, d)) < draw(st.floats(0.0, 0.2))] = 0.0
    return m


class TestStates:
    def test_pure_norm_enforced(self):
        sp = single_fock(3)
        with pytest.raises(ValueError, match=r"pure state norm 1\.414\d* deviates"):
            QuantumState.pure(sp, [1.0, 1.0, 0.0])
        # drift below the 1e-10 gate is accepted
        v = np.array([1.0 + 5e-11, 0.0, 0.0])
        QuantumState.pure(sp, v)

    def test_pure_vector_is_read_only_copy(self):
        sp = single_fock(3)
        v = np.array([0.0, 1.0, 0.0])
        psi = QuantumState.pure(sp, v)
        v[1] = 5.0
        assert psi.vector.dtype == complex
        assert psi.vector[1] == 1.0
        with pytest.raises(ValueError):
            psi.vector[0] = 1.0
        with pytest.raises(ValueError, match="does not match"):
            QuantumState.pure(sp, [1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_vector_rejected(self, bad):
        # abs(nan - 1) > tol is False, so a plain "> tol" test let NaN through
        with pytest.raises(ValueError, match="norm"):
            QuantumState(single_fock(4), [bad, 0.0, 0.0, 0.0])

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
        assert variance(v, position(sp, 0)) == pytest.approx(0.25, abs=1e-15)


class TestThermal:
    def test_zero_temperature_is_ground_projector(self):
        p = thermal_populations(6, 0.0)
        assert p.dtype == float
        assert np.array_equal(p, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_mean_occupation(self):
        p = thermal_populations(200, 10.0)
        mean = float(p @ number(single_fock(200), 0).csr.diagonal().real)
        # independent truncated geometric sums; the renormalized mean sits
        # d*tail ~ 1.05e-6 below nbar at this truncation
        n = np.arange(200)
        w = (10.0 / 11.0) ** n
        ref = float((n * w).sum() / w.sum())
        assert mean == pytest.approx(ref, rel=1e-12)
        assert abs(mean - 10.0) < 1.5e-6

    def test_position_variance_matches_moment_identity(self):
        # Var X = (2 nbar + 1)/4 for X = (b + b^dag)/2; a diagonal state
        # weighs the diagonal of each observable by the occupations
        sp = single_fock(200)
        p = thermal_populations(200, 10.0)
        x = position(sp, 0)
        mean = float(p @ x.csr.diagonal().real)
        var = float(p @ (x @ x).csr.diagonal().real) - mean**2
        assert mean == 0.0
        assert var == pytest.approx(21.0 / 4.0, abs=1e-6)

    def test_trace_renormalized(self):
        # geometric ratio nbar/(nbar+1) = 3/4 between neighbours, renormalized
        # over 24 levels: p_0 = (1 - r)/(1 - r^24)
        p = thermal_populations(24, 3.0)
        assert p.shape == (24,)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(p[1:] / p[:-1], 0.75, rtol=1e-12, atol=0.0)
        assert p[0] == pytest.approx(0.25 / (1.0 - 0.75**24), rel=1e-12)

    def test_tail_mass(self):
        # independent closed form: sum_{n>=d} p_n = (nbar/(nbar+1))^d
        assert thermal_tail_mass(10.0, 200) == pytest.approx(
            np.exp(200.0 * np.log(10.0 / 11.0)), rel=1e-12
        )
        assert 0.0 < thermal_tail_mass(10.0, 200) < 1e-6
        assert thermal_tail_mass(0.0, 50) == 0.0

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError):
            thermal_populations(4, -0.1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_nbar_rejected(self, bad):
        # log(inf) - log(inf + 1) is NaN, and nan < 0 is False
        with pytest.raises(ValueError, match="finite"):
            thermal_populations(4, bad)
        with pytest.raises(ValueError, match="finite"):
            thermal_tail_mass(bad, 4)


class TestExpectation:
    def test_vacuum_number(self):
        sp = single_fock(5)
        assert expectation(vacuum_state(sp), number(sp, 0)) == 0.0

    def test_space_mismatch(self):
        with pytest.raises(ValueError, match="different Hilbert spaces"):
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
            assert (from_sparse.csr != from_dense.csr).nnz == 0
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

    def test_is_hermitian_matches_the_subtraction(self):
        # the verdict equals max |H - H^dag| <= tol as the sparse subtraction
        # reads it, exact zeros dropped, on every kind of pattern and value
        def by_subtraction(op, tol):
            diff = op.csr - op.csr.conj().T
            return diff.nnz == 0 or bool(np.max(np.abs(diff.data)) <= tol)

        rng = np.random.default_rng(31)
        sp = single_fock(7)
        at = 2.0**-40
        matrices = [np.zeros((7, 7), dtype=complex)]
        for _ in range(20):
            m = sparse.random_array((7, 7), density=0.4, dtype=complex, rng=rng).toarray()
            matrices += [m + m.conj().T,  # Hermitian
                         m + m.conj().T + 1e-13 * _rng_matrix(7, int(rng.integers(2**31))),  # near-Hermitian
                         m,  # asymmetric pattern
                         m + m.T]  # symmetric pattern, not Hermitian
        edge = np.zeros((7, 7), dtype=complex)
        edge[0, 1], edge[1, 0] = 0.5 + 0.25j, 0.5 - 0.25j - at  # differ by exactly 2^-40
        edge[2, 5] = at  # unpaired, exactly 2^-40
        edge[3, 3] = 1.0 + 0.5j * at  # imaginary diagonal: H - H^dag is 2^-40 there
        matrices.append(edge)
        for where in ((4, 4), (4, 6)):
            bad = matrices[1].copy()
            bad[where] = complex(math.nan, 0.0)
            matrices.append(bad)
        tols = (0.0, 1e-15, 1e-12, at, np.nextafter(at, 0.0), 1.0, math.inf, -1.0)
        verdicts = set()
        for m in matrices:
            op = Operator(sp, m)
            for tol in tols:
                assert op.is_hermitian(tol) is by_subtraction(op, tol), (m, tol)
                verdicts.add(op.is_hermitian(tol))
        assert verdicts == {True, False}
        assert Operator(sp, edge).is_hermitian(at) and not Operator(sp, edge).is_hermitian(np.nextafter(at, 0.0))
        assert not any(Operator(sp, m).is_hermitian(math.inf) for m in matrices[-2:])  # NaN fails

    @settings(max_examples=200, deadline=None)
    @given(near_hermitian_matrices(), st.sampled_from([0.0, 1e-15, 1e-13, 1e-12, 1e-10, 1.0]))
    def test_is_hermitian_matches_the_dense_difference(self, m, tol):
        # the verdict is max |H - H^dag| <= tol of the dense matrices, on
        # symmetric and asymmetric patterns and on entries near the tolerance
        want = bool(np.max(np.abs(m - m.conj().T)) <= tol)
        assert Operator(single_fock(m.shape[0]), m).is_hermitian(tol) is want

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
        assert trace(a) == pytest.approx(np.trace(ma), rel=1e-15)

    def test_traced_methods_are_class_attributes(self):
        # the benchmark tracer patches these by name on the class itself
        for name in ("dag", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__"):
            assert callable(Operator.__dict__[name])

    def test_traced_moments_contract(self):
        # the benchmark tracer reads the Operator from the first positional
        # argument of exact_quadrature_moments and the tail from its [2]
        assert next(iter(inspect.signature(exact_quadrature_moments).parameters)) == "H"
        d, nbar = 6, 1.5
        times = np.linspace(0.0, 1.0, 7)
        out = exact_quadrature_moments(number(single_fock(d), 0), nbar, times)
        assert len(out) == 3
        assert all(isinstance(a, np.ndarray) and a.shape == times.shape for a in out)
        # a free oscillator keeps its thermal occupations: the tail is the top two
        w = (nbar / (nbar + 1.0)) ** np.arange(d)
        assert np.allclose(out[2], w[-2:].sum() / w.sum(), rtol=1e-12, atol=0.0)
