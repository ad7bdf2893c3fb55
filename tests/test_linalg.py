import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twirlbreak import linalg
from twirlbreak.channels import DilatedChannel, ProbabilityVector, apply_dilation_dense
from twirlbreak.linalg import (
    DensityOperator,
    conjugate_sum,
    frobenius_distance,
    hermitian_eigenvalues,
    is_ppt,
    kron,
    negativity,
    partial_trace_multi,
    partial_transpose,
)
from twirlbreak.states import max_entangled, random_density, singlet
from twirlbreak.twirl import HaarSampler

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def ket(*bits):
    v = np.array([1.0])
    for b in bits:
        e = np.zeros(2)
        e[b] = 1.0
        v = np.kron(v, e)
    return v


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_x_on_first_qubit(self):
        assert np.allclose(kron(X, I2) @ ket(0, 0), ket(1, 0))

    def test_zz_phase(self):
        assert np.allclose(kron(Z, Z) @ ket(1, 1), ket(1, 1))


class TestPartialTrace:
    def test_max_entangled_marginal(self):
        for d in (2, 3, 4):
            red = partial_trace_multi(max_entangled(d).mat, [d, d], keep=[1])
            assert np.allclose(red, np.eye(d) / d, atol=1e-12)

    def test_product_marginal(self):
        rng = np.random.default_rng(7)
        rho_a = random_density(2, 1, rng)
        rho_b = random_density(3, 1, rng)
        joint = kron(rho_a.mat, rho_b.mat)
        assert frobenius_distance(partial_trace_multi(joint, [2, 3], keep=[0]), rho_a.mat) < 1e-12

    def test_singlet_marginal(self):
        red = partial_trace_multi(singlet().mat, [2, 2], keep=[1])
        assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


class TestPartialTranspose:
    def test_identity_channel_choi_spectrum(self):
        # the d = 2 maximally entangled state depolarized at p = (1,0,0,0) is itself
        spec = hermitian_eigenvalues(partial_transpose(max_entangled(2)))
        assert np.allclose(spec, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(8)
        rho_a, rho_b = random_density(2, 1, rng), random_density(2, 1, rng)
        pt = partial_transpose(DensityOperator(kron(rho_a.mat, rho_b.mat), 2, 2))
        assert hermitian_eigenvalues(pt)[0] >= -1e-12

    def test_involution(self):
        from twirlbreak.linalg import partial_transpose_mat

        rng = np.random.default_rng(9)
        rho = random_density(2, 3, rng)
        pt = partial_transpose(rho)
        assert np.allclose(partial_transpose_mat(pt, 2, 3), rho.mat)

    def test_side_a_option(self):
        from twirlbreak.linalg import partial_transpose_mat

        rng = np.random.default_rng(10)
        rho = random_density(2, 2, rng)
        via_b = partial_transpose_mat(rho.mat.T, 2, 2, side="B")
        assert np.allclose(partial_transpose_mat(rho.mat, 2, 2, side="A"), via_b)


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(4)), 1.0)

    def test_singlet_projector(self):
        spec = hermitian_eigenvalues(singlet().mat)
        assert np.allclose(spec, [0, 0, 0, 1], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_pt_of_singlet(self):
        spec = hermitian_eigenvalues(partial_transpose(singlet()))
        assert np.allclose(spec, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


class TestPptAndNegativity:
    def test_singlet_npt(self):
        assert not is_ppt(singlet())
        assert abs(negativity(singlet()) - 0.5) < 1e-12

    def test_maximally_mixed(self):
        rho = DensityOperator(np.eye(4) / 4, 2, 2)
        assert is_ppt(rho)
        assert negativity(rho) == 0.0

    def test_werner_boundary(self):
        from twirlbreak.states import werner_qubit

        spec = hermitian_eigenvalues(partial_transpose(werner_qubit(1 / 3)))
        assert abs(spec[0]) < 1e-12
        assert is_ppt(werner_qubit(1 / 3))


class TestFrobenius:
    def test_zero_on_equal(self):
        m = np.arange(4).reshape(2, 2).astype(complex)
        assert frobenius_distance(m, m) == 0.0

    def test_i_vs_z(self):
        assert abs(frobenius_distance(I2, Z) - 2.0) < 1e-15

    def test_singlet_triplet(self):
        assert abs(frobenius_distance(singlet().mat, max_entangled(2).mat) - np.sqrt(2)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_distance(np.eye(2), np.eye(3))


class TestDensityOperatorValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(4) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityOperator(m, 2, 2)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(4), 2, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5, 0, 0]), 2, 2)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(4) / 4, 2, 3)


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3)]))
@settings(max_examples=25, deadline=None)
def test_pt_is_trace_preserving_involution(seed, dims):
    from twirlbreak.linalg import partial_transpose_mat

    rng = np.random.default_rng(seed)
    rho = random_density(*dims, rng)
    pt = partial_transpose(rho)
    assert abs(np.trace(pt) - 1.0) < 1e-12
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
    assert np.allclose(partial_transpose_mat(pt, *dims), rho.mat, atol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(2, 3, rng)
    for keep in ([0], [1]):
        red = partial_trace_multi(rho.mat, [2, 3], keep)
        assert abs(np.trace(red) - 1.0) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_negativity_iff_ppt(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(2, 2, rng)
    assert (negativity(rho) <= 1e-10) == is_ppt(rho)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_eigenvalue_sum_is_trace(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(2, 2, rng)
    spec = hermitian_eigenvalues(rho.mat)
    assert abs(spec.sum() - 1.0) < 1e-10


class TestConjugateSum:
    @given(
        st.integers(1, 30),
        st.sampled_from(["U", "U*", "I", "V"]),
        st.sampled_from([2, 3]),
        st.sampled_from([1, 2, 3]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_unitary_channel(self, k, second, d, d_single, swap, long, seed):
        # "U", "U*": K-long stacks on both sides (two-sided route); "I", "V":
        # a length-1 stack (the identity, one Haar unitary) of dimension
        # d_single against K unitaries (one-sided route); swap exchanges the
        # sides; long adds two default two-sided chunks of terms to K
        if long and second in ("U", "U*"):
            k += 2 * (linalg.CONJUGATE_SUM_CACHE_BYTES // (16 * d**4))
        rng = np.random.default_rng(seed)
        us = HaarSampler(seed, d).sample_batch(k)
        single = {"I": np.eye(d_single)[None], "V": HaarSampler(seed + 1, d_single).sample_batch(1)}
        vs = {"U": us, "U*": us.conj(), **single}[second]
        a, b = (vs, us) if swap else (us, vs)
        da, db = a.shape[-1], b.shape[-1]
        w = rng.dirichlet(np.ones(k))
        rho = random_density(da, db, rng)
        out = conjugate_sum(rho.mat, a, b, w)
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out)[0] >= -1e-12
        # term-by-term sum as the reference at any K: each (U_k x V_k) rho
        # (U_k x V_k)^dag on its own, then the weighted sum
        a, b = np.broadcast_to(a, (k, da, da)), np.broadcast_to(b, (k, db, db))
        kr = np.einsum("nik,njl->nijkl", a, b).reshape(k, da * db, da * db)
        want = np.tensordot(w, kr @ rho.mat @ kr.conj().mT, 1)
        assert frobenius_distance(out, want) < 1e-11
        # the dense classical-environment dilation is affordable at small K
        if k <= 6:
            dense = apply_dilation_dense(DilatedChannel(ProbabilityVector(tuple(w)), a, b), rho)
            assert frobenius_distance(out, dense.mat) < 1e-11

    def test_chunks_match_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(30)
        us = HaarSampler(31, 2).sample_batch(50)
        w = rng.dirichlet(np.ones(50))
        op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        # two-sided and one-sided inputs; 50 terms fit in one chunk
        inputs = [(us, us.conj()), (us, np.eye(2)[None])]
        whole = [conjugate_sum(op, a, b, w) for a, b in inputs]
        # 7 terms a chunk on each route: two-sided, seven 4x4 Kronecker
        # products (CONJUGATE_SUM_CACHE_BYTES); one-sided, the 2^4-entry
        # product and sum plus seven 2^2-entry weighted conjugates
        # (CONJUGATE_SUM_CHUNK_BYTES; the superoperator still fits)
        monkeypatch.setattr(linalg, "CONJUGATE_SUM_CACHE_BYTES", 7 * 16 * 16)
        monkeypatch.setattr(linalg, "CONJUGATE_SUM_CHUNK_BYTES", 2 * 16 * 16 + 7 * 16 * 4)
        for (a, b), want in zip(inputs, whole):
            assert frobenius_distance(conjugate_sum(op, a, b, w), want) < 1e-14

    def test_one_sided_route_matches_two_sided(self, monkeypatch):
        # a budget below d_G^4 entries sends a one-sided input down the
        # two-sided route
        rng = np.random.default_rng(32)
        us = HaarSampler(33, 3).sample_batch(40)
        w = rng.dirichlet(np.ones(40))
        op = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        f = HaarSampler(34, 2).sample_batch(1)
        inputs = [(op, us, f), (op.T, f, us)]
        one_sided = [conjugate_sum(x, a, b, w) for x, a, b in inputs]
        monkeypatch.setattr(linalg, "CONJUGATE_SUM_CHUNK_BYTES", 16 * 3**4 - 1)
        for (x, a, b), want in zip(inputs, one_sided):
            assert frobenius_distance(conjugate_sum(x, a, b, w), want) < 1e-13

    @pytest.mark.parametrize(
        "op, a, b, w",
        [
            (np.eye(4), np.ones((3, 2, 2)), np.ones((2, 2, 2)), np.ones(3)),  # K mismatch
            (np.eye(4), np.ones((3, 2, 2)), np.ones((3, 2, 2)), np.ones(2)),  # weight count
            (np.eye(3), np.ones((3, 2, 2)), np.ones((3, 2, 2)), np.ones(3)),  # operator size
            (np.eye(4), np.ones((3, 2, 2)), np.ones((3, 2, 2)), -np.ones(3)),  # negative weight
        ],
    )
    def test_rejects_inconsistent_input(self, op, a, b, w):
        with pytest.raises(ValueError):
            conjugate_sum(op, a, b, w)
