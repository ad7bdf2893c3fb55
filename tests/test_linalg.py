import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    partial_transpose_mat,
)
from twirlbreak.states import max_entangled, max_entangled_mat, random_density, singlet
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

    def test_stack_matches_entrywise_definition(self):
        # <ij|rho^{T_B}|kl> = <il|rho|kj> on every member of a (2, 3, D, D)
        # stack of operators with (d_A, d_B) = (2, 3), and T_B undoes itself
        from twirlbreak.linalg import partial_transpose_mat

        rng = np.random.default_rng(10)
        da, db = 2, 3
        d = da * db
        rho = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
        pt = partial_transpose_mat(rho, da, db)
        assert pt.shape == rho.shape
        for i, j, k, l in itertools.product(range(da), range(db), range(da), range(db)):
            assert np.array_equal(pt[..., i * db + j, k * db + l], rho[..., i * db + l, k * db + j])
        assert np.array_equal(partial_transpose_mat(pt, da, db), rho)


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
            dense = apply_dilation_dense(DilatedChannel(ProbabilityVector(tuple(w)), a, b), rho.mat)
            assert frobenius_distance(out, dense) < 1e-11

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

    @pytest.mark.parametrize("da, db", [(3, 3), (2, 3)])
    def test_work_gives_the_same_bits(self, da, db):
        # several two-sided chunks of terms plus a tail, and the one-sided
        # route on the same terms, worked in a scratch filled with NaN so that
        # an entry read before it is written shows; one operator, then a stack
        d = da * db
        k = 2 * linalg._chunk_lengths(10**6, d * d)[0] + 5
        rng = np.random.default_rng(36)
        a, b = HaarSampler(37, da).sample_batch(k), HaarSampler(38, db).sample_batch(k).conj()
        w = rng.dirichlet(np.ones(k))
        ops = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        for b_side in (b, np.eye(db)[None]):
            for op in (ops[0], ops):
                work = np.full(linalg._conjugate_sum_work(k, len(b_side), da, db), np.nan, dtype=complex)
                assert np.array_equal(conjugate_sum(op, a, b_side, w, work=work), conjugate_sum(op, a, b_side, w))

    def test_scratch_does_not_depend_on_the_probe_count(self):
        # the two-sided layout of the first chunk of s terms, for one probe or
        # a stack: a stack of 6 probes leaves every entry after it untouched
        da, db, k = 3, 2, 1000
        s, d = linalg._chunk_lengths(k, 36)[0], da * db
        size = linalg._conjugate_sum_work(k, k, da, db)
        assert size == s * (2 * d * d + da * da + db * db)
        # one-sided: the weighted conjugates of the K-long side's first chunk
        # of terms, here all k of them
        assert linalg._conjugate_sum_work(k, 1, da, db) == k * da * da
        assert linalg._conjugate_sum_work(1, k, da, db) == k * db * db
        rng = np.random.default_rng(52)
        a, b = HaarSampler(53, da).sample_batch(k), HaarSampler(54, db).sample_batch(k)
        w = rng.dirichlet(np.ones(k))
        ops = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
        for b_side in (b, np.eye(db)[None]):
            size = linalg._conjugate_sum_work(k, len(b_side), da, db)
            work = np.full(size + s * d * d, np.nan, dtype=complex)
            assert np.array_equal(conjugate_sum(ops, a, b_side, w, work=work), conjugate_sum(ops, a, b_side, w))
            assert np.isnan(work[size:]).all()

    @pytest.mark.parametrize("da, db", [(3, 3), (3, 2)])
    def test_two_sided_matches_conjugated_products(self, da, db):
        # the two-sided route adds each chunk's sum_k (K_k x) K_k^dag as the
        # conjugate of conj(K_k x) K_k^T, so that K is only read; written out
        # here as the product of Y = K x with conj(K)^T, at the same layouts
        # and shapes, the two agree bit for bit: two chunks and a tail,
        # complex non-Hermitian probes, non-real stacks on both sides
        d = da * db
        k = 2 * linalg._chunk_lengths(10**6, d * d)[0] + 5
        rng = np.random.default_rng(55)
        a, b = HaarSampler(56, da).sample_batch(k), HaarSampler(57, db).sample_batch(k)
        w = rng.dirichlet(np.ones(k))
        ops = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        got = conjugate_sum(ops, a, b, w)
        root_w = np.sqrt(w)
        want = np.zeros_like(ops)
        s = 0
        for m in linalg._chunk_lengths(k, d * d):
            chunk = slice(s, s + m)
            s += m
            a_t = root_w[chunk] * a[chunk].transpose(1, 2, 0)
            b_t = b[chunk].transpose(1, 2, 0)
            kt = np.ascontiguousarray(a_t[:, None, :, None, :] * b_t[None, :, None, :, :]).reshape(d, d, m)
            kc = kt.conj()
            for x, acc in zip(ops, want):
                y = np.matmul(x.T, kt)
                acc += y.reshape(d, d * m) @ kc.reshape(d, d * m).T
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", ["uu", "uustar", "partial-A"])
    def test_stack_matches_single_calls(self, monkeypatch, mode):
        # two chunks of terms plus a tail on either route (the one-sided
        # budget cut to the two-sided chunk length), unequal dims for
        # partial-A; every probe of a stack, and a stack of one, is bit for
        # bit its own 2-D call
        da, db = (3, 2) if mode == "partial-A" else (3, 3)
        d = da * db
        step = linalg._chunk_lengths(10**6, d * d)[0]
        monkeypatch.setattr(linalg, "CONJUGATE_SUM_CHUNK_BYTES", 2 * 16 * da**4 + step * 16 * da**2)
        k = 2 * step + 5
        rng = np.random.default_rng(39)
        us = HaarSampler(40, da).sample_batch(k)
        a, b = us, {"uu": us, "uustar": us.conj(), "partial-A": np.eye(db)[None]}[mode]
        w = rng.dirichlet(np.ones(k))
        ops = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        got = conjugate_sum(ops, a, b, w)
        assert got.shape == ops.shape
        for x, g in zip(ops, got):
            assert np.array_equal(g, conjugate_sum(x, a, b, w))
        assert np.array_equal(conjugate_sum(ops[:1], a, b, w), conjugate_sum(ops[0], a, b, w)[None])

    @pytest.mark.parametrize("second", ["U", "I"])
    def test_stack_matches_kron_reference(self, second):
        # non-Hermitian complex probes, against the sum of np.kron terms;
        # "U" takes the two-sided route, "I" the one-sided one
        k, da, db = 30, 3, 2
        rng = np.random.default_rng(41)
        a = HaarSampler(42, da).sample_batch(k)
        b = HaarSampler(43, db).sample_batch(k) if second == "U" else np.eye(db)[None]
        w = rng.dirichlet(np.ones(k))
        ops = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
        got = conjugate_sum(ops, a, b, w)
        terms = [np.kron(a[n], b[n % len(b)]) for n in range(k)]
        for x, g in zip(ops, got):
            want = sum(w[n] * t @ x @ t.conj().T for n, t in enumerate(terms))
            assert np.max(np.abs(g - want)) < 1e-14

    @pytest.mark.parametrize(
        "op, a, b, w",
        [
            (np.eye(4), np.ones((3, 2, 2)), np.ones((2, 2, 2)), np.ones(3)),  # K mismatch
            (np.eye(4), np.ones((3, 2, 2)), np.ones((3, 2, 2)), np.ones(2)),  # weight count
            (np.eye(3), np.ones((3, 2, 2)), np.ones((3, 2, 2)), np.ones(3)),  # operator size
            (np.eye(4), np.ones((3, 2, 2)), np.ones((3, 2, 2)), -np.ones(3)),  # negative weight
            (np.ones((1, 2, 4, 4)), np.ones((3, 2, 2)), np.ones((3, 2, 2)), np.ones(3)),  # a 4-D operator
            (np.ones((2, 3, 3)), np.ones((3, 2, 2)), np.ones((3, 2, 2)), np.ones(3)),  # probe size
            (np.ones((2, 3, 3)), np.ones((3, 2, 2)), np.eye(2)[None], np.ones(3)),  # probe size, one-sided
        ],
    )
    def test_rejects_inconsistent_input(self, op, a, b, w):
        with pytest.raises(ValueError):
            conjugate_sum(op, a, b, w)


class TestChunkLengths:
    # 2**16 entries take 1 MiB, above the budget
    @pytest.mark.parametrize("total", [0, 1, 7, 50, 1000])
    @pytest.mark.parametrize("entries", [1, 4, 81, 4096, 2**16])
    def test_chunks_cover_total_within_budget(self, total, entries):
        lengths = linalg._chunk_lengths(total, entries)
        step = max(1, linalg.CONJUGATE_SUM_CACHE_BYTES // (16 * entries))
        assert sum(lengths) == total
        assert lengths[:-1] == [step] * (len(lengths) - 1)
        assert all(1 <= m <= step for m in lengths)  # so total 0 gives []
        if 16 * entries > linalg.CONJUGATE_SUM_CACHE_BYTES:
            assert lengths == [1] * total


def _spectra_and_residual(stack):
    """linalg._block_spectra and the Hermiticity residual of a stack's blocks."""
    blocks = linalg._component_blocks(stack)
    return linalg._block_spectra(blocks), linalg._blocks_residual(blocks)


class TestBlockSpectra:
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=5),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_solve(self, sizes, m, seed):
        # a stack of m random Hermitian matrices, block diagonal with the given
        # block sizes under one random permutation; one block is a dense matrix
        rng = np.random.default_rng(seed)
        d = sum(sizes)
        stack = np.zeros((m, d, d), dtype=complex)
        start = 0
        for s in sizes:
            g = rng.standard_normal((m, s, s)) + 1j * rng.standard_normal((m, s, s))
            stack[:, start : start + s, start : start + s] = g + g.conj().swapaxes(1, 2)
            start += s
        perm = rng.permutation(d)
        stack = stack[:, perm][:, :, perm]
        spectra, residual = _spectra_and_residual(stack)
        norm = np.linalg.norm(stack, 2, axis=(1, 2)).max()
        assert np.abs(spectra - np.linalg.eigvalsh(stack)).max() <= 1e-12 * norm
        assert residual == 0.0
        # the residual inside the blocks is the dense max|M - M^dag|
        skewed = stack + rng.standard_normal((m, d, d)) * (stack != 0)
        _, residual = _spectra_and_residual(skewed)
        assert residual == np.abs(skewed - skewed.conj().swapaxes(1, 2)).max()

    def test_members_are_solved_on_the_union_pattern(self):
        # member 0 links indices 0-1, member 1 links 1-2: neither pattern alone
        # holds the block {0, 1, 2} that the stack's spectra need
        stack = np.zeros((2, 6, 6), dtype=complex)
        stack[:, range(6), range(6)] = np.arange(1, 7)
        stack[0, 0, 1] = stack[0, 1, 0] = 0.5
        stack[1, 1, 2], stack[1, 2, 1] = -0.5j, 0.5j
        pattern = (stack != 0).any(axis=0)
        groups = linalg._components_by_size(pattern)
        assert np.array_equal(groups[3], [[0, 1, 2]])
        assert np.array_equal(groups[1], [[3], [4], [5]])
        want = np.linalg.eigvalsh(stack)
        assert np.abs(hermitian_eigenvalues(stack) - want).max() < 1e-14

    @pytest.mark.parametrize("entry", [(0, 4), (4, 0)])
    def test_one_sided_link_between_blocks_is_not_hermitian(self, entry):
        # two separate 3x3 blocks of a state and one entry in one triangle
        # linking them; the pattern read from rows 0 on misses (4, 0) unless
        # it is made symmetric
        rng = np.random.default_rng(3)
        rho = np.zeros((6, 6), dtype=complex)
        rho[:3, :3] = random_density(1, 3, rng).mat / 2
        rho[3:, 3:] = random_density(1, 3, rng).mat / 2
        DensityOperator(rho, 2, 3)
        rho[entry] = 0.1
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityOperator(rho, 2, 3)
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(rho)

    def test_nan_member_is_reported_before_the_pattern_is_read(self, monkeypatch):
        def unread(pattern):
            raise AssertionError("pattern read before the finiteness check")

        monkeypatch.setattr(linalg, "_components_by_size", unread)
        stack = np.stack([np.eye(4) / 4] * 3).astype(complex)
        stack[1, 0, 3] = np.nan
        with pytest.raises(ValueError, match="NaN/Inf"):
            linalg.validate_density_stack(stack)
        with pytest.raises(ValueError, match="NaN/Inf"):
            hermitian_eigenvalues(stack)

    def test_dense_input_gives_the_dense_solve_bit_for_bit(self):
        rng = np.random.default_rng(4)
        rho = random_density(3, 3, rng).mat
        assert np.array_equal(hermitian_eigenvalues(rho), np.linalg.eigvalsh(rho))

    @pytest.mark.parametrize("seed", range(4))
    def test_singleton_components_give_eigvalsh_bit_for_bit(self, seed):
        # a 3x3 block, a 2x2 block and four 1x1 components under one random
        # permutation, with imaginary parts on the diagonal: each component's
        # eigenvalues are eigvalsh of its block (for a 1x1 block, its real
        # diagonal) and the residual is the dense max|M - M^dag|
        rng = np.random.default_rng(seed)
        m, d = 3, 9
        stack = np.zeros((m, d, d), dtype=complex)
        components = [[0, 1, 2], [3, 4], [5], [6], [7], [8]]
        for idx in components:
            g = rng.standard_normal((m, len(idx), len(idx))) + 1j * rng.standard_normal((m, len(idx), len(idx)))
            stack[:, idx[0] : idx[-1] + 1, idx[0] : idx[-1] + 1] = g + g.conj().swapaxes(1, 2)
        stack[:, range(d), range(d)] += 1e-13j * rng.standard_normal((m, d))
        perm = rng.permutation(d)
        stack = stack[:, perm][:, :, perm]
        blocks = [np.flatnonzero(np.isin(perm, idx)) for idx in components]
        want = np.sort(np.concatenate([np.linalg.eigvalsh(stack[:, b][:, :, b]) for b in blocks], axis=1), axis=1)
        spectra, residual = _spectra_and_residual(stack)
        assert np.array_equal(spectra, want)
        assert residual == np.abs(stack - stack.conj().swapaxes(1, 2)).max()
        assert residual > 0

    def test_validation_peak_memory_is_below_one_copy(self):
        # D = 361: the maximally entangled projector is one 19-block and 342
        # zero 1x1 blocks; the dense checks alone held about two D^2 copies
        phi = max_entangled_mat(19)[None]
        linalg.validate_density_stack(phi)
        tracemalloc.start()
        try:
            linalg.validate_density_stack(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < phi.nbytes


# least eigenvalues placed on either side of -PSD_TOL, and on 0
PSD_SHIFTS = [-1.5, -0.7, -0.2, 0.0]


def _hermitian_with_spectrum(ev, rng):
    """An exactly Hermitian matrix with eigenvalues ev in a random basis; a
    1x1 one is ev itself."""
    s = len(ev)
    if s == 1:
        return np.array([[ev[0]]], dtype=complex)
    q, _ = np.linalg.qr(rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)))
    b = (q * ev) @ q.conj().T
    return (b + b.conj().T) / 2


class TestPsdCertificate:
    @given(
        st.lists(st.integers(1, 8), min_size=2, max_size=8),
        st.booleans(),
        st.integers(1, 3),
        st.sampled_from(PSD_SHIFTS),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_validation_gives_the_eigvalsh_verdict(self, sizes, dense, m, shift, seed):
        # unit-trace Hermitian stacks, block diagonal with the given block
        # sizes (or one dense block) under one random permutation, about a
        # third of their eigenvalues 0; one member's least eigenvalue is
        # shift * PSD_TOL
        rng = np.random.default_rng(seed)
        sizes = [sum(sizes)] if dense else sizes
        d = sum(sizes)
        stack = np.zeros((m, d, d), dtype=complex)
        target = shift * linalg.PSD_TOL
        for k in range(m):
            ev = rng.uniform(0.1, 1, d) * (rng.uniform(size=d) > 1 / 3)
            ev[0] = 1.0
            if k == 0:
                j = rng.integers(1, d)
                ev[j] = 0.0
                ev *= (1 - target) / ev.sum()
                ev[j] = target
            else:
                ev /= ev.sum()
            rng.shuffle(ev)
            start = 0
            for s in sizes:
                stack[k, start : start + s, start : start + s] = _hermitian_with_spectrum(ev[start : start + s], rng)
                start += s
        perm = rng.permutation(d)
        stack = stack[:, perm][:, :, perm]
        least = np.linalg.eigvalsh(stack)[:, 0].min()
        assert abs(least - target) < 1e-13
        if least >= -linalg.PSD_TOL:
            assert np.array_equal(linalg.validate_density_stack(stack), stack)
        else:
            with pytest.raises(ValueError, match="positive semidefinite"):
                linalg.validate_density_stack(stack)

    @given(
        st.integers(2, 8),
        st.integers(2, 8),
        st.sampled_from([0.0, 0.2, 0.5, 1.0]),
        st.sampled_from(PSD_SHIFTS),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_is_ppt_gives_the_eigvalsh_verdict(self, d_a, d_b, density, shift, seed):
        # rho = (1 - t) I/D + t |psi><psi|, with psi's coefficient matrix
        # supported on a random pattern of the given density (and on two
        # entries in distinct rows and columns, so psi is entangled): the
        # partial transpose has the least eigenvalue (1 - t)/D + t mu, mu
        # that of |psi><psi|, and t places it at shift * PSD_TOL.  Sparse
        # patterns give 2x2 and 1x1 blocks, dense ones one block
        rng = np.random.default_rng(seed)
        d = d_a * d_b
        support = rng.uniform(size=(d_a, d_b)) < density
        rows, cols = rng.permutation(d_a)[:2], rng.permutation(d_b)[:2]
        support[rows, cols] = True
        psi = (rng.standard_normal((d_a, d_b)) + 1j * rng.standard_normal((d_a, d_b))) * support
        psi = psi.ravel() / np.linalg.norm(psi)
        pure = np.outer(psi, psi.conj())
        mu = np.linalg.eigvalsh(partial_transpose_mat(pure, d_a, d_b))[0]
        target = shift * linalg.PSD_TOL
        assume(mu < target - 1e-6)
        t = (1 / d - target) / (1 / d - mu)
        rho = DensityOperator((1 - t) * np.eye(d) / d + t * pure, d_a, d_b)
        least = np.linalg.eigvalsh(partial_transpose(rho))[0]
        assert abs(least - target) < 1e-13
        assert is_ppt(rho) == (least >= -linalg.PSD_TOL)
        assert linalg.ppt_from_spectrum(hermitian_eigenvalues(partial_transpose(rho))) == is_ppt(rho)

    def test_ppt_from_spectrum_at_the_tolerance(self):
        # exactly -PSD_TOL is PPT, the next float below it is not
        at = np.array([-linalg.PSD_TOL, 0.5, 0.5 + linalg.PSD_TOL])
        below = np.array([np.nextafter(-linalg.PSD_TOL, -np.inf), 0.5, 0.5 + linalg.PSD_TOL])
        assert linalg.ppt_from_spectrum(at)
        assert not linalg.ppt_from_spectrum(below)
        assert np.array_equal(linalg.ppt_from_spectrum(np.stack([at, below, at])), [True, False, True])

    def test_validation_and_is_ppt_solve_no_spectrum(self, monkeypatch):
        # a dense state, one with a 3x3 block and six 1x1 blocks, and a
        # diagonal one; and one just outside the PSD tolerance
        rho_dense = random_density(3, 3, np.random.default_rng(5)).mat
        rho_blocks = max_entangled_mat(3)
        rho_diagonal = np.eye(9, dtype=complex) / 9
        not_psd = np.diag([1 + 2e-10] + [0] * 7 + [-2e-10]).astype(complex)
        states = (rho_dense, rho_blocks, rho_diagonal)
        ppt = [np.linalg.eigvalsh(partial_transpose_mat(rho, 3, 3))[0] >= -linalg.PSD_TOL for rho in states]

        def refuse(*args, **kwargs):
            raise AssertionError("eigen-solve in a positivity check")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for rho, want in zip(states, ppt):
            assert np.array_equal(linalg.validate_density_stack(np.stack([rho, rho])), [rho, rho])
            assert is_ppt(DensityOperator(rho, 3, 3)) == want
        for stack in (not_psd[None], np.stack([rho_dense, not_psd]), np.stack([rho_blocks, not_psd])):
            with pytest.raises(ValueError, match="positive semidefinite"):
                linalg.validate_density_stack(stack)

    def test_one_by_one_block_at_the_tolerance_is_accepted(self):
        # a diagonal state's 1x1 blocks are read by their real entry: one at
        # exactly -PSD_TOL passes, as eigvalsh's least eigenvalue says it
        # should (block + PSD_TOL I is then the singular [[0]], which a
        # Cholesky factorisation would reject)
        rho = np.diag([1 + linalg.PSD_TOL, -linalg.PSD_TOL, 0, 0]).astype(complex)
        assert np.linalg.eigvalsh(rho)[0] == -linalg.PSD_TOL
        assert np.array_equal(linalg.validate_density_stack(rho[None]), rho[None])
        assert is_ppt(DensityOperator(rho, 2, 2))
