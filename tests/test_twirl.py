import tracemalloc

import numpy as np
import pytest

from twirlbreak import linalg, twirl, verification
from twirlbreak.channels import PAULIS
from twirlbreak.linalg import frobenius_distance, kron, partial_trace_multi, partial_transpose_mat
from twirlbreak.states import (
    flip_operator,
    isotropic,
    max_entangled,
    random_density,
    singlet,
    werner_multi,
)
from twirlbreak.twirl import (
    HaarSampler,
    UnitarySet,
    clifford_group_qubit,
    mc_twirl,
    mc_twirl_operator,
    partial_twirl_exact_mat,
    partial_twirl_operator,
    pt_conjugated_twirl,
    twirl_exact,
    twirl_operator,
    twirl_uu_exact_mat,
)


@pytest.fixture(scope="module")
def clifford():
    return clifford_group_qubit()


def _contains_up_to_phase(uset, u):
    # unitaries U, V agree up to a phase exactly when |Tr(V^dag U)| = d
    overlaps = np.abs(np.einsum("kab,ab->k", uset.unitaries.conj(), u))
    return np.max(overlaps) > len(u) - 1e-9


class TestCliffordGroup:
    def test_cardinality(self, clifford):
        assert len(clifford) == 24

    def test_contains_paulis(self, clifford):
        for p in PAULIS:
            assert _contains_up_to_phase(clifford, p)

    def test_closed_under_inverse(self, clifford):
        for u in clifford.unitaries:
            assert _contains_up_to_phase(clifford, u.conj().T)

    def test_built_once_and_read_only(self, clifford):
        assert clifford_group_qubit() is clifford
        with pytest.raises(ValueError):
            clifford.unitaries[0, 0, 0] = 0

    def test_all_unitary(self, clifford):
        for u in clifford.unitaries:
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


class TestTwirlUU:
    def test_singlet_fixed(self, clifford):
        out = twirl_operator(singlet().mat, clifford)
        assert frobenius_distance(out, singlet().mat) < 1e-12

    def test_output_invariant_under_further_conjugation(self, clifford):
        rho = random_density(2, 2, np.random.default_rng(0))
        out = twirl_operator(rho.mat, clifford)
        for u in HaarSampler(1, 2).sample_batch(50):
            w = kron(u, u)
            assert frobenius_distance(w @ out @ w.conj().T, out) < 1e-11

    def test_preserves_invariant_scalars(self, clifford):
        rng = np.random.default_rng(2)
        v = flip_operator(2)
        for _ in range(10):
            rho = random_density(2, 2, rng)
            out = twirl_operator(rho.mat, clifford)
            assert abs(np.trace(out) - np.trace(rho.mat)) < 1e-12
            assert abs(np.trace(v @ out) - np.trace(v @ rho.mat)) < 1e-11

    def test_idempotent(self, clifford):
        rho = random_density(2, 2, np.random.default_rng(3))
        once = twirl_operator(rho.mat, clifford)
        twice = twirl_operator(once, clifford)
        assert frobenius_distance(once, twice) < 1e-11


class TestTwirlUUStar:
    def test_triplet_fixed(self, clifford):
        phi = max_entangled(2).mat  # (|00> + |11>)/sqrt(2)
        out = twirl_operator(phi, clifford, conjugate_second=True)
        assert frobenius_distance(out, phi) < 1e-12

    def test_output_invariant(self, clifford):
        rho = random_density(2, 2, np.random.default_rng(4))
        out = twirl_operator(rho.mat, clifford, conjugate_second=True)
        for u in HaarSampler(5, 2).sample_batch(50):
            w = kron(u, u.conj())
            assert frobenius_distance(w @ out @ w.conj().T, out) < 1e-11

    def test_pt_conjugation_identity(self, clifford):
        rng = np.random.default_rng(6)
        for _ in range(50):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = h + h.conj().T
            h += (1.0 - np.trace(h).real) / 4 * np.eye(4)
            direct = twirl_operator(h, clifford, conjugate_second=True)
            assert np.linalg.norm(direct - pt_conjugated_twirl(h, clifford, 2)) < 1e-11

    def test_idempotent(self, clifford):
        rho = random_density(2, 2, np.random.default_rng(7))
        once = twirl_operator(rho.mat, clifford, conjugate_second=True)
        twice = twirl_operator(once, clifford, conjugate_second=True)
        assert frobenius_distance(once, twice) < 1e-11


class TestPartialTwirl:
    def test_clifford_fully_depolarizes(self, clifford):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho = random_density(2, 2, rng)
            out = partial_twirl_operator(rho.mat, clifford, "A", (2, 2))
            marginal = partial_trace_multi(rho.mat, [2, 2], keep=[1])
            assert frobenius_distance(out, kron(np.eye(2) / 2, marginal)) < 1e-12

    def test_fixed_point_input(self, clifford):
        sigma = random_density(2, 1, np.random.default_rng(9)).mat
        rho = kron(np.eye(2) / 2, sigma)
        out = partial_twirl_operator(rho, clifford, "A", (2, 2))
        assert frobenius_distance(out, rho) < 1e-12

    def test_linear_operator_extension(self, clifford):
        rng = np.random.default_rng(10)
        for _ in range(50):
            t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            got = partial_twirl_operator(t, clifford, "A", (2, 2))
            want = partial_twirl_exact_mat(t, (2, 2), "A")
            assert np.linalg.norm(got - want) < 1e-11

    @pytest.mark.parametrize("side", ["a", "C"])
    @pytest.mark.parametrize("fn", ["partial_twirl_operator", "partial_twirl_exact_mat"])
    def test_invalid_side_raises(self, clifford, fn, side):
        rho = random_density(2, 2, np.random.default_rng(11))
        calls = {
            "partial_twirl_operator": lambda: partial_twirl_operator(rho.mat, clifford, side, (2, 2)),
            "partial_twirl_exact_mat": lambda: partial_twirl_exact_mat(rho.mat, (2, 2), side),
        }
        with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
            calls[fn]()


def _qr_reference(x: np.ndarray) -> np.ndarray:
    """Haar unitaries from Gaussian draws x (n, d, d, 2) by Ginibre + QR with
    the phase fix of Mezzadri (Notices AMS 54, 592, 2007)."""
    z = (x[..., 0] + 1j * x[..., 1]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def _cgs2_reference(seed: int, d: int, n: int) -> np.ndarray:
    """HaarSampler(seed, d).sample_batch(n) with a fresh array for every
    temporary: the same float operations in the same order."""
    z = np.random.default_rng(seed).standard_normal((n, d, d, 2)).view(complex)[..., 0]
    q = np.ascontiguousarray(z.transpose(2, 1, 0))

    def row_sum(p):
        total = p[..., 0, :].copy()
        for r in range(1, p.shape[-2]):
            total += p[..., r, :]
        return total

    for j in range(d):
        v, prev = q[j], q[:j]
        for _ in range(2 if j else 0):
            v -= np.sum(prev * row_sum(prev.conj() * v)[:, None, :], axis=0)
        v /= np.sqrt(row_sum(v.real**2 + v.imag**2))
    return q.transpose(2, 1, 0)


class TestHaarSampler:
    def test_unitarity(self):
        # twice-repeated Gram-Schmidt is unitary to a few ulps; one pass
        # leaves ~1e-13 on these draws
        for d in (2, 3, 4, 8):
            us = HaarSampler(11, d).sample_batch(10_000)
            assert np.max(np.abs(us @ us.conj().transpose(0, 2, 1) - np.eye(d))) < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_matches_qr_reference(self, d):
        n = 10_000
        x = np.random.default_rng(25).standard_normal((n, d, d, 2))
        assert np.max(np.abs(HaarSampler(25, d).sample_batch(n) - _qr_reference(x))) < 1e-12

    def test_deterministic_stream(self):
        a = HaarSampler(12, 2).sample_batch(5)
        b = HaarSampler(12, 2).sample_batch(5)
        assert np.array_equal(a, b)
        assert np.array_equal(HaarSampler(12, 2).sample_batch(1)[0], a[0])

    def test_batch_split(self):
        s = HaarSampler(26, 3)
        split = np.concatenate([s.sample_batch(3), s.sample_batch(4)])
        assert np.array_equal(split, HaarSampler(26, 3).sample_batch(7))

    @pytest.mark.parametrize("d", [4, 8])
    def test_batch_split_single_samples(self, d):
        # a batch of one sample runs its row sums in the same order as a
        # larger batch, so the stream stays bitwise identical
        s = HaarSampler(27, d)
        split = np.concatenate([s.sample_batch(1), s.sample_batch(5), s.sample_batch(1)])
        assert np.array_equal(split, HaarSampler(27, d).sample_batch(7))

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_work_gives_the_same_bits(self, d):
        # one sample, a tail length and a full twirl chunk, drawn in a scratch
        # filled with NaN so that an entry read before it is written shows
        full = linalg._chunk_lengths(10**6, d * d)[0]
        for n in (1, 37, full):
            work = np.full(2 * n * d * d + 3, np.nan, dtype=complex)
            got = HaarSampler(40 + d, d).sample_batch(n, work=work)
            assert np.shares_memory(got, work[: n * d * d])
            assert np.array_equal(got, HaarSampler(40 + d, d).sample_batch(n))
            assert np.array_equal(got, _cgs2_reference(40 + d, d, n))

    def test_second_moment(self):
        # Haar average of U |0><0| U^dag approaches I/2
        n = 100_000
        us = HaarSampler(13, 2).sample_batch(n)
        proj = np.zeros((2, 2), dtype=complex)
        proj[0, 0] = 1.0
        mean = np.einsum("nab,bc,ndc->ad", us, proj, us.conj()) / n
        assert np.max(np.abs(mean - np.eye(2) / 2)) < 5 / np.sqrt(n)


class TestExactQuditTwirl:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_werner_invariant(self, d):
        rho = werner_multi(d, -0.9)
        assert frobenius_distance(twirl_exact(rho, "uu").mat, rho.mat) < 1e-11

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_isotropic_invariant(self, d):
        rho = isotropic(d, 0.8)
        assert frobenius_distance(twirl_exact(rho, "uustar").mat, rho.mat) < 1e-11

    def test_matches_clifford_twirl_at_d2(self, clifford):
        rng = np.random.default_rng(14)
        for _ in range(10):
            rho = random_density(2, 2, rng)
            exact = twirl_exact(rho, "uu").mat
            design = twirl_operator(rho.mat, clifford)
            assert frobenius_distance(exact, design) < 1e-12


class TestMCTwirl:
    def test_werner_d3_invariance(self):
        rho = werner_multi(3, -0.9)
        out = mc_twirl(rho, "uu", 10_000, HaarSampler(15, 3))
        assert frobenius_distance(out.mat, rho.mat) <= 0.05

    def test_isotropic_d3_invariance(self):
        rho = isotropic(3, 0.8)
        out = mc_twirl(rho, "uustar", 10_000, HaarSampler(16, 3))
        assert frobenius_distance(out.mat, rho.mat) <= 0.05

    def test_partial_mode_depolarizes(self):
        rho = random_density(3, 3, np.random.default_rng(17))
        out = mc_twirl(rho, "partial-A", 10_000, HaarSampler(18, 3))
        want = partial_twirl_exact_mat(rho.mat, (3, 3), "A")
        assert frobenius_distance(out.mat, want) <= 0.05

    @pytest.mark.parametrize("d, n", [(2, 500), (3, 300)])
    def test_uustar_matches_direct_route(self, d, n):
        # mode "uustar" takes PT o (U x U twirl) o PT; twirl_operator sums
        # (U x U*) op (U x U*)^dag directly, over the same samples
        op = random_density(d, d, np.random.default_rng(27)).mat
        got = mc_twirl_operator(op, "uustar", n, HaarSampler(28, d), (d, d))
        want = twirl_operator(op, UnitarySet(HaarSampler(28, d).sample_batch(n)), conjugate_second=True)
        assert frobenius_distance(got, want) < 1e-14

    def test_convergence_monotone(self, clifford):
        rho = random_density(2, 2, np.random.default_rng(19))
        exact = twirl_operator(rho.mat, clifford)
        dists = []
        for n in (100, 1000, 10_000):
            out = mc_twirl_operator(rho.mat, "uu", n, HaarSampler(20, 2), (2, 2))
            dists.append(np.linalg.norm(out - exact))
        assert dists[0] > dists[1] > dists[2]

    def test_peak_memory_flat_in_n(self):
        # the samples are drawn and summed in chunks of bounded size, in one
        # workspace sized from the first chunk (its samples, then a scratch
        # for the sampler and the two-sided route's buffers; the one-sided
        # route adds a d^4-entry superoperator), so nothing, the samples
        # included, grows with n: the peak at 4000 samples is the peak at
        # 1000 within a few Python objects
        d = 8
        rho = random_density(d, d, np.random.default_rng(23))
        for mode in ("uu", "uustar", "partial-A"):
            peaks = {}
            for n in (1000, 4000):
                tracemalloc.start()
                try:
                    mc_twirl_operator(rho.mat, mode, n, HaarSampler(24, d), (d, d))
                    peaks[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peaks[4000] - peaks[1000] < 2**14, mode

    @pytest.mark.parametrize("mode", ["uu", "uustar", "partial-A"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_streamed_matches_one_shot(self, monkeypatch, mode, d):
        # a budget of 7 samples a chunk splits n = 50 into 7 full chunks and
        # one of a single sample
        n = 50
        op = random_density(d, d, np.random.default_rng(29)).mat
        us = HaarSampler(30, d).sample_batch(n)
        eye = np.eye(d)[None]
        a, b = {"uu": (us, us), "uustar": (us, us.conj()), "partial-A": (us, eye)}[mode]
        want = linalg.conjugate_sum(op, a, b, 1.0 / n)
        monkeypatch.setattr(linalg, "CONJUGATE_SUM_CACHE_BYTES", 7 * 16 * d * d)
        sampler, drawn = HaarSampler(30, d), []
        draw = sampler.sample_batch
        monkeypatch.setattr(sampler, "sample_batch", lambda m, work=None: drawn.append(m) or draw(m, work=work))
        got = mc_twirl_operator(op, mode, n, sampler, (d, d))
        assert drawn == [7] * 7 + [1]
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_two_sided_working_set(self):
        # the workspace holds one chunk of samples (CONJUGATE_SUM_CACHE_BYTES)
        # and a scratch that the two-sided route reuses for two cache-sized
        # buffers, not chunks of Kronecker products that scale with a large
        # memory budget, and "uustar" makes no conjugate copy of the samples:
        # apart from room for one n-sample stack the peak stays within three
        # CONJUGATE_SUM_CACHE_BYTES
        d, n = 8, 1000
        rho = random_density(d, d, np.random.default_rng(25))
        for mode in ("uu", "uustar"):
            tracemalloc.start()
            try:
                mc_twirl_operator(rho.mat, mode, n, HaarSampler(26, d), (d, d))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - n * d * d * 16 < 3 * linalg.CONJUGATE_SUM_CACHE_BYTES, mode

    def test_workspace_peak(self):
        # bound fixed from the layout: one workspace of the first chunk's L
        # samples (L d^2 complex entries) and a scratch of max(L d^2, the
        # two-sided route's buffers), 1.61 MiB at d = 3; on top of it numpy's
        # iterator buffers of one buffered ufunc call (at most three operands
        # of np.getbufsize() complex entries) and a chunk's L weights and
        # their square roots
        d, n = 3, 10_000
        chunk = linalg._chunk_lengths(n, d * d)[0]
        stack = chunk * d * d
        workspace = 16 * (stack + max(stack, linalg._conjugate_sum_work(chunk, chunk, d, d)))
        bound = workspace + 3 * 16 * np.getbufsize() + 2 * 8 * chunk
        rho = werner_multi(d, -0.9).mat
        mc_twirl_operator(rho, "uu", n, HaarSampler(43, d), (d, d))
        tracemalloc.start()
        try:
            mc_twirl_operator(rho, "uu", n, HaarSampler(43, d), (d, d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_one_sided_workspace_peak(self):
        # bound fixed from the layout: the workspace of the first chunk's L
        # samples (L d^2 complex entries) and a scratch of as many (the
        # one-sided route needs none of its own), 1.0 MiB at d = 3; on top of
        # it the superoperator's one copy of the chunk, its weighted
        # conjugates (L d^2 entries; the samples are flattened as a view),
        # numpy's iterator buffers of one buffered ufunc call (at most three
        # operands of np.getbufsize() complex entries) and a chunk's L weights
        # and their comparison with 0
        d, n = 3, 10_000
        chunk = linalg._chunk_lengths(n, d * d)[0]
        stack = chunk * d * d
        bound = 16 * 3 * stack + 3 * 16 * np.getbufsize() + 2 * 8 * chunk
        rho = werner_multi(d, -0.9).mat
        mc_twirl_operator(rho, "partial-A", n, HaarSampler(43, d), (d, d))
        tracemalloc.start()
        try:
            mc_twirl_operator(rho, "partial-A", n, HaarSampler(43, d), (d, d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_superoperator_matches_row_major_flattening(self):
        # the sum over the samples' (column, row) flattening, a view of the
        # sampler's layout, against the (row, column) flattening, which
        # copies the samples; and over a C-ordered stack, which both copy
        for d in (2, 3, 4, 8):
            q = HaarSampler(47, d).sample_batch(700)
            w = np.random.default_rng(d).random(700)
            for g in (q, np.ascontiguousarray(q)):
                assert np.array_equal(linalg._superoperator(g, w), _row_major_superoperator(g, w))

    @pytest.mark.parametrize("mode", ["uu", "uustar", "partial-A"])
    def test_twirl_matches_row_major_superoperator(self, monkeypatch, mode):
        # two chunks and a tail of 11 samples at d = 3, unequal dims for the
        # partial modes; "uu" and "uustar" take the two-sided route and must
        # not move either
        d = 3
        dims = (3, 2) if mode == "partial-A" else (3, 3)
        n = 2 * linalg._chunk_lengths(10**6, d * d)[0] + 11
        op = random_density(*dims, np.random.default_rng(48)).mat
        got = mc_twirl_operator(op, mode, n, HaarSampler(49, d), dims)

        monkeypatch.setattr(linalg, "_superoperator", _row_major_superoperator)
        assert np.array_equal(got, mc_twirl_operator(op, mode, n, HaarSampler(49, d), dims))

    @pytest.mark.parametrize("mode, dims", [("uu", (3, 3)), ("uustar", (3, 3)), ("partial-A", (3, 2))])
    def test_workspace_matches_chunked_loop(self, mode, dims):
        # the chunk loop written out with fresh stacks: two full chunks and
        # a tail of 11 samples
        d, (da, db) = 3, dims
        n = 2 * linalg._chunk_lengths(10**6, d * d)[0] + 11
        op = random_density(da, db, np.random.default_rng(44)).mat
        got = mc_twirl_operator(op, mode, n, HaarSampler(45, d), dims)
        s, x = HaarSampler(45, d), partial_transpose_mat(op, da, db) if mode == "uustar" else op
        want = np.zeros((da * db, da * db), dtype=complex)
        for m in linalg._chunk_lengths(n, d * d):
            us = s.sample_batch(m)
            want += linalg.conjugate_sum(x, us, np.eye(db)[None] if mode == "partial-A" else us, 1.0 / n)
        if mode == "uustar":
            want = partial_transpose_mat(want, da, db)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "mode, dims",
        [("uu", (2, 2)), ("uu", (3, 2)), ("uustar", (2, 3)), ("partial-A", (2, 3))],
    )
    def test_rejects_a_sampler_of_another_dimension(self, mode, dims):
        # checked before the first draw: the sampler's stream has not moved
        s = HaarSampler(46, 3)
        op = np.eye(dims[0] * dims[1]) / (dims[0] * dims[1])
        with pytest.raises(ValueError, match=rf"dims \({dims[0]}, {dims[1]}\) .* d = 3"):
            mc_twirl_operator(op, mode, 10, s, dims)
        assert np.array_equal(s.sample_batch(5), HaarSampler(46, 3).sample_batch(5))

    @pytest.mark.parametrize("mode", ["partial-B", "UU"])
    def test_rejects_an_unknown_mode(self, mode):
        # checked before the first draw: the sampler's stream has not moved
        s = HaarSampler(46, 3)
        with pytest.raises(ValueError, match=f"unknown mode '{mode}'"):
            mc_twirl_operator(np.eye(9) / 9, mode, 10, s, (3, 3))
        assert np.array_equal(s.sample_batch(5), HaarSampler(46, 3).sample_batch(5))

    def test_seed_reproducibility(self):
        rho = random_density(2, 2, np.random.default_rng(21))
        a = mc_twirl(rho, "uu", 500, HaarSampler(22, 2))
        b = mc_twirl(rho, "uu", 500, HaarSampler(22, 2))
        assert np.array_equal(a.mat, b.mat)


def _row_major_superoperator(g, weights):
    """sum_k w_k G_k x conj(G_k) from a (row, column) flattening of each G_k,
    all terms in one matrix product: a copy of the stack and of its weighted
    conjugates."""
    g = np.asarray(g, dtype=complex)
    k, d = len(g), g.shape[-1]
    flat = g.reshape(k, d * d)
    g_bar = flat.conj()
    g_bar *= weights[:, None]
    return linalg._swap_middle(flat.T @ g_bar, d, d, d, d)


def _design_gates(monkeypatch, uset):
    """Verdicts of verify's two 2-design gates with uset in place of the
    Clifford group."""
    monkeypatch.setattr(twirl, "clifford_group_qubit", lambda: uset)
    results = verification.check_2design(verification.VerifyConfig())
    return {r.name: r.passed for r in results if r.name != "clifford-cardinality"}


class TestVerify2Design:
    def test_clifford_is_design(self, clifford, monkeypatch):
        assert _design_gates(monkeypatch, clifford) == {
            "clifford-partial-twirl-basis": True,
            "clifford-span-IV": True,
        }

    def test_pauli_set_is_not(self, monkeypatch):
        # a unitary 1-design: its partial twirl is exact, its U x U twirl is not
        assert _design_gates(monkeypatch, UnitarySet(PAULIS)) == {
            "clifford-partial-twirl-basis": True,
            "clifford-span-IV": False,
        }

    def test_identity_set_is_not(self, monkeypatch):
        assert _design_gates(monkeypatch, UnitarySet([np.eye(2)])) == {
            "clifford-partial-twirl-basis": False,
            "clifford-span-IV": False,
        }
