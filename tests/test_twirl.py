import itertools
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
        # bound fixed from the layout: one workspace of the Gram matrix (N^2
        # complex entries, N = 45), the first chunk's L samples (L d^2) and
        # a scratch of max(L d^2, the Gram route's buffers), 1.56 MiB at
        # d = 3; on top of it numpy's iterator buffers of one buffered ufunc
        # call (at most three operands of np.getbufsize() complex entries)
        d, n = 3, 10_000
        chunk = linalg._chunk_lengths(n, d * d)[0]
        stack = chunk * d * d
        workspace = 16 * (45**2 + stack + max(stack, twirl._gram_work(chunk, d)))
        bound = workspace + 3 * 16 * np.getbufsize()
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
        # samples (L d^2 complex entries) and a scratch of as many, which
        # holds the superoperator's one copy of the chunk, its weighted
        # conjugates (the samples are flattened as a view), 1.0 MiB at d = 3;
        # on top of it numpy's iterator buffers of one buffered ufunc call
        # (at most three operands of np.getbufsize() complex entries) and a
        # chunk's L weights and their comparison with 0
        d, n = 3, 10_000
        chunk = linalg._chunk_lengths(n, d * d)[0]
        stack = chunk * d * d
        bound = 16 * 2 * stack + 3 * 16 * np.getbufsize() + 2 * 8 * chunk
        rho = werner_multi(d, -0.9).mat
        mc_twirl_operator(rho, "partial-A", n, HaarSampler(43, d), (d, d))
        tracemalloc.start()
        try:
            mc_twirl_operator(rho, "partial-A", n, HaarSampler(43, d), (d, d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("mode, dims", [("uu", (3, 3)), ("uustar", (3, 3)), ("partial-A", (3, 2))])
    def test_stack_matches_single_calls(self, monkeypatch, mode, dims):
        # two full chunks and a tail of 11 samples; every probe of a stack,
        # non-Hermitian and complex, and a stack of one, is bit for bit its
        # own 2-D call with a fresh sampler, and the stack is drawn once
        d, (da, db) = 3, dims
        n = 2 * linalg._chunk_lengths(10**6, d * d)[0] + 11
        rng = np.random.default_rng(50)
        ops = rng.standard_normal((4, da * db, da * db)) + 1j * rng.standard_normal((4, da * db, da * db))
        sampler, drawn = HaarSampler(51, d), []
        draw = sampler.sample_batch
        monkeypatch.setattr(sampler, "sample_batch", lambda m, work=None: drawn.append(m) or draw(m, work=work))
        got = mc_twirl_operator(ops, mode, n, sampler, dims)
        assert drawn == linalg._chunk_lengths(n, d * d)
        assert got.shape == ops.shape
        for x, g in zip(ops, got):
            assert np.array_equal(g, mc_twirl_operator(x, mode, n, HaarSampler(51, d), dims))
        one = mc_twirl_operator(ops[:1], mode, n, HaarSampler(51, d), dims)
        assert np.array_equal(one, mc_twirl_operator(ops[0], mode, n, HaarSampler(51, d), dims)[None])

    def test_stack_workspace_peak(self):
        # bound fixed from the layout: the workspace of test_workspace_peak,
        # 1.56 MiB at d = 3, as a stack needs no more scratch than one probe;
        # on top of it the m results and the copy of op that the routes'
        # stack is, and numpy's iterator buffers of one buffered ufunc call
        d, n, m = 3, 10_000, 6
        chunk = linalg._chunk_lengths(n, d * d)[0]
        stack = chunk * d * d
        workspace = 16 * (45**2 + stack + max(stack, twirl._gram_work(chunk, d)))
        bound = workspace + 16 * 2 * m * d**4 + 3 * 16 * np.getbufsize()
        rho = np.stack([werner_multi(d, g).mat for g in np.linspace(-1, 1, m)])
        mc_twirl_operator(rho, "uu", n, HaarSampler(43, d), (d, d))
        tracemalloc.start()
        try:
            mc_twirl_operator(rho, "uu", n, HaarSampler(43, d), (d, d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_mixed_stack_matches_single_mode_calls(self, monkeypatch):
        # two full chunks and a tail of 11 samples; every probe of a stack of
        # mixed modes, non-Hermitian and complex, is bit for bit its own 2-D
        # call in its mode with a fresh sampler, and the stack is drawn once
        d = 3
        n = 2 * linalg._chunk_lengths(10**6, d * d)[0] + 11
        modes = ("partial-A", "uustar", "uu", "partial-A", "uustar", "uu")
        ops = _complex_probes(len(modes), d * d, 58)
        sampler, drawn = HaarSampler(59, d), []
        draw = sampler.sample_batch
        monkeypatch.setattr(sampler, "sample_batch", lambda m, work=None: drawn.append(m) or draw(m, work=work))
        got = mc_twirl_operator(ops, modes, n, sampler, (d, d))
        assert drawn == linalg._chunk_lengths(n, d * d)
        assert got.shape == ops.shape
        for x, mode, g in zip(ops, modes, got):
            assert np.array_equal(g, mc_twirl_operator(x, mode, n, HaarSampler(59, d), (d, d)))

    def test_a_probe_does_not_depend_on_its_companions(self):
        # a probe's samples, and so its bits, are the same alone, beside a
        # probe of either route, first or last, and in a single-mode stack
        d, n = 3, 5000
        ops = _complex_probes(3, d * d, 60)
        stacks = [
            ([0], ["uu"]),
            ([0, 1], ["uu", "partial-A"]),
            ([2, 0], ["uustar", "uu"]),
            ([1, 2, 0], ["partial-A", "uustar", "uu"]),
            ([0, 2], ["uu", "uu"]),
        ]
        alone = mc_twirl_operator(ops[0], "uu", n, HaarSampler(61, d), (d, d))
        for probes, modes in stacks:
            got = mc_twirl_operator(ops[probes], modes, n, HaarSampler(61, d), (d, d))
            assert np.array_equal(got[probes.index(0)], alone), modes
        # and a partial-A probe alone, beside a two-sided one, in either order
        alone = mc_twirl_operator(ops[1], "partial-A", n, HaarSampler(61, d), (d, d))
        for probes, modes in (([1, 2], ["partial-A", "uustar"]), ([2, 1], ["uu", "partial-A"])):
            got = mc_twirl_operator(ops[probes], modes, n, HaarSampler(61, d), (d, d))
            assert np.array_equal(got[probes.index(1)], alone), modes

    @pytest.mark.parametrize(
        "op, modes, dims, message",
        [
            (np.ones((3, 9, 9)), ("uu", "uustar"), (3, 3), "2 modes for an operator of shape"),
            (np.ones((1, 9, 9)), ("uu", "uu"), (3, 3), "2 modes for an operator of shape"),
            (np.eye(9), ("uu",), (3, 3), "1 modes for an operator of shape"),
            (np.ones((2, 9, 9)), ("uu", "partial-B"), (3, 3), "unknown mode 'partial-B'"),
            (np.ones((2, 6, 6)), ("partial-A", "uu"), (3, 2), r"dims \(3, 2\) .* d = 3"),
        ],
        ids=["too-few", "too-many", "2-D", "unknown-entry", "partial-A-beside-uu-at-3x2"],
    )
    def test_rejects_a_mode_sequence_before_any_draw(self, op, modes, dims, message):
        # the sampler's stream has not moved
        s = HaarSampler(46, 3)
        with pytest.raises(ValueError, match=message):
            mc_twirl_operator(op, modes, 10, s, dims)
        assert np.array_equal(s.sample_batch(5), HaarSampler(46, 3).sample_batch(5))

    def test_mixed_stack_peak(self):
        # a mixed stack's extra arrays are the copy of op that groups its
        # probes by route and transposes the uustar ones: no more than its m
        # results on top of a U x U call on the same stack, as both routes
        # work in the one workspace
        d, n = 3, 10_000
        rho = random_density(d, d, np.random.default_rng(62))
        ops = np.stack([werner_multi(d, -0.9).mat, isotropic(d, 0.8).mat, rho.mat])
        peaks = {}
        for modes in ("uu", ("uu", "uustar", "partial-A"), ("partial-A", "uustar", "uu")):
            mc_twirl_operator(ops, modes, n, HaarSampler(63, d), (d, d))
            tracemalloc.start()
            try:
                mc_twirl_operator(ops, modes, n, HaarSampler(63, d), (d, d))
                peaks[modes] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        bound = peaks["uu"] + 16 * len(ops) * d**4
        assert max(peaks.values()) <= bound, peaks

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

    @pytest.mark.parametrize(
        "mode, dims",
        [("uu", (3, 3)), ("uustar", (3, 3)), ("partial-A", (3, 2)), ("uu", (4, 4)), ("uustar", (4, 4))],
    )
    def test_workspace_matches_chunked_loop(self, mode, dims):
        # the chunk loop written out with fresh arrays: two full chunks and
        # a tail of 11 samples; the two-sided probes by the Gram route at
        # d <= 3, by conjugate_sum at d = 4
        d, (da, db) = dims[0], dims
        n = 2 * linalg._chunk_lengths(10**6, d * d)[0] + 11
        op = random_density(da, db, np.random.default_rng(44)).mat
        got = mc_twirl_operator(op, mode, n, HaarSampler(45, d), dims)
        s, x = HaarSampler(45, d), partial_transpose_mat(op, da, db) if mode == "uustar" else op
        if mode != "partial-A" and d <= 3:
            want = _gram_loop(x, n, s)
        else:
            want = np.zeros((da * db, da * db), dtype=complex)
            for m in linalg._chunk_lengths(n, d * d):
                us = s.sample_batch(m)
                want += linalg.conjugate_sum(x, us, np.eye(db)[None] if mode == "partial-A" else us, 1.0 / n)
        if mode == "uustar":
            want = partial_transpose_mat(want, da, db)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", ["uu", "uustar"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_gram_route_matches_kron_sum(self, mode, d):
        # complex, non-Hermitian probes, which see a conjugated twirl
        assert gram_route_error(d, mode) <= 1e-14

    def test_gram_route_is_fixed_by_d(self, monkeypatch):
        # the two-sided probes skip conjugate_sum at d <= 3, whatever the
        # probes beside them, and take it at d = 4
        calls = []

        def recorded(op, a, b, weights, work=None):
            if len(b) > 1:
                calls.append(np.shape(a)[-1])
                assert np.shape(a)[-1] > 3, "two-sided conjugate_sum at d <= 3"
            return linalg.conjugate_sum(op, a, b, weights, work=work)

        monkeypatch.setattr(twirl, "conjugate_sum", recorded)
        for d in (2, 3):
            ops = _complex_probes(3, d * d, 64)
            mc_twirl_operator(ops, ("uu", "partial-A", "uustar"), 50, HaarSampler(65, d), (d, d))
            mc_twirl_operator(ops[0], "uu", 50, HaarSampler(65, d), (d, d))
        assert calls == []
        mc_twirl_operator(_complex_probes(1, 16, 64), "uu", 50, HaarSampler(65, 4), (4, 4))
        assert calls == [4]

    @pytest.mark.parametrize("d", [2, 3])
    def test_gram_route_products_stay_on_one_blas_thread(self, monkeypatch, d):
        # every product of the Gram route, its S S^dag slices and its
        # superoperator's row slices, stays within the sizes that OpenBLAS
        # runs on one thread; two full chunks and a tail of 11 samples
        n = 2 * linalg._chunk_lengths(10**6, d * d)[0] + 11
        sizes, matmul = [], np.matmul

        def recorded(a, b, **kwargs):
            sizes.append((np.shape(a), np.shape(b)))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recorded)
        mc_twirl_operator(_complex_probes(2, d * d, 70), ("uu", "uustar"), n, HaarSampler(71, d), (d, d))
        assert sizes
        for (m, k), b in sizes:
            if len(b) == 1:
                assert m * k <= twirl._SERIAL_GEMV_MACS, (m, k)
            else:
                assert m * k * b[1] <= twirl._SERIAL_GEMM_MACS, (m, k, b[1])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_nan_filled_workspace_gives_the_same_bits(self, monkeypatch, d):
        # every entry of the workspace is written before it is read: G is
        # zeroed, and the buffers of each sub-chunk, chunk and route are
        # filled first; two full chunks and a tail of 11 samples
        n = 2 * linalg._chunk_lengths(10**6, d * d)[0] + 11
        modes = ("uustar", "partial-A", "uu")
        ops = _complex_probes(len(modes), d * d, 66)
        want = mc_twirl_operator(ops, modes, n, HaarSampler(67, d), (d, d))
        empty = np.empty

        def nan_filled(*args, **kwargs):
            out = empty(*args, **kwargs)
            if np.issubdtype(out.dtype, np.inexact):
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", nan_filled)
        assert np.array_equal(mc_twirl_operator(ops, modes, n, HaarSampler(67, d), (d, d)), want)

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

    @pytest.mark.parametrize("mode", ["uu", "uustar", "partial-A"])
    @pytest.mark.parametrize("op", [np.eye(4) / 4, np.ones((1, 2, 9, 9)) / 9], ids=["wrong-size", "4-D"])
    def test_rejects_an_operator_of_another_shape(self, mode, op):
        # checked before the first draw: the sampler's stream has not moved
        s = HaarSampler(46, 3)
        with pytest.raises(ValueError, match=r"operator shape .* dims \(3, 3\)"):
            mc_twirl_operator(op, mode, 10, s, (3, 3))
        assert np.array_equal(s.sample_batch(5), HaarSampler(46, 3).sample_batch(5))

    def test_seed_reproducibility(self):
        rho = random_density(2, 2, np.random.default_rng(21))
        a = mc_twirl(rho, "uu", 500, HaarSampler(22, 2))
        b = mc_twirl(rho, "uu", 500, HaarSampler(22, 2))
        assert np.array_equal(a.mat, b.mat)


def _complex_probes(m, dim, seed):
    """m complex, non-Hermitian (dim, dim) probes."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, dim, dim)) + 1j * rng.standard_normal((m, dim, dim))


def gram_route_error(d, mode, n=1000):
    """Largest entry of the difference between the MC twirl of two complex,
    non-Hermitian probes over n samples (one chunk, several sub-chunks at
    d = 3) and the sum (1/n) sum_k K_k X K_k^dag over the same samples,
    K_k = U_k x U_k or U_k x conj(U_k) written out with np.kron."""
    ops = _complex_probes(2, d * d, 68)
    got = mc_twirl_operator(ops, mode, n, HaarSampler(69, d), (d, d))
    want = np.zeros_like(ops)
    for u in HaarSampler(69, d).sample_batch(n):
        k = np.kron(u, u.conj() if mode == "uustar" else u)
        want += k @ ops @ k.conj().T
    return np.max(np.abs(got - want / n))


def _gram_loop(x, n, s):
    """The Gram route written out with fresh arrays, for one (d^2, d^2)
    operator x and n samples of the sampler s: per chunk of samples and per
    sub-chunk of _chunk_lengths(m, N), S = (u_p u_q)_{p <= q} with
    u_p = U[a, c] for p = c d + a, and G += S conj(S)^T over each slice of
    twirl._SERIAL_GEMM_MACS / N^2 of its columns; then G / n gathered
    entry by entry into the superoperator, applied to vec(x) a slice of
    twirl._SERIAL_GEMV_MACS / d^4 of its rows at a time."""
    d = s.d
    dd = d * d
    rows = [(p, q) for p in range(dd) for q in range(p, dd)]
    pair = {}
    for i, (p, q) in enumerate(rows):
        pair[p, q] = pair[q, p] = i
    g = np.zeros((len(rows), len(rows)), dtype=complex)
    for m in linalg._chunk_lengths(n, dd):
        us = s.sample_batch(m)
        u = np.stack([us[:, a, c] for c in range(d) for a in range(d)])
        start = 0
        for length in linalg._chunk_lengths(m, len(rows)):
            chunk = u[:, start : start + length]
            start += length
            sym = np.stack([chunk[p] * chunk[q] for p, q in rows])
            step = twirl._SERIAL_GEMM_MACS // len(rows) ** 2
            for a in range(0, length, step):
                g += sym[:, a : a + step] @ sym[:, a : a + step].conj().T
    g *= 1.0 / n
    sup = np.empty((dd * dd, dd * dd), dtype=complex)
    for a, b, a2, b2, c, e, c2, e2 in itertools.product(range(d), repeat=8):
        row, col = ((a * d + b) * d + a2) * d + b2, ((c * d + e) * d + c2) * d + e2
        sup[row, col] = g[pair[c * d + a, e * d + b], pair[c2 * d + a2, e2 * d + b2]]
    height = twirl._SERIAL_GEMV_MACS // len(sup)
    return np.concatenate([sup[a : a + height] @ x.reshape(-1) for a in range(0, len(sup), height)]).reshape(dd, dd)


def _row_major_superoperator(g, weights, work=None):
    """sum_k w_k G_k x conj(G_k) from a (row, column) flattening of each G_k,
    all terms in one matrix product: a copy of the stack and of its weighted
    conjugates, made here whether or not a scratch `work` is given."""
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
