import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from twirlbreak.gaussian import (
    BONA_FIDE_TOL,
    OMEGA,
    CovarianceMatrix,
    dephase_support,
    dephase_truncated,
    epr_cm,
    is_separable_two_mode,
    min_pt_eigenvalue,
    pt_spectrum_support,
    pt_symplectic_eigenvalues,
    quasi_normal_cm,
    quasi_normal_sweep,
    reconstruct_decomposition,
    rotation_matrix,
    rotation_residual,
    separable_decomposition_dephased,
    solve_invariant_cm,
    symplectic_eigenvalues,
    tmsv_support,
    truncated_tmsv,
)
from twirlbreak import gaussian
from twirlbreak.linalg import (
    DensityOperator,
    hermitian_eigenvalues,
    negativity_from_spectrum,
    partial_transpose,
    partial_transpose_mat,
)
from twirlbreak.states import random_density, random_pure

ANGLES = np.linspace(0, 2 * np.pi, 32, endpoint=False) + 0.123


def rotate(m, theta_a, theta_b):
    """S m S^T for S = R(theta_a) + R(theta_b) (direct sum), one angle pair."""
    s = np.zeros((4, 4))
    s[:2, :2] = rotation_matrix(theta_a)
    s[2:, 2:] = rotation_matrix(theta_b)
    return s @ m @ s.T


def eig_symplectic_reference(m):
    """(nu_-, nu_+) from the moduli of the eigenvalues of i Omega V, which come
    in +- pairs; sound only when the pairs come out exact."""
    nus = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ m)))
    return nus[0], nus[2]


class TestRotationMatrix:
    def test_zero(self):
        assert np.array_equal(rotation_matrix(0.0), np.eye(2))

    def test_quarter_turn(self):
        assert np.allclose(rotation_matrix(np.pi / 2), [[0, 1], [-1, 0]], atol=1e-15)

    def test_orthogonal(self):
        r = rotation_matrix(0.7)
        assert np.allclose(r @ r.T, np.eye(2), atol=1e-15)
        assert abs(np.linalg.det(r) - 1.0) < 1e-15


class TestApplyRotations:
    def test_zero_angles(self):
        assert rotation_residual(epr_cm(2.0), [0.0], 1.0) == 0.0

    def test_epr_anticorrelated_invariance(self):
        for mu in (1.0, 1.5, 2.0, 5.0):
            assert rotation_residual(epr_cm(mu), ANGLES, -1.0) < 1e-12

    def test_epr_correlated_changes(self):
        assert rotation_residual(epr_cm(2.0), [0.7], 1.0) > 0.1


class TestRotationResidual:
    def test_matches_per_angle_rotations(self):
        cm = quasi_normal_cm(2.0, 1.5, 0.4, 0.3)
        for sign in (1.0, -1.0):
            want = max(np.max(np.abs(rotate(cm.m, th, sign * th) - cm.m)) for th in ANGLES)
            assert abs(rotation_residual(cm, ANGLES, sign) - want) < 1e-15

    def test_epr_fixed_only_by_anticorrelated_rotations(self):
        for mu in (1.5, 2.0, 5.0):
            assert rotation_residual(epr_cm(mu), ANGLES, -1.0) < 1e-12
            assert rotation_residual(epr_cm(mu), ANGLES, 1.0) > 0.1


class TestEprCm:
    def test_mu1_is_vacuum(self):
        assert np.allclose(epr_cm(1.0).m, np.eye(4))

    def test_mu2_off_diagonal(self):
        cm = epr_cm(2.0)
        assert np.allclose(cm.m[:2, 2:], np.sqrt(3) * np.diag([1.0, -1.0]))

    def test_bona_fide(self):
        for mu in (1.0, 2.0, 10.0):
            epr_cm(mu)  # constructor enforces bona-fide

    def test_rejects_mu_below_1(self):
        with pytest.raises(ValueError):
            epr_cm(0.9)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert np.allclose(symplectic_eigenvalues(CovarianceMatrix(np.eye(4))), (1.0, 1.0))

    def test_epr_pure(self):
        for mu in (1.0, 2.0, 5.0):
            nus = symplectic_eigenvalues(epr_cm(mu))
            assert np.allclose(nus, (1.0, 1.0), atol=1e-10)

    def test_thermal(self):
        assert np.allclose(
            symplectic_eigenvalues(CovarianceMatrix(3 * np.eye(4))), (3.0, 3.0)
        )


class TestPtSymplecticEigenvalues:
    def test_epr_closed_form(self):
        for mu in (1.0, 1.5, 2.0, 5.0):
            nu_min, _ = pt_symplectic_eigenvalues(epr_cm(mu))
            assert abs(nu_min - (mu - np.sqrt(mu * mu - 1))) < 1e-10

    def test_vacuum_separable(self):
        assert np.allclose(pt_symplectic_eigenvalues(CovarianceMatrix(np.eye(4))), (1.0, 1.0))

    def test_quasi_normal_always_ppt(self):
        nu_min, _ = pt_symplectic_eigenvalues(quasi_normal_cm(2.0, 2.0, 1.0, 0.0))
        assert nu_min >= 1.0 - 1e-10


class TestSeparability:
    def test_epr_entangled(self):
        for mu in (1.5, 2.0, 5.0):
            assert not is_separable_two_mode(epr_cm(mu))

    def test_vacuum_separable(self):
        assert is_separable_two_mode(CovarianceMatrix(np.eye(4)))

    def test_quasi_normal_sweep_separable(self):
        # the stacked sweep against the per-point route it replaced
        fam = solve_invariant_cm("correlated")
        count, worst, nu_min = 0, 0.0, np.inf
        for alpha in np.linspace(1.0, 3.0, 5):
            for beta in np.linspace(1.0, 3.0, 5):
                for omega in np.linspace(-1.5, 1.5, 5):
                    for phi in np.linspace(-1.5, 1.5, 5):
                        try:
                            cm = quasi_normal_cm(alpha, beta, omega, phi)
                        except ValueError:
                            continue
                        count += 1
                        worst = max(worst, fam.residual(cm.m))
                        nu_min = min(nu_min, pt_symplectic_eigenvalues(cm)[0])
                        assert is_separable_two_mode(cm)
        got_count, got_worst, got_nu_min = quasi_normal_sweep(fam, 5)
        assert got_count == count
        assert abs(got_worst - worst) < 1e-12
        assert abs(got_nu_min - nu_min) < 1e-12
        assert got_nu_min >= 1.0 - 1e-10

    @pytest.mark.parametrize("n, count", [(6, 320), (10, 2776)])
    def test_sweep_counts_pinned(self, n, count):
        got_count, worst, nu_min = quasi_normal_sweep(solve_invariant_cm("correlated"), n)
        assert got_count == count
        assert worst < 1e-12
        assert nu_min >= 1.0

    def test_reduced_form_closed_condition(self):
        # for blocks alpha I / alpha I / gamma I: bona-fide implies separable
        for alpha in np.linspace(1.0, 4.0, 50):
            for gamma in np.linspace(-3.0, 3.0, 50):
                m = np.block(
                    [[alpha * np.eye(2), gamma * np.eye(2)], [gamma * np.eye(2), alpha * np.eye(2)]]
                )
                bona_fide = abs(gamma) <= alpha - 1 + 1e-12
                try:
                    cm = CovarianceMatrix(m)
                except ValueError:
                    assert not bona_fide
                    continue
                assert abs(gamma) <= np.sqrt(alpha * alpha - 1) + 1e-12
                assert is_separable_two_mode(cm)


def _bona_fide_reference(m):
    """V + i Omega >= 0 read off its least eigenvalue, to BONA_FIDE_TOL."""
    return np.linalg.eigvalsh(m + 1j * OMEGA)[..., 0] >= -BONA_FIDE_TOL


class TestBonaFideClosedForm:
    @pytest.mark.parametrize("n, count", [(6, 320), (10, 2776)])
    def test_matches_eigenvalue_criterion_on_sweep_grids(self, n, count):
        diag, coupling = np.linspace(1.0, 3.0, n), np.linspace(-1.5, 1.5, n)
        m = gaussian._quasi_normal_stack(*np.meshgrid(diag, diag, coupling, coupling, indexing="ij"))
        mask = gaussian._is_bona_fide(m)
        assert np.array_equal(mask, _bona_fide_reference(m))
        assert np.count_nonzero(mask) == count

    def test_matches_eigenvalue_criterion_at_the_boundary(self):
        # EPR states are pure (nu_- = nu_+ = 1, on the boundary); scaled by
        # s < 1 they fail Delta >= 2 alone; negated, or with the signs of one
        # mode's block of the vacuum flipped, they fail V > 0 alone
        pure = [epr_cm(mu).m for mu in (1.0, 1.5, 2.0, 5.0)]
        scaled = [s * v for v in pure for s in (0.5, 0.9, 0.99, 0.999)]
        indefinite = [-v for v in pure] + [np.diag([-1.0, -1.0, 1.0, 1.0]), np.diag([1.0, 1.0, -1.0, -1.0])]
        stack = np.stack(pure + scaled + indefinite)
        mask = gaussian._is_bona_fide(stack)
        assert np.array_equal(mask, _bona_fide_reference(stack))
        assert mask.tolist() == [True] * len(pure) + [False] * (len(scaled) + len(indefinite))


class TestQuasiNormalCm:
    def test_correlated_invariance(self):
        cm = quasi_normal_cm(2.0, 1.5, 0.4, 0.3)
        assert rotation_residual(cm, ANGLES, 1.0) < 1e-12

    def test_zero_coupling_is_thermal_product(self):
        cm = quasi_normal_cm(2.0, 3.0, 0.0, 0.0)
        assert np.allclose(cm.m, np.diag([2.0, 2.0, 3.0, 3.0]))

    def test_local_rotation_reduces_coupling_block(self):
        omega, phi = 0.6, 0.8
        cm = quasi_normal_cm(2.0, 2.0, omega, phi)
        gamma = np.sqrt(omega**2 + phi**2)
        # rotate mode B to diagonalize the coupling block
        phi_angle = np.arctan2(phi, omega)
        rotated = rotate(cm.m, 0.0, phi_angle)
        assert np.allclose(rotated[:2, 2:], gamma * np.eye(2), atol=1e-12)

    def test_rejects_non_bona_fide(self):
        with pytest.raises(ValueError):
            quasi_normal_cm(1.0, 1.0, 1.0, 1.0)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError, match="alpha and beta must be >= 1"):
            quasi_normal_cm(0.99, 1.5, 0, 0)


class TestSolveInvariantCm:
    def test_correlated_dimension_and_membership(self):
        fam = solve_invariant_cm("correlated")
        assert fam.dimension == 4
        cm = quasi_normal_cm(2.0, 1.5, 0.4, 0.3)
        assert fam.residual(cm.m) < 1e-12
        assert fam.residual(np.eye(4)) < 1e-12

    def test_anticorrelated_contains_epr(self):
        fam = solve_invariant_cm("anticorrelated")
        for mu in (1.0, 2.0, 5.0):
            assert fam.residual(epr_cm(mu).m) < 1e-12
        assert fam.residual(np.eye(4)) < 1e-12

    def test_every_basis_element_is_invariant(self):
        for mode, sign in (("correlated", 1.0), ("anticorrelated", -1.0)):
            fam = solve_invariant_cm(mode)
            for b in fam.basis:
                for th in ANGLES:
                    assert np.max(np.abs(rotate(b, th, sign * th) - b)) < 1e-12

    def test_non_family_member_rejected(self):
        fam = solve_invariant_cm("correlated")
        assert fam.residual(epr_cm(2.0).m) > 0.1

    def test_residual_of_a_stack(self):
        fam = solve_invariant_cm("correlated")
        stack = np.stack([epr_cm(2.0).m, np.eye(4), quasi_normal_cm(2.0, 1.5, 0.4, 0.3).m])
        got = fam.residual(stack)
        assert got.shape == (3,)
        assert np.array_equal(got, [fam.residual(m) for m in stack])


class TestDephaseTruncated:
    def test_tmsv_becomes_ppt(self):
        state = truncated_tmsv(0.5, 6)
        out = dephase_truncated(state)
        n = 6
        t = out.mat.reshape(n, n, n, n)
        for k in range(n):
            for kp in range(n):
                if k != kp:
                    assert np.max(np.abs(t[k, :, kp, :])) < 1e-15
        assert min_pt_eigenvalue(out) >= -1e-12

    def test_diagonal_input_unchanged(self):
        rng = np.random.default_rng(0)
        n = 4
        rho = random_density(n, n, rng)
        already = dephase_truncated(rho)
        again = dephase_truncated(already)
        assert np.max(np.abs(again.mat - already.mat)) < 1e-15

    def test_trace_preserving(self):
        state = truncated_tmsv(0.4, 6)
        out = dephase_truncated(state)
        assert abs(np.trace(out.mat).real - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "fn", [dephase_truncated, min_pt_eigenvalue, separable_decomposition_dephased]
    )
    def test_rejects_unequal_cutoffs(self, fn):
        rho = random_pure(3, 4, np.random.default_rng(4))
        with pytest.raises(ValueError, match="both modes must share the Fock cutoff"):
            fn(rho)

    def test_random_pure_always_ppt(self):
        rng = np.random.default_rng(1)
        for n in (4, 6, 8):
            for _ in range(100):
                state = random_pure(n, n, rng)
                out = dephase_truncated(state)
                assert min_pt_eigenvalue(out) >= -1e-10


class TestSeparableDecomposition:
    def test_vacuum_single_component(self):
        n = 4
        vec = np.zeros(n * n, dtype=complex)
        vec[0] = 1.0
        state = DensityOperator(np.outer(vec, vec.conj()), n, n)
        comps = separable_decomposition_dephased(state)
        assert len(comps) == 1
        dk, ket_k, xi = comps[0]
        assert abs(dk - 1.0) < 1e-14
        assert np.allclose(ket_k, np.eye(n)[0])
        assert np.allclose(np.abs(xi), np.eye(n)[0])

    def test_bell_like_two_components(self):
        n = 4
        vec = np.zeros(n * n, dtype=complex)
        vec[0] = vec[n + 1] = 1 / np.sqrt(2)
        state = DensityOperator(np.outer(vec, vec.conj()), n, n)
        comps = separable_decomposition_dephased(state)
        assert len(comps) == 2
        assert all(abs(dk - 0.5) < 1e-14 for dk, _, _ in comps)

    def test_tmsv_geometric_weights(self):
        lam, n = 0.5, 6
        state = truncated_tmsv(lam, n)
        comps = separable_decomposition_dephased(state)
        weights = np.array([dk for dk, _, _ in comps])
        expected = lam ** (2 * np.arange(n))
        expected /= expected.sum()
        assert np.max(np.abs(np.sort(weights)[::-1] - np.sort(expected)[::-1])) < 1e-12
        # cross-check against the diagonal of the A marginal
        from twirlbreak.linalg import partial_trace_multi

        marginal = partial_trace_multi(state.mat, [n, n], keep=[0])
        assert np.max(np.abs(np.sort(np.diag(marginal).real) - np.sort(weights))) < 1e-12

    def test_reconstruction_matches_channel(self):
        rng = np.random.default_rng(2)
        for n in (4, 6):
            state = random_pure(n, n, rng)
            comps = separable_decomposition_dephased(state)
            rec = reconstruct_decomposition(comps, n)
            out = dephase_truncated(state)
            assert np.max(np.abs(rec - out.mat)) < 1e-12
            assert abs(sum(dk for dk, _, _ in comps) - 1.0) < 1e-12

    def test_rejects_mixed_input(self):
        rng = np.random.default_rng(3)
        state = random_density(4, 4, rng)
        with pytest.raises(ValueError, match="pure"):
            separable_decomposition_dephased(state)

    def test_rejects_rank_two_input(self):
        # unit trace and positive, so only the purity gate tells it from v v^dag
        n = 3
        rho = np.zeros((n * n, n * n), dtype=complex)
        rho[0, 0], rho[n + 1, n + 1] = 0.9, 0.1
        state = DensityOperator(rho, n, n)
        with pytest.raises(ValueError, match="input must be pure"):
            separable_decomposition_dephased(state)


class TestTruncatedTmsv:
    def test_tail_guard(self):
        with pytest.raises(ValueError, match="cutoff"):
            truncated_tmsv(0.9, 4)
        with pytest.raises(ValueError, match="cutoff"):
            tmsv_support(0.9, 4)

    def test_dense_state_is_its_vector_outer_product(self):
        lam, n = 0.4, 7
        vec = np.zeros(n * n, dtype=complex)
        vec[:: n + 1] = lam ** np.arange(n) / np.sqrt(np.sum(lam ** (2 * np.arange(n))))
        assert np.max(np.abs(truncated_tmsv(lam, n).mat - np.outer(vec, vec.conj()))) < 1e-15

    def test_purity(self):
        rho = truncated_tmsv(0.3, 6)
        assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) < 1e-10


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


class TestSupportForm:
    """The bosonic rows' support form (indices and the block on them) against
    the dense reference on the n^2 x n^2 matrix, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 8, 19, 30])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.8])
    def test_dephased_tmsv_matches_dense(self, lam, n):
        if lam ** (2 * n) > 1e-3:  # both forms refuse the truncation
            with pytest.raises(ValueError, match="cutoff too small"):
                tmsv_support(lam, n)
            return
        idx, block = tmsv_support(lam, n)
        dense = dephase_truncated(truncated_tmsv(lam, n))
        dephased = dephase_support(idx, block, n)
        assert _bits(dephased) == _bits(dense.mat[np.ix_(idx, idx)])
        want = hermitian_eigenvalues(partial_transpose(dense))
        got = pt_spectrum_support(idx, dephased, n)
        assert _bits(got) == _bits(want)
        # the row fields dephased_min_pt_eigenvalue and single_transmission_negativity
        assert _bits(float(got[0])) == _bits(float(want[0]))
        assert _bits(negativity_from_spectrum(got)) == _bits(negativity_from_spectrum(want))

    def test_undephased_tmsv_pt_fills_every_index(self):
        # PT sends |kk><k'k'| to |kk'><k'k|: the support of n indices becomes all n^2
        lam, n = 0.5, 6
        idx, block = tmsv_support(lam, n)
        got = pt_spectrum_support(idx, block, n)
        assert _bits(got) == _bits(hermitian_eigenvalues(partial_transpose(truncated_tmsv(lam, n))))
        assert np.count_nonzero(got) == n * n
        assert got[0] < -0.1  # entangled

    def test_random_block_matches_dense(self):
        rng = np.random.default_rng(7)
        n = 4
        idx = np.sort(rng.choice(n * n, size=7, replace=False))
        block = random_density(7, 1, rng).mat
        dense = np.zeros((n * n, n * n), dtype=complex)
        dense[np.ix_(idx, idx)] = block
        dephased = dephase_support(idx, block, n)
        # keep <k l|rho|k' l'> where k = k'
        kept = np.eye(n, dtype=bool)[:, None, :, None]
        reference = np.where(kept, dense.reshape(n, n, n, n), 0.0).reshape(n * n, n * n)
        assert _bits(dephased) == _bits(reference[np.ix_(idx, idx)])
        for m, ref in ((block, dense), (dephased, reference)):
            want = hermitian_eigenvalues(partial_transpose_mat(ref, n, n))
            assert _bits(pt_spectrum_support(idx, m, n)) == _bits(want)

    def test_rejects_block_without_unit_trace(self):
        idx, block = tmsv_support(0.3, 8)
        with pytest.raises(ValueError, match="does not have unit trace"):
            dephase_support(idx, 2 * block, 8)


class TestCovarianceMatrixValidation:
    def test_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(m)

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError, match="bona-fide"):
            CovarianceMatrix(0.5 * np.eye(4))


@given(st.floats(1.0, 10.0), st.floats(0.0, 2 * np.pi))
@settings(max_examples=40, deadline=None)
def test_epr_invariance_property(mu, theta):
    assert rotation_residual(epr_cm(mu), [theta], -1.0) < 1e-11


@given(
    st.floats(1.0, 5.0),
    st.floats(0.25, 4.0),
    st.lists(st.floats(-0.5, 0.5), min_size=10, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_closed_form_spectrum_property(nu1, gap, h_entries):
    # Williamson form S diag(nu1, nu1, nu2, nu2) S^T with a random symplectic S
    h = np.zeros((4, 4))
    h[np.triu_indices(4)] = h_entries
    s = expm(OMEGA @ (h + h.T))
    nu2 = nu1 + gap
    m = s @ np.diag([nu1, nu1, nu2, nu2]) @ s.T
    cm = CovarianceMatrix((m + m.T) / 2)
    got = symplectic_eigenvalues(cm)
    assert np.allclose(got, (nu1, nu2), rtol=1e-9, atol=0)
    assert np.allclose(got, eig_symplectic_reference(cm.m), rtol=1e-9, atol=0)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    got_pt = pt_symplectic_eigenvalues(cm)
    assert np.allclose(got_pt, eig_symplectic_reference(flip @ cm.m @ flip), rtol=1e-9, atol=0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_dephasing_idempotent_and_ppt(seed):
    rng = np.random.default_rng(seed)
    state = random_pure(4, 4, rng)
    once = dephase_truncated(state)
    twice = dephase_truncated(once)
    assert np.max(np.abs(once.mat - twice.mat)) < 1e-15
    assert min_pt_eigenvalue(once) >= -1e-10
