import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from twirlbreak.gaussian import (
    BONA_FIDE_TOL,
    OMEGA,
    CovarianceMatrix,
    dephased_blocks,
    det_c_form_min,
    dephase_truncated,
    epr_cm,
    is_separable_two_mode,
    min_pt_eigenvalue,
    pt_symplectic_eigenvalues,
    quasi_normal_cm,
    reconstruct_decomposition,
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
    partial_trace_multi,
    partial_transpose,
)
from twirlbreak.states import random_density, random_pure

ANGLES = np.linspace(0, 2 * np.pi, 32, endpoint=False) + 0.123


def rot(theta):
    """R(theta) = [[cos, sin], [-sin, cos]], the rotation of one mode's
    quadratures, built here as the tests' independent reference."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def rotation(theta_a, theta_b):
    """S = R(theta_a) + R(theta_b) (direct sum)."""
    s = np.zeros((4, 4))
    s[:2, :2] = rot(theta_a)
    s[2:, 2:] = rot(theta_b)
    return s


def rotate(m, theta_a, theta_b):
    """S m S^T for S = R(theta_a) + R(theta_b), one angle pair."""
    s = rotation(theta_a, theta_b)
    return s @ m @ s.T


def grid_residual(m, sign):
    """Largest entry of |S m S^T - m| over S = R(theta) + R(sign theta), theta in ANGLES."""
    return max(np.max(np.abs(rotate(m, th, sign * th) - m)) for th in ANGLES)


def off_family(m, sign):
    """m less its average over the rotation group: S m S^T has Fourier
    frequencies |k| <= 2 in theta, so the mean over the 32 equally spaced
    ANGLES is the exact average, the part of m that the group fixes."""
    mean = np.mean([rotate(m, th, sign * th) for th in ANGLES], axis=0)
    x = m - mean
    return (x + x.T) / 2


def eig_symplectic_reference(m):
    """(nu_-, nu_+) from the moduli of the eigenvalues of i Omega V, which come
    in +- pairs; sound only when the pairs come out exact."""
    nus = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ m)))
    return nus[0], nus[2]


def _random_cm(rng):
    """A A^T + I for a Gaussian A: V >= I, so V + i Omega >= 0."""
    a = rng.standard_normal((4, 4))
    return CovarianceMatrix(a @ a.T + np.eye(4))


class TestApplyRotations:
    # finite rotations, built by the tests' own R(theta)
    def test_epr_anticorrelated_invariance(self):
        for mu in (1.0, 1.5, 2.0, 5.0):
            assert grid_residual(epr_cm(mu).m, -1.0) < 1e-12

    def test_epr_correlated_changes(self):
        m = epr_cm(2.0).m
        assert np.max(np.abs(rotate(m, 0.7, 0.7) - m)) > 0.1


class TestRotationResidual:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_generator_exponentiates_to_the_rotations(self, sign):
        # expm's rounding grows with |theta| <= 2 pi through its squarings; a
        # wrong generator is off by O(1)
        g = gaussian._generator(sign)
        for th in ANGLES:
            assert np.max(np.abs(expm(th * g) - rotation(th, sign * th))) < 1e-12

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_the_derivative_of_the_rotations(self, sign):
        # central difference at theta = 0: error O(h^2) + O(eps / h), ~1e-10 at h = 1e-5
        h, rng = 1e-5, np.random.default_rng(17)
        g = gaussian._generator(sign)
        for _ in range(5):
            cm = _random_cm(rng)
            derivative = (rotate(cm.m, h, sign * h) - rotate(cm.m, -h, -sign * h)) / (2 * h)
            scale = np.max(np.abs(cm.m))
            assert np.max(np.abs(derivative - (g @ cm.m + cm.m @ g.T))) < 1e-8 * scale
            assert abs(rotation_residual(cm, sign) - np.max(np.abs(derivative))) < 1e-8 * scale

    def test_epr_fixed_only_by_anticorrelated_rotations(self):
        # with sign 1, G V + V G^T has cross block sqrt(mu^2 - 1) (J Z - Z J),
        # entries 0 and -2 sqrt(mu^2 - 1); with sign -1 it is exactly 0
        for mu in (1.0, 1.5, 2.0, 5.0):
            assert rotation_residual(epr_cm(mu), -1.0) == 0.0
            assert abs(rotation_residual(epr_cm(mu), 1.0) - 2 * np.sqrt(mu * mu - 1)) < 1e-14 * mu

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_perturbation_off_the_family_reads_its_size(self, sign):
        # a member with margin 0.5 I, moved by delta P, P off the family with
        # max |P| = 1.  Each entry of G P + P G^T is a sum of two entries of
        # P: the residual is <= 2 delta.  G acts on symmetric matrices as a
        # skew map whose nonzero eigenvalues are +-i and +-2i, so |G P + P
        # G^T|_F >= |P|_F >= 1, and as |X|_F <= 4 max |X| on 4x4 matrices the
        # residual is >= delta / 4.  And |S P S^T - P|_F <= 2 |P|_F: the
        # residual is >= 1/8 of the 32-angle grid's, so the gate is not weaker
        member = (epr_cm(2.0).m if sign < 0 else quasi_normal_cm(2.0, 1.5, 0.4, 0.3).m) + 0.5 * np.eye(4)
        rng = np.random.default_rng(29)
        for _ in range(5):
            x = rng.standard_normal((4, 4))
            p = off_family(x + x.T, sign)
            p /= np.max(np.abs(p))
            for delta in (1e-2, 1e-6, 1e-10):
                cm = CovarianceMatrix(member + delta * p)
                got = rotation_residual(cm, sign)
                assert delta / 4 - 1e-14 <= got <= 2 * delta + 1e-14
                assert got >= grid_residual(cm.m, sign) / 8 - 1e-14


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
        # the stacked grid reference against the per-point route
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
        m = _bona_fide_grid(5)
        got_nu_min, _ = gaussian._symplectic_pair(m, -1.0)
        assert len(m) == count
        assert abs(np.max(fam.residual(m)) - worst) < 1e-12
        assert abs(np.min(got_nu_min) - nu_min) < 1e-12
        assert np.min(got_nu_min) >= 1.0 - 1e-10

    # n = 1 and 2 keep no point: no coupling on their grids is 0
    @pytest.mark.parametrize("n, count", [(1, 0), (2, 0), (6, 320), (10, 2776)])
    def test_sweep_counts_pinned(self, n, count):
        # the quasi-normal grid that the det C certificate replaced, kept as a
        # reference on real CMs: every bona-fide point is in the family, has
        # det C = omega^2 + phi^2 >= 0 and is PPT
        m = _bona_fide_grid(n)
        assert len(m) == count
        assert np.all(solve_invariant_cm("correlated").residual(m) < 1e-12)
        assert np.all(np.linalg.det(m[:, :2, 2:]) >= 0)
        nu_min, _ = gaussian._symplectic_pair(m, -1.0)
        assert np.all(nu_min >= 1.0 - BONA_FIDE_TOL)

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


def _bona_fide_grid(n_per_axis):
    """The bona-fide quasi-normal CMs on the grid alpha, beta in [1, 3],
    omega, phi in [-1.5, 1.5], n_per_axis points per axis."""
    diag = np.linspace(1.0, 3.0, n_per_axis)
    coupling = np.linspace(-1.5, 1.5, n_per_axis)
    m = gaussian._quasi_normal_stack(*np.meshgrid(diag, diag, coupling, coupling, indexing="ij", sparse=True))
    return m[gaussian._is_bona_fide(m)]


def _det_c_form(family):
    """The Gram matrix Q of x -> det C(sum_i x_i B_i) on the family's basis,
    from np.linalg.det and the form's values on the basis and its pairs."""
    c = np.asarray(family.basis)[:, :2, 2:]
    det_c = np.linalg.det(c)
    return (np.linalg.det(c[:, None] + c[None]) - det_c[:, None] - det_c[None]) / 2


class TestDetCForm:
    @pytest.mark.parametrize(
        "mode, spectrum", [("correlated", [0.0, 0.0, 1.0, 1.0]), ("anticorrelated", [-1.0, -1.0, 0.0, 0.0])]
    )
    def test_spectrum_pinned(self, mode, spectrum):
        fam = solve_invariant_cm(mode)
        got = np.linalg.eigvalsh(_det_c_form(fam))
        assert got == pytest.approx(spectrum, rel=0, abs=1e-14)
        assert abs(det_c_form_min(fam) - got[0]) < 1e-14

    @pytest.mark.parametrize("mode", ["correlated", "anticorrelated"])
    def test_bounds_det_c_on_random_members(self, mode):
        fam = solve_invariant_cm(mode)
        x = np.random.default_rng(5).standard_normal((1000, fam.dimension))
        det_c = np.linalg.det(np.einsum("mi,ijk->mjk", x, np.asarray(fam.basis))[:, :2, 2:])
        assert np.all(det_c >= det_c_form_min(fam) * np.sum(x * x, axis=1) - 1e-12)
        # the anticorrelated family holds members with det C < 0, the EPR states among them
        assert np.any(det_c < -0.1) == (mode == "anticorrelated")


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
        assert rotation_residual(cm, 1.0) == 0.0

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


def _up_to_order_and_sign(mats):
    """The matrices, each with its first nonzero entry made positive, sorted."""
    flat = [m.ravel() for m in mats]
    return sorted(tuple(f * np.sign(f[np.flatnonzero(f)[0]])) for f in flat)


def _directions(c1, c2):
    """A = I, B = I, C = c1 and C = c2, each alone in a symmetric 4x4 matrix."""
    z = np.zeros((2, 2))
    blocks = [(np.eye(2), z, z), (z, np.eye(2), z), (z, z, c1), (z, z, c2)]
    return [np.block([[a, c], [c.T, b]]) for a, b, c in blocks]


# the quasi-normal directions alpha, beta, omega, phi (C = I, C = J), and the
# anticorrelated family's, with C = Z and C = X in their place
FAMILY_DIRECTIONS = {
    "correlated": _directions(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])),
    "anticorrelated": _directions(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])),
}


class TestSolveInvariantCm:
    def test_correlated_dimension_and_membership(self):
        fam = solve_invariant_cm("correlated")
        assert fam.dimension == 4
        cm = quasi_normal_cm(2.0, 1.5, 0.4, 0.3)
        assert fam.residual(cm.m) == 0.0
        assert fam.residual(np.eye(4)) == 0.0

    def test_anticorrelated_contains_epr(self):
        fam = solve_invariant_cm("anticorrelated")
        assert fam.dimension == 4
        for mu in (1.0, 2.0, 5.0):
            assert fam.residual(epr_cm(mu).m) == 0.0
        assert fam.residual(np.eye(4)) == 0.0

    @pytest.mark.parametrize("mode", ["correlated", "anticorrelated"])
    def test_basis_is_the_family_directions(self, mode):
        fam = solve_invariant_cm(mode)
        assert _up_to_order_and_sign(fam.basis) == _up_to_order_and_sign(FAMILY_DIRECTIONS[mode])

    @pytest.mark.parametrize("mode", ["correlated", "anticorrelated"])
    def test_projector_is_exact(self, mode):
        # entries 0, +-1/2 and 1: products and two-term sums of them are exact
        fam = solve_invariant_cm(mode)
        p = fam.projector
        assert set(np.unique(p)) <= {-0.5, 0.0, 0.5, 1.0}
        assert np.array_equal(p @ p, p)
        assert np.array_equal(p, p.T)
        assert np.trace(p) == fam.dimension

    @pytest.mark.parametrize("mode, sign", [("correlated", 1.0), ("anticorrelated", -1.0)])
    def test_projector_is_the_average_over_the_rotations(self, mode, sign):
        # S V S^T has the theta frequencies 0 and +-2 only, so its mean over 3
        # equally spaced angles is the exact average over the whole group;
        # row k is the average of the k-th unit symmetric matrix, on the 10
        # free entries
        iu = np.triu_indices(4)
        angles = 2 * np.pi * np.arange(3) / 3 + 0.123
        rows = []
        for i, j in zip(*iu):
            unit = np.zeros((4, 4))
            unit[i, j] = unit[j, i] = 1.0
            rows.append(np.mean([rotate(unit, th, sign * th) for th in angles], axis=0)[iu])
        assert np.max(np.abs(solve_invariant_cm(mode).projector - np.array(rows))) <= 1e-15

    def test_members_have_zero_residual(self):
        # the stacks the gates read: each entry of x @ projector is x_i / 2 +
        # s x_j / 2, with s x_j = x_i on a member, or 0 where every member is
        # 0, so it is exact on any summation order
        epr = gaussian._epr_stack([1.0, 1.5, 2.0, 5.0])
        directions = gaussian._quasi_normal_stack(*np.eye(4))
        assert np.array_equal(solve_invariant_cm("anticorrelated").residual(epr), np.zeros(4))
        assert np.array_equal(solve_invariant_cm("correlated").residual(directions), np.zeros(4))

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
        # each entry of x @ projector has at most two nonzero terms, both
        # exact halves: one rounding on any summation order, so the stacked
        # and the single-row product agree bit for bit
        fam = solve_invariant_cm("correlated")
        x = np.random.default_rng(41).standard_normal((5, 4, 4))
        members = [epr_cm(2.0).m, np.eye(4), quasi_normal_cm(2.0, 1.5, 0.4, 0.3).m]
        stack = np.concatenate([members, x + x.swapaxes(1, 2)])
        got = fam.residual(stack)
        assert got.shape == (8,)
        assert np.all(got[3:] > 0.1)
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
        marginal = partial_trace_multi(state.mat, [n, n], keep=[0])
        assert np.max(np.abs(np.sort(np.diag(marginal).real) - np.sort(weights))) < 1e-12

    def test_weights_are_the_a_marginal_and_kets_are_unit(self):
        # d_k = <k|Tr_B rho|k> and |xi(k)| = 1 split each component's weight
        # off its ket; the reconstruction alone cannot tell, and a random
        # state's coefficient matrix, unlike the squeezed vacuum's, is not
        # diagonal, so row sums differ from column sums
        rng = np.random.default_rng(12)
        for n in (2, 3, 5):
            for _ in range(4):
                state = random_pure(n, n, rng)
                comps = separable_decomposition_dephased(state)
                marginal = partial_trace_multi(state.mat, [n, n], keep=[0])
                assert [int(np.argmax(np.abs(ket))) for _, ket, _ in comps] == list(range(n))
                weights = np.array([dk for dk, _, _ in comps])
                assert np.max(np.abs(weights - np.diag(marginal).real)) < 1e-14
                assert np.max(np.abs([np.linalg.norm(xi) - 1.0 for _, _, xi in comps])) < 1e-14

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
    """The bosonic rows' k-block route on the squeezed vacuum's support (the
    indices |kk>, one per k-block) against the dense reference on the n^2 x
    n^2 matrix, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 8, 19, 30])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.8])
    def test_dephased_tmsv_matches_dense(self, lam, n):
        if lam ** (2 * n) > 1e-3:  # both forms refuse the truncation
            with pytest.raises(ValueError, match="cutoff too small"):
                tmsv_support(lam, n)
            return
        idx, block = tmsv_support(lam, n)
        dense = dephase_truncated(truncated_tmsv(lam, n))
        blocks, spectra = dephased_blocks(block[None], n)
        assert blocks.shape == (1, n, 1, 1) and spectra.shape == (1, n, 1)
        assert _bits(np.diag(blocks.ravel())) == _bits(dense.mat[np.ix_(idx, idx)])
        want = hermitian_eigenvalues(partial_transpose(dense))
        # the run_bosonic_scenario spectrum: the n^2 - n other eigenvalues are exact zeros
        got = np.sort(np.concatenate([spectra.ravel(), np.zeros(n * (n - 1))]))
        assert _bits(got) == _bits(want)
        # the row fields dephased_min_pt_eigenvalue and single_transmission_negativity
        assert _bits(float(got[0])) == _bits(float(want[0]))
        assert _bits(negativity_from_spectrum(got)) == _bits(negativity_from_spectrum(want))

    def test_rejects_block_without_unit_trace(self):
        _, block = tmsv_support(0.3, 8)
        with pytest.raises(ValueError, match="does not have unit trace"):
            dephased_blocks(2 * block[None], 8)


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
    m = epr_cm(mu).m
    assert rotation_residual(epr_cm(mu), -1.0) == 0.0
    assert np.max(np.abs(rotate(m, theta, -theta) - m)) < 1e-11


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
