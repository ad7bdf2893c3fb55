import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twirlbreak.channels import (
    PAULIS,
    DilatedChannel,
    KrausChannel,
    ProbabilityVector,
    apply_dilation,
    apply_dilation_dense,
    apply_kraus,
    build_twirl_dilation,
    choi_states,
    correlated_pauli,
    env_is_classical,
    is_entanglement_breaking,
    is_product_form,
    local_depolarizing,
)
from twirlbreak.linalg import (
    conjugate_sum,
    frobenius_distance,
    hermitian_eigenvalues,
    kron,
    negativity,
    partial_trace_multi,
    partial_transpose,
)
from twirlbreak.states import max_entangled, max_entangled_mat, random_density, singlet, werner_qubit
from twirlbreak.twirl import HaarSampler

UNIFORM = ProbabilityVector((0.25, 0.25, 0.25, 0.25))
EB_BOUNDARY = ProbabilityVector((0.5, 1 / 6, 1 / 6, 1 / 6))


class TestProbabilityVector:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ProbabilityVector((-0.1, 0.6, 0.3, 0.2))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ProbabilityVector((0.5, 0.5, 0.5, 0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        # a NaN entry makes the sum test compare NaN, which is never > tol
        with pytest.raises(ValueError, match="finite"):
            ProbabilityVector((bad, 0.5, 0.25, 0.25))


class TestKrausChannel:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel((0.9 * np.eye(2),))

    @pytest.mark.parametrize(
        "shape", [(0, 2, 2), (1, 0, 0), (2, 2), (1, 2, 3)], ids=["no-ops", "dim-0", "2d", "non-square"]
    )
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError, match="non-empty stack of same-shape square"):
            KrausChannel(np.zeros(shape))

    def test_identity_channel(self):
        ch = KrausChannel((np.eye(2),))
        rho = werner_qubit(0.5)
        assert frobenius_distance(apply_kraus(ch, rho).mat, rho.mat) == 0.0

    def test_acts_on_side_a_only(self):
        # E x I for a qutrit amplitude damping E on the 3 x 2 state's side A
        rng = np.random.default_rng(12)
        ch = KrausChannel(_amplitude_damping(3, 0.3))
        rho = random_density(3, 2, rng)
        want = sum(kron(k, np.eye(2)) @ rho.mat @ kron(k, np.eye(2)).conj().T for k in ch.operators)
        out = apply_kraus(ch, rho)
        assert (out.dim_a, out.dim_b) == (3, 2)
        assert frobenius_distance(out.mat, want) < 1e-12

    @pytest.mark.parametrize("ops", [(np.eye(4),), (np.eye(3),)], ids=["joint-4x4", "qutrit"])
    def test_rejects_side_a_dimension_mismatch(self, ops):
        with pytest.raises(ValueError, match="side-A dim 2"):
            apply_kraus(KrausChannel(ops), werner_qubit(0.5))


def _amplitude_damping(d, gamma):
    """Qudit amplitude damping: every excited level decays to |0> with
    probability gamma."""
    k0 = np.diag([1.0] + [np.sqrt(1 - gamma)] * (d - 1))
    decays = [np.sqrt(gamma) * np.outer(np.eye(d)[0], np.eye(d)[j]) for j in range(1, d)]
    return np.stack([k0, *decays])


def _isometry_kraus(d, k, rng):
    """K Kraus operators cut from a random (K d, d) isometry."""
    g = rng.standard_normal((k * d, d)) + 1j * rng.standard_normal((k * d, d))
    return np.linalg.qr(g)[0].reshape(k, d, d)


def _choi_reference(ops):
    """sum_k (K_k x I) Phi (K_k x I)^dag, term by term."""
    d = ops.shape[-1]
    lifted = [kron(k, np.eye(d)) for k in ops]
    return sum(k @ max_entangled_mat(d) @ k.conj().T for k in lifted)


class TestChoiStates:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_term_by_term_reference(self, d):
        rng = np.random.default_rng(d)
        sets = [_amplitude_damping(d, g) for g in (0.0, 0.4, 1.0)]
        sets += [_isometry_kraus(d, d, rng) for _ in range(3)]
        choi = choi_states(np.stack(sets))
        assert choi.shape == (6, d * d, d * d)
        for got, ops in zip(choi, sets):
            assert np.max(np.abs(got - _choi_reference(ops))) < 1e-12

    def test_rejects_incomplete_set(self):
        # a trace-decreasing map has a Choi state of trace below 1
        with pytest.raises(ValueError, match="trace"):
            choi_states(0.9 * np.eye(3)[None, None])


class TestCorrelatedPauli:
    def test_p1000_is_identity(self):
        ch = correlated_pauli(ProbabilityVector((1, 0, 0, 0)))
        rho = random_density(2, 2, np.random.default_rng(0))
        assert frobenius_distance(apply_dilation(ch, rho).mat, rho.mat) < 1e-14

    def test_werner_fixed_point(self):
        ch = correlated_pauli(ProbabilityVector((0.4, 0.3, 0.2, 0.1)))
        rho = werner_qubit(0.9)
        assert frobenius_distance(apply_dilation(ch, rho).mat, rho.mat) < 1e-12

    def test_singlet_fixed_point_any_p(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = ProbabilityVector(tuple(rng.dirichlet(np.ones(4))))
            out = apply_dilation(correlated_pauli(p), singlet())
            assert frobenius_distance(out.mat, singlet().mat) < 1e-12

    def test_equals_explicit_pauli_sum(self):
        # on random complex states, not only the real Werner family
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = ProbabilityVector(tuple(rng.dirichlet(np.ones(4))))
            rho = random_density(2, 2, rng)
            want = sum(pk * kron(q, q) @ rho.mat @ kron(q, q).conj().T for pk, q in zip(p.p, PAULIS))
            assert frobenius_distance(apply_dilation(correlated_pauli(p), rho).mat, want) < 1e-12

    def test_conjugate_variant_same_action(self):
        # P_k x P_k and P_k x P_k^* generate the identical channel
        rng = np.random.default_rng(2)
        p = ProbabilityVector((0.4, 0.3, 0.2, 0.1))
        ch = correlated_pauli(p)
        ch_conj = build_twirl_dilation(PAULIS, p, conjugate_second=True)
        for _ in range(50):
            rho = random_density(2, 2, rng)
            assert (
                frobenius_distance(apply_dilation(ch, rho).mat, apply_dilation(ch_conj, rho).mat)
                < 1e-12
            )

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            correlated_pauli(ProbabilityVector((0.5, 0.5)))


class TestLocalDepolarizing:
    def test_kraus_set_on_one_qubit(self):
        ch = local_depolarizing(EB_BOUNDARY)
        assert ch.operators.shape == (4, 2, 2)
        for op, pk, pauli in zip(ch.operators, EB_BOUNDARY.p, PAULIS):
            assert np.max(np.abs(op - np.sqrt(pk) * pauli)) == 0.0

    def test_pt_spectrum_closed_form(self):
        ch = local_depolarizing(ProbabilityVector((0.6, 0.4 / 3, 0.4 / 3, 0.4 / 3)))
        out = apply_kraus(ch, max_entangled(2))
        spec = hermitian_eigenvalues(partial_transpose(out))
        assert abs(spec[0] - (0.5 - 0.6)) < 1e-12

    def test_uniform_fully_depolarizes(self):
        rng = np.random.default_rng(3)
        ch = local_depolarizing(UNIFORM)
        for _ in range(20):
            rho = random_density(2, 2, rng)
            out = apply_kraus(ch, rho)
            marginal = partial_trace_multi(rho.mat, [2, 2], keep=[1])
            assert frobenius_distance(out.mat, kron(np.eye(2) / 2, marginal)) < 1e-12
            assert is_product_form(out.mat, (2, 2))

    def test_partial_depolarizing_not_product_form(self):
        # a non-uniform Pauli mixture keeps correlations between the sides
        out = apply_kraus(local_depolarizing(EB_BOUNDARY), werner_qubit(0.9))
        assert not is_product_form(out.mat, (2, 2))


class TestEntanglementBreaking:
    def test_boundary_spectrum(self):
        ppt, spec = is_entanglement_breaking(local_depolarizing(ProbabilityVector((0.5, 0.5, 0, 0))))
        assert ppt
        assert np.allclose(spec, [0, 0, 0.5, 0.5], atol=1e-12)

    def test_not_eb(self):
        ppt, spec = is_entanglement_breaking(
            local_depolarizing(ProbabilityVector((0.6, 0.4 / 3, 0.4 / 3, 0.4 / 3)))
        )
        assert not ppt
        assert abs(spec[0] - (-0.1)) < 1e-12

    def test_identity_not_eb(self):
        ppt, spec = is_entanglement_breaking(local_depolarizing(ProbabilityVector((1, 0, 0, 0))))
        assert not ppt
        assert abs(spec[0] - (-0.5)) < 1e-12

    def test_threshold_200_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = ProbabilityVector(tuple(rng.dirichlet(np.ones(4))))
            ppt, _ = is_entanglement_breaking(local_depolarizing(p))
            assert ppt == (max(p.p) <= 0.5 + 1e-12)


class TestDilation:
    def test_env_state_classical_and_separable_by_construction(self):
        dc = correlated_pauli(ProbabilityVector((0.4, 0.3, 0.2, 0.1)))
        assert env_is_classical(dc.env_state)
        # diagonal of the env state carries exactly the correlated weights
        diag = np.diag(dc.env_state.mat).real
        nonzero = diag[diag > 1e-14]
        assert np.allclose(sorted(nonzero), [0.1, 0.2, 0.3, 0.4])

    def test_control_unitary_is_unitary(self):
        dc = correlated_pauli(UNIFORM)
        u = dc.control_unitary
        assert u.shape == (64, 64)
        assert np.max(np.abs(u @ u.conj().T - np.eye(64))) < 1e-14

    def test_control_unitary_is_stored_environment_first(self):
        # sum_{k,l} |k,l><k,l| x U_k x V_l on E1 x E2 x A x B: block (k, l)
        # of the environment diagonal is U_k x V_l, every other block is zero
        k, da, db = 3, 2, 3
        us = HaarSampler(11, da).sample_batch(k)
        vs = HaarSampler(12, db).sample_batch(k)
        u = DilatedChannel(ProbabilityVector((0.5, 0.3, 0.2)), us, vs).control_unitary
        assert u.shape == (k * k * da * db, k * k * da * db)
        blocks = u.reshape(k, k, da * db, k, k, da * db)
        for e1, e2, f1, f2 in np.ndindex(k, k, k, k):
            block = blocks[e1, e2, :, f1, f2, :]
            if (e1, e2) == (f1, f2):
                assert np.max(np.abs(block - np.kron(us[e1], vs[e2]))) <= 1e-15
            else:
                assert not block.any()

    def test_dense_parts_built_once(self):
        dc = correlated_pauli(UNIFORM)
        assert dc.env_state is dc.env_state
        assert dc.control_unitary is dc.control_unitary
        with pytest.raises(ValueError):
            dc.control_unitary[0, 0] = 0

    def test_identity_probabilities(self):
        dc = correlated_pauli(ProbabilityVector((1, 0, 0, 0)))
        rho = random_density(2, 2, np.random.default_rng(6))
        assert frobenius_distance(apply_dilation(dc, rho).mat, rho.mat) < 1e-12

    def test_agreement_with_kraus_on_matrix_units(self):
        # linear maps that agree on the 16 matrix units are equal; the Kraus
        # sum is written out, and the kernel call is the one apply_dilation runs
        p = ProbabilityVector((0.5, 0.2, 0.2, 0.1))
        dc = correlated_pauli(p)
        for e in np.eye(16).reshape(16, 4, 4):
            want = sum(pk * kron(q, q) @ e @ kron(q, q).conj().T for pk, q in zip(p.p, PAULIS))
            assert frobenius_distance(apply_dilation_dense(dc, e), want) < 1e-11
            kernel = conjugate_sum(e, dc.u_blocks, dc.v_blocks, dc.probabilities.p)
            assert frobenius_distance(kernel, want) < 1e-11

    def test_dense_reference_rejects_wrong_dimensions(self):
        with pytest.raises(ValueError, match="dimensions"):
            apply_dilation_dense(correlated_pauli(UNIFORM), np.eye(8))

    def test_depolarizing_dilation_agreement(self):
        # dilation with V_k = I realizes the one-sided channel
        rng = np.random.default_rng(8)
        p = ProbabilityVector((0.5, 0.2, 0.2, 0.1))
        dc = DilatedChannel(p, PAULIS, np.broadcast_to(np.eye(2), (4, 2, 2)))
        ch = local_depolarizing(p)
        for _ in range(10):
            rho = random_density(2, 2, rng)
            want = apply_kraus(ch, rho).mat
            assert frobenius_distance(apply_dilation(dc, rho).mat, want) < 1e-11
            assert frobenius_distance(apply_dilation_dense(dc, rho.mat), want) < 1e-11

    def test_clifford_twirl_dilation(self):
        # full 24-element design dilation; the Clifford group is a unitary
        # 2-design, so its action is the analytic Haar twirl
        from twirlbreak.twirl import clifford_group_qubit, twirl_exact

        dc = build_twirl_dilation(clifford_group_qubit().unitaries, conjugate_second=False)
        assert dc.env_dim == 24
        rng = np.random.default_rng(9)
        for _ in range(3):
            rho = random_density(2, 2, rng)
            want = twirl_exact(rho, "uu").mat
            assert frobenius_distance(apply_dilation(dc, rho).mat, want) < 1e-11

    def test_rejects_probability_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            DilatedChannel(UNIFORM, PAULIS[:3], PAULIS[:3])

    def test_rejects_non_unitary_control(self):
        with pytest.raises(ValueError, match="non-unitary"):
            DilatedChannel(UNIFORM, PAULIS, np.full((4, 2, 2), 0.5))


class TestEnvIsClassical:
    def test_pauli_env_any_p(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            p = ProbabilityVector(tuple(rng.dirichlet(np.ones(4))))
            assert env_is_classical(correlated_pauli(p).env_state)

    def test_uniform_env(self):
        dc = build_twirl_dilation(list(HaarSampler(11, 2).sample_batch(5)))
        assert env_is_classical(dc.env_state)

    def test_triplet_not_classical(self):
        assert not env_is_classical(max_entangled(2))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_channel_outputs_are_valid_states(seed):
    rng = np.random.default_rng(seed)
    p = ProbabilityVector(tuple(rng.dirichlet(np.ones(4))))
    rho = random_density(2, 2, rng)
    out = apply_dilation(correlated_pauli(p), rho)  # constructor validates
    assert abs(np.trace(out.mat).real - 1.0) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_single_vs_double_transmission(seed):
    # the headline contrast: single breaks, double preserves
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(4))
    m = max(raw)
    t = 1.0 if m <= 0.5 else 0.25 / (m - 0.25)  # shrink toward uniform until max <= 1/2
    p = ProbabilityVector(tuple(t * raw + (1 - t) * 0.25))
    assert max(p.p) <= 0.5 + 1e-12
    gamma = rng.uniform(1 / 3 + 0.05, 1.0)
    rho = werner_qubit(gamma)
    assert negativity(apply_kraus(local_depolarizing(p), rho)) <= 1e-12
    out = apply_dilation(correlated_pauli(p), rho)
    assert abs(negativity(out) - (3 * gamma - 1) / 4) < 1e-10
