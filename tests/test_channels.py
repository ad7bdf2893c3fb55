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
    build_pauli_dilation,
    build_twirl_dilation,
    correlated_pauli,
    env_is_classical,
    is_entanglement_breaking,
    is_product_form,
    local_depolarizing,
    local_depolarizing_kraus,
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
from twirlbreak.states import max_entangled, random_density, singlet, werner_qubit
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

    def test_identity_channel(self):
        ch = KrausChannel((np.eye(4),))
        rho = werner_qubit(0.5)
        assert frobenius_distance(apply_kraus(ch, rho).mat, rho.mat) == 0.0


class TestCorrelatedPauli:
    def test_p1000_is_identity(self):
        ch = correlated_pauli(ProbabilityVector((1, 0, 0, 0)))
        rho = random_density(2, 2, np.random.default_rng(0))
        assert frobenius_distance(apply_kraus(ch, rho).mat, rho.mat) < 1e-14

    def test_werner_fixed_point(self):
        ch = correlated_pauli(ProbabilityVector((0.4, 0.3, 0.2, 0.1)))
        rho = werner_qubit(0.9)
        assert frobenius_distance(apply_kraus(ch, rho).mat, rho.mat) < 1e-12

    def test_singlet_fixed_point_any_p(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = ProbabilityVector(tuple(rng.dirichlet(np.ones(4))))
            out = apply_kraus(correlated_pauli(p), singlet())
            assert frobenius_distance(out.mat, singlet().mat) < 1e-12

    def test_conjugate_variant_same_action(self):
        # P_k x P_k and P_k x P_k^* generate the identical channel
        rng = np.random.default_rng(2)
        p = ProbabilityVector((0.4, 0.3, 0.2, 0.1))
        ch = correlated_pauli(p)
        conj_ops = tuple(
            np.sqrt(pk) * kron(pauli, pauli.conj()) for pk, pauli in zip(p.p, PAULIS)
        )
        ch_conj = KrausChannel(conj_ops)
        for _ in range(50):
            rho = random_density(2, 2, rng)
            assert (
                frobenius_distance(apply_kraus(ch, rho).mat, apply_kraus(ch_conj, rho).mat)
                < 1e-12
            )

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            correlated_pauli(ProbabilityVector((0.5, 0.5)))


class TestLocalDepolarizing:
    def test_pt_spectrum_closed_form(self):
        ch = local_depolarizing(ProbabilityVector((0.6, 0.4 / 3, 0.4 / 3, 0.4 / 3)), "A")
        out = apply_kraus(ch, max_entangled(2))
        spec = hermitian_eigenvalues(partial_transpose(out))
        assert abs(spec[0] - (0.5 - 0.6)) < 1e-12

    def test_uniform_fully_depolarizes(self):
        rng = np.random.default_rng(3)
        ch = local_depolarizing(UNIFORM, "A")
        for _ in range(20):
            rho = random_density(2, 2, rng)
            out = apply_kraus(ch, rho)
            marginal = partial_trace_multi(rho.mat, [2, 2], keep=[1])
            assert frobenius_distance(out.mat, kron(np.eye(2) / 2, marginal)) < 1e-12
            assert is_product_form(out.mat, (2, 2))

    def test_partial_depolarizing_not_product_form(self):
        # a non-uniform Pauli mixture keeps correlations between the sides
        out = apply_kraus(local_depolarizing(EB_BOUNDARY, "A"), werner_qubit(0.9))
        assert not is_product_form(out.mat, (2, 2))

    def test_side_b(self):
        ch = local_depolarizing(UNIFORM, "B")
        rho = random_density(2, 2, np.random.default_rng(4))
        out = apply_kraus(ch, rho)
        marginal = partial_trace_multi(rho.mat, [2, 2], keep=[0])
        assert frobenius_distance(out.mat, kron(marginal, np.eye(2) / 2)) < 1e-12

    @pytest.mark.parametrize("side", ["a", "C"])
    def test_invalid_side_raises(self, side):
        with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
            local_depolarizing_kraus(np.array([UNIFORM.p]), side)


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

    def test_rejects_correlated_channel(self):
        with pytest.raises(ValueError, match="E x I"):
            is_entanglement_breaking(correlated_pauli(UNIFORM))


class TestDilation:
    def test_env_state_classical_and_separable_by_construction(self):
        dc = build_pauli_dilation(ProbabilityVector((0.4, 0.3, 0.2, 0.1)))
        assert env_is_classical(dc.env_state)
        # diagonal of the env state carries exactly the correlated weights
        diag = np.diag(dc.env_state.mat).real
        nonzero = diag[diag > 1e-14]
        assert np.allclose(sorted(nonzero), [0.1, 0.2, 0.3, 0.4])

    def test_control_unitary_is_unitary(self):
        dc = build_pauli_dilation(UNIFORM)
        u = dc.control_unitary
        assert u.shape == (64, 64)
        assert np.max(np.abs(u @ u.conj().T - np.eye(64))) < 1e-14

    def test_dense_parts_built_once(self):
        dc = build_pauli_dilation(UNIFORM)
        assert dc.env_state is dc.env_state
        assert dc.control_unitary is dc.control_unitary
        with pytest.raises(ValueError):
            dc.control_unitary[0, 0] = 0

    def test_identity_probabilities(self):
        dc = build_pauli_dilation(ProbabilityVector((1, 0, 0, 0)))
        rho = random_density(2, 2, np.random.default_rng(6))
        assert frobenius_distance(apply_dilation(dc, rho).mat, rho.mat) < 1e-12

    def test_agreement_with_kraus_on_matrix_units(self):
        # linear maps that agree on the 16 matrix units are equal; the Kraus
        # sum is written out, and the kernel call is the one apply_dilation runs
        p = ProbabilityVector((0.5, 0.2, 0.2, 0.1))
        dc = build_pauli_dilation(p)
        ch = correlated_pauli(p)
        for e in np.eye(16).reshape(16, 4, 4):
            want = sum(k @ e @ k.conj().T for k in ch.operators)
            assert frobenius_distance(apply_dilation_dense(dc, e), want) < 1e-11
            kernel = conjugate_sum(e, dc.u_blocks, dc.v_blocks, dc.probabilities.p)
            assert frobenius_distance(kernel, want) < 1e-11

    def test_dense_reference_rejects_wrong_dimensions(self):
        with pytest.raises(ValueError, match="dimensions"):
            apply_dilation_dense(build_pauli_dilation(UNIFORM), np.eye(8))

    def test_depolarizing_dilation_agreement(self):
        # dilation with V_k = I realizes the one-sided channel
        rng = np.random.default_rng(8)
        p = ProbabilityVector((0.5, 0.2, 0.2, 0.1))
        dc = DilatedChannel(p, PAULIS, np.broadcast_to(np.eye(2), (4, 2, 2)))
        ch = local_depolarizing(p, "A")
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
            assert env_is_classical(build_pauli_dilation(p).env_state)

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
    out = apply_kraus(correlated_pauli(p), rho)  # constructor validates
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
    assert negativity(apply_kraus(local_depolarizing(p, "A"), rho)) <= 1e-12
    out = apply_kraus(correlated_pauli(p), rho)
    assert abs(negativity(out) - (3 * gamma - 1) / 4) < 1e-10
