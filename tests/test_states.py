import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twirlbreak.linalg import frobenius_distance, kron, negativity
from twirlbreak.states import (
    flip_operator,
    isotropic,
    isotropic_entangled,
    max_entangled,
    random_density,
    singlet,
    werner_multi,
    werner_multi_entangled,
    werner_qubit,
    werner_qubit_entangled,
)
from twirlbreak.twirl import HaarSampler


def conj_pair(u, rho, star=False):
    w = kron(u, u.conj() if star else u)
    return w @ rho @ w.conj().T


class TestSinglet:
    def test_trace(self):
        assert abs(np.trace(singlet().mat) - 1.0) < 1e-14

    def test_negativity(self):
        assert abs(negativity(singlet()) - 0.5) < 1e-12

    def test_uu_invariance(self):
        s = HaarSampler(1, 2)
        rho = singlet().mat
        for u in s.sample_batch(100):
            assert frobenius_distance(conj_pair(u, rho), rho) < 1e-12


class TestTriplet:
    """(|00> + |11>)/sqrt(2), the d = 2 maximally entangled state."""

    def test_negativity(self):
        assert abs(negativity(max_entangled(2)) - 0.5) < 1e-12

    def test_uustar_invariance(self):
        s = HaarSampler(2, 2)
        rho = max_entangled(2).mat
        for u in s.sample_batch(50):
            assert frobenius_distance(conj_pair(u, rho, star=True), rho) < 1e-12


class TestMaxEntangled:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_marginal_and_purity(self, d):
        rho = max_entangled(d)
        assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) < 1e-12

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            max_entangled(1)


class TestWernerQubit:
    def test_gamma_zero_is_mixed(self):
        assert np.allclose(werner_qubit(0.0).mat, np.eye(4) / 4)

    def test_gamma_one_is_singlet(self):
        assert frobenius_distance(werner_qubit(1.0).mat, singlet().mat) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"outside \[-1/3, 1\]"):
            werner_qubit(-0.5)
        with pytest.raises(ValueError, match=r"outside \[-1/3, 1\]"):
            werner_qubit(1.1)

    @pytest.mark.parametrize("gamma", [-1 / 3, 1.0])
    def test_range_ends_accepted(self, gamma):
        assert werner_qubit(gamma).dim_a == 2

    @pytest.mark.parametrize("gamma", [np.nextafter(-1 / 3, -np.inf), np.nextafter(1.0, np.inf)])
    def test_just_outside_range_rejected(self, gamma):
        with pytest.raises(ValueError, match=re.escape(f"gamma={gamma} outside [-1/3, 1]")):
            werner_qubit(gamma)

    def test_entanglement_threshold(self):
        for gamma in np.linspace(-1 / 3, 1, 50):
            entangled = negativity(werner_qubit(gamma)) > 1e-12
            assert entangled == werner_qubit_entangled(gamma)

    def test_negativity_closed_form(self):
        for gamma in np.linspace(-1 / 3, 1, 50):
            assert abs(negativity(werner_qubit(gamma)) - max(0.0, (3 * gamma - 1) / 4)) < 1e-12

    def test_uu_invariance_100_samples(self):
        s = HaarSampler(3, 2)
        rho = werner_qubit(0.7).mat
        for u in s.sample_batch(100):
            assert frobenius_distance(conj_pair(u, rho), rho) < 1e-12


class TestFlipOperator:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_swap_action_and_involution(self, d):
        v = flip_operator(d)
        assert np.allclose(v @ v, np.eye(d * d))
        assert np.allclose(v, v.conj().T)
        assert abs(np.trace(v).real - d) < 1e-12

    def test_swap_basis_d2(self):
        v = flip_operator(2)
        e01 = np.zeros(4)
        e01[1] = 1.0
        e10 = np.zeros(4)
        e10[2] = 1.0
        assert np.allclose(v @ e01, e10)


class TestWernerMulti:
    def test_mu_zero(self):
        assert np.allclose(werner_multi(3, 0.0).mat, np.eye(9) / 9)

    def test_qubit_reduction(self):
        for mu in (-1.0, -0.5, 0.3, 1.0):
            gamma = -mu / (2 + mu)
            a = werner_multi(2, mu).mat
            b = werner_qubit(gamma).mat
            assert frobenius_distance(a, b) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_entanglement_threshold(self, d):
        for mu in np.linspace(-1, 1, 21):
            entangled = negativity(werner_multi(d, mu)) > 1e-10
            assert entangled == werner_multi_entangled(d, mu)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=re.escape("mu=-1.2 outside [-1, 1]")):
            werner_multi(3, -1.2)

    @pytest.mark.parametrize("mu", [-1.0, 1.0])
    def test_range_ends_accepted(self, mu):
        assert werner_multi(3, mu).dim_a == 3

    @pytest.mark.parametrize("mu", [np.nextafter(-1.0, -np.inf), np.nextafter(1.0, np.inf)])
    def test_just_outside_range_rejected(self, mu):
        with pytest.raises(ValueError, match=re.escape(f"mu={mu} outside [-1, 1]")):
            werner_multi(3, mu)

    def test_d1_rejected(self):
        with pytest.raises(ValueError, match="d must be >= 2"):
            werner_multi(1, 0.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_uu_invariance(self, d):
        s = HaarSampler(4, d)
        rho = werner_multi(d, -0.8).mat
        for u in s.sample_batch(20):
            assert frobenius_distance(conj_pair(u, rho), rho) < 1e-12


class TestIsotropic:
    def test_gamma_zero_and_one(self):
        assert np.allclose(isotropic(3, 0.0).mat, np.eye(9) / 9)
        assert frobenius_distance(isotropic(3, 1.0).mat, max_entangled(3).mat) < 1e-15

    def test_d3_threshold(self):
        for gamma in np.linspace(-1 / 8, 1, 30):
            entangled = negativity(isotropic(3, gamma)) > 1e-10
            assert entangled == isotropic_entangled(3, gamma)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=re.escape(f"gamma=-0.2 outside [{-1 / 8}, 1]")):
            isotropic(3, -0.2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_range_ends_accepted(self, d):
        for gamma in (-1 / (d * d - 1), 1.0):
            assert isotropic(d, gamma).dim_a == d

    @pytest.mark.parametrize("d", [2, 3])
    def test_just_outside_range_rejected(self, d):
        lo = -1 / (d * d - 1)
        for gamma in (np.nextafter(lo, -np.inf), np.nextafter(1.0, np.inf)):
            with pytest.raises(ValueError, match=re.escape(f"gamma={gamma} outside [{lo}, 1]")):
                isotropic(d, gamma)

    def test_d1_rejected(self):
        with pytest.raises(ValueError, match="d must be >= 2"):
            isotropic(1, 0.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_uustar_invariance(self, d):
        s = HaarSampler(5, d)
        rho = isotropic(d, 0.8).mat
        for u in s.sample_batch(20):
            assert frobenius_distance(conj_pair(u, rho, star=True), rho) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_flip_swap_trace_identity(seed):
    rng = np.random.default_rng(seed)
    rho_a = random_density(3, 1, rng).mat
    rho_b = random_density(3, 1, rng).mat
    v = flip_operator(3)
    lhs = np.trace(v @ kron(rho_a, rho_b))
    rhs = np.trace(rho_a @ rho_b)
    assert abs(lhs - rhs) < 1e-12
