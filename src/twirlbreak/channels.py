"""CPTP maps as Kraus collections, their unitary dilations with explicit
classical environments, and the entanglement-breaking decision procedure."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DensityOperator,
    as_unitary_stack,
    conjugate_sum,
    hermitian_eigenvalues,
    kron,
    partial_trace_multi,
    partial_transpose_mat,
    permute_subsystems,
)
from .states import max_entangled
from .twirl import partial_twirl_exact_mat

COMPLETENESS_TOL = 1e-10

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),            # X
    np.array([[0, -1j], [1j, 0]], dtype=complex),         # Y
    np.array([[1, 0], [0, -1]], dtype=complex),           # Z
)


@dataclass(frozen=True)
class ProbabilityVector:
    p: tuple

    def __post_init__(self):
        p = tuple(float(x) for x in self.p)
        object.__setattr__(self, "p", p)
        if any(x < 0 for x in p):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(p) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(p)}, not 1")

    def __len__(self):
        return len(self.p)

    def __getitem__(self, k):
        return self.p[k]


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map as a (K, d, d) stack of Kraus operators (weights folded in as sqrt(p) U)."""

    operators: np.ndarray

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError("need a non-empty stack of same-shape square Kraus operators")
        object.__setattr__(self, "operators", ops)
        s = np.einsum("kba,kbc->ac", ops.conj(), ops)
        residual = np.max(np.abs(s - np.eye(ops.shape[1])))
        if residual > COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated, residual {residual:.3e}")

    @property
    def dim(self) -> int:
        return self.operators.shape[1]


def _controlled(blocks: np.ndarray) -> np.ndarray:
    """sum_k |k><k| x U_k from the (K, d, d) stack of blocks U_k."""
    k, d, _ = blocks.shape
    return np.einsum("ij,iab->iajb", np.eye(k), blocks).reshape(k * d, k * d)


@dataclass(frozen=True)
class DilatedChannel:
    """Unitary dilation with a classical correlated environment.

    The environment is sum_k p_k |k,k><k,k| on E1 x E2 and the controls are
    sum_k |k><k| x U_k on E1 x A and sum_k |k><k| x V_k on E2 x B.  Only p
    and the K blocks U_k, V_k are stored, so the environment is diagonal
    (classical) by construction; tracing it out leaves
    sum_k p_k (U_k x V_k) rho (U_k x V_k)^dag.
    """

    probabilities: ProbabilityVector
    u_blocks: np.ndarray            # (K, d_A, d_A)
    v_blocks: np.ndarray            # (K, d_B, d_B)

    def __post_init__(self):
        object.__setattr__(self, "u_blocks", as_unitary_stack(self.u_blocks))
        object.__setattr__(self, "v_blocks", as_unitary_stack(self.v_blocks))
        if not len(self.probabilities) == len(self.u_blocks) == len(self.v_blocks):
            raise ValueError("probability vector length must match the control block count")

    @property
    def env_dim(self) -> int:
        return len(self.probabilities)

    @property
    def system_dims(self) -> tuple:
        return (self.u_blocks.shape[1], self.v_blocks.shape[1])

    # built on first use and kept: the dense reference reads both on every call
    @cached_property
    def env_state(self) -> DensityOperator:
        """The classical environment state on E1 x E2 (K^2 x K^2, diagonal)."""
        k = self.env_dim
        # p_k on |k,k>, the (k * K + k)-th basis vector
        return DensityOperator(np.diag(np.diag(self.probabilities.p).ravel()), k, k)

    @cached_property
    def control_unitary(self) -> np.ndarray:
        """The dense control unitary on E1 x A x E2 x B (read-only)."""
        u = kron(_controlled(self.u_blocks), _controlled(self.v_blocks))
        u.flags.writeable = False
        return u


def apply_kraus(ch: KrausChannel, rho: DensityOperator) -> DensityOperator:
    if ch.dim != rho.dim:
        raise ValueError(f"channel dim {ch.dim} != state dim {rho.dim}")
    out = conjugate_sum(rho.mat, ch.operators, np.ones((1, 1, 1)), 1.0)
    return DensityOperator(out, rho.dim_a, rho.dim_b)


def correlated_pauli(p: ProbabilityVector) -> KrausChannel:
    """Two-qubit correlated Pauli channel: Kraus set {sqrt(p_k) P_k x P_k}."""
    if len(p) != 4:
        raise ValueError("correlated Pauli channel needs 4 probabilities")
    ops = tuple(np.sqrt(pk) * kron(pauli, pauli) for pk, pauli in zip(p.p, PAULIS))
    return KrausChannel(ops)


def local_depolarizing(p: ProbabilityVector, side: str = "A") -> KrausChannel:
    """Pauli mixture applied to one qubit of a two-qubit system."""
    if len(p) != 4:
        raise ValueError("depolarizing channel needs 4 probabilities")
    eye = np.eye(2)
    if side == "A":
        ops = tuple(np.sqrt(pk) * kron(pauli, eye) for pk, pauli in zip(p.p, PAULIS))
    elif side == "B":
        ops = tuple(np.sqrt(pk) * kron(eye, pauli) for pk, pauli in zip(p.p, PAULIS))
    else:
        raise ValueError("side must be 'A' or 'B'")
    return KrausChannel(ops)


def is_entanglement_breaking(ch: KrausChannel, tol: float = 1e-10):
    """Choi test: apply the channel (of E x I form, acting on side A of a
    d x d space) to the maximally entangled state and check PPT.

    Returns (ppt_verdict, witness_spectrum).  For d = 2 the PPT verdict
    decides entanglement breaking exactly; for d >= 3 it is only the
    necessary PPT/NPT statement.
    """
    d = int(round(np.sqrt(ch.dim)))
    if d * d != ch.dim:
        raise ValueError("channel dimension is not a perfect square")
    # each Kraus operator must equal K_A x I, rebuilt from its side-A block
    side_a = ch.operators.reshape(-1, d, d, d, d)[:, :, 0, :, 0]
    lifted = np.einsum("kac,bd->kabcd", side_a, np.eye(d)).reshape(ch.operators.shape)
    if np.max(np.abs(ch.operators - lifted)) > 1e-10:
        raise ValueError("channel is not of the form E x I on side A")
    out = apply_kraus(ch, max_entangled(d))
    spec = hermitian_eigenvalues(partial_transpose_mat(out.mat, d, d))
    return bool(spec[0] >= -tol), spec


def is_product_form(rho: DensityOperator, tol: float = 1e-12) -> bool:
    """Structural separability certificate: rho == I/d_A x Tr_A(rho)."""
    target = partial_twirl_exact_mat(rho.mat, (rho.dim_a, rho.dim_b), "A")
    return float(np.max(np.abs(rho.mat - target))) <= tol


def build_twirl_dilation(unitaries, probabilities=None, conjugate_second=False) -> DilatedChannel:
    """Dilation of sum_k p_k (U_k x V_k) rho (U_k x V_k)^dag with a classical
    correlated environment; V_k = U_k or U_k^* (conjugate_second)."""
    us = np.asarray(unitaries, dtype=complex)
    if probabilities is None:
        probabilities = np.full(len(us), 1.0 / len(us))
    if not isinstance(probabilities, ProbabilityVector):
        probabilities = ProbabilityVector(tuple(probabilities))
    return DilatedChannel(probabilities, us, us.conj() if conjugate_second else us)


def build_pauli_dilation(p: ProbabilityVector) -> DilatedChannel:
    """Unitary dilation of the correlated Pauli channel (K = 4 per side)."""
    if len(p) != 4:
        raise ValueError("need 4 probabilities")
    return build_twirl_dilation(PAULIS, probabilities=p)


def apply_dilation(dc: DilatedChannel, rho: DensityOperator) -> DensityOperator:
    """The dilation's action with the classical environment traced out."""
    if (rho.dim_a, rho.dim_b) != dc.system_dims:
        raise ValueError("state dimensions do not match the dilation")
    out = conjugate_sum(rho.mat, dc.u_blocks, dc.v_blocks, dc.probabilities.p)
    return DensityOperator(out, rho.dim_a, rho.dim_b)


def apply_dilation_dense(dc: DilatedChannel, rho: DensityOperator) -> DensityOperator:
    """Reference for apply_dilation at small K: embed rho with the environment,
    conjugate by the dense control unitary, trace out the environment."""
    da, db = dc.system_dims
    if (rho.dim_a, rho.dim_b) != (da, db):
        raise ValueError("state dimensions do not match the dilation")
    k = dc.env_dim
    u = dc.control_unitary
    # env x rho lives on (E1, E2, A, B); reorder to (E1, A, E2, B)
    total = kron(dc.env_state.mat, rho.mat)
    total = permute_subsystems(total, [k, k, da, db], [0, 2, 1, 3])
    total = u @ total @ u.conj().T
    out = partial_trace_multi(total, [k, da, k, db], keep=[1, 3])
    return DensityOperator(out, da, db)


def env_is_classical(state: DensityOperator, tol: float = 1e-12) -> bool:
    """True iff the state is diagonal in the computational product basis.

    Sufficient certificate for zero discord; not a general discord measure.
    """
    m = state.mat
    return float(np.max(np.abs(m - np.diag(np.diag(m))))) <= tol
