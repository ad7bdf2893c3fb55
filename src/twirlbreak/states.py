"""Named bipartite state families and their entanglement thresholds."""

from __future__ import annotations

import numpy as np

from .linalg import DensityOperator


def singlet() -> DensityOperator:
    """Projector onto (|01> - |10>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / np.sqrt(2)
    v[2] = -1 / np.sqrt(2)
    return DensityOperator(np.outer(v, v.conj()), 2, 2)


def max_entangled(d: int) -> DensityOperator:
    """Projector onto d^{-1/2} sum_k |k>|k>."""
    return DensityOperator(max_entangled_mat(d), d, d)


def max_entangled_mat(d: int) -> np.ndarray:
    """The matrix of max_entangled(d), built without validation: its d^2
    nonzero entries sit on the rows and columns (k, k)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    amp = 1 / np.sqrt(d)
    m = np.zeros((d * d, d * d), dtype=complex)
    m[:: d + 1, :: d + 1] = amp * amp
    return m


def werner_qubit(gamma: float) -> DensityOperator:
    """Qubit Werner state (1-gamma) I/4 + gamma |-><-|, gamma in [-1/3, 1]."""
    if not -1.0 / 3.0 <= gamma <= 1.0:
        raise ValueError(f"gamma={gamma} outside [-1/3, 1]")
    m = (1 - gamma) * np.eye(4) / 4 + gamma * singlet().mat
    return DensityOperator(m, 2, 2)


def flip_operator(d: int) -> np.ndarray:
    """Swap operator V|phi>|psi> = |psi>|phi> on two d-dimensional systems."""
    if d < 2:
        raise ValueError("d must be >= 2")
    v = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            v[j * d + i, i * d + j] = 1.0
    return v


def werner_multi(d: int, mu: float) -> DensityOperator:
    """d x d Werner state (I + mu V) / (d^2 + d mu), mu in [-1, 1]."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if not -1.0 <= mu <= 1.0:
        raise ValueError(f"mu={mu} outside [-1, 1]")
    m = (np.eye(d * d) + mu * flip_operator(d)) / (d * d + d * mu)
    return DensityOperator(m, d, d)


def isotropic(d: int, gamma: float) -> DensityOperator:
    """Isotropic state (1-gamma) I/d^2 + gamma |psi><psi|, gamma in
    [-1/(d^2-1), 1]."""
    if d < 2:
        raise ValueError("d must be >= 2")
    lo = -1.0 / (d**2 - 1)
    if not lo <= gamma <= 1.0:
        raise ValueError(f"gamma={gamma} outside [{lo}, 1]")
    m = (1 - gamma) * np.eye(d * d) / (d * d) + gamma * max_entangled_mat(d)
    return DensityOperator(m, d, d)


# Entanglement-threshold predicates, kept separate from the numerics so
# tests can compare prediction vs computed negativity.

def werner_qubit_entangled(gamma: float) -> bool:
    return gamma > 1.0 / 3.0


def werner_multi_entangled(d: int, mu: float) -> bool:
    return mu < -1.0 / d


def isotropic_entangled(d: int, gamma: float) -> bool:
    return gamma > 1.0 / (1 + d)


def random_density(d_a: int, d_b: int, rng: np.random.Generator) -> DensityOperator:
    """Random full-rank density matrix (Ginibre construction)."""
    d = d_a * d_b
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, d_a, d_b)


def random_pure(d_a: int, d_b: int, rng: np.random.Generator) -> DensityOperator:
    v = rng.standard_normal(d_a * d_b) + 1j * rng.standard_normal(d_a * d_b)
    v /= np.linalg.norm(v)
    return DensityOperator(np.outer(v, v.conj()), d_a, d_b)
