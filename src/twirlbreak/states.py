"""Named bipartite state families and their entanglement thresholds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityOperator


@dataclass(frozen=True)
class WernerParamQubit:
    gamma: float

    def __post_init__(self):
        if not -1.0 / 3.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma={self.gamma} outside [-1/3, 1]")


@dataclass(frozen=True)
class WernerParamMulti:
    d: int
    mu: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if not -1.0 <= self.mu <= 1.0:
            raise ValueError(f"mu={self.mu} outside [-1, 1]")


@dataclass(frozen=True)
class IsotropicParam:
    d: int
    gamma: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        lo = -1.0 / (self.d**2 - 1)
        if not lo <= self.gamma <= 1.0:
            raise ValueError(f"gamma={self.gamma} outside [{lo}, 1]")


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


def werner_qubit(p: WernerParamQubit | float) -> DensityOperator:
    """Qubit Werner state (1-gamma) I/4 + gamma |-><-|."""
    if not isinstance(p, WernerParamQubit):
        p = WernerParamQubit(float(p))
    m = (1 - p.gamma) * np.eye(4) / 4 + p.gamma * singlet().mat
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


def werner_multi(p: WernerParamMulti) -> DensityOperator:
    """d x d Werner state (I + mu V) / (d^2 + d mu)."""
    d, mu = p.d, p.mu
    m = (np.eye(d * d) + mu * flip_operator(d)) / (d * d + d * mu)
    return DensityOperator(m, d, d)


def isotropic(p: IsotropicParam) -> DensityOperator:
    """Isotropic state (1-gamma) I/d^2 + gamma |psi><psi|."""
    d, g = p.d, p.gamma
    m = (1 - g) * np.eye(d * d) / (d * d) + g * max_entangled_mat(d)
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
