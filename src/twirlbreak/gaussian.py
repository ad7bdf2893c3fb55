"""Two-mode Gaussian states at covariance-matrix level, phase-rotation
twirling, invariant-family solvers, and the truncated-Fock uniform-dephasing
channel.

Quadrature ordering is (x_A, p_A, x_B, p_B); the vacuum CM is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityOperator, hermitian_eigenvalues, partial_transpose_mat

BONA_FIDE_TOL = 1e-10

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.kron(np.eye(2), _OMEGA_1)  # omega + omega, one per mode


def _is_bona_fide(m: np.ndarray) -> np.ndarray:
    """V + i Omega >= 0, to BONA_FIDE_TOL, for each CM of a (..., 4, 4) stack."""
    return np.linalg.eigvalsh(m + 1j * OMEGA)[..., 0] >= -BONA_FIDE_TOL


@dataclass(frozen=True)
class CovarianceMatrix:
    """4x4 real symmetric CM of a two-mode Gaussian state."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        object.__setattr__(self, "m", m)
        if m.shape != (4, 4):
            raise ValueError("covariance matrix must be 4x4")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise ValueError("covariance matrix must be symmetric")
        if not _is_bona_fide(m):
            raise ValueError("matrix violates the bona-fide condition V + i Omega >= 0")


@dataclass(frozen=True)
class QuasiNormalParams:
    """Parameters of the rotation-invariant quasi-normal CM form."""

    alpha: float
    beta: float
    omega: float
    phi: float

    def __post_init__(self):
        if self.alpha < 1 or self.beta < 1:
            raise ValueError("alpha and beta must be >= 1")


def rotation_matrix(theta) -> np.ndarray:
    """[[cos, sin], [-sin, cos]]; a (..., 2, 2) stack for an array of angles."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)


def _rotation_pair(theta_a, theta_b) -> np.ndarray:
    """R(theta_a) + R(theta_b) (direct sum), stacked over the broadcast angles."""
    r_a, r_b = rotation_matrix(theta_a), rotation_matrix(theta_b)
    s = np.zeros(np.broadcast_shapes(r_a.shape, r_b.shape)[:-2] + (4, 4))
    s[..., :2, :2] = r_a
    s[..., 2:, 2:] = r_b
    return s


def rotation_residual(v: CovarianceMatrix, angles, sign: float) -> float:
    """Largest entry of |S V S^T - V| over S = R(theta) + R(sign theta),
    theta in angles: 0 when V is fixed by correlated (sign 1) or
    anti-correlated (sign -1) phase rotations."""
    s = _rotation_pair(angles, sign * np.asarray(angles))
    return float(np.max(np.abs(s @ v.m @ s.swapaxes(-1, -2) - v.m)))


def epr_cm(mu: float) -> CovarianceMatrix:
    """CM of a two-mode squeezed vacuum (EPR) state."""
    if mu < 1:
        raise ValueError("mu must be >= 1")
    z = np.diag([1.0, -1.0])
    c = np.sqrt(mu * mu - 1.0)
    m = np.block([[mu * np.eye(2), c * z], [c * z, mu * np.eye(2)]])
    return CovarianceMatrix(m)


def _quasi_normal_stack(alpha, beta, omega, phi) -> np.ndarray:
    """(..., 4, 4) stack of quasi-normal matrices over the broadcast parameters."""
    a, b, w, f = np.broadcast_arrays(alpha, beta, omega, phi)
    z = np.zeros(a.shape)
    rows = ((a, z, w, f), (z, a, -f, w), (w, -f, b, z), (f, w, z, b))
    return np.stack([np.stack(row, -1) for row in rows], -2)


def quasi_normal_cm(p: QuasiNormalParams) -> CovarianceMatrix:
    """Blocks A = alpha I, B = beta I, C = [[omega, phi], [-phi, omega]]."""
    return CovarianceMatrix(_quasi_normal_stack(p.alpha, p.beta, p.omega, p.phi))


def _symplectic_pair(m: np.ndarray, sign: float):
    """(nu_-, nu_+) of each CM in a (..., 4, 4) stack, in closed form (Serafini,
    Illuminati & De Siena, J. Phys. B 37, L21, 2004): nu_-+^2 = (Delta -+
    sqrt(Delta^2 - 4 det V)) / 2, Delta = det A + det B + 2 sign det C, where
    sign = -1 is the partial transpose.  The discriminant is computed as the
    equal invariant (det A - det B)^2 + 4 sign det(A w C + sign C w B), exactly
    0 for vacuum and EPR states; nu_-^2 = det V / nu_+^2 avoids cancellation."""
    a, b, c = m[..., :2, :2], m[..., 2:, 2:], m[..., :2, 2:]
    x = np.stack([a, b, c, a @ _OMEGA_1 @ c + sign * c @ _OMEGA_1 @ b])
    # explicit 2x2 determinants: exact where LU is not, e.g. det(mu I) = mu^2
    det_a, det_b, det_c, det_w = x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]
    delta = det_a + det_b + 2 * sign * det_c
    disc = (det_a - det_b) ** 2 + 4 * sign * det_w
    nu_plus_sq = (delta + np.sqrt(np.maximum(disc, 0.0))) / 2
    return np.sqrt(np.linalg.det(m) / nu_plus_sq), np.sqrt(nu_plus_sq)


def symplectic_eigenvalues(v: CovarianceMatrix):
    """The two symplectic eigenvalues (moduli of eigenvalues of i Omega V)."""
    return tuple(float(nu) for nu in _symplectic_pair(v.m, 1.0))


def pt_symplectic_eigenvalues(v: CovarianceMatrix):
    """Symplectic eigenvalues of the partially transposed CM."""
    return tuple(float(nu) for nu in _symplectic_pair(v.m, -1.0))


def is_separable_two_mode(v: CovarianceMatrix, tol: float = BONA_FIDE_TOL) -> bool:
    """PPT at CM level; conclusive for 1x1-mode Gaussian states."""
    return pt_symplectic_eigenvalues(v)[0] >= 1.0 - tol


# -- invariant-family solver ---------------------------------------------------

# generic angles, incommensurate with pi, to avoid accidental extra null space
_SOLVER_ANGLES = np.array([0.37, 0.91, 1.43, 2.02, 2.68, 3.31, 4.17, 5.06])

_TRIU = np.triu_indices(4)  # the 10 free entries of a symmetric 4x4 matrix


def _from_params(x: np.ndarray) -> np.ndarray:
    """(..., 10) free entries -> (..., 4, 4) symmetric matrices."""
    m = np.zeros(x.shape[:-1] + (4, 4))
    m[..., _TRIU[0], _TRIU[1]] = x
    m[..., _TRIU[1], _TRIU[0]] = x
    return m


@dataclass(frozen=True)
class InvariantFamily:
    """Null-space description of the CMs fixed by a family of rotations."""

    mode: str               # "correlated" | "anticorrelated"
    basis: tuple            # symmetric 4x4 matrices spanning the family
    dimension: int
    projector: np.ndarray   # orthogonal projector onto the span, on the 10 free entries

    def residual(self, m: np.ndarray):
        """Distance of a symmetric matrix from the family's span; an array of
        distances for a (..., 4, 4) stack."""
        x = np.asarray(m)[..., _TRIU[0], _TRIU[1]]
        r = np.linalg.norm(x - x @ self.projector, axis=-1)
        return float(r) if r.ndim == 0 else r


def solve_invariant_cm(mode: str) -> InvariantFamily:
    """Solve (R_theta + R_theta') V (R_theta + R_theta')^T = V over an angle
    grid as a linear fixed-point system in the 10 independent CM entries."""
    if mode not in ("correlated", "anticorrelated"):
        raise ValueError("mode must be 'correlated' or 'anticorrelated'")
    sign = 1.0 if mode == "correlated" else -1.0
    s = _rotation_pair(_SOLVER_ANGLES, sign * _SOLVER_ANGLES)[:, None]  # (angles, 1, 4, 4)
    e = _from_params(np.eye(10))  # the 10 unit symmetric matrices
    r = (s @ e @ s.swapaxes(-1, -2) - e)[..., _TRIU[0], _TRIU[1]]  # (angles, unit, entry)
    # one row per (angle, entry), one column per unit matrix
    _, sv, vt = np.linalg.svd(r.swapaxes(1, 2).reshape(-1, 10))
    null = vt[sv < 1e-10]
    return InvariantFamily(mode, tuple(_from_params(null)), len(null), null.T @ null)


def quasi_normal_sweep(family: InvariantFamily, n_per_axis: int) -> tuple[int, float, float]:
    """Quasi-normal CMs on the grid alpha, beta in [1, 3], omega, phi in
    [-1.5, 1.5] (n_per_axis points per axis).  Returns, over the bona-fide
    points: their count, their worst residual from `family`, and their least
    partially transposed symplectic eigenvalue (>= 1 iff all are separable)."""
    diag = np.linspace(1.0, 3.0, n_per_axis)
    coupling = np.linspace(-1.5, 1.5, n_per_axis)
    m = _quasi_normal_stack(*np.meshgrid(diag, diag, coupling, coupling, indexing="ij", sparse=True))
    m = m[_is_bona_fide(m)]
    nu_min, _ = _symplectic_pair(m, -1.0)
    return len(m), float(np.max(family.residual(m), initial=0.0)), float(np.min(nu_min, initial=np.inf))


# -- truncated-Fock uniform dephasing ------------------------------------------

@dataclass(frozen=True)
class TruncatedFockState:
    """Two-mode state in the Fock basis with cutoff N per mode."""

    rho: DensityOperator

    def __post_init__(self):
        if self.rho.dim_a != self.rho.dim_b:
            raise ValueError("both modes must share the Fock cutoff")

    @property
    def cutoff(self) -> int:
        return self.rho.dim_a


def truncated_tmsv(lam: float, n: int, tail_tol: float = 1e-3) -> TruncatedFockState:
    """Two-mode squeezed vacuum with Schmidt coefficients ~ lam^k, truncated
    at cutoff n.  Rejects truncations that lose more than tail_tol of mass."""
    if not 0 <= lam < 1:
        raise ValueError("lam must be in [0, 1)")
    amps = lam ** np.arange(n)
    norm_full = 1.0 / (1.0 - lam * lam)
    kept = float(np.sum(amps * amps))
    if kept / norm_full < 1.0 - tail_tol:
        raise ValueError("Fock cutoff too small for requested tail mass")
    amps = amps / np.sqrt(kept)
    vec = np.zeros(n * n, dtype=complex)
    vec[:: n + 1] = amps
    return TruncatedFockState(DensityOperator(np.outer(vec, vec.conj()), n, n))


def dephase_truncated(state: TruncatedFockState, side: str = "A") -> TruncatedFockState:
    """Uniform phase-rotation average: zeroes every element with k != k' on
    the dephased side (the closed-form theta integral); trace preserving."""
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    n = state.cutoff
    same = np.eye(n, dtype=bool)  # k == k'
    mask = same[:, None, :, None] if side == "A" else same[None, :, None, :]
    t = np.where(mask, state.rho.mat.reshape(n, n, n, n), 0.0)
    return TruncatedFockState(DensityOperator(t.reshape(n * n, n * n), n, n))


def separable_decomposition_dephased(state: TruncatedFockState):
    """Explicit separable decomposition of the side-A dephased output of a
    pure input: components (d_k, |k>, |xi(k)>) with d_k = sum_j |c_kj|^2."""
    rho = state.rho
    purity = float(np.trace(rho.mat @ rho.mat).real)
    if purity < 1.0 - 1e-10:
        raise ValueError("input must be pure; spectrally decompose mixed states first")
    c = np.linalg.eigh(rho.mat)[1][:, -1].reshape(state.cutoff, state.cutoff)
    weights = np.sum(np.abs(c) ** 2, axis=1)
    kets = np.eye(state.cutoff, dtype=complex)
    return [(float(weights[k]), kets[k], c[k] / np.sqrt(weights[k])) for k in np.flatnonzero(weights > 1e-14)]


def reconstruct_decomposition(components, n: int) -> np.ndarray:
    """sum_k d_k |k><k| x |xi(k)><xi(k)|."""
    return sum(dk * np.kron(np.outer(ket_k, ket_k.conj()), np.outer(xi, xi.conj())) for dk, ket_k, xi in components)


def min_pt_eigenvalue(state: TruncatedFockState) -> float:
    n = state.cutoff
    return float(hermitian_eigenvalues(partial_transpose_mat(state.rho.mat, n, n))[0])
