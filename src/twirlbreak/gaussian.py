"""Two-mode Gaussian states at covariance-matrix level, phase-rotation
twirling, invariant-family solvers, and the truncated-Fock uniform-dephasing
channel.

Quadrature ordering is (x_A, p_A, x_B, p_B); the vacuum CM is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityOperator,
    _chunk_lengths,
    _validate_blocks,
    hermitian_eigenvalues,
    partial_transpose_mat,
    validate_density_stack,
)

BONA_FIDE_TOL = 1e-10
TAIL_TOL = 1e-3  # the share of its norm a truncated squeezed state may lose

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.kron(np.eye(2), _OMEGA_1)  # omega + omega, one per mode


def _det2(x: np.ndarray) -> np.ndarray:
    """Determinants of 2x2 matrices x[:2, :2, ...] (matrix axes first),
    written out: exact where LU is not, e.g. det(mu I) = mu^2."""
    return x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]


def _is_bona_fide(m: np.ndarray) -> np.ndarray:
    """V + i Omega >= 0 for each CM of a (..., 4, 4) stack, in closed form:
    V > 0, Delta >= 2 and det V - Delta + 1 >= 0, the last two to
    BONA_FIDE_TOL, with Delta = det A + det B + 2 det C.  As Delta =
    nu_-^2 + nu_+^2 and det V = nu_-^2 nu_+^2, these say nu_-^2 + nu_+^2 >= 2
    and (nu_-^2 - 1)(nu_+^2 - 1) >= 0, that is nu_- >= 1 (Serafini,
    Illuminati & De Siena, J. Phys. B 37, L21, 2004).  V > 0 is read from
    A > 0 and the Schur complement S = B - C^T A^-1 C > 0, taken as
    det A S = det A B - C^T adj(A) C, so that det V = det A det S needs no
    division where A is singular."""
    # v[i, j]: entry (i, j) of every CM, contiguous for the elementwise work
    v = np.ascontiguousarray(np.moveaxis(m, (-2, -1), (0, 1)))
    a, b, c = v[:2, :2], v[2:, 2:], v[:2, 2:]
    det_a = _det2(a)
    # the rows of adj(A) C, adj(A) = [[a_11, -a_01], [-a_10, a_00]]
    y = a[1, 1] * c[0] - a[0, 1] * c[1], a[0, 0] * c[1] - a[1, 0] * c[0]
    scaled_s = det_a * b - (c[0][:, None] * y[0] + c[1][:, None] * y[1])
    det_scaled_s = _det2(scaled_s)
    positive = (a[0, 0] > 0) & (det_a > 0) & (scaled_s[0, 0] > 0) & (det_scaled_s > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        det_v = det_scaled_s / det_a
    delta = det_a + _det2(b) + 2 * _det2(c)
    return positive & (delta >= 2 - BONA_FIDE_TOL) & (det_v - delta + 1 >= -BONA_FIDE_TOL)


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


def _generator(sign: float) -> np.ndarray:
    """G = J + sign J (direct sum), J = _OMEGA_1: R(theta) + R(sign theta) =
    exp(theta G), with R(theta) = [[cos, sin], [-sin, cos]]."""
    return np.kron(np.diag([1.0, sign]), _OMEGA_1)


def rotation_residual(v: CovarianceMatrix, sign: float) -> float:
    """Largest entry of |G V + V G^T|, G = _generator(sign): 0 exactly when V
    is fixed by every correlated (sign 1) or anti-correlated (sign -1) phase
    rotation S, as d/dtheta S V S^T = S (G V + V G^T) S^T.  Each entry of G V
    and V G^T is an entry of V up to sign, so the residual has no rounding
    beyond one addition per entry."""
    g = _generator(sign)
    return float(np.max(np.abs(g @ v.m + v.m @ g.T)))


def _epr_stack(mu) -> np.ndarray:
    """(..., 4, 4) stack of EPR CMs over an array of mu >= 1: mu I on the
    diagonal blocks, sqrt(mu^2 - 1) Z on the cross blocks."""
    mu = np.asarray(mu, dtype=float)[..., None, None]
    return mu * np.eye(4) + np.sqrt(mu * mu - 1.0) * np.kron([[0, 1], [1, 0]], np.diag([1.0, -1.0]))


def epr_cm(mu: float) -> CovarianceMatrix:
    """CM of a two-mode squeezed vacuum (EPR) state."""
    if mu < 1:
        raise ValueError("mu must be >= 1")
    return CovarianceMatrix(_epr_stack(mu))


def _quasi_normal_stack(alpha, beta, omega, phi) -> np.ndarray:
    """(..., 4, 4) stack of quasi-normal matrices over the broadcast parameters."""
    a, b, w, f = np.broadcast_arrays(alpha, beta, omega, phi)
    z = np.zeros(a.shape)
    rows = ((a, z, w, f), (z, a, -f, w), (w, -f, b, z), (f, w, z, b))
    return np.stack([np.stack(row, -1) for row in rows], -2)


def quasi_normal_cm(alpha: float, beta: float, omega: float, phi: float) -> CovarianceMatrix:
    """Blocks A = alpha I, B = beta I, C = [[omega, phi], [-phi, omega]]."""
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be >= 1")
    return CovarianceMatrix(_quasi_normal_stack(alpha, beta, omega, phi))


def _symplectic_pair(m: np.ndarray, sign: float):
    """(nu_-, nu_+) of each CM in a (..., 4, 4) stack, in closed form (Serafini,
    Illuminati & De Siena, J. Phys. B 37, L21, 2004): nu_-+^2 = (Delta -+
    sqrt(Delta^2 - 4 det V)) / 2, Delta = det A + det B + 2 sign det C, where
    sign = -1 is the partial transpose.  The discriminant is computed as the
    equal invariant (det A - det B)^2 + 4 sign det(A w C + sign C w B), exactly
    0 for vacuum and EPR states; nu_-^2 = det V / nu_+^2 avoids cancellation."""
    a, b, c = m[..., :2, :2], m[..., 2:, 2:], m[..., :2, 2:]
    x = np.stack([a, b, c, a @ _OMEGA_1 @ c + sign * c @ _OMEGA_1 @ b])
    det_a, det_b, det_c, det_w = _det2(np.moveaxis(x, (-2, -1), (0, 1)))
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


def is_separable_two_mode(v: CovarianceMatrix) -> bool:
    """PPT at CM level, nu_- >= 1 - BONA_FIDE_TOL; conclusive for 1x1-mode Gaussian states."""
    return pt_symplectic_eigenvalues(v)[0] >= 1.0 - BONA_FIDE_TOL


# -- invariant-family solver ---------------------------------------------------

_TRIU = np.triu_indices(4)  # the 10 free entries of a symmetric 4x4 matrix


def _from_params(x: np.ndarray) -> np.ndarray:
    """(..., 10) free entries -> (..., 4, 4) symmetric matrices."""
    m = np.zeros(x.shape[:-1] + (4, 4))
    m[..., _TRIU[0], _TRIU[1]] = x
    m[..., _TRIU[1], _TRIU[0]] = x
    return m


@dataclass(frozen=True)
class InvariantFamily:
    """The CMs fixed by a family of rotations, as a basis and a projector."""

    basis: tuple            # symmetric 4x4 matrices spanning the family
    projector: np.ndarray   # orthogonal projector onto the span, on the 10 free entries

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def residual(self, m: np.ndarray):
        """Distance of a symmetric matrix from the family's span; an array of
        distances for a (..., 4, 4) stack."""
        x = np.asarray(m)[..., _TRIU[0], _TRIU[1]]
        r = np.linalg.norm(x - x @ self.projector, axis=-1)
        return float(r) if r.ndim == 0 else r


def solve_invariant_cm(mode: str) -> InvariantFamily:
    """The CMs fixed by every correlated or anticorrelated rotation.  As G^2 =
    -I, G = _generator(sign), a rotation is S = cos(theta) I + sin(theta) G,
    and S V S^T averages to (V + G V G^T) / 2.  On the 10 free entries, V ->
    G V G^T is a signed permutation t with t t = I: (I + t) / 2 projects onto
    the family, spanned by one row of I + t per orbit of the unit vectors
    (an entry that t maps to itself it negates, so its row is 0)."""
    if mode not in ("correlated", "anticorrelated"):
        raise ValueError("mode must be 'correlated' or 'anticorrelated'")
    g = _generator(1.0 if mode == "correlated" else -1.0)
    e = _from_params(np.eye(10))  # the 10 unit symmetric matrices
    t = (g @ e @ g.T)[:, _TRIU[0], _TRIU[1]]  # row k: T of unit matrix k, a signed unit row
    rows = np.eye(10) + t
    first = np.arange(10) <= np.abs(t).argmax(axis=1)  # the first unit vector of each orbit
    return InvariantFamily(tuple(_from_params(rows[first & rows.any(axis=1)])), rows / 2)


def det_c_form_min(family: InvariantFamily) -> float:
    """Least eigenvalue of the quadratic form x -> det C(sum_i x_i B_i) on the
    family's basis B_i, C the cross block, polarised as Q_ij = [det C(B_i +
    B_j) - det C(B_i) - det C(B_j)] / 2.  It is >= 0 iff det C >= 0 on every
    member, and a two-mode Gaussian state with det C >= 0 is separable
    (Simon, PRL 84, 2726, 2000)."""
    c = np.asarray(family.basis)[:, :2, 2:]
    det_sums = _det2(np.moveaxis(c[:, None] + c[None], (-2, -1), (0, 1)))
    det_c = np.diag(det_sums) / 4  # det C(2 B_i) = 4 det C(B_i)
    return float(np.linalg.eigvalsh((det_sums - det_c[:, None] - det_c[None]) / 2)[0])


# -- truncated-Fock uniform dephasing ------------------------------------------

def _cutoff(rho: DensityOperator) -> int:
    """The Fock cutoff of a two-mode state in the Fock basis, the same on both modes."""
    if rho.dim_a != rho.dim_b:
        raise ValueError("both modes must share the Fock cutoff")
    return rho.dim_a


def tmsv_support(lam: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-mode squeezed vacuum with Schmidt coefficients ~ lam^k, truncated
    at cutoff n, on its support: the basis indices k(n + 1) of |kk>, k < n,
    and the validated (n, n) block of rho on them; rho is zero elsewhere.
    Rejects truncations that lose more than TAIL_TOL of mass."""
    if not 0 <= lam < 1:
        raise ValueError("lam must be in [0, 1)")
    amps = lam ** np.arange(n)
    norm_full = 1.0 / (1.0 - lam * lam)
    kept = float(np.sum(amps * amps))
    if kept / norm_full < 1.0 - TAIL_TOL:
        raise ValueError("Fock cutoff too small for requested tail mass")
    amps = amps / np.sqrt(kept)
    return np.arange(n) * (n + 1), validate_density_stack(np.outer(amps, amps)[None])[0]


def truncated_tmsv(lam: float, n: int) -> DensityOperator:
    """The tmsv_support state as a dense (n^2, n^2) matrix."""
    idx, block = tmsv_support(lam, n)
    mat = np.zeros((n * n, n * n), dtype=complex)
    mat[np.ix_(idx, idx)] = block
    return DensityOperator(mat, n, n)


def _dephase(mats: np.ndarray, n: int) -> np.ndarray:
    """The dense reference's dephasing rule: zero every entry of a (..., n^2,
    n^2) stack of matrices on the basis k n + l whose mode-A index k differs
    between its row and its column."""
    k = np.arange(n * n) // n
    return np.where(k[:, None] == k, mats, 0.0)


def dephased_blocks(mats: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform side-A dephasing of a validated (m, n c, n c) stack on a basis
    ordered by the mode-A index k, c indices per k (c = n on the Fock basis
    k n + l, c = 1 on the squeezed vacuum's support |kk>).  Each output
    sum_k |k><k| x B_k is kept as the k-blocks B_k that the dephasing keeps,
    an (m, n, c, c) view of the input, and validated from them.  Returns
    the blocks and the (m, n, c) spectra of the output's partial transpose
    sum_k |k><k| x B_k^T, one batched eigvalsh of the transposed blocks; on
    the n^2-dimensional two-mode space its other n^2 - n c eigenvalues are
    exact zeros."""
    c = mats.shape[-1] // n
    blocks = mats.reshape(-1, n, c, n, c).diagonal(axis1=1, axis2=3).transpose(0, 3, 1, 2)
    _validate_blocks([blocks])
    return blocks, np.linalg.eigvalsh(blocks.swapaxes(-1, -2))


def _min_pt_eigenvalues(mats: np.ndarray, n: int) -> np.ndarray:
    """Least eigenvalue of the partial transpose of each matrix of a stack."""
    return hermitian_eigenvalues(partial_transpose_mat(mats, n, n))[:, 0]


def _decompose(pure: np.ndarray, n: int):
    """Weights d_k (m, n) and unit kets xi(k) (m, n, n) of the dephased output
    of each pure state of a validated (m, n^2, n^2) stack; a component of
    weight <= 1e-14 gets a zero ket.  As Tr rho^2 >= 1 - 1e-10 makes rho =
    v v^dag, v is read up to a phase as rho's column j at its largest
    diagonal entry, over sqrt(rho_jj)."""
    purity = np.einsum("mij,mji->m", pure, pure).real
    if np.any(purity < 1.0 - 1e-10):
        raise ValueError("input must be pure; spectrally decompose mixed states first")
    j = np.argmax(pure.diagonal(axis1=1, axis2=2).real, axis=1)[:, None, None]
    column = np.take_along_axis(pure, j, axis=2)
    c = (column / np.sqrt(np.take_along_axis(column, j, axis=1).real)).reshape(-1, n, n)
    weights = np.sum(np.abs(c) ** 2, axis=2)
    kept = weights > 1e-14
    xi = np.divide(c, np.sqrt(weights)[:, :, None], out=np.zeros_like(c), where=kept[:, :, None])
    return np.where(kept, weights, 0.0), xi


def _separable_sum(weights: np.ndarray, kets_a: np.ndarray, kets_b: np.ndarray) -> np.ndarray:
    """sum_c w_c |a_c><a_c| x |b_c><b_c| for each row of (m, C) weights and
    (m, C, d_A), (m, C, d_B) kets: a (m, d_A d_B, d_A d_B) stack."""
    m, c = weights.shape
    v = (kets_a[:, :, :, None] * kets_b[:, :, None, :]).reshape(m, c, -1)  # |a_c> x |b_c>
    return (v.swapaxes(1, 2) * weights[:, None, :]) @ v.conj()


def dephasing_sweep(vectors, n: int):
    """Uniform side-A dephasing of a (m, n^2) stack of unit two-mode state
    vectors, cutoff n per mode.  Each input is validated as a density matrix
    and dephased by dephased_blocks, on the Fock basis (c = n: the blocks
    B_k[l, l'] = rho[kl, kl'], an (m, n, n, n) stack).  Returns, per state,
    the least eigenvalue of the output's partial transpose and the largest
    entry error of the blocks rebuilt from the separable decomposition
    (which recovers the state vector from the density matrix).  The states
    are taken in chunks of _chunk_lengths, sized for the dense (m, n^2, n^2)
    input stack, so the working set does not grow with m."""
    v = np.asarray(vectors, dtype=complex)
    chunks = np.split(v, np.cumsum(_chunk_lengths(len(v), n**4))[:-1])
    min_pt, rec_error = zip(*(_dephasing_chunk(chunk, n) for chunk in chunks))
    return np.concatenate(min_pt), np.concatenate(rec_error)


def _dephasing_chunk(v: np.ndarray, n: int):
    """dephasing_sweep on one chunk, whose arrays are freed on return."""
    pure = validate_density_stack(v[:, :, None] * v.conj()[:, None, :])
    blocks, pt_spectra = dephased_blocks(pure, n)
    weights, xi = _decompose(pure, n)
    scaled = xi * weights[:, :, None]
    rec_error = np.max(np.abs(scaled[..., :, None] * xi.conj()[..., None, :] - blocks), axis=(1, 2, 3))
    return pt_spectra[..., 0].min(axis=1), rec_error


def dephase_truncated(rho: DensityOperator) -> DensityOperator:
    """Uniform phase-rotation average of mode A on the dense n^2 x n^2
    matrix, the reference's rule (_dephase) that shares no code with
    dephased_blocks: zeroes every element with k != k' (the closed-form
    theta integral); trace preserving."""
    n = _cutoff(rho)
    return DensityOperator(_dephase(rho.mat, n), n, n)


def separable_decomposition_dephased(rho: DensityOperator):
    """Explicit separable decomposition of the side-A dephased output of a
    pure input: components (d_k, |k>, |xi(k)>) with d_k = sum_j |c_kj|^2."""
    n = _cutoff(rho)
    weights, xi = _decompose(rho.mat[None], n)
    kets = np.eye(n, dtype=complex)
    return [(float(weights[0, k]), kets[k], xi[0, k]) for k in np.flatnonzero(weights[0])]


def reconstruct_decomposition(components, n: int) -> np.ndarray:
    """sum_k d_k |k><k| x |xi(k)><xi(k)|."""
    weights = np.array([dk for dk, _, _ in components], dtype=float).reshape(1, -1)
    kets_a = np.array([ket for _, ket, _ in components], dtype=complex).reshape(1, -1, n)
    kets_b = np.array([xi for _, _, xi in components], dtype=complex).reshape(1, -1, n)
    return _separable_sum(weights, kets_a, kets_b)[0]


def min_pt_eigenvalue(rho: DensityOperator) -> float:
    return float(_min_pt_eigenvalues(rho.mat[None], _cutoff(rho))[0])
