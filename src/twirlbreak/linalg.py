"""Dense complex linear algebra over bipartite finite-dimensional systems.

Conventions: subsystem A is the left (slow) tensor factor, so a bipartite
matrix element is rho[i*d_B + j, k*d_B + l] = <i,j|rho|k,l>.  Partial
transposition acts on subsystem B by default (j <-> l swap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
# the looser Hermiticity gate of hermitian_eigenvalues, for operators that
# need not be states (partial transposes and the like)
SPECTRUM_HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
UNITARITY_TOL = 1e-10

# Memory budget of conjugate_sum: the one-sided route is taken only when each
# side's superoperator fits in this many bytes, and sums its terms in chunks
# that do too, so memory does not grow with K.
CONJUGATE_SUM_CHUNK_BYTES = 16 * 2**20
# Chunk size of the two-sided route: the Kronecker products of one chunk of
# terms, and their product with the operator, take this many bytes each, so
# both stay in cache between the two matrix products that use them.
CONJUGATE_SUM_CACHE_BYTES = 2**19


def _as_complex(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    _require_finite(m)
    return m


def _require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN/Inf entries")


def _hermiticity_residual(m: np.ndarray) -> float:
    """max|M - M^dag| over a stack of matrices (the last two axes)."""
    return float(np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0))


def validate_density_stack(mats) -> np.ndarray:
    """Check each matrix of a (m, D, D) stack is a density matrix: finite,
    Hermitian, unit trace and positive semidefinite to the module-level
    tolerances, in that order, positivity by the certificate of _blocks_psd.
    Returns the stack as complex; raises ValueError, with DensityOperator's
    messages, if any member fails."""
    m = np.asarray(mats, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected a (m, D, D) stack, got shape {m.shape}")
    _require_finite(m)
    if len(m) == 0:
        return m
    blocks, residual = _component_blocks(m)
    if residual > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    tr = m.trace(axis1=1, axis2=2)
    if np.abs(tr.real - 1.0).max() > TRACE_TOL or np.abs(tr.imag).max() > TRACE_TOL:
        raise ValueError("density matrix does not have unit trace")
    if not _blocks_psd(blocks, PSD_TOL):
        raise ValueError("density matrix is not positive semidefinite")
    return m


def _component_blocks(m: np.ndarray) -> tuple[list, float]:
    """The blocks of a finite complex (m, D, D) stack, one array per size, and
    its Hermiticity residual max|M - M^dag|.  The blocks are the connected
    components of the stack's nonzero pattern (entries nonzero in any member,
    made symmetric), so the stack is their direct sum up to one permutation.
    A single component is the stack itself, (m, D, D); c components of size
    1 are their diagonal entries (m, c), of size s > 1 a gather (m, c, s, s)."""
    pattern = (m != 0).any(axis=0)
    pattern |= pattern.T
    groups = _components_by_size(pattern)
    if m.shape[1] in groups:
        return [m], _hermiticity_residual(m)
    blocks, residual = [], 0.0
    for size, idx in groups.items():
        if size == 1:
            block = m[:, idx[:, 0], idx[:, 0]]
            residual = max(residual, 2 * float(np.abs(block.imag).max()))
        else:
            block = m[:, idx[:, :, None], idx[:, None, :]]
            residual = max(residual, _hermiticity_residual(block))
        blocks.append(block)
    return blocks, residual


def _blocks_psd(blocks: list, tol: float) -> bool:
    """Whether every block from _component_blocks has least eigenvalue >= -tol,
    that is block + tol I >= 0: read off the real diagonal of 1x1 blocks, and
    certified for the others by one batched Cholesky factorisation of block +
    tol I per array, which succeeds with the backward error eigvalsh has."""
    try:
        for b in blocks:
            if b.ndim > 2:
                np.linalg.cholesky(b + tol * np.eye(b.shape[-1]))
            elif b.real.min() < -tol:
                return False
    except np.linalg.LinAlgError:
        return False
    return True


def _block_spectra(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Ascending spectra (m, D) and Hermiticity residual of a finite complex
    (m, D, D) stack: one batched eigvalsh per array of _component_blocks, a
    1x1 block's eigenvalue read as its real diagonal (eigvalsh's, bit for bit)."""
    if m.size == 0:
        return np.linalg.eigvalsh(m), 0.0
    blocks, residual = _component_blocks(m)
    if blocks[0].ndim == 3:  # a single component: the stack itself
        return np.linalg.eigvalsh(m), residual
    spectra = [b.real if b.ndim == 2 else np.linalg.eigvalsh(b).reshape(len(m), -1) for b in blocks]
    return np.sort(np.concatenate(spectra, axis=1), axis=1), residual


def _components_by_size(pattern: np.ndarray) -> dict:
    """The connected components of a symmetric boolean (D, D) pattern, found by
    a breadth-first search that reads one row per member: {size: (c, size)
    array of the components' ascending indices}.  A full pattern is one
    component without a search."""
    if pattern.all():
        return {len(pattern): np.arange(len(pattern))[None]}
    linked = np.count_nonzero(pattern, axis=1) > pattern.diagonal()  # rows with an off-diagonal entry
    unseen = linked.copy()
    comps = {}
    for start in np.flatnonzero(linked).tolist():
        if not unseen[start]:
            continue
        unseen[start] = False
        comp = [start]
        for i in comp:  # grows while it is read
            new = np.flatnonzero(pattern[i] & unseen)
            unseen[new] = False
            comp.extend(new.tolist())
        comp.sort()
        comps.setdefault(len(comp), []).append(comp)
    groups = {size: np.array(c) for size, c in comps.items()}
    singles = np.flatnonzero(~linked)
    if len(singles):
        groups[1] = singles[:, None]
    return groups


@dataclass(frozen=True)
class DensityOperator:
    """A bipartite density matrix with dimension metadata.

    Validation (validate_density_stack on a stack of one) runs on
    construction.
    """

    mat: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"expected a matrix, got ndim={m.ndim}")
        object.__setattr__(self, "mat", m)
        d = self.dim_a * self.dim_b
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")
        if m.shape != (d, d):
            raise ValueError(
                f"matrix shape {m.shape} inconsistent with dims ({self.dim_a}, {self.dim_b})"
            )
        validate_density_stack(m[None])

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def kron(a, b) -> np.ndarray:
    """Kronecker product with A as the left (slow) factor."""
    return np.kron(_as_complex(a), _as_complex(b))


def as_unitary_stack(us) -> np.ndarray:
    """A non-empty (K, d, d) complex stack, checked for unitarity in one batched call."""
    us = np.asarray(us, dtype=complex)
    if us.ndim != 3 or us.shape[1] != us.shape[2] or len(us) == 0:
        raise ValueError(f"expected a non-empty (K, d, d) stack, got shape {us.shape}")
    gram = us @ us.conj().transpose(0, 2, 1)
    if np.max(np.abs(gram - np.eye(us.shape[1]))) > UNITARITY_TOL:
        raise ValueError("stack contains a non-unitary element")
    return us


def conjugate_sum(op, a, b, weights) -> np.ndarray:
    """sum_k w_k (A_k x B_k) op (A_k x B_k)^dag for stacks a (K, d_A, d_A),
    b (K, d_B, d_B) and nonnegative weights (K,); a stack of one matrix, or
    one weight, is broadcast along K.

    Every Kraus channel (b = ones((1, 1, 1)), w = 1), twirl and classical-
    environment dilation here is this sum.  Two routes, picked from the
    shapes; apart from op, the stacks and the (D, D) result, D = d_A d_B,
    neither holds arrays that grow with K:

    - one-sided, when one stack as passed holds a single matrix F (the
      identity of a partial twirl, the 1x1 factor of a Kraus channel) and
      each side's superoperator (d_A^4 and d_B^4 entries) fits in
      CONJUGATE_SUM_CHUNK_BYTES: the sum is then (sum_k w_k G_k x conj(G_k))
      x (F x conj(F)) acting on the realigned op, with the G side summed by
      one matrix product per chunk of terms; a chunk's weighted conjugates,
      their product and the running sum fit in that budget;
    - two-sided otherwise: per chunk of terms, the Kronecker products
      K_k = sqrt(w_k) (A_k x B_k) are laid out once, with the term index
      innermost, so that one batched product gives every Y_k = K_k op and a
      second, single matrix product adds sum_k Y_k K_k^dag.  The products
      and Y each take CONJUGATE_SUM_CACHE_BYTES (or one term's D^2 entries,
      if more), in two buffers reused by every chunk.
    """
    op = np.asarray(op, dtype=complex)
    k, da, db = max(len(a), len(b)), np.shape(a)[-1], np.shape(b)[-1]
    weights = np.broadcast_to(np.asarray(weights, dtype=float), (k,))
    d = da * db
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match the stacks ({d}, {d})")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if min(len(a), len(b)) == 1 and 16 * max(da, db) ** 4 <= CONJUGATE_SUM_CHUNK_BYTES:
        # the sum factorises into (sum_k w_k S(G_k)) x S(F), S(M) = M x conj(M)
        wa, wb = (weights, np.ones(1)) if len(b) == 1 else (np.ones(1), weights)
        out = _superoperator(a, wa) @ _swap_middle(op, da, db, da, db) @ _superoperator(b, wb).T
        return _swap_middle(out, da, da, db, db)
    a, b = np.broadcast_to(a, (k, da, da)), np.broadcast_to(b, (k, db, db))
    root_w = np.sqrt(weights)
    step = min(k, max(1, CONJUGATE_SUM_CACHE_BYTES // (16 * d * d)))
    kt_buf, y_buf = np.empty(step * d * d, dtype=complex), np.empty(step * d * d, dtype=complex)
    out = np.zeros((d, d), dtype=complex)
    for s in range(0, k, step):
        chunk = slice(s, s + step)
        m = min(step, k - s)
        # kt[i, j, i', j', n] = sqrt(w_n) A_n[i, i'] B_n[j, j'], the term index
        # innermost, so the broadcast multiply runs along the terms
        a_t = np.ascontiguousarray((root_w[chunk, None, None] * a[chunk]).transpose(1, 2, 0))
        b_t = np.ascontiguousarray(b[chunk].transpose(1, 2, 0))
        kt = kt_buf[: m * d * d].reshape(da, db, da, db, m)
        np.multiply(a_t[:, None, :, None, :], b_t[None, :, None, :, :], out=kt)
        # y[r, c, n] = (K_n op)[r, c]: one (D, D) @ (D, m) product per row r
        y = np.matmul(op.T, kt.reshape(d, d, m), out=y_buf[: m * d * d].reshape(d, d, m))
        np.conjugate(kt, out=kt)
        # out[r, t] = sum over (c, n) of y[r, c, n] conj(K_n[t, c])
        out += y.reshape(d, d * m) @ kt.reshape(d, d * m).T
    return out


def _superoperator(g, weights) -> np.ndarray:
    """sum_k w_k G_k x conj(G_k) for a (K, d, d) stack, as the (d^2, d^2) matrix
    [(x, z), (x', z')] that maps X[x', z'] to sum_k w_k G_k X G_k^dag."""
    g = np.asarray(g, dtype=complex)
    k, d = len(g), g.shape[-1]
    flat = g.reshape(k, d * d)
    # [(x, x'), (z, z')] order: one GEMM a chunk of terms; a chunk holds its
    # weighted conjugates (d^2 entries a term), the product and the sum (d^4 each)
    s = np.zeros((d * d, d * d), dtype=complex)
    step = max(1, (CONJUGATE_SUM_CHUNK_BYTES - 2 * 16 * d**4) // (16 * d * d))
    for i in range(0, k, step):
        chunk = slice(i, i + step)
        g_bar = flat[chunk].conj()
        g_bar *= weights[chunk, None]
        s += flat[chunk].T @ g_bar
    return _swap_middle(s, d, d, d, d)


def _swap_middle(m, d0, d1, d2, d3) -> np.ndarray:
    """m as a (d0, d1, d2, d3) tensor with its middle axes swapped, flattened
    to a (d0 d2, d1 d3) matrix."""
    return m.reshape(d0, d1, d2, d3).transpose(0, 2, 1, 3).reshape(d0 * d2, d1 * d3)


def permute_subsystems(mat: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder the tensor factors of a square matrix.

    ``dims`` are the current factor dimensions; ``perm[i]`` is the index
    of the current factor placed at output position i.
    """
    dims = list(dims)
    n = len(dims)
    t = np.asarray(mat).reshape(dims + dims)
    axes = list(perm) + [n + p for p in perm]
    t = t.transpose(axes)
    d = int(np.prod(dims))
    return t.reshape(d, d)


def partial_trace_multi(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep`` (order preserved)."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    t = np.asarray(mat).reshape(dims + dims)
    # contract traced factors pairwise, from the highest axis down
    traced = [i for i in range(n) if i not in keep]
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    d = int(np.prod([dims[i] for i in keep]))
    return t.reshape(d, d)


def _check_side(side: str) -> None:
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")


def partial_transpose_mat(mat: np.ndarray, dim_a: int, dim_b: int, side: str = "B") -> np.ndarray:
    """Partial transposition of a bipartite matrix, or of each matrix of a
    (..., D, D) stack (default on subsystem B)."""
    _check_side(side)
    mat = np.asarray(mat)
    lead = mat.shape[:-2]
    t = mat.reshape(lead + (dim_a, dim_b, dim_a, dim_b))
    k = len(lead)
    t = t.swapaxes(k + 1, k + 3) if side == "B" else t.swapaxes(k, k + 2)
    return t.reshape(lead + (dim_a * dim_b, dim_a * dim_b))


def partial_transpose(rho: DensityOperator, side: str = "B") -> np.ndarray:
    return partial_transpose_mat(rho.mat, rho.dim_a, rho.dim_b, side=side)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending; of each matrix along the
    last axis for a (..., D, D) stack.  Raises on input that is not Hermitian
    within SPECTRUM_HERMITICITY_TOL."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    _require_finite(m)
    spectra, residual = _block_spectra(m.reshape(math.prod(m.shape[:-2]), *m.shape[-2:]))
    if residual > SPECTRUM_HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return spectra.reshape(m.shape[:-1])


def is_ppt(rho: DensityOperator, tol: float = PSD_TOL) -> bool:
    """Peres-Horodecki test: the partial transpose, finite and Hermitian
    within SPECTRUM_HERMITICITY_TOL, has least eigenvalue >= -tol (_blocks_psd).

    Decides separability exactly for 2x2 and 2x3 systems; elsewhere PPT is
    only a necessary condition.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    blocks, residual = _component_blocks(_as_complex(partial_transpose(rho))[None])
    if residual > SPECTRUM_HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return _blocks_psd(blocks, tol)


def negativity(rho: DensityOperator) -> float:
    """Sum of |negative eigenvalues| of the partial transpose."""
    return negativity_from_spectrum(hermitian_eigenvalues(partial_transpose(rho)))


def negativity_from_spectrum(spectrum) -> float:
    """The negativity read off a partial-transpose spectrum already computed."""
    ev = np.asarray(spectrum)
    return float(np.sum(np.abs(ev[ev < 0])))


def frobenius_distance(a, b) -> float:
    a = _as_complex(a)
    b = _as_complex(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))
