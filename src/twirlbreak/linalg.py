"""Dense complex linear algebra over bipartite finite-dimensional systems.

Conventions: subsystem A is the left (slow) tensor factor, so a bipartite
matrix element is rho[i*d_B + j, k*d_B + l] = <i,j|rho|k,l>.  Partial
transposition acts on subsystem B by default (j <-> l swap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
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
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN/Inf entries")
    return m


@dataclass(frozen=True)
class DensityOperator:
    """A bipartite density matrix with dimension metadata.

    Validation (Hermiticity, unit trace, positivity) runs on construction;
    use the module-level tolerances.
    """

    mat: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        m = _as_complex(self.mat)
        object.__setattr__(self, "mat", m)
        d = self.dim_a * self.dim_b
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")
        if m.shape != (d, d):
            raise ValueError(
                f"matrix shape {m.shape} inconsistent with dims ({self.dim_a}, {self.dim_b})"
            )
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValueError("density matrix does not have unit trace")
        if np.linalg.eigvalsh(m)[0] < -PSD_TOL:
            raise ValueError("density matrix is not positive semidefinite")

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
      K_k = sqrt(w_k) (A_k x B_k) are laid out once so that two matrix
      products give Y_k = K_k op and then sum_k Y_k K_k^dag.  The products
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
        # kt[i, j, n, i', j'] = sqrt(w_n) A_n[i, i'] B_n[j, j']: as a (D m, D)
        # matrix it stacks the K_n vertically, as a (D, m D) one side by side
        a_t = (root_w[chunk, None, None] * a[chunk]).transpose(1, 0, 2)
        kt = kt_buf[: m * d * d].reshape(da, db, m, da, db)
        np.multiply(a_t[:, None, :, :, None], b[chunk].transpose(1, 0, 2)[None, :, :, None, :], out=kt)
        # y[(i, j, n), :] = (K_n op)[(i, j), :]: as (D, m D), the K_n op side by side
        y = np.matmul(kt.reshape(d * m, d), op, out=y_buf[: m * d * d].reshape(d * m, d))
        np.conjugate(kt, out=kt)
        out += y.reshape(d, m * d) @ kt.reshape(d, m * d).T
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


def partial_transpose_mat(mat: np.ndarray, dim_a: int, dim_b: int, side: str = "B") -> np.ndarray:
    """Partial transposition of a bipartite matrix (default on subsystem B)."""
    t = np.asarray(mat).reshape(dim_a, dim_b, dim_a, dim_b)
    if side == "B":
        t = t.transpose(0, 3, 2, 1)
    elif side == "A":
        t = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError("side must be 'A' or 'B'")
    return t.reshape(dim_a * dim_b, dim_a * dim_b)


def partial_transpose(rho: DensityOperator, side: str = "B") -> np.ndarray:
    return partial_transpose_mat(rho.mat, rho.dim_a, rho.dim_b, side=side)


def hermitian_eigenvalues(m, tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.  Raises on non-Hermitian input."""
    m = _as_complex(m)
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)


def is_ppt(rho: DensityOperator, tol: float = PSD_TOL) -> bool:
    """Peres-Horodecki test: positivity of the partial transpose.

    Decides separability exactly for 2x2 and 2x3 systems; elsewhere PPT is
    only a necessary condition.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return bool(hermitian_eigenvalues(partial_transpose(rho))[0] >= -tol)


def negativity(rho: DensityOperator) -> float:
    """Sum of |negative eigenvalues| of the partial transpose."""
    ev = hermitian_eigenvalues(partial_transpose(rho))
    return float(np.sum(np.abs(ev[ev < 0])))


def frobenius_distance(a, b) -> float:
    a = _as_complex(a)
    b = _as_complex(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))
