"""Dense complex linear algebra over bipartite finite-dimensional systems.

Conventions: subsystem A is the left (slow) tensor factor, so a bipartite
matrix element is rho[i*d_B + j, k*d_B + l] = <i,j|rho|k,l>.  Partial
transposition acts on subsystem B (j <-> l swap).
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


def _chunk_lengths(total: int, entries: int) -> list[int]:
    """Split `total` items of `entries` complex numbers each into consecutive
    chunks whose stacks fit in CONJUGATE_SUM_CACHE_BYTES (one item a chunk if
    one item does not), so that memory does not grow with total."""
    step = max(1, CONJUGATE_SUM_CACHE_BYTES // (16 * entries))
    return [min(step, total - s) for s in range(0, total, step)]


def _as_complex(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    _require_finite(m)
    return m


def _require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN/Inf entries")


def validate_density_stack(mats) -> np.ndarray:
    """Check each matrix of a (m, D, D) stack is a density matrix: finite,
    Hermitian, unit trace and positive semidefinite, in that order, by the
    checks of _validate_blocks on the blocks of _component_blocks (a
    non-finite entry is reported before the pattern is read).  Returns the
    stack as complex; raises ValueError, with DensityOperator's messages,
    if any member fails."""
    m = np.asarray(mats, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected a (m, D, D) stack, got shape {m.shape}")
    _require_finite(m)
    if len(m):
        _validate_blocks(_component_blocks(m))
    return m


def _validate_blocks(blocks: list) -> None:
    """Check that the m matrices these blocks come from, the blocks holding
    every nonzero entry, are density matrices: Hermitian inside the blocks,
    unit trace (the traces of a member's blocks sum to 1) and positive
    semidefinite (_blocks_psd) to the module-level tolerances, in that
    order.  Each array holds c blocks of one size s as (m, c, s, s), member
    index first, the layout of _component_blocks.  The blocks must be
    finite: both callers check the matrices they come from first.  Raises
    ValueError, with DensityOperator's messages, if any member fails."""
    if _blocks_residual(blocks) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    tr = sum(b.diagonal(axis1=-2, axis2=-1).reshape(len(b), -1).sum(axis=1) for b in blocks)
    if np.abs(tr.real - 1.0).max() > TRACE_TOL or np.abs(tr.imag).max() > TRACE_TOL:
        raise ValueError("density matrix does not have unit trace")
    if not _blocks_psd(blocks):
        raise ValueError("density matrix is not positive semidefinite")


def _component_blocks(m: np.ndarray) -> list:
    """The blocks of a complex (m, D, D) stack, one (m, c, s, s) array per
    block size s.  The blocks are the connected components of the stack's
    nonzero pattern (entries nonzero in any member, made symmetric), so the
    stack is their direct sum up to one permutation, and they hold its
    every nonzero entry.  A single component is the view m[:, None]; c
    components of one size, 1x1 included, are a gather."""
    pattern = (m != 0).any(axis=0)
    pattern |= pattern.T
    groups = _components_by_size(pattern)
    if m.shape[1] in groups:
        return [m[:, None]]
    return [m[:, idx[:, :, None], idx[:, None, :]] for idx in groups.values()]


def _blocks_residual(blocks: list) -> float:
    """The Hermiticity residual max|M - M^dag| inside finite blocks from
    _component_blocks, read with one full-size temporary per array:
    conj(M) - M^T, which is (M^dag - M) transposed, formed in place."""
    worst = 0.0
    for b in blocks:
        t = b.conj()
        t -= b.swapaxes(-1, -2)
        worst = max(worst, float(np.abs(t).max(initial=0.0)))
    return worst


def _blocks_psd(blocks: list) -> bool:
    """Whether every block from _component_blocks has least eigenvalue >=
    -PSD_TOL: read off the real diagonal of 1x1 blocks (a factorisation
    would reject one at exactly -PSD_TOL), and certified for the others by
    one batched Cholesky factorisation of block + PSD_TOL I per array, which
    succeeds with the backward error eigvalsh has."""
    try:
        for b in blocks:
            if b.shape[-1] > 1:
                np.linalg.cholesky(b + PSD_TOL * np.eye(b.shape[-1]))
            elif b.real.min() < -PSD_TOL:
                return False
    except np.linalg.LinAlgError:
        return False
    return True


def _hermitian_blocks(m: np.ndarray) -> list:
    """The blocks (_component_blocks) of a complex (m, D, D) stack, checked
    finite first and then Hermitian within SPECTRUM_HERMITICITY_TOL: the
    front end of hermitian_eigenvalues and is_ppt."""
    _require_finite(m)
    blocks = _component_blocks(m)
    if _blocks_residual(blocks) > SPECTRUM_HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return blocks


def _block_spectra(blocks: list) -> np.ndarray:
    """Ascending spectra (m, D) of the stack that blocks from
    _component_blocks come from: one batched eigvalsh per array (a 1x1
    block's eigenvalue is its real diagonal, bit for bit), sorted per member."""
    spectra = [np.linalg.eigvalsh(b).reshape(len(b), -1) for b in blocks]
    return np.sort(np.concatenate(spectra, axis=1), axis=1)


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


def conjugate_sum(op, a, b, weights, work=None) -> np.ndarray:
    """sum_k w_k (A_k x B_k) op (A_k x B_k)^dag for stacks a (K, d_A, d_A),
    b (K, d_B, d_B) and nonnegative weights (K,); a stack of one matrix, or
    one weight, is broadcast along K.  op is one (D, D) operator or an
    (m, D, D) stack of probes, D = d_A d_B, and the result has its shape:
    each probe's sum is bit for bit the one its own call gives, as the
    probes share the terms' layout but run the same products at the same
    shapes.

    Every Kraus channel (b = the side-B identity, w = 1), twirl and classical-
    environment dilation here is this sum.  Two routes, picked from the
    shapes; apart from op, the stacks and the result, neither holds arrays
    that grow with K:

    - one-sided, when one stack as passed holds a single matrix F (the
      identity of a partial twirl or of a Kraus channel's side B) and
      each side's superoperator (d_A^4 and d_B^4 entries) fits in
      CONJUGATE_SUM_CHUNK_BYTES: the sum is then (sum_k w_k G_k x conj(G_k))
      x (F x conj(F)) acting on the realigned op, with the G side summed by
      one matrix product per chunk of terms; a chunk's weighted conjugates,
      their product and the running sum fit in that budget.  Both
      superoperators are built once for all the probes;
    - two-sided otherwise: per chunk of terms, the Kronecker products
      K_k = sqrt(w_k) (A_k x B_k) are laid out once, with the term index
      innermost, so that one batched product gives every Y_k = K_k op and a
      second, single matrix product adds sum_k Y_k K_k^dag.  The products
      and Y each take CONJUGATE_SUM_CACHE_BYTES (or one term's D^2 entries,
      if more).  Each probe conjugates its Y in place and adds the conjugate
      of conj(Y) K^T, so the products are only read.  They, Y and the
      chunk's weighted A and its B, term index innermost, are views of one
      scratch array, sized from the first chunk alone and reused by every
      chunk and probe.

    Either route works in one scratch array of _conjugate_sum_work complex
    entries (on the one-sided route, a chunk's weighted conjugates).  `work`,
    a contiguous complex array of at least that many entries, is used as that
    scratch and overwritten; without it the call allocates its own.
    """
    op = np.asarray(op, dtype=complex)
    k, da, db = max(len(a), len(b)), np.shape(a)[-1], np.shape(b)[-1]
    weights = np.broadcast_to(np.asarray(weights, dtype=float), (k,))
    d = da * db
    if op.ndim not in (2, 3) or op.shape[-2:] != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match the stacks ({d}, {d})")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if _one_sided(len(a), len(b), da, db):
        # the sum factorises into (sum_k w_k S(G_k)) x S(F), S(M) = M x conj(M)
        wa, wb = (weights, np.ones(1)) if len(b) == 1 else (np.ones(1), weights)
        out = _superoperator(a, wa, work) @ _swap_middle(op, da, db, da, db) @ _superoperator(b, wb, work).T
        return _swap_middle(out, da, da, db, db)
    probes = op if op.ndim == 3 else op[None]
    size = _conjugate_sum_work(len(a), len(b), da, db)
    a, b = np.broadcast_to(a, (k, da, da)), np.broadcast_to(b, (k, db, db))
    root_w = np.sqrt(weights)
    if work is None:
        work = np.empty(size, dtype=complex)
    chunks = _chunk_lengths(k, d * d)
    step = max(chunks, default=0)  # the first chunk, the longest
    ends = np.cumsum([step * d * d, step * d * d, step * da * da])
    kt_buf, y_buf, a_buf, b_buf = np.split(work[:size], ends)
    out = np.zeros(probes.shape, dtype=complex)
    s = 0
    for m in chunks:
        chunk = slice(s, s + m)
        s += m
        # kt[i, j, i', j', n] = sqrt(w_n) A_n[i, i'] B_n[j, j'], the term index
        # innermost, so the broadcast multiply runs along the terms
        a_t, b_t = a_buf[: m * da * da].reshape(da, da, m), b_buf[: m * db * db].reshape(db, db, m)
        np.multiply(root_w[chunk], a[chunk].transpose(1, 2, 0), out=a_t)
        np.copyto(b_t, b[chunk].transpose(1, 2, 0))
        kt = kt_buf[: m * d * d].reshape(da, db, da, db, m)
        np.multiply(a_t[:, None, :, None, :], b_t[None, :, None, :, :], out=kt)
        for x, acc in zip(probes, out):
            # y[r, c, n] = (K_n x)[r, c]: one (D, D) @ (D, m) product per row r
            y = np.matmul(x.T, kt.reshape(d, d, m), out=y_buf[: m * d * d].reshape(d, d, m))
            # acc[r, t] += sum over (c, n) of y[r, c, n] conj(K_n[t, c]), as conj(conj(y) K^T)
            p = np.conjugate(y, out=y).reshape(d, d * m) @ kt.reshape(d, d * m).T
            acc += np.conjugate(p, out=p)
    return out.reshape(op.shape)


def _one_sided(ka: int, kb: int, da: int, db: int) -> bool:
    """Whether conjugate_sum takes its one-sided route for stacks of ka and
    kb matrices of sizes d_A and d_B."""
    return min(ka, kb) == 1 and 16 * max(da, db) ** 4 <= CONJUGATE_SUM_CHUNK_BYTES


def _conjugate_sum_work(ka: int, kb: int, da: int, db: int) -> int:
    """Complex entries of scratch that conjugate_sum uses for stacks of ka and
    kb matrices of sizes d_A and d_B, for one probe or a stack of any size:
    on the one-sided route, the weighted conjugates of either side's first
    chunk of terms (_superoperator); on the two-sided route, for the first
    chunk of s terms, the Kronecker products and their products with the
    operator (s D^2 entries each), the weighted A (s d_A^2) and the B
    (s d_B^2)."""
    if _one_sided(ka, kb, da, db):
        return max(min(k, _superoperator_step(d)) * d * d for k, d in ((ka, da), (kb, db)))
    d = da * db
    return max(_chunk_lengths(max(ka, kb), d * d), default=0) * (2 * d * d + da * da + db * db)


def _superoperator_step(d: int) -> int:
    """Terms per chunk of _superoperator for d x d matrices: a chunk holds
    its weighted conjugates (d^2 entries a term), the product and the sum
    (d^4 each) within CONJUGATE_SUM_CHUNK_BYTES."""
    return max(1, (CONJUGATE_SUM_CHUNK_BYTES - 2 * 16 * d**4) // (16 * d * d))


def _superoperator(g, weights, work=None) -> np.ndarray:
    """sum_k w_k G_k x conj(G_k) for a (K, d, d) stack, as the (d^2, d^2) matrix
    [(x, z), (x', z')] that maps X[x', z'] to sum_k w_k G_k X G_k^dag.  A
    chunk's weighted conjugates go to the start of `work`, a complex array of
    at least min(K, _superoperator_step(d)) d^2 entries; without it, to one
    array allocated here."""
    g = np.asarray(g, dtype=complex)
    k, d = len(g), g.shape[-1]
    # each G_k flattened in (column, row) order: a view of the sampler's
    # q[col, row, sample] layout, a copy only of a C-ordered stack
    flat = g.transpose(0, 2, 1).reshape(k, d * d)
    # [(x', x), (z', z)] order: one GEMM a chunk of terms
    s = np.zeros((d * d, d * d), dtype=complex)
    step = _superoperator_step(d)
    if work is None:
        work = np.empty(min(k, step) * d * d, dtype=complex)
    for i in range(0, k, step):
        chunk = flat[i : i + step]
        g_bar = np.conjugate(chunk, out=work[: chunk.size].reshape(chunk.shape))
        g_bar *= weights[i : i + step, None]
        s += chunk.T @ g_bar
    return s.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def _swap_middle(m, d0, d1, d2, d3) -> np.ndarray:
    """m as a (d0, d1, d2, d3) tensor with its middle axes swapped, flattened
    to a (d0 d2, d1 d3) matrix; each matrix of a (..., d0 d1, d2 d3) stack."""
    lead = m.shape[:-2]
    return m.reshape(lead + (d0, d1, d2, d3)).swapaxes(-3, -2).reshape(lead + (d0 * d2, d1 * d3))


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


def partial_transpose_mat(mat: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Partial transposition on subsystem B of a bipartite matrix, or of each
    matrix of a (..., D, D) stack."""
    mat = np.asarray(mat)
    lead = mat.shape[:-2]
    t = mat.reshape(lead + (dim_a, dim_b, dim_a, dim_b)).swapaxes(-3, -1)
    return t.reshape(lead + (dim_a * dim_b, dim_a * dim_b))


def partial_transpose(rho: DensityOperator) -> np.ndarray:
    return partial_transpose_mat(rho.mat, rho.dim_a, rho.dim_b)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending; of each matrix along the
    last axis for a (..., D, D) stack.  Raises on input that is not finite,
    or not Hermitian within SPECTRUM_HERMITICITY_TOL."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if m.size == 0:
        return np.linalg.eigvalsh(m)
    spectra = _block_spectra(_hermitian_blocks(m.reshape(math.prod(m.shape[:-2]), *m.shape[-2:])))
    return spectra.reshape(m.shape[:-1])


def is_ppt(rho: DensityOperator) -> bool:
    """Peres-Horodecki test: the partial transpose, finite and Hermitian
    within SPECTRUM_HERMITICITY_TOL, has least eigenvalue >= -PSD_TOL (_blocks_psd).

    Decides separability exactly for 2x2 and 2x3 systems; elsewhere PPT is
    only a necessary condition.
    """
    return _blocks_psd(_hermitian_blocks(partial_transpose(rho)[None]))


def negativity(rho: DensityOperator) -> float:
    """Sum of |negative eigenvalues| of the partial transpose."""
    return negativity_from_spectrum(hermitian_eigenvalues(partial_transpose(rho)))


def ppt_from_spectrum(spectra):
    """The PPT verdict read off an ascending partial-transpose spectrum already
    computed, or off each of a (m, D) stack of them: least eigenvalue >=
    -PSD_TOL, the rule that is_ppt certifies without a spectrum."""
    return np.asarray(spectra)[..., 0] >= -PSD_TOL


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
