"""Unitary 2-design machinery: exact qubit twirling over the Clifford group,
analytic twirl projectors for qudits, and Monte-Carlo Haar twirling."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    CONJUGATE_SUM_CACHE_BYTES,
    DensityOperator,
    _chunk_lengths,
    _conjugate_sum_work,
    as_unitary_stack,
    conjugate_sum,
    kron,
    partial_trace_multi,
    partial_transpose_mat,
)
from .states import flip_operator, max_entangled_mat

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PHASE = np.array([[1, 0], [0, 1j]], dtype=complex)
# the most multiply-adds of a complex matrix product (m n k) and of a
# matrix-vector product (m n) that OpenBLAS runs on one thread: a
# 45 x 45 x 32 product and a 50 x 81 one stay on one, a 45 x 45 x 33 and a
# 51 x 81 one start a second.  A threaded call waits on its threads' CPUs
# and stalls, by milliseconds, whenever another process holds one; the Gram
# route splits its products to stay within these
_SERIAL_GEMM_MACS = 2**16 - 1
_SERIAL_GEMV_MACS = 2**12 - 1


@dataclass(frozen=True)
class UnitarySet:
    """A finite set of d x d unitaries as one (K, d, d) stack (exact 2-design
    or MC Haar batch)."""

    unitaries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "unitaries", as_unitary_stack(self.unitaries))

    def __len__(self):
        return len(self.unitaries)


def _phase_canonical(u: np.ndarray) -> np.ndarray:
    """Fix the global phase so the first entry with |.| > 1e-9 is real positive."""
    flat = u.ravel()
    idx = np.argmax(np.abs(flat) > 1e-9)
    ph = flat[idx] / abs(flat[idx])
    return u / ph


def _fingerprint(u: np.ndarray) -> tuple:
    r = np.round(u, 9)
    r = r + 0.0  # normalize -0.0
    return tuple(r.ravel().tolist())


# the Clifford group, built on the first call to clifford_group_qubit
_CLIFFORD_QUBIT: UnitarySet | None = None


def clifford_group_qubit() -> UnitarySet:
    """The 24-element single-qubit Clifford group modulo global phase,
    generated by breadth-first closure over {H, S}.  Built once per process:
    every call returns the same set, its stack read-only."""
    global _CLIFFORD_QUBIT
    if _CLIFFORD_QUBIT is not None:
        return _CLIFFORD_QUBIT
    gens = [HADAMARD, PHASE]
    seen = {}
    frontier = [_phase_canonical(np.eye(2, dtype=complex))]
    seen[_fingerprint(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = _phase_canonical(g @ u)
                fp = _fingerprint(v)
                if fp not in seen:
                    seen[fp] = v
                    nxt.append(v)
        frontier = nxt
    group = UnitarySet(list(seen.values()))
    group.unitaries.setflags(write=False)
    _CLIFFORD_QUBIT = group
    return group


def twirl_operator(op: np.ndarray, uset: UnitarySet, conjugate_second: bool = False) -> np.ndarray:
    """(1/K) sum_k (U_k x V_k) op (U_k x V_k)^dag with V_k = U_k or U_k^*."""
    us = uset.unitaries
    return conjugate_sum(op, us, us.conj() if conjugate_second else us, 1.0 / len(us))


def _check_side(side: str) -> None:
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")


def partial_twirl_operator(op: np.ndarray, uset: UnitarySet, side: str, dims) -> np.ndarray:
    """(1/K) sum_k (U_k x I) op (U_k x I)^dag (or I x U_k for side B)."""
    _check_side(side)
    da, db = dims
    us = uset.unitaries
    a, b = (us, np.eye(db)[None]) if side == "A" else (np.eye(da)[None], us)
    return conjugate_sum(op, a, b, 1.0 / len(us))


# -- analytic Haar twirls for any dimension -----------------------------------
#
# The U x U Haar twirl projects onto span{I, V} (V the flip operator); the
# U x U* twirl projects onto span{I, |psi><psi|}.  Coefficients are fixed by
# matching the invariant scalars Tr(rho) and Tr(V rho) (resp. <psi|rho|psi>).

def twirl_uu_exact_mat(op: np.ndarray, d: int) -> np.ndarray:
    v = flip_operator(d)
    t = np.trace(op)
    # Tr(V op) = sum_ij op[(i, j), (j, i)]
    f = np.einsum("ijji->", np.reshape(op, (d, d, d, d)))
    # a*d^2 + b*d = t ; a*d + b*d^2 = f
    det = d * d * d * d - d * d
    a = (d * d * t - d * f) / det
    b = (d * d * f - d * t) / det
    return a * np.eye(d * d) + b * v


def twirl_uustar_exact_mat(op: np.ndarray, d: int) -> np.ndarray:
    psi = max_entangled_mat(d)
    t = np.trace(op)
    # <psi|op|psi> = (1/d) sum_kl op[(k, k), (l, l)]
    q = np.sum(np.asarray(op)[:: d + 1, :: d + 1]) / d
    # a*d^2 + b = t ; a + b = q
    a = (t - q) / (d * d - 1)
    b = q - a
    return a * np.eye(d * d) + b * psi


def twirl_exact(rho: DensityOperator, mode: str) -> DensityOperator:
    """Exact Haar twirl via the analytic projector; mode 'uu' or 'uustar'."""
    if rho.dim_a != rho.dim_b:
        raise ValueError("twirl requires isodimensional subsystems")
    d = rho.dim_a
    if mode == "uu":
        out = twirl_uu_exact_mat(rho.mat, d)
    elif mode == "uustar":
        out = twirl_uustar_exact_mat(rho.mat, d)
    else:
        raise ValueError("mode must be 'uu' or 'uustar'")
    return DensityOperator(out, d, d)


def partial_twirl_exact_mat(op: np.ndarray, dims, side: str = "A") -> np.ndarray:
    """Partial Haar average: I/d x Tr over the averaged side."""
    _check_side(side)
    da, db = dims
    if side == "A":
        red = partial_trace_multi(op, [da, db], keep=[1])
        return kron(np.eye(da) / da, red)
    red = partial_trace_multi(op, [da, db], keep=[0])
    return kron(red, np.eye(db) / db)


# -- Haar sampling and Monte-Carlo twirling -----------------------------------

@dataclass
class HaarSampler:
    """Seeded Haar-unitary sampler (Mezzadri, Notices AMS 54, 592, 2007).

    Each sample is the Q factor of a complex Ginibre matrix Z = QR whose R
    has a positive real diagonal, which makes Q Haar-distributed.  Q comes
    from column-by-column Gram-Schmidt, done twice (CGS2), on the Gaussian
    draws copied into the layout q[col, row, sample]: every step is an
    elementwise product or a sum over the rows, running along the samples.
    The stream is defined batch-wise and every sample is computed in the
    same order whatever the batch: sample_batch(3) then sample_batch(4)
    equals sample_batch(7) bit for bit.  A fixed seed reproduces an
    identical sequence.
    """

    seed: int | np.random.SeedSequence
    d: int
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)

    def sample_batch(self, n: int, work: np.ndarray | None = None) -> np.ndarray:
        """The next n samples, an (n, d, d) view of the stack q (n d^2
        complex entries).  A scratch of as many entries holds the draws and,
        once they are copied into q, the Gram-Schmidt temporaries.  `work`,
        a contiguous complex array of at least 2 n d^2 entries, is
        overwritten with q and then the scratch; without it both are
        allocated here.  The samples are the same bits either way."""
        d = self.d
        size = n * d * d
        if work is None:
            q, scratch = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
        else:
            q, scratch = work[:size], work[size : 2 * size]
        # interleaved (re, im) draws keep the stream independent of the batch
        # split; the Ginibre scale 1/sqrt(2) drops out of Q
        draws = self._rng.standard_normal(out=scratch.view(float).reshape(n, d, d, 2))
        q = q.reshape(d, d, n)
        np.copyto(q, draws.view(complex)[..., 0].transpose(2, 1, 0))
        squares = scratch.view(float)[: 2 * d * n].reshape(2, d, n)
        for j in range(d):
            v, prev = q[j], q[:j]
            # t holds the projections; the row sums c, then their sum over
            # the earlier columns u, share the entries after it
            t = scratch[: j * d * n].reshape(j, d, n)
            c = scratch[j * d * n : j * d * n + j * n].reshape(j, n)
            u = scratch[j * d * n : (j + 1) * d * n].reshape(d, n)
            # a second pass removes what rounding left of the first projection
            for _ in range(2 if j else 0):
                np.conjugate(prev, out=t)
                t *= v
                np.multiply(prev, _row_sum(t, out=c)[:, None, :], out=t)
                v -= np.sum(t, axis=0, out=u)
            np.square(v.real, out=squares[0])
            np.square(v.imag, out=squares[1])
            squares[0] += squares[1]
            norm = _row_sum(squares[0], out=squares[1, 0])
            v /= np.sqrt(norm, out=norm)
        return q.transpose(2, 1, 0)


def _row_sum(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over the row axis (-2) of a [..., row, sample] array into out, one
    row at a time: np.sum would switch to pairwise summation for a single
    sample."""
    np.copyto(out, p[..., 0, :])
    for r in range(1, p.shape[-2]):
        out += p[..., r, :]
    return out


def mc_twirl_operator(op: np.ndarray, mode: str | Sequence[str], n: int, s: HaarSampler, dims) -> np.ndarray:
    """Empirical twirl of a raw operator over n Haar samples: mode 'uu'
    (U x U), 'uustar' (U x U*) or 'partial-A' (U x I).  op is one (D, D)
    operator or an (m, D, D) stack of probes, and the result has its shape;
    mode is one mode for every probe or, with a stack, a sequence of m modes,
    one per probe.  Every probe is twirled over the same n samples, drawn
    once, and each result is bit for bit the one a call on that probe alone,
    in its mode, with a fresh sampler of the same seed, gives.

    The samples are drawn and summed in cache-sized chunks (_chunk_lengths),
    so memory does not grow with n; the sampler's stream does not depend on
    the batch split, so neither do the samples.  The U x U* twirl is taken
    as PT o (U x U twirl) o PT, so no conjugate copy of the samples is made,
    and the probes go by three routes, each chunk drawn once for all:

    - two-sided at d <= 3 (16 d^8 <= CONJUGATE_SUM_CACHE_BYTES, a rule on d
      alone): the 'uu' and transposed 'uustar' probes are twirled through
      the Gram matrix G = (1/n) sum_k s_k s_k^dag of the draw's Sym^2
      coordinates s_k = (u_p u_q)_{p <= q}, u_k = vec(U_k) (_gram_add),
      then each probe by one matrix-vector product with the d^4 x d^4
      superoperator gathered from G (_gram_superoperator), so the cost per
      sample, N^2 for N = d^2 (d^2 + 1)/2, does not grow with the number of
      probes; both products go in slices that BLAS runs on one thread
      (_SERIAL_GEMM_MACS, _SERIAL_GEMV_MACS);
    - two-sided at d >= 4: those probes as one conjugate_sum stack a chunk;
    - one-sided: the 'partial-A' probes as one conjugate_sum stack a chunk.

    Every chunk works in one workspace allocated per call, sized from the
    first chunk only: G when the Gram route runs, then the chunk's samples,
    then a scratch that the sampler's draws and Gram-Schmidt temporaries use
    first and the routes' buffers, of whichever routes run, reuse once the
    samples are drawn; the superoperator is built there after the last
    draw.  Apart from it, memory grows with m only through the m results
    and one copy of op, the routes' stack, which the results then fill.
    The sampler's d must be the dimension of each twirled side; the modes
    and op's shape are checked before any draw.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    op = np.asarray(op, dtype=complex)
    if isinstance(mode, str):
        modes = [mode] * (len(op) if op.ndim == 3 else 1)
    elif op.ndim == 3 and len(mode) == len(op):
        modes = list(mode)
    else:
        raise ValueError(f"{len(mode)} modes for an operator of shape {op.shape}: give one per probe of a stack")
    for name in modes:
        if name not in ("uu", "uustar", "partial-A"):
            raise ValueError(f"unknown mode {name!r}")
    da, db = dims
    both = [m != "partial-A" for m in modes]  # else side B's matrix is the identity
    if da != s.d or (any(both) and db != s.d):
        raise ValueError(f"mode {mode!r} with dims ({da}, {db}) does not match a sampler of d = {s.d}")
    if op.ndim not in (2, 3) or op.shape[-2:] != (da * db, da * db):
        raise ValueError(f"operator shape {op.shape} does not match dims ({da}, {db})")
    probes = op.reshape(-1, da * db, da * db)
    # the routes' stack, a copy of op that holds the results at the end: the
    # two-sided probes, the 'uustar' ones transposed, then the one-sided
    # ones, each in the caller's order
    order = sorted(range(len(probes)), key=lambda i: not both[i])
    star = [modes[i] == "uustar" for i in order]
    x = np.empty_like(probes)
    for j, i in enumerate(order):
        x[j] = partial_transpose_mat(probes[i], da, db) if star[j] else probes[i]
    k = sum(both)
    # the Gram route when the d^4 x d^4 superoperator fits in the cache
    # budget (d <= 3); the budget bound at import, so the route depends on
    # d alone, not on a budget patched to split the samples finer
    gram = k > 0 and 16 * s.d**8 <= CONJUGATE_SUM_CACHE_BYTES
    chunks = _chunk_lengths(n, s.d * s.d)
    stack = chunks[0] * s.d * s.d
    # the scratch of whichever routes run
    kernel = max(
        [
            _gram_work(chunks[0], s.d) if b and gram else _conjugate_sum_work(chunks[0], chunks[0] if b else 1, da, db)
            for b in set(both)
        ],
        default=0,
    )
    # G ahead of the samples, where no draw writes
    pairs = s.d * s.d * (s.d * s.d + 1) // 2 if gram else 0
    head = pairs * pairs
    work = np.empty(head + stack + max(stack, kernel), dtype=complex)
    g = work[:head].reshape(pairs, pairs)
    g.fill(0)
    eye = np.eye(db)[None]
    out = np.zeros(x.shape, dtype=complex)
    for m in chunks:
        us = s.sample_batch(m, work=work[head:])
        scratch = work[head + m * s.d * s.d :]
        if gram:
            _gram_add(g, us, scratch)
        elif k:
            out[:k] += conjugate_sum(x[:k], us, us, 1.0 / n, work=scratch)
        if k < len(x):
            out[k:] += conjugate_sum(x[k:], us, eye, 1.0 / n, work=scratch)
    if gram:
        g *= 1.0 / n
        sup = _gram_superoperator(g, s.d, work[head:])
        step = max(1, _SERIAL_GEMV_MACS // len(sup))
        for x_j, out_j in zip(x[:k], out[:k]):
            for rows in (slice(a, a + step) for a in range(0, len(sup), step)):
                np.matmul(sup[rows], x_j.reshape(-1), out=out_j.reshape(-1)[rows])
    # the results back in op's copy, in the caller's order, 'uustar' transposed back
    for j, i in enumerate(order):
        x[i] = partial_transpose_mat(out[j], da, db) if star[j] else out[j]
    return x.reshape(op.shape)


def _sym_pairs(dd: int) -> np.ndarray:
    """The symmetric pair index pi[p, q] = pi[q, p] of p, q < dd: the row of
    u_p u_q among the N = dd (dd + 1)/2 Sym^2 coordinates, the pairs p <= q
    in row-major order, as _gram_add builds them."""
    p, q = np.indices((dd, dd))
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    return lo * dd - lo * (lo - 1) // 2 + hi - lo


def _gram_work(m: int, d: int) -> int:
    """Complex entries of scratch that the Gram route uses after a first
    chunk of m samples, G apart: while summing, S and its conjugate for the
    first sub-chunk of L samples (N L entries each) and their product (N^2);
    then G gathered to d^4 x d^4 and the superoperator (d^8 entries each,
    _gram_superoperator)."""
    pairs = d * d * (d * d + 1) // 2
    return max(2 * pairs * _chunk_lengths(m, pairs)[0] + pairs * pairs, 2 * d**8)


def _gram_add(g: np.ndarray, us: np.ndarray, work: np.ndarray) -> None:
    """Add sum_k s_k s_k^dag to the (N, N) Gram matrix g over a chunk us of
    the sampler's (m, d, d) samples, s_k[pi(p, q)] = u_p u_q for p <= q,
    u_k = vec(U_k) in (column, row) order (_sym_pairs).  The samples go in
    sub-chunks of _chunk_lengths(m, N); one sub-chunk's S, its conjugate and
    the product S S^dag of each slice of _SERIAL_GEMM_MACS / N^2 of its
    columns are views of work (_gram_work)."""
    m, d = len(us), us.shape[-1]
    dd, pairs = d * d, len(g)
    # column k is u_k: a view of the sampler's q[col, row, sample] layout
    ut = us.transpose(2, 1, 0).reshape(dd, m)
    # the pairs p <= q in row-major order, the order of _sym_pairs
    rows = [(p, q) for p in range(dd) for q in range(p, dd)]
    lengths = _chunk_lengths(m, pairs)
    step = max(1, _SERIAL_GEMM_MACS // (pairs * pairs))
    ends = np.cumsum([pairs * lengths[0]] * 2)
    s_buf, bar_buf, product = np.split(work[: ends[-1] + pairs * pairs], ends)
    start = 0
    for length in lengths:
        u = ut[:, start : start + length]
        start += length
        s = s_buf[: pairs * length].reshape(pairs, length)
        # one 1-D product a row: a broadcast u[p:] * u[p] over the strided
        # rows would make numpy allocate ~0.2 MiB of iterator buffers
        for row, (p, q) in enumerate(rows):
            np.multiply(u[p], u[q], out=s[row])
        s_bar = np.conjugate(s, out=bar_buf[: pairs * length].reshape(pairs, length))
        for cols in (slice(a, a + step) for a in range(0, length, step)):
            g += np.matmul(s[:, cols], s_bar[:, cols].T, out=product.reshape(pairs, pairs))


def _gram_superoperator(g: np.ndarray, d: int, work: np.ndarray) -> np.ndarray:
    """The (d^4, d^4) superoperator sup[(a b a' b'), (c e c' e')] =
    g[pi(ca, eb), pi(c'a', e'b')] of the Gram matrix g, which maps vec(X) to
    vec(sum_k (U_k x U_k) X (U_k x U_k)^dag) with g = sum_k s_k s_k^dag.
    Built in the first 2 d^8 entries of work: g's rows gathered, then their
    columns, then sup over the rows' place."""
    dd, size = d * d, d**4
    # idx[a, b, c, e] = pi(ca, eb)
    idx = _sym_pairs(dd).reshape(d, d, d, d).transpose(1, 3, 0, 2).ravel()
    # mode 'clip' writes into out directly ('raise' would buffer a copy); every index is in range
    rows = np.take(g, idx, axis=0, out=work[: size * len(g)].reshape(size, len(g)), mode="clip")
    full = np.take(rows, idx, axis=1, out=work[size * size : 2 * size * size].reshape(size, size), mode="clip")
    # full is [(a b), (c e), (a' b'), (c' e')]: bring (a' b') ahead of (c e)
    sup = work[: size * size].reshape(dd, dd, dd, dd)
    np.copyto(sup, full.reshape(dd, dd, dd, dd).transpose(0, 2, 1, 3))
    return sup.reshape(size, size)


def mc_twirl(rho: DensityOperator, mode: str, n: int, s: HaarSampler) -> DensityOperator:
    """Empirical twirl over n Haar samples; statistical error O(1/sqrt(n))."""
    out = mc_twirl_operator(rho.mat, mode, n, s, (rho.dim_a, rho.dim_b))
    return DensityOperator(out, rho.dim_a, rho.dim_b)


def pt_conjugated_twirl(op: np.ndarray, uset: UnitarySet, d: int) -> np.ndarray:
    """PT o twirl_uu o PT, the partial-transposition conjugation of the
    U x U twirl (equals the U x U* twirl)."""
    inner = partial_transpose_mat(op, d, d)
    inner = twirl_operator(inner, uset)
    return partial_transpose_mat(inner, d, d)
