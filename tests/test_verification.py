"""The verify suite: its check list, and the stacked dephasing and EB-threshold
sweeps against the per-point loops they replaced."""

import tracemalloc

import numpy as np
import pytest

from twirlbreak import channels, gaussian, linalg, verification
from twirlbreak.states import random_pure

CHECK_NAMES = [
    "eb-threshold",
    *(
        f"headline-{kind}(gamma={gamma})"
        for gamma in (0.4, 0.6, 0.9)
        for kind in ("single-neg", "double-invariance", "double-neg")
    ),
    "clifford-cardinality",
    "clifford-partial-twirl-basis",
    "clifford-span-IV",
    *(
        name
        for d in (2, 3, 4)
        for name in (
            f"werner-exact-uu(d={d})",
            f"isotropic-exact-uustar(d={d})",
            f"werner-mc-uu(d={d})",
            f"isotropic-mc-uustar(d={d})",
            f"single-transmission-product-mc(d={d})",
        )
    ),
    "pt-conjugation-identity",
    "partial-haar-exact(d=2)",
    "partial-haar-mc(d=3)",
    "epr-anticorrelated-invariance",
    "epr-pt-symplectic-closed-form",
    "correlated-family-dimension",
    "correlated-family-membership",
    "correlated-family-separable",
    "dephased-output-ppt",
    "dephased-separable-decomposition",
    "pauli-env-classical",
    "pauli-dilation-vs-kraus",
    "twirl-env-classical",
    "twirl-dilation-vs-kraus",
]

CUTOFFS = (4, 6, 8)
POINTS = 100  # per cutoff
CHANNELS = 200


def test_check_names_and_order_are_pinned():
    results = verification.run_all(verification.VerifyConfig())
    assert len(CHECK_NAMES) == 42
    assert [r.name for r in results] == CHECK_NAMES
    for r in results:
        assert r.passed == (r.residual <= r.tolerance), r.name


def test_map_distance_reads_every_matrix_unit():
    # the transpose differs from the identity map only on the off-diagonal
    # units, each by sqrt(2); a map equal to f reads exactly 0
    assert verification._map_distance(3, lambda e: e, lambda e: e.copy()) == 0.0
    assert verification._map_distance(3, lambda e: e, lambda e: e, lambda e: e.T) == np.sqrt(2)
    # a map that differs on one unit only (E_10 -> 0) reads that unit's distance
    assert verification._map_distance(2, lambda e: e, lambda e: 0 * e if e[1, 0] else e) == 1.0


def test_clifford_basis_residuals_do_not_depend_on_the_seed():
    # the four Clifford gates read the matrix units and draw nothing
    names = ("clifford-partial-twirl-basis", "clifford-span-IV", "pt-conjugation-identity", "partial-haar-exact(d=2)")

    def residuals(seed):
        cfg = verification.VerifyConfig(seed=seed, mc_samples=100)
        checks = (verification.check_2design, verification.check_pt_conjugation, verification.check_partial_haar)
        return {r.name: r.residual for check in checks for r in check(cfg) if r.name in names}

    first = residuals(20240611)
    assert list(first) == list(names)
    assert residuals(913) == first


# -- reference loops over the public per-object functions ----------------------

def _dephasing_loop(seed):
    """Per cutoff, the input states and, per point, the least PT eigenvalue
    and the reconstruction error, one validated object at a time."""
    rng = np.random.default_rng(seed)
    out = {}
    for n in CUTOFFS:
        inputs, min_pt, rec_error = [], [], []
        for _ in range(POINTS):
            pure = random_pure(n, n, rng)
            dephased = gaussian.dephase_truncated(pure)
            min_pt.append(gaussian.min_pt_eigenvalue(dephased))
            comps = gaussian.separable_decomposition_dephased(pure)
            rec = gaussian.reconstruct_decomposition(comps, n)
            rec_error.append(float(np.max(np.abs(rec - dephased.mat))))
            inputs.append(pure.mat)
        out[n] = (np.array(inputs), np.array(min_pt), np.array(rec_error))
    return out


def _eb_loop(seed):
    rng = np.random.default_rng(seed)
    probs, verdicts, spectra = [], [], []
    for _ in range(CHANNELS):
        p = channels.ProbabilityVector(tuple(rng.dirichlet(np.ones(4))))
        ppt, spec = channels.is_entanglement_breaking(channels.local_depolarizing(p))
        probs.append(p.p)
        verdicts.append(ppt)
        spectra.append(spec)
    return np.array(probs), np.array(verdicts), np.array(spectra)


def _recorded(monkeypatch, module, name):
    """Wrap module.name so that the arguments and result of every call are
    kept, in order."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        out = original(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_dephasing_sweep_matches_per_point_loop(monkeypatch):
    cfg = verification.VerifyConfig()
    loop = _dephasing_loop(cfg.seed + 5)
    calls = _recorded(monkeypatch, gaussian, "dephasing_sweep")
    ppt, rec = verification.check_dephasing(cfg)
    for n in CUTOFFS:
        # the same states in the same order (the outputs are ~0 for any state)
        v = np.concatenate([args[0] for args, _ in calls if args[1] == n])
        assert np.max(np.abs(v[:, :, None] * v.conj()[:, None, :] - loop[n][0])) <= 1e-15
        for i in (1, 2):
            stacked = np.concatenate([out[i - 1] for args, out in calls if args[1] == n])
            assert stacked.shape == loop[n][i].shape
            assert np.max(np.abs(stacked - loop[n][i])) <= 1e-15
    assert abs(ppt.residual - max(0.0, max(-np.min(loop[n][1]) for n in CUTOFFS))) <= 1e-15
    assert abs(rec.residual - max(np.max(loop[n][2]) for n in CUTOFFS)) <= 1e-15


def test_eb_sweep_matches_per_point_loop(monkeypatch):
    cfg = verification.VerifyConfig()
    probs, verdicts, spectra = _eb_loop(cfg.seed)
    calls = _recorded(monkeypatch, channels, "choi_pt_spectra")
    (result,) = verification.check_eb_threshold(cfg)
    spec = np.concatenate([out for _, out in calls])
    assert spec.shape == spectra.shape
    assert np.max(np.abs(spec - spectra)) <= 1e-15
    assert np.array_equal(spec[:, 0] >= -linalg.PSD_TOL, verdicts)
    worst = np.max(np.abs(spectra - np.sort(0.5 - probs, axis=1)))
    assert result.passed
    assert abs(result.residual - worst) <= 1e-15
    # the stacked draw is the loop's stream
    p = np.random.default_rng(cfg.seed).dirichlet(np.ones(4), size=CHANNELS)
    assert np.array_equal(p, probs)


def _fixed_chunks(size):
    def lengths(total, entries):
        return [min(size, total - s) for s in range(0, total, size)]

    return lengths


def _sweep_outputs(monkeypatch, chunk_size):
    cfg = verification.VerifyConfig()
    with monkeypatch.context() as mp:
        if chunk_size is not None:
            mp.setattr(verification, "_chunk_lengths", _fixed_chunks(chunk_size))
        dephasing = _recorded(mp, gaussian, "dephasing_sweep")
        choi = _recorded(mp, channels, "choi_pt_spectra")
        results = verification.check_eb_threshold(cfg) + verification.check_dephasing(cfg)
    inputs = np.concatenate([np.abs(args[0]).ravel() for args, _ in dephasing])
    per_point = [inputs] + [np.concatenate([out[i] for _, out in dephasing]) for i in (0, 1)]
    return results, per_point, np.concatenate([out for _, out in choi])


@pytest.mark.parametrize("chunk_size", [1, 3, 7])
def test_sweeps_do_not_depend_on_chunk_size(monkeypatch, chunk_size):
    results, per_point, spectra = _sweep_outputs(monkeypatch, None)
    forced, forced_per_point, forced_spectra = _sweep_outputs(monkeypatch, chunk_size)
    assert len(per_point[1]) == len(forced_per_point[1]) == len(CUTOFFS) * POINTS
    assert len(spectra) == len(forced_spectra) == CHANNELS
    for a, b in zip(per_point, forced_per_point):
        assert np.max(np.abs(a - b)) <= 1e-15
    assert np.max(np.abs(spectra - forced_spectra)) <= 1e-15
    assert [r.name for r in results] == [r.name for r in forced]
    assert [r.passed for r in results] == [r.passed for r in forced]
    for r, f in zip(results, forced):
        assert abs(r.residual - f.residual) <= 1e-15


def _bad_members():
    non_hermitian = np.eye(4, dtype=complex) / 4
    non_hermitian[0, 1] = 0.1
    wrong_trace = np.eye(4, dtype=complex)
    not_psd = np.diag([1.5, -0.5, 0, 0]).astype(complex)
    not_finite = np.eye(4, dtype=complex) / 4
    not_finite[1, 1] = np.nan
    return [non_hermitian, wrong_trace, not_psd, not_finite]


def _validate_as_blocks(stack):
    """linalg._validate_blocks on each member of a (m, D, D) stack as one
    block, after the finiteness check that its callers make first."""
    linalg._require_finite(stack)
    linalg._validate_blocks([stack[:, None]])
    return stack


STACK_VALIDATORS = {
    "blockwise": linalg.validate_density_stack,
    "given-blocks": _validate_as_blocks,
}


@pytest.mark.parametrize("bad_index", range(4))
def test_stacked_validator_rejects_one_bad_member(bad_index):
    bad = _bad_members()[bad_index]
    with pytest.raises(ValueError) as single:
        linalg.DensityOperator(bad, 2, 2)
    rng = np.random.default_rng(bad_index)
    good = [random_pure(2, 2, rng).mat for _ in range(4)]
    stack = np.stack(good[:2] + [bad] + good[2:])
    for validate in STACK_VALIDATORS.values():
        assert np.array_equal(validate(np.delete(stack, 2, axis=0)), np.stack(good))
        with pytest.raises(ValueError) as stacked:
            validate(stack)
        assert str(stacked.value) == str(single.value)


@pytest.mark.parametrize("validator", sorted(STACK_VALIDATORS))
def test_stacked_validators_report_the_first_failed_check(validator):
    # the checks run in the order finite, Hermitian, unit trace, PSD; a
    # member that fails several is reported by the first
    non_hermitian, _, not_psd, not_finite = _bad_members()
    cases = [
        (not_finite + 4 * non_hermitian, "NaN/Inf"),
        (non_hermitian + 2 * not_psd, "not Hermitian"),
        (2 * not_psd, "unit trace"),
        (not_psd, "positive semidefinite"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            STACK_VALIDATORS[validator](bad[None])


def _random_vectors(m, n, seed):
    z = np.random.default_rng(seed).standard_normal((m, 2, n * n))
    v = z[:, 0] + 1j * z[:, 1]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_dephasing_sweep_solves_each_input_stack_once(monkeypatch):
    # one Cholesky of the dense input stack, its single component read as an
    # (m, 1, n^2, n^2) array, certifies it; the state vectors are read from
    # it without an eigen-solve, and the dephased output's factorisations
    # and spectra are per n x n block
    n, m = 4, 5
    solves = []
    for name in ("cholesky", "eigh", "eigvalsh"):

        def wrapper(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            solves.append((_name, np.shape(a)))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    gaussian.dephasing_sweep(_random_vectors(m, n, 8), n)
    assert [(name, shape) for name, shape in solves if shape[-1] == n * n] == [("cholesky", (m, 1, n * n, n * n))]
    assert {name for name, _ in solves} == {"cholesky", "eigvalsh"}


def test_dephasing_sweep_solves_no_spectrum_but_the_partial_transposes(monkeypatch):
    # the input and output validation and the state-vector read call no
    # eigen-solve; only the reported partial-transpose spectra do, one
    # batched eigvalsh of the transposed n x n blocks of every output
    def refuse(*args, **kwargs):
        raise AssertionError("eigen-solve outside the partial-transpose spectra")

    spectra = []

    def pt_spectra(mats):
        spectra.append(mats.shape)
        return np.zeros(mats.shape[:-1])

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", pt_spectra)
    n, m = 4, 3
    _, rec_error = gaussian.dephasing_sweep(_random_vectors(m, n, 9), n)
    assert spectra == [(m, n, n, n)]
    assert rec_error.max() < 1e-15


def test_dephasing_sweep_reads_each_state_vector_up_to_a_phase():
    # the rebuilt output does not depend on the global phase of the input,
    # nor on where its largest amplitude sits; v[:, 0] = 0 here, so a read of
    # column 0 would divide by zero
    n, m = 4, 4
    v = _random_vectors(m, n, 10)
    v[:, 0] = 0
    v[:, 2 * n + 1] *= 6
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    assert np.all(np.argmax(np.abs(v), axis=1) == 2 * n + 1)
    phases = np.exp(1j * np.array([0.0, 0.7, 2.9, -1.3]))
    _, rec_error = gaussian.dephasing_sweep(v, n)
    _, rec_error_phased = gaussian.dephasing_sweep(phases[:, None] * v, n)
    assert rec_error.max() < 1e-15
    assert rec_error_phased.max() < 1e-15


def test_dephasing_sweep_validates_its_input():
    n = 3
    v = np.full((2, n * n), 1 / n, dtype=complex)
    gaussian.dephasing_sweep(v, n)
    v[1, 2] = np.nan
    with pytest.raises(ValueError, match="NaN/Inf"):
        gaussian.dephasing_sweep(v, n)
    v[1, 2] = 2 / n
    with pytest.raises(ValueError, match="unit trace"):
        gaussian.dephasing_sweep(v, n)


def test_dephasing_memory_is_bounded_by_chunk_budget():
    # bound fixed from the layout: a chunk holds one dense (m, n^2, n^2)
    # input stack within the budget, and its validation at most two and a
    # half stacks of temporaries at once (the conjugate, the difference and
    # its real modulus in the Hermiticity check; the shifted copy and the
    # factor in the Cholesky); the dephased outputs are (m, n, n, n) blocks,
    # 1/n of a stack each; an unchunked (100, 64, 64) stack alone takes 12.5
    # budgets
    cfg = verification.VerifyConfig()
    tracemalloc.start()
    try:
        verification.check_dephasing(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * linalg.CONJUGATE_SUM_CACHE_BYTES


def _dense_sweep(v, n):
    """dephasing_sweep's outputs by the dense route: the (m, n^2, n^2)
    dephased stack validated whole, its partial-transpose spectra through
    the component search, and the decomposition rebuilt as a dense matrix."""
    pure = linalg.validate_density_stack(v[:, :, None] * v.conj()[:, None, :])
    dephased = linalg.validate_density_stack(gaussian._dephase(pure, np.arange(n * n), n))
    weights, xi = gaussian._decompose(pure, n)
    rec = gaussian._separable_sum(weights, np.broadcast_to(np.eye(n), xi.shape), xi)
    return gaussian._min_pt_eigenvalues(dephased, n), np.max(np.abs(rec - dephased), axis=(1, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_dephasing_sweep_matches_the_dense_route(n):
    # member 0 has an empty k-block, which the dense route's component
    # search splits into 1x1 blocks when it is alone in its chunk; member 1
    # has its largest amplitude off column 0
    for seed in range(3):
        v = _random_vectors(5, n, seed)
        v[0, n : 2 * n] = 0
        v[1, 0] = 0
        v[1, n + 1] = 4
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        assert np.argmax(np.abs(v[1])) == n + 1
        for chunk in (v, v[:1], v[1:2]):
            min_pt, rec_error = gaussian.dephasing_sweep(chunk, n)
            dense_min_pt, dense_rec_error = _dense_sweep(chunk, n)
            assert np.array_equal(min_pt, dense_min_pt)
            assert np.max(np.abs(rec_error - dense_rec_error)) <= 1e-16
