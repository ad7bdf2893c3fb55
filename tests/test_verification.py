"""The verify suite: its check list, the stacked dephasing and EB-threshold
sweeps against the per-point loops they replaced, and the one dephasing rule
that verify and the bosonic scenario share."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from twirlbreak import channels, experiments, gaussian, linalg, verification
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
    "epr-in-anticorrelated-family",
    "bona-fide-boundary",
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
    assert len(CHECK_NAMES) == 44
    assert [r.name for r in results] == CHECK_NAMES
    for r in results:
        assert r.passed == (r.residual <= r.tolerance), r.name


def test_every_verdict_is_a_python_bool():
    # a numpy bool is no JSON value; the Monte-Carlo gates' tolerance
    # 5/sqrt(n) is computed in numpy
    doc = experiments.run_verify(experiments.ExperimentConfig("verify", {"mc_samples": 200}))
    assert len(doc["checks"]) == 44
    assert [c["name"] for c in doc["checks"] if type(c["passed"]) is not bool] == []
    assert [c["name"] for c in doc["checks"] if type(c["tolerance"]) is not float] == []
    assert type(doc["all_passed"]) is bool


def test_a_gate_reads_the_largest_residual_and_keeps_a_nan():
    # the max of finite residuals, a -0.0 read as 0.0
    result = verification._result
    assert result("g", [1e-13, 3e-12, 2e-12], 1e-11) == verification.CheckResult("g", True, 3e-12, 1e-11)
    assert result("g", 2.0, 1.0) == verification.CheckResult("g", False, 2.0, 1.0)
    assert np.copysign(1.0, result("g", [-0.0], 0.0).residual) == 1.0
    assert not result("g", 0.0, 1.0, ok=False).passed
    # a NaN anywhere, or an infinity, fails the gate by its own name
    for residuals in ([0.0, np.nan, 1.0], [np.nan, 0.0], 0.5 * np.array([1.0, np.nan]), [np.inf]):
        r = result("g", residuals, 1e-10)
        assert (r.name, r.passed, r.residual, r.tolerance) == ("g", False, None, 1e-10)
        assert r.error.startswith("non-finite residual")


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


def _generator_seeds(monkeypatch, seed):
    """The seed of every random generator that run_all makes at a seed, the
    Haar samplers' included, in order."""
    seeds, default_rng = [], np.random.default_rng

    def recording(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", recording)
        verification.run_all(verification.VerifyConfig(seed=seed, mc_samples=100))
    return seeds


def test_every_draw_has_its_own_stream(monkeypatch):
    # each generator is seeded by a SeedSequence spawned from the config's
    # seed, one child per check group and within it one per Haar sampler and
    # one for the probes: ten in all, and no two streams alike, within a run
    # or between seeds s and s + 1 (whose cfg.seed + k streams overlapped)
    runs = [_generator_seeds(monkeypatch, seed) for seed in (20240611, 20240612)]
    for seed, seeds in zip((20240611, 20240612), runs):
        assert all(isinstance(q, np.random.SeedSequence) and q.entropy == seed for q in seeds)
        assert len(seeds) == 10
        assert len({q.spawn_key for q in seeds}) == len(seeds)
    states = {tuple(q.generate_state(4)) for seeds in runs for q in seeds}
    assert len(states) == 2 * 10


# -- reference loops over the public per-object functions ----------------------

def _dephasing_loop(stream):
    """Per cutoff, the input states and, per point, the least PT eigenvalue
    and the reconstruction error, one validated object at a time."""
    rng = np.random.default_rng(stream)
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


def _eb_loop(stream):
    rng = np.random.default_rng(stream)
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
    (probes,) = verification._streams(cfg, "dephasing")
    loop = _dephasing_loop(probes)
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
    (probes,) = verification._streams(cfg, "eb-threshold")
    probs, verdicts, spectra = _eb_loop(probes)
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
    p = np.random.default_rng(probes).dirichlet(np.ones(4), size=CHANNELS)
    assert np.array_equal(p, probs)


def _fixed_chunks(size):
    def lengths(total, entries):
        return [min(size, total - s) for s in range(0, total, size)]

    return lengths


def _sweep_outputs(monkeypatch, chunk_size):
    cfg = verification.VerifyConfig()
    with monkeypatch.context() as mp:
        if chunk_size is not None:
            mp.setattr(gaussian, "_chunk_lengths", _fixed_chunks(chunk_size))
        dephasing = _recorded(mp, gaussian, "dephasing_sweep")
        results = verification.check_dephasing(cfg)
    inputs = np.concatenate([np.abs(args[0]).ravel() for args, _ in dephasing])
    per_point = [inputs] + [np.concatenate([out[i] for _, out in dephasing]) for i in (0, 1)]
    return results, per_point


@pytest.mark.parametrize("chunk_size", [1, 3, 7])
def test_dephasing_sweep_does_not_depend_on_chunk_size(monkeypatch, chunk_size):
    results, per_point = _sweep_outputs(monkeypatch, None)
    forced, forced_per_point = _sweep_outputs(monkeypatch, chunk_size)
    assert len(per_point[1]) == len(forced_per_point[1]) == len(CUTOFFS) * POINTS
    for a, b in zip(per_point, forced_per_point):
        assert np.max(np.abs(a - b)) <= 1e-15
    assert [r.name for r in results] == [r.name for r in forced]
    assert [r.passed for r in results] == [r.passed for r in forced]
    for r, f in zip(results, forced):
        assert abs(r.residual - f.residual) <= 1e-15


def test_bosonic_rows_and_verify_share_the_dephasing_rule(monkeypatch):
    # one k-block rule serves both, so verify checks the rule the scenario
    # runs: on the squeezed vacuum's support |kk> (one index per k-block)
    # and on the full Fock basis (n indices per k-block)
    calls = _recorded(monkeypatch, gaussian, "dephased_blocks")
    config = Path(__file__).resolve().parent.parent / "configs" / "bosonic.json"
    rows = experiments.run_bosonic_scenario(experiments.ExperimentConfig.from_file("bosonic", config))
    cutoffs = [row.params["fock_cutoff"] for row in rows if row.params["mode"] == "anticorrelated"]
    assert [(args[0].shape, args[1]) for args, _ in calls] == [((1, n, n), n) for n in cutoffs]
    calls.clear()
    verification.check_dephasing(verification.VerifyConfig())
    shapes = [(args[0].shape, args[1]) for args, _ in calls]
    assert {n for _, n in shapes} == set(CUTOFFS)
    assert all(shape[1:] == (n * n, n * n) for shape, n in shapes)
    assert sum(shape[0] for shape, _ in shapes) == len(CUTOFFS) * POINTS


def test_every_ppt_verdict_reads_the_linalg_rule(monkeypatch):
    # the scenario rows and the EB-threshold gate take their PPT verdicts
    # from linalg.ppt_from_spectrum, on the spectra they report
    calls = []

    def recorder(spectra):
        out = linalg.ppt_from_spectrum(spectra)
        calls.append((np.asarray(spectra), out))
        return out

    for module in (channels, experiments, verification):
        monkeypatch.setattr(module, "ppt_from_spectrum", recorder)
    configs = Path(__file__).resolve().parent.parent / "configs"

    def run(scenario, runner, config):
        calls.clear()
        return runner(experiments.ExperimentConfig.from_file(scenario, configs / config))

    # pauli, through is_entanglement_breaking: one verdict for every row
    rows = run("pauli", experiments.run_pauli_scenario, "pauli.json")
    assert len(calls) == 1
    assert {row.eb_verdict for row in rows} == {"EB" if calls[0][1] else "NOT-EB"}
    rows = run("qudit-twirl", experiments.run_qudit_scenario, "qudit_werner_d3.json")
    assert [row.eb_verdict for row in rows] == ["PPT" if out else "NPT (entanglement preserved)" for _, out in calls]
    rows = [row for row in run("bosonic", experiments.run_bosonic_scenario, "bosonic.json") if "mu" in row.params]
    assert [row.eb_verdict for row in rows] == ["EB (dephased output PPT)" if out else "NOT-EB" for _, out in calls]
    assert [row.params["dephased_min_pt_eigenvalue"] for row in rows] == [spec[0] for spec, _ in calls]
    (row,) = run("eb-test", experiments.run_eb_test, "eb_test.json")
    ((spec, out),) = calls
    assert (row.params["witness_spectrum"], row.eb_verdict) == (list(spec), "EB" if out else "NOT-EB")
    calls.clear()
    (result,) = verification.check_eb_threshold(verification.VerifyConfig())
    assert [spec.shape for spec, _ in calls] == [(200, 4)]
    assert result.passed


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
    # input stack within the budget, and its validation at most two stacks
    # of temporaries at once (the shifted copy and the factor in the
    # Cholesky; the Hermiticity check holds one and a half: the conjugate,
    # with the transpose subtracted in place, and its real modulus); the
    # dephased outputs are (m, n, n, n) blocks, 1/n of a stack each, and the
    # drawn vectors of a cutoff 0.2 budgets at n = 8, within the last half
    # budget; an unchunked (100, 64, 64) stack alone takes 12.5 budgets
    cfg = verification.VerifyConfig()
    # numpy imports numpy.random on first use, ~0.6 MiB that a cold process
    # would count inside the window; import it first, so the peak does not
    # depend on which tests ran before
    import numpy.random  # noqa: F401

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
    dephased = linalg.validate_density_stack(gaussian._dephase(pure, n))
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
