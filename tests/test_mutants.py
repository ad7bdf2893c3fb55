"""Defects in the package that the `verify` suite must fail.

Each case rewrites one line of a package function (a kernel, a map, a
sampler's output, a Gaussian closed form or a check itself), installs the
rewritten function wherever the package imported the original, the check
table verification.ALL_CHECKS included, and runs, through
verification.run_all, only the check groups of ALL_CHECKS it targets, to
keep the cases fast.  On the code as written every gate passes
(tests/test_acceptance.py).

A case names the gates it must fail by name, each as its own result with its
tolerance, and, separately, the check groups that raise on it (a member that
is not a density matrix, say): such a group is one failed result under the
group's name, as `verify` reports it, which hides which of its gates would
fail.  A gate whose residual is NaN fails by name, its entry carrying the
error in place of a residual, and the other gates of its group still report.
Every gate pinned in tests/test_verification.py is failed by name by some
case, or is an identity by construction, declared with its reason in
IDENTITIES.  The Pauli dilation gate is not named for a dropped conjugate,
in the kernel or on V in the dense control: every P x P is real, so it
passes those defects.

NEAR_MISSES holds defects at rounding scale that every gate passes at the
tolerances as set: each is pinned as passing, so a tolerance tightened to
catch it shows here, and the case then moves to MUTANTS.  KERNEL_ONLY holds
defects that every gate passes but a kernel test fails, each pinned as both.
"""

import inspect
import json
import sys
import textwrap

import numpy as np
import pytest

from test_twirl import gram_route_error
from test_verification import CHECK_NAMES
from twirlbreak import channels, gaussian, linalg, twirl, verification
from twirlbreak.cli import main

HEADLINE = [f"headline-{{}}(gamma={gamma})" for gamma in (0.4, 0.6, 0.9)]

# (module, function, line as written, defective line, groups to run,
#  gates that must fail by name, groups that raise)
MUTANTS = {
    "two-sided-conjugate-dropped": (
        linalg,
        "conjugate_sum",
        "np.conjugate(y, out=y).reshape",
        "y.reshape",
        ["2design", "pt-conjugation", "dilations"],
        ["clifford-span-IV", "pt-conjugation-identity", "twirl-dilation-vs-kraus"],
        [],
    ),
    # the conjugate of each two-sided sum: the Clifford twirls of the real
    # matrix units that the 2design and pt-conjugation gates compare are real
    # too, so only the Haar twirl dilation's gate fails
    "two-sided-outer-conjugate-dropped": (
        linalg,
        "conjugate_sum",
        "acc += np.conjugate(p, out=p)",
        "acc += p",
        ["dilations"],
        ["twirl-dilation-vs-kraus"],
        [],
    ),
    "one-sided-conjugate-dropped": (
        linalg,
        "_superoperator",
        "g_bar = np.conjugate(chunk, out=",
        "g_bar = np.positive(chunk, out=",
        ["2design", "partial-haar"],
        ["clifford-partial-twirl-basis", "partial-haar-exact(d=2)", "partial-haar-mc(d=3)"],
        [],
    ),
    "stacks-swapped": (
        linalg,
        "conjugate_sum",
        "    op = np.asarray(op, dtype=complex)\n",
        "    op = np.asarray(op, dtype=complex)\n    a, b = b, a\n",
        ["2design", "qudit-invariance", "partial-haar", "dilations"],
        [
            "clifford-partial-twirl-basis",
            "single-transmission-product-mc(d=2)",
            "single-transmission-product-mc(d=3)",
            "single-transmission-product-mc(d=4)",
            "partial-haar-exact(d=2)",
            "partial-haar-mc(d=3)",
            "twirl-dilation-vs-kraus",
        ],
        [],
    ),
    "weights-not-square-rooted": (
        linalg,
        "conjugate_sum",
        "root_w = np.sqrt(weights)",
        "root_w = weights",
        ["2design", "dilations"],
        ["clifford-span-IV", "pauli-dilation-vs-kraus", "twirl-dilation-vs-kraus"],
        [],
    ),
    # the dense reference's environment holds p_k on |k, k+1 mod K>: the
    # controls pair U_k with V_(k+1), so both dilation gates fail
    "environment-off-the-diagonal": (
        channels,
        "DilatedChannel",
        "np.diag(self.probabilities.p).ravel()",
        "np.roll(np.diag(self.probabilities.p), 1, axis=1).ravel()",
        ["dilations"],
        ["pauli-dilation-vs-kraus", "twirl-dilation-vs-kraus"],
        [],
    ),
    # U_k x conj(V_l) in the control: P x conj(P) = +-P x P for every Pauli,
    # so only the twirl's reference fails
    "control-second-side-conjugated": (
        channels,
        "DilatedChannel",
        "self.u_blocks, self.v_blocks)",
        "self.u_blocks, self.v_blocks.conj())",
        ["dilations"],
        ["twirl-dilation-vs-kraus"],
        [],
    ),
    # op x env embedded where the control expects env x op on E1 x E2 x A x B
    "dense-embedding-reversed": (
        channels,
        "apply_dilation_dense",
        "kron(dc.env_state.mat, op)",
        "kron(op, dc.env_state.mat)",
        ["dilations"],
        ["pauli-dilation-vs-kraus", "twirl-dilation-vs-kraus"],
        [],
    ),
    # side-B dephasing is entanglement-breaking too, so its outputs still
    # pass validation and the PPT gate; only the side-A decomposition fails
    "dephasing-on-side-B": (
        gaussian,
        "dephased_blocks",
        "diagonal(axis1=1, axis2=3)",
        "diagonal(axis1=2, axis2=4)",
        ["dephasing"],
        ["dephased-separable-decomposition"],
        [],
    ),
    "partial-twirl-factors-swapped": (
        twirl,
        "partial_twirl_exact_mat",
        "return kron(np.eye(da) / da, red)",
        "return kron(red, np.eye(da) / da)",
        ["2design", "qudit-invariance", "partial-haar"],
        [
            "clifford-partial-twirl-basis",
            "single-transmission-product-mc(d=2)",
            "single-transmission-product-mc(d=3)",
            "single-transmission-product-mc(d=4)",
            "partial-haar-mc(d=3)",
        ],
        [],
    ),
    # unnormalised Choi states fail validation, so the group raises and
    # fails as a whole
    "choi-states-without-1-over-d": (
        channels,
        "choi_states",
        "@ vecs.conj() / d)",
        "@ vecs.conj())",
        ["eb-threshold"],
        [],
        ["eb-threshold"],
    ),
    # 61 of the 200 draws have max p in (0.4, 0.5], so their verdicts flip
    "eb-threshold-moved": (
        verification,
        "check_eb_threshold",
        "0.5 + 1e-12",
        "0.4 + 1e-12",
        ["eb-threshold"],
        ["eb-threshold"],
        [],
    ),
    # every eigenvalue counts, so a PPT output reads the trace norm 1
    "negativity-sign-filter-dropped": (
        linalg,
        "negativity_from_spectrum",
        "np.abs(ev[ev < 0])",
        "np.abs(ev)",
        ["headline-effect"],
        [gate.format(kind) for gate in HEADLINE for kind in ("single-neg", "double-neg")],
        [],
    ),
    # the environment reaches side A only: a single transmission
    "second-side-controls-dropped": (
        channels,
        "apply_dilation",
        "dc.u_blocks, dc.v_blocks,",
        "dc.u_blocks, np.eye(rho.dim_b)[None],",
        ["headline-effect"],
        [gate.format(kind) for gate in HEADLINE for kind in ("double-invariance", "double-neg")],
        [],
    ),
    # without the phase fixed, {H, S} close on the 192 phase multiples of
    # the 24 Cliffords, which twirl alike: only the count tells them apart
    "clifford-phase-not-fixed": (
        twirl,
        "_phase_canonical",
        "ph = flat[idx] / abs(flat[idx])",
        "ph = 1.0",
        ["2design"],
        ["clifford-cardinality"],
        [],
    ),
    # Tr(op) read for Tr(V op): the output is the normalised symmetric projector
    "uu-twirl-trace-for-swap": (
        twirl,
        "twirl_uu_exact_mat",
        '"ijji->"',
        '"ijij->"',
        ["qudit-invariance"],
        [f"werner-exact-uu(d={d})" for d in (2, 3, 4)],
        [],
    ),
    # Tr(op) / d read for <psi|op|psi>
    "uustar-twirl-trace-for-overlap": (
        twirl,
        "twirl_uustar_exact_mat",
        "q = np.sum(np.asarray(op)[:: d + 1, :: d + 1]) / d",
        "q = np.trace(op) / d",
        ["qudit-invariance"],
        [f"isotropic-exact-uustar(d={d})" for d in (2, 3, 4)],
        [],
    ),
    "rotation-residual-nan": (
        gaussian,
        "rotation_residual",
        "return float(np.max(np.abs(g @ v.m + v.m @ g.T)))",
        'return float("nan")',
        ["bosonic-invariance"],
        ["epr-anticorrelated-invariance"],
        [],
    ),
    # the sign ignored: both modes turn the same way
    "co-rotation": (
        gaussian,
        "rotation_residual",
        "g = _generator(sign)",
        "g = _generator(1.0)",
        ["bosonic-invariance"],
        ["epr-anticorrelated-invariance"],
        [],
    ),
    "pt-symplectic-nan": (
        gaussian,
        "pt_symplectic_eigenvalues",
        "return tuple(float(nu) for nu in _symplectic_pair(v.m, -1.0))",
        'return (float("nan"), float("nan"))',
        ["bosonic-invariance"],
        ["epr-pt-symplectic-closed-form"],
        [],
    ),
    "discriminant-sign-flipped": (
        gaussian,
        "_symplectic_pair",
        "+ 4 * sign * det_w",
        "- 4 * sign * det_w",
        ["bosonic-invariance"],
        ["epr-pt-symplectic-closed-form"],
        [],
    ),
    # the anticorrelated family solved for the correlated one: its members
    # leave the quasi-normal directions, its det C form is indefinite, and
    # the EPR states leave the family solved as the anticorrelated one
    "families-swapped": (
        gaussian,
        "solve_invariant_cm",
        'g = _generator(1.0 if mode == "correlated" else -1.0)',
        'g = _generator(-1.0 if mode == "correlated" else 1.0)',
        ["invariant-family"],
        ["correlated-family-membership", "correlated-family-separable", "epr-in-anticorrelated-family"],
        [],
    ),
    # G V G for G V G^T = -G V G: the 6-dimensional space that the quarter
    # turn negates, the two entries it maps to themselves included
    "solver-rotation-not-transposed": (
        gaussian,
        "solve_invariant_cm",
        "t = (g @ e @ g.T)",
        "t = (g @ e @ g)",
        ["invariant-family"],
        [
            "correlated-family-dimension",
            "correlated-family-membership",
            "correlated-family-separable",
            "epr-in-anticorrelated-family",
        ],
        [],
    ),
    # both rows of each two-element orbit kept: a basis of 8, each direction
    # twice up to sign
    "solver-orbits-not-deduplicated": (
        gaussian,
        "solve_invariant_cm",
        "rows[first & rows.any(axis=1)]",
        "rows[rows.any(axis=1)]",
        ["invariant-family"],
        ["correlated-family-dimension"],
        [],
    ),
    # I + t for (I + t) / 2: twice the projector, which moves every member
    "solver-projector-not-halved": (
        gaussian,
        "solve_invariant_cm",
        ", rows / 2)",
        ", rows)",
        ["invariant-family"],
        ["correlated-family-membership", "epr-in-anticorrelated-family"],
        [],
    ),
    # every CM judged a state, those just outside the boundary included
    "bona-fide-always": (
        gaussian,
        "_is_bona_fide",
        "return positive & (delta >= 2 - BONA_FIDE_TOL) & (det_v - delta + 1 >= -BONA_FIDE_TOL)",
        "return np.ones(np.shape(positive), dtype=bool)",
        ["invariant-family"],
        ["bona-fide-boundary"],
        [],
    ),
    # no CM judged a state, those just inside the boundary included
    "bona-fide-never": (
        gaussian,
        "_is_bona_fide",
        "return positive & (delta >= 2 - BONA_FIDE_TOL) & (det_v - delta + 1 >= -BONA_FIDE_TOL)",
        "return np.zeros(np.shape(positive), dtype=bool)",
        ["invariant-family"],
        ["bona-fide-boundary"],
        [],
    ),
    "det-c-form-nan": (
        gaussian,
        "det_c_form_min",
        "return float(np.linalg.eigvalsh((det_sums - det_c[:, None] - det_c[None]) / 2)[0])",
        'return float("nan")',
        ["invariant-family"],
        ["correlated-family-separable"],
        [],
    ),
    "dephasing-sweep-nan": (
        gaussian,
        "dephasing_sweep",
        "return np.concatenate(min_pt), np.concatenate(rec_error)",
        "return np.full(len(v), np.nan), np.full(len(v), np.nan)",
        ["dephasing"],
        ["dephased-output-ppt", "dephased-separable-decomposition"],
        [],
    ),
    "mc-twirl-nan": (
        twirl,
        "mc_twirl_operator",
        "return x.reshape(op.shape)",
        "return np.full(op.shape, np.nan, dtype=complex)",
        ["partial-haar"],
        ["partial-haar-mc(d=3)"],
        [],
    ),
    # the U x U* probes come back as PT o (U x U twirl) o PT without the
    # last PT: the partial transpose of the isotropic state, which is not
    # PSD, so the gate fails on its residual and on its validation
    "uustar-not-transposed-back": (
        twirl,
        "mc_twirl_operator",
        "x[i] = partial_transpose_mat(out[j], da, db) if star[j] else out[j]",
        "x[i] = out[j]",
        ["qudit-invariance"],
        [f"isotropic-mc-uustar(d={d})" for d in (2, 3, 4)],
        [],
    ),
    # the Gram route's G summed as S S^T: each sample's (U x U) X (U x U)^T,
    # which fixes no Werner or isotropic state; d = 4 runs conjugate_sum
    "gram-conjugate-dropped": (
        twirl,
        "_gram_add",
        "s_bar = np.conjugate(s, out=",
        "s_bar = np.positive(s, out=",
        ["qudit-invariance"],
        [f"{gate}(d={d})" for d in (2, 3) for gate in ("werner-mc-uu", "isotropic-mc-uustar")],
        [],
    ),
    # pi(q, p) read as pi(p, p) for q > p: the superoperator's entries of the
    # pairs below the diagonal come from the wrong rows and columns of G
    "gram-pair-index-folded": (
        twirl,
        "_sym_pairs",
        "lo, hi = np.minimum(p, q), np.maximum(p, q)",
        "lo, hi = np.minimum(p, q), q",
        ["qudit-invariance"],
        [f"{gate}(d={d})" for d in (2, 3) for gate in ("werner-mc-uu", "isotropic-mc-uustar")],
        [],
    ),
    # every probe twirled by U x U: the random state's twirl is no product
    "partial-probes-two-sided": (
        twirl,
        "mc_twirl_operator",
        'both = [m != "partial-A" for m in modes]',
        "both = [True for m in modes]",
        ["qudit-invariance", "partial-haar"],
        [*(f"single-transmission-product-mc(d={d})" for d in (2, 3, 4)), "partial-haar-mc(d=3)"],
        [],
    ),
}

# Near misses: defects at rounding scale, each of which every one of the 44
# gates passes at the tolerances as set (module, function, line as written,
# defective line).  Each runs on every check group.  A tolerance tightened to
# catch one moves it to MUTANTS, with the gates it fails.
NEAR_MISSES = {
    # every weight (1 + 1e-13) times too large, ~450 ulps of a trace
    "weights-scaled-1e-13": (
        linalg,
        "conjugate_sum",
        "weights = np.broadcast_to(np.asarray(weights, dtype=float), (k,))",
        "weights = np.broadcast_to(np.asarray(weights, dtype=float) * (1 + 1e-13), (k,))",
    ),
    # the identity Kraus operator of every local depolarizer (1 + 1e-13)
    # times too large
    "kraus-operator-perturbed-1e-13": (
        channels,
        "local_depolarizing_kraus",
        "* np.stack(PAULIS)",
        "* np.stack((PAULIS[0] * (1 + 1e-13), *PAULIS[1:]))",
    ),
}

# the cases whose named gates read a NaN residual
NAN_MUTANTS = [
    "rotation-residual-nan",
    "pt-symplectic-nan",
    "det-c-form-nan",
    "dephasing-sweep-nan",
    "mc-twirl-nan",
]

# gates that hold by construction, and why: no defect of the code they read
# fails them (a NaN handed to one still does)
IDENTITIES = {
    "pauli-env-classical": "DilatedChannel.env_state is built diagonal",
    "twirl-env-classical": "DilatedChannel.env_state is built diagonal",
    "dephased-output-ppt": "B^T has B's spectrum, on blocks already validated PSD; a dropped transpose passes",
    # at d = 2 and 3 the Gram route's defects fail it by name; at d = 4
    # conjugate_sum's two-sided defects are named on other gates
    "werner-mc-uu(d=4)": "every unitary fixes the twirled state: only a non-unitary sample fails it, not a biased sampler",
}

# defects that every gate passes but a kernel test fails (module, function,
# line as written, defective line, the failing test's function and its
# arguments); each runs on every check group.  A gate that comes to fail one
# moves it to MUTANTS.
KERNEL_ONLY = {
    # G summed as conj(S) S^T, that is conj(G): each twirl becomes the
    # conjugate of the twirl of conj(X), which equals the twirl on the real
    # probes that every MC gate and shipped row twirls (ROADMAP item 2's
    # complex probe would see it)
    "gram-conjugated": (
        twirl,
        "_gram_add",
        "np.matmul(s[:, cols], s_bar[:, cols].T,",
        "np.matmul(s_bar[:, cols], s[:, cols].T,",
        gram_route_error,
        [(d, mode) for d in (2, 3) for mode in ("uu", "uustar")],
    ),
}


def _install_mutant(monkeypatch, module, name, line, defect):
    """Replace module.<name>, in every package module that imported it and in
    verification.ALL_CHECKS, by a copy compiled from its source with `line`
    rewritten as `defect`."""
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(line) == 1, f"{name} no longer has the line {line!r}"
    namespace = dict(vars(module))
    exec(compile(source.replace(line, defect), module.__file__, "exec"), namespace)
    mutant = namespace[name]
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "twirlbreak" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutant)
    # the check table holds the check functions themselves
    table = tuple((group, mutant if fn is original else fn) for group, fn in verification.ALL_CHECKS)
    monkeypatch.setattr(verification, "ALL_CHECKS", table)


def _only_groups(monkeypatch, groups):
    """Restrict ALL_CHECKS to groups.  The Clifford group is built afresh, so
    that its per-process cache neither hides a defect in its construction nor
    keeps the defective group after the case."""
    checks = dict(verification.ALL_CHECKS)
    monkeypatch.setattr(verification, "ALL_CHECKS", tuple((group, checks[group]) for group in groups))
    monkeypatch.setattr(twirl, "_CLIFFORD_QUBIT", None)


def _mutate(monkeypatch, mutant):
    module, name, line, defect, groups, *_ = MUTANTS[mutant]
    _install_mutant(monkeypatch, module, name, line, defect)
    _only_groups(monkeypatch, groups)


@pytest.fixture(scope="module")
def group_gates():
    """The gates each check group reports on the code as written."""
    cfg = verification.VerifyConfig()
    return {group: [r.name for r in fn(cfg)] for group, fn in verification.ALL_CHECKS}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_verify_fails_the_mutant(monkeypatch, mutant):
    *_, gates, raises = MUTANTS[mutant]
    _mutate(monkeypatch, mutant)
    # outside the suite's warnings-as-errors a NaN only warns, as in `verify`
    with np.errstate(invalid="ignore"):
        results = verification.run_all(verification.VerifyConfig())
    # a gate's result carries its tolerance; a group that raised has none
    failed_by_name = {r.name for r in results if not r.passed and r.tolerance is not None}
    assert [gate for gate in gates if gate not in failed_by_name] == []
    assert [r.name for r in results if r.tolerance is None] == raises


@pytest.mark.parametrize("mutant", NAN_MUTANTS)
def test_a_nan_residual_fails_its_gate_by_name(monkeypatch, capsys, group_gates, mutant):
    *_, groups, gates, _ = MUTANTS[mutant]
    _mutate(monkeypatch, mutant)
    with np.errstate(invalid="ignore"):
        code = main(["verify", "--config", "configs/verify.json"])
    out, err = capsys.readouterr()
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    # every gate of the groups run still reports, under its own name
    assert list(checks) == [gate for group in groups for gate in group_gates[group]]
    for gate in gates:
        assert checks[gate]["passed"] is False
        assert checks[gate]["residual"] is None
        assert checks[gate]["tolerance"] is not None
        assert f"ERROR {gate}: non-finite residual nan" in err.splitlines()
    assert all(c["residual"] is not None for name, c in checks.items() if name not in gates)


@pytest.mark.parametrize("mutant", sorted(KERNEL_ONLY))
def test_a_kernel_test_fails_what_no_gate_sees(monkeypatch, mutant):
    module, name, line, defect, kernel_test, cases = KERNEL_ONLY[mutant]
    _install_mutant(monkeypatch, module, name, line, defect)
    monkeypatch.setattr(twirl, "_CLIFFORD_QUBIT", None)
    results = verification.run_all(verification.VerifyConfig())
    assert len(results) == len(CHECK_NAMES)
    assert [r.name for r in results if not r.passed] == []
    # 1e-14 is the bound the kernel test sets
    assert [args for args in cases if not kernel_test(*args) > 1e-14] == []


@pytest.mark.parametrize("mutant", sorted(NEAR_MISSES))
def test_every_gate_passes_a_near_miss(monkeypatch, mutant):
    _install_mutant(monkeypatch, *NEAR_MISSES[mutant])
    monkeypatch.setattr(twirl, "_CLIFFORD_QUBIT", None)
    results = verification.run_all(verification.VerifyConfig())
    assert len(results) == len(CHECK_NAMES)
    assert [r.name for r in results if not r.passed] == []


def test_every_gate_is_failed_by_name_or_declared():
    failed_by_name = {gate for *_, gates, _ in MUTANTS.values() for gate in gates}
    # coverage through a group that raises, kept apart: the Choi defect's only
    raised = {group for *_, raises in MUTANTS.values() for group in raises}
    assert raised == {"eb-threshold"}
    assert len(CHECK_NAMES) == 44
    assert set(IDENTITIES) <= set(CHECK_NAMES)
    assert [gate for gate in CHECK_NAMES if gate not in failed_by_name and gate not in IDENTITIES] == []


def test_bosonic_refuses_a_nan_symplectic_eigenvalue(monkeypatch, capsys):
    """A NaN nu makes a NaN negativity, which the row refuses: the command
    prints one error line on stderr and exits 1, with nothing on stdout."""
    _mutate(monkeypatch, "pt-symplectic-nan")
    code = main(["bosonic", "--config", "configs/bosonic.json"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: negativities must be nonnegative\n")
