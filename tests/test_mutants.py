"""Defects in the kernels and maps that the `verify` suite must fail.

Each case rewrites one line of a package function (linalg.conjugate_sum or
the superoperator behind its one-sided route, the dephasing rule
gaussian.dephased_blocks, the exact partial twirl, the Choi states),
installs the rewritten function wherever the package imported the original,
and runs, through verification.run_all, only the check groups of
ALL_CHECKS it targets, to keep the cases fast.  The named gates must each
fail; on the code as written they pass (tests/test_acceptance.py).  A group
that raises on a defect (a member that is not a density matrix) is one
failed result under the group's name, as `verify` reports it.  The Pauli
dilation gate is not named for a dropped conjugate: every P x P is real, so
it passes that defect.
"""

import inspect
import sys
import textwrap

import pytest

from twirlbreak import channels, gaussian, linalg, twirl, verification

# (module, function, line as written, defective line, groups to run, gates that must fail)
MUTANTS = {
    "two-sided-conjugate-dropped": (
        linalg,
        "conjugate_sum",
        "np.conjugate(kt, out=kt)",
        "kt",
        ["2design", "pt-conjugation", "dilations"],
        ["clifford-span-IV", "pt-conjugation-identity", "twirl-dilation-vs-kraus"],
    ),
    "one-sided-conjugate-dropped": (
        linalg,
        "_superoperator",
        "g_bar = flat[chunk].conj()",
        "g_bar = flat[chunk].copy()",
        ["2design", "partial-haar"],
        ["clifford-partial-twirl-basis", "partial-haar-exact(d=2)", "partial-haar-mc(d=3)"],
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
    ),
    "weights-not-square-rooted": (
        linalg,
        "conjugate_sum",
        "root_w = np.sqrt(weights)",
        "root_w = weights",
        ["2design", "dilations"],
        ["clifford-span-IV", "pauli-dilation-vs-kraus", "twirl-dilation-vs-kraus"],
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
    ),
    # unnormalised Choi states fail validation, so the group raises and
    # fails as a whole
    "choi-states-without-1-over-d": (
        channels,
        "choi_states",
        "@ vecs.conj() / d)",
        "@ vecs.conj())",
        ["eb-threshold"],
        ["eb-threshold"],
    ),
}


def _install_mutant(monkeypatch, module, name, line, defect):
    """Replace module.<name>, in every package module that imported it, by a
    copy compiled from its source with `line` rewritten as `defect`."""
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(line) == 1, f"{name} no longer has the line {line!r}"
    namespace = dict(vars(module))
    exec(compile(source.replace(line, defect), module.__file__, "exec"), namespace)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "twirlbreak" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, namespace[name])


def _run_groups(monkeypatch, groups):
    checks = dict(verification.ALL_CHECKS)
    monkeypatch.setattr(verification, "ALL_CHECKS", tuple((group, checks[group]) for group in groups))
    return {r.name: r.passed for r in verification.run_all(verification.VerifyConfig())}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_verify_fails_the_mutant(monkeypatch, mutant):
    module, name, line, defect, groups, gates = MUTANTS[mutant]
    _install_mutant(monkeypatch, module, name, line, defect)
    passed = _run_groups(monkeypatch, groups)
    assert [gate for gate in gates if passed[gate]] == []
