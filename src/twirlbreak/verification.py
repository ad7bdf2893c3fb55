"""Named verification suites wiring every module-level invariant into a
single pass/fail report; the `verify` CLI scenario runs these."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, gaussian, states, twirl
from .linalg import conjugate_sum, frobenius_distance, negativity, ppt_from_spectrum, validate_density_stack


@dataclass(frozen=True)
class CheckResult:
    """One gate.  With error set it failed with no residual: a gate whose
    residual is not finite (NaN or inf), under its own name and tolerance, or
    a check group that raised, under its ALL_CHECKS name, with no tolerance."""

    name: str
    passed: bool
    residual: float | None
    tolerance: float | None
    error: str | None = None


@dataclass
class VerifyConfig:
    seed: int = 20240611
    mc_samples: int = 10_000

    @property
    def mc_tol(self) -> float:
        return 5.0 / np.sqrt(self.mc_samples)


def _streams(cfg: VerifyConfig, group: str, haar: int = 0) -> list[np.random.SeedSequence]:
    """The random streams of one check group of ALL_CHECKS: children of the
    group's own child of SeedSequence(cfg.seed), one per group in table
    order.  The first haar of them seed the group's Haar samplers, one per d;
    the last seeds the draws of its probes."""
    return np.random.SeedSequence(cfg.seed).spawn(len(_GROUPS))[_GROUPS.index(group)].spawn(haar + 1)


def _result(name: str, residuals, tol: float, ok: bool = True) -> CheckResult:
    """A gate at the tolerance fixed where it is defined, its residual the
    largest of residuals (one number or a sequence); ok carries any verdict it
    makes besides residual <= tol.  The max keeps a NaN, which fails the gate."""
    residual = float(np.max(residuals)) + 0.0  # + 0.0 turns a -0.0 into 0.0
    tol = float(tol)  # a numpy tol would make the verdict a numpy bool
    if not np.isfinite(residual):
        return CheckResult(name, False, None, tol, f"non-finite residual {residual}")
    return CheckResult(name, ok and residual <= tol, residual, tol)


def _is_state(mat) -> bool:
    """Whether mat is a density matrix (validate_density_stack): an MC twirl
    that is not one fails its own gate, while the group's other gates report."""
    try:
        validate_density_stack(mat[None])
    except ValueError:
        return False
    return True


def _map_distance(d: int, f, *others) -> float:
    """Largest ||f(E) - g(E)||_F over the d^2 matrix units E of d x d
    operators and over every g in others: zero exactly when each linear map g
    equals f.  The units are applied one at a time."""
    worst = 0.0
    for e in np.eye(d * d).reshape(d * d, d, d):
        want = f(e)
        worst = max([worst, *(frobenius_distance(want, g(e)) for g in others)])
    return worst


# 1. EB threshold for local depolarizing channels
def check_eb_threshold(cfg: VerifyConfig) -> list[CheckResult]:
    (probes,) = _streams(cfg, "eb-threshold")
    p = np.random.default_rng(probes).dirichlet(np.ones(4), size=200)
    spec = channels.choi_pt_spectra(channels.local_depolarizing_kraus(p))
    predicted = np.max(p, axis=1) <= 0.5 + 1e-12
    verdicts_ok = bool(np.array_equal(ppt_from_spectrum(spec), predicted))
    return [_result("eb-threshold", np.abs(spec - np.sort(0.5 - p, axis=1)), 1e-10, verdicts_ok)]


# 2. Headline effect: single transmission breaks, double preserves Werner states
def check_headline_effect(cfg: VerifyConfig) -> list[CheckResult]:
    p = channels.ProbabilityVector((0.5, 1 / 6, 1 / 6, 1 / 6))
    single = channels.local_depolarizing(p)
    double = channels.correlated_pauli(p)
    out = []
    for gamma in (0.4, 0.6, 0.9):
        rho = states.werner_qubit(gamma)
        neg_single = negativity(channels.apply_kraus(single, rho))
        out.append(_result(f"headline-single-neg(gamma={gamma})", neg_single, 1e-12))
        transmitted = channels.apply_dilation(double, rho)
        out.append(
            _result(
                f"headline-double-invariance(gamma={gamma})",
                frobenius_distance(transmitted.mat, rho.mat),
                1e-12,
            )
        )
        out.append(
            _result(
                f"headline-double-neg(gamma={gamma})",
                abs(negativity(transmitted) - (3 * gamma - 1) / 4),
                1e-10,
            )
        )
    return out


# 3. Clifford set is a valid unitary 2-design: its twirls are the Haar ones
def check_2design(cfg: VerifyConfig) -> list[CheckResult]:
    cl = twirl.clifford_group_qubit()
    basis_residual = _map_distance(
        4,
        lambda e: twirl.partial_twirl_exact_mat(e, (2, 2), "A"),
        lambda e: twirl.partial_twirl_operator(e, cl, "A", (2, 2)),
    )
    span_residual = _map_distance(4, lambda e: twirl.twirl_uu_exact_mat(e, 2), lambda e: twirl.twirl_operator(e, cl))
    return [
        _result("clifford-cardinality", abs(len(cl) - 24), 0.0),
        _result("clifford-partial-twirl-basis", basis_residual, 1e-12),
        _result("clifford-span-IV", span_residual, 1e-11),
    ]


# 4. Werner / isotropic invariance under exact and MC twirls, d in {2,3,4};
# the three MC twirls of each d share one draw
def check_qudit_invariance(cfg: VerifyConfig) -> list[CheckResult]:
    *haar, probes = _streams(cfg, "qudit-invariance", haar=3)
    rng = np.random.default_rng(probes)
    out = []
    for d, stream in zip((2, 3, 4), haar):
        werner = states.werner_multi(d, -0.9)
        iso = states.isotropic(d, 0.8)
        exact_uu, exact_uustar = twirl.twirl_exact(werner, "uu"), twirl.twirl_exact(iso, "uustar")
        out.append(_result(f"werner-exact-uu(d={d})", frobenius_distance(exact_uu.mat, werner.mat), 1e-11))
        out.append(_result(f"isotropic-exact-uustar(d={d})", frobenius_distance(exact_uustar.mat, iso.mat), 1e-11))
        rho = states.random_density(d, d, rng)
        mc = twirl.mc_twirl_operator(
            np.stack([werner.mat, iso.mat, rho.mat]),
            ("uu", "uustar", "partial-A"),
            cfg.mc_samples,
            twirl.HaarSampler(stream, d),
            (d, d),
        )
        # single transmission fully depolarizes the sent side
        targets = (werner.mat, iso.mat, twirl.partial_twirl_exact_mat(rho.mat, (d, d), "A"))
        names = (f"werner-mc-uu(d={d})", f"isotropic-mc-uustar(d={d})", f"single-transmission-product-mc(d={d})")
        for name, got, want in zip(names, mc, targets):
            out.append(_result(name, frobenius_distance(got, want), cfg.mc_tol, ok=_is_state(got)))
    return out


# 5. The two twirl types are conjugate under partial transposition
def check_pt_conjugation(cfg: VerifyConfig) -> list[CheckResult]:
    cl = twirl.clifford_group_qubit()
    residual = _map_distance(
        4,
        lambda e: twirl.twirl_operator(e, cl, conjugate_second=True),
        lambda e: twirl.pt_conjugated_twirl(e, cl, 2),
    )
    return [_result("pt-conjugation-identity", residual, 1e-11)]


# 6. Partial Haar average of arbitrary linear operators (side B; check 3 reads A)
def check_partial_haar(cfg: VerifyConfig) -> list[CheckResult]:
    cl = twirl.clifford_group_qubit()
    residual = _map_distance(
        4,
        lambda e: twirl.partial_twirl_exact_mat(e, (2, 2), "B"),
        lambda e: twirl.partial_twirl_operator(e, cl, "B", (2, 2)),
    )
    out = [_result("partial-haar-exact(d=2)", residual, 1e-11)]
    haar, probes = _streams(cfg, "partial-haar", haar=1)
    # five unit-norm complex operators, twirled as one stack over one draw
    z = np.random.default_rng(probes).standard_normal((5, 2, 9, 9))
    t = z[:, 0] + 1j * z[:, 1]
    t /= np.linalg.norm(t, axis=(1, 2), keepdims=True)
    got = twirl.mc_twirl_operator(t, "partial-A", cfg.mc_samples, twirl.HaarSampler(haar, 3), (3, 3))
    residuals = [np.linalg.norm(g - twirl.partial_twirl_exact_mat(x, (3, 3), "A")) for x, g in zip(t, got)]
    out.append(_result("partial-haar-mc(d=3)", residuals, cfg.mc_tol))
    return out


# 7. EPR invariance under anti-correlated rotations, exact on the rotation
# generator (gaussian.rotation_residual); PT symplectic spectrum
def check_bosonic_invariance(cfg: VerifyConfig) -> list[CheckResult]:
    inv, nu = [], []
    for mu in (1.0, 1.5, 2.0, 5.0):
        cm = gaussian.epr_cm(mu)
        inv.append(gaussian.rotation_residual(cm, -1.0))
        nu_min, _ = gaussian.pt_symplectic_eigenvalues(cm)
        nu.append(abs(nu_min - (mu - np.sqrt(mu * mu - 1))))
    return [
        _result("epr-anticorrelated-invariance", inv, 1e-12),
        _result("epr-pt-symplectic-closed-form", nu, 1e-10),
    ]


# 8. Correlated-rotation invariant family: 4 parameters, all separable; the
# anticorrelated family holds the entangled EPR states
def check_invariant_family(cfg: VerifyConfig) -> list[CheckResult]:
    fam = gaussian.solve_invariant_cm("correlated")
    # with dimension 4, the quasi-normal directions alpha, beta, omega, phi
    # span the family, and det C >= 0 on it certifies separability (Simon)
    directions = gaussian._quasi_normal_stack(*np.eye(4))
    epr = gaussian._epr_stack([1.5, 2.0, 5.0])
    nu_min, _ = gaussian._symplectic_pair(epr, -1.0)
    # A = B = a I, C = c I is bona fide iff c <= a - 1: test c = a - 1 -+ 1e-3
    a, inside = np.repeat([1.5, 2.0, 3.0], 2), np.tile([True, False], 3)
    cms = gaussian._quasi_normal_stack(a, a, a - 1 - np.where(inside, 1e-3, -1e-3), 0.0)
    return [
        _result("correlated-family-dimension", abs(fam.dimension - 4), 0.0),
        _result("correlated-family-membership", fam.residual(directions), 1e-10),
        _result("correlated-family-separable", [0.0, -gaussian.det_c_form_min(fam)], gaussian.BONA_FIDE_TOL),
        _result(
            "epr-in-anticorrelated-family",
            gaussian.solve_invariant_cm("anticorrelated").residual(epr),
            1e-12,
            ok=bool(np.all(nu_min < 1.0)),
        ),
        _result("bona-fide-boundary", np.count_nonzero(gaussian._is_bona_fide(cms) != inside), 0.0),
    ]


# 9. Uniform dephasing is entanglement-breaking (truncated Fock sector)
def check_dephasing(cfg: VerifyConfig) -> list[CheckResult]:
    (probes,) = _streams(cfg, "dephasing")
    rng = np.random.default_rng(probes)
    pt, rec = [0.0], []  # the PPT residual is clamped at 0.0
    for n in (4, 6, 8):
        # the draws of 100 calls of states.random_pure(n, n, rng)
        z = rng.standard_normal((100, 2, n * n))
        v = z[:, 0] + 1j * z[:, 1]
        del z  # the sweep holds only v and one chunk's stacks
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        min_pt, rec_error = gaussian.dephasing_sweep(v, n)
        pt.append(np.max(-min_pt))
        rec.append(np.max(rec_error))
    return [
        _result("dephased-output-ppt", pt, 1e-10),
        _result("dephased-separable-decomposition", rec, 1e-12),
    ]


# 10. Dilations: classical environments reproducing the Kraus action.  The
# dense route (embed, conjugate by the control unitary, trace out) is the
# reference for the direct map and for the kernel behind apply_dilation, which
# are not compared with each other: for the twirl both run conjugate_sum.  The
# Pauli direct map is the Kraus sum written out with np.kron.
def check_dilations(cfg: VerifyConfig) -> list[CheckResult]:
    haar, probes = _streams(cfg, "dilations", haar=1)
    p = channels.ProbabilityVector(tuple(np.random.default_rng(probes).dirichlet(np.ones(4))))
    pauli_pairs = [np.kron(pauli, pauli) for pauli in channels.PAULIS]
    # generic twirl dilation with a small Haar-sampled unitary set
    uset = twirl.UnitarySet(twirl.HaarSampler(haar, 2).sample_batch(6))
    cases = (
        (
            "pauli",
            channels.correlated_pauli(p),
            lambda e: sum(pk * k @ e @ k.conj().T for pk, k in zip(p.p, pauli_pairs)),
        ),
        (
            "twirl",
            channels.build_twirl_dilation(uset.unitaries, conjugate_second=True),
            lambda e: twirl.twirl_operator(e, uset, conjugate_second=True),
        ),
    )
    out = []
    for name, dil, direct in cases:
        classical = channels.env_is_classical(dil.env_state)
        out.append(_result(f"{name}-env-classical", 0.0 if classical else 1.0, 0.0))
        residual = _map_distance(
            4,
            lambda e: channels.apply_dilation_dense(dil, e),
            direct,
            lambda e: conjugate_sum(e, dil.u_blocks, dil.v_blocks, dil.probabilities.p),
        )
        out.append(_result(f"{name}-dilation-vs-kraus", residual, 1e-11))
    return out


ALL_CHECKS = (
    ("eb-threshold", check_eb_threshold),
    ("headline-effect", check_headline_effect),
    ("2design", check_2design),
    ("qudit-invariance", check_qudit_invariance),
    ("pt-conjugation", check_pt_conjugation),
    ("partial-haar", check_partial_haar),
    ("bosonic-invariance", check_bosonic_invariance),
    ("invariant-family", check_invariant_family),
    ("dephasing", check_dephasing),
    ("dilations", check_dilations),
)
# the group names in table order, which fix each group's stream (_streams)
_GROUPS = tuple(group for group, _ in ALL_CHECKS)


def run_all(cfg: VerifyConfig) -> list[CheckResult]:
    """Every gate of ALL_CHECKS in order; a group that raises is reported as
    one failed result carrying the exception, and the groups after it run."""
    results = []
    for group, fn in ALL_CHECKS:
        try:
            results.extend(fn(cfg))
        except Exception as exc:
            results.append(CheckResult(group, False, None, None, f"{type(exc).__name__}: {exc}"))
    return results
