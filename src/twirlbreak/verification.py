"""Named verification suites wiring every module-level invariant into a
single pass/fail report; the `verify` CLI scenario runs these."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, gaussian, states, twirl
from .linalg import frobenius_distance, negativity


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass
class VerifyConfig:
    seed: int = 20240611
    mc_samples: int = 10_000
    tol_override: float | None = None

    @property
    def mc_tol(self) -> float:
        return 5.0 / np.sqrt(self.mc_samples)


def _result(name: str, residual: float, tol: float, cfg: VerifyConfig, extra_ok: bool = True) -> CheckResult:
    tol = cfg.tol_override if cfg.tol_override is not None else tol
    return CheckResult(name, extra_ok and residual <= tol, float(residual), float(tol))


def _fixed(name: str, residual: float, tol: float = 0.0) -> CheckResult:
    """A check whose tolerance is part of its definition: tol_override does not move it."""
    return CheckResult(name, residual <= tol, float(residual), tol)


def _random_prob4(rng) -> channels.ProbabilityVector:
    p = rng.dirichlet(np.ones(4))
    return channels.ProbabilityVector(tuple(p))


# 1. EB threshold for local depolarizing channels
def check_eb_threshold(cfg: VerifyConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    verdicts_ok = True
    for _ in range(200):
        p = _random_prob4(rng)
        ch = channels.local_depolarizing(p, "A")
        ppt, spec = channels.is_entanglement_breaking(ch)
        predicted = max(p.p) <= 0.5 + 1e-12
        verdicts_ok &= ppt == predicted
        expected = np.sort(0.5 - np.asarray(p.p))
        worst = max(worst, float(np.max(np.abs(spec - expected))))
    return [_result("eb-threshold", worst, 1e-10, cfg, verdicts_ok)]


# 2. Headline effect: single transmission breaks, double preserves Werner states
def check_headline_effect(cfg: VerifyConfig) -> list[CheckResult]:
    p = channels.ProbabilityVector((0.5, 1 / 6, 1 / 6, 1 / 6))
    single = channels.local_depolarizing(p, "A")
    double = channels.correlated_pauli(p)
    out = []
    for gamma in (0.4, 0.6, 0.9):
        rho = states.werner_qubit(gamma)
        neg_single = negativity(channels.apply_kraus(single, rho))
        out.append(_result(f"headline-single-neg(gamma={gamma})", neg_single, 1e-12, cfg))
        transmitted = channels.apply_kraus(double, rho)
        out.append(
            _result(
                f"headline-double-invariance(gamma={gamma})",
                frobenius_distance(transmitted.mat, rho.mat),
                1e-12,
                cfg,
            )
        )
        out.append(
            _result(
                f"headline-double-neg(gamma={gamma})",
                abs(negativity(transmitted) - (3 * gamma - 1) / 4),
                1e-10,
                cfg,
            )
        )
    return out


# 3. Clifford set is a valid unitary 2-design
def check_2design(cfg: VerifyConfig) -> list[CheckResult]:
    cl = twirl.clifford_group_qubit()
    basis_residual, span_residual = twirl.design_residuals(cl, np.random.default_rng(cfg.seed + 1))
    return [
        _fixed("clifford-cardinality", abs(len(cl) - 24)),
        _result("clifford-partial-twirl-basis", basis_residual, 1e-12, cfg),
        _result("clifford-span-IV", span_residual, 1e-11, cfg),
    ]


# 4. Werner / isotropic invariance under exact and MC twirls, d in {2,3,4}
def check_qudit_invariance(cfg: VerifyConfig) -> list[CheckResult]:
    out = []
    for d in (2, 3, 4):
        werner = states.werner_multi(states.WernerParamMulti(d, -0.9))
        iso = states.isotropic(states.IsotropicParam(d, 0.8))
        out.append(
            _result(
                f"werner-exact-uu(d={d})",
                frobenius_distance(twirl.twirl_exact(werner, "uu").mat, werner.mat),
                1e-11,
                cfg,
            )
        )
        out.append(
            _result(
                f"isotropic-exact-uustar(d={d})",
                frobenius_distance(twirl.twirl_exact(iso, "uustar").mat, iso.mat),
                1e-11,
                cfg,
            )
        )
        sampler = twirl.HaarSampler(cfg.seed + d, d)
        mc = twirl.mc_twirl(werner, "uu", cfg.mc_samples, sampler)
        out.append(
            _result(f"werner-mc-uu(d={d})", frobenius_distance(mc.mat, werner.mat), cfg.mc_tol, cfg)
        )
        mc = twirl.mc_twirl(iso, "uustar", cfg.mc_samples, sampler)
        out.append(
            _result(f"isotropic-mc-uustar(d={d})", frobenius_distance(mc.mat, iso.mat), cfg.mc_tol, cfg)
        )
        # single transmission fully depolarizes the sent side
        rng = np.random.default_rng(cfg.seed + 10 * d)
        rho = states.random_density(d, d, rng)
        target = twirl.partial_twirl_exact_mat(rho.mat, (d, d), "A")
        if d == 2:
            got = twirl.partial_twirl(rho, "A", twirl.clifford_group_qubit()).mat
            out.append(
                _result("single-transmission-product(d=2)", frobenius_distance(got, target), 1e-11, cfg)
            )
        else:
            got = twirl.mc_twirl(rho, "partial-A", cfg.mc_samples, sampler).mat
            out.append(
                _result(
                    f"single-transmission-product-mc(d={d})",
                    frobenius_distance(got, target),
                    cfg.mc_tol,
                    cfg,
                )
            )
    return out


# 5. The two twirl types are conjugate under partial transposition
def check_pt_conjugation(cfg: VerifyConfig) -> list[CheckResult]:
    cl = twirl.clifford_group_qubit()
    rng = np.random.default_rng(cfg.seed + 2)
    worst = 0.0
    for _ in range(50):
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = h + h.conj().T
        h = h + (1.0 - np.trace(h).real) / 4 * np.eye(4)  # unit trace, generally non-PSD
        direct = twirl.twirl_operator(h, cl, conjugate_second=True)
        conjugated = twirl.pt_conjugated_twirl(h, cl, 2)
        worst = max(worst, float(np.linalg.norm(direct - conjugated)))
    return [_result("pt-conjugation-identity", worst, 1e-11, cfg)]


# 6. Partial Haar average of arbitrary linear operators
def check_partial_haar(cfg: VerifyConfig) -> list[CheckResult]:
    cl = twirl.clifford_group_qubit()
    rng = np.random.default_rng(cfg.seed + 3)
    worst = 0.0
    for _ in range(50):
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        got = twirl.partial_twirl_operator(t, cl, "A", (2, 2))
        want = twirl.partial_twirl_exact_mat(t, (2, 2), "A")
        worst = max(worst, float(np.linalg.norm(got - want)))
    out = [_result("partial-haar-exact(d=2)", worst, 1e-11, cfg)]
    sampler = twirl.HaarSampler(cfg.seed + 4, 3)
    worst = 0.0
    for _ in range(5):
        t = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        t /= np.linalg.norm(t)
        got = twirl.mc_twirl_operator(t, "partial-A", cfg.mc_samples, sampler, (3, 3))
        want = twirl.partial_twirl_exact_mat(t, (3, 3), "A")
        worst = max(worst, float(np.linalg.norm(got - want)))
    out.append(_result("partial-haar-mc(d=3)", worst, cfg.mc_tol, cfg))
    return out


# 7. EPR invariance under anti-correlated rotations; PT symplectic spectrum
def check_bosonic_invariance(cfg: VerifyConfig) -> list[CheckResult]:
    angles = np.linspace(0, 2 * np.pi, 32, endpoint=False) + 0.123
    worst_inv = worst_nu = 0.0
    for mu in (1.0, 1.5, 2.0, 5.0):
        cm = gaussian.epr_cm(mu)
        worst_inv = max(worst_inv, gaussian.rotation_residual(cm, angles, -1.0))
        nu_min, _ = gaussian.pt_symplectic_eigenvalues(cm)
        worst_nu = max(worst_nu, abs(nu_min - (mu - np.sqrt(mu * mu - 1))))
    return [
        _result("epr-anticorrelated-invariance", worst_inv, 1e-12, cfg),
        _result("epr-pt-symplectic-closed-form", worst_nu, 1e-10, cfg),
    ]


# 8. Correlated-rotation invariant family: 4 parameters, all separable
def check_invariant_family(cfg: VerifyConfig) -> list[CheckResult]:
    fam = gaussian.solve_invariant_cm("correlated")
    _, worst, nu_min = gaussian.quasi_normal_sweep(fam, 10)
    return [
        _fixed("correlated-family-dimension", abs(fam.dimension - 4)),
        _result("correlated-family-membership", worst, 1e-10, cfg),
        # PPT of every swept point, to the bona-fide tolerance
        _fixed("correlated-family-separable", max(0.0, 1.0 - nu_min), gaussian.BONA_FIDE_TOL),
    ]


# 9. Uniform dephasing is entanglement-breaking (truncated Fock sector)
def check_dephasing(cfg: VerifyConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 5)
    worst_pt = 0.0
    worst_rec = 0.0
    for n in (4, 6, 8):
        for _ in range(100):
            pure = gaussian.TruncatedFockState(states.random_pure(n, n, rng))
            dephased = gaussian.dephase_truncated(pure, "A")
            worst_pt = max(worst_pt, -gaussian.min_pt_eigenvalue(dephased))
            comps = gaussian.separable_decomposition_dephased(pure)
            rec = gaussian.reconstruct_decomposition(comps, n)
            worst_rec = max(worst_rec, float(np.max(np.abs(rec - dephased.rho.mat))))
    return [
        _result("dephased-output-ppt", worst_pt, 1e-10, cfg),
        _result("dephased-separable-decomposition", worst_rec, 1e-12, cfg),
    ]


# 10. Dilations: classical environments reproducing the Kraus action.  The
# dense route (embed, conjugate by the control unitary, trace out) is the
# independent reference for the kernel behind apply_dilation.
def check_dilations(cfg: VerifyConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 6)
    p = _random_prob4(rng)
    kraus = channels.correlated_pauli(p)
    # generic twirl dilation with a small Haar-sampled unitary set
    uset = twirl.UnitarySet(twirl.HaarSampler(cfg.seed + 7, 2).sample_batch(6))
    cases = (
        ("pauli", channels.build_pauli_dilation(p), lambda rho: channels.apply_kraus(kraus, rho).mat),
        (
            "twirl",
            channels.build_twirl_dilation(uset.unitaries, conjugate_second=True),
            lambda rho: twirl.twirl_operator(rho.mat, uset, conjugate_second=True),
        ),
    )
    out = []
    for name, dil, direct in cases:
        classical = channels.env_is_classical(dil.env_state)
        out.append(_fixed(f"{name}-env-classical", 0.0 if classical else 1.0))
        worst = 0.0
        for _ in range(50):
            rho = states.random_density(2, 2, rng)
            dense = channels.apply_dilation_dense(dil, rho).mat
            worst = max(
                worst,
                frobenius_distance(dense, direct(rho)),
                frobenius_distance(dense, channels.apply_dilation(dil, rho).mat),
            )
        out.append(_result(f"{name}-dilation-vs-kraus", worst, 1e-11, cfg))
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


def run_all(cfg: VerifyConfig | None = None) -> list[CheckResult]:
    cfg = cfg or VerifyConfig()
    results = []
    for _, fn in ALL_CHECKS:
        results.extend(fn(cfg))
    return results
