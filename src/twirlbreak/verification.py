"""Named verification suites wiring every module-level invariant into a
single pass/fail report; the `verify` CLI scenario runs these."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, gaussian, states, twirl
from .linalg import PSD_TOL, _chunk_lengths, conjugate_sum, frobenius_distance, negativity


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

    @property
    def mc_tol(self) -> float:
        return 5.0 / np.sqrt(self.mc_samples)


def _result(name: str, residual: float, tol: float, ok: bool = True) -> CheckResult:
    """A check at the tolerance fixed where it is defined; ok carries any
    verdict it makes besides residual <= tol."""
    return CheckResult(name, ok and residual <= tol, float(residual), float(tol))


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
    p = np.random.default_rng(cfg.seed).dirichlet(np.ones(4), size=200)
    spec = channels.choi_pt_spectra(channels.local_depolarizing_kraus(p))
    predicted = np.max(p, axis=1) <= 0.5 + 1e-12
    verdicts_ok = bool(np.array_equal(spec[:, 0] >= -PSD_TOL, predicted))
    worst = float(np.max(np.abs(spec - np.sort(0.5 - p, axis=1))))
    return [_result("eb-threshold", worst, 1e-10, verdicts_ok)]


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


# 4. Werner / isotropic invariance under exact and MC twirls, d in {2,3,4}
def check_qudit_invariance(cfg: VerifyConfig) -> list[CheckResult]:
    out = []
    for d in (2, 3, 4):
        werner = states.werner_multi(d, -0.9)
        iso = states.isotropic(d, 0.8)
        out.append(
            _result(
                f"werner-exact-uu(d={d})",
                frobenius_distance(twirl.twirl_exact(werner, "uu").mat, werner.mat),
                1e-11,
            )
        )
        out.append(
            _result(
                f"isotropic-exact-uustar(d={d})",
                frobenius_distance(twirl.twirl_exact(iso, "uustar").mat, iso.mat),
                1e-11,
            )
        )
        sampler = twirl.HaarSampler(cfg.seed + d, d)
        mc = twirl.mc_twirl(werner, "uu", cfg.mc_samples, sampler)
        out.append(
            _result(f"werner-mc-uu(d={d})", frobenius_distance(mc.mat, werner.mat), cfg.mc_tol)
        )
        mc = twirl.mc_twirl(iso, "uustar", cfg.mc_samples, sampler)
        out.append(
            _result(f"isotropic-mc-uustar(d={d})", frobenius_distance(mc.mat, iso.mat), cfg.mc_tol)
        )
        # single transmission fully depolarizes the sent side
        rng = np.random.default_rng(cfg.seed + 10 * d)
        rho = states.random_density(d, d, rng)
        target = twirl.partial_twirl_exact_mat(rho.mat, (d, d), "A")
        got = twirl.mc_twirl(rho, "partial-A", cfg.mc_samples, sampler).mat
        out.append(
            _result(f"single-transmission-product-mc(d={d})", frobenius_distance(got, target), cfg.mc_tol)
        )
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
    rng = np.random.default_rng(cfg.seed + 3)
    sampler = twirl.HaarSampler(cfg.seed + 4, 3)
    worst = 0.0
    for _ in range(5):
        t = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        t /= np.linalg.norm(t)
        got = twirl.mc_twirl_operator(t, "partial-A", cfg.mc_samples, sampler, (3, 3))
        want = twirl.partial_twirl_exact_mat(t, (3, 3), "A")
        worst = max(worst, float(np.linalg.norm(got - want)))
    out.append(_result("partial-haar-mc(d=3)", worst, cfg.mc_tol))
    return out


# 7. EPR invariance under anti-correlated rotations; PT symplectic spectrum
def check_bosonic_invariance(cfg: VerifyConfig) -> list[CheckResult]:
    worst_inv = worst_nu = 0.0
    for mu in (1.0, 1.5, 2.0, 5.0):
        cm = gaussian.epr_cm(mu)
        worst_inv = max(worst_inv, gaussian.rotation_residual(cm, gaussian.ROTATION_ANGLES, -1.0))
        nu_min, _ = gaussian.pt_symplectic_eigenvalues(cm)
        worst_nu = max(worst_nu, abs(nu_min - (mu - np.sqrt(mu * mu - 1))))
    return [
        _result("epr-anticorrelated-invariance", worst_inv, 1e-12),
        _result("epr-pt-symplectic-closed-form", worst_nu, 1e-10),
    ]


# 8. Correlated-rotation invariant family: 4 parameters, all separable
def check_invariant_family(cfg: VerifyConfig) -> list[CheckResult]:
    fam = gaussian.solve_invariant_cm("correlated")
    _, worst, nu_min = gaussian.quasi_normal_sweep(fam, 10)
    return [
        _result("correlated-family-dimension", abs(fam.dimension - 4), 0.0),
        _result("correlated-family-membership", worst, 1e-10),
        # PPT of every swept point, to the bona-fide tolerance
        _result("correlated-family-separable", max(0.0, 1.0 - nu_min), gaussian.BONA_FIDE_TOL),
    ]


# 9. Uniform dephasing is entanglement-breaking (truncated Fock sector)
def check_dephasing(cfg: VerifyConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 5)
    worst_pt = 0.0
    worst_rec = 0.0
    for n in (4, 6, 8):
        for m in _chunk_lengths(100, n**4):
            # the draws of states.random_pure(n, n, rng), m at a time
            z = rng.standard_normal((m, 2, n * n))
            v = z[:, 0] + 1j * z[:, 1]
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            min_pt, rec_error = gaussian.dephasing_sweep(v, n)
            worst_pt = max(worst_pt, float(np.max(-min_pt)))
            worst_rec = max(worst_rec, float(np.max(rec_error)))
    return [
        _result("dephased-output-ppt", worst_pt, 1e-10),
        _result("dephased-separable-decomposition", worst_rec, 1e-12),
    ]


# 10. Dilations: classical environments reproducing the Kraus action.  The
# dense route (embed, conjugate by the control unitary, trace out) is the
# reference for the direct map and for the kernel behind apply_dilation, which
# are not compared with each other: for the twirl both run conjugate_sum.  The
# Pauli direct map is the Kraus sum written out with np.kron.
def check_dilations(cfg: VerifyConfig) -> list[CheckResult]:
    p = channels.ProbabilityVector(tuple(np.random.default_rng(cfg.seed + 6).dirichlet(np.ones(4))))
    pauli_pairs = [np.kron(pauli, pauli) for pauli in channels.PAULIS]
    # generic twirl dilation with a small Haar-sampled unitary set
    uset = twirl.UnitarySet(twirl.HaarSampler(cfg.seed + 7, 2).sample_batch(6))
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


def run_all(cfg: VerifyConfig) -> list[CheckResult]:
    results = []
    for _, fn in ALL_CHECKS:
        results.extend(fn(cfg))
    return results
