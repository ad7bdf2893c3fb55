"""Scenario runners wiring the library into the three entanglement
distribution settings, plus machine-readable result serialization."""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import channels, gaussian, states, twirl, verification
from .linalg import (
    PSD_TOL,
    DensityOperator,
    frobenius_distance,
    hermitian_eigenvalues,
    negativity,
    negativity_from_spectrum,
    partial_transpose,
)


class ConfigError(ValueError):
    """Raised on malformed configs or channel files (CLI exit code 2)."""


def _read_object(path: str, what: str) -> dict:
    """The JSON object in the file at path; a file that cannot be read or
    parsed, or that holds anything but an object, is a ConfigError naming
    what the file is (a config, a channel file)."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return raw


@dataclass
class ExperimentConfig:
    """A scenario's config; the scenario names are the CLI's subcommands."""

    scenario: str
    params: dict = field(default_factory=dict)
    _read: set = field(default_factory=set, init=False, repr=False, compare=False)

    @classmethod
    def from_file(cls, scenario: str, path: str) -> "ExperimentConfig":
        return cls(scenario=scenario, params=_read_object(path, "config"))

    def get(self, key, default=None):
        self._read.add(key)
        return self.params.get(key, default)

    def require(self, key):
        self._read.add(key)
        if key not in self.params:
            raise ConfigError(f"config key {key!r} is required for scenario {self.scenario!r}")
        return self.params[key]

    def reject_unread(self) -> None:
        """Raise on a key that no get or require call has read; runners call
        it once they have read their keys, before any computation."""
        unread = [key for key in self.params if key not in self._read]
        if unread:
            raise ConfigError(f"unknown config key(s) {', '.join(map(repr, unread))} for scenario {self.scenario!r}")


@dataclass
class ResultRow:
    """One result row; a field is None where the scenario does not measure it."""

    scenario: str
    params: dict
    single_transmission_negativity: float | None
    double_transmission_negativity: float | None
    invariance_residual: float | None
    eb_verdict: str

    def __post_init__(self):
        negativities = (self.single_transmission_negativity, self.double_transmission_negativity)
        if any(v is not None and v < 0 for v in negativities):
            raise ValueError("negativities must be nonnegative")
        if self.invariance_residual is not None and self.invariance_residual < 0:
            raise ValueError("residuals must be nonnegative")


def _pauli_vector(value, key: str) -> channels.ProbabilityVector:
    """The Pauli probability vector (p_I, p_X, p_Y, p_Z) that the value of
    key holds, a list of 4 numbers: a pauli config's p or a channel file's
    pauli_p."""
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ConfigError(f"{key} must be a list of 4 Pauli probabilities, got {value!r}")
    entries = tuple(_number(x, f"{key} entry") for x in value)
    try:
        return channels.ProbabilityVector(entries)
    except ValueError as exc:
        raise ConfigError(f"invalid {key}: {exc}") from exc


def _number(value, key: str, integer: bool = False, minimum: int | None = None):
    """A finite config value as a float, or as an int when integer (then at
    least minimum, if given).  Anything else, bools, strings, NaN and +-inf
    included, and a non-integral value for an integer key, is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if not integer or not isinstance(value, numbers.Integral):
        try:
            number = float(value)
        except OverflowError:
            raise ConfigError(f"{key} is too large for a float") from None
        if not math.isfinite(number):
            raise ConfigError(f"{key} must be finite, got {value!r}")
        if not integer:
            return number
        if not number.is_integer():
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value!r}")
    return int(value)


def _grid(cfg: ExperimentConfig, key: str) -> list:
    g = cfg.require(key)
    if not isinstance(g, (list, tuple)) or not g:
        raise ConfigError(f"{key} must be a non-empty list")
    return [_number(x, f"{key} entry") for x in g]


def _seed_and_samples(cfg: ExperimentConfig) -> tuple[int, int]:
    """The seed and mc_samples keys, defaulting to VerifyConfig's fields."""
    defaults = verification.VerifyConfig
    seed = _number(cfg.get("seed", defaults.seed), "seed", integer=True, minimum=0)
    return seed, _number(cfg.get("mc_samples", defaults.mc_samples), "mc_samples", integer=True, minimum=1)


def run_pauli_scenario(cfg: ExperimentConfig) -> list[ResultRow]:
    p = _pauli_vector(cfg.require("p"), "p")
    gammas = _grid(cfg, "gamma_grid")
    cfg.reject_unread()
    single = channels.local_depolarizing(p)
    double = channels.correlated_pauli(p)
    # the warning and every row's eb_verdict read one Choi PPT test
    eb, _ = channels.is_entanglement_breaking(single)
    if not eb:
        print(
            f"warning: single transmission is NOT entanglement-breaking (Choi state NPT, max p_k = {max(p.p)})",
            file=sys.stderr,
        )
    rows = []
    for gamma in gammas:
        try:
            rho = states.werner_qubit(gamma)
        except ValueError as exc:
            raise ConfigError(f"invalid family parameter {gamma}: {exc}") from exc
        out_single = channels.apply_kraus(single, rho)
        out_double = channels.apply_dilation(double, rho)
        rows.append(
            ResultRow(
                scenario="pauli",
                params={"gamma": gamma, "p": list(p.p)},
                single_transmission_negativity=negativity(out_single),
                double_transmission_negativity=negativity(out_double),
                invariance_residual=frobenius_distance(out_double.mat, rho.mat),
                eb_verdict="EB" if eb else "NOT-EB",
            )
        )
    return rows


def run_qudit_scenario(cfg: ExperimentConfig) -> list[ResultRow]:
    d = _number(cfg.require("d"), "d", integer=True, minimum=2)
    mode = cfg.require("mode")
    if mode not in ("uu", "uustar"):
        raise ConfigError("mode must be 'uu' or 'uustar'")
    grid = _grid(cfg, "param_grid")
    seed, n_mc = _seed_and_samples(cfg)
    cfg.reject_unread()
    # one Haar stream per row, so a row does not depend on the rows before it
    streams = np.random.SeedSequence(seed).spawn(len(grid))
    rows = []
    for value, stream in zip(grid, streams):
        try:
            if mode == "uu":
                rho = states.werner_multi(d, value)
            else:
                rho = states.isotropic(d, value)
        except ValueError as exc:
            raise ConfigError(f"invalid family parameter {value}: {exc}") from exc
        double = twirl.twirl_exact(rho, mode)
        residual = frobenius_distance(double.mat, rho.mat)
        mc = twirl.mc_twirl(rho, mode, n_mc, twirl.HaarSampler(stream, d))
        mc_residual = frobenius_distance(mc.mat, rho.mat)
        # single transmission leaves the product form I/d x Tr_A rho, for every d
        single_out = twirl.partial_twirl_exact_mat(rho.mat, (d, d), "A")
        single_neg = negativity(DensityOperator(single_out, d, d))
        # the negativity and the PPT verdict (least eigenvalue >= -PSD_TOL,
        # the rule of is_ppt) read one partial-transpose spectrum
        pt_spectrum = hermitian_eigenvalues(partial_transpose(double))
        neg_double = negativity_from_spectrum(pt_spectrum)
        ppt = pt_spectrum[0] >= -PSD_TOL
        if d <= 2:
            verdict = "EB" if ppt else "entanglement preserved"
        else:
            verdict = "PPT" if ppt else "NPT (entanglement preserved)"
        rows.append(
            ResultRow(
                scenario="qudit-twirl",
                params={
                    "d": d,
                    "mode": mode,
                    "param": value,
                    "mc_residual": mc_residual,
                    "single_verdict": "separable (product form)",
                },
                single_transmission_negativity=single_neg,
                double_transmission_negativity=neg_double,
                invariance_residual=residual,
                eb_verdict=verdict,
            )
        )
    return rows


# the largest Fock cutoff n a bosonic row may use (mu up to about 11); a row
# holds O(n^2) entries on its state's support, so memory no longer sets the
# cap, but raising it changes which configs run
MAX_FOCK_CUTOFF = 40


def _fock_cutoff(mu: float, cutoff: int) -> int:
    """The Fock cutoff for the squeezed state at mu: cutoff, enlarged until the
    truncation tail lam^(2n), lam^2 = (mu - 1)/(mu + 1), is below gaussian.TAIL_TOL.
    One above MAX_FOCK_CUTOFF is a ConfigError."""
    need = float(cutoff)
    if mu > 1:
        # log1p keeps log(lam^2) < 0 where lam itself rounds to 1
        need = max(need, np.ceil(np.log(gaussian.TAIL_TOL) / np.log1p(-2 / (mu + 1))) + 1)
    if need > MAX_FOCK_CUTOFF:
        raise ConfigError(f"mu = {mu} needs Fock cutoff {need:g}, above the cap of {MAX_FOCK_CUTOFF}")
    return int(need)


def run_bosonic_scenario(cfg: ExperimentConfig) -> list[ResultRow]:
    mus = _grid(cfg, "mu_grid")
    cutoff = _number(cfg.get("fock_cutoff", 8), "fock_cutoff", integer=True, minimum=1)
    cfg.reject_unread()
    if min(mus) < 1:
        raise ConfigError("mu must be >= 1")
    # every row's cutoff is checked before any state is built
    cutoffs = [_fock_cutoff(mu, cutoff) for mu in mus]
    rows = []
    for mu, n_fock in zip(mus, cutoffs):
        cm = gaussian.epr_cm(mu)
        residual = gaussian.rotation_residual(cm, gaussian.ROTATION_ANGLES, -1.0)
        nu_min, _ = gaussian.pt_symplectic_eigenvalues(cm)
        # Gaussian negativity (Vidal & Werner, PRA 65, 032314, 2002)
        double_neg = max(0.0, (1.0 / nu_min - 1.0) / 2)
        # single transmission: uniform dephasing of the truncated squeezed state
        lam = np.sqrt((mu - 1) / (mu + 1))
        # on the state's support, the n_fock indices |kk>, not the n_fock^2 x
        # n_fock^2 matrix: its k-blocks are 1x1, and the n_fock^2 - n_fock
        # other eigenvalues of the output's partial transpose are exact zeros
        _, tmsv = gaussian.tmsv_support(lam, n_fock)
        _, spectra = gaussian.dephased_blocks(tmsv[None], n_fock)
        # one solve gives both the least PT eigenvalue and the negativity
        pt_spectrum = np.sort(np.concatenate([spectra.ravel(), np.zeros(n_fock * (n_fock - 1))]))
        min_pt = float(pt_spectrum[0])
        rows.append(
            ResultRow(
                scenario="bosonic",
                params={
                    "mu": mu,
                    "mode": "anticorrelated",
                    "fock_cutoff": n_fock,
                    "pt_symplectic_min": nu_min,
                    "dephased_min_pt_eigenvalue": min_pt,
                },
                single_transmission_negativity=negativity_from_spectrum(pt_spectrum),
                double_transmission_negativity=double_neg,
                invariance_residual=residual,
                eb_verdict="EB (dephased output PPT)" if min_pt >= -PSD_TOL else "NOT-EB",
            )
        )
    # correlated environment: the whole invariant family is separable
    fam = gaussian.solve_invariant_cm("correlated")
    swept, fam_residual, nu_min = gaussian.quasi_normal_sweep(fam, 6)
    all_sep = nu_min >= 1.0 - gaussian.BONA_FIDE_TOL
    rows.append(
        ResultRow(
            scenario="bosonic",
            params={
                "mode": "correlated",
                "family_dimension": fam.dimension,
                "swept_points": swept,
                "all_separable": all_sep,
            },
            single_transmission_negativity=None,
            double_transmission_negativity=max(0.0, (1.0 / nu_min - 1.0) / 2),
            invariance_residual=fam_residual,
            eb_verdict="separable family" if all_sep else "UNEXPECTED: entangled point",
        )
    )
    return rows


def load_channel_file(path: str) -> channels.KrausChannel:
    """Parse the channel-description document, which holds exactly one key:
    {"kraus": [...]} (matrices as nested [re, im] pairs, row-major, acting on
    one system) or {"pauli_p": [p0, p1, p2, p3]}."""
    doc = _read_object(path, "channel file")
    if len(doc) != 1 or not doc.keys() <= {"kraus", "pauli_p"}:
        raise ConfigError(f"channel file must hold exactly one key, 'kraus' or 'pauli_p', got {list(doc)}")
    if "pauli_p" in doc:
        return channels.local_depolarizing(_pauli_vector(doc["pauli_p"], "pauli_p"))
    try:
        return channels.KrausChannel([[[complex(re, im) for re, im in row] for row in m] for m in doc["kraus"]])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid kraus: {exc}") from exc


def run_eb_test(cfg: ExperimentConfig) -> list[ResultRow]:
    path = cfg.require("channel_file")
    if not isinstance(path, str):
        raise ConfigError(f"channel_file must be a string path, got {path!r}")
    cfg.reject_unread()
    ch = load_channel_file(path)
    d = ch.dim
    # the PPT verdict and the product-form test read one Choi state
    choi, ppt, spec = channels.choi_test(ch)
    product = channels.is_product_form(choi, (d, d))
    if product:
        verdict = "EB (product form)"
    elif d == 2:
        verdict = "EB" if ppt else "NOT-EB"
    else:
        verdict = "PPT" if ppt else "NPT"
    neg = negativity_from_spectrum(spec)
    return [
        ResultRow(
            scenario="eb-test",
            params={"d": d, "witness_spectrum": [float(x) for x in spec]},
            single_transmission_negativity=neg,
            double_transmission_negativity=None,
            invariance_residual=None,
            eb_verdict=verdict,
        )
    ]


def run_verify(cfg: ExperimentConfig) -> dict:
    vcfg = verification.VerifyConfig(*_seed_and_samples(cfg))
    cfg.reject_unread()
    results = verification.run_all(vcfg)
    return {
        "scenario": "verify",
        "seed": vcfg.seed,
        "mc_samples": vcfg.mc_samples,
        "checks": [
            {"name": r.name, "passed": r.passed, "residual": r.residual, "tolerance": r.tolerance}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }


# -- serialization ---------------------------------------------------------

def _fmt_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise ValueError(f"cannot serialize the non-finite number {v!r}: JSON has none")
        # 17 significant digits round-trips IEEE doubles
        return format(float(v), ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_fmt_value(x)}" for k, x in v.items()) + "}"
    raise TypeError(f"cannot serialize {type(v)}")


def rows_to_document(rows: list[ResultRow], scenario: str, config_params: dict) -> dict:
    return {
        "scenario": scenario,
        "config": config_params,
        "rows": [asdict(r) for r in rows],
    }


def dumps_document(doc: dict) -> str:
    return _fmt_value(doc) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""  # the scenario does not measure this field
    return v if isinstance(v, str) else _fmt_value(v)


def write_csv(rows: list[ResultRow], path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f.name for f in fields(ResultRow)])
        for r in rows:
            w.writerow([_csv_cell(v) for v in asdict(r).values()])
