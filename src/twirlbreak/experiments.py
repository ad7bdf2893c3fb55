"""Scenario runners wiring the library into the three entanglement
distribution settings, plus machine-readable result serialization."""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import channels, gaussian, states, twirl, verification
from .linalg import (
    DensityOperator,
    frobenius_distance,
    hermitian_eigenvalues,
    negativity,
    negativity_from_spectrum,
    partial_transpose,
    ppt_from_spectrum,
    validate_density_stack,
)


class ConfigError(ValueError):
    """Raised on malformed configs or channel files (CLI exit code 2)."""


class RefusedValueError(ValueError):
    """Raised on a result value that a row or the JSON writer refuses: a
    negative or NaN negativity or residual, a non-finite number (CLI exit
    code 1)."""


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
    # the directory of the config file, which relative paths in it are read against
    _dir: str = field(default="", init=False, repr=False, compare=False)

    @classmethod
    def from_file(cls, scenario: str, path: str) -> "ExperimentConfig":
        cfg = cls(scenario=scenario, params=_read_object(path, "config"))
        cfg._dir = os.path.dirname(path)
        return cfg

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
        # written as not v >= 0, so that a NaN is refused too
        if any(v is not None and not v >= 0 for v in negativities):
            raise RefusedValueError("negativities must be nonnegative")
        if self.invariance_residual is not None and not self.invariance_residual >= 0:
            raise RefusedValueError("residuals must be nonnegative")


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
    # every row's state is built before any sample is drawn
    rhos = []
    for value in grid:
        try:
            rhos.append(states.werner_multi(d, value) if mode == "uu" else states.isotropic(d, value))
        except ValueError as exc:
            raise ConfigError(f"invalid family parameter {value}: {exc}") from exc
    # one draw of the config's Haar stream serves every row, each row's
    # twirl bit for bit the one it would get alone
    probes = np.stack([rho.mat for rho in rhos])
    mcs = validate_density_stack(twirl.mc_twirl_operator(probes, mode, n_mc, twirl.HaarSampler(seed, d), (d, d)))
    rows = []
    for value, rho, mc in zip(grid, rhos, mcs):
        double = twirl.twirl_exact(rho, mode)
        residual = frobenius_distance(double.mat, rho.mat)
        mc_residual = frobenius_distance(mc, rho.mat)
        # single transmission leaves the product form I/d x Tr_A rho, for every d
        single_out = twirl.partial_twirl_exact_mat(rho.mat, (d, d), "A")
        single_neg = negativity(DensityOperator(single_out, d, d))
        # the negativity and the PPT verdict read one partial-transpose spectrum
        pt_spectrum = hermitian_eigenvalues(partial_transpose(double))
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
                double_transmission_negativity=negativity_from_spectrum(pt_spectrum),
                invariance_residual=residual,
                eb_verdict="PPT" if ppt_from_spectrum(pt_spectrum) else "NPT (entanglement preserved)",
            )
        )
    return rows


# the largest Fock cutoff n a bosonic row may use (mu up to about 11); a row
# holds O(n^2) entries on its state's support, so memory no longer sets the
# cap, but raising it changes which configs run
MAX_FOCK_CUTOFF = 40


def _fock_cutoff(mu: float) -> int:
    """The Fock cutoff for the squeezed state at mu: the least n >= 2 whose
    truncation one mode short already has its tail lam^(2(n - 1)), lam^2 =
    (mu - 1)/(mu + 1), within gaussian.TAIL_TOL.  The floor of 2 is the
    vacuum's, whose dephased PT spectrum then keeps its least eigenvalue 0.
    One above MAX_FOCK_CUTOFF is a ConfigError."""
    need = 2.0
    if mu > 1:
        # log1p keeps log(lam^2) < 0 where lam itself rounds to 1
        need = np.ceil(np.log(gaussian.TAIL_TOL) / np.log1p(-2 / (mu + 1))) + 1
    if need > MAX_FOCK_CUTOFF:
        raise ConfigError(f"mu = {mu} needs Fock cutoff {need:g}, above the cap of {MAX_FOCK_CUTOFF}")
    return int(need)


def _gaussian_negativity(nu_min: float) -> float:
    """max(0, (1/nu_min - 1)/2) from the least PT symplectic eigenvalue
    (Vidal & Werner, PRA 65, 032314, 2002); NaN for a NaN nu_min."""
    return float(np.max([0.0, (1.0 / nu_min - 1.0) / 2]))


def run_bosonic_scenario(cfg: ExperimentConfig) -> list[ResultRow]:
    mus = _grid(cfg, "mu_grid")
    cfg.reject_unread()
    if min(mus) < 1:
        raise ConfigError("mu must be >= 1")
    # every row's cutoff is checked before any state is built
    cutoffs = [_fock_cutoff(mu) for mu in mus]
    rows = []
    for mu, n_fock in zip(mus, cutoffs):
        cm = gaussian.epr_cm(mu)
        residual = gaussian.rotation_residual(cm, -1.0)
        nu_min, _ = gaussian.pt_symplectic_eigenvalues(cm)
        # single transmission: uniform dephasing of the truncated squeezed state
        lam = np.sqrt((mu - 1) / (mu + 1))
        # on the state's support, the n_fock indices |kk>, not the n_fock^2 x
        # n_fock^2 matrix: its k-blocks are 1x1, and the n_fock^2 - n_fock
        # other eigenvalues of the output's partial transpose are exact zeros
        _, tmsv = gaussian.tmsv_support(lam, n_fock)
        _, spectra = gaussian.dephased_blocks(tmsv[None], n_fock)
        # one solve gives the least PT eigenvalue, the negativity and the PPT verdict
        pt_spectrum = np.sort(np.concatenate([spectra.ravel(), np.zeros(n_fock * (n_fock - 1))]))
        rows.append(
            ResultRow(
                scenario="bosonic",
                params={
                    "mu": mu,
                    "mode": "anticorrelated",
                    "fock_cutoff": n_fock,
                    "pt_symplectic_min": nu_min,
                    "dephased_min_pt_eigenvalue": float(pt_spectrum[0]),
                },
                single_transmission_negativity=negativity_from_spectrum(pt_spectrum),
                double_transmission_negativity=_gaussian_negativity(nu_min),
                invariance_residual=residual,
                eb_verdict="EB (dephased output PPT)" if ppt_from_spectrum(pt_spectrum) else "NOT-EB",
            )
        )
    # correlated environment: det C >= 0 on the whole invariant family, so
    # every state in it is separable (the verify gate's rule)
    fam = gaussian.solve_invariant_cm("correlated")
    form_min = gaussian.det_c_form_min(fam)
    all_sep = form_min >= -gaussian.BONA_FIDE_TOL
    rows.append(
        ResultRow(
            scenario="bosonic",
            params={
                "mode": "correlated",
                "family_dimension": fam.dimension,
                "det_c_form_min": form_min,
                "all_separable": all_sep,
            },
            single_transmission_negativity=None,
            double_transmission_negativity=None,
            # the largest residual of the four quasi-normal directions
            invariance_residual=float(np.max(fam.residual(gaussian._quasi_normal_stack(*np.eye(4))))),
            eb_verdict="separable family" if all_sep else "UNEXPECTED: det C < 0 on a member",
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
    ch = load_channel_file(os.path.join(cfg._dir, path))
    d = ch.dim
    ppt, spec = channels.is_entanglement_breaking(ch)
    if channels.is_product_form(channels.choi_states(ch.operators[None])[0], (d, d)):
        verdict = "EB (product form)"
    elif d == 2:
        verdict = "EB" if ppt else "NOT-EB"
    else:
        verdict = "PPT" if ppt else "NPT"
    return [
        ResultRow(
            scenario="eb-test",
            params={"d": d, "witness_spectrum": [float(x) for x in spec]},
            single_transmission_negativity=negativity_from_spectrum(spec),
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
        # a group that raised has an error entry, which a passing run never has
        "checks": [
            {"name": r.name, "passed": r.passed, "residual": r.residual, "tolerance": r.tolerance}
            | ({} if r.error is None else {"error": r.error})
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }


# -- serialization ---------------------------------------------------------

def rows_to_document(rows: list[ResultRow], scenario: str, config_params: dict) -> dict:
    return {
        "scenario": scenario,
        "config": config_params,
        "rows": [asdict(r) for r in rows],
    }


def _json(v) -> str:
    """v as JSON text, each float as Python's shortest repr that reads back
    as it; a non-finite number, which JSON has none of, is refused."""
    try:
        return json.dumps(v, allow_nan=False)
    except ValueError:
        raise RefusedValueError("cannot serialize a non-finite number: JSON has none") from None


def dumps_document(doc: dict) -> str:
    return _json(doc) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""  # the scenario does not measure this field
    return v if isinstance(v, str) else _json(v)


def csv_text(rows: list[ResultRow]) -> str:
    """The rows as a flat CSV document, one header line of the field names."""
    f = io.StringIO(newline="")
    w = csv.writer(f)
    w.writerow([f.name for f in fields(ResultRow)])
    for r in rows:
        w.writerow([_csv_cell(v) for v in asdict(r).values()])
    return f.getvalue()
