"""The benchmark's workloads.

Each workload is a fixed list of operations, built from the workload seed.
One repetition runs every operation once.  Each operation has a check on
its output; checks test invariants of the physics and of the repo's own
gates, never golden bytes, so a fix to a result field does not count as a
failure.

- ``scenarios``: the five shipped CLI scenarios, round-robin through
  ``twirlbreak.cli.main``; the path users run.
- ``verify``: the acceptance suite through ``twirlbreak.cli.main``; mostly
  many tiny calls (4x4 eigen-solves, covariance-matrix construction).
- ``large-d``: a few large kernels through the library API (batched
  Kronecker MC twirls, the 2304-dim Clifford dilation, d=16 exact twirls);
  working sets of 10^2 to 10^3 MB, and no Gaussian work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from twirlbreak import channels, cli, linalg, states, twirl

# The repo's own Monte-Carlo gate: Frobenius distance <= 5 / sqrt(n).
MC_SIGMAS = 5.0
EXACT_TOL = 1e-9
DILATION_TOL = 1e-11


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    # returns None when the output is correct, else what is wrong with it
    check: Callable[[object], str | None]
    # bytes that must repeat exactly across repetitions of the operation
    digest: Callable[[object], bytes]


def make(workload: str, seed: int, root: Path) -> list[Op]:
    """Build the operations of one workload from its seed."""
    if workload == "scenarios":
        return _scenarios(seed, root)
    if workload == "verify":
        return [_cli_op("verify", ["verify", "--config", "configs/verify.json", "--seed", str(seed)], _verify_check)]
    if workload == "large-d":
        return _large_d(seed)
    raise ValueError(f"unknown workload {workload!r}")


# -- CLI workloads -------------------------------------------------------------

def _cli_op(name: str, argv: list[str], check_doc: Callable[[dict], str | None]) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(res):
        code, out, err = res
        if code != 0:
            return f"exit code {code}: {err.strip()[:300]}"
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return f"output is not JSON: {exc}"
        return check_doc(doc)

    return Op(name, run, check, lambda res: f"{res[0]}\n{res[1]}".encode())


def _scenarios(seed: int, root: Path) -> list[Op]:
    ops = []
    for name, scenario, config in (
        ("pauli", "pauli", "pauli.json"),
        ("qudit-werner-d3", "qudit-twirl", "qudit_werner_d3.json"),
        ("qudit-isotropic-d3", "qudit-twirl", "qudit_isotropic_d3.json"),
        ("bosonic", "bosonic", "bosonic.json"),
        ("eb-test", "eb-test", "eb_test.json"),
    ):
        path = f"configs/{config}"
        params = json.loads((root / path).read_text())
        if not isinstance(params, dict):
            raise ValueError(f"{path} is not a JSON object")
        argv = [scenario, "--config", path]
        if scenario == "qudit-twirl":
            argv += ["--seed", str(seed)]
        mc_tol = MC_SIGMAS / math.sqrt(int(params.get("mc_samples", 10_000)))
        ops.append(_cli_op(name, argv, _rows_check(mc_tol)))
    return ops


def _leaves(obj, key=""):
    """(key, number) for every number in a JSON document, bools excluded."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, k)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v, key)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield key, obj


def _rows_check(mc_tol: float):
    """Every number is finite and every residual is within its gate: 5/sqrt(n)
    for Monte-Carlo residuals, EXACT_TOL for exact ones."""

    def check(doc):
        rows = doc.get("rows")
        if not rows:
            return "no result rows"
        for key, value in _leaves(rows):
            if not math.isfinite(value):
                return f"{key} is not finite"
            if "residual" in key:
                tol = mc_tol if key.startswith("mc") else EXACT_TOL
                if value > tol:
                    return f"{key} = {value:.3e} > {tol:.1e}"
        return None

    return check


def _verify_check(doc):
    bad = [c.get("name") for c in doc.get("checks", []) if not c.get("passed")]
    if bad or doc.get("all_passed") is not True:
        return f"verify failed: {bad}"
    return None


# -- large-d: big kernels through the library API --------------------------------

def _digest(obj) -> bytes:
    if isinstance(obj, (tuple, list)):
        return b"".join(_digest(x) for x in obj)
    return np.ascontiguousarray(obj).tobytes()


def _large_d(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    s1, s2, s3 = (int(x) for x in rng.integers(2**31, size=3))
    return [
        _mc_op("mc-uu-d4", states.random_density(4, 4, rng), "uu", 20_000, s1),
        _mc_op("mc-partial-A-d8", states.random_density(8, 8, rng), "partial-A", 2_000, s2),
        _mc_op("mc-uustar-d6", states.random_density(6, 6, rng), "uustar", 5_000, s3),
        _clifford_dilation_op(states.random_density(2, 2, rng)),
        _exact_twirl_op(16, rng),
    ]


def _mc_op(name: str, rho: linalg.DensityOperator, mode: str, n: int, sampler_seed: int) -> Op:
    d = rho.dim_a

    def run():
        return twirl.mc_twirl(rho, mode, n, twirl.HaarSampler(sampler_seed, d)).mat

    def check(mat):
        if mode == "partial-A":
            exact = twirl.partial_twirl_exact_mat(rho.mat, (d, d), "A")
        else:
            exact = twirl.twirl_exact(rho, mode).mat
        dist = linalg.frobenius_distance(mat, exact)
        tol = MC_SIGMAS / math.sqrt(n)
        return None if dist <= tol else f"MC distance {dist:.3e} > {tol:.3e}"

    return Op(name, run, check, _digest)


def _clifford_dilation_op(rho: linalg.DensityOperator) -> Op:
    """The K=24 Clifford twirl through its classical-environment dilation
    (a 2304-dim control unitary), against the direct twirl sum."""

    def run():
        group = twirl.clifford_group_qubit()
        dil = channels.build_twirl_dilation(group.unitaries)
        return channels.apply_dilation(dil, rho).mat

    def check(mat):
        group = twirl.clifford_group_qubit()
        if len(group) != 24:
            return f"Clifford group has {len(group)} elements"
        dist = linalg.frobenius_distance(mat, twirl.twirl_operator(rho.mat, group))
        return None if dist <= DILATION_TOL else f"dilation distance {dist:.3e} > {DILATION_TOL:.0e}"

    return Op("clifford-dilation", run, check, _digest)


def _exact_twirl_op(d: int, rng: np.random.Generator) -> Op:
    """Exact U x U and U x U* twirls at dimension d, with negativities
    checked against the Werner and isotropic closed forms."""
    psi = states.max_entangled(d).mat
    flip = states.flip_operator(d)
    antisym = (np.eye(d * d) - flip) / (d * (d - 1))
    w_uu, w_iso = rng.uniform(0.2, 0.9, size=2)
    rho_uu = linalg.DensityOperator(w_uu * antisym + (1 - w_uu) * states.random_density(d, d, rng).mat, d, d)
    rho_iso = linalg.DensityOperator(w_iso * psi + (1 - w_iso) * states.random_density(d, d, rng).mat, d, d)
    # Werner: N = max(0, -Tr(V rho)/d); isotropic: N = max(0, (d F - 1)/2)
    want = (
        max(0.0, -float(np.trace(flip @ rho_uu.mat).real) / d),
        max(0.0, (d * float(np.trace(psi @ rho_iso.mat).real) - 1) / 2),
    )

    def run():
        out = []
        for rho, mode in ((rho_uu, "uu"), (rho_iso, "uustar")):
            twirled = twirl.twirl_exact(rho, mode)
            out.append((linalg.negativity(rho), linalg.negativity(twirled), twirled.mat))
        return out

    def check(res):
        for (n_in, n_out, _), n_want, mode in zip(res, want, ("uu", "uustar")):
            if abs(n_out - n_want) > EXACT_TOL:
                return f"{mode} twirl negativity {n_out:.12g} != closed form {n_want:.12g}"
            if n_out > n_in + EXACT_TOL:
                return f"{mode} twirl raised the negativity from {n_in:.6g} to {n_out:.6g}"
        return None

    return Op(f"exact-twirl-d{d}", run, check, _digest)
