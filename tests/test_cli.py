"""End-to-end tests of the twirlbreak command-line interface."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import twirlbreak
from twirlbreak import experiments, gaussian, twirl
from twirlbreak.cli import main
from twirlbreak.experiments import ExperimentConfig, dumps_document, run_pauli_scenario, run_qudit_scenario
from twirlbreak.linalg import PSD_TOL, DensityOperator, frobenius_distance, is_ppt, negativity, partial_transpose_mat
from twirlbreak.states import isotropic, max_entangled_mat, werner_multi
from twirlbreak.twirl import HaarSampler, mc_twirl

CONFIG_DIR = "configs"
ROOT = Path(__file__).resolve().parents[1]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestScenarios:
    def test_pauli_scenario(self, capsys):
        code, out, _ = _run(capsys, "pauli", "--config", f"{CONFIG_DIR}/pauli.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"] == "pauli"
        by_gamma = {r["params"]["gamma"]: r for r in doc["rows"]}
        # single transmission always separable, double preserves past threshold
        for gamma, row in by_gamma.items():
            assert row["single_transmission_negativity"] <= 1e-12
            assert row["eb_verdict"] == "EB"
            expected = max(0.0, (3 * gamma - 1) / 4)
            assert abs(row["double_transmission_negativity"] - expected) < 1e-10

    def test_qudit_scenario(self, capsys):
        code, out, _ = _run(
            capsys, "qudit-twirl", "--config", f"{CONFIG_DIR}/qudit_werner_d3.json"
        )
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"]:
            assert row["single_transmission_negativity"] <= 1e-11
            assert row["invariance_residual"] <= 0.05

    def test_bosonic_scenario_adaptive_cutoff(self, capsys):
        code, out, _ = _run(capsys, "bosonic", "--config", f"{CONFIG_DIR}/bosonic.json")
        assert code == 0
        doc = json.loads(out)
        mu_rows = [r for r in doc["rows"] if "mu" in r["params"]]
        assert [r["params"]["mu"] for r in mu_rows] == [1, 1.5, 2, 5]
        for r in mu_rows:
            assert r["single_transmission_negativity"] <= 1e-10
            # cutoff grows with squeezing so the truncation tail stays small
            assert r["params"]["fock_cutoff"] >= 8
        assert mu_rows[-1]["params"]["fock_cutoff"] > 8

    def test_bosonic_scenario_does_not_import_numpy_ma(self):
        # numpy.ma (pulled in lazily by np.unique, among others) costs about
        # 1 MiB of resident memory that the scenario has no use for
        code = (
            "import contextlib, io, sys\n"
            "from twirlbreak.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['bosonic', '--config', 'configs/bosonic.json']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(twirlbreak.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_bosonic_rows_match_closed_forms(self, capsys):
        code, out, _ = _run(capsys, "bosonic", "--config", f"{CONFIG_DIR}/bosonic.json")
        assert code == 0
        mu_rows = [r for r in json.loads(out)["rows"] if "mu" in r["params"]]
        assert len(mu_rows) == 4
        for r in mu_rows:
            mu = r["params"]["mu"]
            root = np.sqrt(mu * mu - 1)
            # EPR: nu_min of the partial transpose is mu - sqrt(mu^2 - 1), and the
            # Gaussian negativity (1/nu_min - 1)/2 is (mu + sqrt(mu^2 - 1) - 1)/2
            assert abs(r["params"]["pt_symplectic_min"] - (mu - root)) < 1e-10
            assert abs(r["double_transmission_negativity"] - (mu + root - 1) / 2) < 1e-10
            # the dephased (single-transmission) output is PPT
            assert abs(r["single_transmission_negativity"]) < 1e-10
            assert r["params"]["dephased_min_pt_eigenvalue"] >= -1e-10
        assert mu_rows[0]["double_transmission_negativity"] == 0

    def test_bosonic_row_memory_stays_on_the_support(self):
        # at cutoff 39 a dense two-mode state holds 39^4 complex entries, 37 MB;
        # the rows work on the 39 indices of the state's support instead
        cfg = ExperimentConfig("bosonic", {"mu_grid": [11.0]})
        tracemalloc.start()
        try:
            rows = experiments.run_bosonic_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows[0].params["fock_cutoff"] == 39
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("config", ["qudit_werner_d3", "qudit_isotropic_d3"])
    def test_qudit_single_negativity_is_measured(self, capsys, config):
        code, out, _ = _run(capsys, "qudit-twirl", "--config", f"{CONFIG_DIR}/{config}.json")
        assert code == 0
        doc = json.loads(out)
        cfg = json.loads(Path(f"{CONFIG_DIR}/{config}.json").read_text())
        assert len(doc["rows"]) == len(cfg["param_grid"])
        for row, value in zip(doc["rows"], cfg["param_grid"]):
            if cfg["mode"] == "uu":
                rho = werner_multi(3, value)
            else:
                rho = isotropic(3, value)
            single = DensityOperator(twirl.partial_twirl_exact_mat(rho.mat, (3, 3), "A"), 3, 3)
            assert row["single_transmission_negativity"] == negativity(single)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("mode, grid", [("uu", [-0.9, 0.5]), ("uustar", [0.0, 0.8])], ids=["uu", "uustar"])
    def test_qudit_single_transmission_is_the_product_form(self, monkeypatch, d, mode, grid):
        # one path for every d: no Clifford route, and no residual of the product form against itself
        def forbidden(*args, **kwargs):
            raise AssertionError("single transmission must not take a Clifford route")

        monkeypatch.setattr(twirl, "clifford_group_qubit", forbidden)
        monkeypatch.setattr(twirl, "partial_twirl_operator", forbidden)
        cfg = ExperimentConfig("qudit-twirl", {"d": d, "mode": mode, "param_grid": grid, "mc_samples": 100})
        rows = run_qudit_scenario(cfg)
        assert len(rows) == len(grid)
        for row, value in zip(rows, grid):
            assert set(row.params) == {"d", "mode", "param", "mc_residual", "single_verdict"}
            rho = werner_multi(d, value) if mode == "uu" else isotropic(d, value)
            product = twirl.partial_twirl_exact_mat(rho.mat, (d, d), "A")
            assert row.single_transmission_negativity == negativity(DensityOperator(product, d, d))

    @pytest.mark.parametrize(
        "p, warned, verdict",
        [
            # max p is 5e-11 above 1/2, yet the Choi PT's least eigenvalue is within PSD_TOL
            ([0.50000000005, 0.16666666665, 0.16666666665, 0.16666666665], False, "EB"),
            ([0.6, 0.13333333333333333, 0.13333333333333333, 0.13333333333333334], True, "NOT-EB"),
        ],
        ids=["max-p-just-above-half", "max-p-0.6"],
    )
    def test_pauli_warning_follows_the_verdict(self, capsys, p, warned, verdict):
        rows = run_pauli_scenario(ExperimentConfig("pauli", {"p": p, "gamma_grid": [0.5]}))
        err = capsys.readouterr().err
        assert ("NOT entanglement-breaking" in err) == warned
        assert [r.eb_verdict for r in rows] == [verdict]

    def test_qudit_verdict_is_the_ppt_test(self):
        # the twirled isotropic state's partial transpose has three eigenvalues
        # of about -5e-11 here: negativity 1.5e-10 > PSD_TOL, least eigenvalue
        # within it, so the state is PPT by the rule of is_ppt
        d, value = 3, 0.2500000001125
        cfg = ExperimentConfig("qudit-twirl", {"d": d, "mode": "uustar", "param_grid": [value], "mc_samples": 100})
        (row,) = run_qudit_scenario(cfg)
        double = twirl.twirl_exact(isotropic(d, value), "uustar")
        assert row.double_transmission_negativity == negativity(double)
        assert row.double_transmission_negativity > PSD_TOL
        assert is_ppt(double)
        assert row.eb_verdict == "PPT"

    def test_bosonic_family_row_is_measured(self, capsys):
        code, out, _ = _run(capsys, "bosonic", "--config", f"{CONFIG_DIR}/bosonic.json")
        assert code == 0
        row = json.loads(out)["rows"][-1]
        assert row["params"]["mode"] == "correlated"
        swept, residual, nu_min = gaussian.quasi_normal_sweep(gaussian.solve_invariant_cm("correlated"), 6)
        assert row["params"]["swept_points"] == swept
        assert row["invariance_residual"] == residual
        assert row["double_transmission_negativity"] == max(0.0, (1.0 / nu_min - 1.0) / 2)

    def test_eb_test_scenario(self, capsys):
        code, out, _ = _run(capsys, "eb-test", "--config", f"{CONFIG_DIR}/eb_test.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["eb_verdict"] in ("EB", "NOT-EB")

    def test_eb_test_on_the_boundary_channel(self, capsys, tmp_path):
        # max p = 1/2, the threshold: the Choi state is PPT, least PT eigenvalue 0 up to rounding
        cfg = _write(tmp_path, "cfg.json", {"channel_file": f"{CONFIG_DIR}/channel_eb_boundary.json"})
        code, out, _ = _run(capsys, "eb-test", "--config", cfg)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["eb_verdict"] == "EB"
        assert min(row["params"]["witness_spectrum"]) >= -PSD_TOL

    def test_verify_scenario(self, capsys):
        code, out, _ = _run(capsys, "verify", "--config", f"{CONFIG_DIR}/verify.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert all(c["passed"] for c in doc["checks"])


class TestOutputs:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf])
    def test_document_rejects_non_finite_number(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            dumps_document({"tolerance": bad})

    def test_out_file_deterministic(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for path in (a, b):
            code, _, _ = _run(
                capsys,
                "qudit-twirl",
                "--config",
                f"{CONFIG_DIR}/qudit_werner_d3.json",
                "--seed",
                "7",
                "--out",
                path,
            )
            assert code == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_seed_changes_mc_residual(self, capsys, tmp_path):
        outs = []
        for seed in ("7", "8"):
            path = str(tmp_path / f"s{seed}.json")
            _run(
                capsys,
                "qudit-twirl",
                "--config",
                f"{CONFIG_DIR}/qudit_werner_d3.json",
                "--seed",
                seed,
                "--out",
                path,
            )
            outs.append(json.loads(Path(path).read_text()))
        a = outs[0]["rows"][0]["params"]["mc_residual"]
        b = outs[1]["rows"][0]["params"]["mc_residual"]
        assert a != b

    def test_qudit_rows_reproduce_alone(self, capsys, tmp_path):
        # each row draws from its own Haar stream, spawned from the seed by row index
        grid = [-0.9, -0.5, 0.0, 0.5]
        rows = []
        for g in (grid, grid[:2]):
            cfg = {"d": 2, "mode": "uu", "param_grid": g, "seed": 5, "mc_samples": 200}
            code, out, _ = _run(capsys, "qudit-twirl", "--config", _write(tmp_path, f"q{len(g)}.json", cfg))
            assert code == 0
            rows.append([r["params"]["mc_residual"] for r in json.loads(out)["rows"]])
        full, truncated = rows
        assert truncated == full[:2]
        rho = werner_multi(2, grid[3])
        alone = mc_twirl(rho, "uu", 200, HaarSampler(np.random.SeedSequence(5).spawn(4)[3], 2))
        assert full[3] == frobenius_distance(alone.mat, rho.mat)

    def test_csv_output(self, capsys, tmp_path):
        path = str(tmp_path / "rows.csv")
        code, _, _ = _run(
            capsys, "pauli", "--config", f"{CONFIG_DIR}/pauli.json", "--csv", path
        )
        assert code == 0
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows and rows[0]["scenario"] == "pauli"
        assert float(rows[0]["single_transmission_negativity"]) <= 1e-12

    @pytest.mark.parametrize(
        "scenario, config",
        [("pauli", "pauli"), ("qudit-twirl", "qudit_isotropic_d3"), ("bosonic", "bosonic"), ("eb-test", "eb_test")],
    )
    def test_csv_cells_are_the_document_text(self, capsys, tmp_path, scenario, config):
        # every number, the params cell's included, is written by the document's writer
        path = str(tmp_path / "rows.csv")
        code, out, _ = _run(capsys, scenario, "--config", f"{CONFIG_DIR}/{config}.json", "--csv", path)
        assert code == 0
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(json.loads(out)["rows"])
        for row in rows:
            for name in ("params", "single_transmission_negativity", "double_transmission_negativity",
                         "invariance_residual"):
                if row[name]:
                    assert f'"{name}": {row[name]}' in out

    def test_csv_rejects_non_finite_params(self):
        with pytest.raises(ValueError, match="non-finite"):
            experiments._csv_cell({"mu": float("nan")})

    def test_mc_samples_override(self, capsys, tmp_path):
        path = str(tmp_path / "fast.json")
        code, _, _ = _run(
            capsys,
            "qudit-twirl",
            "--config",
            f"{CONFIG_DIR}/qudit_werner_d3.json",
            "--mc-samples",
            "200",
            "--out",
            path,
        )
        assert code == 0
        assert json.loads(Path(path).read_text())["config"]["mc_samples"] == 200


class TestUnmeasuredFields:
    @pytest.mark.parametrize(
        "scenario, config, row, fields",
        [
            ("eb-test", "eb_test", 0, ("double_transmission_negativity", "invariance_residual")),
            ("bosonic", "bosonic", -1, ("single_transmission_negativity",)),
        ],
    )
    def test_null_in_json_and_empty_in_csv(self, capsys, tmp_path, scenario, config, row, fields):
        path = str(tmp_path / "rows.csv")
        code, out, _ = _run(capsys, scenario, "--config", f"{CONFIG_DIR}/{config}.json", "--csv", path)
        assert code == 0
        json_row = json.loads(out)["rows"][row]
        with open(path, newline="") as f:
            csv_row = list(csv.DictReader(f))[row]
        for field in fields:
            assert json_row[field] is None
            assert csv_row[field] == ""


# the flags each subcommand reads besides --config and --out, and a value for each
READS = {
    "pauli": ("--csv",),
    "qudit-twirl": ("--csv", "--seed", "--mc-samples"),
    "bosonic": ("--csv", "--fock-cutoff"),
    "eb-test": ("--csv",),
    "verify": ("--seed", "--mc-samples"),
}
# --tol is read by no subcommand: verify's tolerances are fixed where each gate is defined
VALUES = {"--seed": 7, "--mc-samples": 200, "--tol": 0.5, "--fock-cutoff": 9}
CONFIGS = {
    "pauli": "pauli",
    "qudit-twirl": "qudit_werner_d3",
    "bosonic": "bosonic",
    "eb-test": "eb_test",
    "verify": "verify",
}


class TestFlags:
    @pytest.mark.parametrize(
        "scenario, flag",
        [(s, f) for s in READS for f in ("--csv", *VALUES) if f not in READS[s]],
    )
    def test_unread_flag_exits_2(self, capsys, tmp_path, scenario, flag):
        value = str(tmp_path / "x") if flag == "--csv" else str(VALUES[flag])
        with pytest.raises(SystemExit) as exc:
            main([scenario, "--config", f"{CONFIG_DIR}/{CONFIGS[scenario]}.json", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("scenario, flag", [(s, f) for s in READS for f in READS[s]])
    def test_read_flag_is_applied(self, capsys, tmp_path, scenario, flag):
        config = f"{CONFIG_DIR}/{CONFIGS[scenario]}.json"
        if scenario == "verify":  # a short run; the flag under test may override it
            config = _write(tmp_path, "cfg.json", {"mc_samples": 200})
        if flag == "--csv":
            path = tmp_path / "rows.csv"
            code, out, _ = _run(capsys, scenario, "--config", config, "--csv", str(path))
            assert code == 0
            assert len(path.read_text().splitlines()) == 1 + len(json.loads(out)["rows"])
            return
        code, out, _ = _run(capsys, scenario, "--config", config, flag, str(VALUES[flag]))
        assert code == 0
        doc = json.loads(out)
        key = flag[2:].replace("-", "_")
        if scenario != "verify":
            assert doc["config"][key] == VALUES[flag]
        else:
            assert doc[key] == VALUES[flag]


class TestChannelFiles:
    def test_pauli_p_channel_eb(self, capsys, tmp_path):
        chan = _write(tmp_path, "chan.json", {"pauli_p": [0.4, 0.2, 0.2, 0.2]})
        cfg = _write(tmp_path, "cfg.json", {"channel_file": chan})
        code, out, _ = _run(capsys, "eb-test", "--config", cfg)
        assert code == 0
        assert json.loads(out)["rows"][0]["eb_verdict"].startswith("EB")

    def test_pauli_p_channel_not_eb(self, capsys, tmp_path):
        chan = _write(tmp_path, "chan.json", {"pauli_p": [0.7, 0.1, 0.1, 0.1]})
        cfg = _write(tmp_path, "cfg.json", {"channel_file": chan})
        code, out, _ = _run(capsys, "eb-test", "--config", cfg)
        assert code == 0
        assert json.loads(out)["rows"][0]["eb_verdict"] == "NOT-EB"

    def test_kraus_channel(self, capsys, tmp_path):
        # completely depolarizing qubit channel: EB
        half = 0.5
        kraus = []
        for p in (
            [[1, 0], [0, 1]],
            [[0, 1], [1, 0]],
            [[0, "-i"], ["i", 0]],
            [[1, 0], [0, -1]],
        ):
            mat = []
            for row in p:
                r = []
                for x in row:
                    if x == "i":
                        r.append([0.0, half])
                    elif x == "-i":
                        r.append([0.0, -half])
                    else:
                        r.append([half * x, 0.0])
                mat.append(r)
            kraus.append(mat)
        chan = _write(tmp_path, "chan.json", {"kraus": kraus})
        cfg = _write(tmp_path, "cfg.json", {"channel_file": chan})
        code, out, _ = _run(capsys, "eb-test", "--config", cfg)
        assert code == 0
        assert json.loads(out)["rows"][0]["eb_verdict"].startswith("EB")

    def test_qutrit_kraus_channel(self, capsys, tmp_path):
        # qutrit amplitude damping at gamma = 1/2: non-unitary Kraus operators
        # on one system, NPT Choi state
        d, gamma = 3, 0.5
        ops = [np.diag([1.0] + [np.sqrt(1 - gamma)] * (d - 1))]
        ops += [np.sqrt(gamma) * np.outer(np.eye(d)[0], np.eye(d)[j]) for j in range(1, d)]
        kraus = [[[[x, 0.0] for x in row] for row in op.tolist()] for op in ops]
        chan = _write(tmp_path, "chan.json", {"kraus": kraus})
        cfg = _write(tmp_path, "cfg.json", {"channel_file": chan})
        code, out, _ = _run(capsys, "eb-test", "--config", cfg)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["params"]["d"] == d
        assert row["eb_verdict"] == "NPT"
        # the witness spectrum is the PT spectrum of sum_k (K_k x I) Phi (K_k x I)^dag
        lifted = [np.kron(op, np.eye(d)) for op in ops]
        choi = sum(k @ max_entangled_mat(d) @ k.conj().T for k in lifted)
        want = np.linalg.eigvalsh(partial_transpose_mat(choi, d, d))
        assert np.max(np.abs(np.array(row["params"]["witness_spectrum"]) - want)) < 1e-12
        assert abs(row["single_transmission_negativity"] - np.sum(-want[want < 0])) < 1e-12


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        code, _, err = _run(capsys, "pauli", "--config", "/nonexistent/cfg.json")
        assert code == 2
        assert "config error" in err

    def test_malformed_channel_file(self, capsys, tmp_path):
        chan = tmp_path / "chan.json"
        chan.write_text('{"kraus": "oops"}')
        cfg = _write(tmp_path, "cfg.json", {"channel_file": str(chan)})
        code, _, err = _run(capsys, "eb-test", "--config", cfg)
        assert code == 2
        assert "config error" in err

    def test_incomplete_kraus_set(self, capsys, tmp_path):
        # a single non-unitary Kraus operator cannot be trace preserving
        chan = _write(
            tmp_path,
            "chan.json",
            {"kraus": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]},
        )
        cfg = _write(tmp_path, "cfg.json", {"channel_file": chan})
        code, _, err = _run(capsys, "eb-test", "--config", cfg)
        assert code == 2
        assert "config error" in err

    def test_bad_probability_vector(self, capsys, tmp_path):
        cfg = _write(
            tmp_path, "cfg.json", {"p": [0.9, 0.9, 0.1, 0.1], "gamma_grid": [0.5]}
        )
        code, _, err = _run(capsys, "pauli", "--config", cfg)
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize(
        "channel",
        [{"kraus": []}, 7, {"pauli_p": 0.5}, {"pauli_p": "1000"}, {"pauli_p": [True, False, False, False]}],
        ids=["empty-kraus", "not-an-object", "scalar-pauli-p", "string-pauli-p", "bool-pauli-p"],
    )
    def test_bad_channel_file_is_config_error(self, capsys, tmp_path, channel):
        chan = _write(tmp_path, "chan.json", channel)
        cfg = _write(tmp_path, "cfg.json", {"channel_file": chan})
        code, _, err = _run(capsys, "eb-test", "--config", cfg)
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize(
        "channel",
        [
            {"pauli_p": [0.4, 0.2, 0.2, 0.2], "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
            {"pauli_p": [0.4, 0.2, 0.2, 0.2], "note": "x"},
            {"pauli": [0.4, 0.2, 0.2, 0.2]},
            {},
        ],
        ids=["both-keys", "extra-key", "misspelt-key", "no-key"],
    )
    def test_channel_file_holds_exactly_one_key(self, capsys, tmp_path, channel):
        chan = _write(tmp_path, "chan.json", channel)
        cfg = _write(tmp_path, "cfg.json", {"channel_file": chan})
        code, out, err = _run(capsys, "eb-test", "--config", cfg)
        assert code == 2
        assert "config error: channel file must hold exactly one key" in err
        assert out == ""

    @pytest.mark.parametrize("key", ["p", "pauli_p"])
    @pytest.mark.parametrize("value", [[0.5, 0.5], [0.2] * 5], ids=["two", "five"])
    def test_pauli_vector_needs_4_entries(self, capsys, tmp_path, key, value):
        # one parser reads a pauli config's p and a channel file's pauli_p
        if key == "p":
            cfg = _write(tmp_path, "cfg.json", {"p": value, "gamma_grid": [0.5]})
            code, _, err = _run(capsys, "pauli", "--config", cfg)
        else:
            cfg = _write(tmp_path, "cfg.json", {"channel_file": _write(tmp_path, "chan.json", {key: value})})
            code, _, err = _run(capsys, "eb-test", "--config", cfg)
        assert code == 2
        assert f"config error: {key} must be a list of 4 Pauli probabilities, got {value!r}" in err

    @pytest.mark.parametrize("path", [0, True, ["a"]], ids=["zero", "true", "list"])
    def test_non_string_channel_file_is_config_error(self, capsys, tmp_path, path):
        # an int would be taken as a file descriptor (True as fd 1) and closed
        cfg = _write(tmp_path, "cfg.json", {"channel_file": path})
        code, out, err = _run(capsys, "eb-test", "--config", cfg)
        assert code == 2
        assert "config error: channel_file must be a string path" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("path", ["/nonexistent/dir/x", "."], ids=["missing-dir", "a-directory"])
    def test_unwritable_output_exits_2(self, capsys, flag, path):
        code, out, err = _run(capsys, "pauli", "--config", f"{CONFIG_DIR}/pauli.json", flag, path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"cannot write {path}: ")
        assert err.count("\n") == 1

    def test_pauli_gamma_out_of_range_is_config_error(self, capsys, tmp_path):
        cfg = _write(tmp_path, "cfg.json", {"p": [0.25, 0.25, 0.25, 0.25], "gamma_grid": [0.5, 2.0]})
        code, out, err = _run(capsys, "pauli", "--config", cfg)
        assert code == 2
        assert "config error: invalid family parameter 2.0: gamma=2.0 outside [-1/3, 1]" in err
        assert out == ""

    def test_scalar_probability_vector(self, capsys, tmp_path):
        cfg = _write(tmp_path, "cfg.json", {"p": 0.5, "gamma_grid": [0.5]})
        code, _, err = _run(capsys, "pauli", "--config", cfg)
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize(
        "scenario, payload",
        [
            ("pauli", {"p": [0.25, 0.25, 0.25, 0.25], "gamma_grid": ["x"]}),
            ("qudit-twirl", {"d": "x", "mode": "uu", "param_grid": [0.5]}),
            ("qudit-twirl", {"d": 3.7, "mode": "uu", "param_grid": [0.5]}),
            ("qudit-twirl", {"d": True, "mode": "uu", "param_grid": [0.5]}),
            ("qudit-twirl", {"d": 3, "mode": "uu", "param_grid": [None]}),
            ("qudit-twirl", {"d": 3, "mode": "uu", "param_grid": [0.5], "seed": "x"}),
            ("qudit-twirl", {"d": 3, "mode": "uu", "param_grid": [0.5], "seed": -1}),
            ("qudit-twirl", {"d": 3, "mode": "uu", "param_grid": [0.5], "mc_samples": 0}),
            ("bosonic", {"mu_grid": [1.0], "fock_cutoff": "x"}),
            ("verify", {"seed": 1.5}),
            ("verify", {"mc_samples": False}),
            ("pauli", {"p": ["0.25", 0.25, 0.25, 0.25], "gamma_grid": [0.5]}),
            ("pauli", {"p": [True, False, False, False], "gamma_grid": [0.5]}),
        ],
        ids=[
            "grid-entry", "d-string", "d-non-integral", "d-bool", "grid-null", "seed-string",
            "seed-negative", "mc-samples-zero", "fock-cutoff-string",
            "verify-seed-non-integral", "mc-samples-bool", "p-string-entry", "p-bool-entry",
        ],
    )
    def test_wrong_value_type_is_config_error(self, capsys, tmp_path, scenario, payload):
        cfg = _write(tmp_path, "cfg.json", payload)
        code, out, err = _run(capsys, scenario, "--config", cfg)
        assert code == 2
        assert "config error" in err
        assert out == ""

    @pytest.mark.parametrize(
        "scenario, payload",
        [
            ("qudit-twirl", {"d": 2, "mode": "uu", "param_grid": [0.5], "mc_sample": 50, "sed": 5}),
            ("bosonic", {"mu_grid": [1.0], "fock_cutof": 4}),
            ("bosonic", {"mu_grid": [1.0], "n_angles": 32}),
            ("pauli", {"p": [0.25, 0.25, 0.25, 0.25], "gamma_grid": [0.5], "seed": 1}),
            # rejected before the (missing) channel file is read
            ("eb-test", {"channel_file": "/nonexistent/chan.json", "mc_samples": 10}),
            ("verify", {"fock_cutoff": 8}),
            ("verify", {"tol": 0.5}),
        ],
        ids=[
            "typos-mc-samples-seed", "typo-fock-cutoff", "stale-n-angles", "pauli-seed", "eb-test-key", "verify-key",
            "verify-tol",
        ],
    )
    def test_unknown_key_is_config_error(self, capsys, tmp_path, scenario, payload):
        # a key the scenario does not read would otherwise be echoed as if applied
        cfg = _write(tmp_path, "cfg.json", payload)
        code, out, err = _run(capsys, scenario, "--config", cfg)
        assert code == 2
        assert "config error: unknown config key" in err
        assert out == ""

    @pytest.mark.parametrize(
        "scenario, payload",
        [
            ("bosonic", {"mu_grid": [float("nan")]}),
            ("pauli", {"p": [0.25, 0.25, 0.25, 0.25], "gamma_grid": [float("nan")]}),
            ("pauli", {"p": [float("nan"), 0.5, 0.25, 0.25], "gamma_grid": [0.5]}),
        ],
        ids=["mu-grid-nan", "gamma-grid-nan", "p-nan"],
    )
    def test_non_finite_or_nonpositive_value_is_config_error(self, capsys, tmp_path, scenario, payload):
        # json.dumps writes NaN as the non-standard literal json.load reads back
        cfg = _write(tmp_path, "cfg.json", payload)
        code, out, err = _run(capsys, scenario, "--config", cfg)
        assert code == 2
        assert "config error" in err
        assert out == ""

    @pytest.mark.parametrize(
        "payload, flags, message",
        [
            ({"mu_grid": [1.0, 20.0]}, [], "mu = 20.0 needs Fock cutoff 71, above the cap of 40"),
            ({"mu_grid": [1.0]}, ["--fock-cutoff", "41"], "mu = 1.0 needs Fock cutoff 41, above the cap of 40"),
        ],
        ids=["mu-20", "fock-cutoff-41"],
    )
    def test_fock_cutoff_above_cap_is_config_error(self, capsys, tmp_path, monkeypatch, payload, flags, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("the cutoff is checked before any state is built")

        monkeypatch.setattr(gaussian, "epr_cm", forbidden)
        monkeypatch.setattr(gaussian, "truncated_tmsv", forbidden)
        monkeypatch.setattr(gaussian, "tmsv_support", forbidden)
        cfg = _write(tmp_path, "cfg.json", payload)
        code, out, err = _run(capsys, "bosonic", "--config", cfg, *flags)
        assert code == 2
        assert f"config error: {message}" in err
        assert out == ""

    def test_fock_cutoff_cap_is_inclusive(self):
        assert experiments.MAX_FOCK_CUTOFF == 40
        assert experiments._fock_cutoff(1.0, 40) == 40
        # mu = 11 needs 39 by the tail rule, mu = 12 needs 43
        assert experiments._fock_cutoff(11.0, 8) == 39
        with pytest.raises(experiments.ConfigError, match="mu = 12.0 needs Fock cutoff 43"):
            experiments._fock_cutoff(12.0, 8)

    def test_fock_cutoff_passes_the_tail_check(self):
        # the cutoff rule and tmsv_support read the same gaussian.TAIL_TOL; the
        # rule's +1 keeps even one mode fewer within the tail mass
        for mu in np.linspace(1.0, 11.0, 2845)[1:]:
            lam = np.sqrt((mu - 1) / (mu + 1))
            n = experiments._fock_cutoff(mu, 1)
            gaussian.tmsv_support(lam, n)
            gaussian.tmsv_support(lam, n - 1)

    def test_integral_float_is_an_integer(self, capsys, tmp_path):
        cfg = _write(tmp_path, "cfg.json", {"d": 2.0, "mode": "uu", "param_grid": [0.5], "mc_samples": 100})
        code, out, _ = _run(capsys, "qudit-twirl", "--config", cfg)
        assert code == 0
        assert json.loads(out)["rows"][0]["params"]["d"] == 2

    @staticmethod
    def _drop_one_clifford(monkeypatch):
        # 23 of the 24 Cliffords: no longer a group, a 2-design or 24 elements
        full = twirl.clifford_group_qubit
        monkeypatch.setattr(twirl, "clifford_group_qubit", lambda: twirl.UnitarySet(full().unitaries[:-1]))

    def test_verify_failure_exit_one(self, capsys, tmp_path, monkeypatch):
        self._drop_one_clifford(monkeypatch)
        cfg = _write(tmp_path, "cfg.json", {"mc_samples": 200})
        code, out, err = _run(capsys, "verify", "--config", cfg)
        assert code == 1
        doc = json.loads(out)
        assert doc["all_passed"] is False
        basis = next(c for c in doc["checks"] if c["name"] == "clifford-partial-twirl-basis")
        assert not basis["passed"] and basis["tolerance"] == 1e-12
        assert "FAIL clifford-partial-twirl-basis" in err

    def test_structural_check_fails_at_tolerance_zero(self, capsys, tmp_path, monkeypatch):
        self._drop_one_clifford(monkeypatch)
        cfg = _write(tmp_path, "cfg.json", {"mc_samples": 200})
        code, out, err = _run(capsys, "verify", "--config", cfg)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["clifford-cardinality"] == {
            "name": "clifford-cardinality", "passed": False, "residual": 1, "tolerance": 0
        }
        assert "FAIL clifford-cardinality" in err

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["no-such-scenario", "--config", "x.json"])


def test_every_config_is_named():
    # an example config that no test, benchmark workload or other config
    # names by its file name is one that nothing runs
    readers = [*ROOT.glob("tests/*.py"), ROOT / "perfbench" / "workloads.py", *ROOT.glob("configs/*")]
    for config in sorted(ROOT.glob("configs/*")):
        assert any(config.name in path.read_text() for path in readers if path != config), config.name
