"""End-to-end tests of the twirlbreak command-line interface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twirlbreak
from twirlbreak import gaussian, twirl
from twirlbreak.cli import main
from twirlbreak.experiments import dumps_document
from twirlbreak.linalg import DensityOperator, frobenius_distance, negativity
from twirlbreak.states import isotropic, werner_multi
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
    "verify": ("--seed", "--mc-samples", "--tol"),
}
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
        elif flag == "--tol":
            assert 0.5 in {c["tolerance"] for c in doc["checks"]}
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
        [{"kraus": []}, 7, {"pauli_p": 0.5}],
        ids=["empty-kraus", "not-an-object", "scalar-pauli-p"],
    )
    def test_bad_channel_file_is_config_error(self, capsys, tmp_path, channel):
        chan = _write(tmp_path, "chan.json", channel)
        cfg = _write(tmp_path, "cfg.json", {"channel_file": chan})
        code, _, err = _run(capsys, "eb-test", "--config", cfg)
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("path", [0, True, ["a"]], ids=["zero", "true", "list"])
    def test_non_string_channel_file_is_config_error(self, capsys, tmp_path, path):
        # an int would be taken as a file descriptor (True as fd 1) and closed
        cfg = _write(tmp_path, "cfg.json", {"channel_file": path})
        code, out, err = _run(capsys, "eb-test", "--config", cfg)
        assert code == 2
        assert "config error: channel_file must be a string path" in err
        assert out == ""

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
            ("verify", {"tol": "x"}),
            ("verify", {"tol": 10**400}),
            ("verify", {"seed": 1.5}),
            ("verify", {"mc_samples": False}),
        ],
        ids=[
            "grid-entry", "d-string", "d-non-integral", "d-bool", "grid-null", "seed-string",
            "seed-negative", "mc-samples-zero", "fock-cutoff-string",
            "tol-string", "tol-too-large", "verify-seed-non-integral", "mc-samples-bool",
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
        ],
        ids=["typos-mc-samples-seed", "typo-fock-cutoff", "stale-n-angles", "pauli-seed", "eb-test-key", "verify-key"],
    )
    def test_unknown_key_is_config_error(self, capsys, tmp_path, scenario, payload):
        # a key the scenario does not read would otherwise be echoed as if applied
        cfg = _write(tmp_path, "cfg.json", payload)
        code, out, err = _run(capsys, scenario, "--config", cfg)
        assert code == 2
        assert "config error: unknown config key" in err
        assert out == ""

    @pytest.mark.parametrize(
        "scenario, payload, flags",
        [
            ("verify", {}, ["--tol", "inf"]),
            ("verify", {}, ["--tol", "nan"]),
            ("verify", {}, ["--tol", "-1"]),
            ("bosonic", {"mu_grid": [float("nan")]}, []),
            ("pauli", {"p": [0.25, 0.25, 0.25, 0.25], "gamma_grid": [float("nan")]}, []),
            ("pauli", {"p": [float("nan"), 0.5, 0.25, 0.25], "gamma_grid": [0.5]}, []),
        ],
        ids=["tol-inf", "tol-nan", "tol-negative", "mu-grid-nan", "gamma-grid-nan", "p-nan"],
    )
    def test_non_finite_or_nonpositive_value_is_config_error(
        self, capsys, tmp_path, scenario, payload, flags
    ):
        # json.dumps writes NaN as the non-standard literal json.load reads back
        cfg = _write(tmp_path, "cfg.json", payload)
        code, out, err = _run(capsys, scenario, "--config", cfg, *flags)
        assert code == 2
        assert "config error" in err
        assert out == ""

    def test_integral_float_is_an_integer(self, capsys, tmp_path):
        cfg = _write(tmp_path, "cfg.json", {"d": 2.0, "mode": "uu", "param_grid": [0.5], "mc_samples": 100})
        code, out, _ = _run(capsys, "qudit-twirl", "--config", cfg)
        assert code == 0
        assert json.loads(out)["rows"][0]["params"]["d"] == 2

    def test_verify_failure_exit_one(self, capsys, tmp_path):
        cfg = _write(tmp_path, "cfg.json", {"tol": 1e-30})
        code, _, err = _run(capsys, "verify", "--config", cfg)
        assert code == 1
        assert "FAIL" in err

    def test_tol_override_leaves_structural_checks_exact(self, capsys, tmp_path, monkeypatch):
        full = twirl.clifford_group_qubit
        monkeypatch.setattr(twirl, "clifford_group_qubit", lambda: twirl.UnitarySet(full().unitaries[:-1]))
        cfg = _write(tmp_path, "cfg.json", {"tol": 1.0, "mc_samples": 200})
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
