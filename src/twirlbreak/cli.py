"""Command-line front end.

Usage (each subcommand takes only the flags it reads):
    twirlbreak pauli       --config <path> [--out <path>] [--csv <path>]
    twirlbreak qudit-twirl --config <path> [--out <path>] [--csv <path>] [--seed N] [--mc-samples N]
    twirlbreak bosonic     --config <path> [--out <path>] [--csv <path>] [--fock-cutoff N]
    twirlbreak eb-test     --config <path> [--out <path>] [--csv <path>]
    twirlbreak verify      --config <path> [--out <path>] [--seed N] [--mc-samples N]

--seed, --mc-samples and --fock-cutoff override the config key of the same
name (seed, mc_samples, fock_cutoff).

Exit codes: 0 success, 1 verification failure, 2 config/parse error or an
output file that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (
    ConfigError,
    ExperimentConfig,
    dumps_document,
    rows_to_document,
    run_bosonic_scenario,
    run_eb_test,
    run_pauli_scenario,
    run_qudit_scenario,
    run_verify,
    write_csv,
)

# each subcommand's runner and the optional flags it reads, besides --config and --out
_SUBCOMMANDS = {
    "pauli": (run_pauli_scenario, ("--csv",)),
    "qudit-twirl": (run_qudit_scenario, ("--csv", "--seed", "--mc-samples")),
    "bosonic": (run_bosonic_scenario, ("--csv", "--fock-cutoff")),
    "eb-test": (run_eb_test, ("--csv",)),
    "verify": (run_verify, ("--seed", "--mc-samples")),
}

# flag -> (type, help); every flag but --csv overrides its config key
_FLAGS = {
    "--csv": (str, "also write a flat CSV of result rows"),
    "--seed": (int, "override the config seed"),
    "--mc-samples": (int, "override the Monte-Carlo sample count"),
    "--fock-cutoff": (int, "override the Fock-space cutoff"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twirlbreak", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, (_, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the JSON config file")
        sp.add_argument("--out", help="write the result document here (default: stdout)")
        for flag in flags:
            kind, text = _FLAGS[flag]
            sp.add_argument(flag, type=kind, help=text)
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> None:
    for flag in _SUBCOMMANDS[args.scenario][1]:
        key = flag[2:].replace("-", "_")  # argparse's dest, also the config key
        value = getattr(args, key)
        if flag != "--csv" and value is not None:
            cfg.params[key] = value


class _WriteError(Exception):
    """An output file that cannot be written (exit code 2)."""


def _write_file(path: str, write) -> None:
    """write(path), with an OSError raised as a one-line _WriteError."""
    try:
        write(path)
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        _write_file(out_path, lambda p: Path(p).write_text(text))
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner = _SUBCOMMANDS[args.scenario][0]
    try:
        cfg = ExperimentConfig.from_file(args.scenario, args.config)
        _apply_overrides(cfg, args)
        if args.scenario == "verify":
            doc = runner(cfg)
            _emit(dumps_document(doc), args.out)
            failed = [c for c in doc["checks"] if not c["passed"]]
            for c in failed:
                print(
                    f"FAIL {c['name']}: residual {c['residual']:.3e} > tol {c['tolerance']:.3e}",
                    file=sys.stderr,
                )
            return 0 if doc["all_passed"] else 1
        rows = runner(cfg)
        doc = rows_to_document(rows, args.scenario, cfg.params)
        if args.csv:  # before the document, so stdout stays empty if it fails
            _write_file(args.csv, lambda p: write_csv(rows, p))
        _emit(dumps_document(doc), args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _WriteError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
