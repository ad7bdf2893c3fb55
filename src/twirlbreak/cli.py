"""Command-line front end.

Usage:
    twirlbreak <scenario> --config <path> [--out <path>] [--csv <path>]
               [--seed N] [--mc-samples N] [--tol X] [--fock-cutoff N]

Exit codes: 0 success, 1 verification failure, 2 config/parse error.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    VALID_SCENARIOS,
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

_RUNNERS = {
    "pauli": run_pauli_scenario,
    "qudit-twirl": run_qudit_scenario,
    "bosonic": run_bosonic_scenario,
    "eb-test": run_eb_test,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twirlbreak", description=__doc__)
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in VALID_SCENARIOS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the JSON config file")
        sp.add_argument("--out", help="write the result document here (default: stdout)")
        sp.add_argument("--csv", help="also write a flat CSV of result rows")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--mc-samples", type=int, help="override the Monte-Carlo sample count")
        sp.add_argument("--tol", type=float, help="override the numeric verification tolerances")
        sp.add_argument("--fock-cutoff", type=int, help="override the Fock-space cutoff")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> None:
    if args.seed is not None:
        cfg.params["seed"] = args.seed
    if args.mc_samples is not None:
        cfg.params["mc_samples"] = args.mc_samples
    if args.tol is not None:
        cfg.params["tol"] = args.tol
    if args.fock_cutoff is not None:
        cfg.params["fock_cutoff"] = args.fock_cutoff


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.scenario, args.config)
        _apply_overrides(cfg, args)
        if args.scenario == "verify":
            doc = run_verify(cfg)
            _emit(dumps_document(doc), args.out)
            failed = [c for c in doc["checks"] if not c["passed"]]
            for c in failed:
                print(
                    f"FAIL {c['name']}: residual {c['residual']:.3e} > tol {c['tolerance']:.3e}",
                    file=sys.stderr,
                )
            return 0 if doc["all_passed"] else 1
        rows = _RUNNERS[args.scenario](cfg)
        doc = rows_to_document(rows, args.scenario, cfg.params)
        _emit(dumps_document(doc), args.out)
        if args.csv:
            write_csv(rows, args.csv)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
