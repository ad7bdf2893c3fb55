"""Command-line front end.

Usage (each subcommand takes only the flags it reads):
    twirlbreak pauli       --config <path> [--out <path>] [--csv <path>]
    twirlbreak qudit-twirl --config <path> [--out <path>] [--csv <path>] [--seed N] [--mc-samples N]
    twirlbreak bosonic     --config <path> [--out <path>] [--csv <path>]
    twirlbreak eb-test     --config <path> [--out <path>] [--csv <path>]
    twirlbreak verify      --config <path> [--out <path>] [--seed N] [--mc-samples N]

--seed and --mc-samples override the config key of the same name (seed,
mc_samples).

Exit codes: 0 success, 1 verification failure (a gate that fails; a gate
whose residual is not finite, or a check group that raises: `verify` prints
these as ERROR and runs the other gates) or a result value that a row or the
JSON writer refuses (a NaN negativity, a non-finite number: one `error:`
line, nothing on stdout, no --out or --csv file), 2 config/parse error or an
output file that cannot be written (then no output file is created or
changed).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys

from .experiments import (
    ConfigError,
    ExperimentConfig,
    csv_text,
    RefusedValueError,
    dumps_document,
    rows_to_document,
    run_bosonic_scenario,
    run_eb_test,
    run_pauli_scenario,
    run_qudit_scenario,
    run_verify,
)

# each subcommand's runner and the optional flags it reads, besides --config and --out
_SUBCOMMANDS = {
    "pauli": (run_pauli_scenario, ("--csv",)),
    "qudit-twirl": (run_qudit_scenario, ("--csv", "--seed", "--mc-samples")),
    "bosonic": (run_bosonic_scenario, ("--csv",)),
    "eb-test": (run_eb_test, ("--csv",)),
    "verify": (run_verify, ("--seed", "--mc-samples")),
}

# flag -> (type, help); every flag but --csv overrides its config key
_FLAGS = {
    "--csv": (str, "also write a flat CSV of result rows"),
    "--seed": (int, "override the config seed"),
    "--mc-samples": (int, "override the Monte-Carlo sample count"),
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


def _write_files(texts: dict) -> None:
    """Write each {path: text} all or nothing: every text goes to a new file
    beside its path, and these replace their paths only once all are
    written.  A path that cannot be written (a directory, in a missing or
    read-only directory) raises a one-line _WriteError, with no path
    created or changed."""
    staged = []
    try:
        for path, text in texts.items():
            # a directory would fail only at the replace, after other paths changed
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            head, tail = os.path.split(path)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
            with open(tmp, "x", newline="") as f:
                staged.append(tmp)
                f.write(text)
        for tmp, path in zip(staged, texts):
            os.replace(tmp, path)
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        for tmp in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def _emit(text: str, out_path: str | None, files: dict) -> None:
    """Write the files and the document, to out_path or else to stdout, which
    is written only once the files are.  An out_path that names one of the
    files (after os.path.realpath) is a _WriteError: one would overwrite the
    other."""
    if out_path and os.path.realpath(out_path) in map(os.path.realpath, files):
        raise _WriteError(f"cannot write {out_path}: --out and --csv name the same file")
    _write_files({**files, out_path: text} if out_path else files)
    if not out_path:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner = _SUBCOMMANDS[args.scenario][0]
    try:
        cfg = ExperimentConfig.from_file(args.scenario, args.config)
        _apply_overrides(cfg, args)
        if args.scenario == "verify":
            doc = runner(cfg)
            _emit(dumps_document(doc), args.out, {})
            for c in doc["checks"]:
                if "error" in c:
                    print(f"ERROR {c['name']}: {c['error']}", file=sys.stderr)
                elif not c["passed"]:
                    print(
                        f"FAIL {c['name']}: residual {c['residual']:.3e} > tol {c['tolerance']:.3e}",
                        file=sys.stderr,
                    )
            return 0 if doc["all_passed"] else 1
        rows = runner(cfg)
        # both documents are serialized before any is written, so a refused
        # value writes no file
        text = dumps_document(rows_to_document(rows, args.scenario, cfg.params))
        _emit(text, args.out, {args.csv: csv_text(rows)} if args.csv else {})
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RefusedValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _WriteError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
