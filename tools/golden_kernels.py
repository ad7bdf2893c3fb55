"""Run the golden comparison of tests/test_golden.py under several OpenBLAS
kernel classes, and report how far each output field spreads across them.

    python3 tools/golden_kernels.py

Each run is a child process with OPENBLAS_CORETYPE, or OPENBLAS_NUM_THREADS,
set in that child's own environment; nothing else is changed.  A child
writes the `--out` document of every golden run, compares it with its golden
by `test_golden._mismatches`, and prints both as JSON.  It then runs the
exact tests (EXACT_TESTS: the shipped rows against their closed forms, the
invariant families' projector and zero member residuals, each probe of a
conjugate_sum or MC-twirl stack, of one mode or of mixed modes, against
its own call and beside other companions, the two-sided conjugate_sum
against its sum taken with the conjugated products, and the MC twirl
against its chunk loop written out with fresh arrays, the Gram route's
included, and against itself in a NaN-filled workspace) with
pytest in the same process, so under the same kernel class, its report on
stderr.  The parent prints, per run, the kernel class that OpenBLAS
reports, whether the goldens and the exact tests pass and each mismatching
field, then the spread across the runs of each float field that differs
between them, largest first (max - min, divided by max(1, |value|) as the
golden tolerance is).  Exit code 0 when every golden and every exact test
pass under every run, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# pytest node ids of the tests that pin results exactly, or to their closed forms
EXACT_TESTS = (
    "tests/test_cli.py::TestScenarios::test_shipped_rows_match_closed_forms",
    "tests/test_gaussian.py::TestSolveInvariantCm::test_projector_is_exact",
    "tests/test_gaussian.py::TestSolveInvariantCm::test_members_have_zero_residual",
    "tests/test_linalg.py::TestConjugateSum::test_stack_matches_single_calls",
    "tests/test_linalg.py::TestConjugateSum::test_two_sided_matches_conjugated_products",
    "tests/test_twirl.py::TestMCTwirl::test_stack_matches_single_calls",
    "tests/test_twirl.py::TestMCTwirl::test_mixed_stack_matches_single_mode_calls",
    "tests/test_twirl.py::TestMCTwirl::test_a_probe_does_not_depend_on_its_companions",
    "tests/test_twirl.py::TestMCTwirl::test_workspace_matches_chunked_loop",
    "tests/test_twirl.py::TestMCTwirl::test_nan_filled_workspace_gives_the_same_bits",
)

# run name -> what the child adds to its own environment
RUNS = {
    "default": {},
    **{core: {"OPENBLAS_CORETYPE": core} for core in ("Haswell", "Zen", "Prescott", "Nehalem", "Sandybridge")},
    "one-thread": {"OPENBLAS_NUM_THREADS": "1"},
}


def _corename() -> str:
    """The kernel class of the OpenBLAS bundled with numpy, as it reports it."""
    import numpy

    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def _child() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_golden

    os.chdir(ROOT)
    report = {"core": _corename(), "docs": {}, "mismatches": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for stem in test_golden.RUNS:
            out = Path(tmp) / f"{stem}.json"
            test_golden._write_output(stem, out)
            got = json.loads(out.read_text())
            want = json.loads((test_golden.GOLDEN / f"{stem}.json").read_text())
            report["docs"][stem] = got
            report["mismatches"][stem] = list(test_golden._mismatches(want, got))
    import pytest

    with contextlib.redirect_stdout(sys.stderr):
        report["exact_tests"] = pytest.main(["-q", "-p", "no:cacheprovider", *EXACT_TESTS]) == 0
    json.dump(report, sys.stdout)


def _floats(doc, path="$"):
    """(path, value) of each float in a parsed document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _floats(value, f"{path}.{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _floats(value, f"{path}[{i}]")
    elif isinstance(doc, float):
        yield path, doc


def main() -> int:
    if sys.argv[1:] == ["--child"]:
        _child()
        return 0
    reports = {}
    for name, extra in RUNS.items():
        proc = subprocess.run(
            [sys.executable, __file__, "--child"],
            env={**os.environ, **extra},
            capture_output=True,
            text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            print(f"{name}: the child failed\n{proc.stderr}", file=sys.stderr)
            return 1
        reports[name] = json.loads(proc.stdout)
        if not reports[name]["exact_tests"]:
            print(f"{name}: an exact test failed\n{proc.stderr}", file=sys.stderr)
    failed = False
    for name, report in reports.items():
        lines = [f"{stem} {line}" for stem, found in report["mismatches"].items() for line in found]
        failed |= bool(lines) or not report["exact_tests"]
        goldens, exact = ("PASS" if ok else "FAIL" for ok in (not lines, report["exact_tests"]))
        print(f"{name:<12} kernel {report['core']:<12} goldens {goldens}  exact tests {exact}")
        for line in lines:
            print(f"  {line}")
    values: dict[str, list[float]] = {}
    for report in reports.values():
        for stem, doc in report["docs"].items():
            for path, value in _floats(doc):
                values.setdefault(f"{stem} {path}", []).append(value)
    spreads = sorted(((max(v) - min(v)) / max(1.0, *map(abs, v)), key) for key, v in values.items())[::-1]
    moved = [(spread, key) for spread, key in spreads if spread > 0]
    print(f"{len(moved)} of {len(spreads)} float fields differ across the {len(reports)} runs; their spreads:")
    for spread, key in moved:
        print(f"  {spread:.3e}  {key}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
