"""Golden outputs: the `--out` document of each shipped config, and of
`verify` at two seeds, compared field by field with the copy checked in
under tests/golden/.

Regenerate the goldens, only when a change is meant to move an output, with

    PYTHONPATH=src python tests/test_golden.py

It replaces only the fields that the comparison flags (a whole dict or list
where its keys or length differ), prints `path: old -> new` for each, and
leaves a golden with no flagged field untouched, so that fields which differ
within tolerance on another machine or BLAS build do not move.  List every
moved field, with its reason, in CHANGES.md.  If a golden test fails and the
program is at fault, fix the program instead.
"""

import json
import os
import tempfile
from pathlib import Path

import pytest

from twirlbreak import cli
from twirlbreak.experiments import dumps_document

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# golden file stem -> CLI arguments, run from the repo root
RUNS = {
    "pauli": ["pauli", "--config", "configs/pauli.json"],
    "qudit_werner_d3": ["qudit-twirl", "--config", "configs/qudit_werner_d3.json"],
    "qudit_isotropic_d3": ["qudit-twirl", "--config", "configs/qudit_isotropic_d3.json"],
    "bosonic": ["bosonic", "--config", "configs/bosonic.json"],
    "eb_test": ["eb-test", "--config", "configs/eb_test.json"],
    "verify": ["verify", "--config", "configs/verify.json"],
    "verify_seed913": ["verify", "--config", "configs/verify.json", "--seed", "913"],
}

# a float may drift this much, absolute up to 1 and relative above 1
FLOAT_TOL = 1e-15


def _write_output(name: str, path) -> None:
    assert cli.main([*RUNS[name], "--out", str(path)]) == 0, name


def _mismatches(want, got, path="$"):
    """One line per field where got differs from want: strings, ints, bools
    and null exactly, floats within FLOAT_TOL.  The writer prints an integral
    float as 1.0, so an int never matches a float."""
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            yield f"{path}: keys {list(want)} != {list(got)}"
            return
        for key in want:
            yield from _mismatches(want[key], got[key], f"{path}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            yield f"{path}: length {len(want)} != {len(got)}"
            return
        for i, (w, g) in enumerate(zip(want, got)):
            yield from _mismatches(w, g, f"{path}[{i}]")
    elif isinstance(want, float) and isinstance(got, float):
        if abs(want - got) > FLOAT_TOL * max(1.0, abs(want)):
            yield f"{path}: {want!r} != {got!r}"
    elif type(want) is not type(got) or want != got:
        yield f"{path}: {want!r} != {got!r}"


def _merged(want, got, moved, path="$"):
    """want with each field that _mismatches flags taken from got: a leaf, or
    a whole dict or list whose keys or length differ.  Appends (path, old,
    new) to moved for each field taken."""
    if isinstance(want, dict) and isinstance(got, dict) and list(want) == list(got):
        return {key: _merged(want[key], got[key], moved, f"{path}.{key}") for key in want}
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [_merged(w, g, moved, f"{path}[{i}]") for i, (w, g) in enumerate(zip(want, got))]
    if list(_mismatches(want, got, path)):
        moved.append((path, want, got))
        return got
    return want


@pytest.mark.parametrize("name", list(RUNS))
def test_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out.json"
    _write_output(name, out)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert list(_mismatches(want, json.loads(out.read_text()))) == []


def test_comparison_reads_every_field():
    doc = {"a": [1, 0.5, "x", None, True], "b": {"c": 2.0}}
    assert list(_mismatches(doc, doc)) == []
    assert list(_mismatches(doc, {"a": [1, 0.5 + 2e-15, "x", None, True], "b": {"c": 2.0}})) != []
    assert list(_mismatches(doc, {"a": [1, 0.5, "y", None, True], "b": {"c": 2.0}})) != []
    assert list(_mismatches(doc, {"a": [1, 0.5, "x", None, 1], "b": {"c": 2.0}})) != []
    assert list(_mismatches(doc, {"a": [1, 0.5, "x", None, True], "b": {"c": 2}})) != []
    assert list(_mismatches(doc, {"a": [1.0, 0.5, "x", None, True], "b": {"c": 2.0}})) != []
    assert list(_mismatches(doc, {"a": [1, 0.5, "x", None], "b": {"c": 2.0}})) != []
    assert list(_mismatches(doc, {"b": {"c": 2.0}, "a": [1, 0.5, "x", None, True]})) != []
    # relative above 1, absolute below
    assert list(_mismatches({"c": 2.0}, {"c": 2.0 * (1 + 4e-16)})) == []
    assert list(_mismatches({"c": 1e-3}, {"c": 1e-3 + 5e-16})) == []


def test_merge_takes_only_flagged_fields():
    want = {"a": [1, 0.5, "x"], "b": {"c": 2.0, "d": [1, 2]}, "e": 0.25}
    got = {"a": [1, 0.5 + 1e-16, "y"], "b": {"c": 3.0, "d": [1, 2, 3]}, "e": 0.25}
    moved = []
    merged = _merged(want, got, moved)
    # within tolerance keeps the golden's value; a length change takes the list whole
    assert merged == {"a": [1, 0.5, "y"], "b": {"c": 3.0, "d": [1, 2, 3]}, "e": 0.25}
    assert moved == [("$.a[2]", "x", "y"), ("$.b.c", 2.0, 3.0), ("$.b.d", [1, 2], [1, 2, 3])]
    assert list(_mismatches(merged, got)) == []
    reordered = {"e": 0.25, "a": want["a"], "b": want["b"]}
    moved = []
    assert _merged(want, reordered, moved) is reordered
    assert moved == [("$", want, reordered)]


def test_merge_of_an_unchanged_golden_writes_its_bytes():
    # the writer's output of a parsed golden is the golden, byte for byte
    for stem in RUNS:
        text = (GOLDEN / f"{stem}.json").read_text()
        moved = []
        merged = _merged(json.loads(text), json.loads(text), moved)
        assert moved == []
        assert dumps_document(merged) == text


def test_stdout_is_byte_identical_across_runs(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    outs = []
    for _ in range(2):
        assert cli.main(RUNS["qudit_werner_d3"]) == 0
        outs.append(capsys.readouterr().out.encode())
    assert outs[0] == outs[1]


def regenerate() -> None:
    """Rewrite each golden with only its flagged fields replaced; a golden
    with none is not written."""
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for stem in RUNS:
            out = Path(tmp) / f"{stem}.json"
            _write_output(stem, out)
            golden = GOLDEN / f"{stem}.json"
            if not golden.exists():
                print(f"{stem}: new golden")
                golden.write_text(out.read_text())
                continue
            moved = []
            merged = _merged(json.loads(golden.read_text()), json.loads(out.read_text()), moved)
            for path, old, new in moved:
                print(f"{stem} {path}: {old!r} -> {new!r}")
            if moved:
                golden.write_text(dumps_document(merged))


if __name__ == "__main__":
    regenerate()
