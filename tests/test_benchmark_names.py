"""The benchmark's per-layer metrics name public callables of twirlbreak; the
benchmark's tracer finds no value for a metric whose callable has gone.
This catches a rename or removal without running the benchmark itself."""

import importlib
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRIC_SUFFIXES = (".calls", ".s", ".self_s", ".peak_mb", ".bytes_computed", ".samples", ".accepted_ratio")


def _traced_paths():
    paths = set()
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name.startswith("trace.") or name == "failed_ratio":
            continue
        suffix = next(s for s in METRIC_SUFFIXES if name.endswith(s))
        paths.add(name[: -len(suffix)])
    return sorted(paths)


@pytest.mark.parametrize("path", _traced_paths())
def test_traced_name_is_public_callable(path):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"twirlbreak.{module}")
    for attr in attrs:
        assert not attr.startswith("_"), f"{path} is private"
        obj = getattr(obj, attr)
    assert callable(obj)
    # the tracer wraps a callable under the module that defines it
    assert obj.__module__ == f"twirlbreak.{module}"
