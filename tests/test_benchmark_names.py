"""The benchmark's per-layer metrics name public callables of twirlbreak; the
benchmark's tracer finds no value for a metric whose callable has gone, and
its argument counters read parameters by name.  This catches a rename or
removal without running the benchmark itself."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# the parameters that perfbench/tracer.py's ARG_COUNTERS read, by span name
COUNTER_ARGUMENTS = {
    "twirl.mc_twirl_operator": ("n", "dims"),
    "twirl.HaarSampler.sample_batch": ("n",),
}
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


def _resolve(path):
    """The object at path, a dotted name under twirlbreak."""
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"twirlbreak.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("path", _traced_paths())
def test_traced_name_is_public_callable(path):
    module, *attrs = path.split(".")
    assert not any(attr.startswith("_") for attr in attrs), f"{path} is private"
    obj = _resolve(path)
    assert callable(obj)
    # the tracer wraps plain functions (also under classmethod and
    # staticmethod) and classes; a cache or other wrapper object in their
    # place would go untraced and its metrics would vanish
    raw = inspect.getattr_static(_resolve(path.rpartition(".")[0]), attrs[-1])
    raw = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    assert inspect.isfunction(raw) or inspect.isclass(raw), f"{path} is neither a function nor a class"
    # the tracer wraps a callable under the module that defines it
    assert obj.__module__ == f"twirlbreak.{module}"


def test_counter_arguments_cover_the_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert set(tracer.ARG_COUNTERS) == set(COUNTER_ARGUMENTS)


@pytest.mark.parametrize("path", sorted(COUNTER_ARGUMENTS))
def test_counter_arguments_are_parameters(path):
    params = inspect.signature(_resolve(path)).parameters
    for name in COUNTER_ARGUMENTS[path]:
        assert name in params, f"{path} has no parameter {name!r}"
