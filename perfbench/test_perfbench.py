"""Tests of the benchmark itself, run from the repository root:

    python3 -m pytest -q perfbench

The traced-run test starts the benchmark's child process for every
workload twice, so it takes about a minute and a half on 2 CPUs.
"""

import json
import sys
import textwrap
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".samples", ".bytes_computed", ".accepted_ratio")

CORE = """
import time

def inner():
    time.sleep(0.002)

def outer():
    inner()
    inner()
    time.sleep(0.002)

class Thing:
    def __init__(self, x):
        self.x = x

    def twice(self):
        outer()
        outer()

TABLE = {"outer": outer}
PAIRS = (("outer", outer),)
"""

USER = """
from fakepkg.core import outer, Thing

def call_outer():
    outer()

def make_and_call():
    Thing(1).twice()
"""


def _fake_package(monkeypatch):
    mods = {}
    for name, source in (("fakepkg", ""), ("fakepkg.core", CORE), ("fakepkg.user", USER)):
        mod = types.ModuleType(name)
        monkeypatch.setitem(sys.modules, name, mod)
        exec(textwrap.dedent(source), mod.__dict__)
        mods[name] = mod
    return mods["fakepkg.core"], mods["fakepkg.user"]


def test_wrappers_reach_every_name_and_self_time_excludes_children(monkeypatch):
    core, user = _fake_package(monkeypatch)
    tracer = Tracer("fakepkg")
    tracer.install()
    core.outer()  # outside a root span: not recorded
    with tracer.root("op.test"):
        user.call_outer()  # name taken with `from ... import`
        core.TABLE["outer"]()  # dispatch dict
        core.PAIRS[0][1]()  # dispatch tuple
        user.make_and_call()  # constructor and method
    m = tracer.metrics()
    assert m["core.outer.calls"] == 5
    assert m["core.inner.calls"] == 10
    assert m["core.Thing.calls"] == 1
    assert m["core.Thing.twice.calls"] == 1
    assert m["user.call_outer.calls"] == 1
    assert m["core.outer.self_s"] == pytest.approx(m["core.outer.s"] - m["core.inner.s"], abs=1e-9)
    assert m["op.test.s"] >= m["user.call_outer.s"] + m["core.Thing.twice.s"]
    assert all(parent < i for i, (_, _, _, parent, _) in enumerate(tracer.spans))


def test_predictions_name_exactly_the_per_layer_metrics():
    predictions = json.loads((HERE / "predictions.json").read_text())
    named = [n for g in predictions["groups"] for n in g["layer_metrics"]]
    assert sorted(named) == sorted(m["name"] for m in SPEC["per_layer"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    args = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace"]
    first, second = (run.run_child(args, run.MEASURE_TIMEOUT_S) for _ in range(2))
    for result in (first, second):
        assert result["failed"] == 0
        missing = {m["name"] for m in SPEC["per_layer"]} - set(result["layers"]) - {"failed_ratio"}
        assert not missing
    counts = {k: v for k, v in first["layers"].items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: v for k, v in second["layers"].items() if k.endswith(COUNT_SUFFIXES)}
    assert any(v > 0 for k, v in counts.items() if k.endswith(".calls") and not k.startswith("op."))
