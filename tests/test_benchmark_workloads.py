"""Every operation of the benchmark's workloads runs once and passes its own
output check, so a rename or a wrong result shows here rather than first as
a failed benchmark run.  The full benchmark tests (`python3 -m pytest
perfbench`) start its child processes and take over a minute."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the default seed of perfbench/run.py
SEED = 20240611


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_every_op_passes_its_check(monkeypatch, workload):
    monkeypatch.chdir(ROOT)  # the CLI ops name their configs relative to the root
    for op in _workloads(monkeypatch).make(workload, SEED, ROOT):
        assert op.check(op.run()) is None, op.name
