"""The twirlbreak benchmark.

    python3 perfbench/run.py --workload {scenarios,verify,large-d,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each workload runs in fresh child
processes (``child.py``), one closed-loop client each, with BLAS threads
capped at the number of CPUs this process may use:

- SETUP_PROCESSES processes, half before and half after the measuring one,
  only set up; ``setup_s`` is the median set-up time of those and the
  measuring process;
- one measuring process runs the workload for ``--seconds`` and reports
  ``wall_s`` (median time of one repetition of the workload's fixed list of
  operations) and ``peak_rss_mb`` (``getrusage`` peak resident memory);
- with ``--trace 1`` the measuring process also runs one traced repetition
  and reports the per-layer metrics instead.

Metric names and units come from ``BENCHMARK.json``.  Every output is
checked; ``failed`` counts operations that raised, failed a check, or
repeated with different bytes.  A human-readable line per metric (and
``failed_ratio``) precedes the result, which is the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The environment (versions, BLAS, threads, git revision, seed) goes to a
sidecar file in ``perfbench/out``, apart from the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_PROCESSES = 10
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        cur = env.get(var, "")
        env[var] = str(min(int(cur), nproc)) if cur.isdigit() and int(cur) > 0 else str(nproc)
    # compiling the sources on every import keeps set-up time the same on
    # the first run in a checkout and on later ones
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list[str], timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} timed out after {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]

    def setup_times() -> list[float]:
        return [run_child([*base, "--setup-only"], SETUP_TIMEOUT_S)["setup_s"] for _ in range(SETUP_PROCESSES // 2)]

    # set-up is sampled before and after the measuring process, so the median
    # spans the whole run rather than one moment of the machine's load
    setups = setup_times()
    main = run_child([*base, "--seconds", str(seconds), *(["--trace"] if trace else [])], MEASURE_TIMEOUT_S)
    setups += setup_times() + [main["setup_s"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(main["rep_wall_s"]),
        "peak_rss_mb": main["peak_rss_mb"],
        "failed_ratio": main["failed"] / main["attempted"],
        **main.get("layers", {}),
    }
    section = "per_layer" if trace else "end_to_end"
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    shown = metrics if "failed_ratio" in metrics else {**metrics, "failed_ratio": {"value": values["failed_ratio"], "unit": "ratio"}}
    for name, metric in shown.items():
        print(f"{workload:>9} {name:<48} {metric['value']:.6g} {metric['unit']}")
    print(f"{workload:>9} {main['failed']} of {main['attempted']} operations failed; "
          f"{len(main['rep_wall_s'])} timed repetitions")

    OUT_DIR.mkdir(exist_ok=True)
    sidecar = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": git_revision(),
        **main["env"],
    }
    if "spans_path" in main:
        sidecar["spans_path"] = main["spans_path"]
    (OUT_DIR / f"env-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(sidecar, indent=1) + "\n")
    return {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*workloads, "all"), required=True)
    parser.add_argument("--seed", type=int, default=20240611)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = workloads if args.workload == "all" else [args.workload]
        results = {w: run_workload(spec, w, args.seed, seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
