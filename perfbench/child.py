"""One fresh benchmark process for one workload.

    python3 perfbench/child.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

Set-up (importing ``twirlbreak``, parsing the configs, generating the seeded
inputs) is timed from the first import.  Then, within ``--seconds``, one
untimed warm-up repetition runs and then timed repetitions (at least
MIN_REPS), each timed from its first operation to its last.  Every output is
checked after its repetition's clock stops.  With ``--trace`` one more
repetition runs with every public function of ``twirlbreak`` wrapped; its
spans are written to ``perfbench/out``.

The last line of stdout is one JSON object; ``run.py`` reads it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
MIN_REPS = 3


class Runner:
    """Runs repetitions of a fixed list of operations and counts failures:
    an operation fails if it raises, fails its check, or gives output that
    differs from its first repetition."""

    def __init__(self, ops):
        self.ops = ops
        self.first_digest: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def rep(self, tracer=None) -> float:
        results = []
        gc.collect()  # every repetition starts from the same collector state
        start = time.perf_counter()
        for op in self.ops:
            try:
                if tracer is None:
                    results.append((op.run(), None))
                else:
                    with tracer.root(f"op.{op.name}"):
                        results.append((op.run(), None))
            except Exception as exc:
                results.append((None, f"raised {type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - start
        for op, (res, problem) in zip(self.ops, results):
            self.attempted += 1
            if problem is None:
                problem = self._check(op, res)
            if problem is not None:
                self.failed += 1
                print(f"FAIL {op.name}: {problem}", file=sys.stderr)
        return wall

    def _check(self, op, res) -> str | None:
        try:
            problem = op.check(res)
            digest = hashlib.sha256(op.digest(res)).digest()
        except Exception as exc:
            return f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            return problem
        if self.first_digest.setdefault(op.name, digest) != digest:
            return "output differs from its first repetition"
        return None


def environment() -> dict:
    """Where the numbers came from; never an input to any metric."""
    import ctypes
    from importlib import metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = fn()
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": threads,
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import twirlbreak

    if Path(twirlbreak.__file__).resolve().parent != ROOT / "src" / "twirlbreak":
        print(f"twirlbreak imported from {twirlbreak.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.make(args.workload, args.seed, ROOT)
    setup_s = time.perf_counter() - setup_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(ops)
    deadline = time.perf_counter() + args.seconds
    runner.rep()  # warm-up: lazy imports and allocator caches settle
    walls = []
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        walls.append(runner.rep())
    result = {
        "setup_s": setup_s,
        "rep_wall_s": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        traced = runner.rep(tracer)
        result["layers"] = tracer.metrics()
        result["layers"]["trace.overhead_s"] = traced - statistics.median(walls)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        result["spans_path"] = str(spans_path.relative_to(ROOT))
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
