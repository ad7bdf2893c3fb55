"""In-memory span tracer that wraps the public functions of ``twirlbreak``
from outside the package.

Every public function, class constructor and public method defined in a
``twirlbreak`` submodule is replaced by a wrapper that records a span
(name, start, end, parent, failed).  The wrapper is rebound under every name
that refers to the original object: the defining module, modules that took
it with ``from .linalg import ...``, the package namespace, and dispatch
tables such as ``cli._RUNNERS`` and ``verification.ALL_CHECKS``.  No file of
the package changes.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# Counters computed from call arguments, keyed by span name.  They are
# computed, not measured: bytes_computed is the size of the two stacked
# Kronecker batches that mc_twirl_operator builds, 2 * n * (d_A d_B)^2 * 16 B.
ARG_COUNTERS = {
    "twirl.mc_twirl_operator": (
        "bytes_computed",
        lambda a: 2 * a["n"] * (a["dims"][0] * a["dims"][1]) ** 2 * 16,
    ),
    "twirl.HaarSampler.sample_batch": ("samples", lambda a: a["n"]),
}

# The few-huge-arrays kernels: their calls run under tracemalloc, which
# reports the peak of the bytes allocated during the call.  The kernels
# never nest inside one another.
PEAK_MB_SPANS = (
    "twirl.mc_twirl_operator",
    "channels.build_twirl_dilation",
    "channels.apply_dilation",
)

# Calls that reject their input by raising; the share that returns is the
# useful-work ratio of the sweep that calls them.
ACCEPTED_RATIO_SPANS = ("gaussian.quasi_normal_cm",)


class Tracer:
    def __init__(self, package: str = "twirlbreak"):
        self.package = package
        # one row per span: [name, start_ns, end_ns, parent index or -1, failed]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.peak_mb: dict[str, float] = defaultdict(float)
        self.names: set[str] = set()
        self.installed = False
        self.active = False

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def root(self, name: str):
        """The benchmark's own root span around one operation.  Wrappers
        record spans only inside a root span, so the benchmark's output
        checks stay out of the trace."""
        idx = self._open(name)
        self.active = True
        failed = True
        try:
            yield
            failed = False
        finally:
            self.active = False
            self._close(idx, failed)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        row = self.spans[idx]
        row[2] = time.perf_counter_ns()
        row[4] = failed
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = ARG_COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        peak = name in PEAK_MB_SPANS
        self.names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters[f"{name}.{counter[0]}"] += counter[1](bound.arguments)
            own_tracing = peak and not tracemalloc.is_tracing()
            if own_tracing:
                tracemalloc.start()
            idx = self._open(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._close(idx, failed)
                if own_tracing:
                    _, top = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    key = f"{name}.peak_mb"
                    self.peak_mb[key] = max(self.peak_mb[key], top / 2**20)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public callable of the already-imported package."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        prefix = self.package + "."
        modules = [m for n, m in sorted(sys.modules.items()) if n == self.package or n.startswith(prefix)]
        replaced: dict[int, object] = {}
        for mod in modules:
            if mod.__name__ == self.package:
                continue
            short = mod.__name__[len(prefix):]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                new = _rebind(obj, replaced)
                if new is not obj:
                    setattr(mod, attr, new)
        self.installed = True

    def _wrap_class(self, name: str, cls) -> None:
        # constructing the object includes its validation (__post_init__)
        if "__init__" in vars(cls):
            cls.__init__ = self._wrap(name, cls.__init__)
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(f"{name}.{attr}", obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(f"{name}.{attr}", obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(f"{name}.{attr}", obj))

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-span-name calls, inclusive seconds (``.s``), self seconds,
        plus the argument counters, tracemalloc peaks and accepted ratios.
        Every wrapped name is present, with zeros when it was never called."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        failed: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, bad) in enumerate(self.spans):
            calls[name] += 1
            failed[name] += bad
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[i]
        out: dict[str, float] = {}
        for name in sorted(self.names | set(calls)):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total_ns[name] / 1e9
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for name, (counter, _) in ARG_COUNTERS.items():
            out[f"{name}.{counter}"] = self.counters[f"{name}.{counter}"]
        for name in PEAK_MB_SPANS:
            out[f"{name}.peak_mb"] = self.peak_mb[f"{name}.peak_mb"]
        for name in ACCEPTED_RATIO_SPANS:
            n = calls[name]
            out[f"{name}.accepted_ratio"] = (n - failed[name]) / n if n else 0.0
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: times in ns relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "failed"],
                    "spans": [[n, s - t0, e - t0, p, b] for n, s, e, p, b in self.spans],
                },
                f,
                separators=(",", ":"),
            )


def _rebind(obj, replaced: dict[int, object]):
    """obj with every wrapped function swapped for its wrapper, also inside
    tuples, lists and dicts (dispatch tables); obj itself if nothing changed."""
    if type(obj) is dict:
        new = {k: _rebind(v, replaced) for k, v in obj.items()}
        changed = any(new[k] is not v for k, v in obj.items())
    elif type(obj) in (tuple, list):
        new = type(obj)(_rebind(x, replaced) for x in obj)
        changed = any(a is not b for a, b in zip(new, obj))
    else:
        return replaced.get(id(obj), obj)
    return new if changed else obj
