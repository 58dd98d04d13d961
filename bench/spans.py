"""Span tracing for the benchmark's traced runs.

The tracer wraps every public function of the ``maxflat`` modules in every
module namespace where it is bound (``maxflat.realize.run_filter`` and
``maxflat.detector.run_filter`` share one wrapper), plus SciPy's ``lfilter``
wherever a maxflat module binds it, recorded as ``kernel.lfilter``.  The
wrappers are installed with ``setattr`` around the traced work and removed
afterwards; the package's source files are not touched.

A span is ``[name, start_ns, end_ns, parent, samples, raised]``.  Spans stay
in memory and are written out once, when the run ends.  A span's self time
is its duration minus the durations of its children; the program is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.signal


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


#: Sample counts recorded per call: the length of the filtered input, or
#: the number of Monte-Carlo trials.
_SAMPLES = {
    "detector.run_detection_mc": lambda a, k: int(_arg(a, k, 1, "trials")),
    "realize.run_filter": lambda a, k: len(_arg(a, k, 2, "x")),
    "procsim.generate_waveform": lambda a, k: int(_arg(a, k, 2, "n_samples")),
    "tracker.run_track": lambda a, k: len(_arg(a, k, 1, "meas_x")),
}

#: Argument keys recorded per call, for the unique-argument ratios.
_KEYS = {
    "design.alpha_table": lambda a, k: int(_arg(a, k, 0, "K")),
    "procsim.discretize_process": lambda a, k: (_arg(a, k, 0, "params"),
                                                float(_arg(a, k, 1, "t_s"))),
}


class Tracer:
    """Records spans around calls into the maxflat modules."""

    def __init__(self) -> None:
        self.spans: list = []
        self.keys: dict = defaultdict(list)
        self._stack: list = []
        self._wrappers: dict = {}
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        samples_of = _SAMPLES.get(name)
        key_of = _KEYS.get(name)
        keys = self.keys[name] if key_of else None
        returns_pipeline = name == "detector.build_detector"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1,
                   samples_of(args, kwargs) if samples_of else 0, False]
            if keys is not None:
                keys.append(key_of(args, kwargs))
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if returns_pipeline:
                # The detector pipeline is a closure, not a module attribute.
                out = self._wrap("detector.pipeline", out)
            return out
        return traced

    def install(self) -> None:
        """Replace every traced function in every maxflat namespace."""
        lfilter = scipy.signal.lfilter
        modules = [m for n, m in list(sys.modules.items())
                   if n == "maxflat" or n.startswith("maxflat.")]
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn is lfilter:
                    name = "kernel.lfilter"
                elif fn.__module__.startswith("maxflat."):
                    name = f"{fn.__module__[len('maxflat.'):]}.{fn.__name__}"
                else:
                    continue
                if fn not in self._wrappers:
                    self._wrappers[fn] = self._wrap(name, fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrappers[fn])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: str) -> None:
        """Write the spans as JSON: name, start, end (ns) and parent index."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": [s[:4] for s in self.spans]}, fh)

    def table(self) -> "SpanTable":
        return SpanTable(self.spans, self.keys)


class SpanTable:
    """Per-span durations and self times, with per-name aggregates."""

    def __init__(self, spans: list, keys: dict) -> None:
        self.names = [s[0] for s in spans]
        self.parent = np.array([s[3] for s in spans], dtype=np.int64)
        self.samples = np.array([s[4] for s in spans], dtype=np.int64)
        self.raised = np.array([s[5] for s in spans], dtype=bool)
        self.dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
        child = np.zeros(len(spans))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_ns = self.dur - child
        self.keys = keys
        self._index = defaultdict(list)
        for i, n in enumerate(self.names):
            self._index[n].append(i)

    def idx(self, name: str) -> np.ndarray:
        return np.array(self._index.get(name, []), dtype=np.int64)

    def calls(self, name: str) -> int:
        return len(self._index.get(name, []))

    def self_s(self, name: str) -> float:
        return float(self.self_ns[self.idx(name)].sum()) / 1e9

    def total_s(self, name: str) -> float:
        return float(self.dur[self.idx(name)].sum()) / 1e9

    def sample_count(self, name: str) -> int:
        return int(self.samples[self.idx(name)].sum())

    def raised_count(self, name: str) -> int:
        return int(self.raised[self.idx(name)].sum())

    def unique_ratio(self, name: str) -> float:
        keys = self.keys.get(name, [])
        return len(set(keys)) / len(keys) if keys else 0.0

    def nearest(self, prefix: str) -> list:
        """For each span, the index of the closest span (itself included)
        whose name starts with ``prefix``, or -1."""
        out = [-1] * len(self.names)
        for i, n in enumerate(self.names):
            if n.startswith(prefix):
                out[i] = i
            elif self.parent[i] >= 0:
                out[i] = out[self.parent[i]]
        return out
