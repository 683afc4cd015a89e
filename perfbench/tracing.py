"""Layer spans recorded from outside the package.

Each layer is timed by replacing, for the duration of a traced request, the
function object at the name its caller looks up (``kernel_engine.cone_correlate``
is the name kernel_engine imported from backend; ``experiments.build_initial``
the name experiments imported from grid).  No file of the package changes.

A span is (name, start, end, parent, request).  Spans stay in memory and are
written once, when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from dirac_decoherence import bessel, cli, density, experiments, kernel_engine, spectral

LAYERS = ("grid", "spectral", "density", "bessel", "kernel_engine", "backend", "experiments", "cli")

# Computed counters, derived from argument shapes rather than measured.  Bytes
# are the compulsory traffic of complex128 data: input, taps and output once.


def _fft_points(args, result):
    return {"fft_points": 2 * args[0].grid.n_points}


def _bessel_args(args, result):
    return {"args": int(np.size(args[0]))}


def _cone(args, result):
    n, j = args[0].shape[0], args[2]
    return {"macs": n * (2 * j + 1), "bytes": 16 * (2 * n + 2 * j + 1)}


def _csv_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}  # measured: the file as written


# (span name, namespace the caller looks the name up in, name, counter)
TARGETS = (
    ("grid.build_initial", experiments, "build_initial", None),
    ("grid.chirality_distributions", experiments, "chirality_distributions", None),
    ("spectral.evolve", spectral, "evolve", None),
    ("spectral.decompose", spectral, "decompose", _fft_points),
    ("spectral.evolve_modes", spectral, "evolve_modes", None),
    ("spectral.reconstruct", spectral, "reconstruct", _fft_points),
    ("density.reduce", density, "reduce", None),
    ("density.entropy_bits", density, "entropy_bits", None),
    ("bessel.j0", bessel, "j0", _bessel_args),
    ("bessel.j1_over_x", bessel, "j1_over_x", _bessel_args),
    ("kernel_engine.evolve_step", kernel_engine, "evolve_step", None),
    ("backend.cone_correlate", kernel_engine, "cone_correlate", _cone),
    ("experiments.run_scenario", experiments, "run_scenario", None),
    ("cli.main", cli, "main", None),
    ("cli.write_csv", cli, "write_csv", _csv_bytes),
) + tuple(
    # cli looks figure builders up in the FIGURES dict it shares with experiments.
    ("experiments.figure", experiments.FIGURES, key, None) for key in experiments.FIGURES
)


def _get(namespace, name):
    return namespace[name] if isinstance(namespace, dict) else getattr(namespace, name)


def _set(namespace, name, value):
    if isinstance(namespace, dict):
        namespace[name] = value
    else:
        setattr(namespace, name, value)


class RequestStats:
    """One traced request: self time, calls and counters per span name."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.cache_hits = 0
        self.cache_misses = 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, request]
        self.requests: list[RequestStats] = []
        self._stack: list[int] = []
        self._request = -1
        self._counters: Counter = Counter()

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._request])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if counter is not None:
                for key, value in counter(args, result).items():
                    self._counters[f"{name}.{key}"] += value
            return result

        return traced

    @contextmanager
    def request(self, request_id: int):
        """Trace one request: install the wrappers, restore them afterwards."""
        self._request, self._counters = request_id, Counter()
        saved = [(ns, attr, _get(ns, attr)) for _, ns, attr, _ in TARGETS]
        for (name, ns, attr, counter), (_, _, original) in zip(TARGETS, saved):
            _set(ns, attr, self._wrap(name, original, counter))
        first = len(self.spans)
        before = spectral.eigenbasis.cache_info()
        try:
            yield
        finally:
            after = spectral.eigenbasis.cache_info()
            for ns, attr, original in saved:
                _set(ns, attr, original)
            stats = RequestStats()
            stats.cache_hits = after.hits - before.hits
            stats.cache_misses = after.misses - before.misses
            stats.counters = self._counters
            child_s = defaultdict(float)
            for name, start, end, parent, _ in self.spans[first:]:
                stats.calls[name] += 1
                stats.self_s[name] += end - start
                if parent >= 0:
                    child_s[parent] += end - start
            for index, covered in child_s.items():
                stats.self_s[self.spans[index][0]] -= covered
            self.requests.append(stats)

    def write(self, path, environment: dict) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w") as fh:
            json.dump({"environment": environment, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)

    def metrics(self, traced_walls: list[float], untraced_walls: list[float]) -> dict:
        """Per-request per-layer metrics: medians of times, exact per-request counts."""
        reqs = self.requests

        def med(f):
            return statistics.median(f(r) for r in reqs)

        def self_s(name):
            return med(lambda r: r.self_s.get(name, 0.0))

        def layer_s(layer):
            return med(lambda r: sum(v for k, v in r.self_s.items() if k.startswith(layer + ".")))

        # Counts repeat exactly from one request to the next; median_low keeps them integers.
        def calls(name):
            return statistics.median_low(r.calls[name] for r in reqs)

        def counter(name):
            return statistics.median_low(r.counters[name] for r in reqs)

        def gmacs(r):
            busy = r.self_s.get("backend.cone_correlate", 0.0)
            return r.counters["backend.cone_correlate.macs"] / busy / 1e9 if busy > 0 else 0.0

        hits = sum(r.cache_hits for r in reqs)
        lookups = hits + sum(r.cache_misses for r in reqs)
        values = {
            "spectral.decompose.calls": (calls("spectral.decompose"), "count"),
            "spectral.decompose.self_s": (self_s("spectral.decompose"), "s"),
            "spectral.evolve_modes.self_s": (self_s("spectral.evolve_modes"), "s"),
            "spectral.reconstruct.calls": (calls("spectral.reconstruct"), "count"),
            "spectral.reconstruct.self_s": (self_s("spectral.reconstruct"), "s"),
            # 0 when no request consulted the cache.
            "spectral.eigenbasis.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
            "spectral.fft_points": (
                counter("spectral.decompose.fft_points") + counter("spectral.reconstruct.fft_points"),
                "pt-computed",
            ),
            "density.reduce.calls": (calls("density.reduce"), "count"),
            "density.reduce.self_s": (self_s("density.reduce"), "s"),
            "density.entropy_bits.self_s": (self_s("density.entropy_bits"), "s"),
            "grid.build_initial.calls": (calls("grid.build_initial"), "count"),
            "grid.build_initial.self_s": (self_s("grid.build_initial"), "s"),
            "bessel.j0.args": (counter("bessel.j0.args"), "count"),
            "bessel.j1_over_x.args": (counter("bessel.j1_over_x.args"), "count"),
            "kernel_engine.evolve_step.calls": (calls("kernel_engine.evolve_step"), "count"),
            "kernel_engine.evolve_step.self_s": (self_s("kernel_engine.evolve_step"), "s"),
            "backend.cone_correlate.calls": (calls("backend.cone_correlate"), "count"),
            "backend.cone_correlate.self_s": (self_s("backend.cone_correlate"), "s"),
            "backend.cone_correlate.macs": (counter("backend.cone_correlate.macs"), "MAC-computed"),
            "backend.cone_correlate.bytes": (counter("backend.cone_correlate.bytes"), "B-computed"),
            "backend.cone_correlate.gmacs_per_s": (med(gmacs), "GMAC/s"),
            "experiments.run_scenario.self_s": (self_s("experiments.run_scenario"), "s"),
            "experiments.figure.self_s": (self_s("experiments.figure"), "s"),
            "cli.main.self_s": (self_s("cli.main"), "s"),
            "cli.write_csv.self_s": (self_s("cli.write_csv"), "s"),
            "cli.write_csv.bytes": (counter("cli.write_csv.bytes"), "B"),
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = (layer_s(layer), "s")
        values["trace.wall_s"] = (statistics.median(traced_walls), "s")
        values["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
        return values
