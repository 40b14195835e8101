"""Outside tracer: wraps the public functions of the wnl modules.

The library carries no instrumentation of its own, so the benchmark
patches it from outside.  Every public function defined in one of the
traced modules is replaced, in every ``wnl`` module namespace that holds
it (``asymptotics``, ``stationary`` and ``cli`` import functions from
``phase`` and ``spectrum`` by name), by a wrapper that records a span
and passes arguments and result through untouched.  The callables h, d1
and d2 of the phases a workload receives are wrapped the same way and
reported as the pseudo-layer ``phase.eval``.

Spans are kept in memory and written when the run ends.  A span's self
time is its duration minus the durations of its direct children, so
the self times of one pass, including the root span the harness opens
around the pass, add up to that pass's wall time.

Calls that the library makes through references taken at import time
(the ``cli`` dispatch table holds the ``cmd_*`` functions) bypass the
patched names; their time lands in the caller's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

TRACED_MODULES = ("phase", "spectrum", "stationary", "asymptotics", "specfun", "equidist", "cli")
ROOT = "bench.pass"
EVAL = "phase.eval"


@dataclasses.dataclass
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float = math.nan


class Tracer:
    """Patches wnl while installed; records spans and counts per pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.sid)

    def _exit(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    def run_pass(self, fn):
        """Run fn under the root span; return its result and the pass's spans."""
        first = len(self.spans)
        self._enter(ROOT)
        try:
            result = fn()
        finally:
            self._exit()
        return result, self.spans[first:]

    # -- counts --------------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def high(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def _observe(self, name: str, args: tuple, kwargs: dict, result) -> None:
        """Counts read off arguments and results at the layer boundary."""
        if name == "spectrum.compute_spectrum":
            grid = 2**result.grid_pow
            self.count("spectrum.grid_points", grid)
            self.count("spectrum.window_coeffs", result.coeffs.size)
            self.high("spectrum.parseval_defect_max", result.parseval_defect)
            if math.isfinite(result.tail_bound):
                self.high("spectrum.tail_bound_max", result.tail_bound)
            else:
                self.count("spectrum.tail_bound_inf", 1)
        elif name == "specfun.bessel_j_sequence":
            nmax = args[0] if args else kwargs["nmax"]
            self.count("specfun.bessel_orders", nmax + 1)
        elif name == "stationary.stationary_comparison":
            self.count("stationary.rows", len(result.rows))
        elif name == "equidist.weyl_study":
            n_values = args[3] if len(args) > 3 else kwargs["n_values"]
            self.count("equidist.samples", sum(int(n) for n in n_values))

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn, wraps_phase: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._observe(name, args, kwargs, result)
            if wraps_phase:
                result = tracer.wrap_phase(result)
            return result

        return traced

    def _eval_wrap(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(t):
            tracer.counts["phase.eval.points"] += np.size(t)
            tracer._enter(EVAL)
            try:
                return fn(t)
            finally:
                tracer._exit()

        return traced

    def wrap_phase(self, phase):
        """A copy of the phase whose h, d1 and d2 count points and time."""
        return dataclasses.replace(
            phase,
            h=self._eval_wrap(phase.h),
            d1=self._eval_wrap(phase.d1),
            d2=self._eval_wrap(phase.d2),
        )

    def install(self) -> None:
        originals: dict[object, object] = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"wnl.{short}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    builder = short == "phase" and attr.startswith("build_")
                    originals[obj] = self._wrap(f"{short}.{attr}", obj, builder)
        for modname, module in list(sys.modules.items()):
            if modname != "wnl" and not modname.startswith("wnl."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(module, attr, originals[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def take_counts(self) -> dict[str, float]:
        """Counts and maxima recorded since the last call, then reset."""
        counts = {**self.counts, **self.maxima}
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        return counts

    def write(self, path: Path) -> None:
        """All spans as CSV: id, parent id, name, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("sid,parent,name,start_s,end_s\n")
            for s in self.spans:
                fh.write(f"{s.sid},{s.parent},{s.name},{s.start!r},{s.end!r}\n")


def self_times(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and calls per span name for the spans of one pass.

    spans[0] is the pass's root.  Self time is a span's duration minus
    the durations of its direct children, so the values sum to the
    root's duration.
    """
    children: dict[int, float] = defaultdict(float)
    for s in spans[1:]:
        children[s.parent] += s.end - s.start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        self_s[s.name] += (s.end - s.start) - children[s.sid]
        calls[s.name] += 1
    return dict(self_s), dict(calls)
