"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the six qhydro modules where
their callers look them up: the module attribute (``riemann.christoffel``),
every name bound by ``from ... import`` in another qhydro module
(``fluid.covariant_derivative``), and a few methods
(``ChartManifold.metric_at``, ``StateVector.__init__``,
``SpinWaveFunction.divisor``).  Nothing under ``src/`` is edited; the
wrappers are removed again when the traced pass ends.

Spans are aggregated in memory per name as (calls, inclusive seconds, self
seconds); self time is a span's duration minus the durations of the spans
it directly encloses.  Hooks add counters measured at the same boundary.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "fluid", "projective", "riemann", "hilbert", "spin")


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Aggregated spans and counters for one or more traced passes."""

    def __init__(self):
        self.stats = {}
        self.counters = Counter()
        self._open = []  # child-time accumulator of each open span
        self._undo = []

    def span(self, name, fn, hook=None):
        """Wrap fn so every call records a span called name.

        hook(args, out, exc, seconds) runs after each call, also when fn
        raised (then out is None and exc the exception).
        """
        stats = self.stats.setdefault(name, SpanStats())
        open_spans = self._open

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            out = exc = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as error:
                exc = error
                raise
            finally:
                seconds = perf_counter() - t0
                children = open_spans.pop()
                stats.calls += 1
                stats.total_s += seconds
                stats.self_s += seconds - children
                if open_spans:
                    open_spans[-1] += seconds
                if hook is not None:
                    hook(args, out, exc, seconds)

        return functools.update_wrapper(wrapper, fn)

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, hooks=None):
        """Wrap every public function of the layers and the traced methods."""
        from qhydro import hilbert, riemann, spin

        hooks = hooks or {}
        modules = {name: sys.modules[f"qhydro.{name}"] for name in LAYERS}
        wrapped = {}
        for short, module in modules.items():
            names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
            for attr in names:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    wrapped[fn] = self.span(name, fn, hooks.get(name))
        package_modules = [sys.modules["qhydro"], *modules.values()]
        for module in package_modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._replace(module, attr, wrapped[value])
        methods = [
            (riemann.ChartManifold, "metric_at", "riemann.metric_at"),
            (hilbert.StateVector, "__init__", "hilbert.StateVector"),
            (spin.SpinWaveFunction, "divisor", "spin.SpinWaveFunction.divisor"),
        ]
        for owner, attr, name in methods:
            self._replace(owner, attr, self.span(name, getattr(owner, attr), hooks.get(name)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def calls(self, name):
        stats = self.stats.get(name)
        return stats.calls if stats else 0

    def self_s(self, name):
        stats = self.stats.get(name)
        return stats.self_s if stats else 0.0
