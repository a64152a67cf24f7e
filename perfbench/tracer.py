"""Outside-in per-module tracer for the optosqueeze benchmark.

The library carries no instrumentation, so the tracer wraps it from the
outside: every public function in each module's ``__all__`` and the
``Operator`` arithmetic methods.  `cli` and `dynamics` bind library names
at import (``from .dynamics import ...``), so each wrapper is installed
under every module attribute that refers to the original function, the
defining module included.  `Tracer.installed` restores the originals on
exit, so untraced passes run the library exactly as shipped.

A span is one call of a wrapped function.  Its self time is its duration
minus the durations of the wrapped calls made inside it; a module's
``self_s`` is the sum of its spans' self times.  Time in code that is not
wrapped (private helpers, numpy, scipy) lands in the self time of the
innermost wrapped caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

from workloads import TAIL_LIMIT  # a truncation attempt is useful when its tail stays at or below it

MODULES = ("operators", "model", "analytic", "dynamics", "spectrum", "cli")
OPERATOR_METHODS = ("dag", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__")


class Tracer:
    """Accumulates per-module self time, call counts and layer counters."""

    def __init__(self):
        self._stack = []  # child-time accumulator of each open span
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.inclusive_s = defaultdict(float)  # by "module.function"
        self.counts = defaultdict(int)  # by "module.function"
        self.dense_bytes = 0  # computed: d^2 * 16 B per Operator returned by `operators`
        self.moments_max_dim = 0
        self.lindblad_max_dim = 0
        self.lindblad_rhs_evals = 0
        self.truncation_attempts = 0
        self.truncation_useful = 0
        self.spectrum_points = 0

    def _call(self, layer, qualname, fn, args, kwargs):
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dt
            self.self_s[layer] += dt - child
            self.calls[layer] += 1
            self.inclusive_s[qualname] += dt
            self.counts[qualname] += 1
        self._observe(layer, qualname, args, out)
        return out

    def _observe(self, layer, qualname, args, out):
        if layer == "operators" and type(out).__name__ == "Operator":
            self.dense_bytes += out.space.total_dim ** 2 * 16
        elif qualname == "dynamics.exact_quadrature_moments":
            self.moments_max_dim = max(self.moments_max_dim, args[0].space.total_dim)
            self._attempt(float(out[2].max()))
        elif qualname == "dynamics.evolve_unitary":
            self._attempt(max(out.meta["tail_max"].values(), default=0.0))
        elif qualname == "dynamics.evolve_lindblad":
            self.lindblad_max_dim = max(self.lindblad_max_dim, args[0].space.total_dim)
            self.lindblad_rhs_evals += out.meta["n_rhs_evals"]
        elif qualname == "spectrum.spectrum_numeric":
            self.spectrum_points += len(out.omegas)

    def _attempt(self, tail):
        self.truncation_attempts += 1
        self.truncation_useful += tail <= TAIL_LIMIT

    def _wrap(self, layer, qualname, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, qualname, fn, args, kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers into the package for the duration of the block."""
        mods = {name: importlib.import_module(f"optosqueeze.{name}") for name in MODULES}
        wrappers = {}  # original function -> wrapper
        for layer, mod in mods.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(layer, f"{layer}.{name}", obj)
        undo = []
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    undo.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        operator_cls = mods["operators"].Operator
        for name in OPERATOR_METHODS:
            obj = operator_cls.__dict__[name]
            undo.append((operator_cls, name, obj))
            setattr(operator_cls, name, self._wrap("operators", f"operators.Operator.{name}", obj))
        try:
            yield self
        finally:
            for owner, name, obj in reversed(undo):
                setattr(owner, name, obj)

    def inclusive(self, *qualnames):
        return sum(self.inclusive_s[q] for q in qualnames)

    def call_count(self, *qualnames):
        return sum(self.counts[q] for q in qualnames)
