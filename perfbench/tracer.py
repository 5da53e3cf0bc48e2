"""Span tracing around dpdkit's public functions, from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a timing wrapper, in every dpdkit namespace that holds a reference
to it (``dpdkit.pipeline.lasso_iterated_ridge`` as well as
``dpdkit.solver.lasso_iterated_ridge``), so spans nest the way callers
see the calls.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("signal", "pa_sim", "gmp", "solver", "pipeline")

# Span fields, in the order they are stored and written out.
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op")


class Tracer:
    """Records one span per traced call, and per-layer counts from hooks.

    ``hooks`` maps a span name such as ``"gmp.apply_model"`` to a
    function ``hook(args, kwargs, result, counts)`` that adds to the
    current op's ``counts`` dict after the call returns.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans = []
        self.counts = {}
        self._stack = []
        self._op = None
        self._patched = []
        self._wrappers = self._build_wrappers()

    def _build_wrappers(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dpdkit.{layer}")
            for name, fn in vars(module).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
        return wrappers

    def _wrap(self, fn, span_name):
        hook = self.hooks.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [span_id, span_name, time.perf_counter(), None, parent, self._op]
            self.spans.append(span)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(args, kwargs, result, self.counts[self._op])
            return result

        return traced

    def install(self):
        """Patch every dpdkit namespace; undo with ``uninstall``."""
        for module_name, module in list(sys.modules.items()):
            if module_name != "dpdkit" and not module_name.startswith("dpdkit."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def op(self, op_id):
        """Context manager: one root span ``op`` that every call nests under."""
        return _OpSpan(self, op_id)

    def records(self):
        return [dict(zip(SPAN_FIELDS, span)) for span in self.spans]


class _OpSpan:
    def __init__(self, tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        tracer = self.tracer
        tracer._op = self.op_id
        tracer.counts[self.op_id] = {}
        self.span = [len(tracer.spans), "op", time.perf_counter(), None, None, self.op_id]
        tracer.spans.append(self.span)
        tracer._stack.append(self.span[0])
        tracer.install()
        return self

    def __exit__(self, exc_type, exc, tb):
        tracer = self.tracer
        tracer.uninstall()
        self.span[3] = time.perf_counter()
        tracer._stack.pop()
        tracer._op = None
        return False


def op_summary(spans, op_id):
    """Inclusive and self time per span name for one op.

    Self time is a span's duration minus the durations of its children;
    calls run on one thread, so children never overlap.  Inclusive time
    counts only the outermost span of a name, so a function that calls
    itself is not counted twice.
    """
    own = [s for s in spans if s[5] == op_id]
    by_id = {s[0]: s for s in own}
    child_time = {}
    for s in own:
        if s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
    inclusive, self_time, calls = {}, {}, {}
    for s in own:
        duration = s[3] - s[2]
        name = s[1]
        self_time[name] = self_time.get(name, 0.0) + duration - child_time.get(s[0], 0.0)
        calls[name] = calls.get(name, 0) + 1
        ancestor = by_id.get(s[4])
        while ancestor is not None and ancestor[1] != name:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            inclusive[name] = inclusive.get(name, 0.0) + duration
    return inclusive, self_time, calls
