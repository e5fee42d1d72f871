"""Spans around the public functions of logseries, installed from outside.

The package is not edited: :meth:`Tracer.install` replaces each public
function of the four layers (``series``, ``inequalities``, ``oracles``,
``cli``) with a wrapper that records a span, and rebinds every copy that
another module imported (``inequalities.eval_log``, ``cli.trace``, the
names re-exported by ``logseries`` itself), so calls that cross a module
boundary nest as child spans.  Spans stay in memory as tuples
``(name, start_ns, end_ns, parent_index)`` until the caller reads them.

``series.decrement_step`` is left alone: ``eval_log`` calls it once per
chain step through the module global, so a span there would time the
wrapper, not the step.  The benchmark times it in batches instead.
"""

import importlib
import time

LAYERS = ("series", "inequalities", "oracles", "cli")
NOT_WRAPPED = {("series", "decrement_step")}


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__
        ):
            yield name, value


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def span(self, name):
        """A span opened by the benchmark itself, around a group of calls."""
        return _Span(self, name)

    def _open(self):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index, name, start, parent):
        self._stack.pop()
        self.spans[index] = (name, start, time.perf_counter_ns(), parent)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, name, start, parent)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        package = importlib.import_module("logseries")
        modules = [importlib.import_module(f"logseries.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in _public_functions(module):
                if (layer, name) not in NOT_WRAPPED:
                    wrappers[id(fn)] = self.wrap(f"{layer}.{name}", fn)
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index, self.parent = self.tracer._open()
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index, self.name, self.start, self.parent)
        return False


def durations(spans, name, parents=None):
    """Durations in seconds of spans called ``name``, optionally under given parents."""
    return [
        (end - start) / 1e9
        for n, start, end, parent in spans
        if n == name and (parents is None or parent in parents)
    ]


def summarize(span_lists):
    """Per span name over several span lists: count, total and self seconds.

    Self time is a span's duration minus that of its direct children.
    """
    out = {}
    for spans in span_lists:
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[i]) / 1e9
    return out
