"""Call tracing at nullkit's module boundaries, installed from outside.

The tracer replaces chosen functions and methods with timing wrappers.
Modules bind functions by name at import time (``ideals`` imports
``buchberger``, ``varieties`` imports ``ideal_intersect``, ...), so a
wrapped function is rebound in every loaded nullkit module whose
namespace holds the original object; otherwise calls through those
names would go uncounted.

Every wrapped call adds to a per-target record of calls, total time and
self time (its duration minus the time of wrapped calls nested inside
it).  Boundary targets also record one span per call: name, start, end,
parent span and the problem id the benchmark set.  Hot inner operations
(field operators, polynomial multiply, order keys, reductions) only
aggregate, because a span per call would dwarf the work being measured.

A target that no longer exists (a private name renamed by a later
change) is skipped and listed in ``missing``; the metrics it feeds are
then reported as missing instead of crashing the run.
"""

import sys
import time


class Record:
    """Aggregate for one target: calls, total and self seconds, extras."""

    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra = {}

    def bump(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount


class Frame:
    __slots__ = ("name", "child", "span", "extra")

    def __init__(self, name, span):
        self.name = name
        self.child = 0.0
        self.span = span
        self.extra = None


class Tracer:
    def __init__(self):
        self.records = {}
        self.spans = []
        self.stack = []
        self.problem = None
        self.missing = []
        self._undo = []

    def record(self, name):
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = Record()
        return rec

    def parent_name(self):
        """Name of the innermost wrapped call in progress, or None."""
        return self.stack[-1].name if self.stack else None

    def _wrapper(self, name, fn, span, label, after):
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        fixed = self.record(name) if label is None else None
        tracer = self

        def traced(*args, **kwargs):
            rec = fixed
            full = name
            if rec is None:
                full = f"{name}[{label(tracer, args, kwargs)}]"
                rec = tracer.record(full)
            frame = Frame(full, None)
            if span:
                frame.span = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                rec.calls += 1
                rec.total += took
                rec.self_time += took - frame.child
                if stack:
                    stack[-1].child += took
                if span:
                    parent = next((f.span for f in reversed(stack)
                                   if f.span is not None), None)
                    spans[frame.span] = (full, start, end, parent,
                                         tracer.problem)
            if after is not None:
                after(tracer, rec, frame, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_function(self, module, attr, name, span=False, label=None,
                      after=None):
        """Wrap module.attr and rebind it wherever nullkit imported it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapped = self._wrapper(name, original, span, label, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nullkit"
                                   or mod_name.startswith("nullkit.")):
                continue
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def wrap_method(self, cls, attr, name, span=False, label=None,
                    after=None):
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is None:
            self.missing.append(name)
            return
        self._undo.append((cls, attr, original))
        setattr(cls, attr,
                self._wrapper(name, original, span, label, after))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self, prefix):
        """(calls, total, self) summed over records whose name starts
        with prefix."""
        calls = total = self_time = 0
        for name, rec in self.records.items():
            if name.startswith(prefix):
                calls += rec.calls
                total += rec.total
                self_time += rec.self_time
        return calls, total, self_time

    def span_durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans
                if n == name]
