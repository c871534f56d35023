"""In-memory spans recorded around the module attributes the package's layers call through.

A traced op opens a root span; each wrapped attribute opens a child span while
it runs.  Spans stay in memory and are written out once, when the run ends.
A span's self time is its duration minus the time its direct children cover.
"""

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    op: int
    parent: int  # index of the parent span in Tracer.spans; -1 for an op's root
    start: float
    end: float = None


@dataclass(frozen=True)
class Hook:
    """What a wrapped attribute records.

    name is the span name, or a function of the call's arguments giving it;
    count(args, result), when set, gives the counters to add once the call
    returns.
    """

    module: object
    attr: str
    name: object
    count: object = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.ops = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.ops - 1, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    @contextmanager
    def op(self, root):
        """Open the root span of the next op; its self time belongs to `root`."""
        self.ops += 1
        with self.span(root):
            yield

    def count(self, counters):
        for key, amount in counters.items():
            self.counters[key] = self.counters.get(key, 0) + amount

    def self_times(self):
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        totals = {}
        for span, children in zip(self.spans, covered):
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start - children
        return totals

    def durations(self, names):
        """Total duration (self plus children) of the spans with the given names."""
        return sum(s.end - s.start for s in self.spans if s.name in names)

    def as_records(self):
        return [asdict(span) for span in self.spans]

    @contextmanager
    def instrumented(self, hooks):
        """Replace each hooked attribute by a recording wrapper; restore them on exit."""
        saved = []
        try:
            for hook in hooks:
                original = getattr(hook.module, hook.attr)
                saved.append((hook.module, hook.attr, original))
                setattr(hook.module, hook.attr, self._wrap(original, hook))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, original, hook):
        def wrapper(*args, **kwargs):
            name = hook.name if isinstance(hook.name, str) else hook.name(args)
            with self.span(name):
                result = original(*args, **kwargs)
            if hook.count is not None:
                self.count(hook.count(args, result))
            return result

        return wrapper
