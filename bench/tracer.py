"""Outside-in span tracer: wraps named functions of already-imported modules.

Nothing in the traced program changes.  A target names a module and a
function (or ``Class.method``) defined there; installing the tracer
replaces that function in its defining module and in every other module
of the same package that bound it by name (``from .she import
coeffs_from_point_masses``), so calls through any of those names are
recorded.  Each call becomes a span (name, start, end, parent, trace id);
self time is derived from the spans afterwards.  Leaving the ``with``
block restores every original binding.
"""

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """A function to trace: ``module`` is a full module name, ``qualname``
    a module-level function or ``Class.method``.  ``count``, when given,
    is called as count(counts, args, kwargs, result) after the call
    returns and adds to the tracer's Counter."""

    module: str
    qualname: str
    count: object = None
    span: bool = True

    @property
    def name(self):
        return "%s.%s" % (self.module.rsplit(".", 1)[-1], self.qualname)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int           # index into Tracer.spans, -1 for a root span
    trace_id: str


class Tracer:
    """Records spans and counts for calls into the targets while installed.

    Single-threaded: spans nest through one stack.  ``trace_id`` tags
    every span started while it is set (one id per benchmark job).
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans = []
        self.counts = Counter()
        self.trace_id = ""
        self._stack = []
        self._patches = []

    # -- installation --------------------------------------------------

    def __enter__(self):
        try:
            for t in self.targets:
                self._install(t)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self, t):
        module = sys.modules[t.module]
        if "." in t.qualname:
            cls_name, attr = t.qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(t, raw.__func__))
            else:
                wrapped = self._wrap(t, raw)
            self._patch(cls, attr, raw, wrapped)
            return
        fn = getattr(module, t.qualname)
        wrapped = self._wrap(t, fn)
        package = t.module.split(".", 1)[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package
                                   or name.startswith(package + ".")):
                continue
            if vars(mod).get(t.qualname) is fn:
                self._patch(mod, t.qualname, fn, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, t, fn):
        tracer = self
        name = t.name
        count = t.count

        if not t.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(tracer.counts, args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                        tracer.trace_id)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result
        return traced

    # -- analysis ------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of its children.

        Spans of one thread nest strictly, so a span's children cover
        disjoint parts of its interval.
        """
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def summary(self):
        """{span name: (calls, total_s, self_s)} over all recorded spans."""
        table = {}
        for s, own in zip(self.spans, self.self_times()):
            calls, total, self_s = table.get(s.name, (0, 0.0, 0.0))
            table[s.name] = (calls + 1, total + (s.end - s.start),
                             self_s + own)
        return table
