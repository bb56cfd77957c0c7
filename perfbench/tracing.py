"""Spans and counters around the library's public entry points.

The tracer replaces a function or method by a wrapper *where its caller
looks it up*: a module attribute for names imported with ``from x import
y``, a class attribute for methods.  Nothing in the package itself is
edited, and ``uninstall`` puts every original back.

Every wrapped call keeps a frame on one stack, so a span's self time is
its duration minus the time its wrapped children cover.  Spans of the
layer entry points are kept in memory as (id, name, start, end, parent
id) and written out at the end.  The scalar operations and ``add_entry``
run millions of times per pass, so for those only the call count and
self time are kept; their time still leaves their caller's self time.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self._stack = []
        self._depth = Counter()
        self._next_id = 0
        self._installed = []

    def reset(self):
        """Forget everything recorded; the wrappers stay installed."""
        for table in (self.spans, self.calls, self.counts, self.self_s,
                      self.total_s, self._depth):
            table.clear()
        if self._stack:
            raise RuntimeError("tracer reset inside an open span")
        self._next_id = 0

    # -- frames: [name, start, child time, span id, parent span id] -------

    def _enter(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else None
        frame = [name, 0.0, 0.0, sid, parent]
        self._stack.append(frame)
        self._depth[name] += 1
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame):
        end = perf_counter()
        name, start, child, sid, parent = frame
        self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.total_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        self.spans.append((sid, name, start, end, parent))

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr, name, after=None):
        """Route ``owner.attr`` through a kept span named ``name``.

        ``after(result, args)`` runs once the call has returned, outside
        the span, to record counts read off the result.
        """
        original = owner.__dict__[attr]
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                out = original(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(out, args)
            return out

        self._install(owner, attr, original, wrapper)

    def wrap_hot(self, owner, attr, name):
        """Count calls and self time of ``owner.attr``; keep no spans.

        For the scalar operations and ``add_entry``, which the package
        calls positionally; their inclusive time is not reported.
        """
        original = owner.__dict__[attr]
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def wrapper(*args):
            frame = [name, 0.0, 0.0, stack[-1][3] if stack else None, None]
            stack.append(frame)
            start = perf_counter()
            try:
                return original(*args)
            finally:
                dur = perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper):
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def write_spans(path, spans):
    """One JSON line per span: [id, name, start, end, parent id]."""
    with open(path, "w") as fh:
        for span in sorted(spans):
            fh.write(json.dumps(span) + "\n")
