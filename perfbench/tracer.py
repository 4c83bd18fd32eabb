"""Span and call-count tracer that wraps a program's functions from outside.

A function imported with ``from module import name`` is bound in every
importing namespace, so wrapping only its defining module misses the calls
made through the other bindings.  ``Tracer.span`` and ``Tracer.count``
therefore look the original function object up in every given namespace
and replace each binding; ``Tracer.restore`` (or leaving the ``with``
block) puts every original back.

Spans form a stack: a span's self time is its duration minus the durations
of the spans it directly encloses.  Counters record calls without a span,
for functions too small or too hot to time (their time stays in the
caller's self time).
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls = Counter()             # name -> calls
        self.self_s = defaultdict(float)   # name -> time not in child spans
        self.total_s = defaultdict(float)  # name -> inclusive time
        self.edges = Counter()             # (parent span or None, name) -> calls
        self.by_root = Counter()           # (outermost open span, name) -> calls
        self.raised = Counter()            # (name, exception class name) -> count
        self._stack = []                   # open spans: [name, child seconds]
        self._patched = []                 # (namespace, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, on_return):
        clock, stack = time.perf_counter, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            self.calls[name] += 1
            self.edges[parent, name] += 1
            self.by_root[stack[0][0] if stack else name, name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[name, type(exc).__name__] += 1
                if on_return is not None:
                    on_return(args, kwargs, None, exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_return is not None:
                on_return(args, kwargs, result, None)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        calls, by_root, stack = self.calls, self.by_root, self._stack

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            calls[name] += 1
            by_root[stack[0][0] if stack else None, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _install(self, namespaces, owner, attr, make):
        original = getattr(owner, attr)
        wrapped = make(original)
        found = False
        seen = set()
        for ns in namespaces:
            if id(ns) in seen:
                continue
            seen.add(id(ns))
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
                    self._patched.append((ns, key, original))
                    found = True
        if not found:
            raise LookupError(f"{attr} of {owner!r} is bound nowhere")
        return wrapped

    def span(self, name, owner, attr, namespaces=(), on_return=None):
        """Time every call of ``owner.attr`` as span ``name``, through each
        binding of it in ``owner`` and ``namespaces``.  ``on_return`` gets
        (args, kwargs, result, exception) after each call."""
        return self._install([owner, *namespaces], owner, attr,
                             lambda fn: self._span_wrapper(name, fn, on_return))

    def count(self, name, owner, attr, namespaces=()):
        """Count every call of ``owner.attr`` under ``name``, without a span."""
        return self._install([owner, *namespaces], owner, attr,
                             lambda fn: self._count_wrapper(name, fn))

    def restore(self):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ------------------------------------------------------------

    def calls_under(self, parent, name) -> int:
        """Calls of ``name`` made directly inside span ``parent``."""
        return self.edges[parent, name]

    def calls_within(self, root, name) -> int:
        """Calls of ``name`` made while ``root`` was the outermost open span
        (a root span counts itself)."""
        return self.by_root[root, name]


def wrapper_cost_s() -> tuple[float, float]:
    """Measured extra seconds that one span and one counter add to a call."""
    n = 20000

    def noop():
        return None

    costs = []
    for kind in ("span", "count"):
        box = types.SimpleNamespace(f=noop)
        tracer = Tracer()
        getattr(tracer, kind)("noop", box, "f")
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                noop()
            t1 = time.perf_counter()
            for _ in range(n):
                box.f()
            t2 = time.perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / n)
        tracer.restore()
        costs.append(max(best, 0.0))
    return costs[0], costs[1]
