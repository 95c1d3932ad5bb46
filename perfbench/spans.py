"""Layer spans recorded from outside the program.

A :class:`Tracer` wraps a layer's public entry points (functions and
methods) so that each call opens a span on a stack. When the span
closes, its duration is charged to the layer, less the time its child
spans covered: that remainder is the layer's self time. Spans are kept
as per-layer aggregates in memory (calls, total and self seconds) and
written out when the traced process ends. The program is not edited;
only the benchmark's own processes install the wrappers.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    """Per-layer self time, total time and call counts."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        #: Open spans: [layer, start, seconds covered by child spans].
        self.stack: list[list] = []

    def reset(self) -> None:
        """Forget everything recorded so far, open spans included."""
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.counters.clear()
        self.stack.clear()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def active(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open (an enclosing span)."""
        return any(frame[0] == layer for frame in self.stack)

    def wrap(self, layer: str, function, after=None):
        """``function`` timed as a span of ``layer``.

        ``after(args, kwargs, result)`` runs once the span has closed,
        for counters that read the call's arguments or result.
        """
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                self.calls[layer] = self.calls.get(layer, 0) + 1
                self.total_s[layer] = self.total_s.get(layer, 0.0) + duration
                self.self_s[layer] = (
                    self.self_s.get(layer, 0.0) + duration - frame[2]
                )
                if stack:
                    stack[-1][2] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch_method(self, cls, name: str, layer: str, after=None) -> None:
        setattr(cls, name, self.wrap(layer, getattr(cls, name), after))

    def patch_function(self, module, name: str, layer: str,
                       after=None) -> None:
        """Wrap ``module.name`` and every other module's binding of it.

        ``from x import f`` copies the function object into the importing
        module, so each such binding in an already-imported module is
        replaced as well.
        """
        original = getattr(module, name)
        traced = self.wrap(layer, original, after)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, key, traced)

    def document(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "counters": self.counters,
        }
