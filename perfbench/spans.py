"""Self-time tracing by wrapping functions where callers look them up.

The traced run replaces each measured function with a wrapper that
records call count, inclusive time and self time (inclusive time minus
the time of nested wrapped calls).  A function is patched under every
name that callers resolve at call time: a class attribute for methods,
and each module global bound to the function object for functions
imported by name (``from .volume_rendering import composite`` binds a
second global that must be patched too).  :meth:`LayerTracer.restore`
puts every original back; untraced runs never install a wrapper.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager


class LayerStats:
    """Accumulated calls and times of one span name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class LayerTracer:
    """Installs timing wrappers and accumulates per-name self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        #: Open spans, innermost last: ``[name, child_seconds]``.
        self.stack = []
        #: ``(owner, attribute, original, owned)`` for :meth:`restore`.
        self._patches = []
        #: While false, wrappers call straight through without recording.
        self.recording = True

    # -- span bookkeeping ------------------------------------------------

    def enter(self, name: str) -> float:
        """Open a span; returns its start time."""
        self.stack.append([name, 0.0])
        return self.clock()

    def exit(self, start: float) -> None:
        """Close the innermost span opened at ``start``."""
        elapsed = self.clock() - start
        name, child_s = self.stack.pop()
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = LayerStats()
        stats.calls += 1
        stats.total_s += elapsed
        stats.self_s += elapsed - child_s
        if self.stack:
            self.stack[-1][1] += elapsed

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(frame[0] == name for frame in self.stack)

    @contextmanager
    def paused(self):
        """Calls inside the block pass through the wrappers unrecorded."""
        previous, self.recording = self.recording, False
        try:
            yield self
        finally:
            self.recording = previous

    # -- patching --------------------------------------------------------

    def _wrapper(self, func, name, observe):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            span = name(args, kwargs) if callable(name) else name
            start = tracer.enter(span)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit(start)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", "traced")
        return traced

    def wrap_attr(self, owner, attr: str, name, observe=None) -> None:
        """Wrap ``owner.attr`` (a class method or module function).

        ``name`` is the span name, or a callable ``(args, kwargs) ->
        name``; ``observe(args, kwargs, result)`` runs after each call.
        """
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        setattr(owner, attr, self._wrapper(original, name, observe))
        self._patches.append((owner, attr, original, owned))

    def wrap_function(self, func, name, observe=None, package: str = "repro") -> int:
        """Wrap every module global in ``package`` bound to ``func``.

        Returns how many bindings were patched.
        """
        wrapper = None
        count = 0
        prefix = package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    if wrapper is None:
                        wrapper = self._wrapper(func, name, observe)
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, func, True))
                    count += 1
        if count == 0:
            raise LookupError(f"no module of {package!r} binds {func!r}")
        return count

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
