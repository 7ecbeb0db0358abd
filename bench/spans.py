"""Spans around calls into the program's public functions, recorded from
outside the program.

A :class:`Tracer` replaces each traced function with a wrapper on every
``tsopt`` module that binds it, so a caller that imported the function by
name (``from .fem import assemble`` in ``optimize``) is traced as well as
one that looks it up on its home module.  ``scipy.sparse.linalg.splu`` is
wrapped on its own module, because ``fem`` calls it as ``spla.splu``.

Each span records its name (``<module>.<function>``), the span that was
open when it started (its parent), its start and end, and the phase the
benchmark was in.  Spans stay in memory; :meth:`Tracer.summary` turns them
into call counts, inclusive times and self times (inclusive time minus the
time covered by child spans).
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

__all__ = ["Tracer", "LayerStats"]


class LayerStats:
    """Totals of one span name over one phase."""

    __slots__ = ("calls", "seconds", "self_seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0


class Tracer:
    """Install with :meth:`install`, always undo with :meth:`remove`."""

    def __init__(self, targets):
        # targets: (span name, home module name, attribute name)
        self.targets = tuple(targets)
        self.spans = []          # [name, parent index, start, end, phase]
        self.phase = None
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    def install(self) -> None:
        owners = [mod for name, mod in sorted(sys.modules.items())
                  if mod is not None
                  and (name == "tsopt" or name.startswith("tsopt."))]
        for span_name, home, attr in self.targets:
            home_module = sys.modules[home]
            original = getattr(home_module, attr)
            wrapper = self._wrap(span_name, original)
            bound = [home_module] if not home.startswith("tsopt") else owners
            for owner in bound:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                        self._patches.append((owner, key, original))

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0,
                    self.phase]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def call_counts(self, first_span: int = 0) -> dict:
        """Calls per span name among the spans recorded since index
        ``first_span``."""
        counts = {}
        for span in self.spans[first_span:]:
            counts[span[0]] = counts.get(span[0], 0) + 1
        return counts

    def summary(self, phase) -> dict:
        """``{span name: LayerStats}`` over the spans of one phase."""
        child_seconds = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        stats = {}
        for index, (name, _, start, end, span_phase) in enumerate(self.spans):
            if span_phase != phase:
                continue
            entry = stats.setdefault(name, LayerStats())
            entry.calls += 1
            entry.seconds += end - start
            entry.self_seconds += end - start - child_seconds[index]
        return stats
