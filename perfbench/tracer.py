"""Spans and counts recorded around amenspec's public functions, from outside.

The tracer replaces a function by a wrapper in the namespace of each module
that calls it (``walks.spectral_radius``, ``cli.spectral_radius``, ...), so
nothing under ``src/`` changes. A span has a name, a parent, a start and an
end; its self time is its duration minus the durations of its children.
Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    children_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name, whose parent is the open span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.children_s += span.end - span.start
            self.counts[name + "_calls"] += 1

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Trace module.attr as span name; count(args, result) adds to counts."""
        orig = getattr(module, attr, None)
        if orig is None:
            print(f"tracer: {module.__name__}.{attr} not found, not traced",
                  file=sys.stderr)
            return

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            result = self.call(name, orig, *args, **kwargs)
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, orig))

    def restore(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> Counter:
        """Summed self time per span name."""
        out = Counter()
        for s in self.spans:
            out[s.name] += s.self_s
        return out


def _operator(args, kwargs):
    return args[0] if args else kwargs["op"]


def _solve_counts(args, kwargs, report):
    return {"spectral.solve_iterations": report.iterations,
            "spectral.operator_nnz": _operator(args, kwargs).nnz}


def _certify_counts(args, kwargs, cert):
    return {"spectral.operator_nnz": _operator(args, kwargs).nnz}


def _ball_counts(args, kwargs, ball):
    return {"walks.ball_elements": ball.size}


def install(tracer: Tracer) -> None:
    """Wrap every traced function of amenspec where its callers look it up."""
    from amenspec import cli, fusion, semidirect, spectral, walks

    tracer.wrap(fusion, "validate_descriptor", "fusion.validate")
    tracer.wrap(fusion, "window_operator", "fusion.build")
    tracer.wrap(walks, "build_ball", "walks.ball", _ball_counts)
    tracer.wrap(walks, "cayley_operator", "walks.cayley")
    tracer.wrap(semidirect, "pair_lattice", "semidirect.build")
    tracer.wrap(semidirect, "pair_window_operator", "semidirect.build")
    for module in (cli, walks, spectral):
        tracer.wrap(module, "spectral_radius", "spectral.solve", _solve_counts)
    for module in (fusion, semidirect):
        tracer.wrap(module, "in_spectrum", "spectral.certify", _certify_counts)
