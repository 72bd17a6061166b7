"""Span tracing and op counting on one ambient instrumentation context.

A :class:`Tracer` produces a tree of :class:`Span` objects -- one span
per unit of work (an optimization, one hierarchy level's planning task,
one bottom-up climb step, ...).  Spans carry free-form *tags* (set
once, descriptive) and additive *counters* (candidate plans examined,
trees pruned, cache hits), and are timed with a monotonic clock.

Instrumented code never receives a tracer.  It calls the module-level
hooks, which report to whatever the caller installed in the current
:mod:`contextvars` context.  The context has three channels:

* the *nominal* channel -- :func:`span`, :func:`incr` and :func:`tag`
  -- reaches the tracer installed with :func:`tracing`; span counters
  are the paper's search-space accounting and feed
  :class:`~repro.obs.explain.PlanExplanation`;
* the *op* channel -- :func:`count` -- reaches the sink installed with
  :func:`counting` (normally an :class:`~repro.perf.profiler.OpProfiler`
  through :func:`~repro.perf.profiler.profiled`); op counts are the
  work actually done, pinned exactly by ``tests/perf/test_op_counts.py``
  and recorded per candidate by the scenario lab;
* the *causal* channel -- every deployment protocol and migration
  cutover timed under :func:`causal_tracing` records its message hops
  into that :class:`~repro.obs.causal.CausalTracer`.

The first two stay separate on purpose, and one name means different
things on each: ``trees_enumerated`` is the nominal tree count on a
span and the trees the search actually built as an op count.

::

    tracer = Tracer()
    with tracing(tracer):
        optimizer.plan(query)
    print(tracer.last_root.render())

Installs nest (the innermost wins) and belong to the context that made
them: threads, asyncio tasks and ``copy_context().run(...)`` siblings
each see only their own.  With nothing installed every hook is one
context-variable read and a ``None`` check: :func:`span` hands back the
shared no-op :data:`NULL_SPAN` and nothing is allocated or recorded.
Tracing must never change what the traced code computes.

Span trees serialize to plain dicts (:meth:`Span.to_dict` /
:meth:`Span.from_dict`); :mod:`repro.serialization` wraps them in the
usual tagged-JSON envelope.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Span:
    """One timed, taggable unit of work in a trace tree.

    A causal message hop (:mod:`repro.obs.causal`) is a span too; it
    also carries ``trace_id``, ``span_id`` and ``parent_id``, which stay
    ``None`` on nominal spans and out of :meth:`to_dict`.
    """

    __slots__ = (
        "name", "tags", "counters", "children", "start", "end", "_tracer",
        "trace_id", "span_id", "parent_id",
    )

    def __init__(
        self,
        name: str,
        tags: dict[str, Any] | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.name = name
        self.tags: dict[str, Any] = dict(tags) if tags else {}
        self.counters: dict[str, float] = {}
        self.children: list[Span] = []
        self.start: float | None = None
        self.end: float | None = None
        self._tracer = tracer
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_id: str | None = None

    # -- context manager ----------------------------------------------
    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is None:
            raise RuntimeError("span was not created by a live tracer")
        tracer._push(self)
        self.start = tracer._clock()
        return self

    def __exit__(self, *exc: object) -> None:
        self.end = self._tracer._clock()  # type: ignore[union-attr]
        self._tracer._pop(self)  # type: ignore[union-attr]

    # -- annotation ---------------------------------------------------
    def tag(self, **tags: Any) -> "Span":
        """Set descriptive tags on the span (last write wins)."""
        self.tags.update(tags)
        return self

    def incr(self, key: str, amount: float = 1) -> None:
        """Add to one of the span's additive counters."""
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- inspection ---------------------------------------------------
    @property
    def duration(self) -> float:
        """Wall-clock seconds the span covered (0.0 while still open)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """The span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total(self, counter: str) -> float:
        """Sum of one counter over the span and every descendant."""
        return sum(s.counters.get(counter, 0) for s in self.walk())

    # -- serialization ------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-ready) form of the subtree."""
        return {
            "name": self.name,
            "tags": dict(self.tags),
            "counters": dict(self.counters),
            "duration": self.duration,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Span":
        """Rebuild a (data-only) span tree from :meth:`to_dict` output."""
        span = cls(doc["name"], doc.get("tags"))
        span.counters = {k: v for k, v in doc.get("counters", {}).items()}
        span.start = 0.0
        span.end = float(doc.get("duration", 0.0))
        span.children = [cls.from_dict(c) for c in doc.get("children", [])]
        return span

    # -- rendering ----------------------------------------------------
    def render(self, max_depth: int | None = None) -> str:
        """Indented text tree of the span and its descendants.

        ``max_depth`` bounds the tree depth shown; a subtree cut off by
        the bound is summarized as an explicit ``… (+N pruned)`` line
        (N descendants hidden) rather than silently dropped.
        """
        lines: list[str] = []

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:g}"
            return str(value)

        stack = [(self, 0)]
        while stack:
            span, depth = stack.pop()
            parts = [span.name]
            parts += [f"{k}={fmt(v)}" for k, v in span.tags.items()]
            parts += [f"{k}={fmt(v)}" for k, v in sorted(span.counters.items())]
            parts.append(f"[{span.duration * 1000:.2f} ms]")
            lines.append("  " * depth + " ".join(parts))
            if span.children and max_depth is not None and depth >= max_depth:
                pruned = sum(1 for _ in span.walk()) - 1
                lines.append("  " * (depth + 1) + f"… (+{pruned} pruned)")
                continue
            stack.extend((child, depth + 1) for child in reversed(span.children))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, tags={self.tags}, counters={self.counters})"


class Tracer:
    """Collects span trees.

    The active-span stack lives in a :class:`contextvars.ContextVar`,
    so concurrent callers (threads, asyncio tasks, any
    ``contextvars``-aware executor) each see their own stack: a span
    entered in one context can never be popped -- or parented under --
    by another, while all contexts still collect into the shared
    ``roots`` list.  Within one context the discipline is strictly
    LIFO, exactly as before.

    Args:
        clock: Monotonic time source (seconds); ``time.perf_counter``
            by default, injectable for deterministic tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack_var: contextvars.ContextVar[tuple[Span, ...]] = (
            contextvars.ContextVar("repro_span_stack", default=())
        )
        self.roots: list[Span] = []

    def _push(self, span: Span) -> None:
        stack = self._stack_var.get()
        parent = stack[-1] if stack else None
        (parent.children if parent is not None else self.roots).append(span)
        self._stack_var.set(stack + (span,))

    def _pop(self, span: Span) -> None:
        stack = self._stack_var.get()
        if not stack or stack[-1] is not span:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"span {span.name!r} exited out of order for this context"
            )
        self._stack_var.set(stack[:-1])

    def incr(self, key: str, amount: float = 1) -> None:
        """Add to a counter on the current span (no-op when none open)."""
        stack = self._stack_var.get()
        if stack:
            stack[-1].incr(key, amount)

    @property
    def last_root(self) -> Span | None:
        """The most recently finished (or opened) top-level span."""
        return self.roots[-1] if self.roots else None


class _NullSpan:
    """The no-op span :func:`span` returns with no tracer installed."""

    __slots__ = ()
    name = ""
    tags: dict = {}
    counters: dict = {}
    children: tuple = ()
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def tag(self, **tags: Any) -> "_NullSpan":
        return self

    def incr(self, key: str, amount: float = 1) -> None:
        pass


#: Shared no-op span :func:`span` returns with no tracer installed.
NULL_SPAN = _NullSpan()

# -- the ambient context -----------------------------------------------
_TRACER: contextvars.ContextVar[Tracer | None] = contextvars.ContextVar(
    "repro_tracer", default=None
)
_OPS: contextvars.ContextVar[Any] = contextvars.ContextVar("repro_ops", default=None)
_CAUSAL: contextvars.ContextVar[Any] = contextvars.ContextVar(
    "repro_causal", default=None
)


@contextmanager
def _installed(var: contextvars.ContextVar, value: Any) -> Iterator[Any]:
    token = var.set(value)
    try:
        yield value
    finally:
        if var.get() is not value:
            raise RuntimeError("instrumentation installs must nest")
        var.reset(token)


def tracing(tracer: Tracer):
    """Install ``tracer`` for the block: the nominal channel's target."""
    return _installed(_TRACER, tracer)


def counting(sink):
    """Install ``sink`` (anything with ``count(key, n)``) for the block:
    the op channel's target."""
    return _installed(_OPS, sink)


def causal_tracing(tracer):
    """Install ``tracer`` (a :class:`~repro.obs.causal.CausalTracer`)
    for the block: the causal channel's target."""
    return _installed(_CAUSAL, tracer)


def current_tracer() -> Tracer | None:
    """The tracer installed in this context, or ``None``."""
    return _TRACER.get()


def op_sink():
    """The op sink installed in this context, or ``None``; for a site
    that counts several quantities and reads the sink once."""
    return _OPS.get()


def current_causal():
    """The causal tracer installed in this context, or ``None``."""
    return _CAUSAL.get()


def span(name: str, **tags: Any) -> Span | _NullSpan:
    """A new span on the installed tracer (:data:`NULL_SPAN` if none)."""
    tracer = _TRACER.get()
    if tracer is None:
        return NULL_SPAN
    return Span(name, tags, tracer=tracer)


def incr(key: str, amount: float = 1) -> None:
    """Add to a counter on the installed tracer's current span."""
    tracer = _TRACER.get()
    if tracer is not None:
        tracer.incr(key, amount)


def tag(**tags: Any) -> None:
    """Tag the installed tracer's current span (no-op when none open)."""
    tracer = _TRACER.get()
    stack = tracer._stack_var.get() if tracer is not None else ()
    if stack:
        stack[-1].tag(**tags)


def count(key: str, n: int = 1) -> None:
    """Add ``n`` to the op counter ``key`` of the installed sink."""
    sink = _OPS.get()
    if sink is not None:
        sink.count(key, n)
