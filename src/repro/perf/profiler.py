"""Deterministic op-count sink: the op channel of :mod:`repro.obs.tracer`.

Planner performance on this codebase is dominated by a handful of
countable operations: join trees built, placement DP cost evaluations,
protocol messages, plan-cache probes.  Counting them is deterministic --
two runs of the same seeded workload produce identical counts on any
machine -- which is what makes CI-enforceable regression comparison
possible.  Hook sites call :func:`repro.obs.tracer.count`; the counts
land in the innermost :class:`OpProfiler` installed in the context::

    with profiled() as prof:
        optimizer.plan(query)
    prof.ops  # {"trees_enumerated": ..., "placements": ..., ...}
"""

from __future__ import annotations

from repro.obs.tracer import counting


class OpProfiler:
    """Accumulates operation counts."""

    def __init__(self) -> None:
        self.ops: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        """Add ``n`` to the op counter ``key``."""
        self.ops[key] = self.ops.get(key, 0) + n


def profiled():
    """Install a fresh :class:`OpProfiler` for the block."""
    return counting(OpProfiler())
