"""Op-count profiling: the deterministic work counters of the planners.

Hook sites count through :func:`repro.obs.tracer.count`;
:func:`profiled` installs the :class:`OpProfiler` that receives the
counts.  ``tests/perf/test_op_counts.py`` pins the counts of nine seeded
cases exactly.
"""

from __future__ import annotations

from repro.perf.profiler import OpProfiler, profiled

__all__ = ["OpProfiler", "profiled"]
