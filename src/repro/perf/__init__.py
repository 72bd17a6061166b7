"""Performance regression lab: op-count profiling, benchmarks, comparison.

Hook sites count through :func:`repro.obs.tracer.count`;
:func:`profiled` installs the :class:`OpProfiler` that receives the
counts.  The package root stays import-light on purpose:
:class:`PerfLab` and the comparator pull in the service stack, so they
are exposed lazily (PEP 562).
"""

from __future__ import annotations

from repro.perf.profiler import OpProfiler, profiled

__all__ = [
    "OpProfiler",
    "profiled",
    "PerfLab",
    "compare_trajectory",
    "load_trajectory",
]

_LAZY = {
    "PerfLab": ("repro.perf.lab", "PerfLab"),
    "compare_trajectory": ("repro.perf.compare", "compare_trajectory"),
    "load_trajectory": ("repro.perf.lab", "load_trajectory"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
