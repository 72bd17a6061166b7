"""The performance regression lab, run as a benchmark.

Exercises the whole :mod:`repro.perf` pipeline end to end: run every
curated case under the op-count profiler, verify the counts are
deterministic across repeats, compare the entry against itself as a
one-entry trajectory (trivially clean), and report the op-count table --
the same numbers CI's ``perf-lab`` job gates on.  Also times the
profiler's hot paths: the disabled hook (one context-variable read) and
a fully profiled hierarchical planning call.
"""

from benchmarks.conftest import bench_scale, save_text
from repro.obs.tracer import count, op_sink
from repro.perf.compare import compare_trajectory
from repro.perf.lab import CASES, PerfLab


def test_perf_lab_trajectory(benchmark):
    repeats = bench_scale(3, 2)
    lab = PerfLab(repeats=repeats)
    entry = lab.run(label="bench")

    report = compare_trajectory({"entries": [entry]})
    assert report.ok  # a one-entry trajectory is trivially clean

    lines = [
        "performance regression lab: curated op counts",
        "",
        f"  {len(entry['cases'])} cases x {repeats} repeats, "
        "op counts identical across repeats (enforced)",
        "",
    ]
    for name in CASES:
        case = entry["cases"][name]
        wall = case["wall_seconds"]
        lines.append(f"  {name} [median {wall['median'] * 1000:,.1f} ms]")
        for metric, value in sorted(case["ops"].items()):
            lines.append(f"    {metric:>20} {value:>12,}")
    save_text("perf_lab", "\n".join(lines))

    # time the disabled hook: the zero-cost-when-off contract's hot path
    assert op_sink() is None
    benchmark(count, "messages")


def test_profiled_planning_overhead():
    """Profiled planning must agree with unprofiled planning."""
    from repro.core import TopDownOptimizer
    from repro.hierarchy import build_hierarchy
    from repro.network.topology import transit_stub_by_size
    from repro.perf import profiled
    from repro.workload import WorkloadParams, generate_workload

    net = transit_stub_by_size(32, seed=7)
    workload = generate_workload(
        net,
        WorkloadParams(num_streams=10, num_queries=6, joins_per_query=(2, 4)),
        seed=8,
    )
    rates = workload.rate_model()
    hierarchy = build_hierarchy(net, max_cs=6, seed=0)

    plain = [TopDownOptimizer(hierarchy, rates).plan(q) for q in workload]
    with profiled() as prof:
        traced = [TopDownOptimizer(hierarchy, rates).plan(q) for q in workload]
    assert prof.ops["cost_evaluations"] > 0
    for a, b in zip(plain, traced):
        assert a.placement == b.placement
        assert a.stats == b.stats
