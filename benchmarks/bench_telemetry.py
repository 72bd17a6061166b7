"""Telemetry pipeline: overhead, determinism, and chaos-drill latency.

Three questions about arming ``telemetry=TelemetryConfig()``:

1. **Overhead** -- how much wall time does continuous scraping + rule
   evaluation add to a churn replay vs ``telemetry=None``, and does the
   armed service still make byte-identical planning decisions?
2. **Scaling** -- how does per-tick observation cost grow with the
   number of scraped scopes (fleet of 1 vs 4 shards)?
3. **Chaos drill** -- end-to-end wall time of the seeded
   ``chaos_telemetry_scenario`` behind ``repro dash``, and the alert /
   bundle yield it deterministically produces.
"""

import time

from benchmarks.conftest import bench_scale, save_text
from repro.fleet import FleetController
from repro.fleet.scenario import chaos_telemetry_scenario
from repro.obs.telemetry import TelemetryConfig
from repro.service import AdmissionController, StreamQueryService, churn_trace
from repro.workload import WorkloadParams, build_world, world_seeds

MAX_CS = 4


def _build_service(env, telemetry=None, budget=16):
    return StreamQueryService(
        env.optimizer("top-down", max_cs=MAX_CS),
        env.network,
        env.rates,
        hierarchy=env.hierarchy(MAX_CS),
        admission=AdmissionController(budget=budget),
        telemetry=telemetry,
    )


def test_telemetry_overhead_and_determinism(benchmark):
    params = WorkloadParams(
        num_streams=8,
        num_queries=bench_scale(20, 10),
        joins_per_query=(2, 4),
    )
    env = build_world(32, params, **world_seeds(23, (MAX_CS,)))
    repeats = bench_scale(4, 3)
    trace = list(
        churn_trace(env.workload, lifetime=4.0, arrivals_per_tick=2, repeats=repeats)
    )

    plain = _build_service(env, telemetry=None)
    start = time.perf_counter()
    report_plain = plain.replay(list(trace))
    wall_plain = time.perf_counter() - start

    watched = _build_service(env, telemetry=TelemetryConfig())
    start = time.perf_counter()
    report_watched = watched.replay(list(trace))
    wall_watched = time.perf_counter() - start

    # the null contract, also under benchmark-scale load
    assert report_plain.decisions == report_watched.decisions

    envelope = watched.telemetry.envelope()
    overhead = wall_watched / wall_plain - 1.0 if wall_plain > 0 else 0.0

    def observe_only():
        watched.telemetry.observe(watched.clock, force=True)

    result = benchmark(observe_only)  # noqa: F841 - timed by the fixture

    # fleet scaling: per-tick observation cost, 1 vs 4 scraped shards
    walls = {}
    for shards in (1, 4):
        fleet = FleetController(
            shards,
            env.network,
            env.rates,
            env.hierarchy(MAX_CS),
            policy="hash",
            budget=16 // shards,
            telemetry=TelemetryConfig(),
        )
        for query in env.workload:
            fleet.submit(query, lifetime=6.0)
        ticks = bench_scale(40, 20)
        start = time.perf_counter()
        for _ in range(ticks):
            fleet.tick()
        walls[shards] = (time.perf_counter() - start) / ticks

    start = time.perf_counter()
    chaos = chaos_telemetry_scenario(seed=7)
    chaos_wall = time.perf_counter() - start
    chaos_env = chaos.telemetry.envelope()
    fired = [
        e for e in chaos_env["rules"]["events"] if e["to"] == "firing"
    ]
    assert fired, "the chaos drill must fire alerts"
    assert chaos_env["flight"]["bundles_total"] > 0

    lines = [
        "telemetry pipeline: overhead, scaling, chaos drill",
        "",
        f"  churn replay ({len(trace)} events, "
        f"{report_plain.summary['deployed_total']} deploys):",
        f"    telemetry=None     {wall_plain * 1000:10.1f} ms",
        f"    telemetry=armed    {wall_watched * 1000:10.1f} ms "
        f"({overhead * 100:+.1f}%)",
        f"    identical decisions: yes "
        f"({len(report_plain.decisions)} decisions compared)",
        f"    series scraped: {len(envelope['series'])}, "
        f"samples: {envelope['scraper']['samples']}, "
        f"rules: {len(envelope['alerts'])}",
        "",
        "  per-tick observation cost by scraped scopes:",
        f"    fleet of 1 shard   {walls[1] * 1000:10.2f} ms/tick",
        f"    fleet of 4 shards  {walls[4] * 1000:10.2f} ms/tick",
        "",
        f"  chaos drill (repro dash scenario, seed 7): "
        f"{chaos_wall * 1000:.0f} ms for {chaos.ticks} ticks",
        f"    alerts fired: "
        f"{sorted(set(e['rule'] for e in fired))}",
        f"    firing ticks: {sorted(set(e['time'] for e in fired))}",
        f"    bundles: {chaos_env['flight']['bundles_total']}, "
        f"causal traces annotated: "
        f"{len(set(t for b in chaos_env['flight']['bundles'] for t in b['trace_ids']))}",
    ]
    save_text("telemetry", "\n".join(lines))
