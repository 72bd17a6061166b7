"""Fleet control plane: sharded throughput, federated reuse, fairness.

Three questions about running N :class:`repro.StreamQueryService` shards
behind the :class:`repro.FleetController` instead of one big service:

1. **Throughput** -- sustained deployments/second replaying the same
   churn trace through 1 shard vs a 4-shard fleet (same total budget).
2. **Federated reuse** -- how much of the single-service view-reuse cost
   savings does cross-shard federation recover when the reusing queries
   land on *different* shards?  The acceptance bar is >= 80%.
3. **Fairness** -- under sustained 2x overload, do per-tenant admissions
   follow the configured weights, and does that hold at 1 shard and 4?
"""

import time

from benchmarks.conftest import bench_scale, save_text
from repro.fleet import FleetController, Tenant
from repro.hierarchy import AdvertisementIndex
from repro.query.query import Query
from repro.service import AdmissionController, StreamQueryService, churn_trace
from repro.workload import WorkloadParams, build_world, world_seeds

MAX_CS = 4


def _build_single(env, ads=True, budget=32):
    """The no-ads control also disables planner reuse: the planners can
    reuse straight from the deployment state, so ``reuse=False`` is what
    actually isolates the no-reuse baseline cost."""
    hierarchy = env.hierarchy(MAX_CS)
    index = AdvertisementIndex(hierarchy) if ads else None
    optimizer = env.optimizer("top-down", max_cs=MAX_CS, ads=index, reuse=ads)
    return StreamQueryService(
        optimizer,
        env.network,
        env.rates,
        hierarchy=hierarchy,
        ads=index,
        admission=AdmissionController(budget=budget),
    )


def _build_fleet(env, shards, budget_per_shard, **kwargs):
    return FleetController(
        shards,
        env.network,
        env.rates,
        env.hierarchy(MAX_CS),
        algorithm="top-down",
        policy=kwargs.pop("policy", "hash"),
        budget=budget_per_shard,
        **kwargs,
    )


def _twin(query, suffix, num_nodes):
    """A reuse twin: same joins, different name and sink."""
    return Query(
        query.name + suffix,
        sources=query.sources,
        sink=(query.sink + 5) % num_nodes,
        predicates=query.predicates,
        filters=query.filters,
        window=query.window,
    )


def test_fleet_churn_throughput_and_federation(benchmark):
    params = WorkloadParams(
        num_streams=8,
        num_queries=bench_scale(24, 12),
        joins_per_query=(2, 4),
    )
    env = build_world(32, params, **world_seeds(41, (MAX_CS,)))
    num_nodes = env.network.num_nodes
    repeats = bench_scale(4, 3)

    # ------------------------------------------------------------------
    # 1. churn throughput: 1 shard vs a 4-shard fleet, same total budget
    # ------------------------------------------------------------------
    trace = list(
        churn_trace(env.workload, lifetime=4.0, arrivals_per_tick=3, repeats=repeats)
    )
    single = _build_single(env, budget=32)
    start = time.perf_counter()
    single_report = single.replay(list(trace))
    single_wall = time.perf_counter() - start

    fleet = _build_fleet(env, shards=4, budget_per_shard=8)
    start = time.perf_counter()
    fleet_report = fleet.replay(list(trace))
    fleet_wall = time.perf_counter() - start
    assert fleet.check_invariants() == []

    s1, sf = single_report.summary, fleet_report.summary
    assert sf["deployed_total"] == s1["deployed_total"]
    single_qps = s1["deployed_total"] / single_wall
    fleet_qps = sf["deployed_total"] / fleet_wall

    # ------------------------------------------------------------------
    # 2. federated reuse: savings recovered vs the single-service ceiling
    # ------------------------------------------------------------------
    # Originals then reuse twins, run through the scenario lab: the
    # checked-in ``fleet_reuse.json`` panel pits the no-ads control
    # (baseline), the single service with in-process reuse (ceiling)
    # and the 4-shard hash-routed fleet (contender) against the same
    # seeded twin-burst trace, and the auto-generated report carries
    # the recovery headline (see docs/experiments.md).
    import dataclasses
    import pathlib

    from repro.lab import LabReport, load_scenario, run_lab
    from repro.lab.report import lab_to_json, render_lab_html
    from repro.lab.spec import WorkloadSpec

    spec = load_scenario(
        pathlib.Path(__file__).parent / "scenarios" / "fleet_reuse.json"
    )
    spec = dataclasses.replace(
        spec,
        workload=WorkloadSpec(
            streams=params.num_streams,
            queries=params.num_queries,
            joins=params.joins_per_query,
        ),
    )
    result = run_lab(spec)
    report = LabReport.from_result(result)
    federated = result.run("fleet_hash_4").plane
    assert federated.check_invariants() == []

    cost_no_reuse = result.run("no_reuse").metrics()["final_cost"]
    cost_single = result.run("single_reuse").metrics()["final_cost"]
    cost_fleet = result.run("fleet_hash_4").metrics()["final_cost"]
    ceiling = cost_no_reuse - cost_single
    recovery = report.recovery().get("fleet_hash_4", 1.0)

    results_dir = pathlib.Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "fleet_reuse_lab.html").write_text(
        render_lab_html(report), encoding="utf-8"
    )
    (results_dir / "fleet_reuse_lab.json").write_text(
        lab_to_json(result), encoding="utf-8"
    )

    lines = [
        "fleet control plane: sharding, federation, fairness",
        "",
        f"  trace: {s1['submitted']} submissions "
        f"({repeats}x {len(env.workload)} queries, lifetime 4 ticks, 3/tick)",
        "",
        f"  {'':24} {'deploys/s':>12} {'plans':>8} {'cache hits':>11}",
        f"  {'single service':24} {single_qps:>12,.0f} "
        f"{s1['plans_computed']:>8} {s1['cache_hits']:>11}",
        f"  {'fleet (4 shards)':24} {fleet_qps:>12,.0f} "
        f"{sf['plans_computed']:>8} {sf['cache_hits']:>11}",
        "",
        "  cross-shard view reuse (originals + twins, hash-routed):",
        f"    no reuse        {cost_no_reuse:>14,.0f}  (control, ads off)",
        f"    single service  {cost_single:>14,.0f}  "
        f"(in-process reuse: the ceiling)",
        f"    4-shard fleet   {cost_fleet:>14,.0f}  "
        f"({fleet_summary_line(federated)})",
        f"    savings recovered by federation: {recovery:.1%} "
        f"(acceptance bar: 80%)",
    ]

    # acceptance: cross-shard federation recovers >= 80% of the
    # single-service view-reuse cost savings
    assert ceiling > 0, "workload has no reuse potential to measure"
    assert recovery >= 0.80, f"federation recovered only {recovery:.1%}"

    # ------------------------------------------------------------------
    # 3. weighted-fair admission under 2x overload, 1 shard vs 4
    # ------------------------------------------------------------------
    lines += ["", "  weighted-fair admission under 2x overload (gold:bronze = 3:1):"]
    for shards in (1, 4):
        ratio, gold, bronze = _overload_ratio(env, shards, num_nodes)
        lines.append(
            f"    {shards} shard(s): admitted gold {gold} / bronze {bronze} "
            f"-> ratio {ratio:.2f}"
        )
        # high-priority admit rate exceeds low-priority proportionally
        assert gold > bronze
        assert 3.0 * 0.7 <= ratio <= 3.0 * 1.3

    save_text("fleet", "\n".join(lines))

    # benchmark one warm fleet submit/retire cycle (routing + cache hit)
    query = env.workload.queries[0]
    counter = iter(range(10_000_000))

    def warm_cycle():
        name = f"bench-{next(counter)}"
        fleet.submit(_twin(query, name, num_nodes))
        fleet.retire(query.name + name)

    benchmark(warm_cycle)


def fleet_summary_line(fleet):
    fed = fleet.federation.summary()
    return (
        f"{fed['imported_total']} imports, "
        f"{fleet.cross_shard_reuse_total} cross-shard reuse hits"
    )


def _overload_ratio(env, shards, num_nodes):
    fleet = _build_fleet(
        env,
        shards=shards,
        budget_per_shard=max(1, 4 // shards),
        tenants=[Tenant("gold", weight=3.0), Tenant("bronze", weight=1.0)],
    )
    queries = env.workload.queries
    warmup = {}
    n = 0
    for t in range(1, 61):
        fleet.tick(float(t))
        if t == 10:
            warmup = {
                name: fleet.tenant_summary()[name]["admitted"]
                for name in ("gold", "bronze")
            }
        # capacity is ~4 concurrent with lifetime 1 => ~4 admissions/tick;
        # 8 arrivals/tick is sustained 2x overload
        for k in range(4):
            for tenant in ("gold", "bronze"):
                base = queries[n % len(queries)]
                fleet.submit(
                    _twin(base, f"-{tenant}-{n}-{k}", num_nodes),
                    lifetime=1.0,
                    tenant=tenant,
                )
            n += 1
    summary = fleet.tenant_summary()
    gold = int(summary["gold"]["admitted"] - warmup.get("gold", 0))
    bronze = int(summary["bronze"]["admitted"] - warmup.get("bronze", 0))
    return gold / bronze, gold, bronze
