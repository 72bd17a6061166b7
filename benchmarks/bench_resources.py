"""Resource-aware vs capacity-blind placement under a hotspot fleet.

The canonical stress scenario for the capacity layer: a
:class:`repro.HotspotProfile` fleet where a seeded quarter of the nodes
have a tenth of the capacity.  The communication-cost-optimal placement
does not know weak nodes exist, so the capacity-blind planner happily
piles join operators onto them.  Three questions:

1. **Overload** -- how hot does the blind planner drive the weak nodes
   (measured by a read-only ledger priced over its deployments), and
   does the capacity-aware planner stay under the utilization bound?
2. **Coverage** -- how many of the same queries does the aware planner
   keep live while respecting the bound (parking the rest)?
3. **Price of feasibility** -- how much communication cost does dodging
   the weak nodes add for the queries both planners deployed?
"""

from benchmarks.conftest import bench_scale, save_text
from repro.resources import OperatorFootprint, ResourceConfig, ResourceLedger
from repro.service import AdmissionController, StreamQueryService
from repro.workload.generator import WorkloadParams
from repro.workload.profiles import HotspotProfile

MAX_CS = 4
BOUND = 1.0


def _build_service(env, resources=None, budget=64):
    return StreamQueryService(
        env.optimizer("top-down", max_cs=MAX_CS),
        env.network,
        env.rates,
        hierarchy=env.hierarchy(MAX_CS),
        admission=AdmissionController(budget=budget),
        resources=resources,
    )


def test_capacity_aware_vs_blind_under_hotspot(benchmark):
    # The blind-vs-aware comparison runs through the scenario lab: the
    # checked-in ``resources_hotspot.json`` panel submits the same
    # workload to a capacity-blind service (audited by a read-only
    # ledger) and the capacity-aware planner, and the auto-generated
    # report carries the overload/coverage headline.
    import dataclasses
    import pathlib

    from repro.lab import LabReport, load_scenario, run_lab
    from repro.lab.report import lab_to_json, render_lab_html
    from repro.lab.spec import WorkloadSpec

    params = WorkloadParams(
        num_streams=8,
        num_queries=bench_scale(24, 12),
        joins_per_query=(2, 4),
    )
    spec = load_scenario(
        pathlib.Path(__file__).parent / "scenarios" / "resources_hotspot.json"
    )
    spec = dataclasses.replace(
        spec,
        workload=WorkloadSpec(
            streams=params.num_streams,
            queries=params.num_queries,
            joins=params.joins_per_query,
        ),
        trace=dataclasses.replace(spec.trace, arrivals_per_tick=params.num_queries),
    )
    result = run_lab(spec)
    report = LabReport.from_result(result)

    blind, aware = result.run("blind").plane, result.run("aware").plane
    env = result.run("aware").built.env
    capacities = result.run("aware").built.capacities
    profile = HotspotProfile(
        cpu=spec.capacity.cpu, memory=spec.capacity.memory,
        bandwidth=spec.capacity.bandwidth,
        weak_fraction=spec.capacity.weak_fraction,
        weak_scale=spec.capacity.weak_scale, seed=spec.capacity.seed,
    )
    weak = sorted(n for n, c in capacities.items() if c.cpu < profile.cpu)

    blind_metrics = result.run("blind").metrics()
    blind_live = blind_metrics["live"]
    blind_max = blind_metrics["max_utilization"]
    audit = ResourceLedger(capacities)
    audit.attach(blind.engine.state, OperatorFootprint(env.rates))
    blind_violations = audit.violations(BOUND)
    blind_weak_hits = [
        (node, util) for node, util in blind_violations if node in weak
    ]

    ledger = aware.resources.ledger
    aware_live = result.run("aware").metrics()["live"]
    aware_max = ledger.max_utilization()
    aware_violations = ledger.violations(BOUND)

    # price of feasibility over the commonly-deployed queries
    common = set(blind.live_queries) & set(aware.live_queries)
    blind_cost = sum(blind.engine.state.query_cost(name) for name in common)
    aware_cost = sum(aware.engine.state.query_cost(name) for name in common)
    premium = (aware_cost - blind_cost) / blind_cost if blind_cost else 0.0

    results_dir = pathlib.Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "resources_hotspot_lab.html").write_text(
        render_lab_html(report), encoding="utf-8"
    )
    (results_dir / "resources_hotspot_lab.json").write_text(
        lab_to_json(result), encoding="utf-8"
    )

    lines = [
        "resource-aware vs capacity-blind placement (hotspot fleet)",
        "",
        f"  fleet: 32 nodes, {len(weak)} weak at {profile.weak_scale:g}x "
        f"capacity (seed {profile.seed}); bound {BOUND:g}",
        f"  workload: {len(env.workload)} queries, "
        f"{params.joins_per_query[0]}-{params.joins_per_query[1]} joins each",
        "",
        f"  {'':16} {'live':>6} {'max util':>10} {'nodes over bound':>17}",
        f"  {'capacity-blind':16} {blind_live:>6} {blind_max:>10.2f} "
        f"{len(blind_violations):>17}",
        f"  {'capacity-aware':16} {aware_live:>6} {aware_max:>10.2f} "
        f"{len(aware_violations):>17}",
        "",
        f"  blind planner overloaded {len(blind_weak_hits)} weak node(s); "
        f"hottest: "
        + ", ".join(f"n{n}={u:.1f}x" for n, u in blind_violations[:3]),
        f"  aware planner: shed {aware.resources.shed_total}, "
        f"parked {len(aware.resources.parked)}",
        f"  communication-cost premium on the {len(common)} common queries: "
        f"{premium:+.1%}",
    ]

    # acceptance: the blind planner overloads the hotspot fleet, the
    # aware planner finds feasible placements for most of the same
    # workload without ever exceeding the bound
    assert blind_violations, "hotspot scenario must overload the blind planner"
    assert blind_max > BOUND
    assert aware_violations == []
    assert aware_max <= BOUND + 1e-9
    assert aware_live >= int(0.6 * blind_live)

    save_text("resources_hotspot", "\n".join(lines))

    # benchmark one constrained warm plan (cache miss -> DP under mask)
    queries = list(env.workload)
    counter = iter(range(10_000_000))

    def constrained_plan():
        query = queries[next(counter) % len(queries)]
        aware.optimizer.plan(query)

    benchmark(constrained_plan)
