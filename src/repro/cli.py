"""Command-line interface.

Installed as the ``repro`` console script::

    repro figures fig2 fig7          # regenerate selected paper figures
    repro figures --all              # regenerate every figure
    repro demo quickstart            # run a built-in demo end to end
    repro bounds -k 4 -n 1000 --max-cs 10
    repro plan "SELECT A.x FROM A, B WHERE A.k = B.k" --nodes 32 --sink 5
    repro serve --queries 40 --budget 8 --repeats 2   # lifecycle service
    repro trace --query 0 --algorithm top-down        # span tree + explanation
    repro metrics --format prom                       # typed metric exposition
    repro chaos --seed 7 --duration 50                # fault-injection drill
    repro dash --once --json                          # telemetry control tower

Everything the CLI does is also available as a library call; the CLI is
a thin veneer for kicking the tires.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

FIGURES = {
    "fig2": ("figure02_motivation", {}),
    "fig5": ("figure05_bottom_up_cluster_sweep", {"workloads": 3}),
    "fig6": ("figure06_top_down_cluster_sweep", {"workloads": 3}),
    "fig7": ("figure07_suboptimality_and_reuse", {"workloads": 3}),
    "fig8": ("figure08_baseline_comparison", {"workloads": 3}),
    "fig9": ("figure09_search_space_scalability", {}),
    "fig10": ("figure10_deployment_time", {}),
    "fig11": ("figure11_prototype_cumulative_cost", {}),
}

#: Demo name -> the ``examples/`` script it runs.
DEMOS = {
    "quickstart": "quickstart",
    "ois": "airline_ois",
    "sharing": "multi_query_sharing",
    "adaptive": "adaptive_runtime",
}

ALGORITHMS = ("top-down", "bottom-up", "optimal", "relaxation",
              "in-network", "plan-then-deploy")
HIERARCHICAL = ALGORITHMS[:2]


def _cmd_figures(args: argparse.Namespace) -> int:
    import repro.experiments as experiments
    from repro.experiments.reporting import print_result

    names = list(FIGURES) if args.all or not args.names else args.names
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; choose from {', '.join(FIGURES)}")
        return 2
    for name in names:
        fn_name, kwargs = FIGURES[name]
        if args.seed is not None:
            kwargs = {**kwargs, "seed": args.seed}
        result = getattr(experiments, fn_name)(**kwargs)
        print_result(result)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import pathlib
    import runpy

    # examples/ is shipped alongside the repo, not inside the package;
    # locate it relative to this file's repository checkout if possible.
    for parent in pathlib.Path(__file__).resolve().parents:
        example = parent / "examples" / f"{DEMOS[args.name]}.py"
        if example.exists():
            runpy.run_path(str(example))["main"]()
            return 0
    print("examples/ directory not found next to the package; run from a checkout")
    return 2


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.core.bounds import (
        beta,
        exhaustive_space,
        hierarchy_height,
        top_down_space_bound,
    )

    h = hierarchy_height(args.nodes, args.max_cs)
    print(f"K={args.streams} sources, N={args.nodes} nodes, max_cs={args.max_cs} (height {h})")
    print(f"  exhaustive (Lemma 1):    {exhaustive_space(args.streams, args.nodes):.6g}")
    print(f"  TD/BU bound (Thm 2/4):   {top_down_space_bound(args.streams, args.nodes, args.max_cs):.6g}")
    print(f"  beta:                    {beta(args.streams, args.nodes, args.max_cs):.6g}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    import numpy as np

    import repro
    from repro.inspect import describe_deployment, render_plan

    net = repro.transit_stub_by_size(args.nodes, seed=args.seed or 0)
    rng = np.random.default_rng(args.seed or 0)
    # place each referenced stream on a random node
    from repro.query.sql import parse_query

    query = parse_query(args.sql, name="cli_query", sink=args.sink)
    streams = {
        name: repro.StreamSpec(name, int(rng.integers(0, args.nodes)), 100.0)
        for name in query.sources
    }
    rates = repro.RateModel(streams)
    hierarchy = repro.build_hierarchy(net, max_cs=args.max_cs, seed=0)
    optimizer = repro.make_optimizer(args.algorithm, net, rates, hierarchy=hierarchy)
    deployment = optimizer.plan(query, None)
    print(render_plan(deployment.plan, deployment.placement))
    print()
    print(describe_deployment(deployment, net.cost_matrix(), rates))
    return 0


def _write(path: str, text: str) -> None:
    """Write one output artifact and say so."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _fail(message: str) -> int:
    """Report a usage error on stderr; the exit code to return."""
    print(f"error: {message}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# The world every service-driving subcommand builds, built once
# ----------------------------------------------------------------------
def _world(args, workload=None):
    """Network, workload, rate model and hierarchy a subcommand runs on.

    Generated from ``--nodes --streams --queries --seed`` unless a
    loaded ``workload`` (``serve --trace``) brings its own network.
    """
    import types

    import repro

    if workload is None:
        network = repro.transit_stub_by_size(args.nodes, seed=args.seed or 0)
        workload = repro.generate_workload(
            network,
            repro.WorkloadParams(
                num_streams=args.streams,
                num_queries=args.queries,
                joins_per_query=(2, min(4, args.streams - 1)),
            ),
            seed=args.seed or 0,
        )
    network = workload.network
    return types.SimpleNamespace(
        network=network,
        workload=workload,
        rates=workload.rate_model(),
        hierarchy=repro.build_hierarchy(network, max_cs=args.max_cs, seed=0),
    )


def _planner(world, args, ads=True, **kwargs):
    """``(ads, optimizer)``: the ``--algorithm`` planner over a fresh
    advertisement index that knows every base stream (``ads=False``:
    no shared index, the planner reads the deployment state alone)."""
    import repro

    index = None
    if ads:
        index = repro.AdvertisementIndex(world.hierarchy)
        for stream, spec in world.rates.streams.items():
            index.advertise_base(stream, spec.source)
        kwargs["ads"] = index
    optimizer = repro.make_optimizer(
        args.algorithm, world.network, world.rates, hierarchy=world.hierarchy, **kwargs
    )
    return index, optimizer


def _service(world, args, ads=True, **layers):
    """A lifecycle service over ``world``; ``layers`` are the service's
    own keyword arguments (admission, cache, resilience, ...)."""
    from repro.service import StreamQueryService

    index, optimizer = _planner(world, args, ads=ads)
    return StreamQueryService(
        optimizer,
        world.network,
        world.rates,
        hierarchy=world.hierarchy,
        ads=index,
        **layers,
    )


def _churn(world, args):
    """The churn trace ``--lifetime --arrivals --repeats`` describe."""
    from repro.service import churn_trace

    return churn_trace(
        world.workload,
        lifetime=args.lifetime,
        # ``metrics`` has no --arrivals flag; it replays at the default.
        arrivals_per_tick=getattr(args, "arrivals", 2),
        repeats=args.repeats,
    )


def _durability(args):
    """``--state-dir`` as a durability config (``None`` when omitted)."""
    if not args.state_dir:
        return None
    from repro.durability import DurabilityConfig

    return DurabilityConfig(state_dir=args.state_dir)


def _print_replay(report, world, args) -> None:
    """The two replay summary lines serve / fleet / resources share."""
    s = report.summary
    print(f"  trace: {s['submitted']} submissions over {report.ticks} ticks "
          f"({args.repeats}x {len(world.workload)} queries, lifetime {args.lifetime})")
    print(f"  admitted {s['admitted']}  rejected {s['rejected']}  "
          f"deployed {s['deployed_total']}  retired {s['retired_total']}")


def _print_durability(controller) -> None:
    if controller.durability is not None:
        d = controller.durability.summary()
        print(f"  durability: {d['journal_records']} journal records "
              f"(lsn {d['journal_lsn']}), {d['snapshots']} snapshots "
              f"-> {d['state_dir']}")


def _cmd_serve(args: argparse.Namespace) -> int:
    import pathlib

    import repro
    from repro.service import AdmissionController, PlanCache

    workload = None
    if args.trace:
        path = pathlib.Path(args.trace)
        if not path.is_file():
            return _fail(f"trace file not found: {path}")
        try:
            workload = repro.workload_from_json(path.read_text())
        except (ValueError, KeyError, AttributeError, TypeError) as exc:
            return _fail(f"{path} is not a workload manifest: {exc}")
    world = _world(args, workload)
    try:
        admission = AdmissionController(
            budget=args.budget,
            max_queue=args.max_queue,
            max_per_tick=args.per_tick,
        )
    except ValueError as exc:
        return _fail(str(exc))
    service = _service(
        world,
        args,
        admission=admission,
        cache=PlanCache(capacity=args.cache_capacity),
        durability=_durability(args),
    )
    report = service.replay(_churn(world, args))

    s = report.summary
    print(f"query lifecycle service: {args.algorithm} "
          f"on {len(world.network.nodes())} nodes")
    _print_replay(report, world, args)
    print(f"  plan cache: {s['cache_hits']} hits / {s['cache_misses']} misses "
          f"(hit rate {s['cache_hit_rate']:.1%}), {s['plans_computed']} plans computed")
    print(f"  planning: {s['planning_seconds'] * 1000:.1f} ms total, "
          f"{s['queries_per_second']:,.0f} deployments/s wall-clock")
    print(f"  epochs: statistics {service.statistics_epoch}, "
          f"topology {service.topology_epoch}")
    print(f"  final: {s['final_live']} live queries, cost {s['final_cost']:,.1f}/unit-time")
    try:
        depth = service.metrics.series_stats("service_queue_depth")
        print(f"  queue: peak depth {depth['max']:.0f} (p95 {depth['p95']:.1f})")
        lat = service.metrics.series_stats("service_planning_seconds")
        print(f"  planning latency: p50 {lat['p50'] * 1000:.2f} ms, "
              f"p95 {lat['p95'] * 1000:.2f} ms, max {lat['max'] * 1000:.2f} ms")
    except KeyError:  # pragma: no cover - nothing ever submitted
        pass
    print("  final gauges:")
    for name in service.registry.names():
        instrument = service.registry.get(name)
        if instrument.kind != "gauge":
            continue
        value = instrument.value
        print(f"    {name} = {0.0 if value is None else value:g}")
    _print_durability(service)
    return 0


def _parse_tenants(specs):
    """Parse ``name:weight[:quota]`` CLI tenant specs."""
    from repro.fleet import Tenant

    tenants = []
    for spec in specs or ():
        parts = spec.split(":")
        if not parts[0]:
            raise ValueError(f"tenant spec {spec!r} has no name")
        weight = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
        quota = int(parts[2]) if len(parts) > 2 and parts[2] else None
        tenants.append(Tenant(parts[0], weight=weight, quota=quota))
    return tenants


def _cmd_fleet(args: argparse.Namespace) -> int:
    import itertools
    import json

    import repro
    from repro.fleet import FleetController

    world = _world(args)
    try:
        tenants = _parse_tenants(args.tenant)
        fleet = FleetController(
            args.shards,
            world.network,
            world.rates,
            world.hierarchy,
            algorithm=args.algorithm,
            policy=args.policy,
            budget=args.budget,
            max_queue=args.max_queue,
            max_per_tick=args.per_tick,
            tenants=tenants,
            federation=not args.no_federation,
            durability=_durability(args),
        )
    except (ValueError, repro.ReproError) as exc:
        return _fail(str(exc))
    trace = _churn(world, args)
    tenant_for = None
    if tenants:
        cycle = itertools.cycle([t.name for t in tenants])
        assigned = {event.query.name: next(cycle) for event in trace}
        tenant_for = lambda event: assigned[event.query.name]  # noqa: E731
    report = fleet.replay(trace, tenant_for=tenant_for)

    violations = fleet.check_invariants()
    s = report.summary
    if args.json:
        payload = {
            "num_shards": fleet.num_shards,
            "policy": fleet.router.policy.name,
            "ticks": report.ticks,
            "invariant_violations": violations,
            **s,
        }
        print(json.dumps(payload, indent=2, default=str))
        return 0 if not violations else 1

    print(f"fleet control plane: {fleet.num_shards} shards "
          f"({fleet.router.policy.name} routing) on {len(world.network.nodes())} nodes")
    _print_replay(report, world, args)
    print(f"  plan caches: {s['cache_hits']} hits / {s['cache_misses']} misses, "
          f"{s['plans_computed']} plans computed")
    print(f"  throughput: {s['queries_per_second']:,.0f} deployments/s wall-clock")
    for shard in s["shards"]:
        print(f"  shard {shard['shard']}: deployed {shard['deployed_total']}, "
              f"cache {shard['cache_hits']}/{shard['cache_hits'] + shard['cache_misses']} hits, "
              f"live {shard['live']}")
    if "federation" in s:
        fed = s["federation"]
        print(f"  federation: {fed['imported_total']} imports, "
              f"{fed['withdrawn_total']} withdrawals, "
              f"{fed['promoted_total']} promotions, epoch {fed['epoch']}; "
              f"{s['cross_shard_reuse']} cross-shard reuse hits")
    for name, t in (s.get("tenants") or {}).items():
        print(f"  tenant {name}: weight {t['weight']:g}, "
              f"submitted {t.get('submitted', 0):.0f}, "
              f"admitted {t.get('admitted', 0):.0f}, "
              f"rejected {t.get('rejected', 0):.0f}")
    _print_durability(fleet)
    if violations:
        print("  INVARIANT VIOLATIONS:")
        for violation in violations:
            print(f"    {violation}")
        return 1
    print("  router invariants: ok")
    return 0


def _capacity_profile(args, network):
    """Build the ``{node: NodeCapacity}`` map a CLI run asked for."""
    import repro

    profile = args.capacity_profile
    if profile == "unbounded":
        return None
    if profile == "uniform":
        return repro.uniform_capacities(
            network, cpu=args.cpu, memory=args.memory, bandwidth=args.bandwidth
        )
    if profile == "hotspot":
        return repro.HotspotProfile(
            cpu=args.cpu,
            memory=args.memory,
            bandwidth=args.bandwidth,
            weak_fraction=args.weak_fraction,
            seed=args.seed or 0,
        ).capacities(network)
    if profile == "heterogeneous":
        return repro.HeterogeneousFleetProfile(seed=args.seed or 0).capacities(
            network
        )
    raise ValueError(f"unknown capacity profile {profile!r}")


def _cmd_resources(args: argparse.Namespace) -> int:
    import json

    from repro.resources import ResourceConfig

    world = _world(args)
    try:
        config = ResourceConfig(
            capacities=_capacity_profile(args, world.network),
            utilization_bound=args.utilization_bound,
            load_weight=args.load_weight,
            shed=not args.no_shed,
        )
    except ValueError as exc:
        return _fail(str(exc))
    service = _service(world, args, resources=config)
    report = service.replay(_churn(world, args))

    manager = service.resources
    resources = manager.summary()
    ledger = resources["ledger"]
    # Infeasible fleet: capacity never recovered enough to run every
    # admitted query, or a node is (still) over its bound.
    infeasible = bool(resources["parked"]) or bool(ledger["overloaded"])
    if args.json:
        payload = {
            "capacity_profile": args.capacity_profile,
            "algorithm": args.algorithm,
            "nodes": len(world.network.nodes()),
            "ticks": report.ticks,
            "infeasible": infeasible,
            "resources": resources,
            **{
                k: v
                for k, v in report.summary.items()
                if k not in ("resources",)
            },
        }
        print(json.dumps(payload, indent=2, default=str))
        return 1 if infeasible else 0

    s = report.summary
    print(f"resource-aware placement: {args.algorithm} on "
          f"{len(world.network.nodes())} nodes, profile {args.capacity_profile}")
    _print_replay(report, world, args)
    if manager.constrained:
        print(f"  bound {config.utilization_bound:g} "
              f"(load weight {config.load_weight:g}): "
              f"max utilization {ledger['max_utilization']:.2f}, "
              f"mean {ledger['mean_utilization']:.2f}")
        hot = ", ".join(
            f"n{h['node']}={h['utilization']:.2f}" for h in ledger["hot_nodes"]
        )
        print(f"  hot nodes: {hot or 'none'}")
        print(f"  shed {resources['shed_total']}  "
              f"readmitted {resources['readmitted_total']}  "
              f"infeasible {resources['infeasible_total']}  "
              f"parked now {len(resources['parked'])}")
    else:
        print("  unconstrained (no finite capacities): planner output is "
              "byte-identical to a build without the resource layer")
    print(f"  final: {s['final_live']} live queries, "
          f"cost {s['final_cost']:,.1f}/unit-time")
    if infeasible:
        if resources["parked"]:
            print(f"  INFEASIBLE: still parked: {', '.join(resources['parked'])}")
        for entry in ledger["overloaded"]:
            print(f"  INFEASIBLE: node {entry['node']} at "
                  f"{entry['utilization']:.2f}")
        return 1
    print("  feasibility: ok (no node over its bound, nothing parked)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import Tracer
    from repro.serialization import explanation_to_json, trace_to_json

    world = _world(args)
    queries = list(world.workload)
    if not 0 <= args.query < len(queries):
        return _fail(f"--query must be in [0, {len(queries) - 1}]")
    if args.causal or args.chrome:
        return _cmd_trace_causal(args, world, queries[args.query])
    tracer = Tracer()
    _ads, optimizer = _planner(world, args, tracer=tracer)
    query = queries[args.query]
    deployment = optimizer.plan(query, None, explain=True)
    root = tracer.last_root
    assert root is not None and deployment.explanation is not None
    if args.json:
        doc = {
            "trace": json.loads(trace_to_json(root)),
            "explanation": json.loads(explanation_to_json(deployment.explanation)),
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(f"optimizer trace: {args.algorithm} planning {query.name!r} "
          f"on {len(world.network.nodes())} nodes")
    print()
    print(root.render())
    print()
    print(deployment.explanation.render())
    return 0


def _cmd_trace_causal(args, world, query) -> int:
    """``repro trace --causal``: one deployment's causal hop tree."""
    from repro.obs import CausalTracer
    from repro.runtime import simulate_deployment
    from repro.serialization import causal_trace_to_json, chrome_trace_to_json

    if args.algorithm not in ("top-down", "bottom-up"):
        return _fail("--causal requires a hierarchical algorithm "
                     "(top-down / bottom-up); only their deployments replay as "
                     "protocol traffic")
    network, rates = world.network, world.rates
    _ads, optimizer = _planner(world, args)
    deployment = optimizer.plan(query, None)
    causal = CausalTracer()
    timeline = simulate_deployment(network, deployment, trace=causal, rates=rates)
    if args.chrome:
        print(chrome_trace_to_json(causal))
        return 0
    if args.json:
        print(causal_trace_to_json(causal))
        return 0
    trace_id = causal.trace_ids()[0]
    summary = causal.summary()
    print(f"causal trace: {args.algorithm} deploying {query.name!r} "
          f"on {len(network.nodes())} nodes")
    print(f"  deployment took {timeline.duration * 1000:.1f} ms (virtual), "
          f"{timeline.messages} messages, {timeline.tasks} planning tasks")
    print(f"  hops {summary['hops']}  retransmissions "
          f"{summary['retransmissions']}  dropped {summary['dropped']}")
    print(f"  data-flow cost (sum of flow hop link_cost tags): "
          f"{causal.flow_cost(trace_id):,.1f}/unit-time")
    print()
    print(causal.span_tree(trace_id).render(max_depth=args.max_depth))
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    import json

    from repro.perf.compare import compare_trajectory
    from repro.perf.lab import PerfLab, append_entry, load_trajectory

    if args.perf_command == "run":
        try:
            lab = PerfLab(cases=args.cases or None, repeats=args.repeats)
        except ValueError as exc:
            return _fail(str(exc))
        entry = lab.run(label=args.label)
        doc = append_entry(args.trajectory, entry)
        print(f"perf lab: ran {len(entry['cases'])} case(s) x "
              f"{args.repeats} repeat(s) -> {args.trajectory} "
              f"({len(doc['entries'])} entries)")
        for name, case in sorted(entry["cases"].items()):
            ops = ", ".join(f"{k}={v}" for k, v in sorted(case["ops"].items()))
            print(f"  {name}: {ops or 'no ops counted'} "
                  f"[median {case['wall_seconds']['median'] * 1000:.1f} ms]")
        return 0

    try:
        doc = load_trajectory(args.trajectory)
    except ValueError as exc:
        return _fail(str(exc))

    if args.perf_command == "report":
        entries = doc.get("entries", [])
        if args.json:
            print(json.dumps(doc, indent=2))
            return 0
        print(f"perf trajectory: {args.trajectory} ({len(entries)} entries)")
        for i, entry in enumerate(entries):
            label = entry.get("label") or "-"
            cases = entry.get("cases", {})
            total_ops = sum(
                sum(c.get("ops", {}).values()) for c in cases.values()
            )
            print(f"  [{i}] label={label} cases={len(cases)} "
                  f"total_ops={total_ops}")
        return 0

    # compare
    if not doc.get("entries"):
        return _fail(f"{args.trajectory} has no entries; "
                     "run `repro perf run` first")
    report = compare_trajectory(
        doc,
        op_threshold=args.op_threshold,
        wall_threshold=args.wall_threshold,
        baseline_window=args.window,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_dash(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.obs.dashboard import render_html, render_terminal
    from repro.serialization import telemetry_from_json

    if args.from_file and pathlib.Path(args.from_file).is_dir():
        # A durability state directory: show the flight bundles the
        # crashed run persisted (incident history survives the restart).
        from repro.obs.flight import load_bundles

        bundles = load_bundles(args.from_file)
        if args.json:
            print(json.dumps(bundles, indent=2, sort_keys=True))
            return 0
        print(f"persisted flight bundles: {args.from_file} "
              f"({len(bundles)} bundle(s))")
        for i, bundle in enumerate(bundles):
            print(f"  [{i}] t={bundle['time']:g} scope={bundle['scope'] or '-'} "
                  f"reason={bundle['reason']} entries={len(bundle['entries'])} "
                  f"traces={len(bundle['trace_ids'])}")
        if not bundles:
            print("  (none -- the run never cut a bundle, or the "
                  "directory has no flight/ subdirectory)")
        return 0

    if args.from_file:
        try:
            with open(args.from_file, "r", encoding="utf-8") as fh:
                envelope = telemetry_from_json(fh.read())
        except OSError as exc:
            return _fail(f"cannot read {args.from_file}: {exc}")
        except (ValueError, KeyError) as exc:
            return _fail(f"{args.from_file} is not a telemetry envelope: {exc}")
    else:
        from repro.fleet.scenario import chaos_telemetry_scenario

        result = chaos_telemetry_scenario(
            seed=args.seed,
            num_shards=args.shards,
            nodes=args.nodes,
            num_queries=args.queries,
            ticks=args.ticks,
        )
        envelope = result.telemetry.envelope()

    if args.html:
        _write(args.html, render_html(envelope))
    if args.csv:
        from repro.obs.timeseries import series_to_csv

        _write(args.csv, series_to_csv(envelope.get("series", {})))
    if args.json:
        print(json.dumps(envelope, indent=2, sort_keys=True))
    elif not args.html and not args.csv:
        print(render_terminal(envelope), end="")
    firing = [
        a for a in envelope.get("alerts", []) if a.get("state") == "firing"
    ]
    if args.once:
        return 0
    return 1 if firing else 0


def _cmd_lab(args: argparse.Namespace) -> int:
    import json

    from repro.lab import (
        LabReport,
        lab_envelope_from_json,
        lab_envelope_to_csv,
        render_lab_html,
        render_lab_terminal,
        run_lab,
    )
    from repro.lab.report import lab_to_json
    from repro.lab.spec import ScenarioError, list_scenarios, load_scenario

    if args.lab_command == "list":
        rows = list_scenarios(args.directory)
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
            return 0
        if not rows:
            print(f"no scenario files in {args.directory}")
            return 0
        for row in rows:
            if "error" in row:
                print(f"  {row['file']:28s} ERROR: {row['error']}")
                continue
            panel = ",".join(row["candidates"]) or "(default panel)"
            print(f"  {row['file']:28s} seed={row['seed']:<6} "
                  f"ticks={row['ticks']:<4} nodes={row['nodes']:<4} "
                  f"queries={row['queries']:<4} [{panel}]")
            if row["description"]:
                print(f"  {'':28s} {row['description']}")
        return 0

    if args.lab_command == "report":
        try:
            with open(args.envelope, "r", encoding="utf-8") as fh:
                envelope = lab_envelope_from_json(json.load(fh))
        except OSError as exc:
            return _fail(f"cannot read {args.envelope}: {exc}")
        except (ValueError, KeyError) as exc:
            return _fail(f"{args.envelope} is not a lab envelope: {exc}")
        report = LabReport(envelope)
        if args.html:
            _write(args.html, render_lab_html(report))
        if args.csv:
            _write(args.csv, lab_envelope_to_csv(envelope))
        if args.json:
            print(json.dumps(report.summary(), indent=2, sort_keys=True))
        elif not (args.html or args.csv):
            print(render_lab_terminal(report), end="")
        return 0

    # run
    try:
        spec = load_scenario(args.scenario)
    except OSError as exc:
        return _fail(f"cannot read {args.scenario}: {exc}")
    except ScenarioError as exc:
        return _fail(str(exc))
    try:
        result = run_lab(spec)
    except ScenarioError as exc:
        return _fail(str(exc))
    envelope = result.envelope()
    report = LabReport(envelope)
    if not args.quiet:
        print(render_lab_terminal(report), end="")
    if args.json == "-":
        print(lab_to_json(envelope), end="")
    elif args.json:
        _write(args.json, lab_to_json(envelope))
    if args.html:
        _write(args.html, render_lab_html(report))
    if args.csv:
        _write(args.csv, lab_envelope_to_csv(envelope))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.service import AdmissionController

    world = _world(args)
    service = _service(world, args, admission=AdmissionController(budget=args.budget))
    service.replay(_churn(world, args))
    if args.format == "json":
        print(json.dumps(service.registry.snapshot(), indent=2))
    else:
        print(service.registry.exposition(), end="")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.durability import inspect_state_dir
    from repro.errors import StateMismatchError

    state_dir = pathlib.Path(args.state_dir)
    if not state_dir.is_dir():
        return _fail(f"state directory not found: {state_dir}")
    if not args.inspect:
        return _fail("offline recovery needs the owning process's "
                     "deterministic factory; use --inspect for the read-only "
                     "report, or recover() from the library "
                     "(see docs/durability.md)")
    try:
        doc = inspect_state_dir(state_dir)
    except StateMismatchError as exc:
        return _fail(str(exc))
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    j = doc["journal"]
    print(f"state directory: {doc['state_dir']}")
    print(f"  journal: {j['records']} valid records (lsn {j['last_lsn']})")
    if j["dropped_lines"]:
        print(f"    would drop: {j['dropped_lines']} line(s), "
              f"{j['dropped_bytes']} bytes -- {j['drop_reason']}")
    else:
        print("    tail: clean (nothing to drop)")
    for kind, count in j["kinds"].items():
        print(f"    {kind}: {count}")
    for snap in doc["snapshots"]:
        status = "ok" if snap["valid"] else f"REJECTED ({snap['reason']})"
        print(f"  snapshot {snap['file']}: "
              f"lsn {snap.get('lsn', '?')} [{status}]")
    if not doc["snapshots"]:
        print("  snapshots: none (recovery would replay the whole journal)")
    rec = doc["recovery"]
    print(f"  recovery would: restore lsn {rec['snapshot_lsn']}, then replay "
          f"{rec['replay_records']} command(s) ({rec['replay_ticks']} ticks)")
    for mig in doc["in_flight_migrations"]:
        print(f"  in-flight migration: {mig['query']} at barrier "
              f"{mig['phase']!r} (begun lsn {mig['begin_lsn']})")
    return 0


def _cmd_chaos_crash(args: argparse.Namespace) -> int:
    """``repro chaos --crash-points N``: the crash-restart matrix."""
    import json
    import tempfile

    from repro.durability.harness import (
        SCENARIOS,
        crash_restart_matrix,
        default_crash_points,
        run_steps,
        scan_journal,
    )
    from repro.durability.journal import JOURNAL_FILE

    scenario = SCENARIOS[args.crash_scope]()
    state_root = args.state_dir or tempfile.mkdtemp(prefix="repro-crash-")
    limit = args.crash_points if args.crash_points > 0 else None

    # Pre-derive the candidate points from a throwaway baseline so the
    # limit applies before the expensive per-point runs.
    import pathlib

    probe_dir = pathlib.Path(state_root) / "probe"
    probe = scenario.factory(probe_dir)
    run_steps(scenario, probe)
    records, _ = scan_journal(probe_dir / JOURNAL_FILE)
    points = default_crash_points(records, limit=limit)

    report = crash_restart_matrix(scenario, state_root, points=points)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
        return 0 if report["converged"] else 1
    print(f"crash-restart matrix: {report['scope']} scenario, "
          f"{report['steps']} scripted commands, "
          f"{report['journal_records']} journal records")
    for p in report["points"]:
        mode = ("torn-tail" if p["torn_tail"]
                else "mid-snapshot" if p["mid_snapshot"] else "clean")
        if not p["fired"]:
            print(f"  [{p['index']:2d}] lsn {p['after_lsn']:4d} {mode}: "
                  f"NEVER FIRED")
            continue
        rec = p["recovery"]
        verdict = "converged" if p["digest_match"] and not p[
            "invariant_violations"] else "DIVERGED"
        print(f"  [{p['index']:2d}] lsn {p['after_lsn']:4d} {mode:12s} "
              f"crash@step {p['crashed_in_step']:2d} -> snapshot "
              f"{rec['snapshot_lsn']:4d} + {rec['replayed_records']:2d} "
              f"replayed, resume@{p['resumed_at_step']:2d}: {verdict}")
    print(f"  {report['points_matched']}/{report['points_fired']} crash "
          f"points converged to the uncrashed digest")
    if not report["converged"]:
        print("  CRASH-RESTART EQUIVALENCE FAILED")
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import pathlib

    if args.crash_points is not None:
        return _cmd_chaos_crash(args)

    import repro
    from repro.resilience import FaultInjector, FaultPlan, ResilienceConfig
    from repro.resilience.faults import (
        CoordinatorOutage,
        CoordinatorSlowdown,
        MessageStorm,
        NodeCrash,
        StaleStatistics,
    )
    from repro.service import AdmissionController

    world = _world(args)
    network, workload, rates, hierarchy = (
        world.network, world.workload, world.rates, world.hierarchy
    )

    if args.plan:
        path = pathlib.Path(args.plan)
        if not path.is_file():
            return _fail(f"fault plan not found: {path}")
        try:
            plan = repro.fault_plan_from_json(path.read_text())
        except (ValueError, KeyError, TypeError) as exc:
            return _fail(f"{path} is not a fault plan: {exc}")
    else:
        # Keep source and sink nodes crash-free so the workload stays
        # plannable; everything else is fair game.  Concentrate the
        # scripted events inside the churn window (submissions plus one
        # lifetime) -- faults that fire after the last query retires
        # exercise nothing.
        protected = {spec.source for spec in rates.streams.values()}
        protected |= {q.sink for q in workload}
        submit_ticks = math.ceil(len(workload) * args.repeats / max(1, args.arrivals))
        window = min(args.duration, submit_ticks + args.lifetime)
        # Outages/slowdowns aimed at the coordinators the workload
        # actually plans through, so the drill exercises the ladder.
        coordinators = {hierarchy.leaf_cluster(q.sink).coordinator for q in workload}
        plan = FaultPlan.generate(
            network.nodes(),
            seed=args.seed,
            duration=window,
            protected=protected,
            focus=coordinators,
        )
    if args.emit_plan:
        print(repro.fault_plan_to_json(plan))
        return 0

    faults = FaultInjector(plan)
    service = _service(
        world,
        args,
        admission=AdmissionController(budget=args.budget),
        resilience=ResilienceConfig(),
        faults=faults,
    )
    report = service.replay(_churn(world, args))
    # Keep ticking past the trace so every scripted fault fires.
    while service.clock < args.duration:
        service.tick()

    s = report.summary
    res = service.resilience.summary()
    fs = faults.summary()
    counts = {
        "crashes": len(plan.of_kind(NodeCrash)),
        "outages": len(plan.of_kind(CoordinatorOutage)),
        "slowdowns": len(plan.of_kind(CoordinatorSlowdown)),
        "storms": len(plan.of_kind(MessageStorm)),
        "stale windows": len(plan.of_kind(StaleStatistics)),
    }
    print(f"chaos drill: {args.algorithm} on {len(network.nodes())} nodes, "
          f"seed {args.seed}, {args.duration:g} ticks")
    print("  fault plan: " + ", ".join(f"{v} {k}" for k, v in counts.items() if v))
    print(f"  trace: {s['submitted']} submissions, "
          f"{s['deployed_total']} deployments, {s['retired_total']} retirements")
    print(f"  faults applied: {fs['events_applied']} events; messages "
          f"dropped {fs['messages_dropped']}, delayed {fs['messages_delayed']}, "
          f"duplicated {fs['messages_duplicated']}")
    print(f"  resilience: {res['retries']} retries, {res['fallbacks']} fallbacks, "
          f"{res['breaker_opens']} breaker opens")
    print(f"  parked: {len(res['parked_now'])} now / {res['parked_total']} total; "
          f"quarantined: {len(res['quarantined_now'])} now / "
          f"{res['quarantined_total']} total")
    print(f"  degraded queries: {len(res['degraded_queries'])}")
    print(f"  final: {len(service.live_queries)} live queries, "
          f"cost {service.total_cost():,.1f}/unit-time, "
          f"epochs stats={service.statistics_epoch} topo={service.topology_epoch}")

    failures: list[str] = []
    violations = hierarchy.invariant_violations()
    if violations:
        failures.extend(f"hierarchy invariant: {v}" for v in violations)
    crashed = set(faults.crashed)
    for deployment in service.engine.state.deployments:
        bad = sorted(set(deployment.placement.values()) & crashed)
        if bad:
            failures.append(
                f"live query {deployment.query.name!r} has operators on "
                f"crashed node(s) {bad}"
            )
    if failures:
        print("  VALIDATION FAILED:")
        for failure in failures:
            print(f"    - {failure}")
        return 1
    print("  validation: hierarchy invariants hold; "
          "no live operators on crashed nodes")
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    import json

    from repro.adaptive import AdaptivityConfig
    from repro.core.cost import RateModel, deployment_cost
    from repro.service import AdmissionController
    from repro.workload import drift_timeline

    world = _world(args)
    network, rates = world.network, world.rates
    if args.stream is not None and args.stream not in rates.streams:
        return _fail(f"unknown stream {args.stream!r} "
                     f"(catalog: {', '.join(sorted(rates.streams))})")
    try:
        timeline = drift_timeline(
            rates.streams,
            kind=args.drift,
            stream=args.stream,
            at=args.at,
            duration=args.ramp,
            factor=args.factor,
            period=args.period,
            amplitude=args.amplitude,
        )
    except ValueError as exc:
        return _fail(str(exc))

    config = AdaptivityConfig(
        horizon=args.horizon, bytes_per_tuple=args.bytes_per_tuple,
        publish_cooldown=2.0, query_cooldown=2.0, max_migrations_per_tick=4,
    )

    def build(adaptivity):
        # Each twin gets its own world: the adaptive loop publishes
        # revised statistics into its rate model, which must not leak
        # to the static control.
        twin = _world(args)
        service = _service(
            twin,
            args,
            ads=False,
            admission=AdmissionController(budget=len(twin.workload.queries)),
            adaptivity=adaptivity,
        )
        for query in twin.workload:
            service.submit(query)
        return service

    adaptive, static = build(config), build(None)
    costs = network.cost_matrix()
    ticks = []
    for tick in range(1, args.ticks + 1):
        now = float(tick)
        adaptive.adaptivity.observe_rates(timeline.rates_at(now))
        report = adaptive.tick(now)
        static.tick(now)
        oracle = RateModel(timeline.streams_at(now))
        entry = {
            "tick": tick,
            "static_cost": sum(
                deployment_cost(d, costs, oracle)
                for d in static.engine.state.deployments
            ),
            "adaptive_cost": sum(
                deployment_cost(d, costs, oracle)
                for d in adaptive.engine.state.deployments
            ),
            "drift_streams": list(report.drift_streams),
            "migrated": list(report.migrated),
        }
        ticks.append(entry)

    summary = adaptive.adaptivity.summary()
    migrations = [
        outcome.to_dict()
        for r in adaptive.adaptivity.reports
        for outcome in r.migrations
    ]
    if args.emit_timeline:
        doc = {
            "drift": {
                "kind": args.drift,
                "events": [
                    {"stream": e.stream, **{
                        k: v for k, v in vars(e).items() if k != "stream"
                    }}
                    for e in timeline.events
                ],
            },
            "ticks": ticks,
            "migrations": migrations,
            "summary": summary,
        }
        print(json.dumps(doc, indent=2))
        return 0

    drifting = ", ".join(e.stream for e in timeline.events)
    print(f"adaptivity drill: {args.drift} drift on {drifting}, "
          f"{len(network.nodes())} nodes, {args.ticks} ticks, seed {args.seed or 0}")
    monitor = summary["monitor"]
    print(f"  drift events published: {monitor['publications']} "
          f"({monitor['samples']} samples over {monitor['streams_monitored']} streams)")
    print(f"  re-optimizations: {summary['evaluations']} evaluated, "
          f"{summary['migrations_committed']} migrations committed, "
          f"{summary['migrations_aborted']} aborted")
    print(f"  moved: {summary['operators_moved']} operators, "
          f"{summary['state_bytes_moved']:,.0f} bytes of window state")
    for entry in ticks:
        if entry["migrated"]:
            print(f"    t={entry['tick']}: migrated {', '.join(entry['migrated'])}")
    settle = timeline.settle_time()
    post = [t for t in ticks if t["tick"] > settle]
    static_total = sum(t["static_cost"] for t in post)
    adaptive_total = sum(t["adaptive_cost"] for t in post)
    saved = 0.0 if static_total == 0 else (
        (static_total - adaptive_total) / static_total * 100.0
    )
    print(f"  post-drift cumulative cost: static {static_total:,.0f}, "
          f"adaptive {adaptive_total:,.0f} ({saved:.1f}% saved)")
    return 0


#: Flags of the subcommands that replay a churn trace through a
#: controller (trace shape, admission, durability); each asks
#: :func:`_world_args` for the ones it takes.  Budget and queue bounds are
#: per shard in a fleet.
_REPLAY_FLAGS = {
    "--budget": dict(type=int, default=8,
                     help="concurrent-deployment budget"),
    "--lifetime": dict(type=float, default=5.0,
                       help="ticks each query stays deployed"),
    "--arrivals": dict(type=int, default=2,
                       help="submissions per tick in the trace"),
    "--repeats": dict(type=int, default=2,
                      help="times the query sequence is replayed "
                           "(exercises the plan cache)"),
    "--max-queue": dict(type=int, default=None,
                        help="submission-queue bound (default unbounded)"),
    "--per-tick": dict(type=int, default=None,
                       help="max queue admissions per tick"),
    "--state-dir": dict(default=None, metavar="DIR",
                        help="durable mode: journal every command and cut "
                             "periodic snapshots into DIR (opt-in; default "
                             "is fully in-memory)"),
}


def _json_flag(parser, what: str) -> None:
    parser.add_argument("--json", action="store_true", help=f"emit {what} as JSON")


def _world_args(parser, queries, algorithms=HIERARCHICAL, algorithm_help=None,
                max_cs=8, seed=None, seed_help=None, replay=()) -> None:
    """Declare the flags :func:`_world` reads (``--nodes --streams
    --queries --max-cs --algorithm --seed``) with this subcommand's
    defaults and planner choices, plus the ``replay`` flags it takes."""
    parser.add_argument("--nodes", type=int, default=32)
    parser.add_argument("--streams", type=int, default=8)
    parser.add_argument("--queries", type=int, default=queries)
    parser.add_argument("--max-cs", type=int, default=max_cs)
    parser.add_argument("--algorithm", default="top-down",
                        choices=list(algorithms), help=algorithm_help)
    parser.add_argument("--seed", type=int, default=seed, help=seed_help)
    for flag in replay:
        parser.add_argument(flag, **_REPLAY_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hierarchical network partitions for distributed stream query optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, help, parent=sub):
        """One subparser, bound to the function that runs it."""
        subparser = parent.add_parser(name, help=help)
        subparser.set_defaults(func=func)
        return subparser

    figures = subcommand("figures", _cmd_figures, "regenerate paper figures")
    figures.add_argument("names", nargs="*", help=f"figures to run ({', '.join(FIGURES)})")
    figures.add_argument("--all", action="store_true", help="run every figure")
    figures.add_argument("--seed", type=int, default=None)

    demo = subcommand("demo", _cmd_demo, "run a built-in demo")
    demo.add_argument("name", choices=list(DEMOS))

    bounds = subcommand("bounds", _cmd_bounds,
                        "print the analytical search-space bounds")
    bounds.add_argument("-k", "--streams", type=int, default=4)
    bounds.add_argument("-n", "--nodes", type=int, default=128)
    bounds.add_argument("--max-cs", type=int, default=32)

    plan = subcommand("plan", _cmd_plan, "plan a SQL query on a synthetic network")
    plan.add_argument("sql", help="SELECT ... FROM ... WHERE ... text")
    plan.add_argument("--nodes", type=int, default=32)
    plan.add_argument("--sink", type=int, default=0)
    plan.add_argument("--max-cs", type=int, default=8)
    plan.add_argument("--algorithm", default="top-down", choices=list(ALGORITHMS))
    plan.add_argument("--seed", type=int, default=None)

    serve = subcommand("serve", _cmd_serve,
                       "run the query lifecycle service over a churning workload trace")
    serve.add_argument("--trace", default=None,
                       help="workload JSON (from repro.workload_to_json); "
                            "omit to generate one")
    _world_args(serve, queries=20, algorithms=ALGORITHMS, replay=_REPLAY_FLAGS)
    serve.add_argument("--cache-capacity", type=int, default=256)

    fleet = subcommand("fleet", _cmd_fleet,
                       "run the sharded multi-tenant fleet control plane "
                       "over a churn trace")
    fleet.add_argument("--shards", type=int, default=4)
    fleet.add_argument("--policy", default="subtree", choices=["subtree", "hash"],
                       help="shard-assignment policy")
    _world_args(fleet, queries=20, replay=_REPLAY_FLAGS)
    fleet.add_argument("--tenant", action="append", metavar="NAME:WEIGHT[:QUOTA]",
                       help="add a tenant (repeatable); submissions round-robin "
                            "across tenants")
    fleet.add_argument("--no-federation", action="store_true",
                       help="disable cross-shard view reuse")
    _json_flag(fleet, "the full fleet summary")

    resources = subcommand("resources", _cmd_resources,
                           "run the capacity-bounded lifecycle service "
                           "over a churn trace")
    resources.add_argument("--capacity-profile", default="uniform",
                           choices=["unbounded", "uniform", "heterogeneous",
                                    "hotspot"],
                           help="how node capacities are drawn")
    resources.add_argument("--utilization-bound", type=float, default=1.0,
                           help="max allowed per-node utilization ratio")
    resources.add_argument("--load-weight", type=float, default=0.0,
                           help="bi-criteria weight on projected utilization "
                                "(0 = pure communication cost under the bound)")
    for kind, default in (("cpu", 600.0), ("memory", 400.0), ("bandwidth", 800.0)):
        resources.add_argument(f"--{kind}", type=float, default=default,
                               help=f"per-node {kind} capacity (uniform/hotspot)")
    resources.add_argument("--weak-fraction", type=float, default=0.25,
                           help="hotspot profile: fraction of weak nodes")
    resources.add_argument("--no-shed", action="store_true",
                           help="park infeasible queries instead of shedding "
                                "lighter ones")
    _world_args(resources, queries=12,
                replay=("--lifetime", "--arrivals", "--repeats"))
    _json_flag(resources, "the full report")

    trace = subcommand("trace", _cmd_trace,
                       "trace one optimization: span tree + exportable plan explanation")
    trace.add_argument("--query", type=int, default=0,
                       help="index of the generated query to trace")
    _world_args(trace, queries=8, algorithms=ALGORITHMS[:3],
                algorithm_help="planners with span tracing + explain support")
    _json_flag(trace, "the trace and explanation")
    trace.add_argument("--causal", action="store_true",
                       help="replay the deployment protocol with causal "
                            "tracing and show the cross-coordinator hop tree")
    trace.add_argument("--chrome", action="store_true",
                       help="emit the causal trace as Chrome trace-event "
                            "JSON (implies --causal)")
    trace.add_argument("--max-depth", type=int, default=None,
                       help="depth bound for the rendered hop tree "
                            "(pruned subtrees are marked)")

    metrics = subcommand("metrics", _cmd_metrics,
                         "replay a churn trace and export the typed metric registry")
    metrics.add_argument("--format", default="prom", choices=["prom", "json"],
                         help="Prometheus text exposition or JSON snapshot")
    _world_args(metrics, queries=12, algorithms=ALGORITHMS,
                replay=("--budget", "--lifetime", "--repeats"))

    chaos = subcommand("chaos", _cmd_chaos,
                       "run a seeded fault-injection drill "
                       "against the resilient service")
    chaos.add_argument("--duration", type=float, default=40.0,
                       help="virtual ticks the drill covers")
    _world_args(chaos, queries=12, seed=0,
                seed_help="seed for the workload and the fault plan",
                algorithm_help="hierarchical planners (the ladder degrades "
                               "from them)",
                replay=("--budget", "--lifetime", "--arrivals", "--repeats"))
    chaos.add_argument("--plan", default=None,
                       help="fault-plan JSON (from --emit-plan); "
                            "overrides generation")
    chaos.add_argument("--emit-plan", action="store_true",
                       help="print the generated fault plan as JSON and exit")
    chaos.add_argument("--crash-points", type=int, default=None, metavar="N",
                       help="run the crash-restart equivalence matrix "
                            "instead of the fault drill: crash at N seeded "
                            "journal points (0 = every derived point), "
                            "recover, and require digest convergence")
    chaos.add_argument("--crash-scope", default="fleet",
                       choices=["service", "fleet"],
                       help="scripted scenario the crash matrix runs "
                            "(default: the seeded 2-shard fleet)")
    chaos.add_argument("--state-dir", default=None, metavar="DIR",
                       help="root directory for the matrix's per-point "
                            "state dirs (default: a temp dir)")
    _json_flag(chaos, "the crash matrix report")

    recover = subcommand("recover", _cmd_recover,
                         "inspect a durability state directory: journal health, "
                         "snapshots, and what a recovery would replay")
    recover.add_argument("state_dir", help="durability state directory")
    recover.add_argument("--inspect", action="store_true",
                         help="read-only report (journal tail, snapshot "
                              "validity, replay suffix, in-flight "
                              "migrations); required -- recovery itself "
                              "is a library call")
    _json_flag(recover, "the inspection report")

    adapt = subcommand("adapt", _cmd_adapt,
                       "run a seeded rate-drift drill against the adaptive loop")
    adapt.add_argument("--ticks", type=int, default=30,
                       help="virtual ticks the drill covers")
    _world_args(adapt, queries=6, max_cs=4, seed=2,
                seed_help="seed for the network and workload",
                algorithm_help="hierarchical planners (re-planning reuses them)")
    adapt.add_argument("--drift", default="step",
                       choices=["step", "ramp", "periodic"],
                       help="shape of the scheduled rate change")
    adapt.add_argument("--stream", default=None,
                       help="drifting stream (default: the lowest-rate one)")
    for flag, default, text in (
        ("--at", 5.0, "step time / ramp start"),
        ("--ramp", 10.0, "ramp duration (--drift ramp)"),
        ("--factor", 6.0, "rate multiplier after the step/ramp"),
        ("--period", 24.0, "oscillation period (--drift periodic)"),
        ("--amplitude", 0.5, "oscillation amplitude (--drift periodic)"),
        ("--horizon", 30.0, "ticks a migration's saving is amortized over"),
        ("--bytes-per-tuple", 16.0, "window-state size per buffered tuple"),
    ):
        adapt.add_argument(flag, type=float, default=default, help=text)
    adapt.add_argument("--emit-timeline", action="store_true",
                       help="emit the per-tick cost/migration timeline as JSON")

    perf = sub.add_parser(
        "perf",
        help="performance regression lab: run benchmarks, compare, report",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    perf_run = subcommand("run", _cmd_perf, parent=perf_sub,
                          help="run the benchmark suite and append to the trajectory")
    perf_run.add_argument("--label", default="",
                          help="free-form label stored on the entry "
                               "(e.g. a commit id)")
    perf_run.add_argument("--repeats", type=int, default=3,
                          help="repeats per case (op counts must agree)")
    perf_run.add_argument("--cases", nargs="*", default=None,
                          help="case names to run (default: the quick subset)")

    perf_compare = subcommand("compare", _cmd_perf, parent=perf_sub,
                              help="compare the latest entry against the "
                                   "median-of-N baseline")
    perf_compare.add_argument("--op-threshold", type=float, default=0.25,
                              help="relative op-count increase that fails "
                                   "(0.25 = +25%%)")
    perf_compare.add_argument("--wall-threshold", type=float, default=0.5,
                              help="relative wall-median increase reported "
                                   "(advisory only, never fails)")
    perf_compare.add_argument("--window", type=int, default=5,
                              help="prior entries in the median baseline")
    _json_flag(perf_compare, "the comparison report")

    perf_report = subcommand("report", _cmd_perf, parent=perf_sub,
                             help="summarize the stored trajectory")
    _json_flag(perf_report, "the full trajectory document")
    for perf_command in (perf_run, perf_compare, perf_report):
        perf_command.add_argument("--trajectory", default="BENCH_trajectory.json",
                                  help="trajectory file to append to / read")

    dash = subcommand("dash", _cmd_dash,
                      "telemetry control tower: render a dashboard from a "
                      "repro.telemetry envelope or a seeded chaos drill")
    dash.add_argument("--from", dest="from_file", default=None,
                      metavar="FILE",
                      help="render a saved repro.telemetry JSON envelope "
                           "instead of running the built-in scenario")
    dash.add_argument("--seed", type=int, default=7,
                      help="seed for the built-in fleet chaos scenario")
    dash.add_argument("--nodes", type=int, default=32)
    dash.add_argument("--queries", type=int, default=10)
    dash.add_argument("--shards", type=int, default=2)
    dash.add_argument("--ticks", type=int, default=24,
                      help="virtual ticks the scenario drives")
    _json_flag(dash, "the telemetry envelope (instead of the dashboard)")
    dash.add_argument("--html", default=None, metavar="PATH",
                      help="also write a static HTML report")
    dash.add_argument("--csv", default=None, metavar="PATH",
                      help="also write the series as long-form CSV "
                           "(series,time,value) for external plotting")
    dash.add_argument("--once", action="store_true",
                      help="always exit 0 (default: exit 1 while any alert "
                           "is firing, for scripting)")

    lab = sub.add_parser(
        "lab",
        help="scenario lab: candidate-vs-candidate experiments with "
             "auto-generated comparative reports",
    )
    lab_sub = lab.add_subparsers(dest="lab_command", required=True)

    lab_run = subcommand("run", _cmd_lab, parent=lab_sub,
                         help="step a scenario's candidate panel and report")
    lab_run.add_argument("scenario", metavar="SCENARIO",
                         help="scenario file (.json, or .toml on "
                              "Python >= 3.11)")
    lab_run.add_argument("--json", default=None, metavar="PATH",
                         help="write the repro.lab envelope "
                              "('-' for stdout)")
    lab_run.add_argument("--html", default=None, metavar="PATH",
                         help="write the comparative HTML report")
    lab_run.add_argument("--csv", default=None, metavar="PATH",
                         help="write every candidate's telemetry series "
                              "as long-form CSV")
    lab_run.add_argument("--quiet", action="store_true",
                         help="suppress the terminal report")

    lab_report = subcommand("report", _cmd_lab, parent=lab_sub,
                            help="re-render a saved repro.lab envelope")
    lab_report.add_argument("envelope", metavar="ENVELOPE",
                            help="a repro.lab JSON file written by "
                                 "`repro lab run --json`")
    lab_report.add_argument("--html", default=None, metavar="PATH",
                            help="write the comparative HTML report")
    lab_report.add_argument("--csv", default=None, metavar="PATH",
                            help="write the telemetry series as CSV")
    _json_flag(lab_report, "the comparison summary (instead of the report)")

    lab_list = subcommand("list", _cmd_lab, parent=lab_sub,
                          help="list the scenario files in a directory")
    lab_list.add_argument("--dir", dest="directory",
                          default="benchmarks/scenarios",
                          help="directory to scan for .json/.toml "
                               "scenarios")
    _json_flag(lab_list, "the listing")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def serve_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-serve`` console script.

    Equivalent to ``repro serve ...`` -- a dedicated binary name for the
    long-running service so process managers can target it directly.
    """
    if argv is None:
        argv = sys.argv[1:]
    return main(["serve", *argv])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
